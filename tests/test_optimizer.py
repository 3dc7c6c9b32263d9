"""Search supervisor: mode machine, sample priming, clamping, convergence."""

from __future__ import annotations

import pytest

from fluxseek.errors import SearchModeError
from fluxseek.fuzzy import EfficiencyController, estimate_torque, output_gain
from fluxseek.optimizer import (
    DriveMode,
    SearchState,
    advance_sample_timer,
    search_sample,
    update_mode,
)


@pytest.fixture(scope="module")
def settings(config):
    return config.search


@pytest.fixture(scope="module")
def controller(config):
    return EfficiencyController(config.rulebase, config.gains, config.machine)


def searching_state(**overrides) -> SearchState:
    state = SearchState(mode=DriveMode.STEADY_SEARCH)
    for key, value in overrides.items():
        setattr(state, key, value)
    return state


def i_b_at(controller, omega, i_ds, i_qs) -> float:
    return output_gain(
        controller.gains, omega, estimate_torque(controller.params, i_ds, i_qs)
    )


# -- mode machine -----------------------------------------------------------------


def test_command_change_abandons_search(settings):
    state = searching_state(previous_power=1500.0, last_di_ds=-0.2, converged=True)
    update_mode(state, settings, 0.0, command_changed=True)
    assert state.mode is DriveMode.TRANSIENT_RATED_FLUX
    assert state.last_di_ds == 0.0
    assert state.previous_power is None
    assert not state.converged


def test_large_speed_error_abandons_search(settings):
    state = searching_state(previous_power=1500.0, last_di_ds=-0.2)
    update_mode(state, settings, 2.0 * settings.steady_speed_tolerance, False)
    assert state.mode is DriveMode.TRANSIENT_RATED_FLUX
    assert state.last_di_ds == 0.0


def test_exactly_n_steady_steps_enter_search(settings):
    state = SearchState()
    for _ in range(settings.steady_steps - 1):
        update_mode(state, settings, 0.0, False)
        assert state.mode is DriveMode.TRANSIENT_RATED_FLUX
    update_mode(state, settings, 0.0, False)
    assert state.mode is DriveMode.STEADY_SEARCH
    assert state.last_di_ds == 0.0


def test_counter_resets_when_error_leaves_band(settings):
    state = SearchState()
    for _ in range(settings.steady_steps - 1):
        update_mode(state, settings, 0.0, False)
    update_mode(state, settings, 10.0, False)
    assert state.mode is DriveMode.TRANSIENT_RATED_FLUX
    assert state.steady_counter == 0
    # needs the full count again
    for _ in range(settings.steady_steps - 1):
        update_mode(state, settings, 0.0, False)
    assert state.mode is DriveMode.TRANSIENT_RATED_FLUX


def test_sample_timer_fires_on_period(settings):
    state = searching_state()
    dt = settings.search_period / 4.0
    fired = [advance_sample_timer(state, settings, dt) for _ in range(8)]
    assert fired == [False, False, False, True] * 2


def test_sample_timer_inert_outside_search(settings):
    state = SearchState()
    assert not advance_sample_timer(state, settings, settings.search_period * 2.0)


# -- sampling ------------------------------------------------------------------------


def test_sample_outside_search_is_contract_violation(settings, controller):
    with pytest.raises(SearchModeError):
        search_sample(SearchState(), settings, controller, 1500.0, 150.0, 5.0, 3.0)


def test_first_sample_only_primes(settings, controller):
    state = searching_state()
    state, cmd = search_sample(state, settings, controller, 1500.0, 150.0, 5.0, 3.0)
    assert cmd == 5.0
    assert state.previous_power == 1500.0
    assert state.last_di_ds == 0.0


def test_second_sample_applies_exploratory_decrement(settings, controller):
    state = searching_state()
    state, _ = search_sample(state, settings, controller, 1500.0, 150.0, 5.0, 3.0)
    state, cmd = search_sample(state, settings, controller, 1500.0, 150.0, 5.0, 3.0)
    i_b = i_b_at(controller, 150.0, 5.0, 3.0)
    assert cmd == pytest.approx(5.0 - settings.initial_step_fraction * i_b, rel=1e-12)
    assert state.last_di_ds == pytest.approx(-settings.initial_step_fraction * i_b, rel=1e-12)


def test_power_drop_while_decrementing_continues_down(settings, controller):
    state = searching_state(previous_power=1500.0, last_di_ds=-0.3)
    state, cmd = search_sample(state, settings, controller, 1400.0, 150.0, 4.0, 4.0)
    assert cmd < 4.0
    assert state.last_di_ds < 0.0
    assert state.previous_power == 1400.0


def test_power_rise_while_decrementing_reverses(settings, controller):
    state = searching_state(previous_power=1400.0, last_di_ds=-0.3)
    state, cmd = search_sample(state, settings, controller, 1460.0, 150.0, 3.0, 5.0)
    assert cmd > 3.0


def test_clamp_at_minimum_records_zero_step(settings, controller, config):
    lo = config.machine.min_excitation_current
    state = searching_state(previous_power=1500.0, last_di_ds=-0.3)
    state, cmd = search_sample(state, settings, controller, 1400.0, 150.0, lo, 8.0)
    assert cmd == lo
    assert state.last_di_ds == 0.0


def test_clamp_at_rated_records_zero_step(settings, controller, config):
    hi = config.machine.rated_excitation_current
    # rising power with increasing history reverses upward, clamped at rated
    state = searching_state(previous_power=1400.0, last_di_ds=0.3)
    state, cmd = search_sample(state, settings, controller, 1380.0, 150.0, hi, 3.0)
    assert cmd == hi
    assert state.last_di_ds == 0.0


def test_convergence_flag_needs_m_consecutive_small_steps(settings, controller):
    state = searching_state(previous_power=1500.0, last_di_ds=-0.001)
    # tiny power changes produce sub-threshold steps
    for i in range(settings.convergence_samples - 1):
        state, _ = search_sample(state, settings, controller, 1500.0, 150.0, 3.0, 5.0)
        assert not state.converged
    state, _ = search_sample(state, settings, controller, 1500.0, 150.0, 3.0, 5.0)
    assert state.converged
    assert state.convergence_counter >= settings.convergence_samples


def test_large_step_resets_convergence_counter(settings, controller):
    # Mid-search direction memory, two small-step ticks already counted.
    state = searching_state(
        previous_power=1500.0, last_di_ds=-0.3, convergence_counter=2
    )
    state, cmd = search_sample(state, settings, controller, 1100.0, 150.0, 3.0, 5.0)
    assert cmd < 3.0 - settings.convergence_step_fraction  # a real step
    assert state.convergence_counter == 0
    assert not state.converged


def test_search_stays_armed_after_convergence(settings, controller):
    # A converged tail keeps a tiny nonzero last step (exact zeros only occur
    # at the clamp boundary); sustained power drift then re-arms the search
    # within a few samples as the direction memory regrows.
    state = searching_state(
        previous_power=1500.0,
        last_di_ds=-1e-4,
        convergence_counter=settings.convergence_samples,
        converged=True,
    )
    power = 1500.0
    cmd = 3.0
    for _ in range(5):
        power -= 400.0
        state, cmd = search_sample(state, settings, controller, power, 150.0, cmd, 5.0)
        if not state.converged:
            break
    assert not state.converged
    assert cmd != 3.0
