"""Search supervisor: mode machine and its event steps, sample priming,
clamping, convergence."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from fluxseek.errors import SearchModeError
from fluxseek.fuzzy import EfficiencyController, estimate_torque, output_gain
from fluxseek.harness.runner import simulate
from fluxseek.harness.scenario import constant_scenario
from fluxseek.optimizer import (
    DriveMode,
    SearchState,
    next_sample,
    search_sample,
    steady_entry,
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


def _entry_by_counting(in_band: list[bool], steady_steps: int) -> int | None:
    """The rule as a per-step counter: the step where ``steady_steps``
    consecutive in-band steps have been counted, counting from 1."""
    counter = 0
    for k, ok in enumerate(in_band):
        counter = counter + 1 if ok else 0
        if counter >= steady_steps:
            return k
    return None


def test_exactly_n_steady_steps_enter_search(settings):
    n = settings.steady_steps
    assert steady_entry(0, settings) == _entry_by_counting([True] * (n + 5), n) == n - 1
    assert steady_entry(37, settings) == 37 + n - 1
    # update_mode on the entry step enters the search with cleared history
    state = SearchState()
    update_mode(state, settings, 0.0, False)
    assert state.mode is DriveMode.STEADY_SEARCH
    assert state.last_di_ds == 0.0
    assert state.previous_power is None


def test_counter_resets_when_error_leaves_band(settings):
    n = settings.steady_steps
    # n - 1 steps in the band, one out: the count starts again after it
    in_band = [True] * (n - 1) + [False] + [True] * (n + 3)
    assert _entry_by_counting(in_band, n) == steady_entry(n, settings) == 2 * n - 1
    # a step outside the band leaves a transient state in transient
    state = SearchState()
    update_mode(state, settings, 10.0, False)
    assert state.mode is DriveMode.TRANSIENT_RATED_FLUX
    update_mode(state, settings, 0.0, True)
    assert state.mode is DriveMode.TRANSIENT_RATED_FLUX


def _per_step_samples(period: float, dt: float, timer: float, n_steps: int) -> list[int]:
    """The rule as a per-step timer: the steps, counting from 1, on which
    ``timer += dt`` reaches ``period``, each sample taking the period off."""
    fired = []
    for k in range(1, n_steps + 1):
        timer += dt
        if timer >= period:
            timer -= period
            fired.append(k)
    return fired


def test_sample_timer_fires_on_period(settings):
    dt = settings.search_period / 4.0
    assert next_sample(settings, dt, 0.0, 100) == (4, 0.0)
    # 5000 additions of 1e-4 s fall short of 0.5 s: the first sample is on
    # step 5001, and the remainder carried over puts the next 5000 later
    half = dataclasses.replace(settings, search_period=0.5)
    first, timer = next_sample(half, 1e-4, 0.0, 10**6)
    assert first == 5001
    assert timer == pytest.approx(1e-4 - 3.9e-14, abs=1e-15)
    assert next_sample(half, 1e-4, timer, 10**6)[0] == 5000
    # a sample past the horizon is reported as past it
    assert next_sample(half, 1e-4, 0.0, 5000) == (5001, pytest.approx(0.5))


@hypothesis_settings(max_examples=100, deadline=None, derandomize=True)
@given(
    period=st.floats(1e-4, 1.0),
    steps_per_period=st.floats(0.5, 3000.0),
    carried=st.floats(0.0, 1.0),
)
# dt = 1e-4 at 0.5 s: samples on steps 5001 and 10001
@example(period=0.5, steps_per_period=5000.0, carried=0.0)
def test_next_sample_replays_the_per_step_timer(settings, period, steps_per_period, carried):
    # each call starts from the timer the last one carried over
    dt = period / steps_per_period
    search = dataclasses.replace(settings, search_period=period)
    n_steps = 12000
    fired, step, timer = [], 0, carried * period
    while True:
        steps, timer = next_sample(search, dt, timer, n_steps - step)
        step += steps
        if step > n_steps:
            break
        fired.append(step)
    assert fired == _per_step_samples(period, dt, carried * period, n_steps)


def test_sample_timer_inert_outside_search(config):
    # the search is never entered: no sample is ever taken
    transient = dataclasses.replace(
        config, search=dataclasses.replace(config.search, steady_steps=10**6))
    result = simulate(constant_scenario("calm", 0.5, 1e-4, 150.0, 6.0), transient)
    assert result.sample_count == 0
    assert set(result.records.column("i_ds_cmd")) == {config.machine.rated_excitation_current}


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
