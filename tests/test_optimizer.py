"""Search supervisor: its per-step rules on ``simulate``'s mode column, the
sample steps, sample priming, clamping, convergence."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from fluxseek.fuzzy import estimate_torque, output_gain
from fluxseek.harness.runner import simulate
from fluxseek.harness.scenario import Scenario, constant_scenario
from fluxseek.optimizer import SearchState, search_sample

from conftest import rows_of


@pytest.fixture(scope="module")
def settings(config):
    return config.search


@pytest.fixture(scope="module")
def params(config):
    return config.machine


def i_b_at(settings, params, omega, i_ds, i_qs) -> float:
    return output_gain(settings.gains, omega, estimate_torque(params, i_ds, i_qs))


# -- the mode, per step --------------------------------------------------------------


def _per_step(scenario, config):
    """A run's rows at decimation 1, and for each step its mode, whether the
    speed error it started from was in the band, and whether a speed or load
    command changed on it."""
    rows = rows_of(simulate(scenario, config, decimation=1).records)
    tolerance = config.search.steady_speed_tolerance
    commands = [(r.omega_ref, r.load_torque) for r in rows]
    # a row's speed is the one after its step; the first step starts at rest
    omega = (0.0, *(r.omega_r for r in rows))
    in_band = [abs(ref - w) <= tolerance for (ref, _), w in zip(commands, omega)]
    changed = [False] + [a != b for a, b in zip(commands, commands[1:])]
    return rows, [r.mode for r in rows], in_band, changed


def _entry_by_counting(in_band: list[bool], steady_steps: int) -> int | None:
    """The rule as a per-step counter: the step where ``steady_steps``
    consecutive in-band steps have been counted, counting from 1."""
    counter = 0
    for k, ok in enumerate(in_band):
        counter = counter + 1 if ok else 0
        if counter >= steady_steps:
            return k
    return None


@pytest.fixture(scope="module")
def tight_band(config):
    """A 0.05 rad/s band and no compensator: the settling speed passes through
    the band for one step before it stays, and each search step's torque dip
    takes the speed out of the band."""
    cfg = dataclasses.replace(
        config, search=dataclasses.replace(config.search, steady_speed_tolerance=0.05))
    scenario = constant_scenario("tight", 3.0, 1e-3, 150.0, 6.0, compensator_enabled=False)
    return cfg, _per_step(scenario, cfg)


def test_command_change_abandons_search(config):
    scenario = Scenario("abandon", 3.0, 1e-3, ((0.0, 150.0),), ((0.0, 6.0), (2.0, 9.0)))
    rows, modes, in_band, changed = _per_step(scenario, config)
    k = changed.index(True)
    assert k == 2000 and in_band[k]  # the command change alone abandons
    assert modes[k - 1] == "search" and modes[k] == "transient"
    rated = config.machine.rated_excitation_current
    assert rows[k - 1].i_ds_cmd < rated == rows[k].i_ds_cmd


def test_large_speed_error_abandons_search(tight_band):
    cfg, (rows, modes, in_band, changed) = tight_band
    # the search runs only on in-band steps, and leaves on the first other one
    assert all(ok for ok, mode in zip(in_band, modes) if mode == "search")
    k = next(k for k in range(1, len(modes)) if modes[k - 1] == "search" != modes[k])
    assert not in_band[k] and not any(changed)
    assert rows[k].i_ds_cmd == cfg.machine.rated_excitation_current


def test_exactly_n_steady_steps_enter_search(config, settings):
    n = settings.steady_steps
    assert _entry_by_counting([True] * (n + 5), n) == n - 1
    for steady_steps in (n, 37):
        cfg = dataclasses.replace(
            config, search=dataclasses.replace(settings, steady_steps=steady_steps))
        scenario = constant_scenario("calm", 1.0, 1e-3, 150.0, 6.0)
        _, modes, in_band, changed = _per_step(scenario, cfg)
        entry = modes.index("search")
        eligible = [ok and not change for ok, change in zip(in_band, changed)]
        assert entry == _entry_by_counting(eligible, steady_steps)
        assert modes[entry:] == ["search"] * (len(modes) - entry)


def test_counter_resets_when_error_leaves_band(tight_band, settings):
    n = settings.steady_steps
    _, (_, modes, in_band, _) = tight_band
    # fewer than n steps in the band, one out: the count starts again after it
    first = in_band.index(True)
    assert not all(in_band[first:first + n])
    entry = modes.index("search")
    assert entry == _entry_by_counting(in_band, n) > first + n - 1
    # after an out-of-band abandon, the count starts on the step after it
    abandon = modes.index("transient", entry)
    assert modes.index("search", abandon) == (
        abandon + 1 + _entry_by_counting(in_band[abandon + 1:], n))


def _per_step_samples(period: float, dt: float, n_steps: int) -> list[int]:
    """The rule as a per-step timer: the steps, counting from 1, on which
    ``timer += dt`` reaches ``period``, each sample taking the period off."""
    timer = 0.0
    fired = []
    for k in range(1, n_steps + 1):
        timer += dt
        if timer >= period:
            timer -= period
            fired.append(k)
    return fired


def _clock(dt: float, n_steps: int) -> Scenario:
    """A scenario of ``n_steps`` steps of ``dt``: the sample clock's input."""
    scenario = constant_scenario("clock", n_steps * dt, dt, 150.0, 6.0)
    assert scenario.steps == n_steps
    return scenario


def test_sample_timer_fires_on_period(settings):
    period = settings.search_period
    assert list(_clock(period / 4.0, 12).sample_steps(period, 0)) == [3, 7, 11]
    # 5000 additions of 1e-4 s fall short of 0.5 s: the first sample is on the
    # search's 5001st step, and the remainder carried over puts the next 5000
    # later
    assert list(_clock(1e-4, 10**4 + 1).sample_steps(0.5, 0)) == [5000, 10000]
    assert list(_clock(1e-4, 10**4 + 8).sample_steps(0.5, 7)) == [5007, 10007]
    # no sample falls past the run
    assert list(_clock(1e-4, 5000).sample_steps(0.5, 0)) == []


@hypothesis_settings(max_examples=100, deadline=None, derandomize=True)
@given(
    period=st.floats(1e-4, 1.0),
    steps_per_period=st.floats(0.5, 3000.0),
    entry=st.integers(0, 6000),
)
# dt = 1e-4 at 0.5 s: samples on the search's 5001st and 10001st steps
@example(period=0.5, steps_per_period=5000.0, entry=0)
def test_sample_steps_replay_the_per_step_timer(period, steps_per_period, entry):
    dt = period / steps_per_period
    n_steps = 12000
    fired = [entry + k - 1 for k in _per_step_samples(period, dt, n_steps - entry)]
    assert list(_clock(dt, n_steps).sample_steps(period, entry)) == fired


def test_sample_timer_inert_outside_search(config):
    # the search is never entered: no sample is ever taken
    transient = dataclasses.replace(
        config, search=dataclasses.replace(config.search, steady_steps=10**6))
    result = simulate(_clock(1e-4, 5000), transient)
    assert result.sample_count == 0
    assert {r.i_ds_cmd for r in result.records} == {config.machine.rated_excitation_current}


# -- sampling ------------------------------------------------------------------------


def test_first_sample_only_primes(settings, params):
    state = SearchState()
    cmd = search_sample(state, settings, params, 1500.0, 150.0, 5.0, 3.0)
    assert cmd == 5.0
    assert state.previous_power == 1500.0
    assert state.last_di_ds is None


def test_second_sample_applies_exploratory_decrement(settings, params):
    state = SearchState()
    search_sample(state, settings, params, 1500.0, 150.0, 5.0, 3.0)
    cmd = search_sample(state, settings, params, 1500.0, 150.0, 5.0, 3.0)
    i_b = i_b_at(settings, params, 150.0, 5.0, 3.0)
    assert cmd == pytest.approx(5.0 - settings.initial_step_fraction * i_b, rel=1e-12)
    assert state.last_di_ds == pytest.approx(-settings.initial_step_fraction * i_b, rel=1e-12)


def test_power_drop_while_decrementing_continues_down(settings, params):
    state = SearchState(previous_power=1500.0, last_di_ds=-0.3)
    cmd = search_sample(state, settings, params, 1400.0, 150.0, 4.0, 4.0)
    assert cmd < 4.0
    assert state.last_di_ds < 0.0
    assert state.previous_power == 1400.0


def test_power_rise_while_decrementing_reverses(settings, params):
    state = SearchState(previous_power=1400.0, last_di_ds=-0.3)
    cmd = search_sample(state, settings, params, 1460.0, 150.0, 3.0, 5.0)
    assert cmd > 3.0


def test_clamp_at_minimum_records_zero_step(settings, params, config):
    lo = config.machine.min_excitation_current
    state = SearchState(previous_power=1500.0, last_di_ds=-0.3)
    cmd = search_sample(state, settings, params, 1400.0, 150.0, lo, 8.0)
    assert cmd == lo
    assert state.last_di_ds == 0.0


def test_clamp_at_rated_records_zero_step(settings, params, config):
    hi = config.machine.rated_excitation_current
    # rising power with increasing history reverses upward, clamped at rated
    state = SearchState(previous_power=1400.0, last_di_ds=0.3)
    cmd = search_sample(state, settings, params, 1380.0, 150.0, hi, 3.0)
    assert cmd == hi
    assert state.last_di_ds == 0.0


def test_convergence_flag_needs_m_consecutive_small_steps(settings, params):
    state = SearchState(previous_power=1500.0, last_di_ds=-0.001)
    # tiny power changes produce sub-threshold steps
    for i in range(settings.convergence_samples - 1):
        search_sample(state, settings, params, 1500.0, 150.0, 3.0, 5.0)
        assert not state.converged
    search_sample(state, settings, params, 1500.0, 150.0, 3.0, 5.0)
    assert state.converged
    assert state.convergence_counter >= settings.convergence_samples


def test_large_step_resets_convergence_counter(settings, params):
    # Mid-search direction memory, two small-step ticks already counted.
    state = SearchState(
        previous_power=1500.0, last_di_ds=-0.3, convergence_counter=2
    )
    cmd = search_sample(state, settings, params, 1100.0, 150.0, 3.0, 5.0)
    assert cmd < 3.0 - settings.convergence_step_fraction  # a real step
    assert state.convergence_counter == 0
    assert not state.converged


def test_search_stays_armed_after_convergence(settings, params):
    # A converged tail keeps a tiny nonzero last step (exact zeros only occur
    # at the clamp boundary); sustained power drift then re-arms the search
    # within a few samples as the direction memory regrows.
    state = SearchState(
        previous_power=1500.0,
        last_di_ds=-1e-4,
        convergence_counter=settings.convergence_samples,
        converged=True,
    )
    power = 1500.0
    cmd = 3.0
    for _ in range(5):
        power -= 400.0
        cmd = search_sample(state, settings, params, power, 150.0, cmd, 5.0)
        if not state.converged:
            break
    assert not state.converged
    assert cmd != 3.0
