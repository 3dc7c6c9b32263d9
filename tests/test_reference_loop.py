"""``simulate`` against a plain reference loop: every step computed by the
cache-free ``reference_step``, losses and power by ``reference_power_terms``,
the profile looked up on each step, and the supervisor's steady counter and
sample timer advanced on every step, as the rules read. The runner's hold,
jumps over held stretches, command schedule and event-driven supervisor, and
the machine step's d-axis lag cache, must change no output bit. Each run's
energy ledger must also balance."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxseek.compensator import TorqueCompensator
from fluxseek.harness.runner import CSV_HEADER, simulate
from fluxseek.harness.scenario import Scenario
from fluxseek.optimizer import SearchState, search_sample

from conftest import (
    csv_bytes, energy_ledger, reference_power_terms, reference_step, speed_pi_step)


def reference_run(scenario: Scenario, config, decimation: int):
    """The telemetry CSV bytes, the sample count, the final convergence flag,
    and the sample count and time at first convergence."""
    p = config.machine
    settings_ = config.search
    dt = scenario.dt
    rated = p.rated_excitation_current
    limit = p.max_torque_current
    comp = None    # one compensator per search, when enabled
    psi, omega_r, i_ds, i_qs = p.rated_flux, 0.0, rated, 0.0
    integrator = 0.0
    i_ds_cmd = rated
    mode = "transient"
    search = SearchState()
    counter = 0    # consecutive in-band steps without a command change
    timer = 0.0    # search time since the last sample
    time = 0.0
    samples = 0
    first_converged = (None, None)
    previous = (scenario.speed_reference[0][1], scenario.load_torque[0][1])
    lines = [CSV_HEADER]
    for k in range(scenario.steps):
        t = k * dt
        omega_ref = [v for t_b, v in scenario.speed_reference if t >= t_b][-1]
        t_load = [v for t_b, v in scenario.load_torque if t >= t_b][-1]
        changed = (omega_ref, t_load) != previous
        previous = (omega_ref, t_load)
        error = omega_ref - omega_r
        integrator, iqs_pi = speed_pi_step(
            integrator, error, config.speed_kp, config.speed_ki, limit, dt)
        sample = False
        if scenario.flc_enabled:
            if changed or not abs(error) <= settings_.steady_speed_tolerance:
                mode, search, counter, timer = "transient", SearchState(), 0, 0.0
            elif mode == "transient":
                counter += 1
                if counter >= settings_.steady_steps:
                    mode, search, counter, timer = "search", SearchState(), 0, 0.0
                    if scenario.compensator_enabled:
                        comp = TorqueCompensator(p, config.flux_source, config.compensation_mode)
            if mode == "transient":
                i_ds_cmd = rated
                comp = None
            else:
                timer += dt
                if timer >= settings_.search_period:
                    timer -= settings_.search_period
                    sample = True
        if sample:
            p_d = reference_power_terms(p, psi, omega_r, i_ds, i_qs)[5]
            comp_now = comp.output(psi, t) if comp is not None else 0.0
            iqs_now = min(max(iqs_pi + comp_now, -limit), limit)
            i_ds_cmd = search_sample(
                search, settings_, p, p_d, omega_r, i_ds_cmd, iqs_now)
            samples += 1
            if search.converged and first_converged[0] is None:
                first_converged = (samples, t)
            if comp is not None:
                comp.latch(psi, iqs_pi, i_ds_cmd, t)
        comp_out = comp.output(psi, t) if comp is not None and mode == "search" else 0.0
        i_qs_cmd = min(max(iqs_pi + comp_out, -limit), limit)
        psi, omega_r, i_ds, i_qs = reference_step(
            p, psi, omega_r, i_ds, i_qs, i_ds_cmd, i_qs_cmd, t_load, dt)
        time += dt
        if (k + 1) % decimation == 0:
            t_e, *losses, p_in = reference_power_terms(p, psi, omega_r, i_ds, i_qs)
            p_out = t_load * omega_r
            fields = (time, omega_ref, omega_r, i_ds_cmd, i_qs_cmd, i_ds, i_qs, psi, t_e,
                      t_load, *losses, p_in, p_out)
            efficiency = repr(p_out / p_in) if p_in > 0.0 else ""
            lines.append(",".join((*map(repr, fields), efficiency, mode)))
    text = "".join(line + "\n" for line in lines).encode()
    return text, samples, search.converged, *first_converged


# The energy ledger's residual, as a fraction of the energy that flows (the sum
# of its terms' magnitudes): the worst measured over the generated runs is
# 4.1e-3, at 2 ms steps with a row every 7th step. The trapezoids are coarse
# here, so this bound is looser than the shipped scenarios' in
# test_energy_ledger.py.
GENERATED_LEDGER_BOUND = 2e-2


def _assert_matches_reference(scenario, config, decimation):
    result = simulate(scenario, config, decimation=decimation)
    ledger = energy_ledger(result.records)
    assert abs(ledger.residual) <= GENERATED_LEDGER_BOUND * sum(map(abs, ledger[:-1])), ledger
    text, samples, converged, samples_to_convergence, convergence_time = reference_run(
        scenario, config, decimation)
    assert csv_bytes(result.records) == text
    assert result.sample_count == samples
    assert result.converged is converged
    assert result.samples_to_convergence == samples_to_convergence
    assert result.convergence_time == convergence_time


# the search's scaling gains hold for speeds in [0, 160] rad/s only
SPEEDS = (0.0, -0.0, 150.0, 100.0)
LOADS = (0.0, -0.0, 6.0, 12.0, -6.0)  # negative: regenerating


@st.composite
def held_cases(draw):
    """A scenario, the config fields it runs with, and a decimation."""
    duration = draw(st.sampled_from((1.5, 3.0)))

    def profile(values):
        times = sorted(draw(st.lists(st.floats(0.1, duration), max_size=2, unique=True)))
        return tuple((t, draw(st.sampled_from(values))) for t in [0.0, *times])

    flc = draw(st.booleans())
    scenario = Scenario(
        name="held",
        duration=duration,
        dt=draw(st.sampled_from((5e-4, 1e-3, 2e-3))),
        speed_reference=profile(SPEEDS if flc else (*SPEEDS, -60.0)),
        load_torque=profile(LOADS),
        flc_enabled=flc,
        compensator_enabled=draw(st.booleans()),
    )
    return (
        scenario,
        draw(st.sampled_from((0.002, 0.0))),  # current_tracking_time_constant
        draw(st.sampled_from(("measured", "predicted"))),
        draw(st.sampled_from(("continuous", "discrete"))),
        draw(st.sampled_from((200, 2000))),  # steady_steps
        # search_period: 0.0123 s is no whole number of steps, and at 1e-3 s
        # (no longer than dt) a sample falls on the entry step
        draw(st.sampled_from((0.5, 0.25, 0.0123, 1e-3))),
        draw(st.sampled_from((1, 7))),
    )


def _settled(load_torque, **kwargs):
    return Scenario("held", 3.0, 1e-3, ((0.0, 150.0),), load_torque, **kwargs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=held_cases())
# the load's sign flips at a settled state: == sees no command change
@example(case=(
    _settled(((0.0, 0.0), (2.0, -0.0)), flc_enabled=False),
    0.002, "measured", "continuous", 200, 0.5, 1,
))
# the same flip while the search runs: the mode stays "search" across t = 2 s,
# and the rows from there on show -0.0
@example(case=(
    _settled(((0.0, 0.0), (2.0, -0.0))), 0.002, "measured", "continuous", 200, 0.5, 1))
# that flip on the step of a search sample (step 2423): the sample's change
# follows the command's on one step, and wins
@example(case=(
    _settled(((0.0, 0.0), (2.4225, -0.0))), 0.002, "measured", "continuous", 200, 0.5, 1))
# the search starts after the speed has settled bit for bit
@example(case=(_settled(((0.0, 6.0),)), 0.002, "measured", "continuous", 2000, 0.5, 1))
# a load step between two step times, once the search runs
@example(case=(
    _settled(((0.0, 6.0), (2.5003, 9.0))), 0.002, "measured", "continuous", 200, 0.5, 1))
# held stretches that end on search samples, rows every 7th step
@example(case=(_settled(((0.0, 6.0),)), 0.002, "measured", "discrete", 200, 0.5, 7))
# samples off the step grid, and a sample on every step from the entry on,
# before and after a load step
@example(case=(
    _settled(((0.0, 6.0), (2.5003, 9.0))), 0.002, "measured", "discrete", 200, 0.0123, 7))
@example(case=(
    _settled(((0.0, 6.0), (2.5003, 9.0))), 0.002, "measured", "continuous", 200, 1e-3, 1))
def test_simulate_matches_reference_loop(config, case):
    (scenario, tau_i, flux_source, compensation_mode, steady_steps, search_period,
     decimation) = case
    cfg = dataclasses.replace(
        config,
        machine=dataclasses.replace(config.machine, current_tracking_time_constant=tau_i),
        search=dataclasses.replace(
            config.search, steady_steps=steady_steps, search_period=search_period),
        flux_source=flux_source,
        compensation_mode=compensation_mode,
    )
    _assert_matches_reference(scenario, cfg, decimation)


@pytest.mark.parametrize(
    "name", ["quarter-load-search", "load-step-abandon", "rated-flux-baseline", "short-demo"])
def test_shipped_scenarios_match_reference_loop(config, name):
    _assert_matches_reference(config.scenario(name), config, config.telemetry_decimation)
