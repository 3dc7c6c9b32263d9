"""Closed-loop runner: stream semantics, steady-state cross-check against the
algebraic solution, determinism, telemetry schema and decimation."""

from __future__ import annotations

import dataclasses
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxseek.compensator import TorqueCompensator
from fluxseek.errors import ConfigError, SimulationDivergedError
from fluxseek.harness import runner
from fluxseek.harness import scenario as scenario_module
from fluxseek.harness.config import default_config_text, parse_config
from fluxseek.harness.report import steady_window_mean
from fluxseek.harness.runner import CSV_HEADER, PackedRecords, TelemetryRecord, simulate
from fluxseek.harness.scenario import Scenario, constant_scenario
from fluxseek.machine import InductionMachine, MachineParams

from conftest import crafted_records, csv_bytes, csv_sha256, reference_csv, rows_of

GOLDEN_HEADER = (
    "time,omega_ref,omega_r,i_ds_cmd,i_qs_cmd,i_ds,i_qs,psi_dr,torque,"
    "load_torque,loss_cu_s,loss_cu_r,loss_fe,loss_conv,p_in,p_out,"
    "efficiency,mode"
)


def test_csv_header_is_frozen():
    assert CSV_HEADER == GOLDEN_HEADER


def test_golden_telemetry_bytes(config):
    # Full SHA-256 of two shipped runs' CSV: the search at default decimation,
    # and a per-step load-step abandon with ideal current tracking. Any change
    # to the integrator, the control law or the CSV formatting shows here.
    search = simulate(config.scenario("quarter-load-search"), config)
    assert csv_sha256(search.records) == (
        "8de70a6e68f5d7747b40d340dc4c004b02a417e497db592240be88e3d36578c4"
    )
    ideal = dataclasses.replace(
        config, machine=dataclasses.replace(config.machine, current_tracking_time_constant=0.0)
    )
    abandon = simulate(ideal.scenario("load-step-abandon"), ideal, decimation=1)
    assert csv_sha256(abandon.records) == (
        "16cce460e45c739f5b2f3392b93146f34fd454f1582ffae61d726a0a01c72634"
    )


# quarter-load-search cut to 3 s: search entry, the priming sample and four
# latches, at lagged decimated tracking and at ideal per-step tracking
COMPENSATOR_PATH_SHA256 = {
    ("measured", "continuous", "lagged"):
        "bb9a7141084d59b55ed32b808b98bcc9c66134b606cc1fd46220c8d726a60304",
    ("measured", "continuous", "ideal"):
        "7ccb7f27581d42070afe2792cd2697f34afced2e6c7b8b4001e63fd3879846d8",
    ("measured", "discrete", "lagged"):
        "eeaaad7066a8730103a3464501439d7eda7920f13a2d317b3a2666d9b9e250b4",
    ("measured", "discrete", "ideal"):
        "1b6e4f8210b65cf917f20196dc41a355671adfcd6d9be7884c02c3e0209137c0",
    ("predicted", "continuous", "lagged"):
        "18bd7135ebcbeeffe70ee5053d195026f18304379087f68cc14a551f53408f6c",
    ("predicted", "continuous", "ideal"):
        "6b44ba4860be1f31fd418f48b825b91a5ba86a4d5c3c37d07ff431ba7ae805c6",
    ("predicted", "discrete", "lagged"):
        "d18ac450d40e779ab2ed87c6f38d55b4187819bdd29228d522f933025f02efc0",
    ("predicted", "discrete", "ideal"):
        "584ba621c0b5b125735d8558ef61b3472eeccf6e9809b58a50552a3bb2dd4846",
}


@pytest.mark.parametrize("flux_source, mode, tracking", sorted(COMPENSATOR_PATH_SHA256))
def test_compensator_path_bytes(config, flux_source, mode, tracking):
    # the golden runs take only the measured, continuous compensator
    cfg = dataclasses.replace(config, flux_source=flux_source, compensation_mode=mode)
    decimation = None
    if tracking == "ideal":
        cfg = dataclasses.replace(
            cfg, machine=dataclasses.replace(cfg.machine, current_tracking_time_constant=0.0))
        decimation = 1
    scenario = dataclasses.replace(config.scenario("quarter-load-search"), duration=3.0)
    result = simulate(scenario, cfg, decimation=decimation)
    assert result.sample_count == 5
    assert csv_sha256(result.records) == COMPENSATOR_PATH_SHA256[flux_source, mode, tracking]


def test_zero_duration_scenario_yields_empty_stream(config):
    scenario = constant_scenario("empty", 0.0, 1e-4, 150.0, 6.0)
    assert scenario.steps == 0
    assert len(simulate(scenario, config).records) == 0


def test_scenario_validation():
    with pytest.raises(ValueError):
        constant_scenario("bad", -1.0, 1e-4, 150.0, 6.0)
    with pytest.raises(ValueError):
        constant_scenario("bad", 1.0, 0.0, 150.0, 6.0)
    with pytest.raises(ValueError):
        Scenario("bad", 1.0, 1e-4, ((1.0, 150.0),), ((0.0, 6.0),))
    with pytest.raises(ValueError):
        Scenario("bad", 1.0, 1e-4, ((0.0, 150.0), (0.5, 100.0), (0.5, 90.0)), ((0.0, 6.0),))
    # the config loader rejects these first: only code-built scenarios get here
    with pytest.raises(ValueError, match="speed_reference profile contains a non-finite"):
        constant_scenario("bad", 1.0, 1e-4, math.inf, 6.0)
    with pytest.raises(ValueError, match="load_torque profile contains a non-finite"):
        constant_scenario("bad", 1.0, 1e-4, 150.0, math.nan)
    # a non-finite step or duration is named as such, not as a step count
    for duration in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^duration must be finite and >= 0, got"):
            Scenario("bad", duration, 1e-4, ((0.0, 150.0), (0.5, 100.0)), ((0.0, 6.0),))
    for dt in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^dt must be finite and > 0, got"):
            Scenario("bad", 1.0, dt, ((0.0, 150.0), (0.5, 100.0)), ((0.0, 6.0),))
    # the step count must be at most MAX_STEPS
    with pytest.raises(ValueError, match="steps must be below"):
        Scenario("bad", 1e15, 1e-4, ((0.0, 150.0), (0.5, 100.0)), ((0.0, 6.0),))


def test_step_count_cap_is_inclusive():
    assert constant_scenario("long", 1000.0, 1e-4, 150.0, 6.0).steps == scenario_module.MAX_STEPS
    with pytest.raises(ValueError, match="steps must be below"):
        constant_scenario("long", 1000.0001, 1e-4, 150.0, 6.0)
    with pytest.raises(ValueError, match=r"^dt = 1e-12 s: .*steps must be below"):
        constant_scenario("long", 1.0, 1e-12, 150.0, 6.0)


def test_duration_must_be_a_whole_number_of_steps():
    # 0.00004 s at dt = 1e-4 used to run 0 steps and write 0 rows, silently
    for duration in (0.00004, 1.00005, 0.25 + 1e-8):
        with pytest.raises(ValueError, match=r"must be a whole number of dt = 0\.0001 s steps"):
            constant_scenario("part", duration, 1e-4, 150.0, 6.0)
    # within a relative 1e-9 of a whole number, that number of steps runs
    assert constant_scenario("whole", 14.0, 1e-4, 150.0, 6.0).steps == 140000
    assert 0.3 / 0.1 != 3 and constant_scenario("whole", 0.3, 0.1, 150.0, 6.0).steps == 3


def test_steady_state_matches_algebraic_solution(config):
    # Independent oracle: at steady state the developed torque covers load
    # plus friction, currents equal their commands, flux equals L_m * i_ds.
    scenario = constant_scenario(
        "steady", 3.0, 1e-4, 150.0, 6.0, flc_enabled=False, compensator_enabled=False
    )
    result = simulate(scenario, config)
    last = rows_of(result.records)[-1]

    p = config.machine
    t_e = 6.0 + p.friction * 150.0
    psi = p.rated_flux
    i_qs = t_e / (p.torque_constant_flux * psi)
    i_ds = p.rated_excitation_current
    slip = p.magnetizing_inductance * i_qs / (p.rotor_time_constant * psi)
    omega_e = p.pole_pairs * 150.0 + slip
    copper_s = 1.5 * p.stator_resistance * (i_ds**2 + i_qs**2)
    copper_r = 1.5 * p.rotor_resistance * (p.magnetizing_inductance / p.rotor_inductance) ** 2 * i_qs**2
    iron = (p.iron_loss_eddy_coeff * omega_e**2 + p.iron_loss_hysteresis_coeff * omega_e) * psi**2
    conv = p.converter_fixed_loss + p.converter_resistive_coeff * (i_ds**2 + i_qs**2)
    expected_p_in = t_e * 150.0 + copper_s + copper_r + iron + conv

    assert last.p_in == pytest.approx(expected_p_in, rel=1e-3)
    assert last.omega_r == pytest.approx(150.0, rel=1e-3)
    assert last.psi_dr == pytest.approx(psi, rel=1e-3)


def test_repeated_runs_are_byte_identical(config):
    scenario = constant_scenario("det", 1.0, 1e-4, 150.0, 6.0)
    a = csv_bytes(simulate(scenario, config).records)
    b = csv_bytes(simulate(scenario, config).records)
    assert a == b
    assert a.split(b"\n", 1)[0] == GOLDEN_HEADER.encode()


def test_decimation_controls_record_count(config):
    scenario = constant_scenario("decim", 0.1, 1e-4, 150.0, 6.0)
    default = simulate(scenario, config)
    per_step = simulate(scenario, config, decimation=1)
    assert len(default.records) == 100  # every 10th of 1000 steps
    assert len(per_step.records) == 1000
    # the decimated stream is a subsequence of the per-step stream
    assert rows_of(default.records)[0] == rows_of(per_step.records)[9]


@pytest.mark.parametrize("decimation", [1, 7])
def test_row_times_add_dt_step_by_step(decimation):
    scenario = constant_scenario("clock", 0.05, 1e-4, 150.0, 6.0)
    time, expected = 0.0, []
    for k in range(1, scenario.steps + 1):
        time += scenario.dt
        if k % decimation == 0:
            expected.append(time)
    assert list(scenario.row_times(decimation)) == expected


def test_rows_take_their_times_from_row_times(config, monkeypatch):
    # at rest the loop holds from the third step on, up to the search entry
    # and its sample
    steps = _count_steps(monkeypatch)
    scenario = constant_scenario("still", 1.0, 1e-4, 0.0, 0.0, compensator_enabled=False)
    result = simulate(scenario, config, decimation=7)
    assert steps() < 10 and result.sample_count == 1
    assert [r.time for r in result.records] == list(scenario.row_times(7))


def test_quarter_load_search_last_row_time_is_pinned(config):
    # the float sum of 140000 steps of 1e-4 s, drifted from 14.0; an integer
    # step clock (ROADMAP.md item 3) re-pins it
    scenario = config.scenario("quarter-load-search")
    *_, last = scenario.row_times(config.telemetry_decimation)
    assert last == 13.99999999998071


def test_energy_bookkeeping_exact_on_telemetry(config):
    # Input power is shaft power plus total loss by definition; recomputing
    # the sum leaves at most one addition's rounding.
    scenario = constant_scenario("energy", 0.5, 1e-4, 150.0, 6.0)
    for r in simulate(scenario, config).records:
        losses = r.loss_stator_copper + r.loss_rotor_copper + r.loss_iron + r.loss_converter
        assert abs(r.p_in - r.torque * r.omega_r - losses) <= 1e-12 * max(1.0, abs(r.p_in))


def test_mode_transitions_recorded(config):
    result = simulate(config.scenario("short-demo"), config)
    modes = {r.mode for r in result.records}
    assert modes == {"transient", "search"}


def test_flc_disabled_never_searches(config):
    scenario = constant_scenario(
        "off", 1.0, 1e-4, 150.0, 6.0, flc_enabled=False, compensator_enabled=False
    )
    result = simulate(scenario, config)
    assert {r.mode for r in result.records} == {"transient"}
    rated = config.machine.rated_excitation_current
    assert all(r.i_ds_cmd == rated for r in result.records)


def test_rated_flux_command_held_during_transient_mode(config):
    result = simulate(config.scenario("short-demo"), config, decimation=1)
    rated = config.machine.rated_excitation_current
    for r in result.records:
        if r.mode == "transient":
            assert r.i_ds_cmd == rated


def test_profile_steps_are_honored(config):
    scenario = Scenario(
        name="steps",
        duration=1.0,
        dt=1e-4,
        speed_reference=((0.0, 100.0), (0.5, 120.0)),
        load_torque=((0.0, 6.0), (0.25, 9.0)),
    )
    records = simulate(scenario, config).records
    by_time = {round(r.time, 4): r for r in records}
    assert by_time[0.25].load_torque == 6.0 or by_time[0.2501].load_torque == 9.0
    assert by_time[0.4].omega_ref == 100.0
    assert by_time[0.6].omega_ref == 120.0
    assert by_time[0.3].load_torque == 9.0


def test_divergence_reports_step_index(config):
    # A finite but absurd load torque overflows the speed derivative in the
    # first step; the runner must abort with the failing step index.
    scenario = constant_scenario("blowup", 10.0, 1e-4, 150.0, 1e308, flc_enabled=False)
    with pytest.raises(SimulationDivergedError) as err:
        simulate(scenario, config)
    error = err.value
    assert error.step_index >= 0
    # the last finite state and the failing step's inputs, as attributes and
    # in the message
    context = {
        "rotor_flux": error.rotor_flux,
        "rotor_speed": error.rotor_speed,
        "i_ds": error.i_ds,
        "i_qs": error.i_qs,
        "i_ds_cmd": error.i_ds_cmd,
        "i_qs_cmd": error.i_qs_cmd,
        "load_torque": error.load_torque,
    }
    assert all(math.isfinite(value) for value in context.values())
    assert error.load_torque == 1e308
    for name, value in context.items():
        assert f"{name}={value!r}" in str(error)


def test_simulate_rejects_unstable_step_size(config):
    # A scenario built in code skips parse_config; dt = 6 ms is past the RK4
    # limit on the 2 ms current lag and used to finish at 2e46 rad/s.
    scenario = constant_scenario("x", 2.4, 0.006, 150.0, 6.0)
    with pytest.raises(ValueError, match=r"dt=0\.006 s must be below 0\.00557"):
        simulate(scenario, config, decimation=1)
    # it is checked before the search speeds: -80 rad/s is outside the gains
    reverse = dataclasses.replace(scenario, speed_reference=((0.0, -80.0),))
    with pytest.raises(ValueError, match=r"^dt=0\.006 s must be below"):
        simulate(reverse, config, decimation=1)


def test_simulate_rejects_search_outside_scaling(config, monkeypatch):
    # A scenario built in code skips parse_config; with the search on, a
    # speed where P_b <= 0 used to fail only at the first search sample.
    steps = _count_steps(monkeypatch)
    scenario = constant_scenario("rev", 2.0, 1e-4, -80.0, 6.0)
    with pytest.raises(ConfigError, match=r"fuzzy\.scaling: input gain P_b = -17 at omega = -80"):
        simulate(scenario, config)
    assert steps() == 0
    # the search off, any speed runs
    simulate(dataclasses.replace(scenario, flc_enabled=False), config)


def test_simulate_rejects_search_above_torque_envelope(config, monkeypatch):
    # A scenario built in code skips parse_config; with the search on, a load
    # where I_b <= 0 at the steady torque used to fail at the first sample.
    steps = _count_steps(monkeypatch)
    scenario = constant_scenario("h", 3.0, 1e-4, 150.0, 40.0)
    with pytest.raises(ConfigError, match=r"load_torque: fuzzy\.scaling: output gain I_b = -0\.061"):
        simulate(scenario, config)
    assert steps() == 0
    # the search off, the load runs
    simulate(dataclasses.replace(scenario, duration=0.1, flc_enabled=False), config)


# short-demo: 1 s at dt = 1e-4, so 10000 steps; a breakpoint at t takes effect
# on the first step k with k * dt >= t, if k < 10000
@pytest.mark.parametrize("speeds, takes_effect", [
    ("[[0.0, 150.0], [0.9999, -80.0]]", True),  # on the last step
    ("[[0.0, 150.0], [1.0, -80.0]]", False),  # at the end
    ("[[0.0, 150.0], [2.0, -80.0]]", False),  # past the end
    # both on step 5001, where the later one wins
    ("[[0.0, 150.0], [0.50001, -80.0], [0.50005, 150.0]]", False),
])
def test_search_speeds_checked_where_they_take_effect(config, speeds, takes_effect):
    # P_b <= 0 at -80 rad/s: only a command that takes effect is rejected,
    # in parse_config with its key and again by simulate.
    demo = "name: short-demo\n    duration: 1.0\n    dt: 1.0e-4\n    speed_reference: [[0.0, 150.0]]"
    text = default_config_text()
    assert demo in text
    text = text.replace(demo, demo.replace("[[0.0, 150.0]]", speeds))
    scenario = dataclasses.replace(
        config.scenario("short-demo"), speed_reference=tuple(map(tuple, yaml.safe_load(speeds)))
    )
    if takes_effect:
        with pytest.raises(ConfigError, match=r"scenarios\[3\]\.speed_reference: .*P_b = -17"):
            parse_config(text)
        with pytest.raises(ConfigError, match=r"speed_reference: .*P_b = -17"):
            simulate(scenario, config)
        return
    assert parse_config(text).scenario("short-demo") == scenario
    records = simulate(scenario, config).records
    assert len(records) == 1000
    assert all(r.omega_ref == 150.0 for r in records)


def test_repeats_compares_bits():
    assert runner._repeats((0.7, 150.0, 5.0), (0.7, 150.0, 5.0))
    assert not runner._repeats((0.7, 150.0, 5.0), (0.7, 150.0, 5.000000000000001))
    # +0.0 == -0.0, but their reprs differ: a zero repeats only with its sign
    assert not runner._repeats((0.7, 0.0), (0.7, -0.0))
    assert not runner._repeats((0.7, -0.0, 0.0), (0.7, -0.0, -0.0))
    assert runner._repeats((0.7, 0.0), (0.7, 0.0))
    assert runner._repeats((-0.0, 0.0), (-0.0, 0.0))


def _first_step(t_b, dt, n_steps):
    """The definition: the first step k whose time k * dt reaches t_b."""
    return next((k for k in range(n_steps) if k * dt >= t_b), n_steps)


@st.composite
def breakpoint_cases(draw):
    """dt, a step count, and a strictly increasing profile: breakpoints on,
    next to and between step times, two inside one step, some past the end."""
    dt = draw(st.sampled_from((1e-4, 1e-3, 0.1, 1 / 3, 2e-3 / 7)))
    n_steps = draw(st.integers(0, 120))
    step_time = st.builds(lambda k, off: k * dt + off * dt, st.integers(0, n_steps + 3),
                          st.sampled_from((0.0, 0.25, 0.5)))
    grid_neighbour = st.builds(lambda k, up: math.nextafter(k * dt, math.inf if up else 0.0),
                               st.integers(1, n_steps + 3), st.booleans())
    anywhere = st.floats(1e-12, (n_steps + 3) * dt)
    times = draw(st.lists(st.one_of(step_time, grid_neighbour, anywhere), max_size=6))
    times = sorted({t for t in times if t > 0.0})
    return dt, n_steps, ((0.0, 1.0), *((t, float(i + 2)) for i, t in enumerate(times)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=breakpoint_cases())
@example(case=(0.1, 10, ((0.0, 1.0), (0.3, 2.0), (0.30000000000000004, 3.0), (0.35, 4.0))))
@example(case=(1e-4, 5, ((0.0, 1.0), (3e-4, 2.0), (5e-4, 3.0), (1.0, 4.0))))
def test_breakpoints_resolve_to_first_reaching_step(case):
    dt, n_steps, profile = case
    for t_b, _ in profile[1:]:
        assert scenario_module._breakpoint_step(t_b, dt, n_steps) == _first_step(t_b, dt, n_steps)
    # the schedule gives every step the value the last reached breakpoint set
    scenario = Scenario("bp", n_steps * dt, dt, profile, ((0.0, 6.0),))
    assert scenario.steps == n_steps
    schedule = scenario.commands
    assert schedule[-1] == (n_steps, None, None)
    per_step = [ref for (k, ref, _), (end, _, _) in zip(schedule, schedule[1:])
                for _ in range(k, end)]
    assert per_step == [[v for t, v in profile if k * dt >= t][-1] for k in range(n_steps)]


def _count_steps(monkeypatch):
    """Count ``InductionMachine.step`` calls; returns the counter's reader."""
    calls = 0
    step = InductionMachine.step

    def counting(self, *args):
        nonlocal calls
        calls += 1
        return step(self, *args)

    monkeypatch.setattr(InductionMachine, "step", counting)
    return lambda: calls


def test_machine_step_reuses_its_d_axis_lag_in_a_search_run(config, monkeypatch):
    # The search holds the excitation command between samples, so the step's
    # d-axis lag must be computed again on few computed steps: a cache keyed
    # on anything that changes every step would fail here.
    steps = _count_steps(monkeypatch)
    stores = 0

    def store(machine, lag):
        nonlocal stores
        stores += 1
        machine.__dict__["_d_lag"] = lag

    monkeypatch.setattr(InductionMachine, "_d_lag",
                        property(lambda machine: machine.__dict__["_d_lag"], store),
                        raising=False)
    simulate(config.scenario("quarter-load-search"), config)
    assert steps() > 90_000
    assert stores <= 0.1 * steps()


def test_supervisor_acts_only_where_the_mode_changes(config, monkeypatch):
    # the mode enters the search, the load step abandons it, the search is
    # entered again, and each entry builds its own compensator
    built = []
    init = TorqueCompensator.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(TorqueCompensator, "__init__", counted)
    scenario = Scenario("abandon", 3.0, 1e-3, ((0.0, 150.0),), ((0.0, 6.0), (2.0, 9.0)))
    result = simulate(scenario, config, decimation=1)
    modes = [r.mode for r in result.records]
    changes = [(a, b) for a, b in zip(modes, modes[1:]) if a != b]
    assert changes == [("transient", "search"), ("search", "transient"), ("transient", "search")]
    assert len(built) == 2


def test_computed_steps_call_only_the_machine_and_the_compensator(config):
    # A computed step is straight-line code around InductionMachine.step and,
    # in the search, TorqueCompensator.output: no other function of the
    # package runs on half of the computed steps or more.
    package = str(Path(runner.__file__).resolve().parent.parent)
    calls = Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            calls[Path(code.co_filename).name, code.co_name] += 1

    cfg = dataclasses.replace(config, flux_source="measured", compensation_mode="continuous")
    scenario = constant_scenario("budget", 2.0, 1e-4, config.machine.rated_speed, 6.0)
    sys.setprofile(profile)
    try:
        result = simulate(scenario, cfg)
    finally:
        sys.setprofile(None)
    computed = calls["machine.py", "step"]
    assert result.sample_count >= 2 and computed > scenario.steps // 2
    frequent = {name for name, count in calls.items() if 2 * count >= computed}
    assert frequent == {("machine.py", "step"), ("compensator.py", "output")}


def test_boost_past_the_torque_current_limit_is_clamped_to_it(config):
    # With a 5 A limit the search lowers the flux until the compensator's
    # boost takes the command past the limit the speed PI keeps its own
    # output in: those search steps run at +5 A, never at -5 A.
    cfg = dataclasses.replace(
        config, machine=dataclasses.replace(config.machine, max_torque_current=5.0))
    records = simulate(constant_scenario("clamp", 8.0, 1e-3, 150.0, 6.0), cfg, decimation=1).records
    commands = [r.i_qs_cmd for r in records]
    assert sum(r.i_qs_cmd == 5.0 for r in records if r.mode == "search") > 100
    assert -5.0 not in commands and max(commands) == 5.0


def test_generating_boost_past_the_torque_current_limit_is_clamped_to_it(config):
    # The same with a generating load: the boost takes the negative command
    # past -5 A, and those search steps run at -5 A, never at +5 A.
    cfg = dataclasses.replace(
        config, machine=dataclasses.replace(config.machine, max_torque_current=5.0))
    records = simulate(constant_scenario("clamp", 8.0, 1e-3, 150.0, -6.0), cfg, decimation=1).records
    search = [r.i_qs_cmd for r in records if r.mode == "search"]
    assert search.count(-5.0) > 100 and 5.0 not in search
    assert min(r.i_qs_cmd for r in records) == -5.0


def test_decimation_below_one_rejected(config):
    with pytest.raises(ValueError, match="^decimation must be >= 1$"):
        simulate(config.scenario("short-demo"), config, decimation=0)


def test_hold_engages_at_steady_state(config, monkeypatch):
    steps = _count_steps(monkeypatch)
    simulate(config.scenario("rated-flux-baseline"), config)
    # 40000 steps, most of them after the speed has settled bit for bit
    assert steps() < 40000


def test_hold_engages_at_standstill(config, monkeypatch):
    # At rest with no load every state value but the flux is +0.0 from the
    # first step on; the hold must tell a zero's sign, not refuse zeros.
    steps = _count_steps(monkeypatch)
    scenario = constant_scenario(
        "still", 1.0, 1e-4, 0.0, 0.0, flc_enabled=False, compensator_enabled=False
    )
    result = simulate(scenario, config)
    assert steps() < 100  # of 10000
    assert rows_of(result.records)[-1].omega_r == 0.0


def test_hold_engages_where_no_compensator_runs(config, monkeypatch):
    # A compensator whose boost moves with time (predicted flux, continuous
    # form) keeps only its own search from holding: with the search off none
    # is built, so the run holds, with the bytes of a run that never holds.
    cfg = dataclasses.replace(config, flux_source="predicted", compensation_mode="continuous")
    scenario = dataclasses.replace(config.scenario("rated-flux-baseline"), compensator_enabled=True)
    assert not scenario.flc_enabled
    steps = _count_steps(monkeypatch)
    held = csv_bytes(simulate(scenario, cfg).records)
    computed = steps()
    assert computed < 20000  # of 40000
    monkeypatch.setattr(runner, "_repeats", lambda before, after: False)
    assert csv_bytes(simulate(scenario, cfg).records) == held
    assert steps() - computed == scenario.steps


def test_efficiency_absent_when_input_power_nonpositive(config):
    # turning backwards against positive torque: the shaft returns more power
    # than the losses take
    records = crafted_records(config, (0.0, -150.0, 5.0, 10.0, 5.0, 10.0, 0.7, 0.0))
    [row] = rows_of(records)
    assert row.p_in < 0.0 and row.efficiency is None
    text = csv_bytes(records)
    fields = text.decode().splitlines()[1].split(",")
    assert fields[-2] == ""  # efficiency column empty
    assert fields[-1] == "transient"
    assert text == reference_csv(records)


def test_packed_records_iterate_as_records(config):
    result = simulate(config.scenario("short-demo"), config)
    records = result.records
    rows = tuple(records)
    assert len(records) == len(rows) == 1000
    assert all(type(r) is TelemetryRecord for r in rows)
    assert tuple(records) == rows
    # efficiency is not stored: it reads back as computed from p_in and p_out
    assert all(r.efficiency == r.p_out / r.p_in for r in rows)
    # rebuilt, the times are the scenario's, and p_out is computed from the state
    times = config.scenario("short-demo").row_times(config.telemetry_decimation)
    assert [r.time for r in rows] == list(times)
    assert all(r.p_out == r.load_torque * r.omega_r for r in rows)
    text = csv_bytes(records)
    assert csv_bytes(simulate(config.scenario("short-demo"), config).records) == text
    assert csv_bytes(simulate(config.scenario("short-demo"), config, decimation=5).records) != text


@pytest.mark.parametrize("tau", [0.002, 0.0])
def test_rows_from_a_start_are_the_tail_of_all_rows(config, tau):
    # rows(start) clips the change log at start: every start, before, on and
    # after the search entry, its samples, the load step and the abandon,
    # reads the tail of the whole; under ideal tracking i_ds comes from the
    # log too
    cfg = dataclasses.replace(
        config, machine=dataclasses.replace(config.machine, current_tracking_time_constant=tau))
    scenario = Scenario("tail", 2.0, 1e-3, ((0.0, 150.0),), ((0.0, 6.0), (1.5, 9.0)))
    result = simulate(scenario, cfg, decimation=7)
    records = result.records
    rows = list(records.rows())
    assert result.sample_count >= 2
    assert len({r[2] for r in rows}) == len({r[7] for r in rows}) == 2
    modes = [r[8] for r in rows]
    assert sum(a != b for a, b in zip(modes, modes[1:])) == 3  # entry, abandon, re-entry
    for start in range(len(records) + 1):
        assert list(records.rows(start)) == rows[start:]
    assert sum(1 for _ in records.times()) == len(records) == len(rows)


def test_regenerating_rows_have_no_efficiency(config):
    # A driving load makes p_in negative: efficiency reads back as None and
    # its CSV field is empty.
    scenario = constant_scenario(
        "regen", 1.0, 1e-4, 150.0, -12.0, flc_enabled=False, compensator_enabled=False
    )
    records = simulate(scenario, config).records
    rows = rows_of(records)
    regen = [i for i, r in enumerate(rows) if r.p_in <= 0.0]
    assert len(regen) > 800
    text = csv_bytes(records)
    lines = text.decode().splitlines()[1:]
    for i in regen:
        assert rows[i].efficiency is None
        assert lines[i].split(",")[16] == ""
    assert text == reference_csv(records)


def test_written_rows_match_reference_lines(config):
    # The writer reuses the text of a row whose fields after time repeat the
    # last row's, and the text of fields that repeat; lines built one by one
    # are the reference. The settled run holds, so rows repeat.
    scenario = constant_scenario(
        "settled", 2.0, 1e-3, 150.0, 6.0, flc_enabled=False, compensator_enabled=False
    )
    records = simulate(scenario, config, decimation=1).records
    rows = tuple(records)
    assert sum(a[1:] == b[1:] for a, b in zip(rows, rows[1:])) > 500
    assert csv_bytes(records) == reference_csv(records)


def _count_power_terms(monkeypatch) -> list:
    """A list that grows by one at each ``power_terms`` call from here on."""
    calls = []
    power_terms = MachineParams.power_terms

    def counted(self, *args):
        calls.append(None)
        return power_terms(self, *args)

    monkeypatch.setattr(MachineParams, "power_terms", counted)
    return calls


def test_text_reuse_compares_bits(config, monkeypatch):
    # +0.0 == -0.0, but their reprs differ: a row's state repeats the last
    # row's only with the same signs, and only then is its text reused
    state = (150.0, 150.0, 5.0, 0.0, 5.0, 0.0, 0.7, 0.0)
    signed = (150.0, 150.0, 5.0, -0.0, 5.0, 0.0, 0.7, 0.0)  # i_qs_cmd
    records = crafted_records(config, state, signed, signed, state, state)
    expected = reference_csv(records)
    calls = _count_power_terms(monkeypatch)
    text = csv_bytes(records)
    assert len(calls) == 3
    assert [line.split(",")[4] for line in text.decode().splitlines()[1:]] == [
        "0.0", "-0.0", "-0.0", "0.0", "0.0"]
    assert text == expected


def test_text_reuse_tells_the_signs_of_shared_fields(config):
    # The writer formats omega_ref, i_ds_cmd, i_ds and load_torque only when
    # they change, and writes i_ds (i_qs) with the text of i_ds_cmd
    # (i_qs_cmd) when the two are equal: a zero's sign must still show.
    base = (150.0, 150.0, 5.0, 1.0, 5.0, 1.0, 0.7, 6.0)

    names = ("omega_ref", "omega_r", "i_ds_cmd", "i_qs_cmd", "i_ds", "i_qs", "psi_dr",
             "load_torque")

    def at(**fields):
        return tuple(fields.get(name, value) for name, value in zip(names, base))

    states = (
        at(omega_ref=0.0), at(omega_ref=-0.0), at(omega_ref=0.0),
        at(load_torque=0.0), at(load_torque=-0.0), at(load_torque=0.0),
        # equal commands and currents, signs apart
        at(i_ds_cmd=0.0, i_ds=-0.0), at(i_ds_cmd=-0.0, i_ds=0.0), at(i_ds_cmd=0.0, i_ds=0.0),
        at(i_qs_cmd=0.0, i_qs=-0.0), at(i_qs_cmd=-0.0, i_qs=0.0), at(i_qs_cmd=-0.0, i_qs=-0.0),
        # only the mode changes
        base, base,
    )
    records = crafted_records(config, *states,
                              modes=["transient"] * (len(states) - 1) + ["search"])
    assert csv_bytes(records) == reference_csv(records)


def test_hot_readers_build_no_records(config, monkeypatch):
    records = simulate(config.scenario("short-demo"), config).records
    text = csv_bytes(records)
    mean = steady_window_mean(records, 0.5)

    def no_record(self, time, state):
        raise AssertionError("a TelemetryRecord was built")

    monkeypatch.setattr(PackedRecords, "_record", no_record)
    assert csv_bytes(records) == text
    assert steady_window_mean(records, 0.5) == mean


def test_simulate_evaluates_losses_only_at_search_samples(config, monkeypatch):
    # rows store the state; their losses are computed when they are read
    calls = _count_power_terms(monkeypatch)
    result = simulate(config.scenario("short-demo"), config, decimation=1)
    assert result.sample_count > 0
    assert len(calls) == result.sample_count


def test_steady_window_mean_evaluates_losses_once_a_window_row(config, monkeypatch):
    records = simulate(config.scenario("short-demo"), config, decimation=1).records
    times = list(records.times())
    window_rows = sum(t > times[-1] - 0.5 for t in times)
    calls = _count_power_terms(monkeypatch)
    steady_window_mean(records, 0.5)
    assert 0 < window_rows < len(records)
    assert len(calls) == window_rows


def test_per_step_records_stay_packed(config):
    # A boxed row (a tuple of 18 fields and its floats) kept 536 bytes a row;
    # packed it keeps its 5 state doubles under the shipped lagged tracking.
    scenario = config.scenario("short-demo")
    simulate(dataclasses.replace(scenario, duration=0.01), config, decimation=1)
    tracemalloc.start()
    try:
        result = simulate(scenario, config, decimation=1)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == 10000
    assert kept / len(result.records) < 100


@pytest.mark.parametrize("tau, row_bytes", [(0.0, 24), (0.002, 40)])
def test_per_step_rows_keep_only_the_integrated_state(config, tau, row_bytes):
    # A row stores psi, omega_r and i_qs_cmd, plus i_ds and i_qs when the
    # currents lag their commands; time, commands, i_ds_cmd and mode are
    # rebuilt when read. The run's traced peak is that and a fixed allowance.
    cfg = dataclasses.replace(
        config, machine=dataclasses.replace(config.machine, current_tracking_time_constant=tau))
    scenario = dataclasses.replace(cfg.scenario("load-step-abandon"), duration=2.0)
    simulate(dataclasses.replace(scenario, duration=0.01), cfg, decimation=1)
    tracemalloc.start()
    try:
        result = simulate(scenario, cfg, decimation=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.records) == 20000
    assert peak <= row_bytes * len(result.records) + 64_000


def test_simulation_result_metadata(config):
    result = simulate(config.scenario("short-demo"), config)
    assert result.sample_count >= 1
