"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Tolerances are fixed here, not calibrated: 2% oracle equivalence, 50-sample /
12.5 s convergence budget, 1e-4 flux fidelity, 0.5% torque invariance, 3x
compensation ratios, 2% speed regulation, byte-identical reruns.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager

import pytest

from fluxseek.fuzzy import (
    FuzzyRule,
    efficiency_step,
    estimate_torque,
    height_defuzzify,
    infer,
    input_gain,
    output_gain,
)
from fluxseek.harness.report import steady_window_mean
from fluxseek.harness.runner import CSV_HEADER, simulate
from fluxseek.harness.scenario import Scenario, constant_scenario
from fluxseek.machine import InductionMachine

from conftest import csv_bytes, rows_of

GOLDEN_HEADER = (
    "time,omega_ref,omega_r,i_ds_cmd,i_qs_cmd,i_ds,i_qs,psi_dr,torque,"
    "load_torque,loss_cu_s,loss_cu_r,loss_fe,loss_conv,p_in,p_out,"
    "efficiency,mode"
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def first_decrement_window(result, rated: float):
    rows = rows_of(result.records)
    start = next(i for i, r in enumerate(rows) if r.i_ds_cmd < rated)
    return rows[start:]


# -- 1: oracle equivalence ------------------------------------------------------


def test_criterion_1_oracle_equivalence(table_runs):
    with criterion(1, "oracle equivalence"):
        for run in table_runs:
            p_in, _ = steady_window_mean(run.on.records, 1.0)
            ratio = p_in / run.oracle.min_input_power
            assert run.on.converged, f"load {run.torque}: search did not converge"
            assert run.on.samples_to_convergence <= 50, (
                f"load {run.torque}: {run.on.samples_to_convergence} samples"
            )
            assert run.on.convergence_time <= 12.5, (
                f"load {run.torque}: converged at {run.on.convergence_time:.2f} s"
            )
            assert ratio <= 1.02, (
                f"load {run.torque}: steady input power {p_in:.1f} W is"
                f" {100 * (ratio - 1):.2f}% above the oracle minimum"
                f" {run.oracle.min_input_power:.1f} W"
            )


def test_search_steps_damp_after_crossing_the_minimum(table_runs):
    # Once the command crosses the oracle minimizer, applied step magnitudes
    # must not grow again before convergence (vacuous if never crossed).
    for run in table_runs:
        rows = rows_of(run.on.records)
        commands = [rows[0].i_ds_cmd]
        for record in rows:
            if record.i_ds_cmd != commands[-1]:
                commands.append(record.i_ds_cmd)
        crossed = next(
            (i for i, c in enumerate(commands) if c < run.oracle.best_i_ds), None
        )
        if crossed is None:
            continue
        magnitudes = [
            abs(b - a) for a, b in zip(commands[crossed:], commands[crossed + 1 :])
        ]
        assert all(
            later <= earlier + 1e-9
            for earlier, later in zip(magnitudes, magnitudes[1:])
        ), f"load {run.torque}: step magnitudes grew after crossing: {magnitudes}"


# -- 2: trend match --------------------------------------------------------------


def test_criterion_2_trend_match(table_runs):
    with criterion(2, "part-load trend match"):
        improvements = []
        for run in table_runs:
            p_in_off, p_out_off = steady_window_mean(run.off.records, 1.0)
            p_in_on, p_out_on = steady_window_mean(run.on.records, 1.0)
            eff_off = p_out_off / p_in_off
            eff_on = p_out_on / p_in_on
            assert eff_on > eff_off, (
                f"load {run.torque}: search efficiency {eff_on:.3f} does not"
                f" exceed rated-flux efficiency {eff_off:.3f}"
            )
            improvements.append(eff_on - eff_off)
        assert improvements[0] == max(improvements), "improvement not largest at 1/4 load"
        assert improvements[-1] == min(improvements), "improvement not smallest at 3/4 load"


# -- 3: flux ODE fidelity -----------------------------------------------------------


def test_criterion_3_flux_ode_fidelity(config):
    with criterion(3, "flux ODE fidelity"):
        params = dataclasses.replace(config.machine, current_tracking_time_constant=0.0)
        dt = 1e-4
        machine = InductionMachine(params, dt)
        tau = params.rotor_time_constant
        for i_target in (params.rated_excitation_current / 2.0, params.rated_excitation_current):
            psi0 = params.rated_flux if i_target < params.rated_excitation_current else params.flux_floor * 4.0
            goal = params.magnetizing_inductance * i_target
            # coupled integrator, commands held, shaft unloaded
            psi, omega, i_ds, i_qs = psi0, 0.0, i_target, 0.0
            t = 0.0
            for k in range(round(5.0 * tau / dt)):
                psi, omega, i_ds, i_qs = machine.step(psi, omega, i_ds, i_qs, i_target, 0.0, 0.0)
                t += dt
                expected = goal + (psi0 - goal) * math.exp(-t / tau)
                assert abs(psi - expected) <= 1e-4 * abs(expected)


# -- 4: compensation exactness ----------------------------------------------------------


def test_criterion_4_compensation(config):
    with criterion(4, "pulsating-torque compensation"):
        rated = config.machine.rated_excitation_current
        speed = config.machine.rated_speed

        # (a) instantaneous tracking + measured flux: torque invariant through
        # every search step to within 0.5%.
        ideal = dataclasses.replace(config.machine, current_tracking_time_constant=0.0)
        ideal_config = dataclasses.replace(config, machine=ideal)
        result = simulate(
            constant_scenario("ideal", 6.0, 1e-4, speed, 6.0), ideal_config, decimation=1
        )
        window = first_decrement_window(result, rated)
        reference = window[0].torque
        worst = max(abs(r.torque - reference) / reference for r in window)
        assert worst < 0.005, f"torque deviated {100 * worst:.3f}% with ideal tracking"

        # (b) default 2 ms lag: compensation shrinks both peak deviations >= 3x.
        peaks = {}
        for comp_enabled in (True, False):
            run = simulate(
                constant_scenario(
                    "lagged", 6.0, 1e-4, speed, 6.0, compensator_enabled=comp_enabled
                ),
                config,
                decimation=1,
            )
            win = first_decrement_window(run, rated)
            torque_ref = win[0].torque
            peaks[comp_enabled] = (
                max(abs(r.torque - torque_ref) for r in win),
                max(abs(r.omega_r - r.omega_ref) for r in win),
            )
        torque_ratio = peaks[False][0] / peaks[True][0]
        speed_ratio = peaks[False][1] / peaks[True][1]
        assert torque_ratio >= 3.0, f"torque deviation ratio {torque_ratio:.2f} < 3"
        assert speed_ratio >= 3.0, f"speed deviation ratio {speed_ratio:.2f} < 3"


def test_sensorless_predicted_flux_variant(config, table_runs):
    # The predicted-flux feedforward must keep the search healthy without
    # reading the simulator's flux.
    sensorless = dataclasses.replace(config, flux_source="predicted")
    run = simulate(
        constant_scenario("sensorless", 14.0, 1e-4, config.machine.rated_speed, 6.0),
        sensorless,
    )
    assert run.converged
    p_in, _ = steady_window_mean(run.records, 1.0)
    quarter = table_runs[0]
    assert p_in / quarter.oracle.min_input_power <= 1.02
    search = [r for r in run.records if r.mode == "search"]
    bound = 0.02 * config.machine.rated_speed
    assert all(abs(r.omega_r - r.omega_ref) <= bound for r in search)


# -- 5: fuzzy policy suite ----------------------------------------------------------------


def test_criterion_5_fuzzy_policy_suite(config):
    with criterion(5, "fuzzy policy suite"):
        rulebase, gains = config.search.rulebase, config.search.gains
        omega, i_ds, i_qs = 150.0, 5.0, 3.15
        p_b = input_gain(gains, omega)
        i_b = output_gain(gains, omega, estimate_torque(config.machine, i_ds, i_qs))

        def step(dp_pu: float, last_pu: float) -> float:
            return efficiency_step(rulebase, p_b, i_b, dp_pu * p_b, last_pu * i_b)

        # direction: continue on falling power, reverse on rising power
        for dp_pu in (-1.0, -0.7, -0.4, -0.1, -0.02):
            for last_pu in (-0.6, 0.6):
                assert (step(dp_pu, last_pu) > 0.0) == (last_pu > 0.0)
        for dp_pu in (0.02, 0.1, 0.4, 0.7, 1.0):
            for last_pu in (-0.6, 0.6):
                assert (step(dp_pu, last_pu) > 0.0) == (last_pu < 0.0)

        # reversal magnitude reduction
        for dp_pu in (0.4, 0.6, 0.8, 1.0):
            assert abs(step(dp_pu, -0.5)) < abs(step(-dp_pu, -0.5))

        # magnitude monotone in |power change|
        for last_pu in (-0.5, 0.5):
            grid = [abs(step(i / 20.0, last_pu)) for i in range(21)]
            assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))

        # per-unit invariance across operating points
        for other in ((100.0, 4.0, 6.0), (60.0, 5.0, 2.0)):
            p_b2 = input_gain(gains, other[0])
            i_b2 = output_gain(gains, other[0], estimate_torque(config.machine, *other[1:]))
            for dp_pu, last_pu in ((-0.45, -0.3), (0.7, 0.2)):
                here = step(dp_pu, last_pu) / i_b
                there = (
                    efficiency_step(rulebase, p_b2, i_b2, dp_pu * p_b2, last_pu * i_b2)
                    / i_b2
                )
                assert here == pytest.approx(there, rel=1e-12)

        # height defuzzification hand cases, exact to machine precision
        strengths = [0.0] * 14
        strengths[rulebase.rules.index(FuzzyRule("NM", "N", "NM"))] = 0.4
        assert height_defuzzify(tuple(strengths), rulebase) == -2.0 / 3.0
        strengths = [0.0] * 14
        strengths[rulebase.rules.index(FuzzyRule("NS", "N", "NS"))] = 0.5
        strengths[rulebase.rules.index(FuzzyRule("ZE", "N", "ZE"))] = 0.5
        assert height_defuzzify(tuple(strengths), rulebase) == -1.0 / 6.0
        # quoted example rule: falling power, decrementing history, NM output
        fired = dict(zip(rulebase.rules, infer(rulebase, -2.0 / 3.0, -1.0)))
        assert fired[FuzzyRule("NM", "N", "NM")] == 1.0


# -- 6: mode discipline ----------------------------------------------------------------------


def test_criterion_6_mode_discipline(config, table_runs):
    with criterion(6, "mode discipline"):
        rated = config.machine.rated_excitation_current
        speed = config.machine.rated_speed

        # command changes restore rated flux within one integration step
        for profile_kind in ("load", "speed"):
            if profile_kind == "load":
                scenario = Scenario(
                    "load-change", 8.0, 1e-4,
                    ((0.0, speed),), ((0.0, 6.0), (6.0, 12.0)),
                )
            else:
                scenario = Scenario(
                    "speed-change", 8.0, 1e-4,
                    ((0.0, speed), (6.0, 0.8 * speed)), ((0.0, 6.0),),
                )
            result = simulate(scenario, config, decimation=1)
            rows = rows_of(result.records)
            change = next(
                i for i, r in enumerate(rows)
                if r.load_torque != rows[0].load_torque
                or r.omega_ref != rows[0].omega_ref
            )
            assert rows[change - 1].mode == "search"
            assert rows[change - 1].i_ds_cmd < rated
            assert rows[change].mode == "transient", profile_kind
            assert rows[change].i_ds_cmd == rated, (
                f"{profile_kind} change: excitation not restored within one step"
            )

        # speed regulation through the entire search at every table point
        bound = 0.02 * speed
        for run in table_runs:
            search = [r for r in run.on.records if r.mode == "search"]
            worst = max(abs(r.omega_r - r.omega_ref) for r in search)
            assert worst <= bound, (
                f"load {run.torque}: speed error {worst:.3f} rad/s during search"
            )


# -- 7: determinism and schema ------------------------------------------------------------------


def test_criterion_7_determinism_and_schema(config):
    with criterion(7, "determinism and schema"):
        scenario = config.scenario("short-demo")
        first = csv_bytes(simulate(scenario, config).records)
        second = csv_bytes(simulate(scenario, config).records)
        assert first == second
        assert first.split(b"\n", 1)[0].decode() == GOLDEN_HEADER
        assert CSV_HEADER == GOLDEN_HEADER
