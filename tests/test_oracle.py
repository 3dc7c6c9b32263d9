"""Brute-force steady-state sweep: grid semantics, feasibility marking, and
the existence of an interior minimum-input-power point at light load."""

from __future__ import annotations

import pytest

from fluxseek.harness import oracle
from fluxseek.harness.oracle import MAX_GRID, oracle_sweep, steady_state_point
from fluxseek.machine import InductionMachine

from conftest import reference_power_terms


def test_single_point_grid_returns_rated(config):
    result = oracle_sweep(150.0, 6.0, 1, config)
    assert len(result.points) == 1
    assert result.points[0].i_ds == config.machine.rated_excitation_current
    assert result.best_i_ds == config.machine.rated_excitation_current


def test_grid_endpoints_are_exact(config):
    result = oracle_sweep(150.0, 6.0, 200, config)
    assert result.points[0].i_ds == config.machine.min_excitation_current
    assert result.points[-1].i_ds == config.machine.rated_excitation_current
    assert len(result.points) == 200


@pytest.mark.parametrize("load", [6.0, 8.0, 12.0, 18.0])
def test_minimum_never_exceeds_rated_point(config, load):
    result = oracle_sweep(150.0, load, 200, config)
    rated_point = result.points[-1]
    assert rated_point.feasible
    assert result.min_input_power <= rated_point.input_power


def test_interior_minimum_at_quarter_load(config):
    result = oracle_sweep(150.0, 6.0, 400, config)
    lo = config.machine.min_excitation_current
    hi = config.machine.rated_excitation_current
    assert lo < result.best_i_ds < hi


@pytest.mark.parametrize("load", [6.0, 8.0, 12.0, 18.0])
def test_interior_minimum_at_every_table_load(config, load):
    result = oracle_sweep(150.0, load, 400, config)
    feasible = [p for p in result.points if p.feasible]
    assert feasible[0].i_ds < result.best_i_ds < feasible[-1].i_ds


def test_infeasible_points_marked_and_excluded(config):
    # At three-quarter load the torque-current limit rules out the lowest
    # excitation values.
    result = oracle_sweep(150.0, 18.0, 200, config)
    infeasible = [p for p in result.points if not p.feasible]
    assert infeasible
    m = config.machine
    t_e = 18.0 + m.friction * 150.0
    assert all(
        abs(t_e / (m.torque_constant_flux * (m.magnetizing_inductance * p.i_ds)))
        > m.max_torque_current for p in infeasible
    )
    assert all(p.input_power == float("inf") for p in infeasible)
    assert result.best_i_ds not in {p.i_ds for p in infeasible}


def test_unreachable_operating_point_rejected(config):
    # 60 N m at rated flux needs ~30 A of torque current, above the limit.
    with pytest.raises(ValueError, match="not reachable"):
        oracle_sweep(150.0, 60.0, 50, config)


def test_grid_size_validation(config):
    # rejected before the grid is built: a huge grid used to end in MemoryError
    for grid_size in (0, MAX_GRID + 1):
        with pytest.raises(ValueError, match=rf"^grid_size = {grid_size} must be in \[1, 100000\]$"):
            oracle_sweep(150.0, 6.0, grid_size, config)
    assert len(oracle_sweep(150.0, 6.0, MAX_GRID, config).points) == MAX_GRID


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_operating_point_must_be_finite(config, bad):
    # a NaN point is never infeasible, so it would reach the minimum as nan
    with pytest.raises(ValueError, match=rf"speed must be finite, got {bad!r}"):
        oracle_sweep(bad, 6.0, 50, config)
    with pytest.raises(ValueError, match=rf"load_torque must be finite, got {bad!r}"):
        oracle_sweep(150.0, bad, 50, config)


def test_steady_state_point_covers_friction(config):
    # the point recomputed from i_ds: flux L_m * i_ds, the torque current that
    # covers load plus friction, and the shaft power of that torque
    p = config.machine
    point = steady_state_point(p, 150.0, 6.0, 5.0)
    t_e = 6.0 + p.friction * 150.0
    psi = p.magnetizing_inductance * 5.0
    i_qs = t_e / (p.torque_constant_flux * psi)
    _, stator, rotor, iron, converter, _ = reference_power_terms(p, psi, 150.0, 5.0, i_qs)
    assert point.feasible
    assert point.input_power == t_e * 150.0 + (stator + rotor + iron + converter)


def test_oracle_curve_is_convex_around_minimum(config):
    # Not required by contract, but a useful sanity property of the loss
    # model: the feasible curve decreases to the minimizer then increases.
    result = oracle_sweep(150.0, 6.0, 100, config)
    powers = [p.input_power for p in result.points if p.feasible]
    k = powers.index(min(powers))
    assert all(a > b for a, b in zip(powers[:k], powers[1 : k + 1]))
    assert all(a < b for a, b in zip(powers[k:-1], powers[k + 1 :]))


def test_sweep_integrates_nothing(config, monkeypatch):
    # the steady state is algebraic: the sweep builds no stepper
    expected = oracle_sweep(150.0, 6.0, 200, config)

    def refuse(self, *args):
        raise AssertionError("oracle_sweep built an InductionMachine")

    monkeypatch.setattr(InductionMachine, "__init__", refuse)
    result = oracle_sweep(150.0, 6.0, 200, config)
    assert result.points == expected.points
    assert (result.best_i_ds, result.min_input_power) == (
        expected.best_i_ds, expected.min_input_power)


@pytest.mark.parametrize("grid_size", [1, 2, 200])
def test_sweep_evaluates_each_point_once(config, monkeypatch, grid_size):
    # the reachability check's rated point is the grid's last point
    calls = []

    def counted(*args):
        calls.append(args)
        return steady_state_point(*args)

    monkeypatch.setattr(oracle, "steady_state_point", counted)
    result = oracle_sweep(150.0, 6.0, grid_size, config)
    assert len(calls) == len(result.points) == grid_size
    assert result.points[-1].i_ds == config.machine.rated_excitation_current
