"""Brute-force steady-state sweep: ground truth for the search.

Field orientation makes the steady state algebraic: Psi = L_m * i_ds, the
torque current follows from the demanded torque, slip from the two, and
``MachineParams.power_terms`` evaluates the losses directly. No dynamics are
integrated and no stepper is built, so the sweep is an independent
cross-check of where the closed-loop search settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..machine import MachineParams
from .config import DriveConfig

# 500 times the default grid of 200; a point takes about 160 bytes, so the
# largest sweep holds about 16 MB
MAX_GRID = 10**5


@dataclass(frozen=True)
class OraclePoint:
    i_ds: float
    input_power: float
    feasible: bool


@dataclass(frozen=True)
class OracleSweepResult:
    best_i_ds: float
    min_input_power: float
    points: tuple[OraclePoint, ...]


def steady_state_point(
    params: MachineParams, speed: float, load_torque: float, i_ds: float
) -> OraclePoint:
    """Exact field-oriented steady state at one excitation value.

    The developed torque must cover the load plus viscous friction; input
    power is that torque's shaft power plus the machine's four losses. Points
    whose torque current exceeds the drive limit are marked infeasible.
    """
    psi = params.magnetizing_inductance * i_ds
    t_e = load_torque + params.friction * speed
    i_qs = t_e / (params.torque_constant_flux * psi)
    if abs(i_qs) > params.max_torque_current:
        return OraclePoint(i_ds=i_ds, input_power=float("inf"), feasible=False)
    _, stator, rotor, iron, converter, _ = params.power_terms(psi, speed, i_ds, i_qs)
    return OraclePoint(
        i_ds=i_ds, input_power=t_e * speed + (stator + rotor + iron + converter), feasible=True,
    )


def oracle_sweep(
    speed: float, load_torque: float, grid_size: int, config: DriveConfig
) -> OracleSweepResult:
    """Evaluate grid_size excitation values on [min, rated] and return the
    minimizer plus the whole curve.

    Each point is evaluated once. The last is rated excitation (the point the
    operating envelope guarantees feasible), which the reachability check
    evaluates; a single-point grid is that point alone. Infeasible grid
    points stay in the curve but are excluded from the minimum.
    """
    if not 1 <= grid_size <= MAX_GRID:
        raise ValueError(f"grid_size = {grid_size} must be in [1, {MAX_GRID}]")
    for name, value in (("speed", speed), ("load_torque", load_torque)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    params = config.machine
    rated = params.rated_excitation_current
    rated_point = steady_state_point(params, speed, load_torque, rated)
    if not rated_point.feasible:
        raise ValueError(
            f"operating point (speed {speed:g}, torque {load_torque:g}) is not"
            " reachable at rated excitation"
        )
    lo = params.min_excitation_current
    span = rated - lo
    points = (*(steady_state_point(params, speed, load_torque, lo + span * i / (grid_size - 1))
                for i in range(grid_size - 1)), rated_point)
    best = min((p for p in points if p.feasible), key=lambda p: p.input_power)
    return OracleSweepResult(best_i_ds=best.i_ds, min_input_power=best.input_power, points=points)
