"""Shared fixtures: the default configuration and the paired part-load runs
that back both the report tests and the acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from fluxseek.harness import (
    OracleSweepResult,
    SimulationResult,
    constant_scenario,
    load_config,
    oracle_sweep,
    simulate,
)
from fluxseek.harness.config import DriveConfig

LOAD_FRACTIONS = (0.25, 1.0 / 3.0, 0.5, 0.75)


@dataclass(frozen=True)
class PairedRun:
    fraction: float
    torque: float
    off: SimulationResult
    on: SimulationResult
    oracle: OracleSweepResult


@pytest.fixture(scope="session")
def config() -> DriveConfig:
    return load_config()


@pytest.fixture(scope="session")
def table_runs(config) -> tuple[PairedRun, ...]:
    """FLC-off / FLC-on pair plus oracle sweep at each table load fraction."""
    speed = config.machine.rated_speed
    runs = []
    for fraction in LOAD_FRACTIONS:
        torque = fraction * config.machine.rated_torque
        off = simulate(
            constant_scenario(
                f"off-{fraction:g}", 4.0, 1e-4, speed, torque,
                flc_enabled=False, compensator_enabled=False,
            ),
            config,
        )
        on = simulate(
            constant_scenario(f"on-{fraction:g}", 14.0, 1e-4, speed, torque),
            config,
        )
        runs.append(
            PairedRun(fraction, torque, off, on, oracle_sweep(speed, torque, 200, config))
        )
    return tuple(runs)

