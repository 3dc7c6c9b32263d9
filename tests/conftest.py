"""Shared fixtures: the default configuration and the paired part-load runs
that back both the report tests and the acceptance suite; and the telemetry
CSV as bytes or as its SHA-256."""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from fluxseek.harness.config import DriveConfig, load_config
from fluxseek.harness.oracle import OracleSweepResult, oracle_sweep
from fluxseek.harness.runner import SimulationResult, simulate, write_csv
from fluxseek.harness.scenario import constant_scenario

LOAD_FRACTIONS = (0.25, 1.0 / 3.0, 0.5, 0.75)


def csv_bytes(records) -> bytes:
    """The telemetry CSV as UTF-8 bytes, written through one binary buffer."""
    text = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    write_csv(records, text)
    text.flush()
    return text.buffer.getvalue()


def csv_sha256(records) -> str:
    """The hex SHA-256 of the telemetry CSV, fed to the hash as it is written
    so the text is never held whole."""
    digest = hashlib.sha256()
    write_csv(records, SimpleNamespace(write=lambda text: digest.update(text.encode("utf-8"))))
    return digest.hexdigest()


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

