"""Shared fixtures: the default configuration and the paired part-load runs
that back both the report tests and the acceptance suite; the reference speed
PI, machine step, power terms and compensator boost, a generic RK4; the
telemetry CSV as bytes or as its SHA-256; the CSV that rows must give, built
line by line without the writer; a run's rows as a list; crafted rows; and a
run's energy ledger."""

from __future__ import annotations

import hashlib
import io
import math
from array import array
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from fluxseek.errors import FluxFloorError, NonFiniteError
from fluxseek.harness.config import DriveConfig, load_config
from fluxseek.harness.oracle import OracleSweepResult, oracle_sweep
from fluxseek.harness.report import DEFAULT_LOAD_FRACTIONS, paired_runs
from fluxseek.harness.runner import (
    CSV_HEADER, PackedRecords, SimulationResult, TelemetryRecord, write_csv)
from fluxseek.harness.scenario import constant_scenario
from fluxseek.machine import MachineParams


def speed_pi_step(
    integrator: float, error: float, kp: float, ki: float, limit: float, dt: float
) -> tuple[float, float]:
    """The reference speed PI: one update on the speed error; returns the new
    integrator and the torque-current command. ``simulate`` writes the same
    update inline, and the reference loop ties the two bit for bit.

    The integrator already carries the ki factor (amperes). Conditional
    anti-windup: the integrator is frozen while the unsaturated output
    exceeds the limit in the error's own direction, and is additionally
    clamped to +/- limit.
    """
    unsaturated = kp * error + integrator
    if unsaturated > limit:
        output = limit
        saturated_same_direction = error > 0.0
    elif unsaturated < -limit:
        output = -limit
        saturated_same_direction = error < 0.0
    else:
        output = unsaturated
        saturated_same_direction = False
    if not saturated_same_direction:
        integrator = integrator + ki * error * dt
        if integrator > limit:
            integrator = limit
        elif integrator < -limit:
            integrator = -limit
    return integrator, output


def generic_rk4(f, y, dt):
    """One textbook four-stage RK4 step of ``y' = f(y)``."""
    h = 0.5 * dt
    k1 = f(y)
    k2 = f([x + h * k for x, k in zip(y, k1)])
    k3 = f([x + h * k for x, k in zip(y, k2)])
    k4 = f([x + dt * k for x, k in zip(y, k3)])
    sixth = dt / 6.0
    return [
        x + sixth * (a + 2.0 * b + 2.0 * c + d)
        for x, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]


def rk4_step(p: MachineParams, state, commands, dt: float) -> list[float]:
    """The new (flux, speed, i_ds, i_qs) by ``generic_rk4``, before the flux
    floor. Ideal tracking starts the currents at their commands and returns
    the command floats themselves."""
    i_ds_cmd, i_qs_cmd, t_load = commands
    tau_i = p.current_tracking_time_constant
    inv_tau_i = 1.0 / tau_i if tau_i > 0.0 else 0.0
    inv_j = 1.0 / p.inertia

    def f(y):
        psi_, w_, i_d, i_q = y
        return (
            (p.magnetizing_inductance * i_d - psi_) / p.rotor_time_constant,
            (p.torque_constant_flux * psi_ * i_q - t_load - p.friction * w_) * inv_j,
            (i_ds_cmd - i_d) * inv_tau_i,
            (i_qs_cmd - i_q) * inv_tau_i,
        )

    start = list(state)
    if tau_i == 0.0:
        start[2:] = commands[:2]
    new = generic_rk4(f, start, dt)
    if tau_i == 0.0:
        new[2:] = commands[:2]
    return new


def reference_step(
    p: MachineParams, psi: float, w: float, i_d: float, i_q: float,
    i_ds_cmd: float, i_qs_cmd: float, t_load: float, dt: float,
) -> tuple[float, float, float, float]:
    """The reference coupled step: ``rk4_step``, every stage computed on
    every call, then ``InductionMachine.step``'s finiteness check and flux
    floor. It takes the step's arguments after the parameters; the machine
    tests and the reference loop hold the step to it bit for bit.
    """
    new = rk4_step(p, (psi, w, i_d, i_q), (i_ds_cmd, i_qs_cmd, t_load), dt)
    if not all(map(math.isfinite, new)):
        psi, w, i_d, i_q = new
        raise NonFiniteError(
            f"machine state is not finite: rotor_flux={psi!r},"
            f" rotor_speed={w!r}, i_ds={i_d!r}, i_qs={i_q!r}"
        )
    return max(new[0], p.flux_floor), new[1], new[2], new[3]


def reference_power_terms(
    p: MachineParams, psi: float, omega_r: float, i_ds: float, i_qs: float
) -> tuple[float, float, float, float, float, float]:
    """The textbook torque, stator copper, rotor copper, iron and converter
    loss, and input power, written from the parameters and evaluated left to
    right. ``MachineParams.power_terms`` must give the same doubles; unlike
    it, this raises nothing below the flux floor or on a negative loss."""
    omega_e = p.pole_pairs * omega_r + p.magnetizing_inductance * i_qs / (
        p.rotor_time_constant * psi)
    i_sq = i_ds * i_ds + i_qs * i_qs
    ratio = p.magnetizing_inductance / p.rotor_inductance
    stator = 1.5 * p.stator_resistance * i_sq
    rotor = 1.5 * p.rotor_resistance * (ratio * ratio) * i_qs * i_qs
    iron = (p.iron_loss_eddy_coeff * omega_e * omega_e
            + p.iron_loss_hysteresis_coeff * abs(omega_e)) * (psi * psi)
    converter = p.converter_fixed_loss + p.converter_resistive_coeff * i_sq
    t_e = p.torque_constant_flux * i_qs * psi
    return t_e, stator, rotor, iron, converter, t_e * omega_r + (stator + rotor + iron + converter)


def reference_flux_decay(p: MachineParams, psi0: float, i_ds: float, t: float) -> float:
    """The rotor flux t seconds after it stood at psi0 under excitation
    ``i_ds``: the closed-form solution of tau_r dpsi/dt = L_m i_ds - psi,
    psi0 plus the fraction 1 - exp(-t / tau_r) of the way to L_m i_ds."""
    target = p.magnetizing_inductance * i_ds
    return psi0 + (target - psi0) * -math.expm1(-t / p.rotor_time_constant)


def reference_boost(p: MachineParams, flux_source: str, mode: str, latches, psi: float,
                    t: float) -> float:
    """The boost ``TorqueCompensator.output(psi, t)`` must give after
    ``latches``, each ``(measured flux, PI output, new excitation command,
    time)``, written from ``compensator.py``'s docstring. Each latch anchors
    (Psi0, iqs0) at the flux, measured or on ``reference_flux_decay`` from the
    last anchor, and the PI output plus the base, after folding the last
    anchor's settled boost into the base by the step form
    (Psi_prev - Psi_now) / Psi_now * iqs_prev. The boost is the base plus
    -dPsi * iqs0 / (Psi0 + dPsi), or the base alone before the first latch and
    in discrete mode. Raises ``FluxFloorError`` with the compensator's message
    for a latch flux below the floor or not finite, and for a denominator not
    in (0, inf)."""
    predicted = flux_source == "predicted"
    base = 0.0
    anchor = None  # (Psi0, iqs0, latch time, excitation command)
    for psi_measured, pi_output, i_ds_new, t_latch in latches:
        psi_now = psi_measured
        if anchor is not None and predicted:
            psi_now = reference_flux_decay(p, anchor[0], anchor[3], t_latch - anchor[2])
        if not (psi_now >= p.flux_floor and math.isfinite(psi_now)):
            raise FluxFloorError("cannot latch compensator below flux floor or at non-finite"
                                 f" flux ({psi_now:.6g} Wb)")
        if anchor is not None:
            base = base + (anchor[0] - psi_now) / psi_now * anchor[1]
        anchor = (psi_now, pi_output + base, t_latch, i_ds_new)
    if anchor is None or mode == "discrete":
        return base
    psi0, iqs0, t0, i_ds_new = anchor
    if predicted:
        psi = reference_flux_decay(p, psi0, i_ds_new, t - t0)
    delta_psi = psi - psi0
    denom = psi0 + delta_psi
    if not (denom > 0.0 and math.isfinite(denom)):
        raise FluxFloorError(f"compensation denominator {denom:.6g} at/below zero")
    return base + (-delta_psi) * iqs0 / denom


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


def reference_csv(records) -> bytes:
    """The CSV bytes ``write_csv`` must give for ``records``, each line built
    on its own as ``test_reference_loop.py``'s loop builds it: torque, losses
    and power from ``reference_power_terms``, every float through ``repr``."""
    params = records.params
    lines = [CSV_HEADER]
    for r in records:
        psi, omega_r, i_ds, i_qs = r.psi_dr, r.omega_r, r.i_ds, r.i_qs
        t_e, *losses, p_in = reference_power_terms(params, psi, omega_r, i_ds, i_qs)
        p_out = r.load_torque * omega_r
        fields = (r.time, r.omega_ref, omega_r, r.i_ds_cmd, r.i_qs_cmd, i_ds, i_qs, psi, t_e,
                  r.load_torque, *losses, p_in, p_out)
        efficiency = repr(p_out / p_in) if p_in > 0.0 else ""
        lines.append(",".join((*map(repr, fields), efficiency, r.mode)))
    return "".join(line + "\n" for line in lines).encode()


def rows_of(records: PackedRecords) -> list[TelemetryRecord]:
    """A run's rows as a list, for the tests that pick rows by position: the
    rows are read in order only, and have no indexing of their own."""
    return list(records)


def crafted_records(config: DriveConfig, *states, modes=None) -> PackedRecords:
    """Rows of the given states, each ``(omega_ref, omega_r, i_ds_cmd,
    i_qs_cmd, i_ds, i_qs, psi_dr, load_torque)``, one a 1 s step, kept as
    ``simulate`` keeps them: the commands and the mode ("transient" unless
    given) as the change log, one entry a row, and the rest as packed rows;
    the scenario gives only the times. ``config``'s machine must lag its
    currents, as only then are they stored apart from their commands."""
    assert config.machine.current_tracking_time_constant > 0.0
    modes = modes or ["transient"] * len(states)
    scenario = constant_scenario("crafted", float(len(states)), 1.0, 0.0, 0.0,
                                 flc_enabled=False, compensator_enabled=False)
    log = [(row, s[0], s[2], s[7], mode) for row, (s, mode) in enumerate(zip(states, modes))]
    values = array("d", [v for _, omega_r, _, i_qs_cmd, i_ds, i_qs, psi, _ in states
                         for v in (psi, omega_r, i_qs_cmd, i_ds, i_qs)])
    records = PackedRecords(values, log, scenario, 1, config.machine)
    assert repr([(*r[1:8], r.load_torque) for r in records]) == repr(list(states))
    assert [r.mode for r in records] == modes
    return records


class EnergyLedger(NamedTuple):
    """Where a run's input energy went, in joules."""

    energy_in: float      # the integral of p_in
    stator_copper: float  # the four loss energies
    rotor_copper: float
    iron: float
    converter: float
    load_work: float      # the integral of T_load * omega
    friction: float       # the integral of B * omega**2
    kinetic: float        # the change in J * omega**2 / 2
    residual: float       # energy_in less all of the above


def energy_ledger(records: PackedRecords) -> EnergyLedger:
    """The energy ledger of a run's rows, integrated by trapezoids from the
    pre-magnetised standstill state (rated flux and excitation, shaft at rest)
    at time 0. ``machine.step`` integrates J dω/dt = T_e - T_load - Bω, and
    p_in is T_e ω plus the losses, so the residual is the integration error
    alone: small for rows every step, and growing where a row pair spans a
    load step. It reads only the rows' times and states, and computes the
    power terms from them by ``params.power_terms``."""
    p = records.params
    rated = p.rated_excitation_current
    _, *losses, p_in = p.power_terms(p.rated_flux, 0.0, rated, 0.0)
    # the integrands: p_in, the four losses, load power and friction power
    before = (0.0, (p_in, *losses, 0.0, 0.0))
    totals = [0.0] * 7
    for time, (_, omega, _, _, i_ds, i_qs, psi, t_load, _) in zip(records.times(),
                                                                  records.rows()):
        _, *losses, p_in = p.power_terms(psi, omega, i_ds, i_qs)
        now = (time, (p_in, *losses, t_load * omega, p.friction * omega * omega))
        half = 0.5 * (now[0] - before[0])
        totals = [total + half * (a + b) for total, a, b in zip(totals, before[1], now[1])]
        before = now
    kinetic = 0.5 * p.inertia * omega * omega if records else 0.0
    return EnergyLedger(*totals, kinetic, totals[0] - sum(totals[1:]) - kinetic)


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
    """The runs ``fluxseek table`` makes, FLC-off / FLC-on at each of its load
    fractions (``report.paired_runs``), each pair with its oracle sweep."""
    speed = config.machine.rated_speed
    return tuple(
        PairedRun(fraction, torque, off, on, oracle_sweep(speed, torque, 200, config))
        for fraction, torque, off, on in paired_runs(DEFAULT_LOAD_FRACTIONS, speed, config)
    )

