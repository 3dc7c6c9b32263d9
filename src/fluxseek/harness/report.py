"""Part-load efficiency report: ``paired_runs`` runs the drive with and
without the efficiency controller at each load fraction, and
``efficiency_table`` reduces each pair to input power, output power and
efficiency columns."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

from ..errors import FluxseekError
from .config import DriveConfig, check_search_speeds
from .runner import PackedRecords, SimulationResult, simulate
from .scenario import constant_scenario

DEFAULT_LOAD_FRACTIONS = (0.25, 1.0 / 3.0, 0.5, 0.75)
OFF_DURATION = 4.0  # s, the rated-flux run
ON_DURATION = 14.0  # s, the search run
DT = 1e-4           # s, the step of both runs
WINDOW = 1.0        # s, the trailing window each row averages

REPORT_CSV_HEADER = (
    "table,load_fraction,load_torque,input_power_w,output_power_w,"
    "efficiency,converged,samples_to_convergence"
)


@dataclass(frozen=True)
class EfficiencyRow:
    load_fraction: float
    load_torque: float        # N m
    input_power: float        # W, steady-window mean
    output_power: float       # W, steady-window mean
    efficiency: float         # output / input
    converged: bool           # search reached its convergence flag (on-rows)
    samples_to_convergence: int | None


@dataclass(frozen=True)
class EfficiencyReport:
    speed: float
    flc_off: tuple[EfficiencyRow, ...]
    flc_on: tuple[EfficiencyRow, ...]


def steady_window_mean(records: PackedRecords, window: float) -> tuple[float, float]:
    """Mean (p_in, p_out) over the rows of the trailing ``window`` seconds of
    telemetry, those with time > t_end - window; summed in row order."""
    if not (math.isfinite(window) and window > 0.0):
        raise FluxseekError(f"steady window must be finite and > 0 s, got {window!r}")
    if not records:
        raise FluxseekError("no telemetry records to average")
    # the times are computed as read, not stored: take the last row's, then
    # count the rows at or before the window, as the times never decrease
    cut = next(islice(records.times(), len(records) - 1, None)) - window
    start = sum(map(cut.__ge__, records.times()))
    n = len(records) - start
    # one loss evaluation a row. Added left to right: the builtin sum()
    # compensates rounding since Python 3.12, so the report's bytes would
    # depend on the interpreter.
    power_terms = records.params.power_terms
    p_in = p_out = 0.0
    for _, omega_r, _, _, i_ds, i_qs, psi, t_load, _ in records.rows(start):
        p_in += power_terms(psi, omega_r, i_ds, i_qs)[5]
        p_out += t_load * omega_r
    return p_in / n, p_out / n


def paired_runs(load_fractions, speed: float, config: DriveConfig):
    """Yield ``(fraction, torque, off, on)`` for each load fraction in turn:
    the torque is ``fraction`` of rated, ``off`` the ``OFF_DURATION`` run at
    rated flux with the search and compensator off, and ``on`` the
    ``ON_DURATION`` run with both on, each at ``speed`` in steps of ``DT``.
    Each search run's speeds are checked before the first run is simulated."""
    pairs = []
    for fraction in load_fractions:
        torque = fraction * config.machine.rated_torque
        off = constant_scenario(f"flc-off-{fraction:g}", OFF_DURATION, DT, speed, torque,
                                flc_enabled=False, compensator_enabled=False)
        on = constant_scenario(f"flc-on-{fraction:g}", ON_DURATION, DT, speed, torque)
        check_search_speeds(on, config.search.gains, config.machine.friction)
        pairs.append((fraction, torque, off, on))
    for fraction, torque, off, on in pairs:
        off, on = simulate(off, config), simulate(on, config)
        yield fraction, torque, off, on
        del off, on  # the next pair is then simulated without this one held


def _row(
    result: SimulationResult,
    load_fraction: float,
    load_torque: float,
    search_run: bool,
) -> EfficiencyRow:
    p_in, p_out = steady_window_mean(result.records, WINDOW)
    return EfficiencyRow(
        load_fraction=load_fraction,
        load_torque=load_torque,
        input_power=p_in,
        output_power=p_out,
        efficiency=p_out / p_in,
        converged=result.converged if search_run else True,
        samples_to_convergence=result.samples_to_convergence if search_run else None,
    )


def efficiency_table(load_fractions, speed: float, config: DriveConfig) -> EfficiencyReport:
    """The ``paired_runs`` at each load fraction of rated torque, each run
    reduced to its mean powers over the trailing ``WINDOW`` seconds.

    Rows of a non-converged search run are flagged (``converged`` False), not
    silently truncated; their steady-window numbers are still reported.
    """
    off_rows = []
    on_rows = []
    for fraction, torque, off, on in paired_runs(load_fractions, speed, config):
        off_rows.append(_row(off, fraction, torque, search_run=False))
        on_rows.append(_row(on, fraction, torque, search_run=True))
        del off, on  # the next pair is then simulated without this one held
    return EfficiencyReport(speed=speed, flc_off=tuple(off_rows), flc_on=tuple(on_rows))


def _render_block(title: str, rows: tuple[EfficiencyRow, ...], show_flag: bool) -> list[str]:
    lines = [title, "-" * len(title)]
    header = f"{'load torque (N m)':>18}  {'input power (kW)':>17}  {'output power (kW)':>18}  {'efficiency (%)':>15}"
    if show_flag:
        header += f"  {'converged':>9}"
    lines.append(header)
    for row in rows:
        line = (
            f"{row.load_torque:>18.2f}  {row.input_power / 1e3:>17.3f}  "
            f"{row.output_power / 1e3:>18.3f}  {100.0 * row.efficiency:>15.1f}"
        )
        if show_flag:
            line += f"  {'yes' if row.converged else 'NO':>9}"
        lines.append(line)
    return lines


def render_text(report: EfficiencyReport) -> str:
    lines = [f"Part-load efficiency at {report.speed:g} rad/s"]
    lines.append("")
    lines.extend(_render_block("Without efficiency controller (rated flux)", report.flc_off, False))
    lines.append("")
    lines.extend(_render_block("With efficiency controller", report.flc_on, True))
    return "\n".join(lines) + "\n"


def write_report_csv(report: EfficiencyReport, target) -> None:
    """Write the report as CSV to a text file object (anything with ``write``)."""
    target.write(REPORT_CSV_HEADER + "\n")
    for tag, rows in (("flc_off", report.flc_off), ("flc_on", report.flc_on)):
        for row in rows:
            samples = "" if row.samples_to_convergence is None else str(row.samples_to_convergence)
            target.write(
                f"{tag},{row.load_fraction!r},{row.load_torque!r},"
                f"{row.input_power!r},{row.output_power!r},{row.efficiency!r},"
                f"{str(row.converged).lower()},{samples}\n"
            )

