"""Command-line interface.

Subcommands:
  run    simulate one named scenario and write telemetry CSV
  sweep  brute-force steady-state excitation sweep at one operating point
  table  paired part-load efficiency report, text to stdout, CSV via --out

The configuration file comes from --config, else the FLUXSEEK_CONFIG
environment variable, else the packaged default.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys

from ..compensator import FLUX_SOURCES
from ..errors import FluxseekError
from .config import ENV_CONFIG_VAR, load_config
from .oracle import oracle_sweep
from .report import DEFAULT_LOAD_FRACTIONS, efficiency_table, render_text, write_report_csv
from .runner import simulate, write_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxseek",
        description=(
            "Deterministic induction-motor drive simulator with search-based"
            " fuzzy efficiency optimization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = (
        f"configuration file (default: ${ENV_CONFIG_VAR} or the packaged default)"
    )

    run_p = sub.add_parser("run", help="simulate a named scenario, write telemetry CSV")
    run_p.add_argument("scenario", help="scenario name from the configuration file")
    run_p.add_argument("--config", default=None, help=config_help)
    run_p.add_argument("--out", required=True, help="output CSV path")
    run_p.add_argument(
        "--no-flc", action="store_true", help="disable the efficiency search"
    )
    run_p.add_argument(
        "--no-comp", action="store_true", help="disable torque compensation"
    )
    run_p.add_argument(
        "--flux-source",
        choices=FLUX_SOURCES,
        default=None,
        help="compensator flux source override (predicted = sensorless)",
    )
    run_p.add_argument(
        "--per-step",
        action="store_true",
        help="emit every integration step instead of the decimated stream",
    )

    sweep_p = sub.add_parser(
        "sweep", help="steady-state excitation sweep at one operating point"
    )
    sweep_p.add_argument("--speed", type=float, required=True, help="rad/s mechanical")
    sweep_p.add_argument("--torque", type=float, required=True, help="load torque, N m")
    sweep_p.add_argument("--grid", type=int, default=200, help="grid points (default 200)")
    sweep_p.add_argument("--config", default=None, help=config_help)

    table_p = sub.add_parser("table", help="part-load efficiency report")
    table_p.add_argument("--config", default=None, help=config_help)
    table_p.add_argument("--out", default=None, help="also write the report as CSV")
    table_p.add_argument(
        "--speed", type=float, default=None, help="rad/s (default: rated speed)"
    )
    # argparse takes only -6 or -6.5 as a value; "-6e0" and "-inf" are values too
    sweep_p._negative_number_matcher = table_p._negative_number_matcher = re.compile(
        r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
    )
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.flux_source is not None:
        config = dataclasses.replace(config, flux_source=args.flux_source)
    scenario = config.scenario(args.scenario)
    scenario = dataclasses.replace(
        scenario,
        flc_enabled=scenario.flc_enabled and not args.no_flc,
        compensator_enabled=scenario.compensator_enabled and not args.no_comp,
    )
    result = simulate(scenario, config, decimation=1 if args.per_step else None)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        write_csv(result.records, handle)
    summary = f"{scenario.name}: {len(result.records)} records -> {args.out}"
    if scenario.flc_enabled:
        summary += (
            f" | search samples: {result.sample_count},"
            f" converged: {'yes' if result.converged else 'no'}"
        )
    print(summary)
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    result = oracle_sweep(args.speed, args.torque, args.grid, config)
    print("i_ds,p_in")
    excluded = 0
    for point in result.points:
        if point.feasible:
            print(f"{point.i_ds!r},{point.input_power!r}")
        else:
            excluded += 1
    if excluded:
        print(f"# {excluded} grid point(s) infeasible (torque-current limit), excluded")
    print(
        f"minimum: i_ds = {result.best_i_ds:.6g} A,"
        f" p_in = {result.min_input_power:.6g} W"
    )
    return 0


def _cmd_table(args) -> int:
    config = load_config(args.config)
    speed = config.machine.rated_speed if args.speed is None else args.speed
    report = efficiency_table(DEFAULT_LOAD_FRACTIONS, speed, config)
    sys.stdout.write(render_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write_report_csv(report, handle)
        print(f"report CSV -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_table(args)
    except (FluxseekError, ValueError, OSError) as exc:
        print(f"fluxseek: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
