"""Configuration, scenario execution, telemetry, the brute-force sweep, the
part-load efficiency report, and the CLI."""

from .config import ENV_CONFIG_VAR, DriveConfig, default_config_text, load_config, parse_config
from .oracle import OraclePoint, OracleSweepResult, oracle_sweep, steady_state_point
from .report import (
    DEFAULT_LOAD_FRACTIONS,
    EfficiencyReport,
    EfficiencyRow,
    efficiency_table,
    render_text,
    steady_window_mean,
    write_report_csv,
)
from .runner import (
    CSV_HEADER,
    SimulationResult,
    TelemetryRecord,
    csv_bytes,
    simulate,
    write_csv,
)
from .scenario import Scenario, constant_scenario

__all__ = [
    "CSV_HEADER",
    "DEFAULT_LOAD_FRACTIONS",
    "DriveConfig",
    "EfficiencyReport",
    "EfficiencyRow",
    "ENV_CONFIG_VAR",
    "OraclePoint",
    "OracleSweepResult",
    "Scenario",
    "SimulationResult",
    "TelemetryRecord",
    "constant_scenario",
    "csv_bytes",
    "default_config_text",
    "efficiency_table",
    "load_config",
    "oracle_sweep",
    "parse_config",
    "render_text",
    "simulate",
    "steady_state_point",
    "steady_window_mean",
    "write_csv",
    "write_report_csv",
]
