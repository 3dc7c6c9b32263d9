"""CLI: subcommand behavior, exit codes, config resolution, output files."""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys

import pytest

from fluxseek.harness.cli import _build_parser, main
from fluxseek.harness.config import ENV_CONFIG_VAR, default_config_text
from fluxseek.harness.runner import CSV_HEADER
from fluxseek.harness.report import REPORT_CSV_HEADER


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_VAR, raising=False)


def test_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "telemetry.csv"
    assert main(["run", "short-demo", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1001  # header + 1 s at 1 ms decimation
    assert capsys.readouterr().out == (
        f"short-demo: 1000 records -> {out} | search samples: 1, converged: no\n")


def test_run_prints_the_search_counters(tmp_path, capsys):
    out = tmp_path / "telemetry.csv"
    assert main(["run", "quarter-load-search", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        f"quarter-load-search: 14000 records -> {out} | search samples: 27, converged: yes\n")


def test_run_per_step_emits_every_step(tmp_path):
    out = tmp_path / "full.csv"
    assert main(["run", "short-demo", "--out", str(out), "--per-step"]) == 0
    assert len(out.read_text().splitlines()) == 10001


def test_run_no_flc_override(tmp_path, capsys):
    out = tmp_path / "noflc.csv"
    assert main(["run", "short-demo", "--out", str(out), "--no-flc"]) == 0
    body = out.read_text().splitlines()[1:]
    assert all(line.endswith(",transient") for line in body)
    assert capsys.readouterr().out == f"short-demo: 1000 records -> {out}\n"  # no search counters


def test_run_unknown_scenario_fails(tmp_path, capsys):
    code = main(["run", "nonexistent", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_run_into_missing_directory_fails(tmp_path, capsys):
    code = main(["run", "short-demo", "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("fluxseek: error:")


def test_env_config_resolution_and_flag_priority(tmp_path, monkeypatch, capsys):
    custom = tmp_path / "custom.yaml"
    custom.write_text(default_config_text().replace("name: short-demo", "name: custom-demo"))
    monkeypatch.setenv(ENV_CONFIG_VAR, str(custom))
    out = tmp_path / "a.csv"
    assert main(["run", "custom-demo", "--out", str(out)]) == 0

    # the explicit flag wins over the environment variable
    broken = tmp_path / "broken.yaml"
    broken.write_text("machine: {}")
    monkeypatch.setenv(ENV_CONFIG_VAR, str(broken))
    out2 = tmp_path / "b.csv"
    assert main(["run", "custom-demo", "--config", str(custom), "--out", str(out2)]) == 0
    capsys.readouterr()


def test_bad_config_reports_diagnostic(tmp_path, capsys):
    broken = tmp_path / "broken.yaml"
    broken.write_text("machine: {}")
    code = main(["run", "short-demo", "--config", str(broken), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "machine" in err


def test_run_with_too_many_steps_fails_with_the_key(tmp_path, capsys):
    demo = "name: short-demo\n    duration: 1.0\n    dt: 1.0e-4"
    huge = tmp_path / "huge.yaml"
    huge.write_text(default_config_text().replace(demo, demo.replace("1.0e-4", "1.0e-12")))
    code = main(["run", "short-demo", "--config", str(huge), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "scenarios[3].dt" in capsys.readouterr().err


def test_sweep_prints_curve_and_minimizer(capsys):
    assert main(["sweep", "--speed", "150", "--torque", "6", "--grid", "50"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "i_ds,p_in"
    assert any(line.startswith("minimum:") for line in lines)
    curve = [
        line for line in lines[1:]
        if "," in line and not line.startswith(("#", "minimum:"))
    ]
    excluded = sum(
        int(line.split()[1]) for line in lines if line.startswith("#")
    )
    assert len(curve) + excluded == 50
    # every curve row is two parseable floats
    for row in curve:
        i_ds, p_in = row.split(",")
        assert float(i_ds) > 0.0 and float(p_in) > 0.0


def test_sweep_marks_infeasible_points(capsys):
    assert main(["sweep", "--speed", "150", "--torque", "18", "--grid", "50"]) == 0
    out = capsys.readouterr().out
    assert "infeasible" in out


@pytest.mark.parametrize(
    "torque, grid, digest",
    [
        ("6", "200", "0584695649a6679a224b08a75b3525f48d21fb03f92c7138fdb153c1f781a576"),
        # infeasible points at the low end of the grid
        ("18", "50", "614b229ae8f574c483b9e0609b55db3d5718c66cdda78d4212bd7930af23bfa5"),
    ],
)
def test_sweep_output_bytes_are_pinned(capsys, torque, grid, digest):
    assert main(["sweep", "--speed", "150", "--torque", torque, "--grid", grid]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sweep_unreachable_point_fails(capsys):
    assert main(["sweep", "--speed", "150", "--torque", "60"]) == 1
    assert "not reachable" in capsys.readouterr().err


def test_sweep_grid_above_the_cap_fails(capsys):
    assert main(["sweep", "--speed", "150", "--torque", "6", "--grid", "100001"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "fluxseek: error: grid_size = 100001 must be in [1, 100000]\n"
    assert captured.out == ""


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_sweep_non_finite_point_fails(capsys, bad):
    assert main(["sweep", f"--speed={bad}", "--torque", "6"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("fluxseek: error: speed must be finite")
    assert captured.out == ""
    assert main(["sweep", "--speed", "150", f"--torque={bad}"]) == 1
    assert capsys.readouterr().err.startswith("fluxseek: error: load_torque must be finite")


def test_sweep_reads_minus_signed_float_literals(capsys):
    assert main(["sweep", "--speed", "150", "--torque=-6e0", "--grid", "5"]) == 0
    joined = capsys.readouterr().out
    assert main(["sweep", "--speed", "150", "--torque", "-6e0", "--grid", "5"]) == 0
    assert capsys.readouterr().out == joined
    assert main(["sweep", "--speed", "-inf", "--torque", "6", "--grid", "5"]) == 1
    assert capsys.readouterr().err.startswith("fluxseek: error: speed must be finite")


@pytest.mark.parametrize(
    "value,speed",
    [("-1e2", -100.0), ("-1E+2", -100.0), ("-.5", -0.5), ("-6", -6.0), ("-inf", -math.inf)],
)
def test_table_speed_reads_minus_signed_float_literals(value, speed):
    assert _build_parser().parse_args(["table", "--speed", value]).speed == speed


def test_table_non_finite_speed_fails(capsys):
    assert main(["table", "--speed", "nan"]) == 1
    assert capsys.readouterr().err == (
        "fluxseek: error: speed_reference profile contains a non-finite entry\n")


def test_usage_errors_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fluxseek", "sweep", "--speed", "150", "--torque", "6", "--grid", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "minimum:" in proc.stdout


@pytest.mark.slow
def test_table_renders_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["table", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "Without efficiency controller" in stdout
    assert "With efficiency controller" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 9  # header + 4 off rows + 4 on rows
    # the whole report, bit for bit: 8 closed-loop runs, 720k steps
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "46402df2133f9031d19602f134036a7c2e3e83dff596d53a883f388c17012d01"
    )


def test_run_flux_source_override(tmp_path):
    out = tmp_path / "pred.csv"
    assert main(
        ["run", "short-demo", "--out", str(out), "--flux-source", "predicted"]
    ) == 0
    assert out.exists()
