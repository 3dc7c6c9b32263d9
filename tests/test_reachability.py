"""Reachability: every function and method under ``src/`` runs on some path
a user can take through the CLI. ``cli.main`` runs under ``trace.Trace``
on each shipped scenario, each ``run`` flag, ``sweep``, ``table --out``, a
config that fails to load and a run that diverges; a function none of them
reaches is code kept for no one."""

from __future__ import annotations

import inspect
import re
import trace
import types
from pathlib import Path

from fluxseek.harness import cli, report
from fluxseek.harness.config import ENV_CONFIG_VAR, default_config_text

PACKAGE = Path(cli.__file__).parents[1]  # the fluxseek/ directory imported

# Functions no CLI path calls, each with the reason it stays.
ALLOWED = {
    # perfbench iterates records, and the tests read them through conftest's
    # rows_of; the program reads state tuples from PackedRecords.rows
    "fluxseek/harness/runner.py:PackedRecords.__iter__",
    "fluxseek/harness/runner.py:PackedRecords._record",
    # import-time factories: they build the YAML loader and the schema tables
    # when config.py is imported, before any path runs
    "fluxseek/harness/config.py:_with_yaml12_floats",
    "fluxseek/harness/config.py:_section",
    "fluxseek/harness/config.py:_entries",
    "fluxseek/harness/config.py:_one_of",
}
_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


class _QualnameTrace(trace.Trace):
    """``trace.Trace`` naming each called function by its qualified name,
    which also names properties and nested functions."""

    def file_module_function_of(self, frame):
        code = frame.f_code
        return code.co_filename, code.co_firstlineno, code.co_qualname


def _functions(code: types.CodeType):
    """The functions, methods and lambdas compiled into ``code``, at any
    depth: code objects that are neither class bodies nor comprehensions."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in _COMPREHENSIONS:
                yield const
            yield from _functions(const)


def _cli_paths(tmp_path, monkeypatch) -> list[list[str]]:
    """The argument lists of the paths: the shipped scenarios at 1 s, plus a
    scenario whose 1e307 N m load makes the first step diverge; ``sweep``
    reads the packaged default."""
    monkeypatch.delenv(ENV_CONFIG_VAR, raising=False)
    text = re.sub(r"(?m)^    duration: .*$", "    duration: 1.0", default_config_text())
    text += (
        "\n  - name: diverge\n    duration: 1.0\n    dt: 1.0e-4\n"
        "    speed_reference: [[0.0, 150.0]]\n    load_torque: [[0.0, 1.0e307]]\n"
        "    flc_enabled: false\n"
    )
    short = tmp_path / "short.yaml"
    short.write_text(text)
    broken = tmp_path / "broken.yaml"
    broken.write_text(default_config_text().replace("pole_pairs: 2", "pole_pairs: two"))
    # long enough for the search's first fuzzy step, as the full table takes many
    monkeypatch.setattr(report, "OFF_DURATION", 1.5)
    monkeypatch.setattr(report, "ON_DURATION", 2.0)
    out = str(tmp_path / "out.csv")

    def run(config, *args):
        return ["run", "--config", str(config), "--out", out, *args]

    return [
        *(run(short, name) for name in (
            "quarter-load-search", "load-step-abandon", "rated-flux-baseline", "short-demo")),
        *(run(short, "short-demo", flag) for flag in ("--per-step", "--no-flc", "--no-comp")),
        run(short, "short-demo", "--flux-source", "predicted"),
        ["sweep", "--speed", "150", "--torque", "6"],
        ["table", "--config", str(short), "--out", out],
        run(broken, "short-demo"),
        run(short, "diverge"),
    ]


def test_every_src_function_is_reached_from_the_cli(tmp_path, monkeypatch, capsys):
    tracer = _QualnameTrace(count=0, trace=0, countfuncs=1)
    codes = [tracer.runfunc(cli.main, argv) for argv in _cli_paths(tmp_path, monkeypatch)]
    err = capsys.readouterr().err
    assert codes == [0] * 10 + [1, 1]
    assert "machine.pole_pairs: expected an integer" in err and "error: step 0: " in err
    reached = set(tracer.results().calledfuncs)
    missed = set()
    for path in PACKAGE.rglob("*.py"):
        # compiled under the name the imported modules' code carries
        module = compile(path.read_text(), str(path), "exec")
        missed.update(
            f"{path.relative_to(PACKAGE.parent).as_posix()}:{code.co_qualname}"
            for code in _functions(module)
            if (code.co_filename, code.co_firstlineno, code.co_qualname) not in reached
        )
    assert sorted(missed) == sorted(ALLOWED)
