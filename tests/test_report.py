"""Efficiency report: structure, rendering, CSV schema, and the
non-convergence flag."""

from __future__ import annotations

import dataclasses
import io
import math
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxseek.errors import ConfigError, FluxseekError
from fluxseek.harness import report
from fluxseek.harness.report import (
    DEFAULT_LOAD_FRACTIONS,
    REPORT_CSV_HEADER,
    efficiency_table,
    render_text,
    steady_window_mean,
    write_report_csv,
)
from fluxseek.harness.runner import simulate
from fluxseek.harness.scenario import Scenario, constant_scenario

from conftest import crafted_records


@pytest.fixture(scope="module")
def small_report(config):
    # One load fraction with a short search run: structure only, trends are
    # covered by the acceptance suite on full-length runs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "ON_DURATION", 2.0)
        return efficiency_table((0.25,), config.machine.rated_speed, config)


def test_report_row_structure(small_report):
    assert len(small_report.flc_off) == 1
    assert len(small_report.flc_on) == 1
    row = small_report.flc_off[0]
    assert row.load_torque == pytest.approx(6.0)
    assert row.input_power > row.output_power > 0.0
    assert 0.0 < row.efficiency < 1.0
    assert row.converged and row.samples_to_convergence is None


def test_short_run_flags_non_convergence(small_report):
    # Two seconds is not enough for the search to converge; the row must be
    # flagged rather than silently truncated.
    row = small_report.flc_on[0]
    assert not row.converged
    assert row.samples_to_convergence is None
    assert row.input_power > 0.0


def test_render_text_layout(small_report):
    text = render_text(small_report)
    assert "Without efficiency controller" in text
    assert "With efficiency controller" in text
    assert "load torque (N m)" in text
    assert "efficiency (%)" in text
    assert " NO" in text  # the non-converged flag is visible


def test_report_csv_schema(small_report):
    buffer = io.StringIO()
    write_report_csv(small_report, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == 3  # header + one off row + one on row
    assert lines[1].startswith("flc_off,")
    assert lines[2].startswith("flc_on,")
    assert lines[2].split(",")[6] == "false"


def test_steady_window_mean_requires_records():
    with pytest.raises(FluxseekError):
        steady_window_mean((), 1.0)


@pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
def test_steady_window_must_be_finite_and_positive(config, window):
    records = simulate(constant_scenario("w", 0.01, 1e-4, 150.0, 6.0), config).records
    with pytest.raises(FluxseekError, match=rf"window .*{window!r}"):
        steady_window_mean(records, window)


def test_table_runs_each_pair_through_report_simulate(config, monkeypatch):
    # The table's runs go through the module's ``simulate``, the hook a caller
    # can wrap to check each of them: at each load fraction the rated-flux run
    # first, then the search run, at the fixed durations and step.
    short = simulate(constant_scenario("short", 0.01, 1e-4, 150.0, 6.0), config)
    calls = []

    def recorder(scenario, drive_config, **kwargs):
        calls.append((scenario, drive_config, kwargs))
        return short

    monkeypatch.setattr(report, "simulate", recorder)
    fractions = (0.25, 0.5)
    efficiency_table(fractions, 150.0, config)
    assert len(calls) == 2 * len(fractions)
    for i, (scenario, drive_config, kwargs) in enumerate(calls):
        search = i % 2 == 1
        torque = fractions[i // 2] * config.machine.rated_torque
        assert drive_config is config and kwargs == {}
        assert scenario.duration == (report.ON_DURATION if search else report.OFF_DURATION)
        assert scenario.dt == report.DT
        assert scenario.flc_enabled is search and scenario.compensator_enabled is search
        assert scenario.speed_reference == ((0.0, 150.0),)
        assert scenario.load_torque == ((0.0, torque),)


def test_table_rejects_a_search_speed_before_any_run(config, monkeypatch):
    # P_b is negative at -100 rad/s: the table fails before its first run
    calls = []

    def counting(scenario, drive_config, **kwargs):
        calls.append(scenario.name)
        return simulate(scenario, drive_config, **kwargs)

    monkeypatch.setattr(report, "simulate", counting)
    with pytest.raises(ConfigError, match=r"^speed_reference: .*input gain P_b = -25 "):
        efficiency_table(DEFAULT_LOAD_FRACTIONS, -100.0, config)
    assert calls == []


def test_paired_runs_hold_no_earlier_pair(config, monkeypatch):
    # A consumer that drops a pair, as efficiency_table does, frees it before
    # the next pair is simulated: the generator keeps no reference to it.
    refs, alive = [], []

    def tracked(scenario, drive_config):
        if len(refs) == 2:  # the second pair's first run
            alive.extend(ref() is not None for ref in refs)
        result = simulate(dataclasses.replace(scenario, duration=0.01), drive_config)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(report, "simulate", tracked)
    for _, _, off, on in report.paired_runs((0.25, 0.5), 150.0, config):
        del off, on
    assert len(refs) == 4 and alive == [False, False]


@st.composite
def window_cases(draw):
    """A short run with a load step, a decimation, and a window: anywhere,
    or exactly reaching back to a row's time."""
    dt = draw(st.sampled_from((1e-4, 5e-4, 1e-3)))
    duration = draw(st.sampled_from((0.05, 0.2, 0.5)))
    loads = ((0.0, draw(st.sampled_from((0.0, 6.0, -6.0)))),
             (duration / 2, draw(st.sampled_from((6.0, 12.0)))))
    scenario = Scenario("window", duration, dt, ((0.0, 150.0),), loads,
                        flc_enabled=draw(st.booleans()), compensator_enabled=False)
    return scenario, draw(st.sampled_from((1, 3, 10))), draw(st.one_of(
        st.floats(1e-6, 2 * duration), st.integers(0, 40),
    ))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=window_cases())
def test_steady_window_mean_matches_per_record_mean(config, case):
    # The columns' bisect and sums give the bits of the mean over records.
    scenario, decimation, window = case
    records = simulate(scenario, config, decimation=decimation).records
    rows = tuple(records)
    t_end = rows[-1].time
    if isinstance(window, int):  # reach back to a row's time exactly
        window = t_end - rows[max(0, len(rows) - 2 - window)].time
    tail = [r for r in rows if r.time > t_end - window]
    expected = (_left_sum(r.p_in for r in tail) / len(tail),
                _left_sum(r.p_out for r in tail) / len(tail))
    assert repr(steady_window_mean(records, window)) == repr(expected)


def _left_sum(values) -> float:
    """Floats added left to right, as Python's sum() did before 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def test_steady_window_mean_adds_left_to_right(config):
    # p_out = load * speed: 1e16, 1.0 and -1e16 W. Added left to right the
    # 1.0 is lost below 1e16's spacing, as in the pinned report; the builtin
    # sum() of Python 3.12 and later compensates and keeps it.
    loads = (1e16, 1.0, -1e16)
    records = crafted_records(config, *((150.0, 1.0, 5.0, 3.0, 5.0, 3.0, 0.7, load)
                                        for load in loads))
    assert _left_sum(loads) == 0.0
    assert steady_window_mean(records, 3.0)[1] == 0.0  # at 1, 2 and 3 s, all in the window


def test_steady_window_mean_copies_no_column(config):
    # A per-step load-step-abandon run keeps 160000 rows: a copy of their
    # times, to bisect them, would take 1.28 MB.
    records = simulate(config.scenario("load-step-abandon"), config, decimation=1).records
    tracemalloc.start()
    try:
        steady_window_mean(records, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
