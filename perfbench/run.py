"""fluxseek benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search-steady --seed 0 --seconds 35 --trace 0

Run from the root of a checkout. The program is imported from ``./src``
through its public API and driven closed-loop: one caller, one simulation at
a time, no threads. Each run times the workload repeatedly for about
``--seconds`` (at least twice), checks every output, and prints a line of
informational fields and then, as the last line, one JSON result.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; run times are reported relative to a fixed reference kernel
timed beside them (see reference.py). With ``--trace 1`` it holds the per-layer metrics: untraced
and traced runs alternate, and the traced ones wrap the functions the
runner calls (see tracer.py). See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 11         # fresh interpreters per run, after one warm-up
CONFIG_LOADS_TRACED = 5   # in-process config loads timed by the tracer
STEADY_WINDOW_S = 1.0     # trailing telemetry window for steady input power
MAX_GAP_PCT = 2.0         # acceptance criterion 1 tolerance
POWER_BALANCE_RTOL = 1e-9
# simulated statistics: exact for a given seed, reported beside the metrics
UNITS = {"oracle_gap_pct": "%", "samples_to_converge": "count", "energy_saving_pct": "%"}


class HashSink:
    """Stands in for the output file: hashes and counts the UTF-8 bytes
    written, so no disk I/O is timed."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> None:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.size += len(data)


class Rep:
    """One timed run of a workload."""

    def __init__(self, seconds: float, sink: HashSink):
        self.seconds = seconds
        self.sha256 = sink.sha.hexdigest()
        self.csv_bytes = sink.size
        self.failures: list[str] = []
        self.stats: dict = {}


def power_balance_failures(records, label: str) -> list[str]:
    """p_in must equal shaft power plus the four losses on every record."""
    for i, r in enumerate(records):
        expected = (r.torque * r.omega_r + r.loss_stator_copper + r.loss_rotor_copper
                    + r.loss_iron + r.loss_converter)
        if not abs(r.p_in - expected) <= POWER_BALANCE_RTOL * max(1.0, abs(expected)):
            return [f"{label}: record {i} (t={r.time!r}): p_in {r.p_in!r} is not"
                    f" shaft power plus losses {expected!r}"]
    return []


class Job:
    """A workload bound to its generated inputs."""

    def __init__(self, workload: str, seed: int, config, scenario, decimation):
        self.workload = workload
        self.seed = seed
        self.config = config
        self.scenario = scenario
        self.decimation = decimation
        self.steps = None
        self.oracle_points = 0

    def run(self, check: bool = False, between=None) -> Rep:
        """One timed run. ``between`` is called after each simulation,
        outside the timed region."""
        if self.scenario is None:
            rep = self._table(check, between)
        else:
            rep = self._simulate(check, between)
        if check:
            import workloads

            pinned = workloads.PINNED_SHA256[self.workload]
            if self.seed == 0 and rep.sha256 != pinned:
                rep.failures.append(f"seed 0 output SHA-256 {rep.sha256} != pinned {pinned}")
            gap = rep.stats["oracle_gap_pct"]
            if not gap <= MAX_GAP_PCT:
                rep.failures.append(f"steady input power {gap:.4f}% above the oracle minimum")
        return rep

    def _gap_pct(self, p_in: float, speed: float, load: float) -> float:
        import workloads
        from fluxseek.harness import oracle

        sweep = oracle.oracle_sweep(speed, load, workloads.ORACLE_GRID, self.config)
        self.oracle_points += len(sweep.points)
        return 100.0 * (p_in / sweep.min_input_power - 1.0)

    def _simulate(self, check: bool, between) -> Rep:
        from fluxseek.harness import report, runner

        start = time.perf_counter()
        result = runner.simulate(self.scenario, self.config, decimation=self.decimation)
        seconds = time.perf_counter() - start
        if between is not None:
            between()
        start = time.perf_counter()
        sink = HashSink()
        runner.write_csv(result.records, sink)
        seconds += time.perf_counter() - start
        self.steps = round(self.scenario.duration / self.scenario.dt)
        rep = Rep(seconds, sink)
        if check:
            rep.failures += power_balance_failures(result.records, self.scenario.name)
            if not result.converged:
                rep.failures.append("search did not converge")
            p_in, _ = report.steady_window_mean(result.records, STEADY_WINDOW_S)
            rep.stats = {
                "oracle_gap_pct": self._gap_pct(
                    p_in, self.scenario.speed_reference[-1][1], self.scenario.load_torque[-1][1]),
                "samples_to_converge": result.samples_to_convergence,
            }
        return rep

    def _table(self, check: bool, between) -> Rep:
        from fluxseek.harness import report

        original = report.simulate
        steps, failures, untimed_s = [], [], [0.0]

        def wrapped(scenario, config, **kwargs):
            result = original(scenario, config, **kwargs)
            begin = time.perf_counter()
            if check:
                steps.append(round(scenario.duration / scenario.dt))
                failures.extend(power_balance_failures(result.records, scenario.name))
            if between is not None:
                between()
            untimed_s[0] += time.perf_counter() - begin
            return result

        if check or between is not None:
            report.simulate = wrapped
        try:
            start = time.perf_counter()
            table = report.efficiency_table(
                report.DEFAULT_LOAD_FRACTIONS, self.config.machine.rated_speed, self.config)
            sink = HashSink()
            report.write_report_csv(table, sink)
            seconds = time.perf_counter() - start - untimed_s[0]
        finally:
            report.simulate = original
        rep = Rep(seconds, sink)
        if check:
            self.steps = sum(steps)
            rep.failures += failures
            rep.failures += [f"no convergence at load {row.load_torque!r}"
                             for row in table.flc_on if not row.converged]
            gaps = [self._gap_pct(row.input_power, table.speed, row.load_torque)
                    for row in table.flc_on]
            off = min(table.flc_off, key=lambda row: row.load_fraction)
            on = next(row for row in table.flc_on if row.load_fraction == off.load_fraction)
            rep.stats = {
                "oracle_gap_pct": max(gaps),
                "samples_to_converge": max(row.samples_to_convergence or 0 for row in table.flc_on),
                "energy_saving_pct": 100.0 * (1.0 - on.input_power / off.input_power),
            }
        return rep


def import_program() -> None:
    if not (SRC / "fluxseek" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fluxseek sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import fluxseek

    if Path(fluxseek.__file__).resolve().parent != SRC / "fluxseek":
        raise SystemExit(f"perfbench: imported fluxseek from {fluxseek.__file__}, not {SRC}")


def setup_seconds(spec: dict) -> list[float]:
    """Set-up time in fresh interpreters; the first probe (which may compile
    bytecode) is discarded."""
    env = {k: v for k, v in os.environ.items() if k != "FLUXSEEK_CONFIG"}
    payload = json.dumps(spec)
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")], input=payload, env=env,
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0  # ru_maxrss is in KiB on Linux


def attempt(job: Job, reps: list, failures: list[str], check: bool = False, reference=None,
            between=None):
    """Run the job once and compare its output with ``reference`` (by
    default the first run in ``reps``). An exception is a failed run, never
    a dropped one."""
    try:
        rep = job.run(check, between)
    except Exception as exc:  # noqa: BLE001 - any failure of the program is reported
        failures.append(f"run {len(reps) + 1}: {type(exc).__name__}: {exc}")
        reps.append(None)
        return None
    reference = reference or (reps[0] if reps else None)
    if reference is not None and rep.sha256 != reference.sha256:
        rep.failures.append(f"output SHA-256 {rep.sha256} differs from {reference.sha256}")
    failures.extend(f"run {len(reps) + 1}: {f}" for f in rep.failures)
    reps.append(rep)
    return rep


def keep_going(start: float, seconds: float, times: list[float], minimum: int) -> bool:
    if len(times) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(times) <= seconds


def measure_end_to_end(job: Job, spec: dict, seconds: float, failures: list[str]):
    """Time the workload and, between its runs, the reference kernel (see
    reference.py): before the first run, after every simulation and after
    every run. Both are slowed alike by what the host does meanwhile, so the
    mean run time over the mean kernel time cancels the host's drift. Means,
    not medians: a run is a time average over seconds, and so, taken
    together, are the kernel's runs beside it."""
    import reference

    ref_s: list[float] = []
    ref_sha: set[str] = set()

    def run_reference() -> None:
        begin = time.perf_counter()
        ref_sha.add(reference.run())
        ref_s.append(time.perf_counter() - begin)

    reps: list = []
    cycle_s: list[float] = []
    start = time.perf_counter()
    run_reference()
    while not reps or (reps[-1] is not None and keep_going(start, seconds, cycle_s, 2)):
        begin = time.perf_counter()
        attempt(job, reps, failures, check=not reps, between=run_reference)
        run_reference()
        cycle_s.append(time.perf_counter() - begin)
    if len(ref_sha) != 1:
        failures.append(f"reference kernel output changed between runs: {sorted(ref_sha)}")
    done = [r for r in reps if r is not None]
    wall = statistics.median(r.seconds for r in done) if done else time.perf_counter() - start
    metrics = {
        "wall_rel": (statistics.fmean(r.seconds for r in done) / statistics.fmean(ref_s)
                     if done else 0.0),
        "setup_s": statistics.median(setup_seconds(spec)),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "wall_s": {"value": wall, "unit": "s"},
        "wall_s_runs": len(done),
        "step_us": {"value": 1e6 * wall / job.steps if job.steps else None, "unit": "us"},
        "run_seconds": [r.seconds for r in done],
        "reference_s": {"value": statistics.fmean(ref_s), "unit": "s"},
        "reference_runs": len(ref_s),
    }
    return reps, metrics, info


def measure_per_layer(job: Job, spec: dict, seconds: float, failures: list[str]):
    import tracer
    import workloads

    trace = tracer.Tracer()
    trace.calibrate()
    trace.install(tracer.SETUP_LAYERS)
    for _ in range(CONFIG_LOADS_TRACED):
        workloads.build(spec)
    trace.uninstall()

    plain: list = []
    traced: list = []
    start = time.perf_counter()
    trace.install(tracer.CHECK_LAYERS)  # the oracle sweep runs only in the checks
    try:
        attempt(job, plain, failures, check=True)
    finally:
        trace.uninstall()
    while plain[-1] is not None:
        trace.install(tracer.SIM_LAYERS)
        try:
            rep = attempt(job, traced, failures, reference=plain[0])
        finally:
            trace.uninstall()
        if rep is None:
            break
        pairs = [a.seconds + b.seconds for a, b in zip(plain, traced)]
        if not keep_going(start, seconds, pairs, 1):
            break
        attempt(job, plain, failures)

    plain_s = [r.seconds for r in plain if r is not None]
    traced_s = [r.seconds for r in traced if r is not None]
    n = max(1, len(traced_s))

    def per_call(name: str) -> tuple[float, float]:
        layer = trace.layer(name)
        calls = layer.calls
        if name in tracer.SIM_LAYERS:  # per traced run; every run does the same work
            calls = calls // n if calls % n == 0 else calls / n
        self_us = trace.self_ns(layer) / layer.calls / 1e3 if layer.calls else 0.0
        return calls, self_us

    metrics = {}
    for name in ("machine.step", "machine.losses", "foc.speed_pi_step", "foc.make_drive_command",
                 "optimizer.update_mode", "optimizer.advance_sample_timer",
                 "optimizer.search_sample", "fuzzy.efficiency_step", "compensator.output",
                 "compensator.latch", "harness.format_record"):
        metrics[f"{name}.calls"], metrics[f"{name}.self_us"] = per_call(name)
    metrics["optimizer.abandons"] = trace.abandons // n
    metrics["optimizer.clamped_steps"] = trace.clamped_steps // n
    metrics["compensator.resets"] = per_call("compensator.reset")[0]
    simulate = trace.layer("harness.simulate")
    steps = (job.steps or 0) * len(traced_s)
    metrics["harness.simulate.self_us_per_step"] = (
        trace.self_ns(simulate) / steps / 1e3 if steps else 0.0)
    metrics["harness.csv_mb"] = plain[0].csv_bytes / 1e6 if plain[0] else 0.0
    metrics["harness.load_config.self_us"] = per_call("harness.load_config")[1]
    metrics["harness.oracle_sweep.points"] = job.oracle_points
    metrics["harness.oracle_sweep.self_us"] = per_call("harness.oracle_sweep")[1]
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
        if plain_s and traced_s else 0.0)

    absent = sorted(name for name, layer in trace.layers.items() if not layer.present)
    info = {
        "traced_runs": len(traced_s),
        "untraced_runs": len(plain_s),
        "traced_wall_s": statistics.median(traced_s) if traced_s else None,
        "untraced_wall_s": statistics.median(plain_s) if plain_s else None,
        "absent_layers": absent,
        "absent_targets": trace.absent_targets,
        "unobservable_counts": sorted(trace.unobservable),
        # what the calibrated wrapper cost leaves over shows as the excess of
        # this sum over untraced_wall_s
        "traced_self_sum_s": sum(trace.self_ns(trace.layer(name))
                                 for name in tracer.SIM_LAYERS) / n / 1e9,
        "wrapper_cost_ns": {"inside": trace.inside_ns, "outside": trace.outside_ns},
    }
    return plain + traced, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(whys)}")
    declared = bench["per_layer" if args.trace else "end_to_end"]

    import_program()
    os.environ.pop("FLUXSEEK_CONFIG", None)  # always the shipped configuration
    import workloads

    spec = workloads.generate(args.workload, args.seed)
    config, scenario = workloads.build(spec)
    job = Job(args.workload, args.seed, config, scenario, spec["decimation"])

    failures: list[str] = []
    measure = measure_per_layer if args.trace else measure_end_to_end
    reps, metrics, extra = measure(job, spec, args.seconds, failures)

    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ names)} do not match"
                         " BENCHMARK.json")
    failed = sum(1 for r in reps if r is None or r.failures)
    first = reps[0]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "why": whys[args.workload],
        "inputs": {**spec, "config_text": "generated" if spec["config_text"] else "shipped"},
        "load": "closed loop: one caller, one simulation at a time, no threads",
        "waits": "none: nothing in the program waits on a queue or a lock",
        "error_rate": {"value": failed / len(reps), "unit": "ratio"},
        **{name: {"value": value, "unit": UNITS[name]}
           for name, value in (first.stats if first else {}).items()},
        "output_sha256": first.sha256 if first else None,
        "csv_bytes": first.csv_bytes if first else None,
        "steps_per_run": job.steps,
        "src_py_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **extra,
        "failures": failures,
    }
    print(json.dumps({"info": info}))
    for failure in failures:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
