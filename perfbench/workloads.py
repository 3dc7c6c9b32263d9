"""Seeded inputs for the benchmark workloads.

``generate(workload, seed)`` returns a JSON-serialisable spec. ``build(spec)``
turns it into the program's own inputs: a ``DriveConfig`` (loaded from the
shipped file or parsed from generated config text) and a ``Scenario``.

Seed 0 reproduces the shipped inputs exactly. Other seeds vary only what the
acceptance suite claims convergence for: the load torque, in
[0.25, 0.75] x rated at rated speed, and for ``abandon-dense`` the load-step
time and size.

This module imports nothing from fluxseek at import time, so the set-up probe
can start its clock before the program is imported.
"""

from __future__ import annotations

import random

LOAD_FRACTIONS = (0.25, 0.75)  # of rated torque
MIN_STEP_FRACTION = 0.1        # a load step smaller than this is redrawn
# The acceptance suite claims convergence within 12.5 s of rated flux and
# checks the last 1 s of a 14 s run. A load step at or before 2 s leaves the
# 16 s load-step-abandon run that much time after the restart.
STEP_TIME_RANGE = (1.0, 2.0)   # s
ORACLE_GRID = 200              # points, as in the acceptance suite

# SHA-256 of each workload's CSV output at seed 0: the quarter-load-search
# telemetry, the per-step ideal-tracking load-step-abandon telemetry, and
# the part-load report.
PINNED_SHA256 = {
    "search-steady": "8de70a6e68f5d7747b40d340dc4c004b02a417e497db592240be88e3d36578c4",
    "abandon-dense": "16cce460e45c739f5b2f3392b93146f34fd454f1582ffae61d726a0a01c72634",
    "part-load-table": "46402df2133f9031d19602f134036a7c2e3e83dff596d53a883f388c17012d01",
}


def _search_steady(rng: random.Random, seed: int, shipped: dict) -> dict:
    # The paper's core loop: 14 s at one load with search and compensator on.
    # The search runs in about 98% of the steps and the CSV is decimated, so
    # the per-step machine / foc / optimizer / compensator work dominates.
    spec = {"config_text": None, "scenario": "quarter-load-search",
            "load_torque": None, "decimation": None}
    if seed != 0:
        rated = float(shipped["machine"]["rated_torque"])
        torque = round(rng.uniform(*LOAD_FRACTIONS) * rated, 3)
        spec["load_torque"] = [[0.0, torque]]
    return spec


def _abandon_dense(rng: random.Random, seed: int, shipped: dict) -> dict:
    # The same layers used differently: a load step abandons the search and
    # restarts it, ideal current tracking takes the 3-state RK4 branch of
    # machine.step, and per-step telemetry makes CSV writing and record
    # building a large share of the time.
    import yaml

    shipped["machine"]["current_tracking_time_constant"] = 0.0
    spec = {"config_text": yaml.safe_dump(shipped, sort_keys=False),
            "scenario": "load-step-abandon", "load_torque": None, "decimation": 1}
    if seed != 0:
        rated = float(shipped["machine"]["rated_torque"])
        before = after = 0.0
        while abs(after - before) < MIN_STEP_FRACTION * rated:
            before = round(rng.uniform(*LOAD_FRACTIONS) * rated, 3)
            after = round(rng.uniform(*LOAD_FRACTIONS) * rated, 3)
        step_time = round(rng.uniform(*STEP_TIME_RANGE), 3)
        spec["load_torque"] = [[0.0, before], [step_time, after]]
    return spec


def _part_load_table(rng: random.Random, seed: int, shipped: dict) -> dict:
    # What `fluxseek table --out` does: 8 independent simulations, half of
    # them with search and compensator off. The table takes no load input;
    # its load fractions are the program's own DEFAULT_LOAD_FRACTIONS, which
    # already span [0.25, 0.75], so every seed gives the shipped inputs.
    return {"config_text": None, "scenario": None, "load_torque": None, "decimation": None}


GENERATORS = {
    "search-steady": _search_steady,
    "abandon-dense": _abandon_dense,
    "part-load-table": _part_load_table,
}


def generate(workload: str, seed: int) -> dict:
    """The workload's inputs for ``seed``; the same seed gives the same spec."""
    import yaml

    from fluxseek.harness.config import default_config_text

    shipped = yaml.safe_load(default_config_text())
    return GENERATORS[workload](random.Random(seed), seed, shipped)


def build(spec: dict):
    """Load the configuration and build the scenario: the set-up a user of
    the program pays before simulating. Returns ``(config, scenario)``;
    ``scenario`` is None for the part-load table, which builds its own."""
    import dataclasses

    from fluxseek.harness import config as config_module

    if spec["config_text"] is None:
        config = config_module.load_config()
    else:
        config = config_module.parse_config(spec["config_text"], source="<generated>")
    scenario = None
    if spec["scenario"] is not None:
        scenario = config.scenario(spec["scenario"])
        if spec["load_torque"] is not None:
            profile = tuple((float(t), float(v)) for t, v in spec["load_torque"])
            scenario = dataclasses.replace(scenario, load_torque=profile)
    return config, scenario
