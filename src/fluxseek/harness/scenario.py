"""Scenario definitions: piecewise-constant command profiles over a fixed
simulation horizon. Fully deterministic, no randomness anywhere.

The only module that maps a profile onto integration steps: a ``Scenario``
computes ``steps`` and ``commands`` (the step each command takes effect on)
once, when built or replaced, and ``row_times`` gives each row's time."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat

Profile = tuple[tuple[float, float], ...]

# relative: a duration within this of a whole number of steps runs that number
STEP_TOLERANCE = 1e-9
MAX_STEPS = 10**7  # a per-step run's rows: at most 400 MB lagged, 240 MB ideal


def _validate_profile(profile: Profile, what: str) -> None:
    if not profile:
        raise ValueError(f"{what} profile must have at least one breakpoint")
    if profile[0][0] != 0.0:
        raise ValueError(f"{what} profile must start at t = 0")
    last = -math.inf
    for t, value in profile:
        if not (math.isfinite(t) and math.isfinite(value)):
            raise ValueError(f"{what} profile contains a non-finite entry")
        if t <= last:
            raise ValueError(f"{what} profile breakpoints must be strictly increasing")
        last = t


@dataclass(frozen=True)
class Scenario:
    name: str
    duration: float  # s; zero is allowed and produces an empty record stream
    dt: float        # s
    speed_reference: Profile  # (time s, rad/s) breakpoints
    load_torque: Profile      # (time s, N m) breakpoints
    flc_enabled: bool = True
    compensator_enabled: bool = True
    steps: int = field(init=False, repr=False, compare=False)  # duration / dt, whole
    commands: list[tuple] = field(init=False, repr=False, compare=False)  # _command_schedule

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not 0.0 <= self.duration < math.inf:  # NaN fails both
            raise ValueError(f"duration must be finite and >= 0, got {self.duration!r}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {self.dt!r}")
        _validate_profile(self.speed_reference, "speed_reference")
        _validate_profile(self.load_torque, "load_torque")
        steps = self.duration / self.dt
        if steps > MAX_STEPS:
            raise ValueError(f"dt = {self.dt!r} s: {steps!r} steps must be below or at {MAX_STEPS}")
        if abs(steps - round(steps)) > STEP_TOLERANCE * steps:
            raise ValueError(f"duration = {self.duration!r} s must be a whole number of"
                             f" dt = {self.dt!r} s steps, not {steps!r}")
        object.__setattr__(self, "steps", round(steps))  # the dataclass is frozen
        object.__setattr__(self, "commands", _command_schedule(self, self.steps))

    def row_times(self, decimation: int):
        """Each ``decimation``-th step's end time: ``dt`` summed step by step."""
        return islice(accumulate(repeat(self.dt, self.steps)), decimation - 1, None, decimation)


def _breakpoint_step(t_b: float, dt: float, n_steps: int) -> int:
    """The first step k < n_steps with ``k * dt >= t_b``, else n_steps; exact,
    as ``k * dt`` is monotone in k."""
    return bisect_left(range(n_steps), t_b, key=lambda k: k * dt)


def _command_schedule(scenario: Scenario, n_steps: int) -> list[tuple]:
    """(k, omega_ref, t_load): the commands from step k on, for k = 0 and each
    later step where one changes, then (n_steps, None, None). Of breakpoints on
    one step the last wins; those past the end never start."""
    dt = scenario.dt
    ref_at = {_breakpoint_step(t, dt, n_steps): v for t, v in scenario.speed_reference[1:]}
    load_at = {_breakpoint_step(t, dt, n_steps): v for t, v in scenario.load_torque[1:]}
    omega_ref = scenario.speed_reference[0][1]
    t_load = scenario.load_torque[0][1]
    schedule = [(0, omega_ref, t_load)]
    for k in sorted((ref_at.keys() | load_at.keys()) - {n_steps}):
        omega_ref = ref_at.get(k, omega_ref)
        t_load = load_at.get(k, t_load)
        schedule.append((k, omega_ref, t_load))
    schedule.append((n_steps, None, None))
    return schedule


def constant_scenario(
    name: str,
    duration: float,
    dt: float,
    speed: float,
    load_torque: float,
    flc_enabled: bool = True,
    compensator_enabled: bool = True,
) -> Scenario:
    """Single-operating-point scenario, the workhorse of the report runs."""
    return Scenario(
        name=name,
        duration=duration,
        dt=dt,
        speed_reference=((0.0, speed),),
        load_torque=((0.0, load_torque),),
        flc_enabled=flc_enabled,
        compensator_enabled=compensator_enabled,
    )
