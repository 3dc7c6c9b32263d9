"""Scenario definitions: piecewise-constant command profiles over a fixed
simulation horizon. Fully deterministic, no randomness anywhere.

The only module that maps a profile onto integration steps: a ``Scenario``
computes ``steps`` and ``commands`` (the step each command takes effect on)
once, when built or replaced, ``row_times`` gives each row's time, and
``sample_steps`` the steps of a search's power samples. Each field's kind and
bound are written on it; a profile's entries are kept as floats."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat

from ..machine import check_bounds

Profile = tuple[tuple[float, float], ...]

# relative: a duration within this of a whole number of steps runs that number
STEP_TOLERANCE = 1e-9
MAX_STEPS = 10**7  # a per-step run's rows: at most 400 MB lagged, 240 MB ideal


def _validate_profile(profile: Profile, what: str) -> Profile:
    """``profile``, each entry a float, unless it breaks a profile's rules."""
    if not profile:
        raise ValueError(f"{what} profile must have at least one breakpoint")
    if any(type(x) not in (int, float) for pair in profile for x in pair):  # a bool is no number
        raise ValueError(f"{what} profile entries must be numbers")
    if profile[0][0] != 0.0:
        raise ValueError(f"{what} profile must start at t = 0")
    last = -math.inf
    for t, value in profile:
        if not (math.isfinite(t) and math.isfinite(value)):
            raise ValueError(f"{what} profile contains a non-finite entry")
        if t <= last:
            raise ValueError(f"{what} profile breakpoints must be strictly increasing")
        last = t
    return tuple((float(t), float(value)) for t, value in profile)


@dataclass(frozen=True)
class Scenario:
    name: str = field(metadata={"bound": ("non-empty", bool)})
    # s; zero is allowed and produces an empty record stream
    duration: float = field(metadata={"bound": ("finite and >= 0", lambda v: 0.0 <= v < math.inf)})
    dt: float = field(metadata={"bound": ("finite and > 0", lambda v: 0.0 < v < math.inf)})  # s
    speed_reference: Profile  # (time s, rad/s) breakpoints
    load_torque: Profile      # (time s, N m) breakpoints
    flc_enabled: bool = True
    compensator_enabled: bool = True
    steps: int = field(init=False, repr=False, compare=False)  # duration / dt, whole
    commands: tuple[tuple, ...] = field(init=False, repr=False, compare=False)  # _command_schedule

    def __post_init__(self) -> None:
        check_bounds(self)
        for what in ("speed_reference", "load_torque"):  # the dataclass is frozen
            object.__setattr__(self, what, _validate_profile(getattr(self, what), what))
        steps = self.duration / self.dt
        if steps > MAX_STEPS:
            raise ValueError(f"dt = {self.dt!r} s: {steps!r} steps must be below or at {MAX_STEPS}")
        if abs(steps - round(steps)) > STEP_TOLERANCE * steps:
            raise ValueError(f"duration = {self.duration!r} s must be a whole number of"
                             f" dt = {self.dt!r} s steps, not {steps!r}")
        object.__setattr__(self, "steps", round(steps))
        object.__setattr__(self, "commands", _command_schedule(self))

    def row_times(self, decimation: int):
        """Each ``decimation``-th step's end time: ``dt`` summed step by step."""
        return islice(accumulate(repeat(self.dt, self.steps)), decimation - 1, None, decimation)

    def sample_steps(self, period: float, entry: int):
        """The power sample steps of a search entered on step ``entry``: from
        it on, each step adds ``dt`` to a timer, and a sample falls where it
        reaches ``period``, which is then taken off. 5000 steps of 1e-4 s sum
        to 0.49999999999996125: a 0.5 s period samples on the 5001st step."""
        dt = self.dt
        timer = 0.0
        for k in range(entry, self.steps):
            timer += dt
            if timer >= period:
                timer -= period
                yield k


def _breakpoint_step(t_b: float, dt: float, n_steps: int) -> int:
    """The first step k < n_steps with ``k * dt >= t_b``, else n_steps; exact,
    as ``k * dt`` is monotone in k."""
    return bisect_left(range(n_steps), t_b, key=lambda k: k * dt)


def _command_schedule(scenario: Scenario) -> tuple[tuple, ...]:
    """(k, omega_ref, t_load): the commands from step k on, for k = 0 and each
    later step where one changes, then (scenario.steps, None, None). Of
    breakpoints on one step the last wins; those past the end never start."""
    dt, n_steps = scenario.dt, scenario.steps
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
    return tuple(schedule)


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
