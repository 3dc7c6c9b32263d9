"""Scenario definitions: piecewise-constant command profiles over a fixed
simulation horizon. Fully deterministic, no randomness anywhere."""

from __future__ import annotations

import math
from dataclasses import dataclass

Profile = tuple[tuple[float, float], ...]


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

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.duration < 0.0:
            raise ValueError("duration must be >= 0")
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        _validate_profile(self.speed_reference, "speed_reference")
        _validate_profile(self.load_torque, "load_torque")


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
