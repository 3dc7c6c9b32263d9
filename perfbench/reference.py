"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed at which the same Python code runs drifts by
15-40% over minutes, so raw run times of one commit spread wider than any
useful bound. run.py times this kernel beside a workload (after every
simulation and after every run) and reports the workload's mean run time as
a multiple of the kernel's mean time. The drift cancels in the ratio.

The kernel does the same kind of work as the simulator, so the host's state
slows both alike: a frozen-dataclass state that is validated and replaced on
every step, an RK4 integrator, a clamped PI loop, one record object per step,
and CSV rows formatted from float reprs and hashed. It never imports
fluxseek, and it must not change: a change here changes every relative time
the benchmark reports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

STEPS = 60_000
DT = 1e-4


@dataclass(frozen=True)
class _State:
    position: float
    velocity: float
    time: float

    def __post_init__(self) -> None:
        for name in ("position", "velocity", "time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name}")


@dataclass(frozen=True)
class _Loop:
    kp: float
    ki: float
    integrator: float
    limit: float


@dataclass(frozen=True)
class _Row:
    time: float
    position: float
    velocity: float
    force: float
    power: float


class _Oscillator:
    def __init__(self, stiffness: float, damping: float):
        self.stiffness = stiffness
        self.damping = damping

    def accel(self, x: float, v: float, force: float) -> float:
        return force - self.stiffness * x - self.damping * v

    def step(self, s: _State, force: float, dt: float) -> _State:
        a = self.accel
        k1x, k1v = s.velocity, a(s.position, s.velocity, force)
        x2, v2 = s.position + 0.5 * dt * k1x, s.velocity + 0.5 * dt * k1v
        k2x, k2v = v2, a(x2, v2, force)
        x3, v3 = s.position + 0.5 * dt * k2x, s.velocity + 0.5 * dt * k2v
        k3x, k3v = v3, a(x3, v3, force)
        x4, v4 = s.position + dt * k3x, s.velocity + dt * k3v
        k4x, k4v = v4, a(x4, v4, force)
        return replace(
            s,
            position=s.position + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0,
            velocity=s.velocity + dt * (k1v + 2.0 * k2v + 2.0 * k3v + k4v) / 6.0,
            time=s.time + dt,
        )


def _pi(loop: _Loop, error: float, dt: float) -> tuple[_Loop, float]:
    integrator = loop.integrator + loop.ki * error * dt
    out = loop.kp * error + integrator
    if abs(out) > loop.limit:
        out = math.copysign(loop.limit, out)
        integrator = loop.integrator  # hold the integrator while saturated
    return replace(loop, integrator=integrator), out


def run() -> str:
    """Run the kernel once; returns the SHA-256 of the CSV text it writes."""
    plant = _Oscillator(40.0, 0.7)
    loop = _Loop(kp=30.0, ki=200.0, integrator=0.0, limit=50.0)
    state = _State(0.0, 0.0, 0.0)
    sha = hashlib.sha256()
    for k in range(STEPS):
        target = 1.0 if k < STEPS // 2 else 0.5
        loop, force = _pi(loop, target - state.position, DT)
        state = plant.step(state, force, DT)
        row = _Row(state.time, state.position, state.velocity, force, force * state.velocity)
        if k % 2 == 0:
            sha.update(f"{row.time!r},{row.position!r},{row.velocity!r},{row.force!r},"
                       f"{row.power!r}\n".encode())
    return sha.hexdigest()
