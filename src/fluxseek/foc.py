"""Indirect field-oriented control layer: the discrete PI speed loop.

The loop's gains and torque-current limit are validated where they enter
(``parse_config`` and ``MachineParams``); the excitation command and the
current limiting live in the closed loop of ``harness.runner``.
"""

from __future__ import annotations


def speed_pi_step(
    integrator: float, error: float, kp: float, ki: float, limit: float, dt: float
) -> tuple[float, float]:
    """One PI update on the speed error; returns the new integrator and the
    torque-current command.

    The integrator already carries the ki factor (amperes). Conditional
    anti-windup: the integrator is frozen while the unsaturated output
    exceeds the limit in the error's own direction, and is additionally
    clamped to +/- limit.
    """
    unsaturated = kp * error + integrator
    if unsaturated > limit:
        output = limit
        saturated_same_direction = error > 0.0
    elif unsaturated < -limit:
        output = -limit
        saturated_same_direction = error < 0.0
    else:
        output = unsaturated
        saturated_same_direction = False
    if not saturated_same_direction:
        integrator = integrator + ki * error * dt
        if integrator > limit:
            integrator = limit
        elif integrator < -limit:
            integrator = -limit
    return integrator, output
