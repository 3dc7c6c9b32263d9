"""Feedforward pulsating-torque compensation.

Each excitation decrement makes rotor flux decay exponentially, which would
dent the developed torque until the speed loop catches up. Holding the
flux-current product constant cancels the dent: for anchors (Psi0, iqs0)
latched at the step instant, the boost

    delta_iqs(t) = -delta_psi(t) * iqs0 / (Psi0 + delta_psi(t))

keeps (Psi0 + delta_psi) * (iqs0 + delta_iqs) == Psi0 * iqs0 exactly. The
boost is additive feedforward on top of the speed loop, which keeps running
and trims any residual. Across search samples the settled boost is folded
into a running base (the per-sample fold is exactly the discrete step form),
so the total command stays continuous at every re-latch.
"""

from __future__ import annotations

import math

from .errors import FluxFloorError
from .machine import MachineParams

FLUX_SOURCES = ("measured", "predicted")
COMPENSATION_MODES = ("continuous", "discrete")


def discrete_compensation(psi_prev: float, psi_now: float, iqs_prev: float) -> float:
    """Per-sample boost step (psi_prev - psi_now) / psi_now * iqs_prev."""
    if psi_now <= 0.0 or not math.isfinite(psi_now):
        raise FluxFloorError(f"flux {psi_now:.6g} at/below zero")
    return (psi_prev - psi_now) / psi_now * iqs_prev


def predicted_flux_trajectory(
    params: MachineParams, psi0: float, i_ds_new: float, t: float
) -> float:
    """Closed-form flux decay toward L_m * i_ds_new from psi0, t seconds in,
    written from psi0 so that it returns psi0 exactly at t = 0."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    target = params.magnetizing_inductance * i_ds_new
    return psi0 + (target - psi0) * -math.expm1(-t / params.rotor_time_constant)


class TorqueCompensator:
    """Compensation bookkeeping for one search: the runner builds one at the
    search's entry and drops it at the abandon.

    ``latch`` is called at every search sample, after the new excitation
    command is known; ``output`` is called every integration step of the
    search. In predicted mode the anchors advance through the closed-form
    trajectory instead of the measured flux, demonstrating the sensorless
    variant. ``DriveConfig`` checks ``flux_source`` and ``mode``.

    The anchors are plain floats: the flux ``psi_at_step`` and the total
    torque-current command ``iqs_at_step`` at the latest latch. ``output``
    returns ``base`` alone until the first latch and in discrete mode.
    """

    __slots__ = (
        "params", "time_varying", "_predicted", "_discrete", "_latched",
        "base", "psi_at_step", "iqs_at_step", "latch_time", "target_i_ds",
    )

    def __init__(self, params: MachineParams, flux_source: str = "measured",
                 mode: str = "continuous"):
        self.params = params
        self._predicted = flux_source == "predicted"
        self._discrete = mode == "discrete"
        # True when ``output`` depends on ``t`` between latches
        self.time_varying = self._predicted and not self._discrete
        self._latched = False  # the anchors are set, and read, from the first latch on
        self.base = 0.0

    def latch(self, psi_measured: float, pi_output: float, new_i_ds_cmd: float, t: float) -> None:
        """Re-anchor at a search sample: fold the settled boost into the base,
        then latch the present flux and total torque command."""
        psi_now = psi_measured
        if self._predicted and self._latched:
            psi_now = predicted_flux_trajectory(
                self.params, self.psi_at_step, self.target_i_ds, t - self.latch_time
            )
        if psi_now < self.params.flux_floor:
            raise FluxFloorError(
                f"cannot latch compensator below flux floor ({psi_now:.6g} Wb)"
            )
        if self._latched:
            self.base += discrete_compensation(self.psi_at_step, psi_now, self.iqs_at_step)
        self.psi_at_step = psi_now
        self.iqs_at_step = pi_output + self.base
        self.latch_time = t
        self.target_i_ds = new_i_ds_cmd
        self._latched = True

    def output(self, psi_measured: float, t: float) -> float:
        """Current boost in amperes; zero until the first latch."""
        if self._discrete or not self._latched:
            return self.base
        psi0 = self.psi_at_step
        if self._predicted:
            psi_measured = predicted_flux_trajectory(
                self.params, psi0, self.target_i_ds, t - self.latch_time
            )
        delta_psi = psi_measured - psi0
        denom = psi0 + delta_psi
        if not 0.0 < denom < math.inf:  # NaN fails both
            raise FluxFloorError(f"compensation denominator {denom:.6g} at/below zero")
        return self.base + -delta_psi * self.iqs_at_step / denom
