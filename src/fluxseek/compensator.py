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
from dataclasses import dataclass

from .errors import FluxFloorError
from .machine import MachineParams

FLUX_SOURCES = ("measured", "predicted")
COMPENSATION_MODES = ("continuous", "discrete")


@dataclass
class CompensatorState:
    """Anchors latched at the most recent excitation step."""

    psi_at_step: float   # Wb, Psi_dr(0)
    iqs_at_step: float   # A, total torque-current command at the step


def continuous_compensation(state: CompensatorState, delta_psi: float) -> float:
    """Torque-current boost for a flux excursion delta_psi from the anchor."""
    denom = state.psi_at_step + delta_psi
    if denom <= 0.0 or not math.isfinite(denom):
        raise FluxFloorError(f"compensation denominator {denom:.6g} at/below zero")
    return -delta_psi * state.iqs_at_step / denom


def discrete_compensation(psi_prev: float, psi_now: float, iqs_prev: float) -> float:
    """Per-sample boost step (psi_prev - psi_now) / psi_now * iqs_prev."""
    if psi_now <= 0.0 or not math.isfinite(psi_now):
        raise FluxFloorError(f"flux {psi_now:.6g} at/below zero")
    return (psi_prev - psi_now) / psi_now * iqs_prev


def predicted_flux_trajectory(
    params: MachineParams, psi0: float, i_ds_new: float, t: float
) -> float:
    """Closed-form flux decay toward L_m * i_ds_new from psi0, t seconds in."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    target = params.magnetizing_inductance * i_ds_new
    return target + (psi0 - target) * math.exp(-t / params.rotor_time_constant)


class TorqueCompensator:
    """Loop-owned compensation bookkeeping for one simulated drive.

    ``latch`` is called at every search sample, after the new excitation
    command is known; ``output`` is called every integration step while the
    search is active. In predicted mode the anchors advance through the
    closed-form trajectory instead of the measured flux, demonstrating the
    sensorless variant.
    """

    def __init__(
        self,
        params: MachineParams,
        flux_source: str = "measured",
        mode: str = "continuous",
    ):
        if flux_source not in FLUX_SOURCES:
            raise ValueError(f"flux_source must be one of {FLUX_SOURCES}")
        if mode not in COMPENSATION_MODES:
            raise ValueError(f"mode must be one of {COMPENSATION_MODES}")
        self.params = params
        self.flux_source = flux_source
        self.mode = mode
        self.state: CompensatorState | None = None
        self.base = 0.0
        self.latch_time = 0.0
        self.target_i_ds = 0.0

    @property
    def time_varying(self) -> bool:
        """True when ``output`` depends on ``t`` between latches."""
        return self.flux_source == "predicted" and self.mode == "continuous"

    def reset(self) -> None:
        self.state = None
        self.base = 0.0

    def _anchor_flux_now(self, psi_measured: float, t: float) -> float:
        if self.state is None or self.flux_source == "measured":
            return psi_measured
        return predicted_flux_trajectory(
            self.params, self.state.psi_at_step, self.target_i_ds, t - self.latch_time
        )

    def latch(
        self,
        psi_measured: float,
        pi_output: float,
        new_i_ds_cmd: float,
        t: float,
    ) -> None:
        """Re-anchor at a search sample: fold the settled boost into the base,
        then latch the present flux and total torque command."""
        psi_now = self._anchor_flux_now(psi_measured, t)
        if psi_now < self.params.flux_floor:
            raise FluxFloorError(
                f"cannot latch compensator below flux floor ({psi_now:.6g} Wb)"
            )
        if self.state is not None:
            self.base += discrete_compensation(
                self.state.psi_at_step, psi_now, self.state.iqs_at_step
            )
        self.state = CompensatorState(psi_at_step=psi_now, iqs_at_step=pi_output + self.base)
        self.latch_time = t
        self.target_i_ds = new_i_ds_cmd

    def output(self, psi_measured: float, t: float) -> float:
        """Current boost in amperes; zero until the first latch."""
        if self.state is None:
            return 0.0
        if self.mode == "discrete":
            return self.base
        psi_now = (psi_measured if self.flux_source == "measured"
                   else self._anchor_flux_now(psi_measured, t))
        return self.base + continuous_compensation(
            self.state, psi_now - self.state.psi_at_step
        )
