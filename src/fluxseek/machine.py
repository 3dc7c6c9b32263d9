"""Synchronous-frame induction machine model with explicit losses.

The model keeps the four signals the control layer needs: rotor flux, rotor
speed and the tracked dq currents.
Rotor flux follows the first-order field-orientation dynamics

    dPsi/dt = (L_m * i_ds - Psi) / tau_r

the shaft follows J * domega/dt = T_e - T_load - B * omega, and the actual dq
currents track their commands through a first-order lag standing in for the
current-regulated inverter. Losses are stator/rotor copper, eddy + hysteresis
iron scaling with flux squared, and an affine-in-current-squared converter
term; input power is shaft power plus total loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import FluxFloorError, NonFiniteError

# Flux below this fraction of rated is treated as a protection violation:
# slip and the torque-compensation division diverge as Psi -> 0.
FLUX_FLOOR_FRACTION = 0.05

_POSITIVE_FIELDS = (
    "stator_resistance",
    "rotor_resistance",
    "magnetizing_inductance",
    "rotor_inductance",
    "inertia",
    "rotor_time_constant",
    "torque_constant_flux",
    "torque_constant_current",
    "rated_flux",
    "rated_excitation_current",
    "max_torque_current",
    "rated_speed",
    "rated_torque",
)

_NONNEGATIVE_FIELDS = (
    "friction",
    "iron_loss_eddy_coeff",
    "iron_loss_hysteresis_coeff",
    "converter_fixed_loss",
    "converter_resistive_coeff",
    "current_tracking_time_constant",
)


@dataclass(frozen=True)
class MachineParams:
    """Electrical, mechanical and loss constants of one machine + converter.

    Derived fields (``rotor_time_constant``, ``torque_constant_flux``,
    ``torque_constant_current``, ``rated_flux``) are stored explicitly and
    re-checked against their defining relations on construction; use
    :meth:`build` to compute them from the primitive constants.
    """

    stator_resistance: float        # ohm
    rotor_resistance: float         # ohm
    magnetizing_inductance: float   # H
    rotor_inductance: float         # H
    pole_pairs: int
    inertia: float                  # kg m^2
    friction: float                 # N m s/rad
    rotor_time_constant: float      # s, = L_r / R_r
    torque_constant_flux: float     # N m / (Wb A), multiplies Psi * i_qs
    torque_constant_current: float  # N m / A^2, multiplies i_ds * i_qs
    iron_loss_eddy_coeff: float     # W s^2 / (rad^2 Wb^2)
    iron_loss_hysteresis_coeff: float  # W s / (rad Wb^2)
    converter_fixed_loss: float     # W
    converter_resistive_coeff: float   # ohm
    current_tracking_time_constant: float  # s, 0 means ideal tracking
    rated_flux: float               # Wb, = L_m * rated_excitation_current
    rated_excitation_current: float  # A
    min_excitation_current: float   # A
    max_torque_current: float       # A
    rated_speed: float              # rad/s mechanical
    rated_torque: float             # N m

    def __post_init__(self) -> None:
        for name in _POSITIVE_FIELDS:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        for name in _NONNEGATIVE_FIELDS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.pole_pairs < 1:
            raise ValueError("pole_pairs must be >= 1")
        if self.rotor_time_constant != self.rotor_inductance / self.rotor_resistance:
            raise ValueError(
                "rotor_time_constant must equal rotor_inductance / rotor_resistance"
            )
        if not 0.0 < self.min_excitation_current < self.rated_excitation_current:
            raise ValueError(
                "min_excitation_current must be > 0 and"
                " < rated_excitation_current"
            )
        if self.rated_flux != self.magnetizing_inductance * self.rated_excitation_current:
            raise ValueError(
                "rated_flux must equal magnetizing_inductance *"
                " rated_excitation_current"
            )
        if self.torque_constant_current != self.torque_constant_flux * self.magnetizing_inductance:
            raise ValueError(
                "torque_constant_current must equal torque_constant_flux *"
                " magnetizing_inductance"
            )

    @classmethod
    def build(
        cls,
        *,
        stator_resistance: float,
        rotor_resistance: float,
        magnetizing_inductance: float,
        rotor_inductance: float,
        pole_pairs: int,
        inertia: float,
        friction: float,
        iron_loss_eddy_coeff: float,
        iron_loss_hysteresis_coeff: float,
        converter_fixed_loss: float,
        converter_resistive_coeff: float,
        current_tracking_time_constant: float,
        rated_excitation_current: float,
        min_excitation_current: float,
        max_torque_current: float,
        rated_speed: float,
        rated_torque: float,
    ) -> "MachineParams":
        """Construct params, deriving the dependent constants.

        torque_constant_flux defaults to (3/2) * p * L_m / L_r, the standard
        field-orientation torque constant; torque_constant_current is its
        steady-state companion K_t * L_m.
        """
        if rotor_resistance <= 0.0:
            raise ValueError("rotor_resistance must be > 0")
        if rotor_inductance <= 0.0:
            raise ValueError("rotor_inductance must be > 0")
        k_t = 1.5 * pole_pairs * magnetizing_inductance / rotor_inductance
        return cls(
            stator_resistance=stator_resistance,
            rotor_resistance=rotor_resistance,
            magnetizing_inductance=magnetizing_inductance,
            rotor_inductance=rotor_inductance,
            pole_pairs=pole_pairs,
            inertia=inertia,
            friction=friction,
            rotor_time_constant=rotor_inductance / rotor_resistance,
            torque_constant_flux=k_t,
            torque_constant_current=k_t * magnetizing_inductance,
            iron_loss_eddy_coeff=iron_loss_eddy_coeff,
            iron_loss_hysteresis_coeff=iron_loss_hysteresis_coeff,
            converter_fixed_loss=converter_fixed_loss,
            converter_resistive_coeff=converter_resistive_coeff,
            current_tracking_time_constant=current_tracking_time_constant,
            rated_flux=magnetizing_inductance * rated_excitation_current,
            rated_excitation_current=rated_excitation_current,
            min_excitation_current=min_excitation_current,
            max_torque_current=max_torque_current,
            rated_speed=rated_speed,
            rated_torque=rated_torque,
        )

    @property
    def flux_floor(self) -> float:
        return FLUX_FLOOR_FRACTION * self.rated_flux


@dataclass(frozen=True)
class MachineState:
    """Instantaneous machine state in the synchronous frame."""

    rotor_flux: float        # Wb
    rotor_speed: float       # rad/s mechanical
    i_ds: float              # A, actual d-axis current
    i_qs: float              # A, actual q-axis current
    simulated_time: float    # s

    def __post_init__(self) -> None:
        if not (
            math.isfinite(self.rotor_flux)
            and math.isfinite(self.rotor_speed)
            and math.isfinite(self.i_ds)
            and math.isfinite(self.i_qs)
        ):
            raise NonFiniteError(
                f"MachineState is not finite: rotor_flux={self.rotor_flux!r},"
                f" rotor_speed={self.rotor_speed!r}, i_ds={self.i_ds!r},"
                f" i_qs={self.i_qs!r}"
            )
        if self.rotor_flux < 0.0:
            raise ValueError("rotor_flux must be >= 0")


@dataclass(frozen=True)
class LossBreakdown:
    """One operating point's losses in watts. ``total`` is always the exact
    sum of the four components."""

    stator_copper: float
    rotor_copper: float
    iron: float
    converter: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("stator_copper", "rotor_copper", "iron", "converter"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        object.__setattr__(
            self,
            "total",
            self.stator_copper + self.rotor_copper + self.iron + self.converter,
        )


class InductionMachine:
    """Stateless operations over :class:`MachineState` for one parameter set.

    :meth:`step` is pure state-in/state-out; a single state instance is
    advanced by one caller at a time, and independent machines can run
    concurrently.
    """

    def __init__(self, params: MachineParams):
        self.params = params
        self.flux_floor = params.flux_floor

    # -- algebraic relations ----------------------------------------------

    def developed_torque(self, psi_dr: float, i_qs: float) -> float:
        """Electromagnetic torque K_t * i_qs * Psi_dr."""
        return self.params.torque_constant_flux * i_qs * psi_dr

    def slip_frequency(self, i_qs: float, psi_dr: float) -> float:
        """Indirect field-orientation slip, L_m * i_qs / (tau_r * Psi_dr)."""
        if psi_dr < self.flux_floor:
            raise FluxFloorError(
                f"slip undefined: rotor flux {psi_dr:.6g} below floor {self.flux_floor:.6g}"
            )
        return self.params.magnetizing_inductance * i_qs / (
            self.params.rotor_time_constant * psi_dr
        )

    def electrical_frequency(self, state: MachineState) -> float:
        """Synchronous electrical frequency p * omega_r + omega_slip."""
        return self.params.pole_pairs * state.rotor_speed + self.slip_frequency(
            state.i_qs, state.rotor_flux
        )

    # -- losses and power ---------------------------------------------------

    def compute_losses(self, state: MachineState, omega_e: float) -> LossBreakdown:
        """Loss breakdown at the given state and electrical frequency."""
        p = self.params
        i_sq = state.i_ds * state.i_ds + state.i_qs * state.i_qs
        psi_sq = state.rotor_flux * state.rotor_flux
        lm_over_lr = p.magnetizing_inductance / p.rotor_inductance
        return LossBreakdown(
            stator_copper=1.5 * p.stator_resistance * i_sq,
            rotor_copper=1.5 * p.rotor_resistance * (lm_over_lr * lm_over_lr)
            * state.i_qs * state.i_qs,
            iron=(p.iron_loss_eddy_coeff * omega_e * omega_e
                  + p.iron_loss_hysteresis_coeff * abs(omega_e)) * psi_sq,
            converter=p.converter_fixed_loss + p.converter_resistive_coeff * i_sq,
        )

    def input_power(self, state: MachineState, t_e: float, losses: LossBreakdown) -> float:
        """DC-link power model: shaft power plus total loss. May be negative
        during regeneration; the shipped scenarios stay motoring."""
        return t_e * state.rotor_speed + losses.total

    # -- coupled step --------------------------------------------------------

    def step(
        self,
        state: MachineState,
        i_ds_cmd: float,
        i_qs_cmd: float,
        t_load: float,
        dt: float,
    ) -> MachineState:
        """One RK4 step of the coupled flux / mechanical / current-lag ODEs.

        Commands and load torque are held constant over the step (zero-order
        hold). With a zero tracking time constant the currents start at their
        commands and have a zero derivative, so they equal the commands
        exactly. The new flux is clamped to the flux floor.
        """
        p = self.params
        tau_r = p.rotor_time_constant
        tau_i = p.current_tracking_time_constant
        l_m = p.magnetizing_inductance
        k_t = p.torque_constant_flux
        inv_j = 1.0 / p.inertia
        b = p.friction

        if tau_i > 0.0:
            i_d, i_q, inv_tau_i = state.i_ds, state.i_qs, 1.0 / tau_i
        else:
            i_d, i_q, inv_tau_i = i_ds_cmd, i_qs_cmd, 0.0
        psi = state.rotor_flux
        w = state.rotor_speed

        def deriv(psi_, w_, id_, iq_):
            return (
                (l_m * id_ - psi_) / tau_r,
                (k_t * psi_ * iq_ - t_load - b * w_) * inv_j,
                (i_ds_cmd - id_) * inv_tau_i,
                (i_qs_cmd - iq_) * inv_tau_i,
            )

        h = 0.5 * dt
        k1 = deriv(psi, w, i_d, i_q)
        k2 = deriv(psi + h * k1[0], w + h * k1[1], i_d + h * k1[2], i_q + h * k1[3])
        k3 = deriv(psi + h * k2[0], w + h * k2[1], i_d + h * k2[2], i_q + h * k2[3])
        k4 = deriv(psi + dt * k3[0], w + dt * k3[1], i_d + dt * k3[2], i_q + dt * k3[3])
        sixth = dt / 6.0
        psi_new, w_new, id_new, iq_new = [
            x + sixth * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            for x, s1, s2, s3, s4 in zip((psi, w, i_d, i_q), k1, k2, k3, k4)
        ]
        if inv_tau_i == 0.0:
            # the same float objects as the commands: telemetry rows that hold
            # both then share them instead of holding equal copies
            id_new, iq_new = i_ds_cmd, i_qs_cmd

        if psi_new < self.flux_floor:
            psi_new = self.flux_floor
        return MachineState(
            rotor_flux=psi_new,
            rotor_speed=w_new,
            i_ds=id_new,
            i_qs=iq_new,
            simulated_time=state.simulated_time + dt,
        )
