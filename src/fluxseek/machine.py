"""Synchronous-frame induction machine model with explicit losses.

The model has four signals: rotor flux, rotor speed and the tracked dq
currents. Rotor flux follows the first-order field-orientation dynamics

    dPsi/dt = (L_m * i_ds - Psi) / tau_r

the shaft follows J * domega/dt = T_e - T_load - B * omega, and the actual dq
currents track their commands through a first-order lag standing in for the
current-regulated inverter. Losses are stator/rotor copper, eddy + hysteresis
iron scaling with flux squared, and an affine-in-current-squared converter
term; input power is shaft power plus total loss.

``MachineParams`` holds the constants, derives the rest from the primitive
ones, so they agree also after ``dataclasses.replace``, and does the algebra:
``power_terms`` gives torque, the four losses and input power at a state.
``InductionMachine`` is the RK4 stepper for one parameter set and one step size,
which ``check_step_size`` holds below the stability limit: ``step`` advances
the four signals, plain floats the caller keeps, by one straight-line RK4 step.
Each constant's kind and bound are written on its field, as its annotation and
its metadata, and ``check_bounds`` applies both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import FluxFloorError, NonFiniteError

# the d-axis lag key that matches no input: NaN equals nothing
_NO_KEY = (math.nan, math.nan)

# Flux below this fraction of rated is treated as a protection violation:
# slip and the torque-compensation division diverge as Psi -> 0.
FLUX_FLOOR_FRACTION = 0.05

# RK4 on dx/dt = -x / tau multiplies x by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
# z = -dt / tau; |R| <= 1 until R(z) = 1 at the real root of 1 + z/2 + z^2/6 +
# z^3/24, z = -2.785..., beyond which every step grows x.
RK4_STABILITY_LIMIT = 2.785293563405282

# A field's bound, as its metadata: (condition, test), read by check_bounds
POSITIVE = {"bound": ("> 0", lambda v: v > 0.0)}
NONNEGATIVE = {"bound": (">= 0", lambda v: v >= 0.0)}
COUNT = {"bound": (">= 1", lambda v: v >= 1)}
FRACTION = {"bound": ("in (0, 1)", lambda v: 0.0 < v < 1.0)}
FRACTION_OR_ONE = {"bound": ("in (0, 1]", lambda v: 0.0 < v <= 1.0)}


# The exact types a field annotated float, int, str or bool takes, read by check_bounds
# (annotations are strings: every module imports them); a bool is no number
_KIND_TYPES = {"float": (int, float), "int": (int,), "str": (str,), "bool": (bool,)}


def check_bounds(obj) -> None:
    """Raise ValueError at the first init field of dataclass ``obj`` that is not
    of its annotated kind or is out of its bound; NaN is in no bound."""
    for f in fields(obj):
        if not f.init:
            continue
        value = getattr(obj, f.name)
        if f.type in _KIND_TYPES and type(value) not in _KIND_TYPES[f.type]:
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if "bound" in f.metadata and not f.metadata["bound"][1](value):
            raise ValueError(f"{f.name} must be {f.metadata['bound'][0]}, got {value!r}")


@dataclass(frozen=True)
class MachineParams:
    """Electrical, mechanical and loss constants of one machine + converter.

    Takes the 17 primitive constants, each checked against the bound on its
    field, so no loss coefficient is negative or NaN and no loss is negative;
    then 0 < ``min_excitation_current`` < ``rated_excitation_current``. The
    derived constants (``rotor_time_constant``, ``torque_constant_flux``,
    ``rated_flux``, ``flux_floor`` and those of :meth:`power_terms`) are
    computed once, and the minimum current's flux checked against the floor.
    """

    stator_resistance: float = field(metadata=POSITIVE)       # ohm
    rotor_resistance: float = field(metadata=POSITIVE)        # ohm
    magnetizing_inductance: float = field(metadata=POSITIVE)  # H
    rotor_inductance: float = field(metadata=POSITIVE)        # H
    pole_pairs: int = field(metadata=COUNT)
    inertia: float = field(metadata=POSITIVE)                 # kg m^2
    friction: float = field(metadata=NONNEGATIVE)             # N m s/rad
    iron_loss_eddy_coeff: float = field(metadata=NONNEGATIVE)  # W s^2 / (rad^2 Wb^2)
    iron_loss_hysteresis_coeff: float = field(metadata=NONNEGATIVE)  # W s / (rad Wb^2)
    converter_fixed_loss: float = field(metadata=NONNEGATIVE)  # W
    converter_resistive_coeff: float = field(metadata=NONNEGATIVE)  # ohm
    current_tracking_time_constant: float = field(metadata=NONNEGATIVE)  # s, 0 is ideal tracking
    rated_excitation_current: float = field(metadata=POSITIVE)  # A
    min_excitation_current: float   # A, bounded with rated_excitation_current below
    max_torque_current: float = field(metadata=POSITIVE)      # A
    rated_speed: float = field(metadata=POSITIVE)             # rad/s mechanical
    rated_torque: float = field(metadata=POSITIVE)            # N m
    rotor_time_constant: float = field(init=False)      # s, L_r / R_r
    # N m / (Wb A), multiplies Psi * i_qs: the field-orientation torque
    # constant (3/2) * p * L_m / L_r
    torque_constant_flux: float = field(init=False)
    rated_flux: float = field(init=False)               # Wb, L_m * rated_excitation_current
    flux_floor: float = field(init=False)  # Wb, FLUX_FLOOR_FRACTION * rated_flux
    # power_terms' constants: p, L_m, tau_r and K_t, then the losses',
    # grouped as the textbook formulas multiply left to right
    _power_constants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_bounds(self)
        if not 0.0 < self.min_excitation_current < self.rated_excitation_current:
            raise ValueError("min_excitation_current must be > 0 and < rated_excitation_current")
        k_t = 1.5 * self.pole_pairs * self.magnetizing_inductance / self.rotor_inductance
        derive = object.__setattr__  # the dataclass is frozen
        derive(self, "rotor_time_constant", self.rotor_inductance / self.rotor_resistance)
        derive(self, "torque_constant_flux", k_t)
        derive(self, "rated_flux", self.magnetizing_inductance * self.rated_excitation_current)
        derive(self, "flux_floor", FLUX_FLOOR_FRACTION * self.rated_flux)
        lm_over_lr = self.magnetizing_inductance / self.rotor_inductance
        derive(self, "_power_constants", (
            self.pole_pairs, self.magnetizing_inductance, self.rotor_time_constant, k_t,
            1.5 * self.stator_resistance,
            1.5 * self.rotor_resistance * (lm_over_lr * lm_over_lr),
            self.iron_loss_eddy_coeff, self.iron_loss_hysteresis_coeff,
            self.converter_fixed_loss, self.converter_resistive_coeff,
        ))
        min_flux = self.magnetizing_inductance * self.min_excitation_current
        if min_flux < self.flux_floor:
            raise ValueError(
                f"min_excitation_current {self.min_excitation_current!r} A gives rotor flux"
                f" {min_flux:.6g} Wb, below the flux floor {self.flux_floor:.6g} Wb"
            )

    def power_terms(
        self, psi_dr: float, omega_r: float, i_ds: float, i_qs: float
    ) -> tuple[float, float, float, float, float, float]:
        """(torque, stator copper, rotor copper, iron and converter loss, input
        power) at one state: K_t * i_qs * Psi_dr, the module's losses at the
        electrical frequency p * omega_r + L_m * i_qs / (tau_r * Psi_dr), and
        shaft power plus the four losses, which is negative when regenerating.
        Raises :class:`FluxFloorError` below the flux floor, where slip is
        undefined."""
        if psi_dr < self.flux_floor:
            raise FluxFloorError(
                f"slip undefined: rotor flux {psi_dr:.6g} below floor {self.flux_floor:.6g}"
            )
        pole_pairs, l_m, tau_r, k_t, copper_s, copper_r, eddy, hysteresis, fixed, resistive = (
            self._power_constants
        )
        omega_e = pole_pairs * omega_r + l_m * i_qs / (tau_r * psi_dr)
        i_sq = i_ds * i_ds + i_qs * i_qs
        stator = copper_s * i_sq
        rotor = copper_r * i_qs * i_qs
        iron = (eddy * omega_e * omega_e + hysteresis * abs(omega_e)) * (psi_dr * psi_dr)
        converter = fixed + resistive * i_sq
        t_e = k_t * i_qs * psi_dr
        return (t_e, stator, rotor, iron, converter,
                t_e * omega_r + (stator + rotor + iron + converter))


def check_step_size(dt: float, params: MachineParams) -> None:
    """Raise ValueError unless ``dt`` is positive and below the RK4 stability
    limit of the fastest decay the step integrates: the current lag if any,
    else the rotor flux."""
    tau = params.rotor_time_constant
    if params.current_tracking_time_constant > 0.0:
        tau = min(tau, params.current_tracking_time_constant)
    max_dt = RK4_STABILITY_LIMIT * tau
    if not dt > 0.0:  # NaN fails too
        raise ValueError(f"dt={dt!r} s must be > 0")
    if not dt < max_dt:
        raise ValueError(f"dt={dt!r} s must be below {max_dt!r} s, the RK4 stability"
                         f" limit for the {tau!r} s time constant")


class InductionMachine:
    """The RK4 stepper of one parameter set at one step size ``dt``, checked
    by :func:`check_step_size` on construction.

    The caller keeps the state: :meth:`step` takes and returns floats, and
    its result depends on its arguments alone. The one thing an instance
    keeps between calls is :meth:`step`'s cache of the last d-axis lag it
    computed, which changes no result bit.
    """

    def __init__(self, params: MachineParams, dt: float):
        check_step_size(dt, params)
        tau_i = params.current_tracking_time_constant
        # the step's constants, taken once: dt, dt / 2, dt / 6, tau_r, L_m,
        # K_t, 1/J, B, 1/tau_i and the flux floor
        self._step_constants = (
            dt, 0.5 * dt, dt / 6.0,
            params.rotor_time_constant, params.magnetizing_inductance,
            params.torque_constant_flux, 1.0 / params.inertia, params.friction,
            1.0 / tau_i if tau_i > 0.0 else 0.0, params.flux_floor,
        )
        # the last d-axis lag step computed: its key (i_d, i_ds_cmd), then the
        # flux targets L_m * x_d at the four stages and the new i_d
        self._d_lag = _NO_KEY + (0.0,) * 5

    def step(
        self, psi: float, w: float, i_d: float, i_q: float,
        i_ds_cmd: float, i_qs_cmd: float, t_load: float,
    ) -> tuple[float, float, float, float]:
        """One RK4 step of the coupled flux / mechanical / current-lag ODEs.

        Takes and returns (rotor flux, rotor speed, i_ds, i_qs). Commands and
        load torque are held constant over the step (zero-order hold). With a
        zero tracking time constant the currents start at their commands and
        have a zero derivative, and the command floats themselves are
        returned. Raises :class:`NonFiniteError` if a new value is not
        finite; the new flux is clamped to the flux floor.

        Each current's lag is independent of flux and speed, so its stages
        come first. The d-axis lag depends on ``(i_d, i_ds_cmd)`` alone,
        and the search holds the excitation command between samples, so the
        step keeps the last one it computed and reuses it while that key
        repeats. The result is the same bits either way.
        """
        dt, h, sixth, tau_r, l_m, k_t, inv_j, b, inv_tau_i, flux_floor = self._step_constants
        if inv_tau_i == 0.0:
            i_d = i_ds_cmd
            i_q = i_qs_cmd

        # the d-axis lag, as the flux targets L_m * x_d at the four stages. A
        # key holding a zero is never stored: -0.0 == 0.0, but the bits differ
        key_d, key_cmd, target1, target2, target3, target4, id_new = self._d_lag
        if not (i_d == key_d and i_ds_cmd == key_cmd):
            d1 = (i_ds_cmd - i_d) * inv_tau_i
            x_d2 = i_d + h * d1
            d2 = (i_ds_cmd - x_d2) * inv_tau_i
            x_d3 = i_d + h * d2
            d3 = (i_ds_cmd - x_d3) * inv_tau_i
            x_d4 = i_d + dt * d3
            d4 = (i_ds_cmd - x_d4) * inv_tau_i
            # ideal tracking returns the command itself: a -0.0 command stays
            # -0.0, where -0.0 + sixth * 0.0 would give 0.0
            id_new = (i_ds_cmd if inv_tau_i == 0.0
                      else i_d + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4))
            target1 = l_m * i_d
            target2 = l_m * x_d2
            target3 = l_m * x_d3
            target4 = l_m * x_d4
            self._d_lag = ((i_d, i_ds_cmd) if i_d and i_ds_cmd else _NO_KEY) + (
                target1, target2, target3, target4, id_new)

        # the q-axis lag, computed on every call
        q1 = (i_qs_cmd - i_q) * inv_tau_i
        x_q2 = i_q + h * q1
        q2 = (i_qs_cmd - x_q2) * inv_tau_i
        x_q3 = i_q + h * q2
        q3 = (i_qs_cmd - x_q3) * inv_tau_i
        x_q4 = i_q + dt * q3
        q4 = (i_qs_cmd - x_q4) * inv_tau_i
        iq_new = (i_qs_cmd if inv_tau_i == 0.0  # as id_new
                  else i_q + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4))

        # flux and speed, the derivative written out at each of the four stages
        psi1 = (target1 - psi) / tau_r
        w1 = (k_t * psi * i_q - t_load - b * w) * inv_j
        x_psi = psi + h * psi1
        psi2 = (target2 - x_psi) / tau_r
        w2 = (k_t * x_psi * x_q2 - t_load - b * (w + h * w1)) * inv_j
        x_psi = psi + h * psi2
        psi3 = (target3 - x_psi) / tau_r
        w3 = (k_t * x_psi * x_q3 - t_load - b * (w + h * w2)) * inv_j
        x_psi = psi + dt * psi3
        psi4 = (target4 - x_psi) / tau_r
        w4 = (k_t * x_psi * x_q4 - t_load - b * (w + dt * w3)) * inv_j

        psi_new = psi + sixth * (psi1 + 2.0 * psi2 + 2.0 * psi3 + psi4)
        w_new = w + sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)

        # one test on the common path: total - total is 0.0 exactly when the
        # sum is finite, and a NaN or infinity in it makes the sum NaN or
        # infinite; only then, as finite values may overflow, test each one
        total = psi_new + w_new + id_new + iq_new
        if total - total != 0.0 and not (
            math.isfinite(psi_new) and math.isfinite(w_new)
            and math.isfinite(id_new) and math.isfinite(iq_new)
        ):
            raise NonFiniteError(
                f"machine state is not finite: rotor_flux={psi_new!r},"
                f" rotor_speed={w_new!r}, i_ds={id_new!r}, i_qs={iq_new!r}"
            )
        if psi_new < flux_floor:
            psi_new = flux_floor
        return psi_new, w_new, id_new, iq_new
