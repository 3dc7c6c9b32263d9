"""Exception types shared across the drive simulator."""


class FluxseekError(Exception):
    """Base class for all package errors."""


class ConfigError(FluxseekError):
    """Invalid configuration. ``key`` is the dotted path of the offending entry."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(f"{key}: {message}" if key else message)


class FluxFloorError(FluxseekError):
    """Rotor flux at or below the protective floor where slip and Eq-style
    compensation formulas diverge."""


class NonFiniteError(FluxseekError):
    """A NaN or infinity reached a simulation state or operation input."""


class InferenceError(FluxseekError):
    """No fuzzy rule fired. Unreachable for a rule base that passes the
    coverage check; raised only to surface a defect."""


class SimulationDivergedError(FluxseekError):
    """The closed-loop integration produced a non-finite state. Carries the
    failing step's index, the last finite state it started from, and the
    commands and load torque it was given."""

    def __init__(
        self, step_index: int, message: str, rotor_flux: float, rotor_speed: float,
        i_ds: float, i_qs: float, i_ds_cmd: float, i_qs_cmd: float, load_torque: float,
    ):
        self.step_index = step_index
        self.rotor_flux, self.rotor_speed = rotor_flux, rotor_speed
        self.i_ds, self.i_qs = i_ds, i_qs
        self.i_ds_cmd, self.i_qs_cmd, self.load_torque = i_ds_cmd, i_qs_cmd, load_torque
        super().__init__(
            f"step {step_index}: {message}; last finite state rotor_flux={rotor_flux!r},"
            f" rotor_speed={rotor_speed!r}, i_ds={i_ds!r}, i_qs={i_qs!r}; step inputs"
            f" i_ds_cmd={i_ds_cmd!r}, i_qs_cmd={i_qs_cmd!r}, load_torque={load_torque!r}"
        )
