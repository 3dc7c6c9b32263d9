"""Deterministic indirect field-oriented induction-motor drive simulator with
search-based fuzzy efficiency optimization and feedforward pulsating-torque
compensation."""

from .compensator import (
    CompensatorState,
    TorqueCompensator,
    continuous_compensation,
    discrete_compensation,
    predicted_flux_trajectory,
)
from .errors import (
    ConfigError,
    FluxFloorError,
    FluxseekError,
    InferenceError,
    NonFiniteError,
    SearchModeError,
    SimulationDivergedError,
)
from .foc import speed_pi_step
from .fuzzy import (
    EfficiencyController,
    FuzzyRule,
    FuzzyRuleBase,
    MembershipFunction,
    ScalingGains,
    default_rulebase,
    efficiency_step,
    estimate_torque,
    fuzzify,
    height_defuzzify,
    infer,
    input_gain,
    output_gain,
)
from .machine import (
    FLUX_FLOOR_FRACTION,
    InductionMachine,
    LossBreakdown,
    MachineParams,
)
from .optimizer import (
    DriveMode,
    SearchSettings,
    SearchState,
    advance_sample_timer,
    search_sample,
    update_mode,
)

__version__ = "0.1.0"

__all__ = [
    "CompensatorState",
    "ConfigError",
    "DriveMode",
    "EfficiencyController",
    "FLUX_FLOOR_FRACTION",
    "FluxFloorError",
    "FluxseekError",
    "FuzzyRule",
    "FuzzyRuleBase",
    "InductionMachine",
    "InferenceError",
    "LossBreakdown",
    "MachineParams",
    "MembershipFunction",
    "NonFiniteError",
    "ScalingGains",
    "SearchModeError",
    "SearchSettings",
    "SearchState",
    "SimulationDivergedError",
    "TorqueCompensator",
    "advance_sample_timer",
    "continuous_compensation",
    "default_rulebase",
    "discrete_compensation",
    "efficiency_step",
    "estimate_torque",
    "fuzzify",
    "height_defuzzify",
    "infer",
    "input_gain",
    "output_gain",
    "predicted_flux_trajectory",
    "search_sample",
    "speed_pi_step",
    "update_mode",
]
