"""Configuration loading and validation.

One YAML file holds everything tunable: machine and loss constants, speed loop
gains, the fuzzy partition and rule table, scaling gains with their validity
envelope, supervisor thresholds, compensator switches, telemetry decimation
and the scenario list. Every constructed object is validated on load, unknown
keys are rejected, and every diagnostic carries the dotted key path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import resources

import yaml

from ..compensator import COMPENSATION_MODES, FLUX_SOURCES
from ..errors import ConfigError
from ..fuzzy import (
    EfficiencyController,
    FuzzyRule,
    FuzzyRuleBase,
    MembershipFunction,
    ScalingGains,
    input_gain,
    output_gain,
)
from ..machine import MachineParams
from ..optimizer import SearchSettings
from .scenario import Scenario

ENV_CONFIG_VAR = "FLUXSEEK_CONFIG"

# RK4 on dx/dt = -x / tau multiplies x by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
# z = -dt / tau; |R| <= 1 until R(z) = 1 at the real root of 1 + z/2 + z^2/6 +
# z^3/24, z = -2.785..., beyond which every step grows x.
RK4_STABILITY_LIMIT = 2.785293563405282

_MACHINE_KEYS = {
    "stator_resistance",
    "rotor_resistance",
    "magnetizing_inductance",
    "rotor_inductance",
    "pole_pairs",
    "inertia",
    "friction",
    "iron_loss_eddy_coeff",
    "iron_loss_hysteresis_coeff",
    "converter_fixed_loss",
    "converter_resistive_coeff",
    "current_tracking_time_constant",
    "rated_excitation_current",
    "min_excitation_current",
    "max_torque_current",
    "rated_speed",
    "rated_torque",
}
_CONTROL_KEYS = {"speed_kp", "speed_ki"}
_FUZZY_KEYS = {"scaling", "envelope", "power_change", "last_action", "output", "rules"}
_SCALING_KEYS = {"a", "b", "c1", "c2", "c3"}
_ENVELOPE_KEYS = {"speed", "torque"}
_SET_KEYS = {"label", "left", "center", "right"}
_RULE_KEYS = {"power", "last", "output"}
_OPTIMIZER_KEYS = {
    "search_period",
    "steady_speed_tolerance_fraction",
    "steady_steps",
    "convergence_step_fraction",
    "convergence_samples",
    "initial_step_fraction",
}
_COMPENSATOR_KEYS = {"flux_source", "mode"}
_TELEMETRY_KEYS = {"decimation"}
_SCENARIO_KEYS = {
    "name",
    "duration",
    "dt",
    "speed_reference",
    "load_torque",
    "flc_enabled",
    "compensator_enabled",
}
_TOP_KEYS = {
    "machine",
    "control",
    "fuzzy",
    "optimizer",
    "compensator",
    "telemetry",
    "scenarios",
}


@dataclass(frozen=True)
class DriveConfig:
    """Fully validated configuration of one drive plus its scenario list."""

    machine: MachineParams
    speed_kp: float
    speed_ki: float
    gains: ScalingGains
    rulebase: FuzzyRuleBase
    search: SearchSettings
    flux_source: str
    compensation_mode: str
    telemetry_decimation: int
    scenarios: tuple[Scenario, ...]

    def controller(self) -> EfficiencyController:
        return EfficiencyController(self.rulebase, self.gains, self.machine)

    def scenario(self, name: str) -> Scenario:
        for sc in self.scenarios:
            if sc.name == name:
                return sc
        known = ", ".join(sc.name for sc in self.scenarios) or "<none>"
        raise ConfigError(f"unknown scenario {name!r}; configured: {known}", key="scenarios")


# -- low-level node checks ---------------------------------------------------


def _mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError("expected a mapping", key=path)
    return node


def _sequence(node, path: str) -> list:
    if not isinstance(node, list):
        raise ConfigError("expected a list", key=path)
    return node


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}", key=path)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError("missing required key", key=f"{path}.{key}")
    return mapping[key]


def _finite(value, key: str) -> float:
    """``value`` as a float, or a ConfigError at ``key`` unless it is a finite
    YAML number (an integer too large for a float counts as infinite)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", key=key)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError("expected a finite number", key=key)
    return number


def _num(mapping: dict, key: str, path: str) -> float:
    return _finite(_require(mapping, key, path), f"{path}.{key}")


def _int(mapping: dict, key: str, path: str) -> int:
    value = _require(mapping, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("expected an integer", key=f"{path}.{key}")
    return value


def _str(mapping: dict, key: str, path: str) -> str:
    value = _require(mapping, key, path)
    if not isinstance(value, str):
        raise ConfigError("expected a string", key=f"{path}.{key}")
    return value


def _bool(mapping: dict, key: str, path: str, default: bool) -> bool:
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        raise ConfigError("expected a boolean", key=f"{path}.{key}")
    return value


# -- section parsers -----------------------------------------------------------


def _parse_machine(node, path: str) -> MachineParams:
    section = _mapping(node, path)
    _reject_unknown(section, _MACHINE_KEYS, path)
    kwargs = {key: _num(section, key, path) for key in _MACHINE_KEYS - {"pole_pairs"}}
    kwargs["pole_pairs"] = _int(section, "pole_pairs", path)
    try:
        return MachineParams.build(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), key=path) from exc


def _parse_membership(node, path: str) -> tuple[MembershipFunction, ...]:
    entries = _sequence(node, path)
    sets = []
    for i, raw in enumerate(entries):
        entry_path = f"{path}[{i}]"
        entry = _mapping(raw, entry_path)
        _reject_unknown(entry, _SET_KEYS, entry_path)
        try:
            sets.append(
                MembershipFunction(
                    label=_str(entry, "label", entry_path),
                    left_foot=_num(entry, "left", entry_path),
                    center=_num(entry, "center", entry_path),
                    right_foot=_num(entry, "right", entry_path),
                )
            )
        except ValueError as exc:
            raise ConfigError(str(exc), key=entry_path) from exc
    return tuple(sets)


def _parse_rules(node, path: str) -> tuple[FuzzyRule, ...]:
    entries = _sequence(node, path)
    rules = []
    for i, raw in enumerate(entries):
        entry_path = f"{path}[{i}]"
        entry = _mapping(raw, entry_path)
        _reject_unknown(entry, _RULE_KEYS, entry_path)
        rules.append(
            FuzzyRule(
                power=_str(entry, "power", entry_path),
                last_action=_str(entry, "last", entry_path),
                output=_str(entry, "output", entry_path),
            )
        )
    return tuple(rules)


def _parse_fuzzy(node, path: str, machine: MachineParams) -> tuple[ScalingGains, FuzzyRuleBase]:
    section = _mapping(node, path)
    _reject_unknown(section, _FUZZY_KEYS, path)

    scaling_path = f"{path}.scaling"
    scaling = _mapping(_require(section, "scaling", path), scaling_path)
    _reject_unknown(scaling, _SCALING_KEYS, scaling_path)
    gains = ScalingGains(
        a=_num(scaling, "a", scaling_path),
        b=_num(scaling, "b", scaling_path),
        c1=_num(scaling, "c1", scaling_path),
        c2=_num(scaling, "c2", scaling_path),
        c3=_num(scaling, "c3", scaling_path),
    )

    env_path = f"{path}.envelope"
    envelope = _mapping(_require(section, "envelope", path), env_path)
    _reject_unknown(envelope, _ENVELOPE_KEYS, env_path)

    def _range(key: str) -> tuple[float, float]:
        pair = _sequence(_require(envelope, key, env_path), f"{env_path}.{key}")
        if len(pair) != 2:
            raise ConfigError("expected [low, high] numbers", key=f"{env_path}.{key}")
        lo, hi = (_finite(v, f"{env_path}.{key}") for v in pair)
        if not lo < hi:
            raise ConfigError("range must satisfy low < high", key=f"{env_path}.{key}")
        return lo, hi

    gains.validate_envelope(_range("speed"), _range("torque"))

    try:
        rulebase = FuzzyRuleBase(
            power_change_sets=_parse_membership(_require(section, "power_change", path), f"{path}.power_change"),
            last_action_sets=_parse_membership(_require(section, "last_action", path), f"{path}.last_action"),
            output_sets=_parse_membership(_require(section, "output", path), f"{path}.output"),
            rules=_parse_rules(_require(section, "rules", path), f"{path}.rules"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key=path) from exc
    return gains, rulebase


def _parse_optimizer(node, path: str, machine: MachineParams) -> SearchSettings:
    section = _mapping(node, path)
    _reject_unknown(section, _OPTIMIZER_KEYS, path)
    tolerance_fraction = _num(section, "steady_speed_tolerance_fraction", path)
    if not 0.0 < tolerance_fraction < 1.0:
        raise ConfigError(
            "must be in (0, 1)", key=f"{path}.steady_speed_tolerance_fraction"
        )
    try:
        return SearchSettings(
            search_period=_num(section, "search_period", path),
            steady_speed_tolerance=tolerance_fraction * machine.rated_speed,
            steady_steps=_int(section, "steady_steps", path),
            convergence_step_fraction=_num(section, "convergence_step_fraction", path),
            convergence_samples=_int(section, "convergence_samples", path),
            initial_step_fraction=_num(section, "initial_step_fraction", path),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key=path) from exc


def _parse_profile(node, path: str) -> tuple[tuple[float, float], ...]:
    entries = _sequence(node, path)
    profile = []
    for i, raw in enumerate(entries):
        pair = _sequence(raw, f"{path}[{i}]")
        if len(pair) != 2:
            raise ConfigError("expected a [time, value] pair", key=f"{path}[{i}]")
        profile.append(tuple(_finite(v, f"{path}[{i}]") for v in pair))
    return tuple(profile)


def check_step_size(dt: float, machine: MachineParams) -> None:
    """Raise ValueError unless ``dt`` is below the RK4 stability limit of the
    fastest decay the step integrates: the current lag if any, else the rotor flux."""
    tau = machine.rotor_time_constant
    if machine.current_tracking_time_constant > 0.0:
        tau = min(tau, machine.current_tracking_time_constant)
    max_dt = RK4_STABILITY_LIMIT * tau
    if dt >= max_dt:
        raise ValueError(f"dt={dt!r} s must be below {max_dt!r} s, the RK4 stability"
                         f" limit for the {tau!r} s time constant")


def check_search_speeds(
    scenario: Scenario, gains: ScalingGains, friction: float, path: str = ""
) -> None:
    """Raise ConfigError if the scenario runs the search outside the scaling
    gains' envelope: keyed ``path + "speed_reference"`` where it commands a
    speed with power base P_b (``fuzzy.input_gain``) not positive, and
    ``path + "load_torque"`` where a speed and a load in effect together give
    the excitation-step base I_b (``fuzzy.output_gain``) not positive at the
    steady-state torque load + friction * speed."""
    if not scenario.flc_enabled:
        return
    speeds, loads = scenario.speed_reference, scenario.load_torque
    try:
        for _, speed in speeds:
            input_gain(gains, speed)
    except ConfigError as exc:
        raise ConfigError(str(exc), key=f"{path}speed_reference") from exc
    try:
        # the values in effect at each breakpoint of either profile
        for t in sorted({t for t, _ in speeds} | {t for t, _ in loads}):
            speed = [v for t_b, v in speeds if t_b <= t][-1]
            load = [v for t_b, v in loads if t_b <= t][-1]
            output_gain(gains, speed, load + friction * speed)
    except ConfigError as exc:
        raise ConfigError(str(exc), key=f"{path}load_torque") from exc


def _parse_scenarios(node, path: str, machine: MachineParams, gains: ScalingGains) -> tuple[Scenario, ...]:
    entries = _sequence(node, path)
    scenarios = []
    names: set[str] = set()
    for i, raw in enumerate(entries):
        entry_path = f"{path}[{i}]"
        entry = _mapping(raw, entry_path)
        _reject_unknown(entry, _SCENARIO_KEYS, entry_path)
        try:
            scenario = Scenario(
                name=_str(entry, "name", entry_path),
                duration=_num(entry, "duration", entry_path),
                dt=_num(entry, "dt", entry_path),
                speed_reference=_parse_profile(
                    _require(entry, "speed_reference", entry_path),
                    f"{entry_path}.speed_reference",
                ),
                load_torque=_parse_profile(
                    _require(entry, "load_torque", entry_path),
                    f"{entry_path}.load_torque",
                ),
                flc_enabled=_bool(entry, "flc_enabled", entry_path, True),
                compensator_enabled=_bool(entry, "compensator_enabled", entry_path, True),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), key=entry_path) from exc
        try:
            check_step_size(scenario.dt, machine)
        except ValueError as exc:
            raise ConfigError(str(exc), key=f"{entry_path}.dt") from exc
        check_search_speeds(scenario, gains, machine.friction, f"{entry_path}.")
        if scenario.name in names:
            raise ConfigError(f"duplicate scenario name {scenario.name!r}", key=entry_path)
        names.add(scenario.name)
        scenarios.append(scenario)
    return tuple(scenarios)


# -- entry points ----------------------------------------------------------------


def parse_config(text: str, source: str = "<config>") -> DriveConfig:
    """Parse and validate a YAML configuration document."""
    try:
        root = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: not valid YAML: {exc}") from exc
    root = _mapping(root, source if root is not None else source)
    _reject_unknown(root, _TOP_KEYS, source)

    machine = _parse_machine(_require(root, "machine", source), "machine")

    control = _mapping(_require(root, "control", source), "control")
    _reject_unknown(control, _CONTROL_KEYS, "control")
    speed_kp = _num(control, "speed_kp", "control")
    speed_ki = _num(control, "speed_ki", "control")
    if speed_kp < 0.0 or speed_ki < 0.0:
        raise ConfigError("speed loop gains must be >= 0", key="control")

    gains, rulebase = _parse_fuzzy(_require(root, "fuzzy", source), "fuzzy", machine)
    search = _parse_optimizer(_require(root, "optimizer", source), "optimizer", machine)

    comp = _mapping(_require(root, "compensator", source), "compensator")
    _reject_unknown(comp, _COMPENSATOR_KEYS, "compensator")
    flux_source = _str(comp, "flux_source", "compensator")
    if flux_source not in FLUX_SOURCES:
        raise ConfigError(f"must be one of {FLUX_SOURCES}", key="compensator.flux_source")
    compensation_mode = _str(comp, "mode", "compensator")
    if compensation_mode not in COMPENSATION_MODES:
        raise ConfigError(f"must be one of {COMPENSATION_MODES}", key="compensator.mode")

    telemetry = _mapping(_require(root, "telemetry", source), "telemetry")
    _reject_unknown(telemetry, _TELEMETRY_KEYS, "telemetry")
    decimation = _int(telemetry, "decimation", "telemetry")
    if decimation < 1:
        raise ConfigError("must be >= 1", key="telemetry.decimation")

    scenarios = _parse_scenarios(_require(root, "scenarios", source), "scenarios", machine, gains)

    return DriveConfig(
        machine=machine,
        speed_kp=speed_kp,
        speed_ki=speed_ki,
        gains=gains,
        rulebase=rulebase,
        search=search,
        flux_source=flux_source,
        compensation_mode=compensation_mode,
        telemetry_decimation=decimation,
        scenarios=scenarios,
    )


def default_config_text() -> str:
    return resources.files("fluxseek.data").joinpath("default.yaml").read_text()


def load_config(path: str | None = None) -> DriveConfig:
    """Load a configuration file.

    Resolution order: explicit path, then the FLUXSEEK_CONFIG environment
    variable, then the packaged default.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR) or None
    if path is None:
        return parse_config(default_config_text(), source="<packaged default>")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text, source=path)
