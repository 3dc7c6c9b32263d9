"""Configuration loading and validation.

One YAML file holds everything tunable: machine and loss constants, speed loop
gains, the fuzzy partition and rule table, scaling gains with their validity
envelope, supervisor thresholds, compensator switches, telemetry decimation
and the scenario list.

Each section is one table, key -> (kind, bound[, default]), and this is the
only place a key, its kind or its bound is written. One reader applies every
table: it rejects a node that is not a mapping, unknown keys and missing
required keys, parses each value by its kind and checks it against its bound.
A section's constructor then applies the rules that tie keys together, and
``parse_config`` the rules that tie sections together. Every diagnostic
carries the dotted key path.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from importlib import resources

import yaml

from ..compensator import COMPENSATION_MODES, FLUX_SOURCES
from ..errors import ConfigError
from ..fuzzy import FuzzyRuleBase, MembershipFunction, ScalingGains, input_gain, output_gain
from ..machine import MachineParams, check_step_size
from ..optimizer import SearchSettings
from .scenario import Scenario

ENV_CONFIG_VAR = "FLUXSEEK_CONFIG"


def _with_yaml12_floats(loader):
    """``loader`` reading YAML 1.2's floats as floats too: PyYAML follows YAML
    1.1, whose floats need a dot, so ``1e-4`` was a string. It also rejects a
    key repeated in one mapping, of which PyYAML kept the last value."""

    merge = "tag:yaml.org,2002:merge"

    class Loader(loader):
        def __init__(self, stream):
            super().__init__(stream)
            self._checked = set()  # the mapping nodes whose own keys were checked

        def flatten_mapping(self, node):
            # A mapping's own keys are checked before its merge keys (<<) bring
            # in keys it may override. A merge flattens the mapping it reads in
            # place, maybe before that mapping is constructed: check each once.
            if node not in self._checked:
                self._checked.add(node)
                seen = set()
                for key_node, _ in node.value:
                    if key_node.tag == merge or not isinstance(key_node, yaml.ScalarNode):
                        continue
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found duplicate key {key!r}", key_node.start_mark)
                    seen.add(key)
            super().flatten_mapping(node)

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"),
    )
    return Loader


# libyaml's safe loader where PyYAML has it: the same constructor, so the same values
_YAML_LOADER = _with_yaml12_floats(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@dataclass(frozen=True)
class DriveConfig:
    """Fully validated configuration of one drive plus its scenario list."""

    machine: MachineParams
    speed_kp: float
    speed_ki: float
    search: SearchSettings
    flux_source: str
    compensation_mode: str
    telemetry_decimation: int
    scenarios: tuple[Scenario, ...]

    def __post_init__(self):  # for a config built in code: dataclasses.replace runs it
        for field, choices in (("flux_source", FLUX_SOURCES),
                               ("compensation_mode", COMPENSATION_MODES)):
            if getattr(self, field) not in choices:
                raise ValueError(f"{field} must be one of {choices}, got {getattr(self, field)!r}")

    def scenario(self, name: str) -> Scenario:
        for sc in self.scenarios:
            if sc.name == name:
                return sc
        known = ", ".join(sc.name for sc in self.scenarios) or "<none>"
        raise ConfigError(f"unknown scenario {name!r}; configured: {known}", key="scenarios")


# -- kinds: each parses one YAML value, or raises a ConfigError at its key ------


def _number(value, key: str) -> float:
    """``value`` as a float, unless it is not a finite YAML number (an integer
    too large for a float counts as infinite)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("expected a number", key=key)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError("expected a finite number", key=key)
    return number


def _integer(value, key: str) -> int:
    """``value``, unless it is not a YAML integer or, as in ``_number``, too large for a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("expected an integer", key=key)
    _number(value, key)
    return value


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError("expected a string", key=key)
    return value


def _boolean(value, key: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError("expected a boolean", key=key)
    return value


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ConfigError("expected a list", key=key)
    return value


def _profile(value, key: str) -> tuple[tuple[float, float], ...]:
    """[[time, value], ...] breakpoints."""
    profile = []
    for i, raw in enumerate(_list(value, key)):
        pair = _list(raw, f"{key}[{i}]")
        if len(pair) != 2:
            raise ConfigError("expected a [time, value] pair", key=f"{key}[{i}]")
        profile.append(tuple(_number(v, f"{key}[{i}]") for v in pair))
    return tuple(profile)


def _range(value, key: str) -> tuple[float, float]:
    """[low, high] with low < high."""
    pair = _list(value, key)
    if len(pair) != 2:
        raise ConfigError("expected [low, high] numbers", key=key)
    low, high = (_number(v, key) for v in pair)
    if not low < high:
        raise ConfigError("range must satisfy low < high", key=key)
    return low, high


def _section(table: dict, make=dict):
    """The kind of a mapping read by ``table`` and built by ``make(**values)``;
    a ValueError from ``make`` is a ConfigError at the key of the field its
    message starts with, else at the mapping's key."""
    def kind(node, key: str):
        values = _read(node, table, key)
        try:
            return make(**values)
        except ValueError as exc:
            field = str(exc).partition(" ")[0]
            raise ConfigError(str(exc), key=f"{key}.{field}" if field in table else key) from exc
    return kind


def _entries(table: dict, make):
    """The kind of a list of ``_section(table, make)`` mappings, keyed ``key[i]``."""
    entry = _section(table, make)
    return lambda node, key: tuple(
        entry(raw, f"{key}[{i}]") for i, raw in enumerate(_list(node, key))
    )


def _read(node, table: dict, path: str, prefix: str | None = None) -> dict:
    """The values of mapping ``node`` by ``table``, in table order. A key's
    path is ``prefix + key``, by default ``path + "." + key``."""
    if not isinstance(node, dict):
        raise ConfigError("expected a mapping", key=path)
    # str: a YAML key need not be a string, and int and str keys do not sort
    unknown = sorted(map(str, set(node) - set(table)))
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}", key=path)
    prefix = f"{path}." if prefix is None else prefix
    values = {}
    for key, (kind, bound, *default) in table.items():
        if key not in node:
            if not default:
                raise ConfigError("missing required key", key=f"{path}.{key}")
            values[key] = default[0]
            continue
        value = kind(node[key], prefix + key)
        if bound is not None and not bound[1](value):
            raise ConfigError(f"must be {bound[0]}", key=prefix + key)
        values[key] = value
    return values


# -- bounds: (condition, test); a value failing the test "must be <condition>" --

_POSITIVE = ("> 0", lambda v: v > 0.0)
_NONNEGATIVE = (">= 0", lambda v: v >= 0.0)
_COUNT = (">= 1", lambda v: v >= 1)
_FRACTION = ("in (0, 1)", lambda v: 0.0 < v < 1.0)
_FRACTION_OR_ONE = ("in (0, 1]", lambda v: 0.0 < v <= 1.0)


def _one_of(choices: tuple[str, ...]) -> tuple:
    return f"one of {choices}", choices.__contains__


# -- the schema ------------------------------------------------------------------


def _fuzzy(scaling, envelope, power_change, last_action, output, rules):
    scaling.validate_envelope(envelope["speed"], envelope["torque"])
    return scaling, FuzzyRuleBase(power_change, last_action, output, rules)


_MACHINE = {
    "stator_resistance": (_number, _POSITIVE),
    "rotor_resistance": (_number, _POSITIVE),
    "magnetizing_inductance": (_number, _POSITIVE),
    "rotor_inductance": (_number, _POSITIVE),
    "pole_pairs": (_integer, _COUNT),
    "inertia": (_number, _POSITIVE),
    "friction": (_number, _NONNEGATIVE),
    "iron_loss_eddy_coeff": (_number, _NONNEGATIVE),
    "iron_loss_hysteresis_coeff": (_number, _NONNEGATIVE),
    "converter_fixed_loss": (_number, _NONNEGATIVE),
    "converter_resistive_coeff": (_number, _NONNEGATIVE),
    "current_tracking_time_constant": (_number, _NONNEGATIVE),
    "rated_excitation_current": (_number, _POSITIVE),
    "min_excitation_current": (_number, None),  # 0 < min < rated: MachineParams
    "max_torque_current": (_number, _POSITIVE),
    "rated_speed": (_number, _POSITIVE),
    "rated_torque": (_number, _POSITIVE),
}
_CONTROL = {"speed_kp": (_number, _NONNEGATIVE), "speed_ki": (_number, _NONNEGATIVE)}
_SCALING = {
    "a": (_number, None),
    "b": (_number, None),
    "c1": (_number, None),
    "c2": (_number, None),
    "c3": (_number, None),
}
_ENVELOPE = {"speed": (_range, None), "torque": (_range, None)}
_SET = {
    "label": (_string, None),
    "left": (_number, None),
    "center": (_number, None),
    "right": (_number, None),
}
_SINGLETON = {"label": (_string, None), "center": (_number, None)}
_RULE = {"power": (_string, None), "last": (_string, None), "output": (_string, None)}
_FUZZY = {
    "scaling": (_section(_SCALING, ScalingGains), None),
    "envelope": (_section(_ENVELOPE), None),
    "power_change": (_entries(_SET, MembershipFunction), None),
    "last_action": (_entries(_SET, MembershipFunction), None),
    "output": (_entries(_SINGLETON, lambda label, center: (label, center)), None),
    "rules": (_entries(_RULE, lambda power, last, output: (power, last, output)), None),
}
_OPTIMIZER = {
    "search_period": (_number, _POSITIVE),
    "steady_speed_tolerance_fraction": (_number, _FRACTION),
    "steady_steps": (_integer, _COUNT),
    "convergence_step_fraction": (_number, _FRACTION),
    "convergence_samples": (_integer, _COUNT),
    "initial_step_fraction": (_number, _FRACTION_OR_ONE),
}
_COMPENSATOR = {
    "flux_source": (_string, _one_of(FLUX_SOURCES)),
    "mode": (_string, _one_of(COMPENSATION_MODES)),
}
_TELEMETRY = {"decimation": (_integer, _COUNT)}
_SCENARIO = {
    "name": (_string, None),
    "duration": (_number, None),
    "dt": (_number, None),
    "speed_reference": (_profile, None),
    "load_torque": (_profile, None),
    "flc_enabled": (_boolean, None, True),
    "compensator_enabled": (_boolean, None, True),
}
# the document; its sections' paths carry no prefix
_ROOT = {
    "machine": (_section(_MACHINE, MachineParams), None),
    "control": (_section(_CONTROL), None),
    "fuzzy": (_section(_FUZZY, _fuzzy), None),
    "optimizer": (_section(_OPTIMIZER), None),
    "compensator": (_section(_COMPENSATOR), None),
    "telemetry": (_section(_TELEMETRY), None),
    "scenarios": (_entries(_SCENARIO, Scenario), None),
}


# -- rules across sections ------------------------------------------------------


def check_search_speeds(
    scenario: Scenario, gains: ScalingGains, friction: float, path: str = ""
) -> None:
    """Raise ConfigError if a command that takes effect (``scenario.commands``)
    runs the search outside the scaling gains' envelope: keyed ``path +
    "speed_reference"`` where its speed has power base P_b (``fuzzy.input_gain``)
    not positive, and ``path + "load_torque"`` where its speed and load give
    the excitation-step base I_b (``fuzzy.output_gain``) not positive at the
    steady-state torque load + friction * speed."""
    if not scenario.flc_enabled:
        return
    for _, speed, load in scenario.commands[:-1]:
        try:
            input_gain(gains, speed)
        except ConfigError as exc:
            raise ConfigError(str(exc), key=f"{path}speed_reference") from exc
        try:
            output_gain(gains, speed, load + friction * speed)
        except ConfigError as exc:
            raise ConfigError(str(exc), key=f"{path}load_torque") from exc


# -- entry points ----------------------------------------------------------------


def parse_config(text: str, source: str = "<config>") -> DriveConfig:
    """Parse and validate a YAML configuration document."""
    try:
        root = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: not valid YAML: {exc}") from exc
    sections = _read(root, _ROOT, source, prefix="")
    machine = sections["machine"]
    gains, rulebase = sections["fuzzy"]
    optimizer = sections["optimizer"]
    tolerance_fraction = optimizer.pop("steady_speed_tolerance_fraction")

    scenarios = sections["scenarios"]
    names: set[str] = set()
    for i, scenario in enumerate(scenarios):
        path = f"scenarios[{i}]"
        try:
            check_step_size(scenario.dt, machine)
        except ValueError as exc:
            raise ConfigError(str(exc), key=f"{path}.dt") from exc
        check_search_speeds(scenario, gains, machine.friction, f"{path}.")
        if scenario.name in names:
            raise ConfigError(f"duplicate scenario name {scenario.name!r}", key=path)
        names.add(scenario.name)

    return DriveConfig(
        machine=machine,
        **sections["control"],
        search=SearchSettings(
            rulebase, gains,
            steady_speed_tolerance=tolerance_fraction * machine.rated_speed, **optimizer
        ),
        flux_source=sections["compensator"]["flux_source"],
        compensation_mode=sections["compensator"]["mode"],
        telemetry_decimation=sections["telemetry"]["decimation"],
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
