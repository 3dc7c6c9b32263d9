"""Configuration loading and validation.

One YAML file holds everything tunable: machine and loss constants, speed loop
gains, the fuzzy partition and rule table, scaling gains with their validity
envelope, supervisor thresholds, compensator switches, telemetry decimation
and the scenario list.

Each section is one table, key -> (kind[, default]). A section that builds
one dataclass (``machine``, ``fuzzy.scaling``, each fuzzy set and each
scenario) is read off that class's init fields: a field's name, annotation and
default are its key, kind and default, written nowhere else. One reader
applies every table: it rejects a node that is not a mapping, unknown keys and
missing required keys, and parses each value by its kind. The constructor a
value reaches checks its bound, written on the dataclass field it fills, and
the rules that tie keys together; ``parse_config`` applies the rules that tie
sections together. Every diagnostic carries the dotted key path.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources

import yaml

from ..compensator import COMPENSATION_MODES, FLUX_SOURCES
from ..errors import ConfigError
from ..fuzzy import FuzzyRuleBase, MembershipFunction, ScalingGains, input_gain, output_gain
from ..machine import COUNT, NONNEGATIVE, MachineParams, check_bounds, check_step_size
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
    speed_kp: float = field(metadata=NONNEGATIVE)
    speed_ki: float = field(metadata=NONNEGATIVE)
    search: SearchSettings
    flux_source: str = field(
        metadata={"bound": (f"one of {FLUX_SOURCES}", FLUX_SOURCES.__contains__)})
    compensation_mode: str = field(
        metadata={"bound": (f"one of {COMPENSATION_MODES}", COMPENSATION_MODES.__contains__)})
    telemetry_decimation: int = field(metadata=COUNT)
    scenarios: tuple[Scenario, ...]

    def __post_init__(self):  # also for a config built in code, as by dataclasses.replace
        check_bounds(self)

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


def _built(make, values: dict, keys: dict, key: str | None):
    """``make(**values)``; a ValueError from it is a ConfigError at the key in ``keys``
    of the field its message starts with, else at ``key``."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ConfigError(str(exc), key=keys.get(str(exc).partition(" ")[0], key)) from exc


# a field's kind, by its annotation: a string, as every module imports annotations
_KINDS = {"float": _number, "int": _integer, "str": _string, "bool": _boolean, "Profile": _profile}


def _section(table, make=dict):
    """The kind of a mapping read by ``table`` and built by ``_built(make, ...)``.
    A dataclass in place of ``table`` is read off its init fields and builds
    itself: a field's name is its key, its annotation (in ``_KINDS``) its kind
    and its default, if it has one, the key's default."""
    if isinstance(table, type):
        table, make = {
            f.name: (_KINDS[f.type], *(() if f.default is MISSING else (f.default,)))
            for f in fields(table) if f.init
        }, table

    def kind(node, key: str):
        return _built(make, _read(node, table, key), {f: f"{key}.{f}" for f in table}, key)
    return kind


def _entries(table, make=dict):
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
    for key, (kind, *default) in table.items():
        if key not in node:
            if not default:
                raise ConfigError("missing required key", key=f"{path}.{key}")
            values[key] = default[0]
        else:
            values[key] = kind(node[key], prefix + key)
    return values


# -- the schema ------------------------------------------------------------------


def _fuzzy(scaling, envelope, power_change, last_action, output, rules):
    scaling.validate_envelope(envelope["speed"], envelope["torque"])
    return scaling, FuzzyRuleBase(power_change, last_action, output, rules)


_CONTROL = {"speed_kp": (_number,), "speed_ki": (_number,)}
_ENVELOPE = {"speed": (_range,), "torque": (_range,)}
_SINGLETON = {"label": (_string,), "center": (_number,)}
_RULE = {"power": (_string,), "last": (_string,), "output": (_string,)}
_FUZZY = {
    "scaling": (_section(ScalingGains),),
    "envelope": (_section(_ENVELOPE),),
    "power_change": (_entries(MembershipFunction),),
    "last_action": (_entries(MembershipFunction),),
    "output": (_entries(_SINGLETON, lambda label, center: (label, center)),),
    "rules": (_entries(_RULE, lambda power, last, output: (power, last, output)),),
}
_OPTIMIZER = {
    "search_period": (_number,),
    "steady_speed_tolerance_fraction": (_number,),
    "steady_steps": (_integer,),
    "convergence_step_fraction": (_number,),
    "convergence_samples": (_integer,),
    "initial_step_fraction": (_number,),
}
_COMPENSATOR = {
    "flux_source": (_string,),
    "mode": (_string,),
}
_TELEMETRY = {"decimation": (_integer,)}
# the document; its sections' paths carry no prefix
_ROOT = {
    "machine": (_section(MachineParams),),
    "control": (_section(_CONTROL),),
    "fuzzy": (_section(_FUZZY, _fuzzy),),
    "optimizer": (_section(_OPTIMIZER),),
    "compensator": (_section(_COMPENSATOR),),
    "telemetry": (_section(_TELEMETRY),),
    "scenarios": (_entries(Scenario),),
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
    if not 0.0 < tolerance_fraction < 1.0:  # a fraction of rated_speed, not a field's value
        raise ConfigError("must be in (0, 1)", key="optimizer.steady_speed_tolerance_fraction")
    search = _built(SearchSettings, dict(optimizer, rulebase=rulebase, gains=gains,
                    steady_speed_tolerance=tolerance_fraction * machine.rated_speed),
                    {f: f"optimizer.{f}" for f in _OPTIMIZER}, "optimizer")

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

    keys = {  # the key each bounded DriveConfig field is read from
        "speed_kp": "control.speed_kp",
        "speed_ki": "control.speed_ki",
        "flux_source": "compensator.flux_source",
        "compensation_mode": "compensator.mode",
        "telemetry_decimation": "telemetry.decimation",
    }
    return _built(DriveConfig, dict(
        machine=machine,
        **sections["control"],
        search=search,
        flux_source=sections["compensator"]["flux_source"],
        compensation_mode=sections["compensator"]["mode"],
        telemetry_decimation=sections["telemetry"]["decimation"],
        scenarios=scenarios,
    ), keys, None)


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
