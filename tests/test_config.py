"""Configuration loading: happy path, invariant enforcement with key-path
diagnostics, unknown-key rejection, and environment resolution."""

from __future__ import annotations

import dataclasses
import math
import re

import pytest
import yaml

from fluxseek.errors import ConfigError
from fluxseek.harness import config as config_module
from fluxseek.harness.config import (
    ENV_CONFIG_VAR, DriveConfig, default_config_text, load_config, parse_config)
from fluxseek.machine import MachineParams
from fluxseek.optimizer import SearchSettings


@pytest.fixture()
def default_text() -> str:
    return default_config_text()


def test_packaged_default_loads(config):
    assert config.machine.rated_torque == 24.0
    assert config.machine.rotor_time_constant == pytest.approx(0.15)
    assert len(config.search.rulebase.rules) == 14
    # the YAML thirds are written with enough digits to parse to exact doubles
    third = 1.0 / 3.0
    centers = [-1.0, -2.0 * third, -third, 0.0, third, 2.0 * third, 1.0]
    assert [s.center for s in config.search.rulebase.power_change_sets] == centers
    assert [c for _, c in config.search.rulebase.output_centers] == centers
    assert config.search.steady_speed_tolerance == pytest.approx(
        0.005 * config.machine.rated_speed
    )
    assert {s.name for s in config.scenarios} >= {
        "quarter-load-search",
        "rated-flux-baseline",
        "short-demo",
    }


def test_explicit_path_and_env_resolution(tmp_path, monkeypatch, default_text):
    good = tmp_path / "drive.yaml"
    good.write_text(default_text.replace("rated_torque: 24.0", "rated_torque: 20.0"))
    monkeypatch.setenv(ENV_CONFIG_VAR, str(good))
    via_env = load_config()
    assert via_env.machine.rated_torque == 20.0
    # explicit flag wins over the environment
    other = tmp_path / "other.yaml"
    other.write_text(default_text)
    assert load_config(str(other)).machine.rated_torque == 24.0


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.yaml"))


def test_invalid_yaml_is_config_error():
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config("machine: [unclosed")


@pytest.mark.parametrize("text", ["a: [1, 2", "x: \x07"])
def test_yaml_syntax_errors_are_config_errors(text):
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config(text)


def _lagless(text: str) -> str:
    lagless = text.replace(
        "current_tracking_time_constant: 0.002", "current_tracking_time_constant: 0.0"
    )
    assert lagless != text
    return lagless


@pytest.mark.parametrize(
    "document",
    [
        lambda text: text,
        lambda text: yaml.safe_dump(yaml.safe_load(text)),
        _lagless,
    ],
    ids=["default", "safe-dump-round-trip", "ideal-tracking"],
)
def test_loader_gives_the_pure_python_loaders_config(default_text, monkeypatch, document):
    text = document(default_text)
    parsed = parse_config(text)
    monkeypatch.setattr(
        config_module, "_YAML_LOADER", config_module._with_yaml12_floats(yaml.SafeLoader))
    assert parse_config(text) == parsed


LOADERS = [yaml.SafeLoader, *([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])]


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_yaml12_floats_are_numbers(default_text, monkeypatch, loader):
    # YAML 1.1 floats need a dot: PyYAML alone reads 1e-4 as a string
    assert yaml.load("dt: 1e-4", Loader=loader) == {"dt": "1e-4"}
    taught = config_module._with_yaml12_floats(loader)
    document = "[1e-4, 5e-1, -6E0, +3e2, .5, 1.0e-4, 10, 0x1F, 1e3x, .inf]"
    assert yaml.load(document, Loader=taught) == [
        1e-4, 0.5, -6.0, 300.0, 0.5, 1e-4, 10, 31, "1e3x", float("inf")]
    monkeypatch.setattr(config_module, "_YAML_LOADER", taught)
    text = default_text.replace("dt: 1.0e-4", "dt: 1e-4").replace(
        "search_period: 0.5", "search_period: 5e-1")
    assert text.count("dt: 1e-4") == 4 and "search_period: 5e-1" in text
    assert parse_config(text) == parse_config(default_text)


DUPLICATES = {
    # PyYAML alone keeps the last value: 7.0 ohm in place of the shipped 0.7,
    # and a decimation of 3 from a second telemetry section
    "machine-key": ("machine:\n", "machine:\n  stator_resistance: 7.0\n", "stator_resistance"),
    "section": ("telemetry:\n", "telemetry:\n  decimation: 3\ntelemetry:\n", "telemetry"),
}


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("case", DUPLICATES.values(), ids=DUPLICATES)
def test_duplicate_keys_are_rejected(default_text, monkeypatch, loader, case):
    old, new, key = case
    text = default_text.replace(old, new, 1)
    first, second = re.finditer(rf"(?m)^ *{key}:", text)
    line = text.count("\n", 0, second.start()) + 1
    monkeypatch.setattr(config_module, "_YAML_LOADER", config_module._with_yaml12_floats(loader))
    with pytest.raises(ConfigError) as info:
        parse_config(text, source="drive.yaml")
    message = str(info.value)
    assert message.startswith("drive.yaml: not valid YAML: while constructing a mapping")
    assert f"found duplicate key {key!r}\n  in \"<unicode string>\", line {line}," in message


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_merge_keys_may_still_be_overridden(loader):
    # a mapping overrides what a merge (<<) brings in, also through a chain of
    # merges whose middle mapping is flattened before it is constructed
    taught = config_module._with_yaml12_floats(loader)
    document = (
        "defs:\n"
        "  base: &base {x: 1, y: 1}\n"
        "  middle: &middle {<<: *base, x: 2}\n"
        "use: {<<: *middle, y: 3}\n"
    )
    assert yaml.load(document, Loader=taught) == {
        "defs": {"base": {"x": 1, "y": 1}, "middle": {"x": 2, "y": 1}},
        "use": {"x": 2, "y": 3},
    }
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'x'"):
        yaml.load("a: &a {x: 1}\nb: {<<: *a, x: 2, x: 3}\n", Loader=taught)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_config_is_parsed_with_libyaml(default_text, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python loader was used")

    monkeypatch.setattr(yaml.SafeLoader, "__init__", refuse)
    assert parse_config(default_text).machine.rated_torque == 24.0


def test_min_excitation_invariant_names_the_key(default_text):
    broken = default_text.replace(
        "min_excitation_current: 0.5", "min_excitation_current: 6.0"
    )
    with pytest.raises(ConfigError, match="machine.*min_excitation_current"):
        parse_config(broken)


def test_min_excitation_below_the_flux_floor_rejected(default_text):
    # the search's lowest excitation must hold the flux at or above the floor:
    # below it a run clamped the flux silently and the sweep failed on it
    low = default_text.replace("min_excitation_current: 0.5", "min_excitation_current: 0.1")
    with pytest.raises(ConfigError) as info:
        parse_config(low)
    assert info.value.key == "machine.min_excitation_current"
    assert str(info.value) == (
        "machine.min_excitation_current: min_excitation_current 0.1 A gives rotor"
        " flux 0.014 Wb, below the flux floor 0.035 Wb"
    )


def test_power_change_gap_between_grid_points_rejected(default_text):
    # ZE ends at 0.004 and PS starts at 0.006: no power-change set fires in
    # between, where height defuzzification would find no rule fired
    gap = default_text.replace(
        "{label: ZE, left: -0.3333333333333333, center: 0.0, right: 0.3333333333333333}",
        "{label: ZE, left: -0.3333333333333333, center: 0.0, right: 0.004}",
    ).replace(
        "{label: PS, left: 0.0, center: 0.3333333333333333, right: 0.6666666666666666}",
        "{label: PS, left: 0.006, center: 0.3333333333333333, right: 0.6666666666666666}",
    )
    assert "center: 0.0, right: 0.004}" in gap and "{label: PS, left: 0.006," in gap
    with pytest.raises(ConfigError) as info:
        parse_config(gap)
    assert info.value.key == "fuzzy.power_change"
    assert str(info.value) == "fuzzy.power_change: power_change sets leave 0.004 uncovered"


def test_last_action_outer_gap_rejected(default_text):
    # N's outer foot at -0.8 leaves [-1, -0.8] to no last-action set: a 0.9
    # per-unit exploratory step then fires no rule at the first fuzzy step
    gap = default_text.replace(
        "{label: N, left: -0.5, center: -0.5, right: 0.05}",
        "{label: N, left: -0.8, center: -0.5, right: 0.05}",
    ).replace("initial_step_fraction: 0.5", "initial_step_fraction: 0.9")
    assert "{label: N, left: -0.8," in gap and "initial_step_fraction: 0.9" in gap
    with pytest.raises(ConfigError) as info:
        parse_config(gap)
    assert info.value.key == "fuzzy.last_action"
    assert str(info.value) == "fuzzy.last_action: last_action sets leave -1.0 uncovered"


def test_missing_rule_is_totality_error(default_text):
    broken = default_text.replace(
        "    - {power: PB, last: P, output: NM}\n", ""
    )
    with pytest.raises(ConfigError, match="not total"):
        parse_config(broken)


def test_duplicate_rule_rejected(default_text):
    broken = default_text.replace(
        "    - {power: PB, last: P, output: NM}",
        "    - {power: PB, last: N, output: NM}",
    )
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(broken)


@pytest.mark.parametrize(
    "needle,replacement,key_pattern",
    [
        ("  stator_resistance: 0.7", "  stator_resistance: 0.7\n  bogus_key: 1.0", r"machine.*bogus_key"),
        ("  speed_kp: 2.0", "  speed_kp: 2.0\n  extra: 3", r"control.*extra"),
        ("    a: 0.4", "    a: 0.4\n    c9: 1.0", r"fuzzy\.scaling.*c9"),
        ("  decimation: 10", "  decimation: 10\n  color: blue", r"telemetry.*color"),
        # YAML keys need not be strings; int and str keys do not sort together
        ("  stator_resistance: 0.7", "  stator_resistance: 0.7\n  1: 2", r"^machine: unknown key\(s\): 1$"),
        ("  stator_resistance: 0.7", "  stator_resistance: 0.7\n  1: 2\n  bogus: 3",
         r"^machine: unknown key\(s\): 1, bogus$"),
    ],
)
def test_unknown_keys_rejected_with_path(default_text, needle, replacement, key_pattern):
    broken = default_text.replace(needle, replacement)
    assert broken != default_text
    with pytest.raises(ConfigError, match=key_pattern):
        parse_config(broken)


@pytest.mark.parametrize(
    "needle,replacement,key_pattern",
    [
        ("friction: 0.002", "friction: .nan", r"machine\.friction"),
        ("converter_fixed_loss: 30.0", "converter_fixed_loss: .nan", r"machine\.converter_fixed_loss"),
        ("search_period: 0.5", "search_period: .inf", r"optimizer\.search_period"),
        ("speed: [0.0, 160.0]", "speed: [0.0, .inf]", r"fuzzy\.envelope\.speed"),
        ("inertia: 0.05", "inertia: 1" + "0" * 400, r"machine\.inertia"),
        ("pole_pairs: 2", "pole_pairs: 1" + "0" * 400, r"machine\.pole_pairs: expected a finite"),
        ("load_torque: [[0.0, 6.0]]", "load_torque: [[0.0, 1" + "0" * 400 + "]]", r"scenarios\[0\]\.load_torque\[0\]"),
        ("speed_kp: 2.0", "speed_kp: -1.0", r"control\.speed_kp: speed_kp must be >= 0, got -1\.0$"),
    ],
    ids=[
        "friction-nan", "converter-loss-nan", "search-period-inf", "envelope-inf",
        "huge-integer", "huge-pole-pairs", "profile-huge-integer", "negative-kp",
    ],
)
def test_bad_numbers_rejected_with_path(default_text, needle, replacement, key_pattern):
    broken = default_text.replace(needle, replacement)
    assert broken != default_text
    with pytest.raises(ConfigError, match=key_pattern):
        parse_config(broken)


def test_unstable_step_size_rejected(default_text):
    # short-demo at dt = 0.01 is past the RK4 limit on the 2 ms current lag
    # (it used to finish at 1e113 rad/s); at dt = 0.005 it is inside it.
    demo = "name: short-demo\n    duration: 1.0\n    dt: "
    assert demo + "1.0e-4" in default_text
    with pytest.raises(ConfigError, match=r"scenarios\[3\]\.dt: .*stability limit"):
        parse_config(default_text.replace(demo + "1.0e-4", demo + "0.01"))
    assert parse_config(default_text.replace(demo + "1.0e-4", demo + "0.005"))
    # with ideal tracking the rotor time constant (0.15 s) sets the limit
    ideal = default_text.replace(
        "current_tracking_time_constant: 0.002", "current_tracking_time_constant: 0.0"
    )
    # (durations of 10 whole steps)
    def ten_steps(dt):
        return ideal.replace(demo + "1.0e-4", demo.replace("1.0", repr(10 * dt)) + repr(dt))

    assert parse_config(ten_steps(0.4))
    with pytest.raises(ConfigError, match=r"scenarios\[3\]\.dt"):
        parse_config(ten_steps(0.42))


def test_step_count_above_the_cap_rejected_with_path(default_text):
    # 10**12 steps: the run's rows would not fit in memory
    demo = "name: short-demo\n    duration: 1.0\n    dt: 1.0e-4"
    assert demo in default_text
    with pytest.raises(ConfigError, match=r"^scenarios\[3\]\.dt: .*steps must be below") as info:
        parse_config(default_text.replace(demo, demo.replace("1.0e-4", "1.0e-12")))
    assert info.value.key == "scenarios[3].dt"


def test_fractional_duration_rejected_with_path(default_text):
    demo = "name: short-demo\n    duration: 1.0\n"
    assert demo in default_text
    with pytest.raises(ConfigError, match=r"^scenarios\[3\]\.duration: .*whole number") as info:
        parse_config(default_text.replace(demo, demo.replace("1.0", "0.00004")))
    assert info.value.key == "scenarios[3].duration"


def test_search_speed_outside_scaling_rejected(default_text):
    # The power base P_b = 0.4 w + 15 is negative at -80 rad/s: a searching
    # scenario that commands it is rejected where it enters, with its key.
    step_down = "speed_reference: [[0.0, 150.0], [0.5, -80.0]]"
    demo = "name: short-demo\n    duration: 1.0\n    dt: 1.0e-4\n    speed_reference: [[0.0, 150.0]]"
    assert demo in default_text
    broken = default_text.replace(demo, demo.replace("speed_reference: [[0.0, 150.0]]", step_down))
    with pytest.raises(ConfigError, match=r"scenarios\[3\]\.speed_reference: .*P_b = -17"):
        parse_config(broken)
    # without the search any speed is accepted
    baseline = "name: rated-flux-baseline\n    duration: 4.0\n    dt: 1.0e-4\n    speed_reference: [[0.0, 150.0]]"
    assert baseline in default_text
    assert parse_config(default_text.replace(
        baseline, baseline.replace("speed_reference: [[0.0, 150.0]]", step_down)
    ))


def test_search_load_outside_scaling_rejected(default_text):
    # I_b = 0.0015 w - 0.02 T + 0.52 at the steady torque T = load + 0.002 w:
    # negative at 150 rad/s and 40 N m, where the search used to fail at its
    # first sample. The check covers each speed and load in effect together:
    # 150 rad/s at 35 N m holds, but the speed step to 100 rad/s does not.
    demo = "name: short-demo\n    duration: 1.0\n    dt: 1.0e-4\n    speed_reference: [[0.0, 150.0]]\n    load_torque: [[0.0, 6.0]]"
    assert demo in default_text
    heavy = demo.replace("[[0.0, 6.0]]", "[[0.0, 40.0]]")
    with pytest.raises(ConfigError, match=r"scenarios\[3\]\.load_torque: .*I_b = -0\.061"):
        parse_config(default_text.replace(demo, heavy))
    assert parse_config(default_text.replace(demo, demo.replace("[[0.0, 6.0]]", "[[0.0, 35.0]]")))
    slower = demo.replace("[[0.0, 150.0]]", "[[0.0, 150.0], [0.5, 100.0]]").replace(
        "[[0.0, 6.0]]", "[[0.0, 35.0]]"
    )
    with pytest.raises(ConfigError, match=r"scenarios\[3\]\.load_torque: .*omega = 100, torque = 35\.2"):
        parse_config(default_text.replace(demo, slower))
    # without the search any load is accepted
    searching = demo + "\n    flc_enabled: true"
    assert searching in default_text
    assert parse_config(default_text.replace(searching, heavy + "\n    flc_enabled: false"))


def _set(path: str, value):
    """A change to a loaded document: the node at dotted ``path`` (list
    indices as numbers) becomes ``value``."""
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]

    def change(document):
        for part in parents:
            document = document[part]
        document[last] = value
    return change


@pytest.mark.parametrize(
    "change,key,message",
    [
        (_set("scenarios.0.name", 5), "scenarios[0].name", "expected a string"),
        (_set("scenarios.0.flc_enabled", 1), "scenarios[0].flc_enabled", "expected a boolean"),
        (_set("fuzzy.rules", "none"), "fuzzy.rules", "expected a list"),
        (_set("scenarios.0.speed_reference", [[0.0, 150.0, 1.0]]),
         "scenarios[0].speed_reference[0]", "expected a [time, value] pair"),
        (_set("scenarios.0.load_torque", [[0.0, math.nan]]),
         "scenarios[0].load_torque[0]", "expected a finite number"),
        (_set("scenarios.0.load_torque", []), "scenarios[0].load_torque",
         "load_torque profile must have at least one breakpoint"),
        (_set("scenarios.0.name", ""), "scenarios[0]", "scenario name must be non-empty"),
        (_set("fuzzy.envelope.speed", [0.0]), "fuzzy.envelope.speed",
         "expected [low, high] numbers"),
        (_set("fuzzy.envelope.speed", [160.0, 0.0]), "fuzzy.envelope.speed",
         "range must satisfy low < high"),
        (_set("control", 5), "control", "expected a mapping"),
        (_set("fuzzy.power_change.1.label", "NB"), "fuzzy.power_change",
         "power_change labels must be unique"),
        (_set("fuzzy.output.1.label", "NB"), "fuzzy.output", "output labels must be unique"),
        (lambda document: document["fuzzy"]["last_action"].append(
            {"label": "Z", "left": -0.1, "center": 0.0, "right": 0.1}),
         "fuzzy.last_action", "last_action needs exactly two sets"),
        (_set("fuzzy.rules.0.power", "XX"), "fuzzy", "rule references unknown power label 'XX'"),
        (_set("fuzzy.rules.0.last", "X"), "fuzzy",
         "rule references unknown last-action label 'X'"),
        (_set("fuzzy.last_action.0.center", 0.0), "fuzzy.last_action",
         "last_action centers must straddle zero"),
    ],
    ids=[
        "string", "boolean", "list", "profile-pair", "profile-non-finite", "profile-empty",
        "scenario-name-empty", "range-shape", "range-order", "section-mapping",
        "power-label-duplicate", "output-label-duplicate", "last-action-three-sets",
        "rule-power-unknown", "rule-last-unknown", "last-action-one-side",
    ],
)
def test_malformed_input_rejected_with_path(default_text, change, key, message):
    document = yaml.safe_load(default_text)
    change(document)
    with pytest.raises(ConfigError) as info:
        parse_config(yaml.safe_dump(document))
    assert info.value.key == key
    assert str(info.value) == f"{key}: {message}"


def test_scenario_switches_default_to_on(default_text):
    document = yaml.safe_load(default_text)
    baseline = document["scenarios"][2]
    assert baseline["name"] == "rated-flux-baseline"
    assert baseline.pop("flc_enabled") is False and baseline.pop("compensator_enabled") is False
    scenario = parse_config(yaml.safe_dump(document)).scenario("rated-flux-baseline")
    assert scenario.flc_enabled is True and scenario.compensator_enabled is True


def test_wrong_type_rejected(default_text):
    broken = default_text.replace("pole_pairs: 2", "pole_pairs: two")
    with pytest.raises(ConfigError, match="pole_pairs"):
        parse_config(broken)
    broken = default_text.replace("inertia: 0.05", "inertia: true")
    with pytest.raises(ConfigError, match="inertia"):
        parse_config(broken)


def test_envelope_positivity_enforced(default_text):
    broken = default_text.replace("torque: [0.0, 24.0]", "torque: [0.0, 40.0]")
    with pytest.raises(ConfigError, match="fuzzy.scaling"):
        parse_config(broken)


def test_scenario_profile_validation(default_text):
    broken = default_text.replace(
        "speed_reference: [[0.0, 150.0]]\n    load_torque: [[0.0, 6.0]]\n    flc_enabled: true\n    compensator_enabled: true\n\n  # The load steps",
        "speed_reference: [[1.0, 150.0]]\n    load_torque: [[0.0, 6.0]]\n    flc_enabled: true\n    compensator_enabled: true\n\n  # The load steps",
    )
    assert broken != default_text
    with pytest.raises(ConfigError, match=r"scenarios\[0\].*start at t = 0"):
        parse_config(broken)


def test_duplicate_scenario_names_rejected(default_text):
    broken = default_text.replace("name: short-demo", "name: quarter-load-search")
    with pytest.raises(ConfigError, match="duplicate scenario"):
        parse_config(broken)


def test_unknown_scenario_lookup_lists_known(config):
    with pytest.raises(ConfigError, match="quarter-load-search"):
        config.scenario("nope")


def test_commented_default_is_fully_documented(default_text):
    # The shipped file must carry its own explanation: every section present,
    # comments included.
    for section in ("machine:", "control:", "fuzzy:", "optimizer:", "compensator:", "telemetry:", "scenarios:"):
        assert re.search(rf"^{section}", default_text, flags=re.M)
    assert default_text.count("#") > 20


# Each bound is written once, as metadata on the dataclass field it constrains,
# and checked when the object is built: on load, by dataclasses.replace and by
# a plain constructor call alike.
BOUNDED = [
    (cls, f.name)
    for cls in (MachineParams, SearchSettings, DriveConfig)
    for f in dataclasses.fields(cls)
    if "bound" in f.metadata
]
SECTIONS = {MachineParams: "machine", SearchSettings: "optimizer", DriveConfig: "control"}
# the key a loaded config reads a bounded field from, where it is not
# "<section of its class>.<field>"
KEYS = {
    # converted, as a fraction of rated_speed, before it reaches the field
    "steady_speed_tolerance": "optimizer.steady_speed_tolerance_fraction",
    "flux_source": "compensator.flux_source",
    "compensation_mode": "compensator.mode",
    "telemetry_decimation": "telemetry.decimation",
}
BOUNDED_KEYS = {KEYS.get(name, f"{SECTIONS[cls]}.{name}"): (cls, name) for cls, name in BOUNDED}
# values just outside each bound, by its condition
OUTSIDE = {
    "> 0": (0,), ">= 0": (-0.001,), ">= 1": (0,), "in (0, 1)": (0, 1), "in (0, 1]": (0, 1.5),
    "one of": ("bogus", "guessed", "sometimes"),
}


def _condition(cls, name: str) -> str:
    return next(f for f in dataclasses.fields(cls) if f.name == name).metadata["bound"][0]


def _outside(condition: str) -> tuple:
    return OUTSIDE["one of" if condition.startswith("one of") else condition]


@pytest.mark.parametrize("cls, unbounded", [
    (MachineParams, {"min_excitation_current"}),  # bounded by rated_excitation_current
    (SearchSettings, {"rulebase", "gains"}),  # checked where they are built
    (DriveConfig, {"machine", "search", "scenarios"}),
], ids=["MachineParams", "SearchSettings", "DriveConfig"])
def test_every_number_and_choice_has_a_bound(cls, unbounded):
    # 16 bounded fields of MachineParams, 6 of SearchSettings and 5 of DriveConfig
    bounded = {name for owner, name in BOUNDED if owner is cls}
    assert {f.name for f in dataclasses.fields(cls) if f.init} - bounded == unbounded


@pytest.mark.parametrize(
    "cls, name", BOUNDED, ids=[f"{cls.__name__}.{name}" for cls, name in BOUNDED])
def test_bound_rejected_in_code(config, cls, name):
    # a value just outside the bound, and NaN, fail where the object is built,
    # by its constructor or by dataclasses.replace, with the field's name: a
    # resistance, rotor inductance or inertia of 0 used to fail with a bare
    # ZeroDivisionError, and a bad compensator choice only where a compensator
    # was built, which rated-flux-baseline never does
    built = {MachineParams: config.machine, SearchSettings: config.search, DriveConfig: config}[cls]
    condition = _condition(cls, name)
    arguments = {f.name: getattr(built, f.name) for f in dataclasses.fields(cls) if f.init}
    for value in (*_outside(condition), math.nan):
        message = f"^{re.escape(f'{name} must be {condition}, got {value!r}')}$"
        with pytest.raises(ValueError, match=message):
            cls(**{**arguments, name: value})
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(built, **{name: value})


@pytest.mark.parametrize("entry", BOUNDED_KEYS)
def test_table_bounds_rejected_with_path(default_text, entry):
    # a loaded value outside its field's bound fails at its dotted key
    section, key = entry.split(".")
    cls, name = BOUNDED_KEYS[entry]
    if name == "steady_speed_tolerance":  # bounded as a fraction, with the message it had
        condition, pattern = "in (0, 1)", re.escape(f"{entry}: must be in (0, 1)") + "$"
    else:
        condition = _condition(cls, name)
        pattern = re.escape(f"{entry}: {name} must be {condition}, got ")
    for value in _outside(condition):
        document = yaml.safe_load(default_text)
        document[section][key] = value
        with pytest.raises(ConfigError, match=f"^{pattern}") as info:
            parse_config(yaml.safe_dump(document))
        assert info.value.key == entry
