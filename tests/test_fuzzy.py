"""Fuzzy controller: membership geometry, scaling gains, inference, height
defuzzification, and the search policy properties."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxseek.errors import ConfigError, InferenceError
from fluxseek.fuzzy import (
    FuzzyRuleBase,
    MembershipFunction,
    ScalingGains,
    efficiency_step,
    estimate_torque,
    fuzzify,
    height_defuzzify,
    infer,
    input_gain,
    output_gain,
)

THIRD = 1.0 / 3.0


@pytest.fixture(scope="module")
def rulebase(config):
    return config.search.rulebase


@pytest.fixture(scope="module")
def controller(config):
    """What one fuzzy step reads: the gains, the rule base and the machine."""
    return config.search.gains, config.search.rulebase, config.machine


# -- membership functions ------------------------------------------------------


def test_degree_is_one_at_center(rulebase):
    for s in rulebase.power_change_sets:
        assert s.degree(s.center) == 1.0


def test_degree_midway_between_adjacent_centers(rulebase):
    nb, nm = rulebase.power_change_sets[0], rulebase.power_change_sets[1]
    mid = 0.5 * (nb.center + nm.center)
    assert nb.degree(mid) == pytest.approx(0.5, rel=1e-12)
    assert nm.degree(mid) == pytest.approx(0.5, rel=1e-12)


def test_shoulder_saturates_outward():
    shoulder = MembershipFunction("N", -0.5, -0.5, 0.05)
    assert shoulder.degree(-0.5) == 1.0
    assert shoulder.degree(-0.9) == 1.0
    assert shoulder.degree(0.05) == 0.0


def test_feet_ordering_enforced():
    with pytest.raises(ValueError):
        MembershipFunction("X", 0.5, 0.0, 1.0)


def test_fuzzify_clamps_to_unit_interval(rulebase):
    assert fuzzify(-3.0, rulebase.power_change_sets) == fuzzify(
        -1.0, rulebase.power_change_sets
    )
    assert fuzzify(2.0, rulebase.power_change_sets) == fuzzify(
        1.0, rulebase.power_change_sets
    )


def test_fuzzify_clamps_before_a_set_reaching_past_one(rulebase):
    # PB as a triangle whose right foot lies past the universe: unclamped, it
    # would fire at 0.6 at x = 1.2 instead of 1 at x = 1
    sets = rulebase.power_change_sets[:-1] + (
        MembershipFunction("PB", 2.0 * THIRD, 1.0, 1.5),)
    assert fuzzify(1.2, sets) == fuzzify(1.0, sets)
    assert fuzzify(1.0, sets)[-1] == 1.0


def test_degrees_stay_in_unit_interval(rulebase):
    for i in range(-120, 121):
        x = i / 100.0
        for s in rulebase.power_change_sets + rulebase.last_action_sets:
            assert 0.0 <= s.degree(min(max(x, -1.0), 1.0)) <= 1.0


# -- rule base validation ---------------------------------------------------------


def test_default_rulebase_is_total(rulebase):
    assert len(rulebase.rules) == 14
    antecedents = {(power, last) for power, last, _ in rulebase.rules}
    assert len(antecedents) == 14


def test_missing_rule_rejected(rulebase):
    with pytest.raises(ValueError, match="not total"):
        FuzzyRuleBase(
            power_change_sets=rulebase.power_change_sets,
            last_action_sets=rulebase.last_action_sets,
            output_centers=rulebase.output_centers,
            rules=rulebase.rules[:-1],
        )


def test_duplicate_rule_rejected(rulebase):
    with pytest.raises(ValueError, match="duplicate"):
        FuzzyRuleBase(
            power_change_sets=rulebase.power_change_sets,
            last_action_sets=rulebase.last_action_sets,
            output_centers=rulebase.output_centers,
            rules=rulebase.rules + (rulebase.rules[0],),
        )


def test_unknown_label_rejected(rulebase):
    bad = rulebase.rules[:-1] + (("PB", "N", "XX"),)
    with pytest.raises(ValueError, match="unknown output label"):
        FuzzyRuleBase(
            power_change_sets=rulebase.power_change_sets,
            last_action_sets=rulebase.last_action_sets,
            output_centers=rulebase.output_centers,
            rules=bad,
        )


def test_coverage_gap_rejected(rulebase):
    # Narrow the power sets so the middle of the universe fires nothing.
    narrow = tuple(
        MembershipFunction(s.label, s.center - 0.01 if s.label != "NB" else s.center,
                           s.center, s.center + 0.01 if s.label != "PB" else s.center)
        for s in rulebase.power_change_sets
    )
    with pytest.raises(ValueError, match="uncovered"):
        FuzzyRuleBase(
            power_change_sets=narrow,
            last_action_sets=rulebase.last_action_sets,
            output_centers=rulebase.output_centers,
            rules=rulebase.rules,
        )


@pytest.mark.parametrize(
    "changes,uncovered",
    [
        # two feet meet: their common point fires neither set
        ({"ZE": {"right": 0.005}, "PS": {"left": 0.005}}, 0.005),
        # a gap between the points of a 0.01 grid
        ({"ZE": {"right": 0.004}, "PS": {"left": 0.006}}, 0.004),
        # PB reaches the end of the universe only as a shoulder
        ({"PB": {"center": 0.8}}, 1.0),
    ],
)
def test_coverage_checked_exactly_at_the_feet(rulebase, changes, uncovered):
    sets = {s.label: s for s in rulebase.power_change_sets}
    for label, fields in changes.items():
        sets[label] = dataclasses.replace(sets[label], **fields)
    assert not any(s.degree(uncovered) for s in sets.values())
    with pytest.raises(ValueError, match=f"leave {uncovered!r} uncovered"):
        FuzzyRuleBase(
            power_change_sets=tuple(sets.values()),
            last_action_sets=rulebase.last_action_sets,
            output_centers=rulebase.output_centers,
            rules=rulebase.rules,
        )


def test_last_action_overlap_required(rulebase):
    gap = (
        MembershipFunction("N", -0.5, -0.5, -0.01),
        MembershipFunction("P", 0.01, 0.5, 0.5),
    )
    with pytest.raises(ValueError, match="overlap"):
        FuzzyRuleBase(
            power_change_sets=rulebase.power_change_sets,
            last_action_sets=gap,
            output_centers=rulebase.output_centers,
            rules=rulebase.rules,
        )


@pytest.mark.parametrize(
    "changes,uncovered",
    [
        # P ends at 0.5 without a shoulder: a larger step fires no set
        ({"P": {"center": 0.25}}, 0.5),
        # N's outer foot falls short of -1
        ({"N": {"left": -0.8}}, -1.0),
    ],
)
def test_last_action_coverage_checked(rulebase, changes, uncovered):
    sets = {s.label: s for s in rulebase.last_action_sets}
    for label, fields in changes.items():
        sets[label] = dataclasses.replace(sets[label], **fields)
    assert not any(s.degree(uncovered) for s in sets.values())
    with pytest.raises(ValueError, match=f"^last_action sets leave {uncovered!r} uncovered$"):
        FuzzyRuleBase(
            power_change_sets=rulebase.power_change_sets,
            last_action_sets=tuple(sets.values()),
            output_centers=rulebase.output_centers,
            rules=rulebase.rules,
        )


def test_overlap_band_is_small_around_zero(rulebase):
    n = next(s for s in rulebase.last_action_sets if s.label == "N")
    p = next(s for s in rulebase.last_action_sets if s.label == "P")
    # Both fire only strictly inside the +-0.05 band.
    for x in (-0.2, -0.06, 0.06, 0.2):
        assert min(n.degree(x), p.degree(x)) == 0.0
    for x in (-0.04, 0.0, 0.04):
        assert n.degree(x) > 0.0 and p.degree(x) > 0.0


# -- scaling gains ------------------------------------------------------------------


def test_input_gain_intercept_and_hand_case():
    gains = ScalingGains(a=2.0, b=50.0, c1=0.01, c2=0.05, c3=1.0)
    assert input_gain(gains, 0.0) == 50.0
    assert input_gain(gains, 100.0) == 250.0


def test_input_gain_monotone_increasing():
    gains = ScalingGains(a=2.0, b=50.0, c1=0.01, c2=0.05, c3=1.0)
    values = [input_gain(gains, w) for w in (0.0, 50.0, 100.0, 150.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_input_gain_nonpositive_is_config_error():
    gains = ScalingGains(a=-1.0, b=10.0, c1=0.01, c2=0.05, c3=1.0)
    with pytest.raises(ConfigError):
        input_gain(gains, 20.0)


def test_output_gain_intercept_and_hand_case():
    gains = ScalingGains(a=2.0, b=50.0, c1=0.01, c2=0.05, c3=1.0)
    assert output_gain(gains, 0.0, 0.0) == 1.0
    assert output_gain(gains, 100.0, 6.0) == pytest.approx(1.70, rel=1e-12)


def test_output_gain_decreases_with_torque():
    gains = ScalingGains(a=2.0, b=50.0, c1=0.01, c2=0.05, c3=1.0)
    assert output_gain(gains, 100.0, 12.0) < output_gain(gains, 100.0, 6.0)


def test_output_gain_nonpositive_is_config_error():
    gains = ScalingGains(a=2.0, b=50.0, c1=0.0, c2=0.05, c3=0.1)
    with pytest.raises(ConfigError):
        output_gain(gains, 100.0, 10.0)


def test_envelope_validation():
    gains = ScalingGains(a=0.4, b=15.0, c1=0.0015, c2=0.02, c3=0.52)
    gains.validate_envelope((0.0, 160.0), (0.0, 24.0))
    with pytest.raises(ConfigError):
        gains.validate_envelope((0.0, 160.0), (0.0, 30.0))


def test_estimate_torque_cases(config):
    params = config.machine
    assert estimate_torque(params, 0.0, 5.0) == 0.0
    assert estimate_torque(params, 5.0, 0.0) == 0.0
    # K_t' = 1.5 * p * L_m^2 / L_r = 1.2 N m / A^2
    custom = dataclasses.replace(
        params,
        rotor_inductance=1.5 * params.pole_pairs * params.magnetizing_inductance ** 2 / 1.2,
    )
    assert estimate_torque(custom, 4.0, 5.0) == pytest.approx(24.0, rel=1e-12)


def test_estimate_matches_developed_torque_at_steady_state(config):
    params = config.machine
    i_ds, i_qs = 3.0, 7.0
    psi = params.magnetizing_inductance * i_ds
    assert estimate_torque(params, i_ds, i_qs) == pytest.approx(
        params.power_terms(psi, params.rated_speed, i_ds, i_qs)[0], rel=1e-12
    )


# -- inference and defuzzification -----------------------------------------------------


def test_example_rule_fires_fully(rulebase):
    # Power change at the NM center with a decrementing history: the (NM, N)
    # rule fires at 1 and every P-row rule at 0.
    strengths = infer(rulebase, -2.0 * THIRD, -1.0)
    by_rule = dict(zip(rulebase.rules, strengths))
    assert by_rule[("NM", "N", "NM")] == 1.0
    for rule, strength in by_rule.items():
        if rule[1] == "P":
            assert strength == 0.0


def test_touched_rules_fire_at_half(rulebase):
    # Power midway between NB and NM; history where N fires at 0.5 and P at 0.
    mid_power = 0.5 * (-1.0 + -2.0 * THIRD)
    strengths = infer(rulebase, mid_power, -0.225)
    by_rule = dict(zip(rulebase.rules, strengths))
    assert by_rule[("NB", "N", "NB")] == pytest.approx(0.5, rel=1e-12)
    assert by_rule[("NM", "N", "NM")] == pytest.approx(0.5, rel=1e-12)
    assert sum(1 for s in strengths if s > 0.0) == 2


def test_zero_history_is_determinate(rulebase):
    strengths = infer(rulebase, -2.0 * THIRD, 0.0)
    n_strength = sum(
        s for r, s in zip(rulebase.rules, strengths) if r[1] == "N"
    )
    p_strength = sum(
        s for r, s in zip(rulebase.rules, strengths) if r[1] == "P"
    )
    assert n_strength > 0.0 and p_strength > 0.0
    height_defuzzify(strengths, rulebase)  # must not raise


def test_height_defuzzify_single_rule(rulebase):
    strengths = [0.0] * 14
    idx = rulebase.rules.index(("NM", "N", "NM"))
    strengths[idx] = 0.37
    assert height_defuzzify(tuple(strengths), rulebase) == -2.0 * THIRD


def test_height_defuzzify_two_rule_hand_case(rulebase):
    # Strengths 0.5/0.5 on centers -1/3 and 0 give exactly -1/6.
    strengths = [0.0] * 14
    strengths[rulebase.rules.index(("NS", "N", "NS"))] = 0.5
    strengths[rulebase.rules.index(("ZE", "N", "ZE"))] = 0.5
    assert height_defuzzify(tuple(strengths), rulebase) == -1.0 / 6.0


def test_height_defuzzify_scale_invariance(rulebase):
    strengths = infer(rulebase, -0.42, -0.7)
    scaled = tuple(0.3 * s for s in strengths)
    assert height_defuzzify(scaled, rulebase) == pytest.approx(
        height_defuzzify(strengths, rulebase), rel=1e-12
    )


def test_all_zero_strengths_raise(rulebase):
    with pytest.raises(InferenceError):
        height_defuzzify((0.0,) * 14, rulebase)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dp=st.floats(-3.0, 3.0), last=st.floats(-3.0, 3.0))
def test_defuzzified_output_stays_in_unit_interval(rulebase, dp, last):
    out = height_defuzzify(infer(rulebase, dp, last), rulebase)
    assert -1.0 <= out <= 1.0


def _renamed(s: MembershipFunction) -> MembershipFunction:
    return dataclasses.replace(s, label=f"renamed-{s.label}")


@pytest.mark.parametrize("variant", ["sets reordered", "labels renamed"])
def test_rule_base_resolves_by_label_not_by_position(controller, variant):
    # The packaged rules run in set order, so a rule_table built from the
    # rules' positions rather than their labels would pass every other test.
    # The rule order stays, so the defuzzifier sums in the same order.
    gains, rulebase, params = controller
    if variant == "sets reordered":
        other = FuzzyRuleBase(
            power_change_sets=rulebase.power_change_sets[::-1],
            last_action_sets=rulebase.last_action_sets[::-1],
            output_centers=rulebase.output_centers[::-1],
            rules=rulebase.rules,
        )
    else:
        other = FuzzyRuleBase(
            power_change_sets=tuple(map(_renamed, rulebase.power_change_sets)),
            last_action_sets=tuple(map(_renamed, rulebase.last_action_sets)),
            output_centers=tuple((f"renamed-{label}", center)
                                 for label, center in rulebase.output_centers),
            rules=tuple(tuple(f"renamed-{label}" for label in rule) for rule in rulebase.rules),
        )
    p_b = input_gain(gains, 150.0)
    i_b = output_gain(gains, 150.0, estimate_torque(params, 5.0, 3.15))
    for dp_pu in [i / 24.0 for i in range(-30, 31)] + [-0.42, 0.07, 0.555]:
        for last_pu in [i / 40.0 for i in range(-48, 49)] + [-0.07, 0.013]:
            strengths = infer(other, dp_pu, last_pu)
            assert [s.hex() for s in strengths] == [
                s.hex() for s in infer(rulebase, dp_pu, last_pu)]
            assert efficiency_step(other, p_b, i_b, dp_pu * p_b, last_pu * i_b).hex() == (
                efficiency_step(rulebase, p_b, i_b, dp_pu * p_b, last_pu * i_b).hex())


# -- search policy through efficiency_step -------------------------------------------


def step_at(controller, dp_pu, last_pu, omega=150.0, i_ds=5.0, i_qs=3.15):
    gains, rulebase, params = controller
    p_b = input_gain(gains, omega)
    i_b = output_gain(gains, omega, estimate_torque(params, i_ds, i_qs))
    return efficiency_step(rulebase, p_b, i_b, dp_pu * p_b, last_pu * i_b), i_b


def test_continue_decrementing_on_power_drop(controller):
    out, _ = step_at(controller, -0.4, -0.5)
    assert out < 0.0


def test_reverse_with_reduced_magnitude_on_power_rise(controller):
    out, _ = step_at(controller, 0.6, -0.5)
    continue_out, _ = step_at(controller, -0.6, -0.5)
    assert out > 0.0
    assert abs(out) < abs(continue_out)


def test_zero_power_change_gives_near_zero_step(controller):
    out, i_b = step_at(controller, 0.0, -0.5)
    assert abs(out) <= THIRD * i_b
    assert out == 0.0  # ZE consequent sits exactly at zero for this partition


@pytest.mark.parametrize("dp_pu", [-1.0, -0.8, -0.55, -0.3, -0.1, -0.02])
@pytest.mark.parametrize("last_pu", [-0.6, 0.6])
def test_direction_policy_continue(controller, dp_pu, last_pu):
    out, _ = step_at(controller, dp_pu, last_pu)
    assert out != 0.0
    assert (out > 0.0) == (last_pu > 0.0)


@pytest.mark.parametrize("dp_pu", [0.02, 0.1, 0.3, 0.55, 0.8, 1.0])
@pytest.mark.parametrize("last_pu", [-0.6, 0.6])
def test_direction_policy_reverse(controller, dp_pu, last_pu):
    out, _ = step_at(controller, dp_pu, last_pu)
    assert out != 0.0
    assert (out > 0.0) == (last_pu < 0.0)


@pytest.mark.parametrize("last_pu", [-0.6, 0.6])
def test_magnitude_monotone_in_power_change(controller, last_pu):
    grid = [i / 20.0 for i in range(21)]
    magnitudes = [abs(step_at(controller, dp, last_pu)[0]) for dp in grid]
    assert all(b >= a - 1e-12 for a, b in zip(magnitudes, magnitudes[1:]))


@pytest.mark.parametrize("dp_pu", [0.4, 0.6, 0.8, 1.0])
def test_reversal_always_smaller_than_continue_at_same_change(controller, dp_pu):
    reverse, _ = step_at(controller, dp_pu, -0.5)
    cont, _ = step_at(controller, -dp_pu, -0.5)
    assert abs(reverse) < abs(cont)


@pytest.mark.parametrize(
    "point_a,point_b",
    [((150.0, 5.0, 3.15), (100.0, 4.0, 6.0)), ((150.0, 3.0, 7.0), (60.0, 5.0, 2.0))],
)
def test_per_unit_invariance_across_operating_points(controller, point_a, point_b):
    # Equal per-unit inputs produce equal per-unit outputs regardless of the
    # operating point: the sense in which one rule base serves all conditions.
    for dp_pu, last_pu in ((-0.45, -0.3), (0.7, 0.2), (-0.15, 0.9)):
        out_a, i_b_a = step_at(controller, dp_pu, last_pu, *point_a)
        out_b, i_b_b = step_at(controller, dp_pu, last_pu, *point_b)
        assert out_a / i_b_a == pytest.approx(out_b / i_b_b, rel=1e-12)
