"""Fuzzy efficiency controller: per-unit scaling, fuzzification over
normalized universes, min-AND rule inference, and height defuzzification.

The controller turns a measured dc-link power change and the previous
excitation step into the next excitation-current decrement. Operating-point
dependent gains (an affine power base P_b and an affine current base I_b)
normalize both sides so a single rule base serves every torque and speed
condition: equal per-unit inputs produce equal per-unit outputs. The two
antecedents are triangular partitions; each consequent is a singleton, a
label and the center that height defuzzification reads. The rule base and the
gains travel in ``optimizer.SearchSettings``, which holds everything one
search reads apart from the machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError, InferenceError
from .machine import MachineParams

@dataclass(frozen=True)
class MembershipFunction:
    """Triangular membership on the normalized [-1, 1] axis.

    A foot equal to the center marks a shoulder: the degree saturates at 1 on
    that side instead of falling back to 0.
    """

    label: str
    left: float
    center: float
    right: float

    def __post_init__(self) -> None:
        if not self.left <= self.center <= self.right:
            raise ValueError(
                f"set {self.label}: feet must satisfy left <= center <= right"
            )

    def degree(self, x: float) -> float:
        if x == self.center:
            return 1.0
        if x < self.center:
            if self.left == self.center:
                return 1.0
            if x <= self.left:
                return 0.0
            return (x - self.left) / (self.center - self.left)
        if self.right == self.center:
            return 1.0
        if x >= self.right:
            return 0.0
        return (self.right - x) / (self.right - self.center)


@dataclass(frozen=True)
class FuzzyRule:
    """IF power-change is `power` AND last action is `last`
    THEN excitation increment is `output`."""

    power: str
    last: str
    output: str


def _check_coverage(name: str, sets: tuple[MembershipFunction, ...]) -> None:
    """Raise ValueError unless every point of [-1, 1] fires at least one of
    ``sets``. A set fires on the open interval between its feet, a shoulder
    reaching outward without end; x is the least point not yet shown to fire one."""
    supports = [
        (-math.inf if s.left == s.center else s.left,
         math.inf if s.right == s.center else s.right)
        for s in sets
    ]
    x = -1.0
    while x <= 1.0:
        reach = max((right for left, right in supports if left < x), default=x)
        if reach <= x:
            raise ValueError(f"{name} sets leave {x!r} uncovered")
        x = reach


@dataclass(frozen=True)
class FuzzyRuleBase:
    """Linguistic variables and the 14-entry rule table.

    Validated for totality (every power x last-action pair appears exactly
    once), for both antecedent partitions, power change and last action,
    covering all of [-1, 1], and for a nonempty small overlap of the two
    last-action sets around zero, so the height defuzzifier can never see an
    all-zero firing vector.
    """

    power_change_sets: tuple[MembershipFunction, ...]
    last_action_sets: tuple[MembershipFunction, ...]
    output_centers: tuple[tuple[str, float], ...]  # (label, center) singletons
    rules: tuple[FuzzyRule, ...]
    # the center of each rule's output, in rule-table order
    rule_output_centers: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        power_labels = [s.label for s in self.power_change_sets]
        last_labels = [s.label for s in self.last_action_sets]
        output_labels = [label for label, _ in self.output_centers]
        for name, labels in (
            ("power_change", power_labels),
            ("last_action", last_labels),
            ("output", output_labels),
        ):
            if len(set(labels)) != len(labels):
                raise ValueError(f"{name} labels must be unique")
        if len(last_labels) != 2:
            raise ValueError("last_action needs exactly two sets")

        seen: set[tuple[str, str]] = set()
        for rule in self.rules:
            if rule.power not in power_labels:
                raise ValueError(f"rule references unknown power label {rule.power!r}")
            if rule.last not in last_labels:
                raise ValueError(f"rule references unknown last-action label {rule.last!r}")
            if rule.output not in output_labels:
                raise ValueError(f"rule references unknown output label {rule.output!r}")
            key = (rule.power, rule.last)
            if key in seen:
                raise ValueError(f"duplicate rule for antecedent {key}")
            seen.add(key)
        missing = [
            (p, l) for p in power_labels for l in last_labels if (p, l) not in seen
        ]
        if missing:
            raise ValueError(f"rule table not total, missing antecedents: {missing}")

        _check_coverage("power_change", self.power_change_sets)
        neg = min(self.last_action_sets, key=lambda s: s.center)
        pos = max(self.last_action_sets, key=lambda s: s.center)
        if not (neg.center < 0.0 < pos.center):
            raise ValueError("last_action centers must straddle zero")
        if not (neg.right > 0.0 > pos.left):
            raise ValueError(
                "last_action sets must overlap around zero"
                " (height defuzzification would be indeterminate)"
            )
        _check_coverage("last_action", self.last_action_sets)

        centers = dict(self.output_centers)
        object.__setattr__(
            self, "rule_output_centers", tuple(centers[r.output] for r in self.rules)
        )


@dataclass(frozen=True)
class ScalingGains:
    """Coefficients of the operating-point gains P_b = a*w + b and
    I_b = c1*w - c2*T + c3."""

    a: float   # W s/rad
    b: float   # W
    c1: float  # A s/rad
    c2: float  # A/(N m)
    c3: float  # A

    def validate_envelope(
        self, speed_range: tuple[float, float], torque_range: tuple[float, float]
    ) -> None:
        """Both gains are affine, so positivity over the box follows from
        positivity at its corners."""
        for w in speed_range:
            input_gain(self, w)
            for t in torque_range:
                output_gain(self, w, t)


def input_gain(gains: ScalingGains, omega_r: float) -> float:
    """Power normalization base at the given speed; positive or it is a
    configuration error."""
    p_b = gains.a * omega_r + gains.b
    if p_b <= 0.0:
        raise ConfigError(
            f"input gain P_b = {p_b:g} at omega = {omega_r:g} must be > 0",
            key="fuzzy.scaling",
        )
    return p_b


def output_gain(gains: ScalingGains, omega_r: float, torque_estimate: float) -> float:
    """Excitation-step normalization base at the operating point; positive or
    it is a configuration error."""
    i_b = gains.c1 * omega_r - gains.c2 * torque_estimate + gains.c3
    if i_b <= 0.0:
        raise ConfigError(
            f"output gain I_b = {i_b:g} at omega = {omega_r:g},"
            f" torque = {torque_estimate:g} must be > 0",
            key="fuzzy.scaling",
        )
    return i_b


def estimate_torque(params: MachineParams, i_ds_cmd: float, i_qs_cmd: float) -> float:
    """Command-based torque estimate K_t' * i_ds* * i_qs* (exact at
    field-oriented steady state)."""
    return params.torque_constant_current * i_ds_cmd * i_qs_cmd


def fuzzify(x: float, sets: tuple[MembershipFunction, ...]) -> dict[str, float]:
    """Membership degree of each set at x clamped into [-1, 1]."""
    if x > 1.0:
        x = 1.0
    elif x < -1.0:
        x = -1.0
    return {s.label: s.degree(x) for s in sets}


def infer(rulebase: FuzzyRuleBase, dp_pu: float, last_di_pu: float) -> tuple[float, ...]:
    """min-AND firing strength of every rule, in rule-table order."""
    power_deg = fuzzify(dp_pu, rulebase.power_change_sets)
    last_deg = fuzzify(last_di_pu, rulebase.last_action_sets)
    return tuple(
        min(power_deg[r.power], last_deg[r.last]) for r in rulebase.rules
    )


def height_defuzzify(strengths: tuple[float, ...], rulebase: FuzzyRuleBase) -> float:
    """Firing-strength-weighted mean of the consequent set centers."""
    centers = rulebase.rule_output_centers
    num = 0.0
    den = 0.0
    for w, c in zip(strengths, centers):
        num += w * c
        den += w
    if den == 0.0:
        raise InferenceError("no rule fired; rule base coverage is defective")
    return num / den


def efficiency_step(
    rulebase: FuzzyRuleBase, p_b: float, i_b: float, dp_d: float, last_di_ds: float
) -> float:
    """One fuzzy search step at power base ``p_b`` and current base ``i_b``:
    normalized inference scaled back to amperes.

    Returns I_b * defuzzify(infer(dP_d / P_b, last_di_ds / I_b)). Negative
    output continues the flux decrement, positive reverses it.
    """
    return i_b * height_defuzzify(infer(rulebase, dp_d / p_b, last_di_ds / i_b), rulebase)
