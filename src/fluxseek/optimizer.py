"""Search samples: slow power sampling, fuzzy step application with
clamping, and the convergence flag.

The drive has two positions. During transients the excitation command is held
at rated for best dynamic response. Once the speed error has stayed inside a
small band long enough, the supervisor samples dc-link power on a slow period
and walks the excitation command toward minimum input power; any speed or
load command change abandons the search immediately and drops its state.

The runner owns the drive mode: it detects the steady state and abandons the
search, on events, not on every step. Between them the only rule is the band
test ``abs(error) <= steady_speed_tolerance``; the search is entered on the
``steady_steps``-th consecutive in-band step, and ``Scenario.sample_steps``
gives the steps of its power samples. The runner builds a ``SearchState`` at
each entry and drops it at the abandon, and logs its ``converged`` flag at each
sample. ``SearchSettings`` is everything one search reads apart from the
machine, which the caller passes to each sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fuzzy import (
    FuzzyRuleBase, ScalingGains, efficiency_step, estimate_torque, input_gain, output_gain)
from .machine import COUNT, FRACTION, FRACTION_OR_ONE, POSITIVE, MachineParams, check_bounds


@dataclass(frozen=True)
class SearchSettings:
    """Everything one search reads apart from the machine: the rule base, the scaling
    gains, and the supervisor's thresholds and periods, each checked against its field's bound."""

    rulebase: FuzzyRuleBase
    gains: ScalingGains
    search_period: float = field(metadata=POSITIVE)  # s between power samples
    steady_speed_tolerance: float = field(metadata=POSITIVE)  # rad/s steady-state band
    steady_steps: int = field(metadata=COUNT)  # consecutive in-band steps before search
    convergence_step_fraction: float = field(metadata=FRACTION)  # of I_b; smaller steps count
    convergence_samples: int = field(metadata=COUNT)  # small steps in a row to converge
    initial_step_fraction: float = field(metadata=FRACTION_OR_ONE)  # of I_b; the first step

    def __post_init__(self) -> None:
        check_bounds(self)


@dataclass
class SearchState:
    """Mutable state of one search, from its entry to its abandon; owned and
    advanced by one simulation loop."""

    previous_power: float | None = None  # None until the priming sample
    last_di_ds: float | None = None       # the applied step; None until the first
    converged: bool = False
    convergence_counter: int = 0


def search_sample(
    state: SearchState,
    settings: SearchSettings,
    params: MachineParams,
    p_d: float,
    omega_r: float,
    i_ds_cmd: float,
    i_qs_cmd: float,
) -> float:
    """One slow-period power sample: advances ``state`` and returns the new
    excitation command.

    The first sample after search entry only primes the power memory (the power
    increment is undefined without a predecessor). The next sample launches
    the search with the configured exploratory decrement; after that, steps
    come from the fuzzy controller. The recorded last step is the applied,
    post-clamp one, so direction memory reflects reality, and the convergence
    flag is true exactly when the last ``convergence_samples`` applied steps
    were each below threshold.

    With direction memory exactly zero the antisymmetric rule table
    recommends no move for any power change; in the closed loop the converged
    tail keeps a tiny nonzero step, so sustained power drift re-arms stepping
    within a few samples as the memory regrows.
    """
    if state.previous_power is None:
        state.previous_power = p_d
        return i_ds_cmd

    i_b = output_gain(settings.gains, omega_r, estimate_torque(params, i_ds_cmd, i_qs_cmd))
    if state.last_di_ds is None:
        di = -settings.initial_step_fraction * i_b
    else:
        p_b = input_gain(settings.gains, omega_r)
        di = efficiency_step(
            settings.rulebase, p_b, i_b, p_d - state.previous_power, state.last_di_ds)
    lo = params.min_excitation_current
    hi = params.rated_excitation_current
    new_cmd = min(max(i_ds_cmd + di, lo), hi)
    applied = new_cmd - i_ds_cmd

    state.last_di_ds = applied
    state.previous_power = p_d
    if abs(applied) < settings.convergence_step_fraction * i_b:
        state.convergence_counter += 1
    else:
        state.convergence_counter = 0
    state.converged = state.convergence_counter >= settings.convergence_samples
    return new_cmd
