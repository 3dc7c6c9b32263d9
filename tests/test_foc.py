"""Speed loop: the reference PI's law, saturation and conditional
anti-windup (``simulate`` writes the same update inline, and the reference
loop test ties the two bit for bit), and closed-loop settling at rated flux."""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from fluxseek.harness.runner import simulate
from fluxseek.harness.scenario import Scenario, constant_scenario

from conftest import speed_pi_step
from test_reference_loop import _assert_matches_reference

LIMIT = 25.0


def pi(integrator, error, kp=2.0, ki=40.0, dt=1e-4):
    return speed_pi_step(integrator, error, kp, ki, LIMIT, dt)


def test_zero_error_zero_integrator_gives_zero():
    _, out = pi(0.0, 100.0 - 100.0)
    assert out == 0.0


def test_proportional_only_hand_case():
    _, out = pi(0.0, 1.5, kp=2.0, ki=0.0)
    assert out == 3.0


def test_saturation_freezes_integrator():
    integrator, out = pi(1.0, 1000.0)
    assert out == LIMIT
    assert integrator == 1.0


def test_integrator_unwinds_when_saturated_against_error():
    # Output pinned high by the integrator while the error is negative: the
    # integrator must keep integrating (down), not freeze.
    integrator, out = pi(25.0, -1.0, kp=0.0, ki=10.0, dt=1e-2)
    assert out == LIMIT
    assert integrator < 25.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
        min_size=1,
        max_size=60,
    )
)
def test_integrator_never_exceeds_output_limit(sequence):
    integrator = 0.0
    for ref, meas in sequence:
        integrator, out = pi(integrator, ref - meas, ki=80.0, dt=1e-3)
        assert abs(integrator) <= LIMIT
        assert abs(out) <= LIMIT


def test_drive_command_clamps_into_limits(config):
    # A reference step far beyond what the torque limit can follow pins the
    # torque-current command at both limits; the search drives the excitation
    # command down towards its minimum, never out of [min, rated]. The step
    # stops the drive: the search cannot run at reverse speeds past -37.5
    # rad/s, where its power base P_b is no longer positive.
    params = config.machine
    scenario = Scenario(
        name="clamp",
        duration=3.0,
        dt=1e-4,
        speed_reference=((0.0, 150.0), (2.5, 0.0)),
        load_torque=((0.0, 1.0),),
    )
    records = simulate(scenario, config, decimation=1).records
    i_qs = [r.i_qs_cmd for r in records]
    i_ds = [r.i_ds_cmd for r in records]
    assert max(i_qs) == params.max_torque_current
    assert min(i_qs) == -params.max_torque_current
    assert max(i_ds) == params.rated_excitation_current
    assert min(i_ds) >= params.min_excitation_current
    assert min(i_ds) < params.rated_excitation_current


def test_speed_step_settles_with_zero_steady_state_error(config):
    # Rated flux, no search, no compensation: the designed loop must hold the
    # reference with error under 0.1% of rated speed once settled.
    scenario = constant_scenario(
        "settle", 2.0, 1e-4, config.machine.rated_speed, 6.0,
        flc_enabled=False, compensator_enabled=False,
    )
    result = simulate(scenario, config)
    settled = [r for r in result.records if r.time >= 1.5]
    tolerance = 1e-3 * config.machine.rated_speed
    assert all(abs(r.omega_ref - r.omega_r) < tolerance for r in settled)



def test_integral_only_loop_meets_the_integrator_clamp(config):
    # With kp = 0 the PI output is the integrator itself, so it is the
    # integrator that meets the limit: simulate's inline clamp must hold it at
    # +/- the limit as the reference PI does, bit for bit, up and down.
    cfg = dataclasses.replace(config, speed_kp=0.0)
    scenario = Scenario("integral", 1.0, 1e-3, ((0.0, 150.0), (0.5, 0.0)), ((0.0, 1.0),),
                        flc_enabled=False, compensator_enabled=False)
    _assert_matches_reference(scenario, cfg, 1)
    commands = [r.i_qs_cmd for r in simulate(scenario, cfg, decimation=1).records]
    assert max(commands) == config.machine.max_torque_current == -min(commands)
