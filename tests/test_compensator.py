"""Feedforward compensation: the flux-current product identity, the
re-latch fold, the predicted trajectory, and anchor bookkeeping."""

from __future__ import annotations

import dataclasses
import math
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxseek.compensator import TorqueCompensator, predicted_flux_trajectory
from fluxseek.errors import FluxFloorError

from conftest import reference_boost


def anchored(config, psi=1.0, iqs=10.0) -> TorqueCompensator:
    """A measured, continuous compensator latched once at (psi, iqs), base 0."""
    comp = TorqueCompensator(config.machine)
    comp.latch(psi, iqs, 4.0, 0.0)
    return comp


def refolded(params, psi_prev, psi_now, iqs_prev) -> float:
    """The base of a discrete compensator latched at (psi_prev, iqs_prev), base
    0, and then at psi_now: one re-latch fold."""
    comp = TorqueCompensator(params, mode="discrete")
    comp.latch(psi_prev, iqs_prev, 4.0, 0.0)
    comp.latch(psi_now, 0.0, 3.5, 0.5)
    return comp.base


# -- continuous form -----------------------------------------------------------


def test_no_flux_change_no_boost(config):
    assert anchored(config).output(1.0, 0.1) == 0.0


def test_continuous_hand_case(config):
    assert anchored(config, 1.0, 10.0).output(0.8, 0.1) == pytest.approx(2.5, rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    psi0=st.floats(0.05, 2.0),
    frac=st.floats(-0.9, 1.0),
    iqs0=st.floats(-20.0, 20.0),
)
def test_product_invariance_identity(config, psi0, frac, iqs0):
    # (Psi0 + dPsi) * (iqs0 + diqs) == Psi0 * iqs0: the defining equality.
    psi = psi0 + frac * psi0
    delta = anchored(config, psi0, iqs0).output(psi, 0.1)
    assert psi * (iqs0 + delta) == pytest.approx(psi0 * iqs0, rel=1e-9, abs=1e-9)


def test_continuous_denominator_guard(config):
    with pytest.raises(FluxFloorError):
        anchored(config, 1.0, 10.0).output(0.0, 0.1)
    with pytest.raises(FluxFloorError):
        anchored(config, 1.0, 10.0).output(-0.1, 0.1)


def test_boost_positive_when_flux_falls(config):
    assert anchored(config, 0.7, 5.0).output(0.6, 0.1) > 0.0
    assert anchored(config, 0.7, 5.0).output(0.8, 0.1) < 0.0


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def latch_sequences(draw):
    """Latches as (flux, PI output, new excitation command, time), at
    increasing times, with flux and commands inside the drive's range."""
    t = 0.0
    latches = []
    for _ in range(draw(st.integers(1, 4))):
        t += draw(st.floats(0.0, 1.0))
        latches.append((draw(st.floats(0.035, 1.4)), draw(st.floats(-25.0, 25.0)),
                        draw(st.floats(0.5, 5.0)), t))
    return latches


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    flux_source=st.sampled_from(("measured", "predicted")),
    mode=st.sampled_from(("continuous", "discrete")),
    latches=latch_sequences(),
    psi=st.one_of(st.floats(-0.5, 2.0), st.sampled_from((math.nan, math.inf, -math.inf))),
    later=st.floats(0.0, 2.0),
)
# a predicted latch at the instant of one at the floor latches at the floor
@example(flux_source="predicted", mode="continuous",
         latches=[(0.035, 0.0, 2.5, 0.0), (1.0, 0.0, 1.0, 0.0)], psi=0.0, later=0.0)
# a measured flux at zero, and a NaN one: the denominator guard
@example(flux_source="measured", mode="continuous", latches=[(0.7, 3.0, 4.0, 0.0)],
         psi=0.0, later=0.1)
@example(flux_source="measured", mode="continuous", latches=[(0.7, 3.0, 4.0, 0.0)],
         psi=math.nan, later=0.1)
def test_output_is_the_boost_formula_bit_for_bit(config, flux_source, mode, latches, psi, later):
    # after each latch, output `later` seconds on against conftest's
    # reference_boost: the same float, or the same FluxFloorError, from the
    # latch below the floor or from the denominator guard; 0.0 before the first
    params = config.machine
    comp = TorqueCompensator(params, flux_source, mode)
    assert _bits(comp.output(psi, 0.0)) == _bits(0.0)
    for n, latch in enumerate(latches, 1):
        t = latch[3] + later
        try:
            expected = reference_boost(params, flux_source, mode, latches[:n], psi, t)
        except FluxFloorError as error:
            with pytest.raises(FluxFloorError, match=f"^{re.escape(str(error))}$"):
                comp.latch(*latch)
                comp.output(psi, t)
            if str(error).startswith("cannot latch"):
                return
            continue
        comp.latch(*latch)
        assert _bits(comp.output(psi, t)) == _bits(expected)


# -- discrete form: the re-latch fold --------------------------------------------------


def test_discrete_no_change_no_step(config):
    assert refolded(config.machine, 0.8, 0.8, 10.0) == 0.0


def test_discrete_hand_case(config):
    assert refolded(config.machine, 1.0, 0.8, 10.0) == pytest.approx(2.5, rel=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    psi_prev=st.floats(0.05, 2.0),
    ratio=st.floats(0.1, 2.0),
    iqs_prev=st.floats(-20.0, 20.0),
)
def test_discrete_torque_invariance(config, psi_prev, ratio, iqs_prev):
    # K_t cancels: psi_now * (iqs + step) == psi_prev * iqs exactly. A tenth
    # of the magnetizing inductance puts the flux floor (0.0035 Wb) below
    # every psi_now drawn.
    params = dataclasses.replace(
        config.machine, magnetizing_inductance=config.machine.magnetizing_inductance / 10)
    psi_now = ratio * psi_prev
    step = refolded(params, psi_prev, psi_now, iqs_prev)
    assert psi_now * (iqs_prev + step) == pytest.approx(
        psi_prev * iqs_prev, rel=1e-9, abs=1e-9
    )


def test_discrete_floor_guard(config):
    comp = TorqueCompensator(config.machine, mode="discrete")
    comp.latch(1.0, 10.0, 4.0, 0.0)
    with pytest.raises(FluxFloorError):
        comp.latch(0.0, 0.0, 3.5, 0.5)
    assert comp.base == 0.0 and comp.psi_at_step == 1.0


# -- predicted trajectory ----------------------------------------------------------------


def test_trajectory_starts_at_initial_flux(config):
    assert predicted_flux_trajectory(config.machine, 1.0, 4.0, 0.0) == 1.0


def test_trajectory_starts_at_an_anchor_on_the_floor(config):
    # an anchor on the floor must stay on it at t = 0, or a predicted latch at
    # that instant fails below the floor although the flux never left it
    params = config.machine
    assert predicted_flux_trajectory(params, params.flux_floor, 2.5, 0.0) == params.flux_floor
    comp = TorqueCompensator(params, flux_source="predicted")
    comp.latch(params.flux_floor, 0.0, 2.5, 0.0)
    comp.latch(1.0, 0.0, 1.0, 0.0)
    assert comp.psi_at_step == params.flux_floor


@settings(max_examples=300, deadline=None, derandomize=True)
@given(psi0_frac=st.floats(0.0, 1.0), i_ds_frac=st.floats(0.0, 1.0), t=st.floats(0.0, 5.0))
def test_trajectory_stays_between_its_anchor_and_its_target(config, psi0_frac, i_ds_frac, t):
    params = config.machine
    psi0 = params.flux_floor + psi0_frac * (params.rated_flux - params.flux_floor)
    i_ds = params.min_excitation_current + i_ds_frac * (
        params.rated_excitation_current - params.min_excitation_current)
    target = params.magnetizing_inductance * i_ds
    psi = predicted_flux_trajectory(params, psi0, i_ds, t)
    assert min(psi0, target) <= psi <= max(psi0, target)


def test_trajectory_reaches_target(config):
    params = config.machine
    target = params.magnetizing_inductance * 4.0
    psi = predicted_flux_trajectory(params, 1.0, 4.0, 10.0 * params.rotor_time_constant)
    assert psi == pytest.approx(target, abs=1e-4)


def test_trajectory_one_time_constant(config):
    params = config.machine
    i_new = 0.8 / params.magnetizing_inductance
    psi = predicted_flux_trajectory(params, 1.0, i_new, params.rotor_time_constant)
    assert psi == pytest.approx(0.8 + 0.2 * math.exp(-1.0), rel=1e-12)


def test_trajectory_rejects_negative_time(config):
    with pytest.raises(ValueError):
        predicted_flux_trajectory(config.machine, 1.0, 4.0, -0.1)


# -- loop bookkeeping -------------------------------------------------------------------


def test_compensator_inactive_until_latched(config):
    comp = TorqueCompensator(config.machine)
    assert comp.output(0.7, 0.0) == 0.0


def test_total_boost_grows_as_flux_falls(config):
    comp = TorqueCompensator(config.machine)
    comp.latch(0.7, 3.0, 4.0, 0.0)
    assert comp.output(0.7, 0.0) == 0.0
    out_a = comp.output(0.65, 0.1)
    out_b = comp.output(0.60, 0.2)
    assert 0.0 < out_a < out_b


def test_relatch_keeps_total_command_continuous(config):
    comp = TorqueCompensator(config.machine)
    pi_out = 3.0
    comp.latch(0.7, pi_out, 4.0, 0.0)
    before = comp.output(0.62, 0.49)
    comp.latch(0.62, pi_out, 3.5, 0.5)
    after = comp.output(0.62, 0.5)
    assert after == pytest.approx(before, rel=1e-12)


def test_relatch_fold_equals_discrete_step(config):
    # the continuous mode folds into its base what the discrete mode outputs
    comp = TorqueCompensator(config.machine)
    pi_out = 3.0
    comp.latch(0.7, pi_out, 4.0, 0.0)
    comp.latch(0.62, pi_out, 3.5, 0.5)
    assert comp.base == (0.7 - 0.62) / 0.62 * (pi_out + 0.0)
    assert comp.base == refolded(config.machine, 0.7, 0.62, pi_out)


def test_discrete_mode_holds_boost_between_samples(config):
    comp = TorqueCompensator(config.machine, mode="discrete")
    comp.latch(0.7, 3.0, 4.0, 0.0)
    assert comp.output(0.6, 0.2) == 0.0  # no intra-sample tracking
    comp.latch(0.6, 3.0, 3.5, 0.5)
    held = comp.output(0.55, 0.7)
    assert held == comp.base == (0.7 - 0.6) / 0.6 * 3.0


def test_predicted_mode_follows_closed_form(config):
    params = config.machine
    measured = TorqueCompensator(params, flux_source="measured")
    predicted = TorqueCompensator(params, flux_source="predicted")
    i_new = 3.0
    for comp in (measured, predicted):
        comp.latch(0.7, 3.0, i_new, 0.0)
    # When the measured flux follows the closed form exactly, the two sources
    # must agree.
    t = 0.3
    psi_exact = predicted_flux_trajectory(params, 0.7, i_new, t)
    assert predicted.output(float("nan"), t) == pytest.approx(
        measured.output(psi_exact, t), rel=1e-12
    )
    # the predicted output runs the trajectory itself, so a time before the
    # latch is rejected as the trajectory rejects a negative time
    with pytest.raises(ValueError, match="t must be >= 0"):
        predicted.output(0.7, -0.1)


def test_latch_below_floor_rejected(config):
    comp = TorqueCompensator(config.machine)
    with pytest.raises(FluxFloorError):
        comp.latch(0.0, 3.0, 4.0, 0.0)


@pytest.mark.parametrize("mode", ["continuous", "discrete"])
@pytest.mark.parametrize("psi", [math.nan, math.inf, -math.inf])
def test_latch_rejects_non_finite_flux(config, mode, psi):
    # a non-finite first latch would make every anchor, and so every later
    # base and boost, non-finite
    for flux_source in ("measured", "predicted"):
        comp = TorqueCompensator(config.machine, flux_source, mode)
        with pytest.raises(FluxFloorError, match="non-finite"):
            comp.latch(psi, 3.0, 4.0, 0.0)
        assert comp.output(0.7, 0.1) == 0.0  # still not latched
    # at a later latch, where the measured flux is read, the anchors hold
    comp = TorqueCompensator(config.machine, mode=mode)
    comp.latch(0.7, 3.0, 4.0, 0.0)
    comp.latch(0.65, 3.0, 3.5, 0.5)
    held = (comp.base, comp.psi_at_step, comp.iqs_at_step)
    with pytest.raises(FluxFloorError, match="non-finite"):
        comp.latch(psi, 3.0, 3.0, 1.0)
    assert (comp.base, comp.psi_at_step, comp.iqs_at_step) == held


@pytest.mark.parametrize("flux_source", ["measured", "predicted"])
@pytest.mark.parametrize("mode", ["continuous", "discrete"])
def test_time_varying_says_whether_output_moves_between_latches(config, flux_source, mode):
    comp = TorqueCompensator(config.machine, flux_source=flux_source, mode=mode)
    comp.latch(0.7, 3.0, 4.0, 0.0)
    comp.latch(0.69, 3.0, 3.5, 0.5)
    moves = comp.output(0.68, 0.6) != comp.output(0.68, 0.9)
    assert comp.time_varying == moves == (flux_source == "predicted" and mode == "continuous")
