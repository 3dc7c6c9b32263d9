"""Machine model: parameter invariants, the coupled step's flux and
mechanical integration against closed forms and against a generic RK4, and
``power_terms``' torque, slip, losses and power against hand cases and the
textbook formulas."""

from __future__ import annotations

import dataclasses
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxseek.errors import FluxFloorError, NonFiniteError
from fluxseek.machine import (
    FLUX_FLOOR_FRACTION, RK4_STABILITY_LIMIT, InductionMachine, MachineParams)

from conftest import reference_power_terms, reference_step


def build_params(**overrides) -> MachineParams:
    kwargs = dict(
        stator_resistance=0.7,
        rotor_resistance=0.98,
        magnetizing_inductance=0.14,
        rotor_inductance=0.147,
        pole_pairs=2,
        inertia=0.05,
        friction=0.002,
        iron_loss_eddy_coeff=0.0106,
        iron_loss_hysteresis_coeff=1.58,
        converter_fixed_loss=30.0,
        converter_resistive_coeff=0.15,
        current_tracking_time_constant=0.002,
        rated_excitation_current=5.0,
        min_excitation_current=0.5,
        max_torque_current=25.0,
        rated_speed=150.0,
        rated_torque=24.0,
    )
    kwargs.update(overrides)
    return MachineParams(**kwargs)


def make_state(psi=0.7, omega=150.0, i_ds=5.0, i_qs=12.0) -> tuple[float, float, float, float]:
    """(rotor flux, rotor speed, i_ds, i_qs), the order ``step`` takes and returns."""
    return psi, omega, i_ds, i_qs


# -- parameter invariants -----------------------------------------------------


def test_build_derives_consistent_constants():
    p = build_params()
    assert p.rotor_time_constant == p.rotor_inductance / p.rotor_resistance
    assert p.rated_flux == p.magnetizing_inductance * p.rated_excitation_current
    assert p.torque_constant_flux == pytest.approx(
        1.5 * p.pole_pairs * p.magnetizing_inductance / p.rotor_inductance
    )


# The derived constants are computed, not taken: a mismatched one cannot be set.


def test_wrong_rotor_time_constant_rejected():
    p = build_params()
    with pytest.raises(ValueError, match="rotor_time_constant"):
        dataclasses.replace(p, rotor_time_constant=0.2)


def test_wrong_rated_flux_rejected():
    p = build_params()
    with pytest.raises(ValueError, match="rated_flux"):
        dataclasses.replace(p, rated_flux=0.5)


def test_wrong_torque_constant_pair_rejected():
    p = build_params()
    with pytest.raises(ValueError, match="torque_constant_flux"):
        dataclasses.replace(p, torque_constant_flux=p.torque_constant_flux * 2)


# Constants left stale by dataclasses.replace would pass every test on the
# default parameters: after each replacement, the algebra is the textbook's.
@pytest.mark.parametrize("name, value", [
    ("rated_excitation_current", 6.0), ("stator_resistance", 1.1), ("iron_loss_eddy_coeff", 0.02),
])
def test_replace_derives_the_algebra_again(name, value):
    p = dataclasses.replace(build_params(), **{name: value})
    assert getattr(p, name) == value
    assert p.flux_floor == FLUX_FLOOR_FRACTION * p.rated_flux
    for state in ((0.7, 150.0, 5.0, 12.0), (0.3, -80.0, 2.0, -7.5), (p.flux_floor, 0.0, 0.0, 0.0)):
        assert bits(p.power_terms(*state)) == bits(reference_power_terms(p, *state))


def test_min_excitation_must_be_below_rated():
    with pytest.raises(ValueError, match="min_excitation_current"):
        build_params(min_excitation_current=5.0)
    with pytest.raises(ValueError, match="min_excitation_current"):
        build_params(min_excitation_current=-1.0)


# -- rotor flux ----------------------------------------------------------------
#
# With ideal current tracking and no torque current, the coupled step's flux
# obeys dPsi/dt = (L_m * i_ds - Psi) / tau_r alone.


def ideal_machine(dt, **overrides) -> tuple[MachineParams, InductionMachine]:
    p = build_params(current_tracking_time_constant=0.0, **overrides)
    return p, InductionMachine(p, dt)


def test_flux_equilibrium_is_a_fixed_point():
    p, m = ideal_machine(1e-4)
    state = make_state(psi=p.magnetizing_inductance * 3.0, i_ds=3.0, i_qs=0.0)
    stepped = m.step(*state, 3.0, 0.0, 0.0)
    assert stepped[0] == state[0]


def test_flux_decay_matches_closed_form_at_one_time_constant():
    # Oracle: Psi(t) = target + (Psi0 - target) * exp(-t / tau_r).
    dt = 1e-4
    p, m = ideal_machine(dt)
    i_ds = p.rated_excitation_current / 2.0
    state = make_state(psi=p.rated_flux, i_ds=i_ds, i_qs=0.0)
    n = round(p.rotor_time_constant / dt)
    for _ in range(n):
        state = m.step(*state, i_ds, 0.0, 0.0)
    expected = p.rated_flux * (0.5 + 0.5 * math.exp(-1.0))
    assert state[0] == pytest.approx(expected, rel=1e-4)


def test_flux_settles_within_one_percent_after_five_time_constants():
    # exp(-5) < 0.01, so both the residual gap fraction and the deviation
    # relative to the new target are under 1% for a step to half rated.
    dt = 1e-4
    p, m = ideal_machine(dt)
    i_ds = p.rated_excitation_current / 2.0
    target = p.magnetizing_inductance * i_ds
    state = make_state(psi=p.rated_flux, i_ds=i_ds, i_qs=0.0)
    for _ in range(round(5.0 * p.rotor_time_constant / dt)):
        state = m.step(*state, i_ds, 0.0, 0.0)
    assert abs(state[0] - target) < 0.01 * (p.rated_flux - target)
    assert state[0] == pytest.approx(target, rel=0.01)


def test_flux_converges_to_tenth_percent_after_seven_time_constants():
    dt = 1e-4
    p, m = ideal_machine(dt)
    i_ds = 4.0
    target = p.magnetizing_inductance * i_ds
    state = make_state(psi=p.rated_flux, i_ds=i_ds, i_qs=0.0)
    for _ in range(round(7.0 * p.rotor_time_constant / dt)):
        state = m.step(*state, i_ds, 0.0, 0.0)
    assert abs(state[0] - target) / target < 1e-3


def test_flux_step_preconditions():
    # A non-finite command reaches the new state and is rejected there, in
    # both the lagged and the ideal-tracking form of the step.
    state = make_state()
    for m in (InductionMachine(build_params(), 1e-4), ideal_machine(1e-4)[1]):
        with pytest.raises(NonFiniteError):
            m.step(*state, float("nan"), 12.0, 6.0)
        with pytest.raises(NonFiniteError):
            m.step(*state, 5.0, float("inf"), 6.0)


def test_flux_clamped_at_floor():
    p, m = ideal_machine(1e-4)
    state = make_state(psi=p.flux_floor, i_ds=0.0, i_qs=0.0)
    stepped = m.step(*state, 0.0, 0.0, 0.0)
    assert stepped[0] == p.flux_floor


# -- torque and slip -------------------------------------------------------------
#
# power_terms returns (torque, stator copper, rotor copper, iron, converter,
# input power). Slip shows in the iron loss: it sets the electrical frequency.


def test_developed_torque_zero_factors():
    # zero flux is below the floor, where power_terms raises
    p = build_params()
    assert p.power_terms(0.7, 150.0, 5.0, 0.0)[0] == 0.0


def test_developed_torque_hand_case():
    # K_t = 1.5 via pole_pairs=1 and L_m == L_r.
    p = build_params(
        pole_pairs=1,
        magnetizing_inductance=0.1,
        rotor_inductance=0.1,
        rated_excitation_current=7.0,
    )
    assert p.torque_constant_flux == pytest.approx(1.5, rel=1e-15)
    assert p.power_terms(0.8, 150.0, 5.0, 10.0)[0] == pytest.approx(12.0, rel=1e-12)


def test_slip_zero_torque_current():
    # at standstill the electrical frequency is the slip alone
    p = build_params()
    assert p.power_terms(0.7, 0.0, 5.0, 0.0)[3] == 0.0


def test_slip_simplifies_at_field_oriented_steady_state():
    # With Psi = L_m * i_ds and i_qs = i_ds, slip = 1 / tau_r. At standstill
    # with hysteresis loss only, iron loss is |slip| * Psi^2 W.
    p = build_params(
        rotor_inductance=0.147, rotor_resistance=0.735,  # tau_r = 0.2
        iron_loss_eddy_coeff=0.0, iron_loss_hysteresis_coeff=1.0,
    )
    assert p.rotor_time_constant == pytest.approx(0.2)
    i = 4.0
    psi = p.magnetizing_inductance * i
    assert p.power_terms(psi, 0.0, i, i)[3] == pytest.approx(5.0 * psi * psi, rel=1e-12)


def test_slip_errors_below_flux_floor():
    p = build_params()
    below = math.nextafter(p.flux_floor, 0.0)
    with pytest.raises(FluxFloorError) as error:
        p.power_terms(below, 150.0, 5.0, 12.0)
    assert str(error.value) == "slip undefined: rotor flux 0.035 below floor 0.035"
    with pytest.raises(FluxFloorError):
        p.power_terms(0.0, 150.0, 5.0, 0.0)


def test_slip_sign_follows_torque_current():
    # motoring, slip adds to the rotor's electrical frequency; braking, it
    # subtracts: iron loss grows with the electrical frequency
    p = build_params()
    iron = [p.power_terms(0.7, 100.0, 5.0, i_qs)[3] for i_qs in (3.0, 0.0, -3.0)]
    assert iron[0] > iron[1] > iron[2]


# -- mechanics ---------------------------------------------------------------------
#
# With ideal current tracking, either no torque current or flux at its fixed
# point keeps the developed torque constant over the run.


def test_mechanical_balance_keeps_speed():
    p, m = ideal_machine(1e-4, friction=0.0)
    psi = p.magnetizing_inductance * 5.0
    state = make_state(psi=psi, omega=100.0, i_ds=5.0, i_qs=12.0)
    # the load equals the developed torque, in the step's own product order
    t_load = p.torque_constant_flux * psi * 12.0
    stepped = m.step(*state, 5.0, 12.0, t_load)
    assert stepped[0] == psi
    assert stepped[1] == state[1]


def test_constant_acceleration_closed_form():
    # Oracle: omega = (T / J) * t for B = 0; with no torque current, a
    # negative load of 1 N m is the only torque.
    dt = 1e-4
    p, m = ideal_machine(dt, inertia=0.1, friction=0.0)
    state = make_state(omega=0.0, i_ds=5.0, i_qs=0.0)
    for _ in range(round(1.0 / dt)):
        state = m.step(*state, 5.0, 0.0, -1.0)
    assert state[1] == pytest.approx(10.0, rel=1e-4)


def test_friction_decay_closed_form():
    # Oracle: omega(t) = omega0 * exp(-B t / J) with no applied torque.
    dt = 1e-3
    p, m = ideal_machine(dt, inertia=0.05, friction=0.01)
    tau = p.inertia / p.friction
    omega0 = 120.0
    state = make_state(omega=omega0, i_ds=5.0, i_qs=0.0)
    for _ in range(round(3.0 * tau / dt)):
        state = m.step(*state, 5.0, 0.0, 0.0)
    assert state[1] == pytest.approx(omega0 * math.exp(-3.0), rel=1e-3)


def test_mechanical_rejects_non_finite():
    m = InductionMachine(build_params(), 1e-4)
    with pytest.raises(NonFiniteError, match="rotor_speed=nan"):
        m.step(*make_state(), 5.0, 12.0, float("inf"))


# -- losses and power ------------------------------------------------------------------


def test_losses_at_zero_excitation():
    # no current at standstill, at the lowest flux allowed
    p = build_params()
    t_e, stator, rotor, iron, converter, p_in = p.power_terms(p.flux_floor, 0.0, 0.0, 0.0)
    assert (t_e, stator, rotor, iron) == (0.0, 0.0, 0.0, 0.0)
    assert converter == p.converter_fixed_loss
    assert p_in == p.converter_fixed_loss


def test_halving_flux_quarters_iron_loss():
    # with no torque current, slip is zero and the electrical frequency is
    # p * omega_r at any flux
    p = build_params()
    full = p.power_terms(0.7, 150.0, 5.0, 0.0)[3]
    half = p.power_terms(0.5 * 0.7, 150.0, 5.0, 0.0)[3]
    assert half == 0.25 * full


def test_losses_hand_sum_at_rated_point():
    # Spreadsheet evaluation of the four formulas at the default rated point:
    # i_ds = 5, i_qs = 12, Psi = 0.7, omega_e = 2 * 150 + 16 = 316, and
    # torque 24 N m.
    p = build_params()
    t_e, stator, rotor, iron, converter, p_in = p.power_terms(0.7, 150.0, 5.0, 12.0)
    assert t_e == pytest.approx(24.0, rel=1e-12)
    assert stator == pytest.approx(177.45, rel=1e-12)
    assert rotor == pytest.approx(192.0, rel=1e-12)
    assert iron == pytest.approx(763.299264, rel=1e-12)
    assert converter == pytest.approx(55.35, rel=1e-12)
    assert p_in == pytest.approx(24.0 * 150.0 + 1188.099264, rel=1e-12)


def test_iron_loss_strictly_decreasing_in_flux():
    p = build_params()
    values = [p.power_terms(psi, 150.0, 5.0, 12.0)[3] for psi in (0.7, 0.5, 0.3, 0.1)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_copper_loss_strictly_increasing_in_torque_current():
    p = build_params()
    terms = [p.power_terms(0.7, 150.0, 5.0, i_qs) for i_qs in (1.0, 3.0, 9.0, 15.0)]
    copper = [t[1] + t[2] for t in terms]
    assert all(a < b for a, b in zip(copper, copper[1:]))


def test_input_power_cases():
    p = build_params()
    # at standstill the input power is the losses alone
    t_e, *losses, p_in = p.power_terms(0.7, 0.0, 5.0, 12.0)
    assert t_e > 0.0 and p_in == sum(losses)
    # turning backwards against the torque, the shaft returns more than the
    # losses take
    assert p.power_terms(0.7, -150.0, 5.0, 10.0)[5] < 0.0


def test_energy_bookkeeping_is_exact():
    p = build_params()
    psi, omega, i_ds, i_qs = make_state()
    t_e, stator, rotor, iron, converter, p_in = p.power_terms(psi, omega, i_ds, i_qs)
    assert p_in - t_e * omega - (stator + rotor + iron + converter) == 0.0


def test_negative_loss_rejected():
    # a machine built in code may have a negative fixed converter loss
    p = build_params(converter_fixed_loss=-100.0)
    with pytest.raises(ValueError) as error:
        p.power_terms(p.flux_floor, 0.0, 0.0, 0.0)
    assert str(error.value) == (
        "losses must be >= 0: stator_copper=0.0, rotor_copper=0.0, iron=0.0, converter=-100.0"
    )


# The telemetry's golden hash depends on the exact arithmetic of torque,
# losses and power: the conftest's reference_power_terms, the textbook
# formulas written from the parameters and evaluated left to right, must give
# the same doubles.
_currents = st.one_of(st.just(0.0), st.floats(-30.0, 30.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    stator_resistance=st.floats(0.01, 5.0),
    rotor_resistance=st.floats(0.01, 5.0),
    magnetizing_inductance=st.floats(0.01, 1.0),
    rotor_inductance=st.floats(0.01, 1.0),
    eddy=st.floats(0.0, 0.1),
    hysteresis=st.floats(0.0, 5.0),
    fixed=st.floats(0.0, 100.0),
    resistive=st.floats(0.0, 1.0),
    data=st.data(),
    i_ds=_currents,
    i_qs=_currents,
    omega_r=st.one_of(st.just(0.0), st.floats(-350.0, 350.0)),
)
def test_losses_equal_textbook_formulas_bit_for_bit(
    stator_resistance, rotor_resistance, magnetizing_inductance, rotor_inductance,
    eddy, hysteresis, fixed, resistive, data, i_ds, i_qs, omega_r,
):
    p = build_params(
        stator_resistance=stator_resistance, rotor_resistance=rotor_resistance,
        magnetizing_inductance=magnetizing_inductance, rotor_inductance=rotor_inductance,
        iron_loss_eddy_coeff=eddy, iron_loss_hysteresis_coeff=hysteresis,
        converter_fixed_loss=fixed, converter_resistive_coeff=resistive,
    )
    psi = data.draw(st.floats(p.flux_floor, 1.2), label="psi")
    expected = reference_power_terms(p, psi, omega_r, i_ds, i_qs)
    got = p.power_terms(psi, omega_r, i_ds, i_qs)
    assert struct.pack("4d", *got[1:5]) == struct.pack("4d", *expected[1:5])


# The whole of power_terms against the chain it flattens: electrical
# frequency, then the four losses, the torque and the input power, as
# reference_power_terms evaluates them in turn, over pole pairs, signed zeros,
# fluxes at the floor and negative fixed losses. Below the floor and on a
# negative loss, power_terms raises.
_signed_zero = st.sampled_from((0.0, -0.0))


@st.composite
def _fluxes(draw, floor):
    """Flux at, just below and just above the floor, or anywhere above it."""
    return draw(st.one_of(
        st.sampled_from((floor, math.nextafter(floor, 0.0), math.nextafter(floor, 1.0))),
        st.floats(floor, 1.2),
    ))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    stator_resistance=st.floats(0.01, 5.0),
    rotor_resistance=st.floats(0.01, 5.0),
    magnetizing_inductance=st.floats(0.01, 1.0),
    rotor_inductance=st.floats(0.01, 1.0),
    pole_pairs=st.integers(1, 6),
    eddy=st.floats(0.0, 0.1),
    hysteresis=st.floats(0.0, 5.0),
    # negative: a machine built in code, whose losses can go below zero
    fixed=st.floats(-50.0, 100.0),
    resistive=st.floats(0.0, 1.0),
    data=st.data(),
    i_ds=st.one_of(_signed_zero, st.floats(-30.0, 30.0)),
    i_qs=st.one_of(_signed_zero, st.floats(-30.0, 30.0)),
    omega_r=st.one_of(_signed_zero, st.floats(-400.0, 400.0)),
)
def test_power_terms_equal_the_four_method_chain_bit_for_bit(
    stator_resistance, rotor_resistance, magnetizing_inductance, rotor_inductance,
    pole_pairs, eddy, hysteresis, fixed, resistive, data, i_ds, i_qs, omega_r,
):
    p = build_params(
        stator_resistance=stator_resistance, rotor_resistance=rotor_resistance,
        magnetizing_inductance=magnetizing_inductance, rotor_inductance=rotor_inductance,
        pole_pairs=pole_pairs, iron_loss_eddy_coeff=eddy, iron_loss_hysteresis_coeff=hysteresis,
        converter_fixed_loss=fixed, converter_resistive_coeff=resistive,
    )
    psi = data.draw(_fluxes(p.flux_floor), label="psi")
    expected = reference_power_terms(p, psi, omega_r, i_ds, i_qs)
    if psi < p.flux_floor:
        with pytest.raises(FluxFloorError):
            p.power_terms(psi, omega_r, i_ds, i_qs)
    elif min(expected[1:5]) < 0.0:
        with pytest.raises(ValueError, match="^losses must be >= 0"):
            p.power_terms(psi, omega_r, i_ds, i_qs)
    else:
        # bits, not ==: 0.0 == -0.0
        assert bits(p.power_terms(psi, omega_r, i_ds, i_qs)) == bits(expected)


# -- coupled step ----------------------------------------------------------------------


def test_coupled_step_is_deterministic():
    p = build_params()
    m = InductionMachine(p, 1e-4)

    def run():
        state = make_state(psi=0.7, omega=10.0, i_ds=5.0, i_qs=2.0)
        for _ in range(500):
            state = m.step(*state, 3.0, 8.0, 6.0)
        return state

    a, b = run(), run()
    assert a == b


def test_coupled_step_tracks_commands_through_lag():
    p = build_params()
    m = InductionMachine(p, 1e-4)
    state = make_state(psi=0.7, omega=0.0, i_ds=5.0, i_qs=0.0)
    for _ in range(round(10 * p.current_tracking_time_constant / 1e-4)):
        state = m.step(*state, 3.0, 8.0, 0.0)
    assert state[2] == pytest.approx(3.0, rel=1e-4)
    assert state[3] == pytest.approx(8.0, rel=1e-4)


def test_coupled_step_zero_lag_applies_commands_exactly():
    p = build_params(current_tracking_time_constant=0.0)
    m = InductionMachine(p, 1e-4)
    state = m.step(*make_state(), 3.0, 8.0, 6.0)
    assert state[2] == 3.0
    assert state[3] == 8.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    i_ds_cmd=st.floats(0.5, 5.0),
    i_qs_cmd=st.floats(-25.0, 25.0),
    t_load=st.floats(0.0, 18.0),
)
def test_coupled_step_keeps_state_finite_and_floored(i_ds_cmd, i_qs_cmd, t_load):
    p = build_params()
    m = InductionMachine(p, 1e-4)
    state = make_state(psi=0.7, omega=50.0, i_ds=5.0, i_qs=0.0)
    for _ in range(200):
        state = m.step(*state, i_ds_cmd, i_qs_cmd, t_load)
    assert state[0] >= p.flux_floor
    assert math.isfinite(state[1])
    assert math.isfinite(state[3])


@pytest.mark.parametrize("tau_i", [0.002, 0.0], ids=["lagged", "ideal"])
def test_step_size_checked_on_construction(tau_i):
    # dt must be positive and below the RK4 stability limit of the fastest
    # decay: the current lag if any, else the rotor flux
    p = build_params(current_tracking_time_constant=tau_i)
    tau = tau_i or p.rotor_time_constant
    limit = RK4_STABILITY_LIMIT * tau
    for dt in (math.nan, 0.0, -0.0, -1e-4):
        with pytest.raises(ValueError, match=rf"^dt={dt!r} s must be > 0$"):
            InductionMachine(p, dt)
    for dt in (limit, math.inf):
        with pytest.raises(ValueError, match=rf"^dt={dt!r} s must be below {limit!r} s, the"
                                             rf" RK4 stability limit for the {tau!r} s"):
            InductionMachine(p, dt)
    InductionMachine(p, math.nextafter(limit, 0.0))


# -- the step against a generic RK4 ------------------------------------------------
#
# The telemetry's golden hash depends on the step's exact arithmetic. The
# conftest's reference_step, a textbook four-stage RK4 over the same
# derivative with the same operation order, must give the same doubles, flux
# floor and signs of zero included.


def bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def assert_step_is_rk4(p, machine, state, commands, dt):
    """``machine.step``, of a machine built from ``p`` for ``dt``, gives
    ``reference_step``'s floats bit for bit, or raises its
    :class:`NonFiniteError` with the same message. Returns the new state, or
    None after an error."""
    try:
        new = reference_step(p, *state, *commands, dt)
    except NonFiniteError as expected:
        with pytest.raises(NonFiniteError) as error:
            machine.step(*state, *commands)
        assert str(error.value) == str(expected)
        return None
    assert bits(machine.step(*state, *commands)) == bits(new)
    return new


@pytest.mark.parametrize("tau_i", [0.002, 0.0], ids=["lagged", "ideal"])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    psi=st.floats(0.0, 1.0),
    omega=st.floats(-200.0, 200.0),
    i_ds=st.floats(-30.0, 30.0),
    i_qs=st.floats(-30.0, 30.0),
    i_ds_cmd=st.floats(0.0, 6.0),
    i_qs_cmd=st.floats(-25.0, 25.0),
    t_load=st.floats(-30.0, 30.0),
    dt=st.floats(1e-6, 5e-3),
)
# zero currents and commands of both signs
@example(psi=0.0, omega=-0.0, i_ds=-0.0, i_qs=0.0, i_ds_cmd=0.0, i_qs_cmd=-0.0,
         t_load=-0.0, dt=1e-4)
def test_step_equals_generic_rk4_bit_for_bit(
    tau_i, psi, omega, i_ds, i_qs, i_ds_cmd, i_qs_cmd, t_load, dt
):
    # a short trajectory on one machine, so rounding differences have room
    # to show and the step's d-axis lag is both computed and reused
    p = build_params(current_tracking_time_constant=tau_i)
    machine = InductionMachine(p, dt)
    state = (psi, omega, i_ds, i_qs)
    for _ in range(20):
        state = assert_step_is_rk4(p, machine, state, (i_ds_cmd, i_qs_cmd, t_load), dt)


# inputs from the shipped range, near the largest float and not finite
EXTREME = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(),
    st.sampled_from((1.7e308, -1.7e308, 2e307, math.nan, math.inf, -math.inf)),
)


@pytest.mark.parametrize("tau_i", [0.002, 0.0], ids=["lagged", "ideal"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(state=st.tuples(EXTREME, EXTREME, EXTREME, EXTREME),
       commands=st.tuples(EXTREME, EXTREME, EXTREME))
# four finite new values whose sum overflows: speed 1.7e308, i_ds 2e307
@example(state=(0.0, 1.7e308, 2e307, 0.0), commands=(2e307, 0.0, 0.0))
@example(state=make_state(), commands=(5.0, 12.0, math.inf))   # speed only: NaN
@example(state=make_state(), commands=(math.nan, 12.0, 6.0))   # every value: NaN
@example(state=(math.inf, 150.0, 5.0, 12.0), commands=(5.0, 12.0, 6.0))
@example(state=make_state(), commands=(5.0, -1.7e308, 6.0))
def test_step_raises_exactly_when_a_new_value_is_not_finite(tau_i, state, commands):
    p = build_params(current_tracking_time_constant=tau_i)
    assert_step_is_rk4(p, InductionMachine(p, 1e-4), state, commands, 1e-4)


# -- the step's d-axis lag cache -------------------------------------------------
#
# A machine keeps the d-axis lag of the last (i_d, i_ds_cmd) it computed. A
# sequence of calls on one machine per step size must give, call by call, what
# a fresh generic RK4 gives: exact repeats, a one-ulp move, zeros of either
# sign, a switch to another step size's machine, two alternating operating
# points and non-finite inputs.

CALL_FIELDS = ("psi", "w", "i_d", "i_q", "i_ds_cmd", "i_qs_cmd", "t_load", "dt")
STEP_SIZES = (1e-4, 5e-4, 2e-3)
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def operating_points(draw):
    """One call's arguments, in ``CALL_FIELDS`` order."""
    def value(lo, hi):
        return draw(st.one_of(st.floats(lo, hi), st.sampled_from((0.0, -0.0))))

    return (draw(st.floats(0.0, 1.0)), value(-200.0, 200.0), value(-6.0, 6.0),
            value(-25.0, 25.0), value(0.5, 5.0), value(-25.0, 25.0), value(-20.0, 20.0),
            draw(st.sampled_from(STEP_SIZES)))


MOVES = st.one_of(
    st.just(("repeat",)),
    st.just(("follow",)),   # the last call's result is the next state
    st.just(("swap",)),     # to the other operating point
    st.tuples(st.just("ulp"), st.sampled_from((-math.inf, math.inf))),
    # a zero of the other sign where the field is zero, else a zero
    st.tuples(st.just("zero"), st.sampled_from(("i_d", "i_q", "i_ds_cmd", "i_qs_cmd"))),
    st.tuples(st.just("dt"), st.sampled_from(STEP_SIZES)),
    # dt is the machine's, checked on construction: never set to a special value
    st.tuples(st.just("set"), st.sampled_from(CALL_FIELDS[:7]), st.sampled_from(SPECIAL)),
)


def _move(call, other, last, move):
    """The next call and the other operating point after ``move``."""
    call = list(call)
    kind = move[0]
    if kind == "follow" and last is not None:
        call[:4] = last
    elif kind == "swap":
        call, other = list(other), tuple(call)
    elif kind == "ulp":
        call[2] = math.nextafter(call[2], move[1])
    elif kind == "zero":
        i = CALL_FIELDS.index(move[1])
        call[i] = -call[i] if call[i] == 0.0 else 0.0
    elif kind == "dt":
        call[7] = move[1]
    elif kind == "set":
        call[CALL_FIELDS.index(move[1])] = move[2]
    return tuple(call), other


def _settled(i_ds_cmd=3.0, i_qs_cmd=8.0, dt=1e-4):
    return (0.42, 150.0, 3.0, 8.0, i_ds_cmd, i_qs_cmd, 6.0, dt)


@pytest.mark.parametrize("tau_i", [0.002, 0.0], ids=["lagged", "ideal"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(first=operating_points(), other=operating_points(),
       moves=st.lists(MOVES, min_size=1, max_size=25))
# another step size's machine at the same currents and excitation command
@example(first=_settled(), other=_settled(), moves=[("repeat",), ("dt", 5e-4)])
# an excitation command of 0.0, then -0.0
@example(first=_settled(i_ds_cmd=0.0), other=_settled(), moves=[("zero", "i_ds_cmd")])
def test_step_sequence_equals_generic_rk4_bit_for_bit(tau_i, first, other, moves):
    p = build_params(current_tracking_time_constant=tau_i)
    machines = {dt: InductionMachine(p, dt) for dt in STEP_SIZES}
    call, last = first, None
    for move in (("repeat",), *moves):
        call, other = _move(call, other, last, move)
        last = assert_step_is_rk4(p, machines[call[7]], call[:4], call[4:7], call[7])
