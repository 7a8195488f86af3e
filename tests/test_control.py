import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adcslab.control import (
    ALLOWED_TRANSITIONS,
    ActuatorLimits,
    Fidelity,
    Gains,
    Mode,
    ModeThresholds,
    ZeroFieldError,
    allocate_magnetorquer,
    error_state,
    mode_transition,
    pd_torque,
    spin_torques,
    total_control,
    wheel_step,
)
from adcslab.quatmath import IDENTITY, RPM_TO_RADPS, Quat, Vec3, vdot, vnorm
from oracles import (
    allocate_physical_reference,
    float_bits,
    mode_transition_reference,
    quat_from_axis_angle,
    vcross,
    warm_call,
    wheel_step_reference,
)

GAINS = Gains()
LIMITS = ActuatorLimits()
THRESHOLDS = ModeThresholds()

vec3s = st.builds(Vec3,
                  st.floats(-1e-4, 1e-4),
                  st.floats(-1e-4, 1e-4),
                  st.floats(-1e-4, 1e-4))
fields = st.builds(Vec3,
                   st.floats(-5e-5, 5e-5),
                   st.floats(-5e-5, 5e-5),
                   st.floats(-5e-5, 5e-5)).filter(lambda b: vnorm(b) > 1e-6)


# ------------------------------------------------------------- configuration

def test_gains_must_be_positive_and_finite():
    for bad in (dict(kp=0.0), dict(kd=-1e-3), dict(k1=float("inf")), dict(k2=float("nan"))):
        with pytest.raises(ValueError, match="gain"):
            Gains(**bad)
    assert Gains().kp == 9e-5 and Gains().kd == 9e-3


def test_limits_must_be_positive_and_finite():
    with pytest.raises(ValueError, match="limit"):
        ActuatorLimits(max_dipole_am2=0.0)
    with pytest.raises(ValueError, match="limit"):
        ActuatorLimits(max_wheel_momentum_nms=-1e-2)


def test_thresholds_must_be_positive_and_finite():
    for bad in (dict(detumble_exit_radps=-1.0), dict(detumble_exit_radps=0.0),
                dict(despin_exit_radps=float("nan")), dict(despin_exit_radps=float("inf"))):
        with pytest.raises(ValueError, match="threshold"):
            ModeThresholds(**bad)


@pytest.mark.parametrize("cls", [Gains, ActuatorLimits, ModeThresholds])
def test_fields_are_stored_as_plain_floats(cls):
    """Numpy scalars and ints are kept as the plain float of their value."""
    for f in dataclasses.fields(cls):
        for value in (np.float64(f.default), np.float32(f.default), np.int64(1), 1):
            stored = getattr(cls(**{f.name: value}), f.name)
            assert type(stored) is float and stored == float(value)


@pytest.mark.parametrize("cls", [Gains, ActuatorLimits, ModeThresholds])
def test_fields_reject_bools_and_non_numbers(cls):
    for f in dataclasses.fields(cls):
        for bad in (True, np.bool_(True), "1", None, [1.0], 1 + 0j, 10 ** 400):
            with pytest.raises(ValueError, match=f.name):
                cls(**{f.name: bad})


# ------------------------------------------------------------- error state

def test_additive_error_is_component_difference():
    q = quat_from_axis_angle(Vec3(1.0, 0.0, 0.0), 0.2)
    q_e, w_e = error_state(q, Vec3(0.01, 0.0, -0.02), Vec3(0.0, 0.0, 0.0))
    assert q_e == (q[1], q[2], q[3])
    assert w_e == Vec3(0.01, 0.0, -0.02)


# ------------------------------------------------------------- PD law

def _q(v):
    """A quaternion with vector part ``v``; the PD law reads only that part."""
    return Quat(1.0, *v)


def test_pd_hand_value():
    """q_e = (0.1, 0, 0) against kp = 9e-5 asks for -9e-6 N*m about x."""
    tau = pd_torque(_q(Vec3(0.1, 0.0, 0.0)), Vec3(0.0, 0.0, 0.0), GAINS)
    assert tau == pytest.approx((-9e-6, 0.0, 0.0), rel=1e-12)


def test_pd_damps_rates():
    tau = pd_torque(IDENTITY, Vec3(0.0, -0.01, 0.0), GAINS)
    assert tau == pytest.approx((0.0, 9e-5, 0.0), rel=1e-12)


@given(vec3s, vec3s, vec3s, vec3s)
def test_pd_is_linear(qa, wa, qb, wb):
    both = pd_torque(_q(Vec3(qa.x + qb.x, qa.y + qb.y, qa.z + qb.z)),
                     Vec3(wa.x + wb.x, wa.y + wb.y, wa.z + wb.z), GAINS)
    a = pd_torque(_q(qa), wa, GAINS)
    b = pd_torque(_q(qb), wb, GAINS)
    assert both == pytest.approx((a[0] + b[0], a[1] + b[1], a[2] + b[2]), rel=1e-9, abs=1e-20)


signed = st.floats(-1e-3, 1e-3) | st.sampled_from([0.0, -0.0])


@given(st.builds(Quat, signed, signed, signed, signed),
       st.builds(Vec3, signed, signed, signed))
def test_pd_reads_the_error_state_toward_the_orbit_frame_bit_for_bit(q, w):
    """The state is its own error toward the orbit frame at rest: the law
    matches the error_state form exactly, the signs of zeros included."""
    q_e, w_e = error_state(q, w, Vec3(0.0, 0.0, 0.0))
    want = tuple(-GAINS.kp * e - GAINS.kd * r for e, r in zip(q_e, w_e))
    got = pd_torque(q, w, GAINS)
    assert [x.hex() for x in got] == [x.hex() for x in want]


# ------------------------------------------------------------- spin laws

def test_spin_up_wheel_torque_hand_value():
    """Tracking 1 RPM from rest: tau_rw = k1 * 2*pi/60 = 7.33e-4 N*m."""
    tau_rw, tau_m = spin_torques(Vec3(0.0, 0.0, 0.0), RPM_TO_RADPS, GAINS)
    assert tau_rw == pytest.approx(7e-3 * RPM_TO_RADPS, rel=1e-12)
    assert tau_rw == pytest.approx(7.33e-4, rel=1e-3)
    assert tau_m == Vec3(0.0, 0.0, 0.0)


def test_transverse_damping_hand_value():
    _, tau_m = spin_torques(Vec3(0.0, 0.01, -0.02), 0.0, GAINS)
    assert tau_m == pytest.approx((0.0, -7e-6, 1.4e-5), rel=1e-12)


@given(st.builds(Quat, signed, signed, signed, signed),
       st.builds(Vec3, signed, signed, signed),
       st.sampled_from([RPM_TO_RADPS, 0.0]))
def test_spin_laws_read_the_error_state_bit_for_bit(q, w, target):
    """The spin laws match the error_state form against the x-axis target
    exactly, the signs of zeros included; the attitude does not enter."""
    _, w_e = error_state(q, w, Vec3(target, 0.0, 0.0))
    tau_rw, (tx, ty, tz) = spin_torques(w, target, GAINS)
    want = (-GAINS.k1 * w_e[0], 0.0, -GAINS.k2 * w_e[1], -GAINS.k2 * w_e[2])
    assert [x.hex() for x in (tau_rw, tx, ty, tz)] == [x.hex() for x in want]


# ------------------------------------------------------------- ideal allocation

def test_ideal_allocation_passes_small_commands_through():
    tau = Vec3(2e-6, -3e-6, 1e-6)
    tau_m, dipole, saturated = allocate_magnetorquer(tau, Vec3(0.0, 0.0, 0.0), LIMITS,
                                                     Fidelity.IDEAL)
    assert tau_m == tau
    assert dipole == Vec3(0.0, 0.0, 0.0)
    assert not saturated


def test_ideal_allocation_clamps_per_axis():
    tau_m, _, saturated = allocate_magnetorquer(Vec3(2e-5, -3e-5, 4e-6), Vec3(0.0, 0.0, 0.0),
                                                LIMITS)
    assert tau_m == Vec3(1e-5, -1e-5, 4e-6)
    assert saturated


def test_ideal_allocation_at_the_limit_is_not_saturated():
    lim = LIMITS.max_magnetic_torque_nm
    tau_m, _, saturated = allocate_magnetorquer(Vec3(lim, -lim, 0.0), Vec3(0.0, 0.0, 0.0), LIMITS)
    assert tau_m == Vec3(lim, -lim, 0.0)
    assert not saturated


_LIM = LIMITS.max_magnetic_torque_nm
torques = (st.floats(-3e-5, 3e-5) | st.floats()
           | st.sampled_from([0.0, -0.0, _LIM, -_LIM, math.nan, -math.nan, math.inf, -math.inf]))


@given(st.builds(Vec3, torques, torques, torques))
def test_ideal_allocation_is_the_per_axis_clamp_bit_for_bit(tau):
    """Over every float, NaN, the infinities and the limit itself included:
    NaN passes through, and only a torque beyond the limit saturates."""
    lim = LIMITS.max_magnetic_torque_nm
    want = [min(max(x, -lim), lim) for x in tau]
    tau_m, dipole, saturated = allocate_magnetorquer(tau, Vec3(0.0, 0.0, 0.0), LIMITS,
                                                     Fidelity.IDEAL)
    assert [x.hex() for x in tau_m] == [x.hex() for x in want]
    assert [math.copysign(1.0, x) for x in tau_m] == [math.copysign(1.0, x) for x in want]
    assert type(tau_m) is tuple and dipole == Vec3(0.0, 0.0, 0.0)
    assert saturated is any(abs(x) > lim for x in tau)


# ------------------------------------------------------------- physical allocation

B_LEO = Vec3(2.1e-5, -3.3e-5, 1.2e-5)


def test_physical_allocation_cannot_push_along_the_field():
    tau_desired = Vec3(B_LEO.x * 0.02, B_LEO.y * 0.02, B_LEO.z * 0.02)
    tau_m, _, _ = allocate_magnetorquer(tau_desired, B_LEO, LIMITS, Fidelity.PHYSICAL)
    assert vnorm(tau_m) < 1e-12 * vnorm(tau_desired)


def test_physical_allocation_recovers_perpendicular_commands():
    tau_desired = vcross(B_LEO, Vec3(0.0, 0.0, 1.0))
    tau_desired = Vec3(tau_desired.x * 0.05, tau_desired.y * 0.05, tau_desired.z * 0.05)
    tau_m, _, saturated = allocate_magnetorquer(tau_desired, B_LEO, LIMITS, Fidelity.PHYSICAL)
    assert tau_m == pytest.approx(tau_desired, rel=1e-12)
    assert not saturated


@given(vec3s, fields)
def test_applied_torque_always_orthogonal_to_field(tau_desired, b):
    tau_m, _, _ = allocate_magnetorquer(tau_desired, b, LIMITS, Fidelity.PHYSICAL)
    tol = 1e-12 * vnorm(tau_m) * vnorm(b) + 1e-30
    assert abs(vdot(tau_m, b)) < tol


def test_dipole_clamp_keeps_orthogonality():
    huge = Vec3(1.0, -2.0, 0.5)
    tau_m, dipole, saturated = allocate_magnetorquer(huge, B_LEO, LIMITS, Fidelity.PHYSICAL)
    assert saturated
    assert max(abs(c) for c in dipole) == LIMITS.max_dipole_am2
    assert abs(vdot(tau_m, B_LEO)) < 1e-12 * vnorm(tau_m) * vnorm(B_LEO)


def test_physical_allocation_requires_a_field():
    with pytest.raises(ZeroFieldError):
        allocate_magnetorquer(Vec3(1e-6, 0.0, 0.0), Vec3(0.0, 0.0, 0.0),
                              LIMITS, Fidelity.PHYSICAL)


_DIPOLE = LIMITS.max_dipole_am2
# A unit field along an axis turns a torque component of +-lim into a dipole
# component of exactly -+lim, so the clamp's boundary is reached, not just
# approached; a random field covers the rest.
dipole_torques = (st.floats(-0.5, 0.5) | st.floats()
                  | st.sampled_from([0.0, -0.0, _DIPOLE, -_DIPOLE,
                                     math.nan, -math.nan, math.inf, -math.inf]))
any_fields = (st.sampled_from([Vec3(1.0, 0.0, 0.0), Vec3(0.0, -1.0, 0.0), Vec3(0.0, 0.0, 1.0),
                               Vec3(-0.0, 0.0, 1.0), Vec3(0.0, 0.0, 0.0)])
              | st.builds(Vec3, st.floats(), st.floats(), st.floats()))


@given(st.builds(Vec3, dipole_torques, dipole_torques, dipole_torques), any_fields)
@example(Vec3(_DIPOLE, -_DIPOLE, -0.0), Vec3(0.0, 0.0, 1.0))
@example(Vec3(math.nan, math.inf, -0.0), Vec3(1.0, 0.0, 0.0))
@example(Vec3(math.nan, math.nan, -math.nan), Vec3(-math.nan, math.nan, math.nan))  # nan * -nan
def test_physical_allocation_is_the_per_axis_dipole_clamp_bit_for_bit(tau, b):
    """The in-place dipole clamp against ``oracles.clamp``, over every float,
    NaN of either sign, the infinities, signed zeros and the limit itself
    included."""
    try:
        want = warm_call(allocate_physical_reference, tau, b, LIMITS)
    except ZeroFieldError:
        with pytest.raises(ZeroFieldError):
            allocate_magnetorquer(tau, b, LIMITS, Fidelity.PHYSICAL)
        return
    tau_m, dipole, saturated = warm_call(allocate_magnetorquer, tau, b, LIMITS, Fidelity.PHYSICAL)
    assert float_bits(tau_m) == float_bits(want[0])
    assert float_bits(dipole) == float_bits(want[1])
    assert saturated is want[2]


# ------------------------------------------------------------- reaction wheel

def test_wheel_integrates_torque_into_momentum():
    """1e-3 N*m held for 10 s stores exactly the 1e-2 N*m*s capacity."""
    h = 0.0
    for _ in range(10):
        _, h, _ = wheel_step(1e-3, h, LIMITS, dt=1.0)
    assert h == pytest.approx(1e-2, rel=1e-12)


def test_wheel_rides_the_momentum_stop():
    tau, h, saturated = wheel_step(1e-3, LIMITS.max_wheel_momentum_nms, LIMITS, dt=1.0)
    assert tau == 0.0
    assert h == LIMITS.max_wheel_momentum_nms
    assert saturated


def test_wheel_torque_clamp():
    tau, _, saturated = wheel_step(2.5e-3, 0.0, LIMITS, dt=0.1)
    assert tau == LIMITS.max_wheel_torque_nm
    assert saturated


def test_wheel_partial_step_onto_the_stop():
    """Half a step from the stop: torque is cut so momentum lands exactly on it."""
    h0 = LIMITS.max_wheel_momentum_nms - 5e-5
    tau, h, saturated = wheel_step(1e-3, h0, LIMITS, dt=0.1)
    assert h == LIMITS.max_wheel_momentum_nms
    assert tau == pytest.approx(5e-4, rel=1e-9)
    assert saturated


def test_wheel_negative_side_is_symmetric():
    tau, h, saturated = wheel_step(-1e-3, -LIMITS.max_wheel_momentum_nms, LIMITS, dt=1.0)
    assert tau == 0.0
    assert h == -LIMITS.max_wheel_momentum_nms
    assert saturated


def test_wheel_rejects_bad_dt():
    with pytest.raises(ValueError):
        wheel_step(1e-3, 0.0, LIMITS, dt=0.0)


@given(st.floats(-LIMITS.max_wheel_momentum_nms, LIMITS.max_wheel_momentum_nms),
       st.lists(st.floats(-2e-3, 2e-3), min_size=1, max_size=60))
@settings(max_examples=60)
def test_wheel_momentum_never_leaves_the_envelope(h0, commands):
    h = h0
    for cmd in commands:
        tau, h, _ = wheel_step(cmd, h, LIMITS, dt=0.5)
        assert abs(h) <= LIMITS.max_wheel_momentum_nms
        assert abs(tau) <= LIMITS.max_wheel_torque_nm


_WHEEL = LIMITS.max_wheel_torque_nm
wheel_torques = (st.floats(-3e-3, 3e-3) | st.floats()
                 | st.sampled_from([0.0, -0.0, _WHEEL, -_WHEEL,
                                    math.nan, -math.nan, math.inf, -math.inf]))
_STOP = LIMITS.max_wheel_momentum_nms
momenta = (st.floats(-2e-2, 2e-2)
           | st.sampled_from([0.0, -0.0, _STOP, -_STOP, math.nan, math.inf, -math.inf]))


@given(wheel_torques, momenta, st.floats(1e-3, 10.0) | st.floats(min_value=5e-324))
@example(-_WHEEL, -_STOP + 5e-5, 0.1)
@example(math.nan, 0.0, 0.1)
@example(-math.nan, math.nan, 2.220446049250313e-16)   # -nan + nan
def test_wheel_step_is_its_reference_bit_for_bit(tau, h, dt):
    """The in-place torque clamp against ``oracles.clamp``, then the
    momentum stop, NaN, the infinities and signed zeros included."""
    got = warm_call(wheel_step, tau, h, LIMITS, dt)
    want = warm_call(wheel_step_reference, tau, h, LIMITS, dt)
    assert float_bits(got[:2]) == float_bits(want[:2])
    assert got[2] is want[2]


# ------------------------------------------------------------- mode machine

def test_detumble_exits_below_rate_threshold():
    assert mode_transition(Mode.DETUMBLE, Vec3(0.009, 0.0, 0.0), THRESHOLDS) is Mode.NOMINAL
    assert mode_transition(Mode.DETUMBLE, Vec3(0.011, 0.0, 0.0), THRESHOLDS) is Mode.DETUMBLE


def test_detumble_threshold_uses_the_rate_norm():
    w = Vec3(0.006, 0.006, 0.006)  # |w| = 0.0104 > 0.01
    assert mode_transition(Mode.DETUMBLE, w, THRESHOLDS) is Mode.DETUMBLE


def test_despin_exits_below_its_own_threshold():
    assert mode_transition(Mode.DESPIN, Vec3(9e-4, 0.0, 0.0), THRESHOLDS) is Mode.NOMINAL
    assert mode_transition(Mode.DESPIN, Vec3(2e-3, 0.0, 0.0), THRESHOLDS) is Mode.DESPIN


def test_commanded_edges():
    w = Vec3(0.05, 0.0, 0.0)
    assert mode_transition(Mode.NOMINAL, w, THRESHOLDS, command=Mode.SPIN) is Mode.SPIN
    assert mode_transition(Mode.SPIN, w, THRESHOLDS, command=Mode.DESPIN) is Mode.DESPIN


def test_illegal_commands_are_ignored():
    w = Vec3(0.05, 0.0, 0.0)
    assert mode_transition(Mode.DETUMBLE, w, THRESHOLDS, command=Mode.SPIN) is Mode.DETUMBLE
    assert mode_transition(Mode.NOMINAL, w, THRESHOLDS, command=Mode.DESPIN) is Mode.NOMINAL


def test_safe_is_absorbing_until_released():
    w = Vec3(0.0, 0.0, 0.0)
    assert mode_transition(Mode.SPIN, w, THRESHOLDS, command=Mode.SAFE) is Mode.SAFE
    assert mode_transition(Mode.SAFE, w, THRESHOLDS, command=Mode.SPIN) is Mode.SAFE
    assert mode_transition(Mode.SAFE, w, THRESHOLDS) is Mode.SAFE
    assert mode_transition(Mode.SAFE, w, THRESHOLDS, command=Mode.NOMINAL) is Mode.NOMINAL


def test_nonfinite_rates_trip_safe_from_anywhere():
    bad = Vec3(float("nan"), 0.0, 0.0)
    for mode in Mode:
        assert mode_transition(mode, bad, THRESHOLDS) is Mode.SAFE


def test_every_transition_follows_the_table():
    """Every mode, every command (None too) and slow, middling, fast and
    non-finite rates: a non-finite rate trips SAFE, a command the table
    allows is taken, and otherwise only de-tumble and de-spin leave on their
    own, below their rate thresholds."""
    documented = {(Mode.NOMINAL, Mode.SPIN), (Mode.SPIN, Mode.DESPIN), (Mode.SAFE, Mode.NOMINAL)}
    assert all(new in ALLOWED_TRANSITIONS[old] for old, new in documented)
    exits = {Mode.DETUMBLE: THRESHOLDS.detumble_exit_radps,
             Mode.DESPIN: THRESHOLDS.despin_exit_radps}
    for mode in Mode:
        for command in (None, *Mode):
            for rate in (5e-4, 5e-3, 0.05, math.inf, -math.inf, math.nan):
                got = mode_transition(mode, Vec3(0.0, rate, 0.0), THRESHOLDS, command)
                if not math.isfinite(rate):
                    expected = Mode.SAFE
                elif command in ALLOWED_TRANSITIONS[mode]:
                    expected = command
                elif mode in exits and abs(rate) < exits[mode]:
                    expected = Mode.NOMINAL
                else:
                    expected = mode
                assert got is expected, (mode, command, rate)
                assert command is not Mode.SAFE or got is Mode.SAFE
                assert mode is not Mode.SAFE or got in (Mode.SAFE, Mode.NOMINAL)


rates = (st.floats(-2e-2, 2e-2) | st.floats()
         | st.sampled_from([0.0, -0.0, THRESHOLDS.detumble_exit_radps,
                            THRESHOLDS.despin_exit_radps, math.nan, math.inf, -math.inf]))


@given(st.sampled_from(list(Mode)), st.builds(Vec3, rates, rates, rates),
       st.none() | st.sampled_from(list(Mode)))
@example(Mode.DETUMBLE, Vec3(math.inf, -math.inf, 0.0), None)
@example(Mode.DESPIN, Vec3(THRESHOLDS.despin_exit_radps, 0.0, -0.0), None)
def test_mode_transition_is_the_table_lookup(mode, omega, command):
    """The in-place finiteness test and norm, and the lookup skipped for no
    command, against ``visfinite``, ``vnorm`` and the table for every
    command, None included."""
    got = mode_transition(mode, omega, THRESHOLDS, command)
    assert got is mode_transition_reference(mode, omega, THRESHOLDS, command)


def test_transition_table_is_reflexive_and_safe_reachable():
    for mode, allowed in ALLOWED_TRANSITIONS.items():
        assert mode in allowed
        assert Mode.SAFE in allowed or mode is Mode.SAFE


# ------------------------------------------------------------- net torque

def test_total_control_sums_wheel_onto_x():
    got = total_control(Vec3(1e-6, 2e-6, 0.0), 5e-4)
    assert got == pytest.approx((5.01e-4, 2e-6, 0.0), rel=1e-12)
