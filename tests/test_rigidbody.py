import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adcslab.quatmath import IDENTITY, ZERO3, Quat, Vec3, normalize_canonical, quat_norm
from adcslab.rigidbody import (
    AttitudeState,
    InertiaTensor,
    NonFiniteStateError,
    SingularInertiaError,
    propagate,
)
from oracles import (
    free_rotation,
    inertia_dot,
    make_rigid_body_dynamics,
    propagate_reference,
    quat_derivative,
    quat_from_axis_angle,
    quat_multiply,
    rk4_step,
    rotate_body_to_orbit,
)

J123 = InertiaTensor.diagonal(1.0, 2.0, 3.0)

rates = st.builds(Vec3,
                  st.floats(-2.0, 2.0),
                  st.floats(-2.0, 2.0),
                  st.floats(-2.0, 2.0))
torques = st.builds(Vec3,
                    st.floats(-1e-3, 1e-3),
                    st.floats(-1e-3, 1e-3),
                    st.floats(-1e-3, 1e-3))


def _state(q=IDENTITY, w=ZERO3, hw=0.0, t=0.0):
    return AttitudeState(q, w, hw, t)


def _rates(J, w, torque=ZERO3):
    """Euler's equations: the rate derivative the dynamics closure returns."""
    return make_rigid_body_dynamics(J, torque)(_state(w=w))[1]


# ------------------------------------------------------------ rate derivative

def test_principal_axis_spin_is_fixed_point():
    out = _rates(J123, Vec3(0.7, 0.0, 0.0))
    assert out == Vec3(0.0, 0.0, 0.0)


@given(rates)
def test_spherical_inertia_kills_gyroscopic_term(w):
    J = InertiaTensor.diagonal(0.4, 0.4, 0.4)
    out = _rates(J, w)
    assert abs(out.x) < 1e-15 and abs(out.y) < 1e-15 and abs(out.z) < 1e-15


def test_gyroscopic_hand_value():
    """diag(1,2,3) at (1,1,1): omega x J*omega = (1,-2,1), scaled by -J^-1."""
    out = _rates(J123, Vec3(1.0, 1.0, 1.0))
    assert out.x == pytest.approx(-1.0, abs=1e-15)
    assert out.y == pytest.approx(1.0, abs=1e-15)
    assert out.z == pytest.approx(-1.0 / 3.0, abs=1e-15)


@given(rates, torques, torques)
def test_torque_enters_linearly(w, ta, tb):
    tsum = Vec3(ta.x + tb.x, ta.y + tb.y, ta.z + tb.z)
    both = _rates(J123, w, tsum)
    free = _rates(J123, w)
    jinv = np.linalg.inv(J123.matrix)
    expect = Vec3(
        sum(jinv[0][k] * tsum[k] for k in range(3)),
        sum(jinv[1][k] * tsum[k] for k in range(3)),
        sum(jinv[2][k] * tsum[k] for k in range(3)),
    )
    assert both.x - free.x == pytest.approx(expect.x, abs=1e-12)
    assert both.y - free.y == pytest.approx(expect.y, abs=1e-12)
    assert both.z - free.z == pytest.approx(expect.z, abs=1e-12)


def test_raw_singular_matrix_is_reported():
    with pytest.raises(SingularInertiaError):
        InertiaTensor(np.diag([1.0, 1.0, 0.0]))


# ------------------------------------------------------------------ validation

def test_tensor_rejects_wrong_shape():
    with pytest.raises(ValueError):
        InertiaTensor(np.eye(2))


def test_tensor_rejects_asymmetry():
    m = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        InertiaTensor(m)


def test_tensor_rejects_zero():
    with pytest.raises(SingularInertiaError):
        InertiaTensor(np.zeros((3, 3)))


def test_tensor_rejects_indefinite():
    with pytest.raises(SingularInertiaError):
        InertiaTensor(np.diag([1.0, 1.0, -0.5]))


def test_tensor_rejects_triangle_violation():
    # a lone point mass gives (d^2, d^2, 2d^2)-style moments at worst;
    # (1, 1, 3) cannot come from any real mass distribution
    with pytest.raises(ValueError):
        InertiaTensor.diagonal(1.0, 1.0, 3.0)


def test_tensor_boundary_triangle_is_accepted():
    InertiaTensor.diagonal(1.0, 2.0, 3.0)  # 1 + 2 == 3, planar distribution


def test_tensor_dot_matches_matmul():
    m = np.array([[2.0, 0.1, 0.0], [0.1, 2.5, -0.2], [0.0, -0.2, 3.0]])
    J = InertiaTensor(m)
    v = Vec3(0.3, -1.2, 0.7)
    expect = m @ np.array(v)
    got = inertia_dot(J, v)
    assert got.x == pytest.approx(expect[0], abs=1e-15)
    assert got.y == pytest.approx(expect[1], abs=1e-15)
    assert got.z == pytest.approx(expect[2], abs=1e-15)


# ------------------------------------------------------------------ integrator

def test_rest_state_is_unchanged():
    s = _state(hw=0.5)
    out = rk4_step(s, free_rotation(J123), 0.1)
    assert out.q == IDENTITY
    assert out.omega == ZERO3
    assert out.wheel_momentum == 0.5
    assert out.t == pytest.approx(0.1)


def test_bad_dt_rejected():
    s = _state()
    dyn = free_rotation(J123)
    with pytest.raises(ValueError):
        rk4_step(s, dyn, 0.0)
    with pytest.raises(ValueError):
        rk4_step(s, dyn, -0.1)
    with pytest.raises(ValueError):
        rk4_step(s, dyn, math.inf)


def test_nonfinite_state_is_reported():
    s = _state(w=Vec3(1e200, 1e200, 0.0))
    with pytest.raises(NonFiniteStateError):
        rk4_step(s, free_rotation(J123), 0.1)


def test_single_axis_rotation_angle():
    """Constant spin about x tracks the closed-form angle w*t.

    The per-step angle error of classical RK4 on the quaternion kinematics is
    ~(w*dt/2)^5/60, so the tolerance is step-size dependent: 1e-9 holds for
    w*dt = 0.01 over a second; at w*dt = 0.1 the true error is ~5e-8.
    """
    def pure_kinematics(state):
        return quat_derivative(state.q, state.omega), ZERO3

    s = _state(w=Vec3(1.0, 0.0, 0.0))
    for _ in range(100):
        s = rk4_step(s, pure_kinematics, 0.01)
    angle = 2.0 * math.atan2(abs(s.q.q1), s.q.q0)
    assert angle == pytest.approx(1.0, abs=1e-9)
    assert abs(s.q.q2) < 1e-12 and abs(s.q.q3) < 1e-12

    s = _state(w=Vec3(1.0, 0.0, 0.0))
    for _ in range(10):
        s = rk4_step(s, pure_kinematics, 0.1)
    angle = 2.0 * math.atan2(abs(s.q.q1), s.q.q0)
    assert angle == pytest.approx(1.0, abs=1e-7)


def test_torque_free_conservation_long_run():
    """Tumbling diag(1,2,3) body: energy and |J w| drift < 1e-8 over 1e4 steps."""
    J = J123
    s = _state(w=Vec3(0.3, -0.11, 0.2))
    dyn = free_rotation(J)

    def energy(w):
        h = inertia_dot(J, w)
        return 0.5 * (w.x * h.x + w.y * h.y + w.z * h.z)

    def hmag(w):
        h = inertia_dot(J, w)
        return math.sqrt(h.x**2 + h.y**2 + h.z**2)

    e0, h0 = energy(s.omega), hmag(s.omega)
    worst_norm = 0.0
    for _ in range(10_000):
        s = rk4_step(s, dyn, 0.1)
        worst_norm = max(worst_norm, abs(quat_norm(s.q) - 1.0))
    assert abs(energy(s.omega) - e0) / e0 < 1e-8
    assert abs(hmag(s.omega) - h0) / h0 < 1e-8
    assert worst_norm < 1e-9


def test_constant_torque_spins_up_linearly():
    J = InertiaTensor.diagonal(2.0, 2.0, 2.0)
    dyn = make_rigid_body_dynamics(J, Vec3(1e-3, 0.0, 0.0))
    s = _state()
    for _ in range(100):
        s = rk4_step(s, dyn, 0.1)
    # w = tau * t / J, exact for spherical inertia
    assert s.omega.x == pytest.approx(1e-3 * 10.0 / 2.0, rel=1e-12)


@settings(max_examples=50)
@given(rates, st.floats(0.01, 0.1))
def test_step_keeps_quaternion_normalized(w, dt):
    s = rk4_step(_state(w=w), free_rotation(J123), dt)
    assert abs(quat_norm(s.q) - 1.0) < 1e-12
    assert s.q.q0 >= 0.0


# ---------------------------------------------------------------- splitting step

J_OFF_DIAGONAL = InertiaTensor(np.array([[2.0, 0.1, 0.0],
                                         [0.1, 2.5, -0.2],
                                         [0.0, -0.2, 3.0]]))
J_FLIGHT = InertiaTensor.diagonal(0.015641505454545453, 0.015641505454545453, 5e-3)
J_OBLATE = InertiaTensor.diagonal(1.5, 1.5, 2.5)
J_ODD_Y = InertiaTensor.diagonal(1.5, 2.5, 1.5)  # diagonal, but y is not the middle moment

unit_quats = st.builds(
    Quat, *[st.floats(-1.0, 1.0)] * 4,
).filter(lambda q: quat_norm(q) > 0.1).map(normalize_canonical)
tumble_rates = st.builds(Vec3, *[st.floats(-5.0, 5.0)] * 3)


def _max_error(a, b):
    """Largest component difference of q (either sign) and omega."""
    dq = min(max(abs(x - y) for x, y in zip(a.q, b.q)),
             max(abs(x + y) for x, y in zip(a.q, b.q)))
    return max(dq, *(abs(x - y) for x, y in zip(a.omega, b.omega)))


@pytest.mark.parametrize("J", [J123, J_OFF_DIAGONAL, J_FLIGHT, J_OBLATE, J_ODD_Y],
                         ids=["diag123", "off-diagonal", "flight", "oblate", "odd-y"])
def test_principal_frame_is_a_right_handed_eigenbasis(J):
    axes = np.array(J.principal_axes).T  # columns
    moments = J.principal_moments
    assert np.allclose(axes.T @ axes, np.eye(3), rtol=0.0, atol=1e-14)
    assert np.linalg.det(axes) == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(axes @ np.diag(moments) @ axes.T, J.matrix,
                       rtol=0.0, atol=1e-14 * np.abs(J.matrix).max())
    assert sorted(moments)[1] == moments[1]  # the middle moment is second
    if J.aligned:  # the structure axes, with the moments in (Jxx, Jyy, Jzz) order
        assert J.principal_frame == IDENTITY
        assert moments == tuple(J.matrix.diagonal())
    elif len(set(moments)) == 2:  # an equal pair is second and third
        assert moments[1] == moments[2]
    for k in range(3):  # R(principal_frame) has the axes as columns
        e_k = Vec3(*np.eye(3)[k])
        assert np.allclose(rotate_body_to_orbit(J.principal_frame, e_k), axes[:, k],
                           rtol=0.0, atol=1e-14)


def test_a_diagonal_tensor_is_aligned_when_its_y_moment_is_the_middle_one():
    for J in (J123, J_FLIGHT, J_OBLATE, InertiaTensor.diagonal(3.0, 2.0, 1.0),
              InertiaTensor.diagonal(2.0, 2.0, 2.0)):
        assert J.aligned and J.kernel[0] is True
    for J in (J_OFF_DIAGONAL, J_ODD_Y, InertiaTensor.diagonal(2.0, 1.0, 3.0),
              InertiaTensor(np.diag([1.0, 2.0, 3.0]) + np.diag([0.0, 1e-300], 1)
                            + np.diag([0.0, 1e-300], -1))):
        assert not J.aligned and J.kernel[0] is False


signed_components = st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0)


@settings(max_examples=200)
@given(unit_quats, st.builds(Vec3, *[signed_components] * 3),
       st.builds(Vec3, *[st.sampled_from([0.0, -0.0]) | st.floats(-1e-3, 1e-3)] * 3),
       st.sampled_from([0.0, -0.0]) | st.floats(-0.01, 0.01),
       st.sampled_from([0.0, -0.0]) | st.floats(-1e-3, 1e-3),
       st.integers(1, 12), st.sampled_from([J123, J_FLIGHT, J_OBLATE]))
@example(IDENTITY, Vec3(-0.0, 0.0, -0.0), ZERO3, 0.0, 0.0, 1, J_FLIGHT)
@example(IDENTITY, Vec3(-0.0, 0.3, -0.0), Vec3(0.0, -0.0, 1e-4), 0.004, 0.0, 2, J_FLIGHT)
@example(Quat(0.5, 0.5, -0.5, 0.5), Vec3(0.2, -0.0, -0.1), ZERO3, -0.0, 1e-3, 3, J_OBLATE)
@example(Quat(0.5, 0.5, -0.5, 0.5), Vec3(-0.0, -0.0, 0.4), ZERO3, 0.002, -1e-3, 4, J123)
def test_aligned_tensors_match_the_reference_step_signed_zeros_too(q, w, tau, hw, tau_rw,
                                                                    n_sub, J):
    """An aligned tensor steps in the structure frame, without and with a
    wheel; the reference makes the same choice and agrees to the sign of
    every zero."""
    start = _state(q, w, hw, 3.0)
    fused = propagate(start, J, tau, 0.1, n_sub, wheel_torque=tau_rw)
    assert repr(fused) == repr(propagate_reference(start, J, tau, 0.1, n_sub,
                                                   wheel_torque=tau_rw))


@settings(max_examples=200)
@given(unit_quats, tumble_rates, torques, st.just(0.0) | st.floats(-0.01, 0.01),
       st.just(0.0) | st.floats(-1e-3, 1e-3),
       st.floats(0.0, 1e4), st.floats(0.01, 0.1), st.integers(1, 12),
       st.sampled_from([J123, J_OFF_DIAGONAL, J_FLIGHT, J_OBLATE, J_ODD_Y]))
@example(Quat(0.5, 0.5, -0.5, 0.5), Vec3(3.7, 3.7, 3.7), Vec3(2e-6, -1e-6, 5e-7),
         0.004, 0.0, 12.3, 0.1, 1, J_OFF_DIAGONAL)
@example(Quat(0.5, 0.5, -0.5, 0.5), Vec3(3.7, 3.7, 3.7), Vec3(2e-6, -1e-6, 5e-7),
         0.004, -7e-4, 12.3, 0.1, 7, J_FLIGHT)
@example(Quat(0.5, 0.5, -0.5, 0.5), Vec3(3.7, 3.7, 3.7), Vec3(2e-6, -1e-6, 5e-7),
         0.0, 1e-3, 12.3, 0.1, 3, J_OBLATE)
def test_propagate_matches_the_reference_step_bit_for_bit(q, w, tau, hw, tau_rw, t, dt, n_sub,
                                                           J):
    start = _state(q, w, hw, t)
    fused = propagate(start, J, tau, dt, n_sub, wheel_torque=tau_rw)
    ref = propagate_reference(start, J, tau, dt, n_sub, wheel_torque=tau_rw)
    assert fused.q == ref.q
    assert fused.omega == ref.omega
    assert fused.wheel_momentum == ref.wheel_momentum
    assert fused.t == ref.t
    assert repr(fused) == repr(ref)  # signed zeros too
    if tau_rw == 0.0:
        assert fused.wheel_momentum == hw


def test_torque_free_step_is_exact_for_the_axisymmetric_flight_inertia():
    """One 0.8 rad step of the free flight stack against the closed form.

    About the symmetry axis z the body turns by |H| t / Jt about the fixed
    momentum and by (1/Jz - 1/Jt) Hz t about z; in the body the transverse
    momentum turns the other way by the second angle.
    """
    jt, jz = J_FLIGHT.rows[0][0], J_FLIGHT.rows[2][2]
    w0 = Vec3(3.1, -5.2, 5.4)  # |w| dt = 0.8 rad
    start = _state(normalize_canonical(Quat(0.3, -0.5, 0.2, 0.7)), w0)
    dt = 0.8 / math.sqrt(sum(c * c for c in w0))
    h0 = inertia_dot(J_FLIGHT, w0)
    hn = math.sqrt(sum(c * c for c in h0))
    theta = (1.0 / jz - 1.0 / jt) * h0.z * dt
    q = quat_multiply(quat_multiply(start.q, quat_from_axis_angle(h0, hn * dt / jt)),
                      quat_from_axis_angle(Vec3(0.0, 0.0, 1.0), theta))
    c, s = math.cos(theta), math.sin(theta)
    closed = _state(normalize_canonical(q),
                    Vec3((c * h0.x + s * h0.y) / jt, (c * h0.y - s * h0.x) / jt, h0.z / jz))

    rk4 = start
    for _ in range(2000):  # the closed form itself, against a fine RK4
        rk4 = rk4_step(rk4, free_rotation(J_FLIGHT), dt / 2000)
    assert _max_error(rk4, closed) < 1e-10
    assert _max_error(propagate(start, J_FLIGHT, ZERO3, dt, 1), closed) < 1e-12


def _assert_second_order(J):
    """Halving the substep quarters the error against a fine RK4, with torque,
    without and with a held wheel momentum (whose gyroscopic term RK4
    evaluates from the state)."""
    tau = Vec3(0.3, -0.2, 0.25)
    dyn = make_rigid_body_dynamics(J, tau)
    for hw in (0.0, 0.6):
        start = _state(normalize_canonical(Quat(0.3, -0.5, 0.2, 0.7)), Vec3(0.7, -1.1, 0.9), hw)
        ref = start
        for _ in range(4000):
            ref = rk4_step(ref, dyn, 0.4 / 4000)
        errors = [_max_error(propagate(start, J, tau, 0.4, n), ref) for n in (1, 2, 4, 8)]
        assert errors[0] < 1e-3
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.8 < coarse / fine < 4.2, (hw, errors)


def test_propagate_converges_at_second_order():
    _assert_second_order(J_OFF_DIAGONAL)


def test_an_aligned_step_converges_at_second_order():
    """diag(2, 2.5, 3), J_OFF_DIAGONAL's diagonal, runs all three rotations in
    the structure frame."""
    J = InertiaTensor.diagonal(2.0, 2.5, 3.0)
    assert J.aligned
    _assert_second_order(J)


def _total_momentum_in_orbit_frame(state, J):
    L = inertia_dot(J, state.omega)
    return rotate_body_to_orbit(state.q, Vec3(L.x - state.wheel_momentum, L.y, L.z))


@settings(max_examples=100)
@given(unit_quats, tumble_rates, st.floats(-0.5, 0.5), st.floats(-0.3, 0.3),
       st.integers(1, 12), st.sampled_from([J123, J_OFF_DIAGONAL, J_FLIGHT, J_OBLATE]))
def test_the_wheel_torque_moves_momentum_between_wheel_and_body(q, w, hw, tau_rw, n_sub, J):
    """Without external torque the total momentum J omega - hw x keeps its
    direction and size in the orbit frame, while the wheel's share changes
    by the wheel torque's impulse."""
    start = _state(q, w, hw)
    out = propagate(start, J, ZERO3, 0.1, n_sub, wheel_torque=tau_rw)
    before = _total_momentum_in_orbit_frame(start, J)
    after = _total_momentum_in_orbit_frame(out, J)
    scale = max(1.0, math.sqrt(sum(c * c for c in before)))
    assert max(abs(a - b) for a, b in zip(after, before)) < 1e-13 * scale
    assert out.wheel_momentum == pytest.approx(hw + 0.1 * tau_rw, abs=1e-14)  # up to 24 rounded half-kicks


def test_propagate_bad_dt_rejected():
    s = _state()
    with pytest.raises(ValueError):
        propagate(s, J123, ZERO3, 0.0)
    with pytest.raises(ValueError):
        propagate(s, J123, ZERO3, -0.1)
    with pytest.raises(ValueError):
        propagate(s, J123, ZERO3, math.inf)
    with pytest.raises(ValueError):
        propagate(s, J123, ZERO3, 0.1, 0)


@pytest.mark.parametrize("start", [
    _state(w=Vec3(1e200, 1e200, 0.0)),             # |H| overflows
    _state(q=Quat(1e155, 1e155, 0.0, 0.0)),        # finite parts, norm overflows
], ids=["runaway-rates", "norm-overflow"])
@pytest.mark.parametrize("n_sub", [1, 4])
def test_propagate_nonfinite_state_is_reported_like_rk4(start, n_sub):
    """A runaway raises NonFiniteStateError as RK4 does, never the ValueError
    of math.cos(inf), with the reference step's message."""
    with pytest.raises(NonFiniteStateError) as fused:
        propagate(start, J_OFF_DIAGONAL, ZERO3, 0.1, n_sub)
    with pytest.raises(NonFiniteStateError) as ref:
        propagate_reference(start, J_OFF_DIAGONAL, ZERO3, 0.1, n_sub)
    assert str(fused.value) == str(ref.value)
    with pytest.raises(NonFiniteStateError):
        rk4_step(start, free_rotation(J_OFF_DIAGONAL), 0.1 / n_sub)


@pytest.mark.parametrize("q", [
    Quat(0.0, 0.0, 0.0, -1.0), Quat(0.0, 0.0, -1.0, 0.0), Quat(0.0, -1.0, 0.0, 0.0),
    Quat(0.0, 0.0, 0.0, 1.0), Quat(-1.0, 0.0, 0.0, 0.0),
])
def test_propagate_canonical_sign_at_q0_zero(q):
    """At rest the quaternion is only renormalized and sign-flipped, and no
    component is left at -0.0."""
    fused = propagate(_state(q), J123, ZERO3, 0.1, 3)
    assert fused.q == normalize_canonical(q)
    assert all(math.copysign(1.0, c) > 0.0 for c in fused.q), fused.q
    assert repr(fused) == repr(propagate_reference(_state(q), J123, ZERO3, 0.1, 3))


@pytest.mark.parametrize("J", [J123, J_OFF_DIAGONAL, J_FLIGHT, J_OBLATE],
                         ids=["diag123", "off-diagonal", "flight (merged)", "oblate (merged)"])
@pytest.mark.parametrize("hw, tau_rw", [(0.0, 0.0), (0.004, 0.0), (0.0, 1e-3)],
                         ids=["no wheel", "wheel momentum", "wheel torque"])
def test_propagate_returns_the_declared_record_types(J, hw, tau_rw):
    """The records are built without their generated constructors; the
    types stay exact, for a plain tuple state too."""
    q = normalize_canonical(Quat(0.5, 0.5, -0.5, 0.5))
    for start in (_state(q, Vec3(0.3, -0.2, 0.1), hw, 1.0), (q, (0.3, -0.2, 0.1), hw, 1.0)):
        out = propagate(start, J, (1e-6, 0.0, -1e-6), 0.1, 2, wheel_torque=tau_rw)
        assert type(out) is AttitudeState
        assert type(out.q) is Quat
        assert type(out.omega) is Vec3
        assert type(out.wheel_momentum) is float and type(out.t) is float
