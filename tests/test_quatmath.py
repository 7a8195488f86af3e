import math

import pytest
from hypothesis import example, given, strategies as st

from adcslab.quatmath import (
    IDENTITY,
    RADPS_TO_RPM,
    RPM_TO_RADPS,
    Quat,
    Vec3,
    ZeroQuaternionError,
    canonical_sign,
    normalize_canonical,
    quat_from_euler,
    quat_norm,
    quat_to_euler,
    rotate_orbit_to_body,
    vdot,
    vnorm,
)
from oracles import (
    float_bits,
    quat_conjugate,
    quat_derivative,
    quat_from_axis_angle,
    quat_multiply,
    quat_to_euler_reference,
    rotate_body_to_orbit,
    vcross,
    vsub,
    vunit,
    warm_call,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
angles = st.floats(min_value=-math.pi, max_value=math.pi)


def unit_quats():
    """Strategy: unit quaternions built from axis-angle (never degenerate)."""
    return st.builds(
        lambda ax, ang: quat_from_axis_angle(vunit(Vec3(*ax)), ang),
        st.tuples(finite, finite, finite).filter(lambda v: vnorm(Vec3(*v)) > 1e-3),
        angles,
    )


def rates():
    return st.builds(Vec3, finite, finite, finite)


# ---------------------------------------------------------------- derivative

def test_derivative_zero_rate_is_fixed_point():
    assert quat_derivative(IDENTITY, Vec3(0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0, 0.0)


def test_derivative_single_axis_rate():
    """First column of the rate matrix: identity spun about x at w."""
    w = 0.3
    qdot = quat_derivative(IDENTITY, Vec3(w, 0.0, 0.0))
    assert qdot == pytest.approx((0.0, w / 2.0, 0.0, 0.0), abs=1e-15)


@given(unit_quats(), rates())
def test_derivative_is_norm_preserving_tangent(q, w):
    qdot = quat_derivative(q, w)
    dot = q.q0 * qdot[0] + q.q1 * qdot[1] + q.q2 * qdot[2] + q.q3 * qdot[3]
    assert abs(dot) < 1e-12


# ------------------------------------------------------------- normalization

def test_normalize_scales_to_unit():
    assert normalize_canonical(Quat(2.0, 0.0, 0.0, 0.0)) == IDENTITY


def test_normalize_flips_negative_scalar():
    assert normalize_canonical(Quat(-1.0, 0.0, 0.0, 0.0)) == IDENTITY


def test_normalize_zero_scalar_tie_rule():
    # q0 = 0: sign chosen so the first nonzero vector component is positive
    q = normalize_canonical(Quat(0.0, 0.0, 0.0, -3.0))
    assert q == Quat(0.0, 0.0, 0.0, 1.0)


def test_normalize_rejects_zero():
    with pytest.raises(ZeroQuaternionError):
        normalize_canonical(Quat(0.0, 0.0, 0.0, 0.0))


def test_canonical_sign_tie_on_middle_component():
    q = canonical_sign(Quat(0.0, 0.0, -1.0, 0.5))
    assert q.q2 > 0 and q.q3 < 0


@given(unit_quats())
def test_canonical_sign_idempotent(q):
    c = canonical_sign(q)
    assert canonical_sign(c) == c
    assert c.q0 >= 0.0


@given(unit_quats())
def test_normalized_norm_is_one(q):
    assert quat_norm(normalize_canonical(q)) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ rotation

def test_rotation_identity_leaves_vector():
    v = Vec3(1.0, 2.0, 3.0)
    assert rotate_body_to_orbit(IDENTITY, v) == v


def test_rotation_quarter_turn_about_z():
    q = quat_from_axis_angle(Vec3(0.0, 0.0, 1.0), math.pi / 2.0)
    out = rotate_body_to_orbit(q, Vec3(1.0, 0.0, 0.0))
    assert out.x == pytest.approx(0.0, abs=1e-15)
    assert out.y == pytest.approx(1.0, abs=1e-15)


@given(unit_quats(), rates())
def test_rotation_round_trip(q, v):
    back = rotate_orbit_to_body(q, rotate_body_to_orbit(q, v))
    assert vnorm(vsub(back, v)) < 1e-9


@given(unit_quats(), rates())
def test_rotation_preserves_length(q, v):
    assert vnorm(rotate_body_to_orbit(q, v)) == pytest.approx(vnorm(v), abs=1e-9)


@given(unit_quats(), unit_quats())
def test_multiply_composes_rotations(a, b):
    """R(a*b)v = R(a)R(b)v — Hamilton product convention check."""
    v = Vec3(0.3, -0.7, 1.1)
    lhs = rotate_body_to_orbit(quat_multiply(a, b), v)
    rhs = rotate_body_to_orbit(a, rotate_body_to_orbit(b, v))
    assert vnorm(vsub(lhs, rhs)) < 1e-9


@given(unit_quats())
def test_conjugate_inverts(q):
    p = quat_multiply(q, quat_conjugate(q))
    assert p.q0 == pytest.approx(1.0, abs=1e-12)
    assert abs(p.q1) < 1e-12 and abs(p.q2) < 1e-12 and abs(p.q3) < 1e-12


# --------------------------------------------------------------- euler angles

def test_euler_identity():
    assert quat_to_euler(IDENTITY) == (0.0, 0.0, 0.0)


def test_euler_roll_quarter_turn():
    q = quat_from_axis_angle(Vec3(1.0, 0.0, 0.0), math.pi / 2.0)
    roll, pitch, yaw = quat_to_euler(q)
    assert roll == pytest.approx(90.0, abs=1e-9)
    assert pitch == pytest.approx(0.0, abs=1e-9)
    assert yaw == pytest.approx(0.0, abs=1e-9)


def test_euler_all_ninety():
    q = quat_from_euler(90.0, 90.0, 90.0)
    s = math.sqrt(0.5)
    assert q.q0 == pytest.approx(s, abs=1e-12)
    assert q.q1 == pytest.approx(0.0, abs=1e-12)
    assert q.q2 == pytest.approx(s, abs=1e-12)
    assert q.q3 == pytest.approx(0.0, abs=1e-12)


def test_euler_gimbal_fold_puts_rotation_in_yaw():
    q = quat_from_euler(35.0, 90.0, 10.0)
    roll, pitch, yaw = quat_to_euler(q)
    assert roll == 0.0
    assert pitch == pytest.approx(90.0, abs=1e-6)


@pytest.mark.parametrize("roll", [-150.0, -45.0, 0.0, 30.0, 179.0])
@pytest.mark.parametrize("pitch", [-80.0, -30.0, 0.0, 45.0, 80.0])
@pytest.mark.parametrize("yaw", [-170.0, -60.0, 0.0, 90.0, 120.0])
def test_euler_round_trip(roll, pitch, yaw):
    r, p, y = quat_to_euler(quat_from_euler(roll, pitch, yaw))
    assert r == pytest.approx(roll, abs=1e-9)
    assert p == pytest.approx(pitch, abs=1e-9)
    assert y == pytest.approx(yaw, abs=1e-9)


# atan2(-0.0, x < 0) is -pi: roll for the first quaternion, yaw for the
# second, which the wrap folds from -180 onto 180.
ROLL_FOLD = Quat(-0.0, 1.0, 0.0, -0.0)
YAW_FOLD = Quat(-0.0, -0.0, 0.0, 1.0)


def test_euler_folds_minus_180_onto_180():
    assert quat_to_euler(ROLL_FOLD) == (180.0, 0.0, 0.0)
    assert quat_to_euler(YAW_FOLD) == (0.0, 0.0, 180.0)


components = (st.floats(-1.0, 1.0) | st.floats()
              | st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, math.sqrt(0.5), -math.sqrt(0.5),
                                 math.nan, math.inf, -math.inf]))


@given(st.builds(Quat, components, components, components, components))
@example(ROLL_FOLD)
@example(YAW_FOLD)
@example(Quat(math.sqrt(0.5), -0.0, math.sqrt(0.5), -0.0))   # the pitch singularity
@example(Quat(math.nan, -math.nan, -math.nan, math.nan))      # nan * -nan
def test_euler_is_the_wrapped_form_bit_for_bit(q):
    """The in-place fold against ``oracles.wrap_deg``, over any quaternion,
    unnormalized, signed zeros, NaN of either sign and the infinities
    included."""
    assert (float_bits(warm_call(quat_to_euler, q))
            == float_bits(warm_call(quat_to_euler_reference, q)))


# ------------------------------------------------------------------- vectors

def test_cross_right_handed():
    assert vcross(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Vec3(0, 0, 1)


@given(rates(), rates())
def test_cross_is_perpendicular(a, b):
    c = vcross(a, b)
    assert abs(vdot(c, a)) < 1e-9
    assert abs(vdot(c, b)) < 1e-9


def test_unit_rejects_zero():
    with pytest.raises(ValueError):
        vunit(Vec3(0.0, 0.0, 0.0))


def test_rpm_conversion_round_trip():
    assert RPM_TO_RADPS * RADPS_TO_RPM == pytest.approx(1.0, abs=1e-15)
    assert 1.0 * RPM_TO_RADPS == pytest.approx(0.10471975511965977, abs=1e-15)
