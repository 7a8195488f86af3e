"""Reference implementations the tests check the package against.

None of this is on the simulation path.  :func:`propagate_reference` is the
splitting step that :func:`adcslab.rigidbody.propagate` must match bit for
bit; :func:`rk4_step` on :func:`make_rigid_body_dynamics` is the plain RK4
that it is checked against for accuracy; the environment reference forms
(the orbit, the dipole field, the eclipse test and each disturbance torque,
one function per formula) compose to what the one-pass refresh in
:mod:`adcslab.environment` must match bit for bit; the quaternion and
vector helpers build test inputs and expected values.

The tests import this module as ``from oracles import ...``: ``tests/`` has
no ``__init__.py``, so pytest puts the directory on ``sys.path``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from adcslab.environment import (
    EnvironmentSample,
    OrbitConfig,
    OrbitFrameSample,
    OrbitState,
    SpacecraftGeometry,
    atmospheric_density,
    constants,
    propagate_orbit,
)
from adcslab.quatmath import (
    Quat,
    Vec3,
    ZeroQuaternionError,
    normalize_canonical,
    quat_norm,
    rotate_orbit_to_body,
    vdot,
    vnorm,
)
from adcslab.rigidbody import AttitudeState, InertiaTensor, NonFiniteStateError

_Rates = tuple[tuple[float, float, float, float], Vec3]
Dynamics = Callable[[AttitudeState], _Rates]
_C = constants()


# ---------------------------------------------------------------------------
# Quaternion and vector helpers
# ---------------------------------------------------------------------------

def vsub(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vcross(a: Vec3, b: Vec3) -> Vec3:
    return Vec3(
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def vunit(a: Vec3) -> Vec3:
    n = vnorm(a)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return Vec3(a[0] / n, a[1] / n, a[2] / n)


def inertia_dot(J: InertiaTensor, v: Vec3) -> Vec3:
    """``J v`` from the tensor's rows."""
    (a, b, c), (d, e, f), (g, h, i) = J.rows
    return Vec3(a * v[0] + b * v[1] + c * v[2],
                d * v[0] + e * v[1] + f * v[2],
                g * v[0] + h * v[1] + i * v[2])


def quat_multiply(a: Quat, b: Quat) -> Quat:
    """Hamilton product ``a (x) b``."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return Quat(
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def quat_conjugate(q: Quat) -> Quat:
    return Quat(q[0], -q[1], -q[2], -q[3])


def quat_from_axis_angle(axis: Vec3, angle_rad: float) -> Quat:
    u = vunit(axis)
    h = 0.5 * angle_rad
    s = math.sin(h)
    return Quat(math.cos(h), u[0] * s, u[1] * s, u[2] * s)


def rotate_body_to_orbit(q: Quat, v: Vec3) -> Vec3:
    """Apply ``R(q)``: express a body-frame vector in the orbit frame."""
    q0, q1, q2, q3 = q
    vx, vy, vz = v
    return Vec3(
        (1.0 - 2.0 * (q2 * q2 + q3 * q3)) * vx
        + 2.0 * (q1 * q2 - q0 * q3) * vy
        + 2.0 * (q1 * q3 + q0 * q2) * vz,
        2.0 * (q1 * q2 + q0 * q3) * vx
        + (1.0 - 2.0 * (q1 * q1 + q3 * q3)) * vy
        + 2.0 * (q2 * q3 - q0 * q1) * vz,
        2.0 * (q1 * q3 - q0 * q2) * vx
        + 2.0 * (q2 * q3 + q0 * q1) * vy
        + (1.0 - 2.0 * (q1 * q1 + q2 * q2)) * vz,
    )


def quat_derivative(q: Quat, omega: Vec3) -> tuple[float, float, float, float]:
    """Attitude kinematics ``qdot = 0.5 * Omega(omega) * q``.

    ``Omega`` is the standard scalar-first skew form whose first row is
    ``(0, -wx, -wy, -wz)``; the derivative is exactly orthogonal to ``q``.
    """
    q0, q1, q2, q3 = q
    wx, wy, wz = omega
    return (
        0.5 * (-wx * q1 - wy * q2 - wz * q3),
        0.5 * (wx * q0 + wz * q2 - wy * q3),
        0.5 * (wy * q0 - wz * q1 + wx * q3),
        0.5 * (wz * q0 + wy * q1 - wx * q2),
    )


# ---------------------------------------------------------------------------
# Reference RK4, the accuracy reference
# ---------------------------------------------------------------------------

def make_rigid_body_dynamics(J: InertiaTensor, torque: Vec3) -> Dynamics:
    """Dynamics closure for a constant body-frame torque over one step.

    The control loop recomputes the torque once per step (zero-order hold),
    so within a step the torque is constant and the closure only evaluates
    the gyroscopic term and the kinematics.  The gyroscopic term acts on the
    total momentum ``J omega - hw x`` with the state's wheel momentum, which
    RK4 holds over the step (a gyrostat with no wheel torque).
    """
    (a, b, c), (d, e, f), (g, h, i) = J.rows
    (p, qq, r), (s, t, u), (v, w, x) = (map(float, row) for row in np.linalg.inv(J.matrix))
    tx, ty, tz = torque

    def dynamics(state: AttitudeState) -> _Rates:
        wx, wy, wz = state.omega
        hx = a * wx + b * wy + c * wz - state.wheel_momentum
        hy = d * wx + e * wy + f * wz
        hz = g * wx + h * wy + i * wz
        gx = tx - (wy * hz - wz * hy)
        gy = ty - (wz * hx - wx * hz)
        gz = tz - (wx * hy - wy * hx)
        return (
            quat_derivative(state.q, state.omega),
            Vec3(p * gx + qq * gy + r * gz,
                 s * gx + t * gy + u * gz,
                 v * gx + w * gy + x * gz),
        )

    return dynamics


def free_rotation(J: InertiaTensor) -> Dynamics:
    """Torque-free dynamics; conserves energy and momentum up to RK4 error."""
    return make_rigid_body_dynamics(J, Vec3(0.0, 0.0, 0.0))


def rk4_step(state: AttitudeState, dynamics: Dynamics, dt: float) -> AttitudeState:
    """One classical RK4 step of the combined (q, omega) state.

    The returned quaternion is renormalized and sign-canonicalized; wheel
    momentum is carried through untouched (the actuator model owns it).

    Raises:
        ValueError: on a non-positive ``dt``.
        NonFiniteStateError: if any component leaves the finite domain.
    """
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    q0, q1, q2, q3 = state.q
    wx, wy, wz = state.omega
    t = state.t
    half = 0.5 * dt

    k1q, k1w = dynamics(state)
    s2 = AttitudeState(
        Quat(q0 + half * k1q[0], q1 + half * k1q[1],
             q2 + half * k1q[2], q3 + half * k1q[3]),
        Vec3(wx + half * k1w[0], wy + half * k1w[1], wz + half * k1w[2]),
        state.wheel_momentum, t + half)
    k2q, k2w = dynamics(s2)
    s3 = AttitudeState(
        Quat(q0 + half * k2q[0], q1 + half * k2q[1],
             q2 + half * k2q[2], q3 + half * k2q[3]),
        Vec3(wx + half * k2w[0], wy + half * k2w[1], wz + half * k2w[2]),
        state.wheel_momentum, t + half)
    k3q, k3w = dynamics(s3)
    s4 = AttitudeState(
        Quat(q0 + dt * k3q[0], q1 + dt * k3q[1],
             q2 + dt * k3q[2], q3 + dt * k3q[3]),
        Vec3(wx + dt * k3w[0], wy + dt * k3w[1], wz + dt * k3w[2]),
        state.wheel_momentum, t + dt)
    k4q, k4w = dynamics(s4)

    sixth = dt / 6.0
    qn = Quat(
        q0 + sixth * (k1q[0] + 2.0 * (k2q[0] + k3q[0]) + k4q[0]),
        q1 + sixth * (k1q[1] + 2.0 * (k2q[1] + k3q[1]) + k4q[1]),
        q2 + sixth * (k1q[2] + 2.0 * (k2q[2] + k3q[2]) + k4q[2]),
        q3 + sixth * (k1q[3] + 2.0 * (k2q[3] + k3q[3]) + k4q[3]),
    )
    wn = Vec3(
        wx + sixth * (k1w[0] + 2.0 * (k2w[0] + k3w[0]) + k4w[0]),
        wy + sixth * (k1w[1] + 2.0 * (k2w[1] + k3w[1]) + k4w[1]),
        wz + sixth * (k1w[2] + 2.0 * (k2w[2] + k3w[2]) + k4w[2]),
    )
    probe = qn[0] + qn[1] + qn[2] + qn[3] + wn[0] + wn[1] + wn[2]
    if not math.isfinite(probe):
        raise NonFiniteStateError(
            f"non-finite state after step at t={t:.6g}s (dt={dt:g}); "
            "dt is probably too large for the current rates"
        )
    try:
        q_unit = normalize_canonical(qn)
    except ZeroQuaternionError as exc:
        # Components can stay individually finite while the squared norm
        # overflows; that's the same runaway, reported the same way.
        raise NonFiniteStateError(
            f"quaternion norm left the finite domain at t={t:.6g}s (dt={dt:g})"
        ) from exc
    return AttitudeState(q_unit, wn, state.wheel_momentum, t + dt)


# ---------------------------------------------------------------------------
# Reference splitting step
# ---------------------------------------------------------------------------

def _axis_rotation(q: Quat, H: list, i: int, half_angle: float) -> Quat:
    """Flow of ``a H_i^2 / 2`` about principal axis ``i`` (0-based): turn the
    body by ``2 * half_angle`` about the axis; ``H`` turns the other way, in
    place."""
    c, s = math.cos(half_angle), math.sin(half_angle)
    cc, ss = c * c - s * s, 2.0 * s * c
    j, k = (i + 1) % 3, (i + 2) % 3
    H[j], H[k] = cc * H[j] + ss * H[k], cc * H[k] - ss * H[j]
    axis = [0.0, 0.0, 0.0]
    axis[i] = s
    return quat_multiply(q, Quat(c, *axis))


def propagate_reference(state: AttitudeState, J: InertiaTensor, torque: Vec3, dt: float,
                        n_sub: int = 1, wheel_torque: float = 0.0) -> AttitudeState:
    """The kick-drift-kick splitting step of ``propagate``, written plainly.

    In the principal frame of ``J``, ``H`` is the total momentum ``J omega -
    hw x``.  Each of the ``n_sub`` substeps of length ``h`` adds half the
    torque impulse to ``H`` and half the wheel impulse to ``hw``, turns the
    body by ``hw J^-1 x h / 2`` (the wheel's flow, when the wheel holds
    momentum or applies torque), turns it about ``H`` by ``|H| h / I2``, runs
    ``R1(h/2) R3(h) R1(h/2)`` (a single ``R1(h)`` when ``R3``'s coefficient is
    zero), turns it by the wheel's flow again, and adds the other halves.
    ``H`` turns against each body turn.  The arithmetic is the kernel's, in
    the same order, so the results agree bit for bit.

    Raises:
        ValueError: on a non-positive or non-finite ``dt``, or ``n_sub < 1``.
        NonFiniteStateError: if the momentum or the quaternion norm leaves
            the finite domain.
    """
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_sub < 1:
        raise ValueError(f"n_sub must be at least 1, got {n_sub}")
    axes, moments, e = J.principal_axes, J.principal_moments, J.principal_frame
    i1, i2, i3 = moments
    step = dt / n_sub
    hw = state.wheel_momentum
    wheel = hw != 0.0 or wheel_torque != 0.0
    x_axis = [v[0] for v in axes]  # body x in the principal frame
    H = [i * vdot(v, state.omega) for i, v in zip(moments, axes)]
    if wheel:
        H = [h - hw * x for h, x in zip(H, x_axis)]
    kick = [0.5 * step * vdot(v, torque) for v in axes]
    wheel_kick = 0.5 * step * wheel_torque
    g = Vec3(*(x / i for x, i in zip(x_axis, moments)))  # J^-1 x
    g_hat = Vec3(*(c / vnorm(g) for c in g))
    q = quat_multiply(state.q, e)
    casimir = 0.5 * step / i2
    r1 = 0.25 * step * (1.0 / i1 - 1.0 / i2)
    r3 = 0.5 * step * (1.0 / i3 - 1.0 / i2)
    sequence = ((0, r1 + r1),) if r3 == 0.0 else ((0, r1), (2, r3), (0, r1))
    message = (f"state left the finite domain in the step from t={state.t:.6g}s "
               f"(substep {step:g} s)")
    try:
        for _ in range(n_sub):
            H = [h + k for h, k in zip(H, kick)]
            if wheel:
                hw = hw + wheel_kick
                a = 0.25 * step * vnorm(g) * hw
                s = math.sin(a)
                turn = Quat(math.cos(a), s * g_hat[0], s * g_hat[1], s * g_hat[2])
                q = quat_multiply(q, turn)
                H = list(rotate_orbit_to_body(turn, H))
            hn = vnorm(H)
            if hn > 0.0:
                a = hn * casimir
                s = math.sin(a) / hn
                q = quat_multiply(q, Quat(math.cos(a), s * H[0], s * H[1], s * H[2]))
            for i, r in sequence:
                q = _axis_rotation(q, H, i, r * H[i])
            if wheel:
                q = quat_multiply(q, turn)
                H = rotate_orbit_to_body(turn, H)
                hw = hw + wheel_kick
            H = [h + k for h, k in zip(H, kick)]
    except ValueError as exc:
        raise NonFiniteStateError(message) from exc
    q = quat_multiply(q, quat_conjugate(e))
    n = quat_norm(q)
    if not (n > 0.0 and math.isfinite(n + H[0] + H[1] + H[2])):
        raise NonFiniteStateError(message)
    q = Quat(*(c + 0.0 for c in normalize_canonical(q)))
    if wheel:
        H = [h + hw * x for h, x in zip(H, x_axis)]
    w = [h / i for h, i in zip(H, moments)]
    omega = Vec3(*(w[0] * axes[0][j] + w[1] * axes[1][j] + w[2] * axes[2][j] for j in range(3)))
    return AttitudeState(q, omega, hw, state.t + dt)


# ---------------------------------------------------------------------------
# Environment reference forms
# ---------------------------------------------------------------------------
# Each formula written once, through the quatmath helpers, with every
# constant computed per call.  The one-pass forms in adcslab.environment --
# propagate_orbit, orbit_frame_sample, OrbitFrameSample.to_body and
# total_disturbance -- must agree with these compositions bit for bit.

def propagate_orbit_reference(cfg: OrbitConfig, t: float) -> OrbitState:
    """Two-body circular orbit state at time ``t``, from the config's fields."""
    a = cfg.radius_m
    n = math.sqrt(_C.mu_m3s2 / (a * a * a))
    u = math.radians(cfg.phase_deg) + n * t
    cu, su = math.cos(u), math.sin(u)

    inc = math.radians(cfg.inclination_deg)
    raan = math.radians(cfg.raan_deg)
    ci, si = math.cos(inc), math.sin(inc)
    cO, sO = math.cos(raan), math.sin(raan)
    # Columns of Rz(raan) @ Rx(inc): in-plane basis vectors in inertial coords.
    p_hat = Vec3(cO, sO, 0.0)
    q_hat = Vec3(-sO * ci, cO * ci, si)

    r = Vec3(a * (cu * p_hat[0] + su * q_hat[0]),
             a * (cu * p_hat[1] + su * q_hat[1]),
             a * (cu * p_hat[2] + su * q_hat[2]))
    speed = n * a
    v = Vec3(speed * (-su * p_hat[0] + cu * q_hat[0]),
             speed * (-su * p_hat[1] + cu * q_hat[1]),
             speed * (-su * p_hat[2] + cu * q_hat[2]))

    bx = vunit(v)
    bz = vunit(Vec3(-r[0], -r[1], -r[2]))
    by = vcross(bz, bx)
    return OrbitState(r, v, bx, by, bz, radius_m=a, speed_mps=speed)


def to_orbit_frame(orbit: OrbitState, v_inertial: Vec3) -> Vec3:
    """An inertial vector in the orbit frame of ``orbit``."""
    return Vec3(vdot(orbit.basis_x, v_inertial),
                vdot(orbit.basis_y, v_inertial),
                vdot(orbit.basis_z, v_inertial))


def magnetic_field(orbit: OrbitState, tilt_deg: float = _C.default_dipole_tilt_deg) -> Vec3:
    """Tilted centered-dipole geomagnetic field at the orbit position, inertial frame.

    B = B0 (Re/r)^3 (3 (m.r_hat) r_hat - m_hat), with the dipole axis tilted
    ``tilt_deg`` from the inertial z axis (tilt of 0 gives an axis-aligned dipole).
    """
    tilt = math.radians(tilt_deg)
    m_hat = Vec3(math.sin(tilt), 0.0, math.cos(tilt))
    r_hat = vunit(orbit.position_m)
    scale = _C.dipole_b0_tesla * (_C.earth_radius_m / orbit.radius_m) ** 3
    mr = vdot(m_hat, r_hat)
    return Vec3(
        scale * (3.0 * mr * r_hat[0] - m_hat[0]),
        scale * (3.0 * mr * r_hat[1] - m_hat[1]),
        scale * (3.0 * mr * r_hat[2] - m_hat[2]),
    )


def in_eclipse(r: Vec3, s_hat: Vec3) -> bool:
    """Cylindrical shadow: on the anti-sun side of the Earth and within one
    Earth radius of the sun line through its center."""
    along = vdot(r, s_hat)
    if along >= 0.0:
        return False
    perp = Vec3(r[0] - along * s_hat[0], r[1] - along * s_hat[1], r[2] - along * s_hat[2])
    return vnorm(perp) < _C.earth_radius_m


def sun_direction(
    t: float,
    cfg: OrbitConfig,
    sun_inertial: Vec3 = Vec3(1.0, 0.0, 0.0),
) -> tuple[Vec3, bool]:
    """Unit vector toward the sun (inertial) and the cylindrical-shadow eclipse flag."""
    s_hat = vunit(sun_inertial)
    return s_hat, in_eclipse(propagate_orbit(cfg, t).position_m, s_hat)


def orbit_frame_sample_reference(
    cfg: OrbitConfig,
    t: float,
    sun_inertial: Vec3 = Vec3(1.0, 0.0, 0.0),
    dipole_tilt_deg: float = _C.default_dipole_tilt_deg,
) -> OrbitFrameSample:
    orbit = propagate_orbit_reference(cfg, t)
    s_hat = vunit(sun_inertial)
    return OrbitFrameSample(
        b_orbit_tesla=to_orbit_frame(orbit, magnetic_field(orbit, dipole_tilt_deg)),
        sun_orbit=to_orbit_frame(orbit, s_hat),
        in_eclipse=in_eclipse(orbit.position_m, s_hat),
        density_kgm3=atmospheric_density(cfg.altitude_km),
        v_orbit_mps=Vec3(orbit.speed_mps, 0.0, 0.0),  # x is along velocity by construction
        r_orbit_m=Vec3(0.0, 0.0, -orbit.radius_m),    # z points toward the Earth's center
    )


def to_body_reference(sample: OrbitFrameSample, q: Quat) -> EnvironmentSample:
    return EnvironmentSample(
        sun_body=rotate_orbit_to_body(q, sample.sun_orbit),
        in_eclipse=sample.in_eclipse,
        density_kgm3=sample.density_kgm3,
        v_rel_body_mps=rotate_orbit_to_body(q, sample.v_orbit_mps),
        r_body_m=rotate_orbit_to_body(q, sample.r_orbit_m),
    )


def drag_torque(geometry: SpacecraftGeometry, env: EnvironmentSample, cg_m: Vec3) -> Vec3:
    """Aerodynamic torque from flat-plate drag on the leading faces.

    The force is ``-0.5 Cd rho v^2 sum_i (v_hat . n_i) A_i v_hat`` over faces
    with ``v_hat . n_i > 0`` and acts at the projected-area-weighted centroid
    of those faces; the moment arm is that centroid minus the CG.
    """
    v = env.v_rel_body_mps
    speed = vnorm(v)
    if speed == 0.0 or env.density_kgm3 == 0.0:
        return Vec3(0.0, 0.0, 0.0)
    v_hat = Vec3(v[0] / speed, v[1] / speed, v[2] / speed)
    projected = 0.0
    cx = cy = cz = 0.0
    for f in geometry.faces:
        cosang = vdot(v_hat, f.normal)
        if cosang > 0.0:
            w = cosang * f.area_m2
            projected += w
            cx += w * f.centroid_m[0]
            cy += w * f.centroid_m[1]
            cz += w * f.centroid_m[2]
    if projected == 0.0:
        return Vec3(0.0, 0.0, 0.0)
    magnitude = 0.5 * geometry.drag_coefficient * env.density_kgm3 * speed * speed * projected
    force = Vec3(-magnitude * v_hat[0], -magnitude * v_hat[1], -magnitude * v_hat[2])
    arm = Vec3(cx / projected - cg_m[0], cy / projected - cg_m[1], cz / projected - cg_m[2])
    return vcross(arm, force)


def srp_torque(geometry: SpacecraftGeometry, env: EnvironmentSample, cg_m: Vec3) -> Vec3:
    """Solar radiation pressure torque on the sunlit faces; zero in eclipse.

    Per-face flat-plate force with specular/diffuse reflectances (c_sr, c_dif)::

        F = -(W/c) sum_i A_i (n_i . s) [ (1 - c_sr) s + (2 c_sr (n_i . s) + c_dif / 3) n_i ]

    summed over faces with ``n_i . s > 0``, where ``s`` points toward the sun.
    """
    if env.in_eclipse:
        return Vec3(0.0, 0.0, 0.0)
    s = env.sun_body
    pressure = _C.solar_flux_wm2 / _C.speed_of_light_ms
    c_sr = geometry.specular_reflectance
    c_dif = geometry.diffuse_reflectance
    tx = ty = tz = 0.0
    for f in geometry.faces:
        cosang = vdot(s, f.normal)
        if cosang <= 0.0:
            continue
        coeff_s = (1.0 - c_sr)
        coeff_n = 2.0 * c_sr * cosang + c_dif / 3.0
        scale = -pressure * f.area_m2 * cosang
        fx = scale * (coeff_s * s[0] + coeff_n * f.normal[0])
        fy = scale * (coeff_s * s[1] + coeff_n * f.normal[1])
        fz = scale * (coeff_s * s[2] + coeff_n * f.normal[2])
        ax = f.centroid_m[0] - cg_m[0]
        ay = f.centroid_m[1] - cg_m[1]
        az = f.centroid_m[2] - cg_m[2]
        tx += ay * fz - az * fy
        ty += az * fx - ax * fz
        tz += ax * fy - ay * fx
    return Vec3(tx, ty, tz)


def gravity_gradient_torque(J: InertiaTensor, r_body_m: Vec3) -> Vec3:
    """Gravity-gradient torque ``3 mu / |r|^5 * (r x J r)`` in the body frame."""
    jr = inertia_dot(J, r_body_m)
    r = vnorm(r_body_m)
    scale = 3.0 * _C.mu_m3s2 / r**5
    c = vcross(r_body_m, jr)
    return Vec3(scale * c[0], scale * c[1], scale * c[2])


def total_disturbance_reference(
    geometry: SpacecraftGeometry,
    env: EnvironmentSample,
    J: InertiaTensor,
    cg_m: Vec3,
    include: tuple[bool, bool, bool] = (True, True, True),
) -> Vec3:
    tx = ty = tz = 0.0
    if include[0]:
        d = drag_torque(geometry, env, cg_m)
        tx += d[0]; ty += d[1]; tz += d[2]
    if include[1]:
        s = srp_torque(geometry, env, cg_m)
        tx += s[0]; ty += s[1]; tz += s[2]
    if include[2]:
        g = gravity_gradient_torque(J, env.r_body_m)
        tx += g[0]; ty += g[1]; tz += g[2]
    return Vec3(tx, ty, tz)
