"""Rigid-body attitude state and fixed-step propagation.

The body carries an x-axis reaction wheel: a gyrostat.  The state is the
attitude quaternion (body relative to orbit frame), the body rate, and the
wheel momentum ``hw``, the momentum the wheel has given the body (minus the
wheel's own).  The total momentum ``L = J omega - hw x`` follows
``L_dot = L x omega + tau`` under the external torque held over the step,
``hw`` follows the wheel torque, and ``omega = J^-1 (L + hw x)`` turns the
quaternion, ``qdot = 0.5 * Omega(omega) * q`` (see :mod:`adcslab.quatmath`).

:func:`propagate`, the package's one integrator, is a kick-drift-kick
splitting in the principal frame (Dullweber, Leimkuhler & McLachlan, J. Chem.
Phys. 107, 1997): half the torque impulses, the free flow, the other half.
The free flow is a rotation about ``L`` by ``|L| h / I2``, the flow of the
Casimir ``|L|^2 / 2 I2`` with ``I2`` the middle principal moment, then ``R1(h/2)
R3(h) R1(h/2)`` about the other two axes.  A stored wheel momentum adds the
energy ``hw L . J^-1 x``, whose flow turns the body about the body-fixed
``J^-1 x``; it runs for half a substep on each side of the ``R1 R3 R1``
sequence (P. C. Hughes, *Spacecraft Attitude Dynamics*, 1986, for the
gyrostat).  Each rotation turns ``L`` and ``q`` exactly, so ``|L|`` is kept
to rounding and the step is second order; for an axisymmetric tensor and no
wheel ``R3`` drops out and the torque-free step is exact.  Its reference,
the same step written with quaternion helpers, is in ``tests/oracles.py``,
held equal bit for bit by a property test.  Its records are built with
``tuple.__new__`` (see :mod:`adcslab.quatmath`); their types are unchanged.
"""

from __future__ import annotations

from math import cos, isfinite, sin, sqrt
from typing import NamedTuple

import numpy as np

from .quatmath import Quat, Vec3

__all__ = [
    "AttitudeState",
    "InertiaTensor",
    "SingularInertiaError",
    "NonFiniteStateError",
    "propagate",
]


class SingularInertiaError(ValueError):
    """Inertia tensor is not invertible (degenerate mass catalog)."""


class NonFiniteStateError(FloatingPointError):
    """State left the finite domain; usually the step size is too large."""


class AttitudeState(NamedTuple):
    """Snapshot of the attitude propagation state at time ``t``."""

    q: Quat
    omega: Vec3          # rad/s, body frame, relative to orbit frame
    wheel_momentum: float  # N*m*s along body x, given to the body; total J omega - hw x
    t: float             # s


class InertiaTensor:
    """Validated 3x3 inertia tensor about the center of mass (kg*m^2).

    Construction enforces symmetry, positive definiteness, and the triangle
    inequality on the principal moments; a matrix that fails positive
    definiteness raises :class:`SingularInertiaError` so a degenerate mass
    catalog surfaces before any propagation is attempted.

    The same eigendecomposition gives the integrator's principal frame:
    ``principal_moments`` (the middle one second; an equal pair second and
    third), right-handed unit ``principal_axes`` in the structure frame, and
    ``principal_frame``, the quaternion whose matrix has them as columns.
    ``kernel`` is what :func:`propagate` unpacks, flat and built once: the
    nine axis components, the three moments, the frame quaternion, and the
    rotation rates ``1/I1 - 1/I2`` and ``1/I3 - 1/I2``.
    """

    __slots__ = ("_m", "rows", "principal_moments", "principal_axes", "principal_frame",
                 "kernel")

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError(f"inertia tensor must be 3x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("inertia tensor must be finite")
        scale = float(np.abs(m).max())
        if scale == 0.0:
            raise SingularInertiaError("inertia tensor is identically zero")
        if float(np.abs(m - m.T).max()) > 1e-12 * scale:
            raise ValueError("inertia tensor must be symmetric to 1e-12 relative")
        eigvals, axes = np.linalg.eigh(0.5 * (m + m.T))
        if eigvals[0] <= 1e-12 * eigvals[-1]:
            raise SingularInertiaError(
                f"inertia tensor is singular or indefinite (eigenvalues {eigvals})"
            )
        tol = 1e-12 * eigvals[-1]
        e1, e2, e3 = eigvals
        if e1 + e2 < e3 - tol:  # e3 is the largest
            raise ValueError(
                f"principal moments violate the triangle inequality: {eigvals}"
            )
        if np.linalg.det(axes) < 0.0:
            axes[:, 0] = -axes[:, 0]
        # Ascending keeps the middle moment second; a cyclic shift keeps the
        # frame right-handed and moves an equal pair to the second and third.
        order = [2, 0, 1] if e1 == e2 != e3 else [0, 1, 2]
        axes = axes[:, order]
        self._m = m
        self.principal_moments = tuple(float(eigvals[k]) for k in order)
        self.principal_axes = tuple(Vec3(*map(float, axes[:, k])) for k in range(3))
        self.principal_frame = _quat_from_matrix(axes)
        self.rows = tuple(tuple(float(x) for x in row) for row in m)
        i1, i2, i3 = self.principal_moments
        self.kernel = (*(x for axis in self.principal_axes for x in axis),
                       i1, i2, i3, *self.principal_frame,
                       1.0 / i1 - 1.0 / i2, 1.0 / i3 - 1.0 / i2)

    @classmethod
    def diagonal(cls, jxx: float, jyy: float, jzz: float) -> "InertiaTensor":
        return cls(np.diag([jxx, jyy, jzz]))

    @property
    def matrix(self) -> np.ndarray:
        return self._m.copy()


def _quat_from_matrix(r: np.ndarray) -> Quat:
    """The unit quaternion, ``q0 >= 0``, whose rotation matrix is ``r``.

    It is the top eigenvector of the symmetric 4x4 matrix below, which is
    ``4 q q^T - I`` up to scale (Bar-Itzhack, JGCD 23(6), 2000).
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r
    k = np.array([[r00 + r11 + r22, r21 - r12, r02 - r20, r10 - r01],
                  [r21 - r12, r00 - r11 - r22, r01 + r10, r02 + r20],
                  [r02 - r20, r01 + r10, r11 - r00 - r22, r12 + r21],
                  [r10 - r01, r02 + r20, r12 + r21, r22 - r00 - r11]])
    q = np.linalg.eigh(k)[1][:, -1]
    q = q / np.linalg.norm(q) * (1.0 if q[0] >= 0.0 else -1.0)
    return Quat(*map(float, q))


def propagate(state: AttitudeState, J: InertiaTensor, torque: Vec3, dt: float,
              n_sub: int = 1, wheel_torque: float = 0.0) -> AttitudeState:
    """Integrate over ``dt`` with ``n_sub`` equal kick-drift-kick substeps.

    ``torque`` (body frame, external) and ``wheel_torque`` (the x-axis
    wheel's torque on the body) are held over ``dt``; the wheel torque moves
    momentum between wheel and body and leaves the total unchanged.
    ``state`` is unpacked by position, so a plain ``(q, omega, hw, t)`` tuple
    serves as well as an :class:`AttitudeState`.  The state moves to the
    principal frame once, runs the substeps on plain local floats, and moves
    back; ``propagate_reference`` in ``tests/oracles.py`` is the same step
    written with quaternion helpers and must match it bit for bit.  For an
    axisymmetric tensor the choice of the one-rotation drift is made once per
    call, and a run whose wheel holds no momentum and applies no torque does
    no wheel work.  This is the simulation hot path.

    Raises:
        ValueError: on a non-positive or non-finite ``dt``, or ``n_sub < 1``.
        NonFiniteStateError: if the momentum or the quaternion norm leaves
            the finite domain.
    """
    if not (dt > 0.0) or not isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_sub < 1:
        raise ValueError(f"n_sub must be at least 1, got {n_sub}")
    ax, ay, az, bx, by, bz, cx, cy, cz, i1, i2, i3, e0, e1, e2, e3, d1, d3 = J.kernel
    tx, ty, tz = torque
    (q0, q1, q2, q3), (wx, wy, wz), hw, t = state
    step = dt / n_sub

    # Into the principal frame: H = diag(I) V^T omega, the half-step torque
    # impulse V^T tau step / 2, and the attitude of the principal axes q (x) e.
    h1 = i1 * (ax * wx + ay * wy + az * wz)
    h2 = i2 * (bx * wx + by * wy + bz * wz)
    h3 = i3 * (cx * wx + cy * wy + cz * wz)
    kick = 0.5 * step
    k1 = kick * (ax * tx + ay * ty + az * tz)
    k2 = kick * (bx * tx + by * ty + bz * tz)
    k3 = kick * (cx * tx + cy * ty + cz * tz)
    q0, q1, q2, q3 = (q0 * e0 - q1 * e1 - q2 * e2 - q3 * e3,
                      q0 * e1 + q1 * e0 + q2 * e3 - q3 * e2,
                      q0 * e2 - q1 * e3 + q2 * e0 + q3 * e1,
                      q0 * e3 + q1 * e2 - q2 * e1 + q3 * e0)
    # Half rotation angles per unit momentum: the Casimir rotation over the
    # substep, R1 over half of it and R3 over all of it.
    casimir = 0.5 * step / i2
    r1 = 0.25 * step * d1
    r3 = 0.5 * step * d3
    merged = r3 == 0.0  # I2 == I3: R1(h/2) R1(h/2) is one R1(h)
    if merged:
        r1 = r1 + r1
    wheel = hw != 0.0 or wheel_torque != 0.0
    if wheel:
        # The total momentum L = H - hw V^T x, the wheel's half-step kick,
        # and the unit axis n of J^-1 x with the half angle per unit hw of
        # its flow over half a substep.
        h1, h2, h3 = h1 - hw * ax, h2 - hw * bx, h3 - hw * cx
        kw = kick * wheel_torque
        g1, g2, g3 = ax / i1, bx / i2, cx / i3
        gn = sqrt(g1 * g1 + g2 * g2 + g3 * g3)
        n1, n2, n3 = g1 / gn, g2 / gn, g3 / gn
        spin = 0.25 * step * gn

    try:
        for _ in range(n_sub):
            h1, h2, h3 = h1 + k1, h2 + k2, h3 + k3
            if wheel:
                # Turn the body by u and L back by R(u)^T, with the matrix of
                # rotate_orbit_to_body; the second half below reuses both.
                hw = hw + kw
                a = spin * hw
                s = sin(a)
                u0, u1, u2, u3 = cos(a), s * n1, s * n2, s * n3
                m11 = 1.0 - 2.0 * (u2 * u2 + u3 * u3)
                m12 = 2.0 * (u1 * u2 + u0 * u3)
                m13 = 2.0 * (u1 * u3 - u0 * u2)
                m21 = 2.0 * (u1 * u2 - u0 * u3)
                m22 = 1.0 - 2.0 * (u1 * u1 + u3 * u3)
                m23 = 2.0 * (u2 * u3 + u0 * u1)
                m31 = 2.0 * (u1 * u3 + u0 * u2)
                m32 = 2.0 * (u2 * u3 - u0 * u1)
                m33 = 1.0 - 2.0 * (u1 * u1 + u2 * u2)
                h1, h2, h3 = (m11 * h1 + m12 * h2 + m13 * h3, m21 * h1 + m22 * h2 + m23 * h3,
                              m31 * h1 + m32 * h2 + m33 * h3)
                q0, q1, q2, q3 = (q0 * u0 - q1 * u1 - q2 * u2 - q3 * u3,
                                  q0 * u1 + q1 * u0 + q2 * u3 - q3 * u2,
                                  q0 * u2 - q1 * u3 + q2 * u0 + q3 * u1,
                                  q0 * u3 + q1 * u2 - q2 * u1 + q3 * u0)
            hn = sqrt(h1 * h1 + h2 * h2 + h3 * h3)
            if hn > 0.0:
                a = hn * casimir
                c, s = cos(a), sin(a) / hn
                x, y, z = s * h1, s * h2, s * h3
                q0, q1, q2, q3 = (q0 * c - q1 * x - q2 * y - q3 * z,
                                  q0 * x + q1 * c + q2 * z - q3 * y,
                                  q0 * y - q1 * z + q2 * c + q3 * x,
                                  q0 * z + q1 * y - q2 * x + q3 * c)
            a = r1 * h1
            c, s = cos(a), sin(a)
            cc, ss = c * c - s * s, 2.0 * s * c
            h2, h3 = cc * h2 + ss * h3, cc * h3 - ss * h2
            q0, q1, q2, q3 = q0 * c - q1 * s, q0 * s + q1 * c, q2 * c + q3 * s, q3 * c - q2 * s
            if not merged:
                a = r3 * h3
                c, s = cos(a), sin(a)
                cc, ss = c * c - s * s, 2.0 * s * c
                h1, h2 = cc * h1 + ss * h2, cc * h2 - ss * h1
                q0, q1, q2, q3 = q0 * c - q3 * s, q1 * c + q2 * s, q2 * c - q1 * s, q0 * s + q3 * c
                a = r1 * h1
                c, s = cos(a), sin(a)
                cc, ss = c * c - s * s, 2.0 * s * c
                h2, h3 = cc * h2 + ss * h3, cc * h3 - ss * h2
                q0, q1, q2, q3 = (q0 * c - q1 * s, q0 * s + q1 * c,
                                  q2 * c + q3 * s, q3 * c - q2 * s)
            if wheel:
                h1, h2, h3 = (m11 * h1 + m12 * h2 + m13 * h3, m21 * h1 + m22 * h2 + m23 * h3,
                              m31 * h1 + m32 * h2 + m33 * h3)
                q0, q1, q2, q3 = (q0 * u0 - q1 * u1 - q2 * u2 - q3 * u3,
                                  q0 * u1 + q1 * u0 + q2 * u3 - q3 * u2,
                                  q0 * u2 - q1 * u3 + q2 * u0 + q3 * u1,
                                  q0 * u3 + q1 * u2 - q2 * u1 + q3 * u0)
                hw = hw + kw
            h1, h2, h3 = h1 + k1, h2 + k2, h3 + k3
    except ValueError as exc:  # cos and sin of an infinite angle
        raise _runaway(t, step) from exc

    # Back to the structure frame: q (x) conj(e) and omega = V diag(I)^-1 H.
    e1, e2, e3 = -e1, -e2, -e3
    q0, q1, q2, q3 = (q0 * e0 - q1 * e1 - q2 * e2 - q3 * e3,
                      q0 * e1 + q1 * e0 + q2 * e3 - q3 * e2,
                      q0 * e2 - q1 * e3 + q2 * e0 + q3 * e1,
                      q0 * e3 + q1 * e2 - q2 * e1 + q3 * e0)
    n = sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if not (n > 0.0 and isfinite(n + h1 + h2 + h3)):
        raise _runaway(t, step)
    q0 = q0 / n
    q1 = q1 / n
    q2 = q2 / n
    q3 = q3 / n
    # canonical_sign: q0 >= 0, else the first nonzero of (q1, q2, q3) > 0
    if q0 < 0.0 or (q0 == 0.0 and (q1 < 0.0 or (q1 == 0.0 and (
            q2 < 0.0 or (q2 == 0.0 and q3 < 0.0))))):
        q0, q1, q2, q3 = -q0, -q1, -q2, -q3
    if wheel:  # H = L + hw V^T x
        h1, h2, h3 = h1 + hw * ax, h2 + hw * bx, h3 + hw * cx
    w1, w2, w3 = h1 / i1, h2 / i2, h3 / i3
    new = tuple.__new__
    return new(AttitudeState, (
        new(Quat, (q0 + 0.0, q1 + 0.0, q2 + 0.0, q3 + 0.0)),  # + 0.0 turns -0.0 into 0.0
        new(Vec3, (w1 * ax + w2 * bx + w3 * cx, w1 * ay + w2 * by + w3 * cy,
                   w1 * az + w2 * bz + w3 * cz)),
        hw, t + dt))


def _runaway(t: float, step: float) -> NonFiniteStateError:
    return NonFiniteStateError(
        f"state left the finite domain in the step from t={t:.6g}s (substep {step:g} s)")
