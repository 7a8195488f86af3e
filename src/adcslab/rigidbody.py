"""Rigid-body attitude state and fixed-step propagation.

The propagated state couples the attitude quaternion (body relative to orbit
frame) with the body angular rate.  Dynamics follow Euler's equations with the
inverse inertia applied to the whole torque balance::

    omega_dot = J^-1 * ( -omega x (J omega) + tau_control + tau_disturbance )

and the quaternion kinematics ``qdot = 0.5 * Omega(omega) * q`` (see
:mod:`adcslab.quatmath`).  Integration is classical fixed-step RK4 over the
combined state; the quaternion is renormalized and sign-canonicalized after
every substep, which keeps the norm at machine precision without touching the
rate dynamics.

:func:`propagate` is the package's one integrator: it runs a whole control
period of RK4 substeps under a constant torque on plain local floats.  Its
reference, a textbook RK4 step on a dynamics closure, lives with the tests in
``tests/oracles.py``; a property test there holds the two equal bit for bit,
so a change to the dynamics must be made in both.
"""

from __future__ import annotations

import math
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
    wheel_momentum: float  # N*m*s, along body x
    t: float             # s


class InertiaTensor:
    """Validated 3x3 inertia tensor about the center of mass (kg*m^2).

    Construction enforces symmetry, positive definiteness, and the triangle
    inequality on the principal moments; a matrix that fails positive
    definiteness raises :class:`SingularInertiaError` so a degenerate mass
    catalog surfaces before any propagation is attempted.
    """

    __slots__ = ("_m", "rows", "inverse_rows", "_eigvals")

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
        sym = 0.5 * (m + m.T)
        eigvals = np.linalg.eigvalsh(sym)
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
        self._m = m
        self._eigvals = eigvals
        inv = np.linalg.inv(m)
        self.rows = tuple(tuple(float(x) for x in row) for row in m)
        self.inverse_rows = tuple(tuple(float(x) for x in row) for row in inv)

    @classmethod
    def diagonal(cls, jxx: float, jyy: float, jzz: float) -> "InertiaTensor":
        return cls(np.diag([jxx, jyy, jzz]))

    @property
    def matrix(self) -> np.ndarray:
        return self._m.copy()

    @property
    def principal_moments(self) -> tuple[float, float, float]:
        return tuple(float(v) for v in self._eigvals)

    def dot(self, v: Vec3) -> Vec3:
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        return Vec3(a * v[0] + b * v[1] + c * v[2],
                    d * v[0] + e * v[1] + f * v[2],
                    g * v[0] + h * v[1] + i * v[2])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InertiaTensor({self._m.tolist()})"


def propagate(state: AttitudeState, J: InertiaTensor, torque: Vec3, dt: float,
              n_sub: int = 1) -> AttitudeState:
    """Integrate over ``dt`` with ``n_sub`` equal RK4 substeps, fused.

    Bit-for-bit the same as ``n_sub`` calls of the reference ``rk4_step`` in
    ``tests/oracles.py`` with step ``dt / n_sub``: the arithmetic runs in the
    same order, on plain local floats, with the renormalization and
    canonical sign flip after every substep, and no tuple is built until the
    end.  This is the simulation hot path.

    Raises:
        ValueError: on a non-positive or non-finite ``dt``, or ``n_sub < 1``.
        NonFiniteStateError: if any component leaves the finite domain: a
            non-finite state after a substep, or a quaternion norm that
            overflows.
    """
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if n_sub < 1:
        raise ValueError(f"n_sub must be at least 1, got {n_sub}")
    (a, b, c), (d, e, f), (g, h, i) = J.rows
    (p, qq, r), (s, u, v), (x, y, z) = J.inverse_rows
    tx, ty, tz = torque
    q0, q1, q2, q3 = state.q
    wx, wy, wz = state.omega
    t = state.t
    dt = dt / n_sub  # the substep length from here on
    half = 0.5 * dt
    sixth = dt / 6.0
    sqrt = math.sqrt
    isfinite = math.isfinite

    for _ in range(n_sub):
        # k1 at (q, w)
        k1q0 = 0.5 * (-wx * q1 - wy * q2 - wz * q3)
        k1q1 = 0.5 * (wx * q0 + wz * q2 - wy * q3)
        k1q2 = 0.5 * (wy * q0 - wz * q1 + wx * q3)
        k1q3 = 0.5 * (wz * q0 + wy * q1 - wx * q2)
        hx = a * wx + b * wy + c * wz
        hy = d * wx + e * wy + f * wz
        hz = g * wx + h * wy + i * wz
        gx = tx - (wy * hz - wz * hy)
        gy = ty - (wz * hx - wx * hz)
        gz = tz - (wx * hy - wy * hx)
        k1wx = p * gx + qq * gy + r * gz
        k1wy = s * gx + u * gy + v * gz
        k1wz = x * gx + y * gy + z * gz

        # k2 at the midpoint along k1
        sq0 = q0 + half * k1q0
        sq1 = q1 + half * k1q1
        sq2 = q2 + half * k1q2
        sq3 = q3 + half * k1q3
        swx = wx + half * k1wx
        swy = wy + half * k1wy
        swz = wz + half * k1wz
        k2q0 = 0.5 * (-swx * sq1 - swy * sq2 - swz * sq3)
        k2q1 = 0.5 * (swx * sq0 + swz * sq2 - swy * sq3)
        k2q2 = 0.5 * (swy * sq0 - swz * sq1 + swx * sq3)
        k2q3 = 0.5 * (swz * sq0 + swy * sq1 - swx * sq2)
        hx = a * swx + b * swy + c * swz
        hy = d * swx + e * swy + f * swz
        hz = g * swx + h * swy + i * swz
        gx = tx - (swy * hz - swz * hy)
        gy = ty - (swz * hx - swx * hz)
        gz = tz - (swx * hy - swy * hx)
        k2wx = p * gx + qq * gy + r * gz
        k2wy = s * gx + u * gy + v * gz
        k2wz = x * gx + y * gy + z * gz

        # k3 at the midpoint along k2
        sq0 = q0 + half * k2q0
        sq1 = q1 + half * k2q1
        sq2 = q2 + half * k2q2
        sq3 = q3 + half * k2q3
        swx = wx + half * k2wx
        swy = wy + half * k2wy
        swz = wz + half * k2wz
        k3q0 = 0.5 * (-swx * sq1 - swy * sq2 - swz * sq3)
        k3q1 = 0.5 * (swx * sq0 + swz * sq2 - swy * sq3)
        k3q2 = 0.5 * (swy * sq0 - swz * sq1 + swx * sq3)
        k3q3 = 0.5 * (swz * sq0 + swy * sq1 - swx * sq2)
        hx = a * swx + b * swy + c * swz
        hy = d * swx + e * swy + f * swz
        hz = g * swx + h * swy + i * swz
        gx = tx - (swy * hz - swz * hy)
        gy = ty - (swz * hx - swx * hz)
        gz = tz - (swx * hy - swy * hx)
        k3wx = p * gx + qq * gy + r * gz
        k3wy = s * gx + u * gy + v * gz
        k3wz = x * gx + y * gy + z * gz

        # k4 at the end along k3
        sq0 = q0 + dt * k3q0
        sq1 = q1 + dt * k3q1
        sq2 = q2 + dt * k3q2
        sq3 = q3 + dt * k3q3
        swx = wx + dt * k3wx
        swy = wy + dt * k3wy
        swz = wz + dt * k3wz
        k4q0 = 0.5 * (-swx * sq1 - swy * sq2 - swz * sq3)
        k4q1 = 0.5 * (swx * sq0 + swz * sq2 - swy * sq3)
        k4q2 = 0.5 * (swy * sq0 - swz * sq1 + swx * sq3)
        k4q3 = 0.5 * (swz * sq0 + swy * sq1 - swx * sq2)
        hx = a * swx + b * swy + c * swz
        hy = d * swx + e * swy + f * swz
        hz = g * swx + h * swy + i * swz
        gx = tx - (swy * hz - swz * hy)
        gy = ty - (swz * hx - swx * hz)
        gz = tz - (swx * hy - swy * hx)

        q0 = q0 + sixth * (k1q0 + 2.0 * (k2q0 + k3q0) + k4q0)
        q1 = q1 + sixth * (k1q1 + 2.0 * (k2q1 + k3q1) + k4q1)
        q2 = q2 + sixth * (k1q2 + 2.0 * (k2q2 + k3q2) + k4q2)
        q3 = q3 + sixth * (k1q3 + 2.0 * (k2q3 + k3q3) + k4q3)
        wx = wx + sixth * (k1wx + 2.0 * (k2wx + k3wx) + (p * gx + qq * gy + r * gz))
        wy = wy + sixth * (k1wy + 2.0 * (k2wy + k3wy) + (s * gx + u * gy + v * gz))
        wz = wz + sixth * (k1wz + 2.0 * (k2wz + k3wz) + (x * gx + y * gy + z * gz))
        if not isfinite(q0 + q1 + q2 + q3 + wx + wy + wz):
            raise NonFiniteStateError(
                f"non-finite state after step at t={t:.6g}s (dt={dt:g}); "
                "dt is probably too large for the current rates"
            )
        n = sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
        if n == 0.0 or not isfinite(n):
            raise NonFiniteStateError(
                f"quaternion norm left the finite domain at t={t:.6g}s (dt={dt:g})"
            )
        q0 = q0 / n
        q1 = q1 / n
        q2 = q2 / n
        q3 = q3 / n
        # canonical_sign: q0 >= 0, else the first nonzero of (q1, q2, q3) > 0
        if q0 < 0.0 or (q0 == 0.0 and (q1 < 0.0 or (q1 == 0.0 and (
                q2 < 0.0 or (q2 == 0.0 and q3 < 0.0))))):
            q0, q1, q2, q3 = -q0, -q1, -q2, -q3
        t = t + dt

    return AttitudeState(Quat(q0, q1, q2, q3), Vec3(wx, wy, wz), state.wheel_momentum, t)
