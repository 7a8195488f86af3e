"""Vector, quaternion, and Euler-angle primitives.

Conventions
-----------
* ``Vec3`` and ``Quat`` type the inputs and results; the control laws return
  plain tuples, which compare equal to them.  Units are contextual.
* Quaternions are scalar-first ``Quat(q0, q1, q2, q3)``.  A state quaternion
  encodes the attitude of the body frame relative to the orbit frame through
  the standard Hamilton rotation matrix ``R(q)``::

      v_orbit = R(q) @ v_body        v_body = R(q).T @ v_orbit

  The kinematics ``qdot = 0.5 * Omega(omega) * q`` take ``omega`` as the
  body-frame angular rate of the body relative to the orbit frame.  The
  integrator, :func:`adcslab.rigidbody.propagate`, solves them exactly for
  each rotation it takes; ``quat_derivative`` in ``tests/oracles.py`` is their
  reference form.
* Canonical sign: ``q0 >= 0``; when ``q0 == 0`` exactly, the first nonzero
  component among ``(q1, q2, q3)`` is kept positive.  ``q`` and ``-q`` encode
  the same rotation, so this only fixes a deterministic representative.
* Euler angles use the intrinsic 3-2-1 (yaw-pitch-roll) sequence, reported in
  degrees with roll/yaw in (-180, 180] and pitch in [-90, 90].  They exist for
  telemetry and plotting; all propagation is quaternion-based.  Roll and yaw
  are ``atan2`` in degrees, already in [-180, 180], so the wrap is one fold
  of -180 onto 180, written in place (see :func:`quat_to_euler`).

These functions are deliberately plain tuple arithmetic: they sit on the
simulation hot path where small-array numpy overhead dominates the cost.
The hot-path records, here and in ``rigidbody`` and ``environment``, are
built with ``tuple.__new__(Vec3, (...))``, as ``namedtuple._make`` does,
which skips the generated ``__new__``; their types are unchanged.
"""

from __future__ import annotations

import math
from math import asin, atan2, degrees, isfinite, sqrt
from typing import NamedTuple


class Vec3(NamedTuple):
    x: float
    y: float
    z: float


class Quat(NamedTuple):
    q0: float
    q1: float
    q2: float
    q3: float


ZERO3 = Vec3(0.0, 0.0, 0.0)
IDENTITY = Quat(1.0, 0.0, 0.0, 0.0)

RPM_TO_RADPS = 2.0 * math.pi / 60.0
RADPS_TO_RPM = 60.0 / (2.0 * math.pi)


class ZeroQuaternionError(ValueError):
    """Raised when a (near-)zero quaternion cannot be normalized."""


# ---------------------------------------------------------------------------
# Vec3 helpers
# ---------------------------------------------------------------------------

def vdot(a: Vec3, b: Vec3) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def vnorm(a: Vec3) -> float:
    return sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def visfinite(a: Vec3) -> bool:
    return isfinite(a[0] + a[1] + a[2])


# ---------------------------------------------------------------------------
# Quaternion algebra
# ---------------------------------------------------------------------------

def quat_norm(q: Quat) -> float:
    return sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])


def canonical_sign(q: Quat) -> Quat:
    """Flip ``q`` to the canonical half of the double cover (see module doc)."""
    q0, q1, q2, q3 = q
    if q0 > 0.0:
        return q
    if q0 < 0.0:
        return Quat(-q0, -q1, -q2, -q3)
    # q0 == 0: first nonzero of (q1, q2, q3) positive
    for c in (q1, q2, q3):
        if c > 0.0:
            return q
        if c < 0.0:
            return Quat(-q0, -q1, -q2, -q3)
    return q  # all-zero; caller's problem


def normalize_canonical(q: Quat) -> Quat:
    """Return ``q`` scaled to unit norm and sign-canonicalized.

    Raises:
        ZeroQuaternionError: if the norm is zero or not finite.
    """
    n = quat_norm(q)
    if n == 0.0 or not isfinite(n):
        raise ZeroQuaternionError(f"cannot normalize quaternion with norm {n}")
    return canonical_sign(Quat(q[0] / n, q[1] / n, q[2] / n, q[3] / n))


def rotate_orbit_to_body(q: Quat, v: Vec3) -> Vec3:
    """Apply ``R(q).T``: express an orbit-frame vector in the body frame."""
    q0, q1, q2, q3 = q
    vx, vy, vz = v
    return tuple.__new__(Vec3, (
        (1.0 - 2.0 * (q2 * q2 + q3 * q3)) * vx
        + 2.0 * (q1 * q2 + q0 * q3) * vy
        + 2.0 * (q1 * q3 - q0 * q2) * vz,
        2.0 * (q1 * q2 - q0 * q3) * vx
        + (1.0 - 2.0 * (q1 * q1 + q3 * q3)) * vy
        + 2.0 * (q2 * q3 + q0 * q1) * vz,
        2.0 * (q1 * q3 + q0 * q2) * vx
        + 2.0 * (q2 * q3 - q0 * q1) * vy
        + (1.0 - 2.0 * (q1 * q1 + q2 * q2)) * vz,
    ))


# ---------------------------------------------------------------------------
# Euler angles (3-2-1 intrinsic, degrees) -- telemetry/plotting only
# ---------------------------------------------------------------------------

def quat_to_euler(q: Quat) -> tuple[float, float, float]:
    """3-2-1 (roll, pitch, yaw) of the body relative to the orbit frame, degrees.

    At the pitch singularity (|pitch| = 90 deg) roll and yaw are not separable;
    the convention here is roll = 0 with the residual rotation folded into yaw.

    Roll and yaw come from ``atan2``, which lies in [-pi, pi], and
    ``degrees`` maps its ends to exactly -180.0 and 180.0.  So wrapping them
    to (-180, 180] only folds -180.0 onto 180.0 (``atan2(-0.0, x < 0)``);
    ``wrap_deg`` in ``tests/oracles.py`` is the general wrap they must match
    bit for bit.
    """
    q0, q1, q2, q3 = q
    sin_pitch = 2.0 * (q0 * q2 - q1 * q3)
    if sin_pitch > 1.0:
        sin_pitch = 1.0
    elif sin_pitch < -1.0:
        sin_pitch = -1.0
    yaw = degrees(atan2(2.0 * (q1 * q2 + q0 * q3), 1.0 - 2.0 * (q2 * q2 + q3 * q3)))
    if abs(sin_pitch) >= 1.0 - 1e-12:
        pitch = math.copysign(90.0, sin_pitch)
        roll = 0.0
    else:
        pitch = degrees(asin(sin_pitch))
        roll = degrees(atan2(2.0 * (q2 * q3 + q0 * q1), 1.0 - 2.0 * (q1 * q1 + q2 * q2)))
        if roll <= -180.0:
            roll += 360.0
    if yaw <= -180.0:
        yaw += 360.0
    return (roll, pitch, yaw)


def quat_from_euler(roll_deg: float, pitch_deg: float, yaw_deg: float) -> Quat:
    """Quaternion for a 3-2-1 intrinsic rotation (angles in degrees)."""
    hr = 0.5 * math.radians(roll_deg)
    hp = 0.5 * math.radians(pitch_deg)
    hy = 0.5 * math.radians(yaw_deg)
    cr, sr = math.cos(hr), math.sin(hr)
    cp, sp = math.cos(hp), math.sin(hp)
    cy, sy = math.cos(hy), math.sin(hy)
    return canonical_sign(Quat(
        cr * cp * cy + sr * sp * sy,
        sr * cp * cy - cr * sp * sy,
        cr * sp * cy + sr * cp * sy,
        cr * cp * sy - sr * sp * cy,
    ))
