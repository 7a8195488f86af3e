"""Control laws, actuator models, and the operating-mode state machine.

The controller family is deliberately simple and gain-driven:

* de-tumble / nominal: proportional-derivative law on the quaternion
  vector part and the body rate, applied through the magnetorquers,

      tau = -Kp * q_vec - Kd * omega

  (the target is the orbit frame at rest, so both are their own errors and
  :func:`pd_torque` reads them straight from the state),

* spin / de-spin: the x-axis reaction wheel tracks the commanded spin rate
  while the magnetorquers damp the transverse rates,

      tau_rw = -K1 * (omega.x - target)     tau_m = -K2 * (0, omega.y, omega.z)

  (the target is the spin rate, or 0.0 to de-spin).

The pointing target is the orbit frame, so the quaternion error is the
vector part of the sign-canonicalized attitude quaternion itself.
:func:`error_state` forms it with the rate error against a target rate; both
laws read the state directly and match it bit for bit.  The laws and
actuator models run every step and return plain tuples, unpacked by
position; each docstring gives the order.

Magnetorquer allocation runs at two fidelities: IDEAL treats the commanded
torque as directly realizable up to a per-axis clamp; PHYSICAL converts it to
a dipole ``m = (B x tau) / |B|^2``, clamps the dipole per axis, and applies
``tau = m x B``, which is orthogonal to B by construction (torque demanded
along the field line is simply not realizable that step).  The fidelity is
only this allocation choice: the body's dynamics, the wheel's coupling
included, are :func:`adcslab.rigidbody.propagate`'s at either fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .quatmath import ZERO3, Quat, Vec3, visfinite, vnorm

__all__ = [
    "Gains",
    "ActuatorLimits",
    "Fidelity",
    "Mode",
    "ModeThresholds",
    "ZeroFieldError",
    "error_state",
    "pd_torque",
    "spin_torques",
    "allocate_magnetorquer",
    "wheel_step",
    "mode_transition",
    "total_control",
    "ALLOWED_TRANSITIONS",
]


_Floats3 = tuple[float, float, float]


class ZeroFieldError(ValueError):
    """Physical dipole allocation is undefined in a zero magnetic field."""


def _check_positive_finite(obj, what: str) -> None:
    """Raise ValueError unless every field of the dataclass ``obj`` is > 0 and finite."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if not (0.0 < v < math.inf):
            raise ValueError(f"{what} {f.name} must be > 0 and finite, got {v}")


@dataclass(frozen=True, slots=True)
class Gains:
    """Control gains; all strictly positive.

    kp/kd drive the attitude PD law, k1 the spin-axis wheel law, k2 the
    transverse magnetic damping during spin and de-spin.
    """

    kp: float = 9e-5
    kd: float = 9e-3
    k1: float = 7e-3
    k2: float = 7e-4

    def __post_init__(self) -> None:
        _check_positive_finite(self, "gain")


@dataclass(frozen=True, slots=True)
class ActuatorLimits:
    """Saturation limits for the magnetorquers and the reaction wheel.

    Each magnetorquer allocation reads one of the two magnetic limits: IDEAL
    clamps the torque per axis to ``max_magnetic_torque_nm``, PHYSICAL clamps
    the dipole per axis to ``max_dipole_am2``.  The wheel limits hold at
    either fidelity.
    """

    max_dipole_am2: float = 0.2
    max_magnetic_torque_nm: float = 1e-5
    max_wheel_torque_nm: float = 1e-3
    max_wheel_momentum_nms: float = 1e-2

    def __post_init__(self) -> None:
        _check_positive_finite(self, "limit")


class Fidelity(Enum):
    """Magnetorquer allocation: IDEAL reads only
    ``ActuatorLimits.max_magnetic_torque_nm``, PHYSICAL only
    ``ActuatorLimits.max_dipole_am2``."""

    IDEAL = "ideal"
    PHYSICAL = "physical"


_IDEAL = Fidelity.IDEAL  # a module global reads faster than an enum member


class Mode(Enum):
    DETUMBLE = "detumble"
    NOMINAL = "nominal"
    SPIN = "spin"
    DESPIN = "despin"
    SAFE = "safe"


ALLOWED_TRANSITIONS: dict[Mode, frozenset[Mode]] = {
    Mode.DETUMBLE: frozenset({Mode.DETUMBLE, Mode.NOMINAL, Mode.SAFE}),
    Mode.NOMINAL: frozenset({Mode.NOMINAL, Mode.SPIN, Mode.SAFE}),
    Mode.SPIN: frozenset({Mode.SPIN, Mode.DESPIN, Mode.SAFE}),
    Mode.DESPIN: frozenset({Mode.DESPIN, Mode.NOMINAL, Mode.SAFE}),
    Mode.SAFE: frozenset({Mode.SAFE, Mode.NOMINAL}),
}


@dataclass(frozen=True, slots=True)
class ModeThresholds:
    """Rate magnitudes (rad/s) below which de-tumble and de-spin hand over to
    nominal; both strictly positive."""

    detumble_exit_radps: float = 0.01
    despin_exit_radps: float = 1e-3

    def __post_init__(self) -> None:
        _check_positive_finite(self, "threshold")


def error_state(q: Quat, omega: Vec3, omega_d: Vec3) -> tuple[_Floats3, _Floats3]:
    """``(q_vec, omega_e)``: the attitude error relative to the orbit frame
    and the rate error ``omega - omega_d``.

    ``q`` is the body attitude relative to the orbit frame, expected
    sign-canonicalized (q0 >= 0); its vector part is the attitude error.
    """
    return ((q[1], q[2], q[3]),
            (omega[0] - omega_d[0], omega[1] - omega_d[1], omega[2] - omega_d[2]))


def pd_torque(q: Quat, omega: Vec3, gains: Gains) -> _Floats3:
    """Attitude PD law used by the de-tumble and nominal modes: ``(tx, ty, tz)``.

    ``q`` (sign-canonicalized, relative to the orbit frame) and ``omega`` are
    the state itself: toward the orbit frame at rest, the attitude error is
    the vector part of ``q`` and the rate error is ``omega``, bit for bit the
    ``error_state(q, omega, ZERO3)`` pair (``w - 0.0`` is ``w``, -0.0 too).
    """
    kp, kd = gains.kp, gains.kd
    return (-kp * q[1] - kd * omega[0],
            -kp * q[2] - kd * omega[1],
            -kp * q[3] - kd * omega[2])


def spin_torques(omega: Vec3, omega_x_target: float,
                 gains: Gains) -> tuple[float, _Floats3]:
    """Spin / de-spin laws: ``(tau_rw, (0.0, ty, tz))``, the wheel torque
    about x and the magnetic damping on y/z.

    The rate error is bit for bit ``error_state``'s against
    ``(omega_x_target, 0.0, 0.0)``; the attitude does not enter.
    """
    k2 = gains.k2
    return (-gains.k1 * (omega[0] - omega_x_target),
            (0.0, -k2 * omega[1], -k2 * omega[2]))


def _clamp(v: float, limit: float) -> float:
    if v > limit:
        return limit
    if v < -limit:
        return -limit
    return v


def allocate_magnetorquer(
    tau_desired: Vec3,
    b_body: Vec3,
    limits: ActuatorLimits,
    fidelity: Fidelity = Fidelity.IDEAL,
) -> tuple[_Floats3, _Floats3, bool]:
    """Map a desired magnetic torque onto the magnetorquers.

    Args:
        tau_desired: torque the control law asked for, body frame (N*m).
        b_body: magnetic field in the body frame (T); must be nonzero for
            PHYSICAL allocation.
        limits: actuator saturation limits.
        fidelity: IDEAL applies ``tau_desired`` with a per-axis clamp;
            PHYSICAL goes through the dipole and only realizes the component
            orthogonal to the field.

    Returns:
        ``(tau_m, dipole, saturated)``: the applied torque (N*m), the
        commanded dipole (A*m^2; the shared ``ZERO3`` in IDEAL mode), and
        whether a clamp cut the command.

    Raises:
        ZeroFieldError: PHYSICAL allocation with |B| = 0.
    """
    if fidelity is _IDEAL:
        lim = limits.max_magnetic_torque_nm
        x, y, z = tau_desired
        tau = (lim if x > lim else -lim if x < -lim else x,
               lim if y > lim else -lim if y < -lim else y,
               lim if z > lim else -lim if z < -lim else z)
        # An unclamped axis keeps x itself, which a tuple compares by
        # identity first, so this is the six limit tests, NaN included.
        return tau, ZERO3, tau != (x, y, z)

    bx, by, bz = b_body
    b2 = bx * bx + by * by + bz * bz
    if b2 == 0.0:
        raise ZeroFieldError("cannot allocate a dipole in a zero magnetic field")
    # m = (B x tau) / |B|^2, clamped per axis
    mx = (by * tau_desired[2] - bz * tau_desired[1]) / b2
    my = (bz * tau_desired[0] - bx * tau_desired[2]) / b2
    mz = (bx * tau_desired[1] - by * tau_desired[0]) / b2
    lim = limits.max_dipole_am2
    cmx, cmy, cmz = _clamp(mx, lim), _clamp(my, lim), _clamp(mz, lim)
    dipole = (cmx, cmy, cmz)
    tau = (cmy * bz - cmz * by, cmz * bx - cmx * bz, cmx * by - cmy * bx)
    return tau, dipole, dipole != (mx, my, mz)


def wheel_step(tau_commanded: float, momentum: float, limits: ActuatorLimits,
               dt: float) -> tuple[float, float, bool]:
    """Apply one control interval of wheel torque with momentum bookkeeping:
    ``(tau_applied, momentum, saturated)``.

    The torque is clamped to the wheel's torque limit, then further reduced if
    integrating it for ``dt`` would push the stored momentum past the momentum
    limit (the wheel rides the momentum stop rather than overshooting it).
    """
    if not (dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt}")
    tau = _clamp(tau_commanded, limits.max_wheel_torque_nm)
    saturated = tau != tau_commanded
    h_next = momentum + tau * dt
    h_lim = limits.max_wheel_momentum_nms
    if h_next > h_lim:
        tau = (h_lim - momentum) / dt
        h_next = h_lim
        saturated = True
    elif h_next < -h_lim:
        tau = (-h_lim - momentum) / dt
        h_next = -h_lim
        saturated = True
    return tau, h_next, saturated


def mode_transition(
    mode: Mode,
    omega: Vec3,
    thresholds: ModeThresholds,
    command: Mode | None = None,
) -> Mode:
    """Advance the mode machine one sample.

    Autonomous edges: DETUMBLE -> NOMINAL below the de-tumble rate threshold,
    DESPIN -> NOMINAL below the de-spin threshold, and any mode -> SAFE on a
    non-finite state.  A ``command`` is taken when ``ALLOWED_TRANSITIONS[mode]``
    holds it (NOMINAL -> SPIN, SPIN -> DESPIN, any -> SAFE, and SAFE -> NOMINAL
    as the explicit release) and ignored otherwise; SAFE has no autonomous exit.
    """
    if not visfinite(omega):
        return Mode.SAFE
    if command in ALLOWED_TRANSITIONS[mode]:
        return command
    speed = vnorm(omega)
    if mode is Mode.DETUMBLE and speed < thresholds.detumble_exit_radps:
        return Mode.NOMINAL
    if mode is Mode.DESPIN and speed < thresholds.despin_exit_radps:
        return Mode.NOMINAL
    return mode


def total_control(tau_m: Vec3, tau_rw: float) -> Vec3:
    """Net actuator torque on the hull: magnetics plus the x-axis wheel.

    The loop hands the two to ``propagate`` apart: the magnetic torque is
    external, while the wheel's only moves momentum between wheel and body.
    """
    return Vec3(tau_m[0] + tau_rw, tau_m[1], tau_m[2])
