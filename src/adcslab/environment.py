"""Orbit, field, and disturbance-torque environment for low Earth orbit.

Frames
------
* **Inertial**: Earth-centered, z along the rotation axis.  The geomagnetic
  dipole axis is tilted from z by a configurable angle and held fixed (no
  diurnal rotation); the sun direction is a fixed inertial unit vector.
* **Orbit frame**: x along the velocity vector, z toward the Earth's center,
  y completing the right-handed triad.  The attitude quaternion is taken
  relative to this frame.
* **Body frame**: spacecraft-fixed; face normals and all torques live here.

The orbit is circular two-body motion at a fixed altitude (drag perturbs the
attitude, not the orbit, over the mission spans simulated here).

Every function here is a pure function of its arguments, and the per-instant
records (:class:`OrbitState`, :class:`OrbitFrameSample`,
:class:`EnvironmentSample`) are NamedTuples, like the ``quatmath`` vectors.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from .quatmath import Quat, Vec3, rotate_orbit_to_body, vcross, vdot, visfinite, vnorm, vunit
from .rigidbody import InertiaTensor

__all__ = [
    "EnvironmentConstants",
    "AtmosphereTable",
    "OrbitConfig",
    "OrbitState",
    "Face",
    "SpacecraftGeometry",
    "EnvironmentSample",
    "OrbitFrameSample",
    "AltitudeRangeError",
    "constants",
    "orbit_period",
    "propagate_orbit",
    "magnetic_field",
    "atmospheric_density",
    "drag_torque",
    "srp_torque",
    "gravity_gradient_torque",
    "total_disturbance",
    "orbit_frame_sample",
]


class AltitudeRangeError(ValueError):
    """Altitude is outside the supported [200, 2000] km band."""


@dataclass(frozen=True, slots=True)
class EnvironmentConstants:
    mu_m3s2: float
    earth_radius_m: float
    solar_flux_wm2: float
    speed_of_light_ms: float
    dipole_b0_tesla: float
    default_dipole_tilt_deg: float
    drag_coefficient: float
    specular_reflectance: float
    diffuse_reflectance: float


class AtmosphereTable:
    """Piecewise-exponential density model rho0 * exp(-(h - h0) / H)."""

    def __init__(self, rows: list[tuple[float, float, float]]) -> None:
        rows = sorted(rows)
        if not rows:
            raise ValueError("atmosphere table is empty")
        self._h0 = [r[0] for r in rows]
        self._rho0 = [r[1] for r in rows]
        self._scale = [r[2] for r in rows]

    def density(self, altitude_km: float) -> float:
        if not (200.0 <= altitude_km <= 2000.0):
            raise AltitudeRangeError(
                f"altitude {altitude_km} km outside the supported 200-2000 km band"
            )
        i = bisect.bisect_right(self._h0, altitude_km) - 1
        if i < 0:
            i = 0
        return self._rho0[i] * math.exp(-(altitude_km - self._h0[i]) / self._scale[i])


def _load_defaults() -> tuple[EnvironmentConstants, AtmosphereTable]:
    text = resources.files("adcslab.data").joinpath("environment_constants.json").read_text("utf-8")
    data = json.loads(text)
    consts = EnvironmentConstants(**data["constants"])
    table = AtmosphereTable(
        [(r["h0_km"], r["rho0_kgm3"], r["scale_height_km"]) for r in data["atmosphere_rows"]]
    )
    return consts, table


_CONSTANTS, _ATMOSPHERE = _load_defaults()


def constants() -> EnvironmentConstants:
    """Physical constants bundled with the package."""
    return _CONSTANTS


def atmospheric_density(altitude_km: float) -> float:
    """Atmospheric density (kg/m^3) from the bundled piecewise-exponential table."""
    return _ATMOSPHERE.density(altitude_km)


# ---------------------------------------------------------------------------
# Orbit
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class OrbitConfig:
    """Circular orbit parameters.

    Attributes:
        altitude_km: orbit altitude above the mean Earth radius, 200-2000 km.
        inclination_deg: orbit inclination.
        raan_deg: right ascension of the ascending node.
        phase_deg: argument of latitude at t = 0.
    """

    altitude_km: float = 400.0
    inclination_deg: float = 51.6
    raan_deg: float = 0.0
    phase_deg: float = 0.0

    def __post_init__(self) -> None:
        if not (200.0 <= self.altitude_km <= 2000.0):
            raise AltitudeRangeError(
                f"altitude {self.altitude_km} km outside the supported 200-2000 km band"
            )

    @property
    def radius_m(self) -> float:
        return _CONSTANTS.earth_radius_m + 1000.0 * self.altitude_km


class OrbitState(NamedTuple):
    """Inertial position/velocity plus the orbit-frame basis (inertial coords)."""

    position_m: Vec3
    velocity_mps: Vec3
    basis_x: Vec3  # along velocity
    basis_y: Vec3  # completes right-handed triad
    basis_z: Vec3  # toward Earth center
    radius_m: float
    speed_mps: float

    def to_orbit_frame(self, v_inertial: Vec3) -> Vec3:
        return Vec3(
            vdot(self.basis_x, v_inertial),
            vdot(self.basis_y, v_inertial),
            vdot(self.basis_z, v_inertial),
        )


def orbit_period(cfg: OrbitConfig) -> float:
    """Keplerian period 2*pi*sqrt(a^3 / mu) in seconds."""
    a = cfg.radius_m
    return 2.0 * math.pi * math.sqrt(a * a * a / _CONSTANTS.mu_m3s2)


def propagate_orbit(cfg: OrbitConfig, t: float) -> OrbitState:
    """Two-body circular orbit state at time ``t`` seconds."""
    a = cfg.radius_m
    n = math.sqrt(_CONSTANTS.mu_m3s2 / (a * a * a))
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


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

def magnetic_field(orbit: OrbitState,
                   tilt_deg: float = _CONSTANTS.default_dipole_tilt_deg) -> Vec3:
    """Tilted centered-dipole geomagnetic field at the orbit position, inertial frame.

    B = B0 (Re/r)^3 (3 (m.r_hat) r_hat - m_hat), with the dipole axis tilted
    ``tilt_deg`` from the inertial z axis (tilt of 0 gives an axis-aligned dipole).
    """
    tilt = math.radians(tilt_deg)
    m_hat = Vec3(math.sin(tilt), 0.0, math.cos(tilt))
    r_hat = vunit(orbit.position_m)
    scale = _CONSTANTS.dipole_b0_tesla * (_CONSTANTS.earth_radius_m / orbit.radius_m) ** 3
    mr = vdot(m_hat, r_hat)
    return Vec3(
        scale * (3.0 * mr * r_hat[0] - m_hat[0]),
        scale * (3.0 * mr * r_hat[1] - m_hat[1]),
        scale * (3.0 * mr * r_hat[2] - m_hat[2]),
    )


def _in_eclipse(r: Vec3, s_hat: Vec3) -> bool:
    """Cylindrical-shadow test for position ``r`` and unit sun vector ``s_hat``."""
    along = vdot(r, s_hat)
    if along >= 0.0:
        return False
    perp = Vec3(r[0] - along * s_hat[0], r[1] - along * s_hat[1], r[2] - along * s_hat[2])
    return vnorm(perp) < _CONSTANTS.earth_radius_m


# ---------------------------------------------------------------------------
# Geometry and torques
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Face:
    normal: Vec3       # outward unit normal, body frame
    area_m2: float
    centroid_m: Vec3   # face centroid in the structure frame (same origin as the catalog)


@dataclass(frozen=True, slots=True)
class SpacecraftGeometry:
    """Flat-plate model: six outward faces plus surface coefficients."""

    faces: tuple[Face, ...]
    drag_coefficient: float = _CONSTANTS.drag_coefficient
    specular_reflectance: float = _CONSTANTS.specular_reflectance
    diffuse_reflectance: float = _CONSTANTS.diffuse_reflectance

    def __post_init__(self) -> None:
        for f in self.faces:
            if abs(vnorm(f.normal) - 1.0) > 1e-9:
                raise ValueError(f"face normal {f.normal} is not unit length")
            if not (0.0 < f.area_m2 < math.inf and visfinite(f.centroid_m)):
                raise ValueError(f"face area must be > 0 and finite, at a finite centroid, "
                                 f"got {f.area_m2} m^2 at {f.centroid_m}")
        for label, v in (("drag coefficient", self.drag_coefficient),
                         ("specular reflectance", self.specular_reflectance),
                         ("diffuse reflectance", self.diffuse_reflectance)):
            if not (0.0 <= v < math.inf):
                raise ValueError(f"{label} must be >= 0 and finite, got {v}")
        if self.specular_reflectance + self.diffuse_reflectance > 1.0:
            raise ValueError("specular + diffuse reflectance cannot exceed 1")

    @classmethod
    def box(
        cls,
        x_m: float = 0.1,
        y_m: float = 0.1,
        z_m: float = 0.34,
        drag_coefficient: float = _CONSTANTS.drag_coefficient,
        specular_reflectance: float = _CONSTANTS.specular_reflectance,
        diffuse_reflectance: float = _CONSTANTS.diffuse_reflectance,
    ) -> "SpacecraftGeometry":
        """Rectangular cuboid centered on the structure-frame origin."""
        hx, hy, hz = 0.5 * x_m, 0.5 * y_m, 0.5 * z_m
        faces = (
            Face(Vec3(1.0, 0.0, 0.0), y_m * z_m, Vec3(hx, 0.0, 0.0)),
            Face(Vec3(-1.0, 0.0, 0.0), y_m * z_m, Vec3(-hx, 0.0, 0.0)),
            Face(Vec3(0.0, 1.0, 0.0), x_m * z_m, Vec3(0.0, hy, 0.0)),
            Face(Vec3(0.0, -1.0, 0.0), x_m * z_m, Vec3(0.0, -hy, 0.0)),
            Face(Vec3(0.0, 0.0, 1.0), x_m * y_m, Vec3(0.0, 0.0, hz)),
            Face(Vec3(0.0, 0.0, -1.0), x_m * y_m, Vec3(0.0, 0.0, -hz)),
        )
        return cls(faces, drag_coefficient, specular_reflectance, diffuse_reflectance)


class EnvironmentSample(NamedTuple):
    """The disturbance-torque inputs expressed in the body frame at one instant.

    The field is left out: the magnetorquers rotate ``b_orbit_tesla`` at
    every control step themselves.
    """

    sun_body: Vec3          # unit vector toward the sun
    in_eclipse: bool
    density_kgm3: float
    v_rel_body_mps: Vec3    # spacecraft velocity relative to the atmosphere
    r_body_m: Vec3          # Earth center -> spacecraft position vector


def drag_torque(geometry: SpacecraftGeometry, env: EnvironmentSample, cg_m: Vec3) -> Vec3:
    """Aerodynamic torque from flat-plate drag on the leading faces.

    The force is ``-0.5 Cd rho v^2 sum_i (v_hat . n_i) A_i v_hat`` over faces
    with ``v_hat . n_i > 0`` and acts at the projected-area-weighted centroid
    of those faces; the moment arm is that centroid minus the CG, which is how
    a shifted payload feeds the disturbance budget.
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
    pressure = _CONSTANTS.solar_flux_wm2 / _CONSTANTS.speed_of_light_ms
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
    jr = J.dot(r_body_m)
    r = vnorm(r_body_m)
    scale = 3.0 * _CONSTANTS.mu_m3s2 / r**5
    c = vcross(r_body_m, jr)
    return Vec3(scale * c[0], scale * c[1], scale * c[2])


def total_disturbance(
    geometry: SpacecraftGeometry,
    env: EnvironmentSample,
    J: InertiaTensor,
    cg_m: Vec3,
    include: tuple[bool, bool, bool] = (True, True, True),
) -> Vec3:
    """Sum of the (drag, SRP, gravity-gradient) torques, each individually togglable."""
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


class OrbitFrameSample(NamedTuple):
    """Environment quantities in the orbit frame, independent of attitude.

    These evolve on the orbit timescale, so a simulation loop can refresh them
    at a slow cadence and rotate them into the (fast-moving) body frame as
    often as it needs: :meth:`to_body` for the disturbance inputs,
    ``rotate_orbit_to_body`` for the field.
    """

    b_orbit_tesla: Vec3
    sun_orbit: Vec3
    in_eclipse: bool
    density_kgm3: float
    v_orbit_mps: Vec3
    r_orbit_m: Vec3

    def to_body(self, q: Quat) -> EnvironmentSample:
        return EnvironmentSample(
            sun_body=rotate_orbit_to_body(q, self.sun_orbit),
            in_eclipse=self.in_eclipse,
            density_kgm3=self.density_kgm3,
            v_rel_body_mps=rotate_orbit_to_body(q, self.v_orbit_mps),
            r_body_m=rotate_orbit_to_body(q, self.r_orbit_m),
        )


def orbit_frame_sample(
    cfg: OrbitConfig,
    t: float,
    sun_inertial: Vec3 = Vec3(1.0, 0.0, 0.0),
    dipole_tilt_deg: float = _CONSTANTS.default_dipole_tilt_deg,
) -> OrbitFrameSample:
    """Attitude-independent environment snapshot at time ``t``, orbit frame."""
    orbit = propagate_orbit(cfg, t)
    b_orbit = orbit.to_orbit_frame(magnetic_field(orbit, dipole_tilt_deg))
    s_hat = vunit(sun_inertial)
    return OrbitFrameSample(
        b_orbit_tesla=b_orbit,
        sun_orbit=orbit.to_orbit_frame(s_hat),
        in_eclipse=_in_eclipse(orbit.position_m, s_hat),
        density_kgm3=atmospheric_density(cfg.altitude_km),
        v_orbit_mps=Vec3(orbit.speed_mps, 0.0, 0.0),  # x is along velocity by construction
        r_orbit_m=Vec3(0.0, 0.0, -orbit.radius_m),    # z points toward the Earth's center
    )

