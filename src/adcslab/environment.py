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

What is computed once and what per refresh
------------------------------------------
A frozen :class:`OrbitConfig` computes its orbit-only constants when it is
built and keeps them in ``kernel``: the radius, mean motion, initial argument
of latitude, the in-plane basis from the inclination and RAAN, the speed, the
atmospheric density at the altitude and the dipole scale ``B0 (Re/r)^3``.  A
:class:`SpacecraftGeometry` keeps a flat face table and its surface
coefficients the same way.  Neither slot takes part in equality, ``repr`` or
hashing.  Each refresh then works on plain floats:
:func:`propagate_orbit` turns the argument of latitude,
:func:`orbit_frame_sample` forms the field, sun and eclipse from that one
orbit state, :meth:`OrbitFrameSample.to_body` builds one rotation matrix for
its three vectors, and :func:`total_disturbance` sums drag, solar pressure and
gravity gradient in one pass over the faces.  The reference forms of the
field and of each torque are in ``tests/oracles.py``, which the tests hold
these to bit for bit.

Every function here is a pure function of its arguments, and the per-instant
records (:class:`OrbitState`, :class:`OrbitFrameSample`,
:class:`EnvironmentSample`) are NamedTuples, like the ``quatmath`` vectors.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from math import cos, sin, sqrt
from typing import NamedTuple

from .quatmath import Quat, Vec3, visfinite, vnorm
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
    "atmospheric_density",
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
_RADIATION_PRESSURE = _CONSTANTS.solar_flux_wm2 / _CONSTANTS.speed_of_light_ms


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
        kernel: the orbit-only constants every refresh reads, set once here
            (see the module docstring); not an argument, and not compared.
    """

    altitude_km: float = 400.0
    inclination_deg: float = 51.6
    raan_deg: float = 0.0
    phase_deg: float = 0.0
    kernel: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (200.0 <= self.altitude_km <= 2000.0):
            raise AltitudeRangeError(
                f"altitude {self.altitude_km} km outside the supported 200-2000 km band"
            )
        a = self.radius_m
        n = math.sqrt(_CONSTANTS.mu_m3s2 / (a * a * a))
        inc = math.radians(self.inclination_deg)
        raan = math.radians(self.raan_deg)
        ci, si = math.cos(inc), math.sin(inc)
        cO, sO = math.cos(raan), math.sin(raan)
        speed = n * a
        # Columns of Rz(raan) @ Rx(inc): in-plane basis vectors p and q in
        # inertial coords; then the orbit-frame velocity and position, which
        # are the same at every instant.
        object.__setattr__(self, "kernel", (
            a, n, math.radians(self.phase_deg),
            cO, sO, 0.0, -sO * ci, cO * ci, si,
            speed, _ATMOSPHERE.density(self.altitude_km),
            _CONSTANTS.dipole_b0_tesla * (_CONSTANTS.earth_radius_m / a) ** 3,
            Vec3(speed, 0.0, 0.0), Vec3(0.0, 0.0, -a),
        ))

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


def orbit_period(cfg: OrbitConfig) -> float:
    """Keplerian period 2*pi*sqrt(a^3 / mu) in seconds."""
    a = cfg.radius_m
    return 2.0 * math.pi * math.sqrt(a * a * a / _CONSTANTS.mu_m3s2)


def propagate_orbit(cfg: OrbitConfig, t: float) -> OrbitState:
    """Two-body circular orbit state at time ``t`` seconds."""
    a, n, u0, px, py, pz, qx, qy, qz, speed, _, _, _, _ = cfg.kernel
    u = u0 + n * t
    cu, su = cos(u), sin(u)
    rx = a * (cu * px + su * qx)
    ry = a * (cu * py + su * qy)
    rz = a * (cu * pz + su * qz)
    vx = speed * (-su * px + cu * qx)
    vy = speed * (-su * py + cu * qy)
    vz = speed * (-su * pz + cu * qz)
    # x along the velocity, z toward the Earth's center, y = z x x.
    nv = sqrt(vx * vx + vy * vy + vz * vz)
    xx, xy, xz = vx / nv, vy / nv, vz / nv
    nr = sqrt(-rx * -rx + -ry * -ry + -rz * -rz)
    zx, zy, zz = -rx / nr, -ry / nr, -rz / nr
    new = tuple.__new__
    return new(OrbitState, (
        new(Vec3, (rx, ry, rz)), new(Vec3, (vx, vy, vz)), new(Vec3, (xx, xy, xz)),
        new(Vec3, (zy * xz - zz * xy, zz * xx - zx * xz, zx * xy - zy * xx)),
        new(Vec3, (zx, zy, zz)), a, speed))


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Face:
    normal: Vec3       # outward unit normal, body frame
    area_m2: float
    centroid_m: Vec3   # face centroid in the structure frame (same origin as the catalog)


@dataclass(frozen=True, slots=True)
class SpacecraftGeometry:
    """Flat-plate model: six outward faces plus surface coefficients.

    ``kernel`` is what :func:`total_disturbance` unpacks, flat and built
    once: ``0.5 Cd``, ``1 - c_sr``, ``2 c_sr``, ``c_dif / 3`` and one row per
    face of normal, area, ``-(W/c) A`` and centroid.  It is not an argument
    and is not compared.
    """

    faces: tuple[Face, ...]
    drag_coefficient: float = _CONSTANTS.drag_coefficient
    specular_reflectance: float = _CONSTANTS.specular_reflectance
    diffuse_reflectance: float = _CONSTANTS.diffuse_reflectance
    kernel: tuple = field(init=False, compare=False, repr=False)

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
        object.__setattr__(self, "kernel", (
            0.5 * self.drag_coefficient, 1.0 - self.specular_reflectance,
            2.0 * self.specular_reflectance, self.diffuse_reflectance / 3.0,
            tuple((*f.normal, f.area_m2, -_RADIATION_PRESSURE * f.area_m2, *f.centroid_m)
                  for f in self.faces),
        ))

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


# ---------------------------------------------------------------------------
# Per-refresh records and torques
# ---------------------------------------------------------------------------

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


def total_disturbance(
    geometry: SpacecraftGeometry,
    env: EnvironmentSample,
    J: InertiaTensor,
    cg_m: Vec3,
    include: tuple[bool, bool, bool] = (True, True, True),
) -> Vec3:
    """Sum of the (drag, SRP, gravity-gradient) torques, each individually togglable.

    * **Drag**: ``-0.5 Cd rho v^2 sum_i (v_hat . n_i) A_i v_hat`` over the
      faces with ``v_hat . n_i > 0``, acting at the projected-area-weighted
      centroid of those faces; the moment arm is that centroid minus the CG,
      which is how a shifted payload feeds the disturbance budget.  Zero
      without air or motion.
    * **Solar radiation pressure**: per face with ``n_i . s > 0``, where
      ``s`` points toward the sun, with specular/diffuse reflectances
      (c_sr, c_dif), at the face centroid; zero in eclipse::

          F = -(W/c) sum_i A_i (n_i . s) [ (1 - c_sr) s + (2 c_sr (n_i . s) + c_dif / 3) n_i ]

    * **Gravity gradient**: ``3 mu / |r|^5 * (r x J r)``.
    """
    half_cd, coeff_s, two_c_sr, c_dif_3, faces = geometry.kernel
    (sx, sy, sz), in_eclipse, density, (vx, vy, vz), (rx, ry, rz) = env
    cgx, cgy, cgz = cg_m
    speed = sqrt(vx * vx + vy * vy + vz * vz)
    drag = include[0] and speed != 0.0 and density != 0.0
    srp = include[1] and not in_eclipse
    if drag:
        vhx, vhy, vhz = vx / speed, vy / speed, vz / speed
    projected = cx = cy = cz = 0.0
    stx = sty = stz = 0.0
    for nx, ny, nz, area, srp_area, fcx, fcy, fcz in faces:
        if drag:
            cosang = vhx * nx + vhy * ny + vhz * nz
            if cosang > 0.0:
                w = cosang * area
                projected += w
                cx += w * fcx
                cy += w * fcy
                cz += w * fcz
        if srp:
            cosang = sx * nx + sy * ny + sz * nz
            if not cosang <= 0.0:
                coeff_n = two_c_sr * cosang + c_dif_3
                scale = srp_area * cosang
                fx = scale * (coeff_s * sx + coeff_n * nx)
                fy = scale * (coeff_s * sy + coeff_n * ny)
                fz = scale * (coeff_s * sz + coeff_n * nz)
                ax = fcx - cgx
                ay = fcy - cgy
                az = fcz - cgz
                stx += ay * fz - az * fy
                sty += az * fx - ax * fz
                stz += ax * fy - ay * fx

    tx = ty = tz = 0.0
    if drag and projected != 0.0:
        magnitude = half_cd * density * speed * speed * projected
        fx, fy, fz = -magnitude * vhx, -magnitude * vhy, -magnitude * vhz
        ax = cx / projected - cgx
        ay = cy / projected - cgy
        az = cz / projected - cgz
        tx += ay * fz - az * fy
        ty += az * fx - ax * fz
        tz += ax * fy - ay * fx
    if include[1]:
        tx += stx; ty += sty; tz += stz
    if include[2]:
        (a, b, c), (d, e, f), (g, h, i) = J.rows
        jx = a * rx + b * ry + c * rz
        jy = d * rx + e * ry + f * rz
        jz = g * rx + h * ry + i * rz
        scale = 3.0 * _CONSTANTS.mu_m3s2 / sqrt(rx * rx + ry * ry + rz * rz) ** 5
        tx += scale * (ry * jz - rz * jy)
        ty += scale * (rz * jx - rx * jz)
        tz += scale * (rx * jy - ry * jx)
    return tuple.__new__(Vec3, (tx, ty, tz))


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
        """The disturbance inputs in the body frame: ``R(q).T`` applied to
        the sun, velocity and position, with the matrix built once."""
        q0, q1, q2, q3 = q
        r00 = 1.0 - 2.0 * (q2 * q2 + q3 * q3)
        r01 = 2.0 * (q1 * q2 + q0 * q3)
        r02 = 2.0 * (q1 * q3 - q0 * q2)
        r10 = 2.0 * (q1 * q2 - q0 * q3)
        r11 = 1.0 - 2.0 * (q1 * q1 + q3 * q3)
        r12 = 2.0 * (q2 * q3 + q0 * q1)
        r20 = 2.0 * (q1 * q3 + q0 * q2)
        r21 = 2.0 * (q2 * q3 - q0 * q1)
        r22 = 1.0 - 2.0 * (q1 * q1 + q2 * q2)
        _, (sx, sy, sz), in_eclipse, density, (vx, vy, vz), (rx, ry, rz) = self
        new = tuple.__new__
        return new(EnvironmentSample, (
            new(Vec3, (r00 * sx + r01 * sy + r02 * sz,
                       r10 * sx + r11 * sy + r12 * sz,
                       r20 * sx + r21 * sy + r22 * sz)),
            in_eclipse,
            density,
            new(Vec3, (r00 * vx + r01 * vy + r02 * vz,
                       r10 * vx + r11 * vy + r12 * vz,
                       r20 * vx + r21 * vy + r22 * vz)),
            new(Vec3, (r00 * rx + r01 * ry + r02 * rz,
                       r10 * rx + r11 * ry + r12 * rz,
                       r20 * rx + r21 * ry + r22 * rz)),
        ))


def orbit_frame_sample(
    cfg: OrbitConfig,
    t: float,
    sun_inertial: Vec3 = Vec3(1.0, 0.0, 0.0),
    dipole_tilt_deg: float = _CONSTANTS.default_dipole_tilt_deg,
) -> OrbitFrameSample:
    """Attitude-independent environment snapshot at time ``t``, orbit frame.

    * Field: the tilted centered dipole ``B0 (Re/r)^3 (3 (m.r_hat) r_hat -
      m_hat)``, its axis ``dipole_tilt_deg`` from the inertial z axis (0 gives
      an axis-aligned dipole).
    * Eclipse: the cylindrical shadow, on the anti-sun side of the Earth
      within one Earth radius of the sun line.
    * Density, velocity and position are the config's constants: x is along
      the velocity and z points toward the Earth's center by construction.
    """
    (rx, ry, rz), _, (xx, xy, xz), (yx, yy, yz), (zx, zy, zz), _, _ = propagate_orbit(cfg, t)
    _, _, _, _, _, _, _, _, _, _, density, b_scale, v_orbit, r_orbit = cfg.kernel
    tilt = math.radians(dipole_tilt_deg)
    mx, mz = sin(tilt), cos(tilt)
    nr = sqrt(rx * rx + ry * ry + rz * rz)
    hx, hy, hz = rx / nr, ry / nr, rz / nr
    mr = mx * hx + 0.0 * hy + mz * hz
    bx = b_scale * (3.0 * mr * hx - mx)
    by = b_scale * (3.0 * mr * hy - 0.0)
    bz = b_scale * (3.0 * mr * hz - mz)

    sx, sy, sz = sun_inertial
    ns = sqrt(sx * sx + sy * sy + sz * sz)
    if ns == 0.0:
        raise ValueError("cannot normalize a zero vector")
    sx, sy, sz = sx / ns, sy / ns, sz / ns
    along = rx * sx + ry * sy + rz * sz
    if along >= 0.0:
        in_eclipse = False
    else:
        px, py, pz = rx - along * sx, ry - along * sy, rz - along * sz
        in_eclipse = sqrt(px * px + py * py + pz * pz) < _CONSTANTS.earth_radius_m
    new = tuple.__new__
    return new(OrbitFrameSample, (
        new(Vec3, (xx * bx + xy * by + xz * bz, yx * bx + yy * by + yz * bz,
                   zx * bx + zy * by + zz * bz)),
        new(Vec3, (xx * sx + xy * sy + xz * sz, yx * sx + yy * sy + yz * sz,
                   zx * sx + zy * sy + zz * sz)),
        in_eclipse,
        density,
        v_orbit,
        r_orbit,
    ))
