import itertools
import math
import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from adcslab.environment import (
    AltitudeRangeError,
    AtmosphereTable,
    EnvironmentSample,
    Face,
    OrbitConfig,
    OrbitFrameSample,
    OrbitState,
    SpacecraftGeometry,
    atmospheric_density,
    constants,
    orbit_frame_sample,
    orbit_period,
    propagate_orbit,
    total_disturbance,
)
from adcslab.harness import Scenario, assemble
from adcslab.quatmath import (
    IDENTITY,
    Vec3,
    quat_from_euler,
    rotate_orbit_to_body,
    vdot,
    vnorm,
)
from adcslab.rigidbody import InertiaTensor
from oracles import (
    drag_torque,
    gravity_gradient_torque,
    magnetic_field,
    orbit_frame_sample_reference,
    propagate_orbit_reference,
    srp_torque,
    sun_direction,
    to_body_reference,
    to_orbit_frame,
    total_disturbance_reference,
    vcross,
    vunit,
)

CFG = OrbitConfig()
C = constants()

directions = st.builds(Vec3,
                       st.floats(-1.0, 1.0),
                       st.floats(-1.0, 1.0),
                       st.floats(-1.0, 1.0)).filter(lambda v: vnorm(v) > 0.3).map(vunit)


def _orbit_state_at(position_m: Vec3) -> OrbitState:
    """Synthetic orbit state for field evaluation; basis/velocity are unused."""
    dummy = Vec3(1.0, 0.0, 0.0)
    return OrbitState(position_m, Vec3(0.0, 0.0, 0.0), dummy, dummy, dummy,
                      radius_m=vnorm(position_m), speed_mps=0.0)


def _ram_sample(density: float = 3e-12, speed: float = 7660.0) -> EnvironmentSample:
    """Flow along +x body, sun along +x, daylight; position far below on -z."""
    return EnvironmentSample(
        sun_body=Vec3(1.0, 0.0, 0.0),
        in_eclipse=False,
        density_kgm3=density,
        v_rel_body_mps=Vec3(speed, 0.0, 0.0),
        r_body_m=Vec3(0.0, 0.0, -CFG.radius_m),
    )


# ----------------------------------------------------------------- orbit

def test_period_matches_kepler_closed_form():
    T = orbit_period(CFG)
    assert T == pytest.approx(5544.858168881323, rel=1e-12)
    assert 5500.0 < T < 5600.0


def test_orbit_returns_after_one_period():
    T = orbit_period(CFG)
    r0 = propagate_orbit(CFG, 0.0).position_m
    r1 = propagate_orbit(CFG, T).position_m
    assert math.dist(r0, r1) / vnorm(r0) < 1e-6


def test_orbit_radius_and_circular_speed():
    s = propagate_orbit(CFG, 1234.5)
    assert s.radius_m == pytest.approx(6.771e6, rel=1e-12)
    assert vnorm(s.position_m) == pytest.approx(s.radius_m, rel=1e-12)
    assert s.speed_mps == pytest.approx(math.sqrt(C.mu_m3s2 / 6.771e6), rel=1e-12)
    assert vnorm(s.velocity_mps) == pytest.approx(s.speed_mps, rel=1e-12)


@pytest.mark.parametrize("t", [0.0, 311.7, 1500.0, 4000.0, 5544.0])
def test_basis_is_orthonormal_and_right_handed(t):
    s = propagate_orbit(CFG, t)
    for a in (s.basis_x, s.basis_y, s.basis_z):
        assert vnorm(a) == pytest.approx(1.0, abs=1e-12)
    assert abs(vdot(s.basis_x, s.basis_y)) < 1e-12
    assert abs(vdot(s.basis_y, s.basis_z)) < 1e-12
    assert abs(vdot(s.basis_z, s.basis_x)) < 1e-12
    handed = vcross(s.basis_x, s.basis_y)
    assert math.dist(handed, s.basis_z) < 1e-12


@pytest.mark.parametrize("t", [0.0, 702.9, 2772.0])
def test_basis_z_points_at_earth_and_x_along_velocity(t):
    s = propagate_orbit(CFG, t)
    assert vdot(s.basis_z, vunit(s.position_m)) == pytest.approx(-1.0, abs=1e-12)
    assert vdot(s.basis_x, vunit(s.velocity_mps)) == pytest.approx(1.0, abs=1e-12)


def test_to_orbit_frame_projects_onto_basis():
    s = propagate_orbit(CFG, 987.0)
    assert to_orbit_frame(s, s.basis_x) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert to_orbit_frame(s, s.basis_y) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
    assert to_orbit_frame(s, s.basis_z) == pytest.approx((0.0, 0.0, 1.0), abs=1e-12)


def test_equatorial_orbit_stays_in_plane():
    cfg = OrbitConfig(inclination_deg=0.0)
    assert all(abs(propagate_orbit(cfg, t).position_m.z) < 1e-6 for t in range(0, 6000, 500))


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_cached_orbit_constants_keep_the_sign_of_a_zero(zeros):
    """A config equal to another but for the sign of a zero gets its own
    values, whichever ran first.  At t = 0, -sin(raan) is the velocity's x."""
    for raan in zeros:
        vx = propagate_orbit(OrbitConfig(raan_deg=raan), 0.0).velocity_mps.x
        assert vx == 0.0 and math.copysign(1.0, vx) == -math.copysign(1.0, raan)


def _hexes(record) -> list:
    """Every float of a (nested) NamedTuple record as ``float.hex``; bools as is."""
    out = []
    for x in record:
        if isinstance(x, tuple):
            out.extend(_hexes(x))
        else:
            out.append(x if isinstance(x, bool) else float.hex(x))
    return out


def _flip_zero(x: float) -> float:
    return -x if x == 0.0 else x


signed_zero = st.sampled_from([0.0, -0.0])
angles = st.one_of(signed_zero, st.floats(-360.0, 360.0))
sun_vectors = st.builds(Vec3, *[st.one_of(signed_zero, st.floats(-1.0, 1.0))] * 3).filter(
    lambda v: vnorm(v) > 1e-3)


@given(altitude=st.floats(200.0, 2000.0), inclination=angles, raan=angles, phase=angles,
       tilt=angles, sun=sun_vectors, t=st.one_of(signed_zero, st.floats(0.0, 1e5)))
@settings(max_examples=60, deadline=None)
def test_environment_is_a_pure_function_of_its_inputs(altitude, inclination, raan, phase,
                                                      tilt, sun, t):
    """The sample for some inputs does not depend on what ran before, even
    when that run differed only in the sign of its zeros.  Every field of
    the config, the tilt and the sun vector may be a signed zero; the
    altitude has no zero in its band."""
    cfg = OrbitConfig(altitude, inclination, raan, phase)
    flipped = OrbitConfig(altitude, _flip_zero(inclination), _flip_zero(raan),
                          _flip_zero(phase))
    first = _hexes(orbit_frame_sample(cfg, t, sun, tilt))
    orbit_frame_sample(flipped, t, Vec3(*map(_flip_zero, sun)), _flip_zero(tilt))
    assert _hexes(orbit_frame_sample(cfg, t, sun, tilt)) == first


def test_altitude_outside_band_rejected():
    with pytest.raises(AltitudeRangeError):
        OrbitConfig(altitude_km=150.0)
    with pytest.raises(AltitudeRangeError):
        OrbitConfig(altitude_km=2000.5)
    assert OrbitConfig(altitude_km=2000.0).radius_m == pytest.approx(8.371e6)


# ----------------------------------------------------------------- magnetic field

def test_dipole_magnitude_on_magnetic_equator():
    """Perpendicular to the dipole axis the field is B0 (Re/r)^3."""
    b = magnetic_field(_orbit_state_at(Vec3(0.0, CFG.radius_m, 0.0)))
    expect = C.dipole_b0_tesla * (C.earth_radius_m / CFG.radius_m) ** 3
    assert vnorm(b) == pytest.approx(expect, rel=1e-12)


def test_dipole_magnitude_over_magnetic_pole():
    """Along the dipole axis the field doubles: 2 B0 (Re/r)^3."""
    tilt = math.radians(C.default_dipole_tilt_deg)
    m_hat = Vec3(math.sin(tilt), 0.0, math.cos(tilt))
    r = CFG.radius_m
    b = magnetic_field(_orbit_state_at(Vec3(m_hat.x * r, m_hat.y * r, m_hat.z * r)))
    expect = 2.0 * C.dipole_b0_tesla * (C.earth_radius_m / r) ** 3
    assert vnorm(b) == pytest.approx(expect, rel=1e-12)
    assert vdot(vunit(b), m_hat) == pytest.approx(1.0, abs=1e-12)


def test_untilted_dipole_is_axial():
    b = magnetic_field(_orbit_state_at(Vec3(CFG.radius_m, 0.0, 0.0)), tilt_deg=0.0)
    scale = C.dipole_b0_tesla * (C.earth_radius_m / CFG.radius_m) ** 3
    assert b == pytest.approx((0.0, 0.0, -scale), abs=1e-20)


@given(directions, st.floats(6.6e6, 2.5e7), st.floats(6.6e6, 2.5e7))
def test_dipole_falls_off_as_inverse_cube(r_hat, r1, r2):
    b1 = vnorm(magnetic_field(_orbit_state_at(Vec3(r_hat.x * r1, r_hat.y * r1, r_hat.z * r1))))
    b2 = vnorm(magnetic_field(_orbit_state_at(Vec3(r_hat.x * r2, r_hat.y * r2, r_hat.z * r2))))
    assert b1 / b2 == pytest.approx((r2 / r1) ** 3, rel=1e-9)


def test_field_varies_along_inclined_orbit():
    """At 51.6 deg the orbit-frame field is far from constant over one rev."""
    T = orbit_period(CFG)
    mags = [vnorm(orbit_frame_sample(CFG, i * T / 200.0).b_orbit_tesla) for i in range(200)]
    assert min(mags) / max(mags) < 0.95


# ----------------------------------------------------------------- sun and eclipse

def test_sun_side_is_lit():
    s_hat, in_eclipse = sun_direction(0.0, CFG)
    assert s_hat == Vec3(1.0, 0.0, 0.0)
    assert not in_eclipse


def test_antisolar_point_is_shadowed():
    _, in_eclipse = sun_direction(orbit_period(CFG) / 2.0, CFG)
    assert in_eclipse


def test_terminator_crossing_is_lit():
    """On the plane through the Earth's center the shadow cylinder hasn't started."""
    _, in_eclipse = sun_direction(orbit_period(CFG) / 4.0, CFG)
    assert not in_eclipse


def test_sun_vector_is_normalized():
    s_hat, _ = sun_direction(0.0, CFG, sun_inertial=Vec3(2.0, 0.0, 0.0))
    assert s_hat == Vec3(1.0, 0.0, 0.0)


def test_eclipse_fraction_with_sun_in_orbit_plane():
    """Worst-case beta angle shadows roughly 38% of a 400 km orbit."""
    T = orbit_period(CFG)
    n = 2000
    frac = sum(sun_direction(i * T / n, CFG)[1] for i in range(n)) / n
    assert 0.35 < frac < 0.41


# ----------------------------------------------------------------- atmosphere

@pytest.mark.parametrize("h, rho", [(200.0, 2.789e-10), (400.0, 3.725e-12), (1000.0, 3.019e-15)])
def test_density_anchor_rows_are_exact(h, rho):
    assert atmospheric_density(h) == rho


def test_density_decreases_with_altitude():
    samples = [atmospheric_density(h) for h in range(200, 1001, 10)]
    assert all(a > b for a, b in zip(samples, samples[1:]))
    assert atmospheric_density(400.0) > atmospheric_density(500.0)


def test_density_at_iss_altitude_scale():
    rho = atmospheric_density(400.0)
    assert 1.5e-12 < rho < 6e-12


def test_density_outside_band_rejected():
    with pytest.raises(AltitudeRangeError):
        atmospheric_density(199.9)
    with pytest.raises(AltitudeRangeError):
        atmospheric_density(2000.1)
    assert atmospheric_density(2000.0) > 0.0


def test_custom_table_interpolates_exponentially():
    table = AtmosphereTable([(200.0, 1e-10, 50.0)])
    assert table.density(250.0) == pytest.approx(1e-10 * math.exp(-1.0), rel=1e-12)
    with pytest.raises(ValueError):
        AtmosphereTable([])


# ----------------------------------------------------------------- geometry

def test_box_faces_cover_the_hull():
    g = SpacecraftGeometry.box()
    assert len(g.faces) == 6
    areas = sorted(f.area_m2 for f in g.faces)
    assert areas == pytest.approx([0.01, 0.01, 0.034, 0.034, 0.034, 0.034])
    for f in g.faces:
        assert vnorm(f.normal) == pytest.approx(1.0, abs=1e-12)
        # centroid sits half a side out along the outward normal
        assert vdot(f.centroid_m, f.normal) > 0.0


def test_geometry_validation():
    good = Face(Vec3(1.0, 0.0, 0.0), 0.01, Vec3(0.05, 0.0, 0.0))
    with pytest.raises(ValueError, match="unit length"):
        SpacecraftGeometry((Face(Vec3(1.0, 1.0, 0.0), 0.01, Vec3(0.0, 0.0, 0.0)),))
    with pytest.raises(ValueError, match="area"):
        SpacecraftGeometry((Face(Vec3(1.0, 0.0, 0.0), 0.0, Vec3(0.0, 0.0, 0.0)),))
    with pytest.raises(ValueError, match="drag coefficient"):
        SpacecraftGeometry((good,), drag_coefficient=-0.1)
    with pytest.raises(ValueError, match="cannot exceed 1"):
        SpacecraftGeometry((good,), specular_reflectance=0.8, diffuse_reflectance=0.3)


@pytest.mark.parametrize("coefficient", ["drag_coefficient", "specular_reflectance",
                                         "diffuse_reflectance"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_geometry_rejects_non_finite_coefficients(coefficient, value):
    with pytest.raises(ValueError, match=coefficient.replace("_", " ")):
        SpacecraftGeometry.box(**{coefficient: value})


@pytest.mark.parametrize("size", ["x_m", "y_m", "z_m"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_geometry_rejects_non_finite_face_sizes(size, value):
    with pytest.raises(ValueError, match="face area"):
        SpacecraftGeometry.box(**{size: value})


# ----------------------------------------------------------------- drag

def test_drag_force_on_one_ram_face():
    """0.5 * 2.2 * 3e-12 * 7660^2 * 0.01 of drag, read through a 1 m lever arm."""
    geom = SpacecraftGeometry((Face(Vec3(1.0, 0.0, 0.0), 0.01, Vec3(0.0, 0.0, 1.0)),))
    tau = drag_torque(geom, _ram_sample(), Vec3(0.0, 0.0, 0.0))
    force = 0.5 * 2.2 * 3e-12 * 7660.0**2 * 0.01
    assert force == pytest.approx(1.94e-6, rel=2e-3)
    assert tau == pytest.approx((0.0, -force, 0.0), rel=1e-12)


def test_drag_skips_trailing_faces():
    geom = SpacecraftGeometry((Face(Vec3(-1.0, 0.0, 0.0), 0.01, Vec3(0.0, 0.0, 1.0)),))
    assert drag_torque(geom, _ram_sample(), Vec3(0.0, 0.0, 0.0)) == Vec3(0.0, 0.0, 0.0)


def test_drag_vanishes_without_air_or_motion():
    geom = SpacecraftGeometry.box()
    assert drag_torque(geom, _ram_sample(density=0.0), Vec3(0.0, 0.0, 0.0)) == Vec3(0.0, 0.0, 0.0)
    assert drag_torque(geom, _ram_sample(speed=0.0), Vec3(0.0, 0.0, 0.0)) == Vec3(0.0, 0.0, 0.0)


@given(st.floats(0.1, 10.0))
def test_drag_torque_linear_in_density(k):
    geom = SpacecraftGeometry.box()
    cg = Vec3(0.004, -0.002, -0.008)
    base = drag_torque(geom, _ram_sample(density=3e-12), cg)
    scaled = drag_torque(geom, _ram_sample(density=k * 3e-12), cg)
    assert scaled == pytest.approx(tuple(k * c for c in base), rel=1e-12, abs=1e-30)


@given(directions, st.floats(1000.0, 9000.0))
@settings(max_examples=60)
def test_centered_box_feels_no_drag_torque(v_hat, speed):
    """Projected-area-weighted centroid of a centered box lies along the flow."""
    geom = SpacecraftGeometry.box()
    env = EnvironmentSample(Vec3(1.0, 0.0, 0.0), False, 3.725e-12,
                            Vec3(v_hat.x * speed, v_hat.y * speed, v_hat.z * speed),
                            Vec3(0.0, 0.0, -CFG.radius_m))
    tau = drag_torque(geom, env, Vec3(0.0, 0.0, 0.0))
    assert vnorm(tau) < 1e-15


def test_drag_moment_from_shifted_cg():
    geom = SpacecraftGeometry.box()
    cg = Vec3(0.0, 0.0, -0.0079)
    tau = drag_torque(geom, _ram_sample(), cg)
    force = 0.5 * geom.drag_coefficient * 3e-12 * 7660.0**2 * 0.034
    assert tau == pytest.approx((0.0, -0.0079 * force, 0.0), rel=1e-12, abs=1e-25)


# ----------------------------------------------------------------- solar pressure

def test_srp_absorber_force_magnitude():
    """A perfect absorber feels (W/c) * A along the sun line."""
    geom = SpacecraftGeometry((Face(Vec3(1.0, 0.0, 0.0), 0.034, Vec3(0.0, 0.0, 1.0)),),
                              specular_reflectance=0.0, diffuse_reflectance=0.0)
    tau = srp_torque(geom, _ram_sample(), Vec3(0.0, 0.0, 0.0))
    force = C.solar_flux_wm2 / C.speed_of_light_ms * 0.034
    assert force == pytest.approx(1.55e-7, rel=3e-3)
    assert tau == pytest.approx((0.0, -force, 0.0), rel=1e-12)


def test_srp_mirror_doubles_the_normal_push():
    geom = SpacecraftGeometry((Face(Vec3(1.0, 0.0, 0.0), 0.034, Vec3(0.0, 0.0, 1.0)),),
                              specular_reflectance=1.0, diffuse_reflectance=0.0)
    tau = srp_torque(geom, _ram_sample(), Vec3(0.0, 0.0, 0.0))
    force = 2.0 * C.solar_flux_wm2 / C.speed_of_light_ms * 0.034
    assert tau == pytest.approx((0.0, -force, 0.0), rel=1e-12)


def test_srp_is_zero_in_eclipse():
    geom = SpacecraftGeometry.box()
    env = EnvironmentSample(Vec3(1.0, 0.0, 0.0), True, 3e-12,
                            Vec3(7660.0, 0.0, 0.0), Vec3(0.0, 0.0, -CFG.radius_m))
    assert srp_torque(geom, env, Vec3(0.01, 0.02, -0.03)) == Vec3(0.0, 0.0, 0.0)


def test_srp_skips_edge_on_and_shaded_faces():
    edge_on = SpacecraftGeometry((Face(Vec3(0.0, 1.0, 0.0), 0.034, Vec3(0.0, 0.05, 0.0)),))
    shaded = SpacecraftGeometry((Face(Vec3(-1.0, 0.0, 0.0), 0.034, Vec3(-0.05, 0.0, 0.0)),))
    assert srp_torque(edge_on, _ram_sample(), Vec3(0.0, 0.0, 0.0)) == Vec3(0.0, 0.0, 0.0)
    assert srp_torque(shaded, _ram_sample(), Vec3(0.0, 0.0, 0.0)) == Vec3(0.0, 0.0, 0.0)


@given(directions)
@settings(max_examples=60)
def test_centered_box_feels_no_srp_torque(s_hat):
    geom = SpacecraftGeometry.box()
    env = EnvironmentSample(s_hat, False, 0.0,
                            Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, -CFG.radius_m))
    assert vnorm(srp_torque(geom, env, Vec3(0.0, 0.0, 0.0))) < 1e-15


# ----------------------------------------------------------------- gravity gradient

def test_gg_zero_when_aligned_with_principal_axis():
    J = InertiaTensor.diagonal(0.01, 0.02, 0.03)
    tau = gravity_gradient_torque(J, Vec3(0.0, 0.0, -CFG.radius_m))
    assert tau == Vec3(0.0, 0.0, 0.0)


@given(directions)
def test_gg_zero_for_spherical_inertia(r_hat):
    J = InertiaTensor.diagonal(0.4, 0.4, 0.4)
    r = Vec3(r_hat.x * CFG.radius_m, r_hat.y * CFG.radius_m, r_hat.z * CFG.radius_m)
    tau = gravity_gradient_torque(J, r)
    assert vnorm(tau) < 1e-9 * 3.0 * C.mu_m3s2 / CFG.radius_m**3 * 0.4


def test_gg_hand_value():
    """diag(1,2,3) tipped 45 deg off the local vertical: 3mu/r^3 * 0.5 about x."""
    a = CFG.radius_m / math.sqrt(2.0)
    tau = gravity_gradient_torque(InertiaTensor.diagonal(1.0, 2.0, 3.0), Vec3(0.0, a, a))
    expect = 3.0 * 3.986e14 / 6.771e6**3 * 0.5
    assert expect == pytest.approx(1.93e-6, rel=3e-3)
    assert tau == pytest.approx((expect, 0.0, 0.0), rel=1e-12, abs=1e-20)


@given(directions,
       st.floats(0.005, 0.05), st.floats(0.005, 0.05), st.floats(0.005, 0.05))
def test_gg_torque_perpendicular_to_radius(r_hat, jx, jy, jz):
    assume(jx + jy >= jz and jy + jz >= jx and jz + jx >= jy)  # a physical body
    r = Vec3(r_hat.x * CFG.radius_m, r_hat.y * CFG.radius_m, r_hat.z * CFG.radius_m)
    tau = gravity_gradient_torque(InertiaTensor.diagonal(jx, jy, jz), r)
    tol = 1e-12 * 3.0 * C.mu_m3s2 / CFG.radius_m**3 * max(jx, jy, jz)
    assert abs(vdot(tau, r_hat)) < tol


# ----------------------------------------------------------------- total budget

def _busy_sample() -> EnvironmentSample:
    """Attitude chosen so drag, SRP, and gravity gradient are all nonzero."""
    q = quat_from_euler(20.0, -15.0, 40.0)
    return orbit_frame_sample(CFG, 300.0).to_body(q)


def test_total_is_the_sum_of_its_parts():
    geom = SpacecraftGeometry.box()
    env = _busy_sample()
    J = InertiaTensor.diagonal(0.0156, 0.0156, 0.005)
    cg = Vec3(0.0, 0.0, -0.0079)
    d = drag_torque(geom, env, cg)
    s = srp_torque(geom, env, cg)
    g = gravity_gradient_torque(J, env.r_body_m)
    total = total_disturbance(geom, env, J, cg)
    assert total == pytest.approx(tuple(d[i] + s[i] + g[i] for i in range(3)),
                                  rel=1e-12, abs=1e-25)
    assert vnorm(d) > 0.0 and vnorm(s) > 0.0 and vnorm(g) > 0.0


def test_total_include_flags_isolate_each_term():
    geom = SpacecraftGeometry.box()
    env = _busy_sample()
    J = InertiaTensor.diagonal(0.0156, 0.0156, 0.005)
    cg = Vec3(0.001, -0.002, -0.0079)
    assert total_disturbance(geom, env, J, cg, include=(True, False, False)) == \
        drag_torque(geom, env, cg)
    assert total_disturbance(geom, env, J, cg, include=(False, True, False)) == \
        srp_torque(geom, env, cg)
    assert total_disturbance(geom, env, J, cg, include=(False, False, True)) == \
        gravity_gradient_torque(J, env.r_body_m)


def test_disturbance_budget_for_bundled_spacecraft():
    """Summed disturbance stays well under 1e-5 N*m everywhere on the orbit,
    for the bundled catalog's tensor (floored) and CG as a run assembles them."""
    asm = assemble(Scenario())
    geom = SpacecraftGeometry.box()
    q = quat_from_euler(30.0, 20.0, 10.0)
    T = orbit_period(CFG)
    worst = max(
        vnorm(total_disturbance(geom, orbit_frame_sample(CFG, i * T / 100.0).to_body(q),
                                asm.inertia, asm.cg_m))
        for i in range(100)
    )
    assert worst < 1e-5


# ----------------------------------------------------------------- frame plumbing

def test_orbit_frame_sample_fixed_components():
    s = orbit_frame_sample(CFG, 777.0)
    orbit = propagate_orbit(CFG, 777.0)
    assert s.v_orbit_mps == Vec3(orbit.speed_mps, 0.0, 0.0)
    assert s.r_orbit_m == Vec3(0.0, 0.0, -orbit.radius_m)
    assert s.density_kgm3 == atmospheric_density(CFG.altitude_km)
    assert s.in_eclipse == sun_direction(777.0, CFG)[1]


def test_orbit_frame_sample_eclipse_matches_sun_direction_over_an_orbit(monkeypatch):
    """The sample takes its eclipse flag from the one orbit state it propagates."""
    import adcslab.environment as environment

    calls = []
    real = environment.propagate_orbit
    monkeypatch.setattr(environment, "propagate_orbit",
                        lambda cfg, t: calls.append(t) or real(cfg, t))
    T = orbit_period(CFG)
    sun = Vec3(0.3, -2.0, 0.5)
    times = [i * T / 97.0 for i in range(97)]
    flags = [orbit_frame_sample(CFG, t, sun).in_eclipse for t in times]
    assert calls == times
    assert flags == [sun_direction(t, CFG, sun)[1] for t in times]
    assert any(flags) and not all(flags)


def test_to_body_with_identity_attitude_is_a_copy():
    s = orbit_frame_sample(CFG, 60.0)
    env = s.to_body(IDENTITY)
    assert env.v_rel_body_mps == pytest.approx(s.v_orbit_mps, rel=1e-15)
    assert env.r_body_m == pytest.approx(s.r_orbit_m, rel=1e-15)
    assert env.in_eclipse == s.in_eclipse
    assert env.density_kgm3 == s.density_kgm3


def test_to_body_rotates_every_vector_consistently():
    s = orbit_frame_sample(CFG, 1500.0)
    q = quat_from_euler(40.0, 25.0, 70.0)
    env = s.to_body(q)
    assert env.sun_body == rotate_orbit_to_body(q, s.sun_orbit)
    assert env.v_rel_body_mps == rotate_orbit_to_body(q, s.v_orbit_mps)
    assert env.r_body_m == rotate_orbit_to_body(q, s.r_orbit_m)
    assert vnorm(env.r_body_m) == pytest.approx(vnorm(s.r_orbit_m), rel=1e-12)


# ----------------------------------------------------------------- one pass against the references

def _unit_or_none(v: Vec3):
    n = vnorm(v)
    return None if n < 1e-3 else Vec3(v.x / n, v.y / n, v.z / n)


signed_unit = st.one_of(signed_zero, st.floats(-1.0, 1.0))
unit_quats = st.tuples(*[signed_unit] * 4).filter(
    lambda q: math.sqrt(sum(c * c for c in q)) > 1e-3).map(
    lambda q: tuple(c / math.sqrt(sum(x * x for x in q)) for c in q))
offsets = st.builds(Vec3, *[st.one_of(signed_zero, st.floats(-0.05, 0.05))] * 3)
includes = st.tuples(st.booleans(), st.booleans(), st.booleans())
tensors = st.sampled_from([
    InertiaTensor.diagonal(0.0156, 0.0156, 0.005),
    InertiaTensor([[0.02, 1e-4, -5e-4], [1e-4, 0.018, 2e-4], [-5e-4, 2e-4, 0.006]]),
    assemble(Scenario()).inertia,
])


@st.composite
def geometries(draw) -> SpacecraftGeometry:
    specular = draw(st.floats(0.0, 1.0))
    return SpacecraftGeometry.box(
        *(draw(st.floats(0.01, 0.5)) for _ in range(3)),
        drag_coefficient=draw(st.floats(0.0, 4.0)),
        specular_reflectance=specular,
        diffuse_reflectance=draw(st.floats(0.0, 1.0 - specular)))


@given(altitude=st.floats(200.0, 2000.0), inclination=angles, raan=angles, phase=angles,
       tilt=angles, sun=sun_vectors, t=st.one_of(signed_zero, st.floats(0.0, 1e5)),
       q=unit_quats, cg=offsets, include=includes, geometry=geometries(), J=tensors)
@settings(max_examples=150, deadline=None)
def test_refresh_matches_the_reference_forms_bit_for_bit(altitude, inclination, raan, phase,
                                                         tilt, sun, t, q, cg, include,
                                                         geometry, J):
    """The orbit, the orbit-frame sample, its body-frame form and the summed
    torque equal, by ``float.hex``, the composition of the reference forms
    in ``tests/oracles.py``, which compute every constant per call."""
    cfg = OrbitConfig(altitude, inclination, raan, phase)
    assert _hexes(propagate_orbit(cfg, t)) == _hexes(propagate_orbit_reference(cfg, t))
    sample = orbit_frame_sample(cfg, t, sun, tilt)
    reference = orbit_frame_sample_reference(cfg, t, sun, tilt)
    assert _hexes(sample) == _hexes(reference)
    env = sample.to_body(q)
    assert _hexes(env) == _hexes(to_body_reference(reference, q))
    assert (_hexes(total_disturbance(geometry, env, J, cg, include))
            == _hexes(total_disturbance_reference(geometry, env, J, cg, include)))


@given(sun=sun_vectors.map(_unit_or_none).filter(lambda v: v is not None),
       eclipse=st.booleans(),
       density=st.one_of(signed_zero, st.floats(1e-16, 1e-9)),
       v=st.builds(Vec3, *[st.one_of(signed_zero, st.floats(-8000.0, 8000.0))] * 3),
       r_hat=sun_vectors.map(_unit_or_none).filter(lambda v: v is not None),
       cg=offsets, include=includes, geometry=geometries(), J=tensors)
@settings(max_examples=150, deadline=None)
def test_total_disturbance_matches_the_references_on_any_sample(sun, eclipse, density, v,
                                                                r_hat, cg, include,
                                                                geometry, J):
    """Still or airless samples, faces edge-on to the flow or the sun, signed
    zeros and either side of the shadow: the one pass sums what the three
    reference torques sum."""
    r = Vec3(r_hat.x * CFG.radius_m, r_hat.y * CFG.radius_m, r_hat.z * CFG.radius_m)
    env = EnvironmentSample(sun, eclipse, density, v, r)
    assert (_hexes(total_disturbance(geometry, env, J, cg, include))
            == _hexes(total_disturbance_reference(geometry, env, J, cg, include)))


@pytest.mark.parametrize("include", list(itertools.product((False, True), repeat=3)))
def test_refresh_matches_the_references_on_both_sides_of_eclipse(include):
    """One orbit with the sun in its plane, an off-centre CG and a tumbling
    attitude: every sample, lit or shadowed, equals the references'."""
    geometry = SpacecraftGeometry.box()
    J = assemble(Scenario()).inertia
    cg = Vec3(0.003, -0.002, -0.0079)
    sun = Vec3(0.3, -2.0, 0.5)
    T = orbit_period(CFG)
    flags = []
    for i in range(60):
        t = i * T / 60.0
        q = quat_from_euler(7.0 * i, 3.0 * i - 80.0, -11.0 * i)
        sample = orbit_frame_sample(CFG, t, sun)
        reference = orbit_frame_sample_reference(CFG, t, sun)
        assert _hexes(sample) == _hexes(reference)
        env = sample.to_body(q)
        assert _hexes(env) == _hexes(to_body_reference(reference, q))
        assert (_hexes(total_disturbance(geometry, env, J, cg, include))
                == _hexes(total_disturbance_reference(geometry, env, J, cg, include)))
        flags.append(sample.in_eclipse)
    assert any(flags) and not all(flags)


def test_stored_constants_leave_equality_repr_hash_and_pickling_alone():
    """The ``kernel`` slots are derived: not arguments, not compared, not
    shown, not hashed; a pickled config or geometry brings its own along."""
    cfg = OrbitConfig(500.0, 97.4, -0.0, 12.5)
    assert [f.name for f in fields(OrbitConfig) if f.init] == [
        "altitude_km", "inclination_deg", "raan_deg", "phase_deg"]
    assert repr(cfg) == ("OrbitConfig(altitude_km=500.0, inclination_deg=97.4, "
                         "raan_deg=-0.0, phase_deg=12.5)")
    assert cfg == OrbitConfig(500.0, 97.4, 0.0, 12.5)  # -0.0 == 0.0, field by field
    assert cfg != OrbitConfig(500.0, 97.4, 0.0, 12.0)
    assert hash(cfg) == hash((500.0, 97.4, -0.0, 12.5))
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and _hexes(back.kernel) == _hexes(cfg.kernel)
    assert _hexes(propagate_orbit(back, 321.0)) == _hexes(propagate_orbit(cfg, 321.0))
    moved = replace(cfg, altitude_km=600.0)
    assert _hexes(moved.kernel) == _hexes(OrbitConfig(600.0, 97.4, -0.0, 12.5).kernel)
    with pytest.raises(TypeError):
        OrbitConfig(400.0, 51.6, 0.0, 0.0, ())

    geom = SpacecraftGeometry.box(0.1, 0.2, 0.3, drag_coefficient=2.0)
    assert [f.name for f in fields(SpacecraftGeometry) if f.init] == [
        "faces", "drag_coefficient", "specular_reflectance", "diffuse_reflectance"]
    assert repr(geom) == (f"SpacecraftGeometry(faces={geom.faces!r}, drag_coefficient=2.0, "
                          f"specular_reflectance={C.specular_reflectance!r}, "
                          f"diffuse_reflectance={C.diffuse_reflectance!r})")
    assert geom == SpacecraftGeometry(geom.faces, 2.0)
    assert hash(geom) == hash((geom.faces, 2.0, C.specular_reflectance, C.diffuse_reflectance))
    back = pickle.loads(pickle.dumps(geom))
    assert back == geom and _hexes(back.kernel) == _hexes(geom.kernel)


@pytest.mark.parametrize("t", [0.0, 2772.0], ids=["lit", "eclipse"])
def test_refresh_records_have_their_declared_types(t):
    """The refresh builds its records without their generated constructors;
    the types stay exact, nested Vec3s included."""
    orbit = propagate_orbit(CFG, t)
    assert type(orbit) is OrbitState
    assert [type(v) for v in orbit[:5]] == [Vec3] * 5
    assert type(orbit.radius_m) is float and type(orbit.speed_mps) is float
    sample = orbit_frame_sample(CFG, t)
    assert type(sample) is OrbitFrameSample
    assert [type(v) for v in (sample.b_orbit_tesla, sample.sun_orbit, sample.v_orbit_mps,
                              sample.r_orbit_m)] == [Vec3] * 4
    assert sample.in_eclipse is (t > 0.0)
    assert type(sample.density_kgm3) is float
    q = quat_from_euler(10.0, -20.0, 30.0)
    env = sample.to_body(q)
    assert type(env) is EnvironmentSample
    assert [type(v) for v in (env.sun_body, env.v_rel_body_mps, env.r_body_m)] == [Vec3] * 3
    J = InertiaTensor.diagonal(0.0156, 0.0157, 5e-3)
    for include in ((True, True, True), (False, False, False)):
        tau = total_disturbance(SpacecraftGeometry.box(), env, J, Vec3(0.0, 0.0, 0.01), include)
        assert type(tau) is Vec3
    assert type(rotate_orbit_to_body(q, sample.b_orbit_tesla)) is Vec3
