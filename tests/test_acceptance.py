"""End-to-end gates for the advertised simulator capabilities.

Each test pins one headline behaviour: the de-tumble timing ladder, the
per-mode settle budgets, conservation under torque-free propagation, the
mass-property oracles, actuator physicality, regolith robustness, and
bitwise determinism.  Tolerances are frozen here on purpose -- a red test
means the behaviour regressed, not that the tolerance needs loosening.
"""

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from adcslab import harness
from adcslab.control import Fidelity, Gains
from adcslab.environment import OrbitConfig, orbit_period
from adcslab.harness import (
    REFERENCE_DETUMBLE_ORBITS,
    assemble,
    default_limits,
    default_scenario,
    monte_carlo,
    run_scenario,
    run_scenario_metrics,
)
from adcslab.massmodel import (
    apply_inertia_floor,
    bundled_catalog,
    catalog_from_dict,
    compute_cg,
    inertia_tensor,
    mass_properties,
)
from adcslab.quatmath import IDENTITY, RPM_TO_RADPS, Vec3
from adcslab.rigidbody import AttitudeState, InertiaTensor, propagate
from oracles import free_rotation, rk4_step

# Integrator substeps of the whole ladder: 4,513,413 measured over its
# 3,759,414 control steps, plus 10 %.  A count, unlike wall time, does not
# depend on how busy the machine is; the benchmark measures the cost of each.
LADDER_SUBSTEP_BUDGET = 4_965_000
ORBIT_PERIOD_S = orbit_period(OrbitConfig())


@pytest.fixture(scope="module")
def detumble_sweep():
    """De-tumble the 30..60 RPM ladder once, counting the integrator
    substeps the loop asks for; reused by the timing tests."""
    substeps = 0

    def counting(state, J, torque, dt, n_sub=1, **kwargs):
        nonlocal substeps
        substeps += n_sub
        return propagate(state, J, torque, dt, n_sub, **kwargs)

    times = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "propagate", counting)
        for rpm, ref in sorted(REFERENCE_DETUMBLE_ORBITS.items()):
            w = rpm * RPM_TO_RADPS
            result = run_scenario_metrics(default_scenario(
                "detumble",
                name=f"detumble-{rpm}rpm",
                omega0_radps=Vec3(w, w, w),
                duration_orbits=1.5 * ref,
            ))
            times[rpm] = result.detumble_time_orbits
    return times, substeps


@pytest.fixture(scope="module")
def spin_result():
    return run_scenario_metrics(default_scenario("spin"))


@pytest.fixture(scope="module")
def despin_result():
    return run_scenario_metrics(default_scenario("despin"))


def test_detumble_ladder_tracks_the_reference_timings(detumble_sweep):
    """Equal-axis tumbles de-spin within +/-40% of the reference ladder.

    The wide band is deliberate: the reference timings fix neither the
    actuator authority nor the integration step, so only the scale and
    the ordering of the ladder are meaningful.  The preset gains are
    asserted alongside because the ladder is only comparable at the
    published operating point.
    """
    gains = default_scenario("detumble").gains
    assert gains == Gains()
    assert Gains().kp == pytest.approx(9e-5, rel=1e-12)
    assert Gains().kd == pytest.approx(9e-3, rel=1e-12)

    times, substeps = detumble_sweep
    for rpm, ref in REFERENCE_DETUMBLE_ORBITS.items():
        measured = times[rpm]
        assert measured is not None, f"{rpm} RPM never crossed the exit rate"
        assert abs(measured - ref) <= 0.40 * ref, (
            f"{rpm} RPM de-tumbled in {measured:.2f} orbits; "
            f"reference {ref:.2f} +/-40%"
        )
    ladder = [times[rpm] for rpm in sorted(times)]
    assert ladder == sorted(ladder), f"ladder not monotonic: {ladder}"
    assert len(set(ladder)) == len(ladder), f"ladder has ties: {ladder}"
    assert substeps <= LADDER_SUBSTEP_BUDGET, f"the ladder took {substeps} substeps"


def test_35_rpm_tumble_recovers_within_six_orbits(detumble_sweep):
    """The sizing case -- 35 RPM on all axes -- must clear 0.01 rad/s in 6 orbits."""
    times, _ = detumble_sweep
    assert times[35] is not None
    assert times[35] < 6.0


def test_spin_mode_reaches_the_centrifuge_rate_in_seconds(spin_result):
    """From rest, the wheel pulls x to within 1% of 1 RPM in under 10 s.

    The transverse axes must sit below 1e-3 rad/s once settled, and the
    one-minute requirement is implied by the tighter 10 s check.
    """
    r = spin_result
    assert r.converged
    assert r.spin_settle_time_s is not None
    assert r.spin_settle_time_s < 10.0
    assert abs(r.final_omega_radps.x - RPM_TO_RADPS) < 0.01 * RPM_TO_RADPS
    assert abs(r.final_omega_radps.y) < 1e-3
    assert abs(r.final_omega_radps.z) < 1e-3


def test_despin_mirrors_the_spin_settle_time(spin_result, despin_result):
    """Spin-down from 1 RPM completes inside 60 s and matches spin-up +/-20%.

    The spin and de-spin laws are mirror images, so their settle times
    should agree to well within the band.
    """
    r = despin_result
    assert r.converged
    assert r.despin_time_s is not None
    assert r.despin_time_s <= 60.0
    assert r.final_speed_radps < 1e-3
    ratio = r.despin_time_s / spin_result.spin_settle_time_s
    assert 0.8 <= ratio <= 1.2, f"despin/spin settle ratio {ratio:.3f}"


def test_nominal_mode_aligns_from_90_degree_offsets():
    """90 deg off on every axis at rest aligns to 5 deg/axis within 3 orbits,
    and the z half-cone angle stays under 5 deg once settled."""
    r = run_scenario_metrics(default_scenario("nominal"))
    assert r.converged
    assert r.align_time_s is not None
    assert r.align_time_s <= 3.0 * ORBIT_PERIOD_S
    assert r.max_cone_angle_post_settle_deg is not None
    assert r.max_cone_angle_post_settle_deg < 5.0


def test_torque_free_propagation_conserves_energy_and_momentum():
    """10^4 free-rotation steps hold energy and |J w| to 1e-8 relative, both
    in the shipped integrator and in the RK4 reference.

    The inertia is the flight stack's (floored about the symmetry axis so
    the tensor is invertible), the initial rate is a seeded random draw,
    and the quaternion must stay within 1e-9 of unit length at every step.
    """
    props = mass_properties(bundled_catalog())
    floored = apply_inertia_floor(props.inertia_kgm2, 5e-3)
    assert floored[0, 0] == pytest.approx(0.015641505454545453, rel=1e-12)
    assert floored[2, 2] == pytest.approx(5e-3, rel=1e-12)
    J = InertiaTensor(floored)
    Jm = np.asarray(J.matrix)

    rng = np.random.default_rng(20260818)
    omega0 = Vec3(*rng.uniform(-0.08, 0.08, size=3))
    dynamics = free_rotation(J)

    def energy(w):
        wv = np.array(w)
        return 0.5 * wv @ Jm @ wv

    def momentum(w):
        return float(np.linalg.norm(Jm @ np.array(w)))

    e0, h0 = energy(omega0), momentum(omega0)
    steppers = {"propagate": lambda s: propagate(s, J, Vec3(0.0, 0.0, 0.0), 0.1),
                "rk4_step": lambda s: rk4_step(s, dynamics, 0.1)}
    for name, step in steppers.items():
        state = AttitudeState(IDENTITY, omega0, 0.0, 0.0)
        worst_e = worst_h = worst_q = 0.0
        for _ in range(10_000):
            state = step(state)
            worst_e = max(worst_e, abs(energy(state.omega) - e0) / e0)
            worst_h = max(worst_h, abs(momentum(state.omega) - h0) / h0)
            worst_q = max(worst_q, abs(math.hypot(*state.q) - 1.0))
        assert worst_e < 1e-8, f"{name}: energy drifted {worst_e:.2e} relative"
        assert worst_h < 1e-8, f"{name}: |J w| drifted {worst_h:.2e} relative"
        assert worst_q < 1e-9, f"{name}: quaternion norm drifted {worst_q:.2e}"


def test_the_wheel_keeps_the_total_momentum_of_a_spin_up():
    """With magnetic damping (k2 = 1e-30) and disturbances off, the wheel
    only moves momentum between itself and the body: over a 300 s physical
    spin-up with transverse rates and the regolith off-axis, the total
    |J w - hw x| stays within 1e-11 of its largest value at every step."""
    s = default_scenario(
        "spin", gains=Gains(k2=1e-30), fidelity=Fidelity.PHYSICAL,
        enable_drag=False, enable_srp=False, enable_gravity_gradient=False,
        omega0_radps=Vec3(0.0, 0.01, -0.008), regolith_fixed_cm=Vec3(3.0, -2.0, 10.0),
        duration_s=300.0, dt_s=0.1, telemetry_cadence_s=0.1)
    tel, result = run_scenario(s)
    assert result.max_wheel_momentum_nms > 5e-4  # the wheel did spin the body up
    J = assemble(s).inertia.matrix
    rates = np.array([tel.column(c) for c in ("wx_radps", "wy_radps", "wz_radps")]).T
    total = rates @ J.T
    total[:, 0] -= np.array(tel.column("hw_Nms"))
    norms = np.linalg.norm(total, axis=1)
    spread = (norms.max() - norms.min()) / norms.max()
    assert spread < 1e-11, f"|J w - hw x| spread {spread:.3g} relative"


def _closed_form_inertia(masses, positions_cm):
    """Direct sum m (|r'|^2 I - r' r'^T) about the CG, in kg m^2."""
    m = np.asarray(masses, dtype=float)
    r = np.asarray(positions_cm, dtype=float) * 0.01
    cg = (m[:, None] * r).sum(axis=0) / m.sum()
    J = np.zeros((3, 3))
    for mi, ri in zip(m, r - cg):
        J += mi * ((ri @ ri) * np.eye(3) - np.outer(ri, ri))
    return J


def test_inertia_extraction_matches_the_closed_form():
    """The tensor builder agrees with the direct point-mass sum to 1e-12
    on 100 random catalogs and on the bundled flight stack, whose total
    mass and CG are pinned against an exact rational oracle."""
    rng = np.random.default_rng(7)
    for case in range(100):
        n = int(rng.integers(2, 12))
        masses = rng.uniform(0.05, 4.0, size=n)
        positions = rng.uniform(-50.0, 50.0, size=(n, 3))
        catalog = catalog_from_dict({
            "name": f"random-{case}",
            "chamber_cm": {"x": [-50, 50], "y": [-50, 50], "z": [-50, 50]},
            "components": [
                {"name": f"c{i}", "mass_kg": float(masses[i]),
                 "position_cm": [float(v) for v in positions[i]]}
                for i in range(n)
            ],
        })
        built = inertia_tensor(catalog)
        oracle = _closed_form_inertia(masses, positions)
        scale = np.linalg.norm(oracle)
        assert np.linalg.norm(built - oracle) <= 1e-12 * scale, f"case {case}"

    stack = bundled_catalog()
    comps = stack.all_components
    built = inertia_tensor(stack)
    oracle = _closed_form_inertia(
        [c.mass_kg for c in comps], [tuple(c.position_cm) for c in comps])
    assert np.linalg.norm(built - oracle) <= 1e-12 * np.linalg.norm(oracle)

    # Exact rational spreadsheet oracle for the bundled stack.
    total = sum(Fraction(c.mass_kg) for c in comps)
    assert float(total) == pytest.approx(2.97, abs=1e-12)
    cg_z = sum(Fraction(c.mass_kg) * Fraction(c.position_cm.z) for c in comps) / total
    cg = compute_cg(stack)
    assert cg.x == pytest.approx(0.0, abs=1e-12)
    assert cg.y == pytest.approx(0.0, abs=1e-12)
    assert cg.z == pytest.approx(float(cg_z), abs=1e-12)
    assert float(cg_z) == pytest.approx(-0.7909090909090909, abs=1e-12)


def test_magnetic_torque_stays_perpendicular_to_the_field(spin_result):
    """A physical-fidelity de-tumble keeps tau . B at machine zero on every
    step, and stored wheel momentum never leaves its envelope anywhere.

    Physical allocation can only realize the torque component perpendicular
    to the local field, so this run is slower than the calibrated ideal
    model the timing ladder gates -- the assertions here are the actuator
    invariants over the full-length record, plus evidence the law actually
    worked (the tumble must shed at least 95% of its initial rate).
    """
    r = run_scenario_metrics(default_scenario(
        "detumble", name="detumble-physical", fidelity=Fidelity.PHYSICAL))
    assert r.steps == round(r.duration_s / r.dt_s)
    assert r.max_tau_b_alignment is not None
    assert r.max_tau_b_alignment <= 1e-12
    w0 = 35 * RPM_TO_RADPS * math.sqrt(3.0)
    assert r.final_speed_radps < 0.05 * w0
    limit = default_limits().max_wheel_momentum_nms
    assert r.max_wheel_momentum_nms <= limit * (1.0 + 1e-12)
    assert spin_result.max_wheel_momentum_nms <= limit * (1.0 + 1e-12)


def test_spin_convergence_survives_any_regolith_placement():
    """Spin-up still settles (5% band, 30 s) with the payload mass at every
    chamber corner and at 100 seeded random placements."""
    chamber = bundled_catalog().chamber
    corners = [Vec3(x, y, z)
               for x in chamber.x for y in chamber.y for z in chamber.z]
    late = []
    for corner in corners:
        r = run_scenario_metrics(default_scenario(
            "spin", name=f"spin-corner{tuple(corner)}", settle_band=0.05,
            regolith_policy="fixed", regolith_fixed_cm=corner))
        if r.spin_settle_time_s is None or r.spin_settle_time_s > 30.0:
            late.append((tuple(corner), r.spin_settle_time_s))
    for seed in range(100):
        r = run_scenario_metrics(default_scenario(
            "spin", name=f"spin-seed{seed}", settle_band=0.05,
            regolith_policy="sampled", seed=seed))
        if r.spin_settle_time_s is None or r.spin_settle_time_s > 30.0:
            late.append((seed, r.spin_settle_time_s))
    assert not late, f"placements missing the 5%/30 s budget: {late}"


def test_runs_are_bitwise_deterministic():
    """Same scenario, same seed: byte-identical CSV; Monte Carlo results do
    not depend on the worker count."""
    first, _ = run_scenario(default_scenario("spin"))
    second, _ = run_scenario(default_scenario("spin"))
    a, b = io.StringIO(), io.StringIO()
    first.to_csv(a)
    second.to_csv(b)
    assert a.getvalue() == b.getvalue()

    base = default_scenario("spin")
    serial = monte_carlo(base, n_runs=8, seed=5, workers=1)
    pooled = monte_carlo(base, n_runs=8, seed=5, workers=3)
    assert serial.summary == pooled.summary
    assert [r.to_dict() for r in serial.results] == \
        [r.to_dict() for r in pooled.results]
