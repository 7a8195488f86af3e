import io
import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from adcslab import harness
from adcslab.control import ActuatorLimits, Fidelity, Gains, Mode, ModeThresholds, ZeroFieldError
from adcslab.environment import OrbitConfig, orbit_period
from adcslab.harness import (
    MAX_SUBSTEPS,
    ROD_EFFECTIVE_TORQUE_NM,
    SUBSTEP_MAX_PHASE_RAD,
    TELEMETRY_COLUMNS,
    DivergenceError,
    RunResult,
    Scenario,
    _Metrics,
    _telemetry_steps,
    assemble,
    default_limits,
    default_scenario,
    monte_carlo,
    run_scenario,
    run_scenario_metrics,
)
from adcslab.massmodel import (
    MassCatalog,
    MassComponent,
    bundled_catalog,
    inertia_tensor,
    sample_regolith,
)
from adcslab.quatmath import RPM_TO_RADPS, Quat, Vec3, quat_from_euler, vnorm
from adcslab.rigidbody import NonFiniteStateError
from oracles import telemetry_csv_reference, telemetry_from_rows

PERIOD = orbit_period(OrbitConfig())


def _sample(t, w=(0.0, 0.0, 0.0), euler=(0.0, 0.0, 0.0), q=(1.0, 0.0, 0.0, 0.0)):
    """One recorded sample as the named values ``_Metrics.add`` takes."""
    return dict(t=t, q=Quat(*q), omega=Vec3(*w), speed=vnorm(w), euler=euler)


# ------------------------------------------------------------- scenario checks

@pytest.mark.parametrize("bad", [
    dict(mode="tumble"),
    dict(regolith_policy="loose"),
    dict(regolith_policy="fixed"),                      # needs a position
    dict(regolith_policy="sampled"),                    # needs a seed
    dict(dt_s=0.0),
    dict(dt_s=float("nan")),
    dict(duration_s=-5.0),
    dict(duration_orbits=0.0),
    dict(env_update_every_s=0.0),
    dict(telemetry_cadence_s=0.0),
    dict(settle_band=0.0),
    dict(settle_band=1.0),
    dict(align_tolerance_deg=0.0),
    dict(spin_target_rpm=0.0),
    dict(min_principal_inertia_kgm2=0.0),
    dict(mode="spin", schedule=((10.0, "despin"),)),    # schedule outside conops
    dict(mode="conops", schedule=((-1.0, "spin"),)),
    dict(mode="conops", schedule=((10.0, "tumble"),)),
    dict(omega0_radps=Vec3(float("inf"), 0.0, 0.0)),
    dict(mode="spin", wheel_momentum0_nms=1.0),         # past the momentum stop
    dict(wheel_momentum0_nms=-0.011),
    dict(wheel_momentum0_nms=float("nan")),
    dict(q0=Quat(0.0, 0.0, 0.0, 0.0)),
    dict(q0=Quat(float("nan"), 0.0, 0.0, 0.0)),
    dict(q0=Quat(1.0, float("inf"), 0.0, 0.0)),
    dict(sun_inertial=Vec3(0.0, 0.0, 0.0)),
    dict(sun_inertial=Vec3(1.0, float("nan"), 0.0)),
    dict(dipole_tilt_deg=float("nan")),
    dict(dipole_tilt_deg=float("inf")),
    dict(duration_s=float("inf")),
    dict(duration_orbits=float("inf")),
    dict(duration_orbits=float("nan")),
    dict(env_update_every_s=float("inf")),
    dict(telemetry_cadence_s=float("inf")),
    dict(align_tolerance_deg=float("inf")),
    dict(mode="spin", spin_target_rpm=float("inf")),
    dict(min_principal_inertia_kgm2=float("inf")),
    dict(telemetry_cadence_s=0.15),                     # not a whole number of steps
    dict(telemetry_cadence_s=0.25),
    dict(telemetry_cadence_s=0.05),                     # shorter than a step
    dict(env_update_every_s=0.15),                      # not a whole number of steps
    dict(env_update_every_s=0.05),                      # shorter than a step
    dict(seed=-1),
    dict(seed=2.5),
    dict(seed=True),
])
def test_scenario_rejects_bad_inputs(bad):
    with pytest.raises(ValueError):
        Scenario(**bad)


def test_duration_in_orbits_wins():
    s = Scenario(duration_s=10.0, duration_orbits=0.5)
    assert s.resolved_duration_s() == pytest.approx(0.5 * PERIOD, rel=1e-12)


def test_dt_longer_than_run_is_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        Scenario(duration_s=5.0, dt_s=10.0)
    with pytest.raises(ValueError, match="exceeds"):
        Scenario(duration_orbits=1e-4, dt_s=1.0)    # 0.55 s


def test_telemetry_cadence_rules():
    s = Scenario(duration_s=60.0)
    assert _telemetry_steps(s, 60.0) * s.dt_s == s.dt_s     # short run: every step
    assert _telemetry_steps(s, 600.0) * s.dt_s == 1.0       # long run: 1 Hz
    explicit = Scenario(duration_s=60.0, telemetry_cadence_s=0.5)
    assert _telemetry_steps(explicit, 600.0) * explicit.dt_s == 0.5
    coarse = Scenario(mode="safe", dt_s=0.3, duration_s=300.0)  # 1 s rounds to 3 steps
    t = run_scenario(coarse)[0].column("t_s")
    assert _telemetry_steps(coarse, 300.0) * coarse.dt_s == pytest.approx(t[1] - t[0], rel=1e-12)
    assert t[1] - t[0] == pytest.approx(0.9, rel=1e-12)


# ------------------------------------------------------------- assembly

def test_assemble_defaults_to_the_stowed_flight_catalog():
    asm = assemble(Scenario())
    assert asm.catalog.name == bundled_catalog().name
    assert asm.regolith_position_cm == Vec3(0.0, 0.0, 14.0)
    assert asm.cg_m.z == pytest.approx(-0.007909090909090909, rel=1e-12)
    # the exact stack is collinear; the floor makes the z axis propagatable
    assert min(inertia_tensor(asm.catalog).diagonal()) == pytest.approx(0.0, abs=1e-15)
    assert min(asm.inertia.principal_moments) == pytest.approx(5e-3, rel=1e-12)


def test_every_preset_integrates_an_aligned_tensor():
    """The flight stack, with its regolith stowed or on the z axis, has its
    principal axes along the structure axes, so ``propagate`` runs it
    without a change of frame; a catalog edit that tilts the stack would
    lose that path silently."""
    for mode in harness.MODES:
        s = default_scenario(mode)
        J = assemble(s).inertia
        assert J.aligned, mode
        if s.regolith_policy == "stowed":
            assert J.principal_moments == (0.015641505454545453, 0.015641505454545453, 5e-3)


def test_assemble_fixed_regolith_moves_the_payload():
    asm = assemble(Scenario(regolith_policy="fixed", regolith_fixed_cm=Vec3(2.0, -1.0, 4.0)))
    assert asm.regolith_position_cm == Vec3(2.0, -1.0, 4.0)


def test_assemble_rejects_regolith_outside_the_chamber():
    with pytest.raises(ValueError, match="outside the payload chamber"):
        Scenario(regolith_policy="fixed", regolith_fixed_cm=Vec3(10.0, 0.0, 5.0))
    with pytest.raises(ValueError, match="outside the payload chamber"):
        Scenario(regolith_policy="fixed", regolith_fixed_cm=Vec3(100.0, 0.0, 0.0))


def test_placing_regolith_needs_a_regolith_component():
    bare = MassCatalog((MassComponent("bus", 2.0, Vec3(0.0, 0.0, 0.0)),), name="bare")
    for policy in dict(regolith_policy="fixed", regolith_fixed_cm=Vec3(0.0, 0.0, 5.0)), \
            dict(regolith_policy="sampled", seed=1):
        with pytest.raises(ValueError, match="bare has no movable regolith component"):
            Scenario(catalog=bare, **policy)
    assert assemble(Scenario(catalog=bare)).regolith_position_cm is None


def test_assemble_sampled_regolith_is_seeded():
    a = assemble(Scenario(regolith_policy="sampled", seed=7))
    b = assemble(Scenario(regolith_policy="sampled", seed=7))
    c = assemble(Scenario(regolith_policy="sampled", seed=8))
    assert a.regolith_position_cm == b.regolith_position_cm
    assert a.regolith_position_cm != c.regolith_position_cm
    assert bundled_catalog().chamber.contains(a.regolith_position_cm)


def test_assemble_respects_a_custom_floor():
    asm = assemble(Scenario(min_principal_inertia_kgm2=8e-3))
    assert min(asm.inertia.principal_moments) == pytest.approx(8e-3, rel=1e-12)


# ------------------------------------------------------------- closed-loop runs

def test_runs_are_deterministic():
    s = default_scenario("spin")
    tel_a, res_a = run_scenario(s)
    tel_b, res_b = run_scenario(s)
    assert tel_a.values.tobytes() == tel_b.values.tobytes()  # -0.0 and 0.0 differ
    assert tel_a.modes == tel_b.modes
    assert res_a.to_dict() == res_b.to_dict()


def test_safe_mode_coasts_with_actuators_off():
    tel, res = run_scenario(default_scenario("safe"))
    assert res.converged and res.final_mode == "safe"
    assert all(v == 0.0 for v in tel.column("tau_mx_Nm"))
    assert all(v == 0.0 for v in tel.column("tau_rw_Nm"))
    assert set(tel.column("mode")) == {"safe"}
    assert res.final_speed_radps == pytest.approx(RPM_TO_RADPS, rel=1e-4)


def test_telemetry_shape_and_cadence():
    tel, res = run_scenario(default_scenario("spin"))            # 60 s, every step
    assert len(tel) == len(tel.modes) == 601
    assert len(tel.values) == 601 * (len(TELEMETRY_COLUMNS) - 1)  # every column but the mode
    t = tel.column("t_s")
    assert t[0] == 0.0
    assert t[1] - t[0] == pytest.approx(0.1, rel=1e-9)
    assert t[-1] == pytest.approx(60.0, rel=1e-9)

    tel_slow, _ = run_scenario(default_scenario("safe"))         # 600 s, 1 Hz
    assert len(tel_slow) == 601
    assert tel_slow.column("t_s")[1] == pytest.approx(1.0, rel=1e-9)


def test_explicit_telemetry_cadence_override():
    tel, _ = run_scenario(default_scenario("spin", telemetry_cadence_s=0.5))
    assert len(tel) == 121


def test_spin_preset_converges_and_respects_the_wheel():
    res = run_scenario_metrics(default_scenario("spin"))
    assert res.converged
    assert res.spin_settle_time_s is not None and res.spin_settle_time_s < 10.0
    assert res.max_wheel_momentum_nms <= ActuatorLimits().max_wheel_momentum_nms
    assert 5e-4 < res.final_wheel_momentum_nms < 2e-3


def test_conops_walks_the_full_mode_sequence():
    tel, res = run_scenario(default_scenario("conops"))
    labels = [m for _, m in res.transitions]
    assert labels == ["detumble", "nominal", "spin", "despin", "nominal"]
    assert res.converged and res.final_mode == "nominal"
    spin_t = dict((m, t) for t, m in res.transitions)["spin"]
    assert spin_t == pytest.approx(1.5 * PERIOD, abs=1.0)
    assert res.final_speed_radps < 0.01


def test_divergence_reports_step_and_time():
    s = Scenario(mode="detumble", omega0_radps=Vec3(1.0, 0.0, 0.0),
                 gains=Gains(kp=1e20, kd=1e20),
                 limits=ActuatorLimits(max_magnetic_torque_nm=1e30),
                 duration_s=30.0)
    with pytest.raises(DivergenceError, match="diverged at step"):
        run_scenario(s)
    try:
        run_scenario(s)
    except DivergenceError as e:
        assert e.step >= 0 and e.t >= 0.0


def test_a_kernel_divergence_after_step_0_reports_its_step_time_and_cause():
    """Gains near the float range throw the state out of the finite domain
    inside propagate on the second step; the error names that step's start."""
    s = Scenario(mode="detumble", gains=Gains(kp=1e306, kd=1e306),
                 limits=ActuatorLimits(max_magnetic_torque_nm=1e308), duration_s=30.0)
    with pytest.raises(DivergenceError, match=r"from t=0\.1s") as exc:
        run_scenario(s)
    assert (exc.value.step, exc.value.t, exc.value.mode) == (1, 0.1, "detumble")
    assert isinstance(exc.value.__cause__, NonFiniteStateError)


def test_the_loop_clock_is_the_step_count_times_dt():
    """A 600 s safe run ends at exactly 600.0 s; every row sits at k * dt."""
    tel, res = run_scenario(default_scenario("safe"))
    assert tel.column("t_s").tolist() == [k * 0.1 for k in range(0, 6001, 10)]
    assert tel.column("t_s")[-1] == 600.0 == res.duration_s


def test_a_rate_beyond_the_substep_cap_is_a_divergence():
    """Just below MAX_SUBSTEPS * SUBSTEP_MAX_PHASE_RAD / dt the run still
    steps; past it the run stops with a DivergenceError instead of capping
    the count."""
    cap = MAX_SUBSTEPS * SUBSTEP_MAX_PHASE_RAD / 0.1
    edge = Scenario(mode="safe", omega0_radps=Vec3(0.999 * cap, 0.0, 0.0), duration_s=0.2)
    assert run_scenario_metrics(edge).steps == 2
    past = replace(edge, omega0_radps=Vec3(0.0, 1.001 * cap, 0.0))
    with pytest.raises(DivergenceError, match=f"more than {MAX_SUBSTEPS} substeps") as exc:
        run_scenario(past)
    assert (exc.value.step, exc.value.t, exc.value.mode) == (0, 0.0, "safe")


# ------------------------------------------------------------- metrics-only runs

METRICS_ONLY = {
    "detumble": default_scenario("detumble", duration_orbits=None, duration_s=300.0),
    "spin, physical": default_scenario("spin", fidelity=Fidelity.PHYSICAL,
                                       regolith_policy="sampled", seed=11),
    "conops": default_scenario("conops", duration_orbits=None, duration_s=240.0,
                               omega0_radps=Vec3(0.002, -0.001, 0.001),
                               schedule=((60.0, "spin"), (120.0, "despin"))),
}


@pytest.mark.parametrize("name", sorted(METRICS_ONLY))
def test_a_metrics_only_run_reports_what_a_full_run_reports(name):
    s = METRICS_ONLY[name]
    tel, res = run_scenario(s)
    assert len(tel) > 0
    assert run_scenario_metrics(s) == res
    tel_off, res_off = run_scenario(s, telemetry=False)
    assert len(tel_off) == 0 and res_off == res


def test_the_short_conops_run_walks_the_full_mode_sequence():
    """So the parity check above covers every mode the state machine visits."""
    res = run_scenario_metrics(METRICS_ONLY["conops"])
    labels = [m for _, m in res.transitions]
    assert labels == ["detumble", "nominal", "spin", "despin", "nominal"]


def test_the_schedule_takes_the_last_command_for_a_step_and_must_fall_inside_the_run():
    base = METRICS_ONLY["conops"]
    ref = run_scenario_metrics(base)
    assert ref.converged
    shuffled = replace(base, schedule=((120.0, "despin"), (60.0, "safe"), (60.0, "spin")))
    assert run_scenario_metrics(shuffled) == ref
    # 239.9 s is the last step of the 240 s run; 240.0 s would be one past it.
    assert run_scenario_metrics(
        replace(base, schedule=base.schedule + ((239.9, "nominal"),))).converged
    late = run_scenario_metrics(replace(base, schedule=base.schedule + ((240.0, "nominal"),)))
    assert not late.converged and late.transitions == ref.transitions


def test_a_metrics_only_run_keeps_no_rows_in_memory():
    """6,001 rows of a full run take about 0.82 MB traced (16 floats in one
    array and a mode label a row, about 138 B); a metrics-only run keeps none."""
    s = default_scenario("detumble", duration_orbits=None, duration_s=600.0,
                         telemetry_cadence_s=0.1)

    def traced_peak(run):
        tracemalloc.start()
        try:
            out = run(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak

    (tel, _), full_peak = traced_peak(run_scenario)
    assert len(tel) == 6001
    assert full_peak < 1_000_000
    res, peak = traced_peak(run_scenario_metrics)
    assert res.steps == 6000
    assert peak < 100_000


# Rows in which every numeric column takes each special float in turn, and
# the labels cycle through every mode.
_SPECIAL_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1e308,
                   0.1, 1.0 / 3.0, -1.0, 2.5e-21)
_SPECIAL_ROWS = [(*(_SPECIAL_FLOATS[(i + j) % len(_SPECIAL_FLOATS)]
                    for j in range(len(TELEMETRY_COLUMNS) - 1)),
                  list(Mode)[i % len(Mode)].value)
                 for i in range(2 * len(_SPECIAL_FLOATS))]


@pytest.mark.parametrize("rows", [[], _SPECIAL_ROWS[:1], _SPECIAL_ROWS], ids=["0", "1", "all"])
def test_csv_writes_the_text_of_the_row_tuples(rows):
    """Signed zeros, NaN, the infinities, the subnormal and the largest
    floats, and every mode label are written as the row-tuple formatter
    writes them."""
    assert {row[-1] for row in _SPECIAL_ROWS} == {m.value for m in Mode}
    text = io.StringIO()
    telemetry_from_rows(rows).to_csv(text)
    assert text.getvalue() == telemetry_csv_reference(rows)


def test_numpy_initial_state_gives_the_bytes_of_plain_floats():
    """Numpy scalars in the initial state or the regolith position reach
    neither the telemetry nor the summary: the run writes the bytes of the
    same plain floats."""
    def outputs(vector):
        s = default_scenario("safe", duration_s=5.0,
                             q0=Quat(*vector([1.0, 0.2, 0.1, 0.0])),
                             omega0_radps=Vec3(*vector([0.01, 0.02, 0.0])),
                             sun_inertial=Vec3(*vector([1.0, 0.5, 0.0])),
                             wheel_momentum0_nms=vector([2e-4])[0],
                             regolith_policy="fixed",
                             regolith_fixed_cm=Vec3(*vector([0.5, -0.5, 5.0])))
        assert all(type(x) is float for x in (*s.q0, *s.omega0_radps, *s.sun_inertial,
                                               s.wheel_momentum0_nms, *s.regolith_fixed_cm))
        telemetry, result = run_scenario(s)
        csv_text = io.StringIO()
        telemetry.to_csv(csv_text)
        return csv_text.getvalue(), json.dumps(result.to_dict(), indent=2)

    csv_text, summary = outputs(np.array)
    assert "np." not in csv_text and "np." not in summary
    assert (csv_text, summary) == outputs(list)


_SCALAR_FIELDS = ("dt_s", "duration_s", "duration_orbits", "env_update_every_s",
                  "telemetry_cadence_s", "spin_target_rpm", "settle_band", "align_tolerance_deg",
                  "min_principal_inertia_kgm2", "dipole_tilt_deg", "wheel_momentum0_nms")


def _outputs(s: Scenario) -> tuple[str, str]:
    telemetry, result = run_scenario(s)
    csv_text = io.StringIO()
    telemetry.to_csv(csv_text)
    return csv_text.getvalue(), json.dumps(result.to_dict(), indent=2)


def test_numeric_fields_are_stored_as_plain_floats():
    """Numpy scalars and ints in the scalar fields reach neither the
    telemetry nor the summary: a library run writes ``t_s`` as 0.0, 1.0, ...
    as the config path does, and a numpy run the bytes of plain floats."""
    s = Scenario(mode="safe", dt_s=np.float64(0.5), duration_s=np.int64(2),
                 duration_orbits=np.float32(1e-3), env_update_every_s=np.float64(1.0),
                 telemetry_cadence_s=1, spin_target_rpm=np.int32(1), settle_band=np.float64(0.01),
                 align_tolerance_deg=5, min_principal_inertia_kgm2=np.float64(5e-3),
                 dipole_tilt_deg=np.int64(11), wheel_momentum0_nms=np.float64(0.0))
    assert all(type(getattr(s, name)) is float for name in _SCALAR_FIELDS)
    assert Scenario(duration_orbits=None).duration_orbits is None

    ints, _ = _outputs(default_scenario("safe", duration_s=5, dt_s=1))
    assert ints.splitlines()[1].startswith("0.0,") and ints.splitlines()[2].startswith("1.0,")
    numpy_csv, numpy_summary = _outputs(
        default_scenario("safe", duration_s=np.float64(1.0), dt_s=np.float64(0.1)))
    assert numpy_csv.splitlines()[1].startswith("0.0,")
    assert "np." not in numpy_csv and "np." not in numpy_summary
    assert (numpy_csv, numpy_summary) == _outputs(
        default_scenario("safe", duration_s=1.0, dt_s=0.1))


def test_numeric_fields_reject_bools_and_non_numbers():
    optional = ("duration_orbits", "env_update_every_s", "telemetry_cadence_s")
    for name in _SCALAR_FIELDS:
        for bad in (True, np.bool_(False), "0.1", [0.1], 1 + 0j,
                    *(() if name in optional else (None,))):
            with pytest.raises(ValueError, match=name):
                Scenario(**{name: bad})
    for name, size in (("q0", 4), ("omega0_radps", 3), ("sun_inertial", 3)):
        for bad in (True, "0.1", None):
            with pytest.raises(ValueError, match=rf"{name}\[1\]"):
                Scenario(**{name: (1.0, bad, *[0.0] * (size - 2))})


def test_numeric_gains_limits_and_thresholds_give_the_bytes_of_plain_floats():
    """A numpy gain ran the loop on numpy scalars and wrote ``np.float64(...)``
    cells and summary values; an int torque limit wrote a clamped cell as
    ``-1``.  Each is stored as a plain float, so both runs write the bytes of
    the same plain floats."""
    numpy_csv, numpy_summary = _outputs(default_scenario(
        "nominal", duration_orbits=None, duration_s=2.0,
        gains=Gains(kp=np.float64(9e-5), kd=np.float64(9e-3), k1=np.float32(0.5), k2=np.int64(1)),
        thresholds=ModeThresholds(np.float64(0.01), np.float64(1e-3))))
    assert "np." not in numpy_csv and "np." not in numpy_summary
    assert (numpy_csv, numpy_summary) == _outputs(default_scenario(
        "nominal", duration_orbits=None, duration_s=2.0,
        gains=Gains(kp=9e-5, kd=9e-3, k1=float(np.float32(0.5)), k2=1.0),
        thresholds=ModeThresholds(0.01, 1e-3)))

    tumble = dict(duration_s=2.0, omega0_radps=Vec3(200.0, -200.0, 200.0))
    int_csv, int_summary = _outputs(Scenario(limits=ActuatorLimits(max_magnetic_torque_nm=1),
                                             **tumble))
    assert "-1.0," in int_csv and ",-1," not in int_csv
    assert (int_csv, int_summary) == _outputs(
        Scenario(limits=ActuatorLimits(max_magnetic_torque_nm=1.0), **tumble))


def test_run_result_is_json_serializable():
    res = run_scenario_metrics(default_scenario("spin"))
    blob = json.loads(json.dumps(res.to_dict()))
    assert blob["scenario"] == "spin-default"
    assert blob["converged"] is True


def test_run_result_keys_follow_the_field_declarations():
    res = run_scenario_metrics(default_scenario("spin"))
    names = [f.name for f in fields(RunResult)]
    assert names[0] == "scenario_name"
    assert list(res.to_dict()) == ["scenario", *names[1:]]


# ------------------------------------------------------------- metrics

def _fed(samples, **scenario):
    metrics = _Metrics(Scenario(**scenario))
    for sample in samples:
        metrics.add(**sample)
    return metrics


W_SPIN = RPM_TO_RADPS  # the default 1 RPM spin target


def test_detumble_time_finds_the_last_excursion():
    m = _fed([_sample(0.0, w=(0.02, 0.0, 0.0)),
              _sample(1.0, w=(0.015, 0.0, 0.0)),
              _sample(2.0, w=(0.005, 0.0, 0.0)),
              _sample(3.0, w=(0.004, 0.0, 0.0))])
    assert m.hold_times()["detumble_time_s"] == 2.0
    assert m.primary_time() == 2.0


def test_detumble_time_none_until_it_holds():
    m = _fed([_sample(0.0, w=(0.02, 0.0, 0.0)),
              _sample(1.0, w=(0.005, 0.0, 0.0)),
              _sample(2.0, w=(0.02, 0.0, 0.0))])
    assert m.hold_times()["detumble_time_s"] is None
    assert m.post_settle() == (None, None, None)


def test_detumble_time_zero_when_never_outside():
    m = _fed([_sample(0.0, w=(0.001, 0.0, 0.0)), _sample(1.0)])
    assert m.hold_times()["detumble_time_s"] == 0.0


def test_settle_time_tracks_a_spin_target():
    m = _fed([_sample(0.0, w=(0.0, 0.0, 0.0)),
              _sample(1.0, w=(0.9 * W_SPIN, 0.0, 0.0)),
              _sample(2.0, w=(0.999 * W_SPIN, 0.0, 0.0)),
              _sample(3.0, w=(1.001 * W_SPIN, 0.0, 0.0))], mode="spin", settle_band=0.01)
    assert m.hold_times()["spin_settle_time_s"] == 2.0


def test_settle_time_single_axis_ignores_transverse_motion():
    m = _fed([_sample(0.0, w=(0.0, 0.05, 0.0)),
              _sample(1.0, w=(0.999 * W_SPIN, 0.05, 0.0)),
              _sample(2.0, w=(W_SPIN, 0.05, 0.0))], mode="spin", settle_band=0.01)
    assert m.hold_times()["spin_settle_time_s"] == 1.0


def test_align_time_watches_all_three_angles():
    m = _fed([_sample(0.0, euler=(20.0, 0.0, 0.0)),
              _sample(1.0, euler=(2.0, -6.0, 0.0)),
              _sample(2.0, euler=(2.0, -2.0, 1.0)),
              _sample(3.0, euler=(0.5, 0.5, 5.5)),
              _sample(4.0, euler=(0.5, 0.5, 0.5))], mode="nominal", align_tolerance_deg=5.0)
    assert m.hold_times()["align_time_s"] == 4.0


def test_a_late_excursion_restarts_the_post_settle_maxima():
    q_far = (0.8, 0.6, 0.0, 0.0)                    # |q_e| 0.6, body z 73.7 deg off
    q_near = (math.sqrt(1.0 - 0.01 - 0.0004), 0.1, 0.02, 0.0)
    samples = [_sample(0.0, w=(0.02, 0.0, 0.0)),
               _sample(1.0, w=(0.008, 0.0, 0.0), q=q_far),   # holds, then is undone
               _sample(2.0, w=(0.03, 0.0, 0.0)),
               _sample(3.0, w=(0.004, 0.0, 0.0), q=q_near),
               _sample(4.0, w=(0.003, 0.0, 0.0))]
    m = _fed(samples)
    assert m.primary_time() == 3.0
    max_qe, max_speed, max_cone = m.post_settle()
    assert max_qe == pytest.approx(math.sqrt(0.01 + 0.0004), rel=1e-12)
    assert max_speed == pytest.approx(0.004, rel=1e-12)
    r33 = 1.0 - 2.0 * (0.1 ** 2 + 0.02 ** 2)
    assert max_cone == pytest.approx(math.degrees(math.acos(r33)), rel=1e-12)


@pytest.mark.parametrize("mode, wx", [("spin", W_SPIN), ("despin", 5e-4)])
def test_spin_modes_report_no_attitude_maxima(mode, wx):
    """A spin about x sweeps the body through the orbit frame, so spin and
    despin report the post-settle rate but no |q_e| or cone angle."""
    q_swept = (0.0, 1.0, 0.0, 0.0)  # half a turn about x: body z points down
    m = _fed([_sample(0.0, w=(wx, 0.0, 0.0)), _sample(1.0, w=(wx, 0.0, 0.0), q=q_swept)],
             mode=mode)
    assert m.primary_time() == 0.0
    assert m.post_settle() == (None, pytest.approx(wx, rel=1e-12), None)


def test_safe_mode_maxima_cover_every_row():
    m = _fed([_sample(0.0, w=(0.5, 0.0, 0.0)), _sample(1.0, w=(0.1, 0.0, 0.0))], mode="safe")
    assert m.primary_time() == 0.0
    assert m.post_settle()[1] == 0.5


# ------------------------------------------------------------- Monte Carlo

def test_monte_carlo_validates_inputs():
    base = default_scenario("spin")
    with pytest.raises(ValueError):
        monte_carlo(base, 0, seed=1)
    with pytest.raises(ValueError):
        monte_carlo(base, 2, seed=1, vary=("mass",))
    with pytest.raises(ValueError):
        monte_carlo(base, 2, seed=1, vary=("omega",))            # missing range
    with pytest.raises(ValueError, match="seed"):
        monte_carlo(base, 2, seed=-1)


@pytest.mark.parametrize("vary, omega_rpm_range", [
    (("regolith",), (-1.0, 1.0)),             # a range nothing uses
    (("omega",), (math.nan, 1.0)),
    (("omega",), (-1.0, math.nan)),
    (("omega",), (-1e308, 1e308)),            # hi - lo overflows
    (("omega",), (1.0, math.inf)),
    (("omega",), (5.0, 1.0)),                 # reversed
])
def test_monte_carlo_rejects_a_bad_omega_range_before_any_member_runs(vary, omega_rpm_range,
                                                                     monkeypatch):
    def never(s):
        raise AssertionError("a member ran")

    monkeypatch.setattr(harness, "run_scenario_metrics", never)
    with pytest.raises(ValueError, match="omega_rpm_range"):
        monte_carlo(default_scenario("spin"), 2, seed=1, vary=vary,
                    omega_rpm_range=omega_rpm_range)


def test_monte_carlo_accepts_an_omega_range_of_one_rate(monkeypatch):
    started = []
    inner = harness.run_scenario_metrics

    def record(s):
        started.append(s.omega0_radps)
        return inner(s)

    monkeypatch.setattr(harness, "run_scenario_metrics", record)
    monte_carlo(default_scenario("safe", duration_s=1.0), 2, seed=1, vary=("omega",),
                omega_rpm_range=(0.5, 0.5))
    w = 0.5 * RPM_TO_RADPS
    assert started == [Vec3(w, w, w)] * 2


def test_monte_carlo_rejects_fewer_than_one_worker():
    base = default_scenario("safe", duration_s=1.0)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            monte_carlo(base, 1, seed=1, workers=workers)


def test_monte_carlo_is_deterministic_and_worker_independent():
    base = default_scenario("spin")
    one = monte_carlo(base, 4, seed=42, vary=("regolith",), workers=1)
    two = monte_carlo(base, 4, seed=42, vary=("regolith",), workers=2)
    assert [r.to_dict() for r in one.results] == [r.to_dict() for r in two.results]
    assert one.summary == two.summary
    again = monte_carlo(base, 4, seed=42, vary=("regolith",), workers=1)
    assert [r.to_dict() for r in again.results] == [r.to_dict() for r in one.results]


def test_monte_carlo_varies_what_it_is_told_to():
    base = default_scenario("spin")
    mc = monte_carlo(base, 3, seed=5, vary=("regolith",))
    placements = [r.regolith_position_cm for r in mc.results]
    assert len(set(placements)) == 3
    chamber = bundled_catalog().chamber
    assert all(chamber.contains(p) for p in placements)
    assert [r.scenario_name for r in mc.results] == [f"spin-default[{i}]" for i in range(3)]


def test_monte_carlo_and_the_sampled_policy_share_one_regolith_sampler():
    """Run i draws its placement from the (seed, i) generator before the rates;
    policy 'sampled' draws from the generator of the scenario seed."""
    chamber = bundled_catalog().chamber
    mc = monte_carlo(default_scenario("spin", duration_s=1.0), 4, seed=11,
                     vary=("regolith", "omega"), omega_rpm_range=(-1.0, 1.0))
    for i, r in enumerate(mc.results):
        rng = np.random.default_rng(np.random.SeedSequence((11, i)))
        assert r.regolith_position_cm == sample_regolith(chamber, rng)
    sampled = assemble(Scenario(regolith_policy="sampled", seed=5))
    assert sampled.regolith_position_cm == sample_regolith(chamber, np.random.default_rng(5))


def test_monte_carlo_summary_structure():
    mc = monte_carlo(default_scenario("spin"), 3, seed=9, vary=("regolith",))
    assert mc.summary["runs"] == 3
    assert mc.summary["converged"] == 3
    assert mc.summary["diverged"] == 0
    spin = mc.summary["metrics"]["spin_settle_time_s"]
    assert spin["count"] == 3
    assert spin["min"] <= spin["mean"] <= spin["max"]


def test_monte_carlo_reports_divergence_instead_of_raising():
    base = Scenario(mode="detumble", name="runaway",
                    omega0_radps=Vec3(1.0, 0.0, 0.0),
                    gains=Gains(kp=1e20, kd=1e20),
                    limits=ActuatorLimits(max_magnetic_torque_nm=1e30),
                    duration_s=30.0)
    mc = monte_carlo(base, 2, seed=3, vary=())
    assert all(r.error is not None and not r.converged for r in mc.results)
    assert mc.summary["diverged"] == 2
    with pytest.raises(DivergenceError) as diverged:
        run_scenario(base)
    for i, r in enumerate(mc.results):  # what the run reached, not invented values
        assert r.to_dict() == {
            "scenario": f"runaway[{i}]", "mode": "detumble", "final_mode": "detumble",
            "converged": False, "orbit_period_s": PERIOD, "duration_s": 30.0, "dt_s": 0.1,
            "steps": diverged.value.step,
            "detumble_time_s": None, "detumble_time_orbits": None,
            "spin_settle_time_s": None, "despin_time_s": None, "align_time_s": None,
            "final_q": [1.0, 0.0, 0.0, 0.0], "final_omega_radps": [0.0, 0.0, 0.0],
            "final_speed_radps": 0.0, "final_wheel_momentum_nms": 0.0,
            "max_qe_post_settle": None, "max_speed_post_settle_radps": None,
            "max_cone_angle_post_settle_deg": None,
            "magnetic_saturation_steps": 0, "wheel_saturation_steps": 0,
            "max_wheel_momentum_nms": 0.0, "max_tau_b_alignment": None,
            "regolith_position_cm": [0.0, 0.0, 14.0],  # stowed, as a clean run reports
            "transitions": [], "error": str(diverged.value),
        }


def test_monte_carlo_reports_any_member_error_with_its_type(monkeypatch):
    """A member that raises something other than a divergence is reported in
    its result, typed, and the other members are those of a clean batch."""
    base = default_scenario("spin", duration_s=5.0)
    clean = monte_carlo(base, 3, seed=4, vary=("regolith",))
    inner = harness.run_scenario_metrics

    def flaky(s):
        if s.name == "spin-default[1]":
            raise ZeroFieldError("cannot allocate a dipole in a zero magnetic field")
        return inner(s)

    monkeypatch.setattr(harness, "run_scenario_metrics", flaky)
    mc = monte_carlo(base, 3, seed=4, vary=("regolith",))
    failed = mc.results[1]
    assert failed.error == "ZeroFieldError: cannot allocate a dipole in a zero magnetic field"
    assert (failed.scenario_name, failed.mode, failed.final_mode) == (
        "spin-default[1]", "spin", "spin")
    assert (failed.steps, failed.converged) == (0, False)
    assert clean.results[1].regolith_position_cm is not None
    assert failed.regolith_position_cm == clean.results[1].regolith_position_cm
    assert [mc.results[i].to_dict() for i in (0, 2)] == [clean.results[i].to_dict()
                                                          for i in (0, 2)]
    assert (mc.summary["runs"], mc.summary["diverged"]) == (3, 1)
    assert mc.summary["converged"] == clean.results[0].converged + clean.results[2].converged


@pytest.mark.parametrize("placement, expected", [
    (dict(), Vec3(0.0, 0.0, 0.0)),                            # the preset's fixed spot
    (dict(regolith_policy="stowed"), Vec3(0.0, 0.0, 14.0)),
    (dict(regolith_policy="sampled", seed=3),
     sample_regolith(bundled_catalog().chamber, np.random.default_rng(3))),
], ids=["fixed", "stowed", "sampled"])
def test_a_failed_member_reports_the_placement_of_its_clean_run(monkeypatch, placement,
                                                                 expected):
    base = default_scenario("spin", duration_s=2.0, **placement)
    clean = monte_carlo(base, 1, seed=5, vary=()).results[0]

    def broken(s):
        raise ZeroFieldError("cannot allocate a dipole in a zero magnetic field")

    monkeypatch.setattr(harness, "run_scenario_metrics", broken)
    failed = monte_carlo(base, 1, seed=5, vary=()).results[0]
    assert failed.error.startswith("ZeroFieldError") and clean.error is None
    assert failed.regolith_position_cm == clean.regolith_position_cm == expected


# ------------------------------------------------------------- presets

def test_default_scenario_rejects_unknown_modes():
    with pytest.raises(ValueError, match="unknown mode"):
        default_scenario("cruise")


def test_default_presets_match_the_flight_story():
    d = default_scenario("detumble")
    assert d.omega0_radps == Vec3(35 * RPM_TO_RADPS, 35 * RPM_TO_RADPS, 35 * RPM_TO_RADPS)
    assert d.duration_orbits == 9.0
    assert d.limits.max_magnetic_torque_nm == ROD_EFFECTIVE_TORQUE_NM

    n = default_scenario("nominal")
    assert n.q0 == quat_from_euler(90.0, 90.0, 90.0)

    sp = default_scenario("spin")
    assert sp.regolith_policy == "fixed"
    assert sp.regolith_fixed_cm == Vec3(0.0, 0.0, 0.0)
    # Seconds-scale maneuvers see the rods' instantaneous authority, not
    # the orbit-average derate the de-tumble preset carries.
    assert sp.limits == ActuatorLimits()
    assert default_scenario("despin").limits == ActuatorLimits()

    c = default_scenario("conops")
    assert [cmd for _, cmd in c.schedule] == ["spin", "despin"]
    assert vnorm(c.omega0_radps) == pytest.approx(5 * RPM_TO_RADPS * math.sqrt(3.0))


def test_default_scenario_overrides_win():
    s = default_scenario("spin", duration_s=30.0, name="custom")
    assert s.duration_s == 30.0 and s.name == "custom"


def test_default_limits_carry_the_rod_authority():
    assert default_limits().max_magnetic_torque_nm == 2.2e-6


@pytest.mark.parametrize("mode", ["spin", "despin"])
def test_physical_runs_do_not_read_the_magnetic_torque_limit(mode):
    """Physical allocation clamps the dipole, so the rods' torque authority
    in default_limits() changes nothing against ActuatorLimits()."""
    hardware = run_scenario(default_scenario(mode, fidelity=Fidelity.PHYSICAL))
    rods = run_scenario(default_scenario(mode, fidelity=Fidelity.PHYSICAL,
                                         limits=default_limits()))
    assert default_limits() != ActuatorLimits()
    assert rods[1] == hardware[1]
    assert rods[0].values.tobytes() == hardware[0].values.tobytes()
    assert rods[0].modes == hardware[0].modes
