#!/usr/bin/env python3
"""Show that every correctness check of the benchmark can fail.

Runs one round of each workload (about a minute in all), confirms that each
check accepts the real output, then feeds it corrupted copies -- a
quaternion scaled off unit norm, a rung's de-tumble time moved out of its
band, a wheel momentum over its limit, conops transitions out of order, and
so on -- and confirms that the check rejects every one.  Exits 0 when all
do, 1 otherwise.

    python3 bench/check_the_checks.py
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
import tracing

SEED = 1
failures: list[str] = []


def expect(label: str, errors: list[str], should_fail: bool) -> None:
    ok = bool(errors) == should_fail
    verdict = "rejected" if errors else "accepted"
    print(f"{'ok ' if ok else 'BAD'} {verdict:8} {label}" + (f": {errors[0]}" if errors else ""))
    if not ok:
        failures.append(label)


def corrupted(obj, edit):
    twin = copy.deepcopy(obj)
    edit(twin)
    return twin


def table_with(table: checks.Table, edit) -> checks.Table:
    values = table.values.copy()
    edit(values)
    return checks.Table(list(table.header), values, list(table.modes))


def tumble_checks(out: Path) -> None:
    wl = run.Tumble(SEED, out)
    ops = wl.run_round()
    lo, hi = wl.RUNGS
    r_lo, r_hi = (op.result for op in ops)
    ref = checks.REFERENCE_DETUMBLE_ORBITS
    expect(f"rung band, real {lo} RPM", checks.check_rung(lo, r_lo), False)
    expect(f"rung band, real {hi} RPM", checks.check_rung(hi, r_hi), False)
    expect("rung band, time moved +60 %",
           checks.check_rung(lo, corrupted(r_lo, lambda d: d.update(
               detumble_time_orbits=1.6 * ref[lo]))), True)
    expect("rung band, time moved -60 %",
           checks.check_rung(hi, corrupted(r_hi, lambda d: d.update(
               detumble_time_orbits=0.4 * ref[hi]))), True)
    expect("rung band, never de-tumbled",
           checks.check_rung(lo, corrupted(r_lo, lambda d: d.update(
               converged=False, detumble_time_orbits=None))), True)
    times = {lo: r_lo["detumble_time_orbits"], hi: r_hi["detumble_time_orbits"]}
    expect("ladder order, real", checks.check_ladder(times), False)
    expect("ladder order, rungs swapped",
           checks.check_ladder({lo: times[hi], hi: times[lo]}), True)
    expect("ladder order, tie", checks.check_ladder({lo: times[lo], hi: times[lo]}), True)

    J = run.harness.assemble(wl.scenarios[0]).inertia
    omegas = run.torque_free_rates(J, hi, wl.CONSERVATION_PERIODS)
    expect(f"conservation, real {hi} RPM", checks.check_conservation(J.matrix, omegas, "real"),
           False)
    w = omegas[-1]
    expect("conservation, last rate scaled by 1 + 1e-4",
           checks.check_conservation(J.matrix, omegas[:-1] + [tuple(1.0001 * c for c in w)],
                                     "scaled"), True)
    expect("conservation, last rate turned 1e-3 rad about x",
           checks.check_conservation(J.matrix, omegas[:-1] + [
               (w[0], w[1] * np.cos(1e-3) - w[2] * np.sin(1e-3),
                w[1] * np.sin(1e-3) + w[2] * np.cos(1e-3))], "turned"), True)


def pointing_checks(out: Path) -> None:
    wl = run.Pointing(SEED, out)
    ops = wl.run_round()
    for op in ops:
        expect(f"exit code, real {op.name}", checks.check_exit(op.exit_code), False)
    expect("exit code 2", checks.check_exit(2), True)
    wl.check_round(ops)
    for op in ops:
        expect(f"all pointing checks, real {op.name}", op.check_errors, False)
    nominal_csv, nominal_json, nominal_svg = wl._paths("nominal")
    conops_csv, conops_json, _ = wl._paths("conops")
    table = checks.read_table(nominal_csv)
    summary = ops[0].result
    conops = ops[1].result
    conops_table = checks.read_table(conops_csv)

    svg = nominal_svg.read_text(encoding="utf-8")
    expect("svg, real", checks.check_svg(svg), False)
    expect("svg, truncated", checks.check_svg(svg[: len(svg) // 2]), True)
    expect("svg, not an svg root", checks.check_svg("<html></html>"), True)

    expect("header, real", checks.check_header(table), False)
    renamed = checks.Table(["time"] + list(table.header[1:]), table.values, table.modes)
    expect("header, first column renamed", checks.check_header(renamed), True)

    expect("quaternion, real", checks.check_quaternions(table), False)

    def scale(v):
        v[7, 1:5] *= 1.0 + 1e-9
    expect("quaternion, row scaled off unit norm by 1e-9",
           checks.check_quaternions(table_with(table, scale)), True)

    def flip(v):
        v[7, 1:5] *= -1.0
    expect("quaternion, row sign flipped", checks.check_quaternions(table_with(table, flip)),
           True)

    expect("euler, real", checks.check_euler(table), False)

    def nudge_roll(v):
        v[11, 8] += 1e-6
    expect("euler, roll moved by 1e-6 deg", checks.check_euler(table_with(table, nudge_roll)),
           True)

    def swap_roll_yaw(v):
        v[11, [8, 10]] = v[11, [10, 8]]
    expect("euler, roll and yaw swapped", checks.check_euler(table_with(table, swap_roll_yaw)),
           True)

    steps, dt = summary["steps"], summary["dt_s"]
    expect("cadence, real", checks.check_cadence(table, steps, dt, wl.CADENCE_S), False)
    dropped = checks.Table(table.header, np.delete(table.values, 5, axis=0),
                           table.modes[:5] + table.modes[6:])
    expect("cadence, a row dropped", checks.check_cadence(dropped, steps, dt, wl.CADENCE_S),
           True)

    def shift_time(v):
        v[5, 0] += 0.1
    expect("cadence, a row 0.1 s late",
           checks.check_cadence(table_with(table, shift_time), steps, dt, wl.CADENCE_S), True)

    expect("align, real nominal",
           checks.check_align(table, summary, wl.ALIGN_TOL_DEG, wl.MAX_ALIGN_ORBITS), False)
    expect("align, real conops",
           checks.check_align(conops_table, conops, wl.ALIGN_TOL_DEG, None), False)
    expect("align, summary time moved one row later",
           checks.check_align(table, corrupted(summary, lambda d: d.update(
               align_time_s=d["align_time_s"] + wl.CADENCE_S)),
               wl.ALIGN_TOL_DEG, wl.MAX_ALIGN_ORBITS), True)

    def late_excursion(v):
        v[-2, 8] = 10.0
    expect("align, a 10 deg excursion near the end",
           checks.check_align(table_with(table, late_excursion), summary, wl.ALIGN_TOL_DEG,
                              wl.MAX_ALIGN_ORBITS), True)
    expect("align, limit set below the real align time",
           checks.check_align(table, summary, wl.ALIGN_TOL_DEG,
                              0.5 * summary["align_time_s"] / summary["orbit_period_s"]), True)

    expect("final row, real", checks.check_final_row(table, summary), False)
    expect("final row, final_q[1] one ulp off",
           checks.check_final_row(table, corrupted(summary, lambda d: d["final_q"].__setitem__(
               1, float(np.nextafter(d["final_q"][1], 2.0))))), True)
    expect("final row, final_omega_radps[2] negated",
           checks.check_final_row(table, corrupted(summary, lambda d: d[
               "final_omega_radps"].__setitem__(2, -d["final_omega_radps"][2] or 1.0))), True)

    expect("transitions, real conops", checks.check_transitions(conops, checks.CONOPS_MODES),
           False)
    expect("transitions, spin and despin swapped",
           checks.check_transitions(corrupted(conops, lambda d: d.update(transitions=[
               d["transitions"][i] for i in (0, 1, 3, 2, 4)])), checks.CONOPS_MODES), True)
    expect("transitions, mode renamed at the same time",
           checks.check_transitions(corrupted(conops, lambda d: d["transitions"][2].__setitem__(
               1, "safe")), checks.CONOPS_MODES), True)
    expect("transitions, final nominal missing",
           checks.check_transitions(corrupted(conops, lambda d: d["transitions"].pop()),
                                    checks.CONOPS_MODES), True)


def spin_mc_checks(out: Path) -> None:
    wl = run.SpinMC(SEED, out)
    ops = wl.run_round()
    real = ops[0].result
    expect(f"member, all {len(ops)} real members",
           [e for op in ops for e in checks.check_member(op.result, wl.chamber,
                                                           wl.wheel_limit)], False)
    member = [
        ("wheel momentum over its limit",
         lambda d: d.update(max_wheel_momentum_nms=1.01 * wl.wheel_limit)),
        ("final wheel momentum over its limit",
         lambda d: d.update(final_wheel_momentum_nms=-1.01 * wl.wheel_limit)),
        ("regolith outside the chamber (x)",
         lambda d: d["regolith_position_cm"].__setitem__(0, wl.chamber["x"][1] + 0.01)),
        ("regolith outside the chamber (z)",
         lambda d: d["regolith_position_cm"].__setitem__(2, wl.chamber["z"][0] - 0.01)),
        ("magnetic torque off perpendicular by 1e-9", lambda d: d.update(max_tau_b_alignment=1e-9)),
        ("settle time over the 30 s budget", lambda d: d.update(spin_settle_time_s=30.1)),
        ("not converged", lambda d: d.update(converged=False, spin_settle_time_s=None)),
        ("diverged", lambda d: d.update(error="state diverged at step 3")),
    ]
    for label, edit in member:
        expect(f"member, {label}",
               checks.check_member(corrupted(real, edit), wl.chamber, wl.wheel_limit), True)

    results = [op.result for op in ops]
    expect("identical, real against itself", checks.check_identical(results, list(results),
                                                                    "same"), False)
    expect("identical, one final rate moved one ulp",
           checks.check_identical(results, corrupted(results, lambda rs: rs[3][
               "final_omega_radps"].__setitem__(0, float(np.nextafter(
                   rs[3]["final_omega_radps"][0], 1.0)))), "ulp"), True)
    expect("identical, a run missing", checks.check_identical(results, results[:-1], "short"),
           True)

    tracer = tracing.Tracer()
    with tracer:
        traced_ops = wl.run_round()
    observed = {name: tracer.calls(name) for name in tracing.NAMES}
    expected = wl.expected_counts(traced_ops)
    expect("trace counts, real", checks.check_trace_counts(observed, expected), False)
    expect("trace counts, one propagate call short",
           checks.check_trace_counts(corrupted(observed, lambda d: d.update({
               "rigidbody.propagate": d["rigidbody.propagate"] - 1})), expected), True)
    expect("trace counts, one telemetry row extra",
           checks.check_trace_counts(corrupted(observed, lambda d: d.update({
               "quatmath.quat_to_euler": d["quatmath.quat_to_euler"] + 1})), expected), True)


def main() -> int:
    (run.BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH / "out") as tmp:
        tmp = Path(tmp)
        spin_mc_checks(tmp)
        pointing_checks(tmp)
        tumble_checks(tmp)
    if failures:
        print(f"{len(failures)} check(s) did not behave: {failures}")
        return 1
    print("every check accepted the real outputs and rejected each corrupted copy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
