"""Sweep the effective magnetorquer torque clamp against the reference
de-tumble timings.

The rods' usable torque (an orbit-average of m x B through the dipole
geometry) is the one free knob in the de-tumble reproduction; everything
else (gains, step size, environment) is pinned.  This script runs the
30..60 RPM ladder for each candidate clamp and reports where the timings
land relative to the reference values and their +/-40% band.

Usage:
    python3 scripts/detumble_sweep.py --clamps 1.9e-6,2.0e-6,2.1e-6
"""

from __future__ import annotations

import argparse
import time
from concurrent.futures import ProcessPoolExecutor

from adcslab.control import ActuatorLimits
from adcslab.harness import REFERENCE_DETUMBLE_ORBITS, default_scenario, run_scenario_metrics
from adcslab.quatmath import RPM_TO_RADPS, Vec3

DURATION_MARGIN = 1.5  # run each case this much longer than its reference


def sweep_case(clamp: float, rpm: int) -> tuple[int, float | None]:
    w = rpm * RPM_TO_RADPS
    scenario = default_scenario(
        "detumble",
        name=f"detumble-{rpm}rpm",
        omega0_radps=Vec3(w, w, w),
        duration_orbits=DURATION_MARGIN * REFERENCE_DETUMBLE_ORBITS[rpm],
        limits=ActuatorLimits(max_magnetic_torque_nm=clamp),
    )
    result = run_scenario_metrics(scenario)
    return rpm, result.detumble_time_orbits


def run_sweep(clamp: float, workers: int) -> dict[int, float | None]:
    cases = sorted(REFERENCE_DETUMBLE_ORBITS)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = pool.map(sweep_case, [clamp] * len(cases), cases)
    else:
        pairs = (sweep_case(clamp, rpm) for rpm in cases)
    return dict(pairs)


def report(clamp: float, times: dict[int, float | None]) -> None:
    print(f"\nclamp = {clamp:.3g} N·m/axis")
    print(f"{'RPM':>4} {'orbits':>8} {'ref':>6} {'ratio':>6}  band(+/-40%)")
    ok = True
    prev = -1.0
    for rpm in sorted(times):
        t, ref = times[rpm], REFERENCE_DETUMBLE_ORBITS[rpm]
        if t is None:
            print(f"{rpm:>4} {'--':>8} {ref:>6.2f}   did not converge")
            ok = False
            continue
        inside = 0.6 * ref <= t <= 1.4 * ref
        mono = t >= prev
        flag = "" if inside and mono else ("  OUT" if not inside else "  NON-MONO")
        print(f"{rpm:>4} {t:>8.3f} {ref:>6.2f} {t / ref:>6.3f}  "
              f"[{0.6 * ref:.2f}, {1.4 * ref:.2f}]{flag}")
        ok = ok and inside and mono
        prev = t
    t35 = times.get(35)
    if t35 is not None:
        print(f"  35 RPM margin below 6 orbits: {6.0 - t35:+.3f}")
    print(f"  verdict: {'PASS' if ok else 'FAIL'}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clamps", default="1.9e-6,2.0e-6,2.1e-6",
                    help="comma-separated torque clamps to try, N·m per axis")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()

    for clamp in (float(c) for c in args.clamps.split(",")):
        t0 = time.perf_counter()
        times = run_sweep(clamp, args.workers)
        report(clamp, times)
        print(f"  ({time.perf_counter() - t0:.0f} s)")


if __name__ == "__main__":
    main()
