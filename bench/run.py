#!/usr/bin/env python3
"""End-to-end benchmark of adcslab, with a traced run for per-layer figures.

Run from the repository root:

    python3 bench/run.py --workload tumble --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole rounds of the workload's fixed work until
``--seconds`` of them have been measured, checks every output, and prints
the end-to-end metrics, with round and run times at the reference speed of
the core (see ``speed.py``).  ``--trace 1`` alternates untraced and traced rounds
for the same time and prints the per-layer metrics (see ``tracing.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs go to
``bench/out/<workload>/``.  The workloads are described in README.md.
"""

import time

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def process_age_s() -> float:
    """Seconds since this process was created (from /proc), or since this
    module started where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_IMPORT
    return age if 0.0 < age < 3600.0 else time.perf_counter() - _T_IMPORT


def import_program():
    """Import adcslab from this checkout's ``src``, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import adcslab
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import adcslab from {SRC}: {exc}")
    if not Path(adcslab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported adcslab from {adcslab.__file__}, not {SRC}")


import_program()

import numpy as np  # noqa: E402

from adcslab import cli, harness  # noqa: E402
from adcslab.control import Fidelity  # noqa: E402
from adcslab.quatmath import RPM_TO_RADPS, Quat, Vec3  # noqa: E402
from adcslab.rigidbody import AttitudeState, propagate  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from speed import SpeedSampler  # noqa: E402

DT_S = 0.1            # every preset's control step
ENV_EVERY_S = 1.0     # environment refresh period of every preset
SUBSTEP_MAX_PHASE_RAD = 0.1  # the harness's substep rule: <= 0.1 rad per substep,
MAX_SUBSTEPS = 128           # at most 128 substeps


@dataclass
class Op:
    """One scenario run: a ladder rung, a CLI command or a Monte Carlo member."""

    name: str
    result: dict | None = None           # RunResult.to_dict()
    error: str | None = None             # raised, did not converge, exit code != 0
    check_errors: list = field(default_factory=list)
    identity: object = None              # what two runs of the same inputs share
    exit_code: int | None = None         # CLI commands (pointing)
    rows: int = 0                        # telemetry rows written (pointing)
    csv_bytes: int = 0
    span: tuple = (math.nan, math.nan)   # perf_counter at its start and end
    seconds: float = math.nan            # at the reference speed (speed.py)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.check_errors)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _rows_at_cadence(ops: list[Op], cadence_s: float) -> int:
    """Telemetry rows of the runs: one every ``cadence_s`` from t = 0, plus the end."""
    every = round(cadence_s / DT_S)
    return sum(_ceil_div(op.result["steps"], every) + 1 for op in ops)


def _expected_counts(ops: list[Op], rows: int) -> dict:
    """Totals a traced round must reach, from the run results and ``rows``."""
    steps = [op.result["steps"] for op in ops]
    env_every = round(ENV_EVERY_S / DT_S)
    return {
        "rigidbody.propagate": sum(steps),
        "quatmath.quat_to_euler": rows,
        "environment.orbit_frame_sample": sum(_ceil_div(s, env_every) for s in steps),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Tumble:
    """Two rungs of the acceptance de-tumble ladder, each 1.5x its reference
    length, equal-axis rates, ideal actuators, from a seeded attitude.

    30 and 45 RPM start at 6 and 9 substeps per step.  The 60 RPM rung (11)
    would make a round about 25 % longer; a traced run takes two rounds and
    must end within 180 s on a box whose speed varies by 2x between days."""

    RUNGS = (30, 45)
    DURATION_MARGIN = 1.5
    CADENCE_S = 1.0
    CONSERVATION_PERIODS = 1000

    def __init__(self, seed: int, out: Path) -> None:
        rng = np.random.default_rng(seed)
        self.scenarios = []
        for rpm in self.RUNGS:
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            w = rpm * RPM_TO_RADPS
            self.scenarios.append(harness.default_scenario(
                "detumble", name=f"detumble-{rpm}rpm", q0=Quat(*map(float, q)),
                omega0_radps=Vec3(w, w, w),
                duration_orbits=self.DURATION_MARGIN * checks.REFERENCE_DETUMBLE_ORBITS[rpm]))
        harness.run_scenario_metrics(replace(self.scenarios[0], duration_orbits=None,
                                             duration_s=1.0))

    def run_round(self) -> list[Op]:
        ops = []
        for rpm, s in zip(self.RUNGS, self.scenarios):
            t0 = time.perf_counter()
            try:
                result = harness.run_scenario_metrics(s).to_dict()
                error = None
            except Exception as exc:  # any failure of the run is counted, not fatal
                result, error = None, f"{s.name}: {exc!r}"
            ops.append(Op(s.name, result, error, span=(t0, time.perf_counter())))
        return ops

    def check_round(self, ops: list[Op]) -> None:
        times = {}
        for rpm, op in zip(self.RUNGS, ops):
            if op.result is None:
                continue
            op.identity = op.result
            op.check_errors += checks.check_rung(rpm, op.result)
            if not op.result["converged"]:
                op.error = f"{op.name}: did not converge"
            times[rpm] = op.result["detumble_time_orbits"]
        if len(times) == len(self.RUNGS):
            ops[-1].check_errors += checks.check_ladder(times)

    def expected_counts(self, ops: list[Op]) -> dict:
        return _expected_counts(ops, _rows_at_cadence(ops, self.CADENCE_S))

    def final_checks(self, ops: list[Op], tracers) -> list[str]:
        errors = []
        if tracers and not tracers[0].substeps > tracers[0].calls("rigidbody.propagate"):
            errors.append("trace: tumble rungs took no more substeps than steps")
        J = harness.assemble(self.scenarios[0]).inertia
        for rpm in self.RUNGS:
            errors += checks.check_conservation(
                J.matrix, torque_free_rates(J, rpm, self.CONSERVATION_PERIODS),
                f"torque-free {rpm} RPM")
        return errors


def torque_free_rates(J, rpm: float, periods: int) -> list:
    """Body rates of a torque-free equal-axis tumble stepped like the harness
    steps it, one entry per 0.1 s control step over ``periods`` rotations."""
    w = rpm * RPM_TO_RADPS
    state = AttitudeState(Quat(1.0, 0.0, 0.0, 0.0), Vec3(w, w, w), 0.0, 0.0)
    steps = math.ceil(periods * 2.0 * math.pi / (math.sqrt(3.0) * w) / DT_S)
    zero = Vec3(0.0, 0.0, 0.0)
    omegas = [state.omega]
    for _ in range(steps):
        wmag = math.sqrt(sum(c * c for c in state.omega))
        n_sub = 1
        if wmag * DT_S > SUBSTEP_MAX_PHASE_RAD:
            n_sub = min(MAX_SUBSTEPS, math.ceil(wmag * DT_S / SUBSTEP_MAX_PHASE_RAD))
        state = propagate(state, J, zero, DT_S, n_sub)
        omegas.append(state.omega)
    return omegas


class Pointing:
    """``adcslab simulate --mode nominal`` and ``adcslab conops`` in process,
    each with telemetry CSV, summary JSON and SVG plot."""

    CADENCE_S = 1.0
    ALIGN_TOL_DEG = 5.0
    MAX_ALIGN_ORBITS = 3.0

    def __init__(self, seed: int, out: Path) -> None:
        rng = np.random.default_rng(seed)
        euler = ",".join(repr(float(v)) for v in rng.uniform(-90.0, 90.0, 3))
        rates = ",".join(repr(float(v)) for v in rng.uniform(4.0, 5.0, 3))
        self.out = out
        self.commands = {
            "nominal": ["simulate", "--mode", "nominal", f"--q0-euler-deg={euler}"],
            "conops": ["conops", f"--omega0-rpm={rates}"],
        }
        for name, argv in self.commands.items():
            argv += [*self._outputs(name), "--quiet"]
        cli.main(["simulate", "--mode", "safe", "--duration-s", "1",
                  *self._outputs("warmup"), "--quiet"])

    def _paths(self, name: str) -> tuple[Path, Path, Path]:
        return (self.out / f"{name}.csv", self.out / f"{name}.json", self.out / f"{name}.svg")

    def _outputs(self, name: str) -> list[str]:
        csv_path, json_path, svg_path = self._paths(name)
        return ["--out", str(csv_path), "--summary", str(json_path), "--plot", str(svg_path)]

    def run_round(self) -> list[Op]:
        ops = []
        for name, argv in self.commands.items():
            t0 = time.perf_counter()
            code = None
            try:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse exits on a usage error
                    code = exc.code
                error = "; ".join(checks.check_exit(code)) or None
            except Exception as exc:  # any failure of the run is counted, not fatal
                error = repr(exc)
            ops.append(Op(name, None, error, exit_code=code, span=(t0, time.perf_counter())))
        return ops

    def check_round(self, ops: list[Op]) -> None:
        for op in ops:
            if op.error is not None:
                continue
            csv_path, json_path, svg_path = self._paths(op.name)
            summary = json.loads(json_path.read_text(encoding="utf-8"))
            svg = svg_path.read_text(encoding="utf-8")
            table = checks.read_table(csv_path)
            op.result = summary
            op.rows = len(table)
            op.csv_bytes = csv_path.stat().st_size
            op.identity = (summary, _digest(csv_path), _digest(svg_path))
            errs = checks.check_svg(svg) + checks.check_header(table)
            if not errs:
                errs += checks.check_quaternions(table)
                errs += checks.check_euler(table)
                errs += checks.check_cadence(table, summary["steps"], summary["dt_s"],
                                             self.CADENCE_S)
                errs += checks.check_align(table, summary, self.ALIGN_TOL_DEG,
                                           self.MAX_ALIGN_ORBITS)
                errs += checks.check_final_row(table, summary)
                modes = checks.CONOPS_MODES if op.name == "conops" else ("nominal",)
                errs += checks.check_transitions(summary, modes)
            op.check_errors += [f"{op.name}: {e}" for e in errs]

    def expected_counts(self, ops: list[Op]) -> dict:
        counts = _expected_counts(ops, sum(op.rows for op in ops))
        counts["harness.write_csv"] = counts["svgplot.write_plot"] = len(ops)
        counts["cli.main"] = len(ops)
        return counts

    def final_checks(self, ops: list[Op], tracers) -> list[str]:
        if tracers and tracers[0].csv_bytes != sum(op.csv_bytes for op in ops):
            return [f"trace: {tracers[0].csv_bytes} CSV bytes written, files hold "
                    f"{sum(op.csv_bytes for op in ops)}"]
        return []


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SpinMC:
    """``monte_carlo`` of the 60 s spin-up at physical actuator fidelity over
    seeded regolith placements, one process."""

    RUNS = 100
    CADENCE_S = DT_S      # runs up to 120 s record every step
    PARALLEL_SUBSET = 8

    def __init__(self, seed: int, out: Path) -> None:
        self.seed = seed
        self.base = harness.default_scenario("spin", fidelity=Fidelity.PHYSICAL)
        catalog = json.loads((SRC / "adcslab" / "data" / "aosat1_mass_catalog.json")
                             .read_text(encoding="utf-8"))
        self.chamber = catalog["chamber_cm"]
        self.wheel_limit = self.base.limits.max_wheel_momentum_nms
        harness.run_scenario_metrics(replace(self.base, duration_s=1.0))
        # Time each member where monte_carlo's serial path calls it.
        self.spans: list[tuple[float, float]] = []
        inner = harness.run_scenario_metrics

        def timed(s):
            t0 = time.perf_counter()
            try:
                return inner(s)
            finally:
                self.spans.append((t0, time.perf_counter()))

        harness.run_scenario_metrics = timed

    def run_round(self) -> list[Op]:
        self.spans.clear()
        try:
            mc = harness.monte_carlo(self.base, self.RUNS, self.seed, vary=("regolith",),
                                     workers=1)
        except Exception as exc:  # the whole batch failed: every member counts
            return [Op(f"member[{i}]", None, repr(exc)) for i in range(self.RUNS)]
        ops = []
        for r, span in zip(mc.results, self.spans):
            d = r.to_dict()
            ops.append(Op(d["scenario"], d, d["error"], span=span))
        return ops

    def check_round(self, ops: list[Op]) -> None:
        for op in ops:
            if op.result is not None:
                op.identity = op.result
                op.check_errors += checks.check_member(op.result, self.chamber,
                                                       self.wheel_limit)

    def expected_counts(self, ops: list[Op]) -> dict:
        counts = _expected_counts(ops, _rows_at_cadence(ops, self.CADENCE_S))
        counts["harness.monte_carlo"] = 1
        counts["harness.run_scenario"] = counts["harness.assemble"] = len(ops)
        return counts

    def final_checks(self, ops: list[Op], tracers) -> list[str]:
        """A subset again with two worker processes gives the same results."""
        k = self.PARALLEL_SUBSET
        mc = harness.monte_carlo(self.base, k, self.seed, vary=("regolith",), workers=2)
        return checks.check_identical([op.result for op in ops[:k]],
                                      [r.to_dict() for r in mc.results],
                                      f"monte_carlo workers=2 against workers=1, first {k} runs")


WORKLOADS = {"tumble": Tumble, "pointing": Pointing, "spin_mc": SpinMC}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def timed_round(workload, tracer=None) -> tuple[float, float, list[Op]]:
    """Run and check one round.  Return its time at the reference speed
    (see ``speed.py``; nan for a traced round), its plain wall time and its
    runs, each with its own time at the reference speed."""
    if tracer is None:
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            ops = workload.run_round()
            t1 = time.perf_counter()
        reference = sampler.reference_seconds(t0, t1)
        plain = t1 - t0 - sampler.sampled_seconds()
        for op in ops:
            op.seconds = sampler.reference_seconds(*op.span)
    else:
        with tracer:
            t0 = time.perf_counter()
            ops = workload.run_round()
            t1 = time.perf_counter()
        reference, plain = math.nan, t1 - t0
    workload.check_round(ops)
    return reference, plain, ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time: whole rounds run until this much is timed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = BENCH / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out)
    setup_s = process_age_s()

    walls: list[float] = []           # untraced rounds, at the reference speed
    plain_walls: list[float] = []     # untraced rounds, plain wall time
    traced_walls: list[float] = []
    rounds: list[list[Op]] = []
    tracers: list[tracing.Tracer] = []
    errors: list[str] = []
    peak_rss_mb = None
    while True:
        wall, plain, ops = timed_round(workload)
        if peak_rss_mb is None:  # before any check has read an output back
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(wall)
        plain_walls.append(plain)
        rounds.append(ops)
        if args.trace:
            tracer = tracing.Tracer()
            _, plain, ops = timed_round(workload, tracer)
            traced_walls.append(plain)
            rounds.append(ops)
            tracers.append(tracer)
            if not any(op.error for op in ops):  # a failed run has no result to count
                errors += checks.check_trace_counts(
                    {name: tracer.calls(name) for name in tracing.NAMES},
                    workload.expected_counts(ops))
            if tracing.counts(tracer) != tracing.counts(tracers[0]):
                errors.append("trace: two traced rounds counted different work")
        if sum(plain_walls) + sum(traced_walls) >= args.seconds:
            break

    for ops in rounds[1:]:
        errors += checks.check_identical([op.identity for op in rounds[0]],
                                         [op.identity for op in ops],
                                         "a later round against the first")
    errors += workload.final_checks(rounds[-1], tracers)

    all_ops = [op for ops in rounds for op in ops]
    failed = [op for op in all_ops if op.failed]
    for op in failed[:10]:
        print(f"bench: failed {op.name}: {op.error or ''} {op.check_errors}", file=sys.stderr)
    for e in errors:
        print(f"bench: {e}", file=sys.stderr)
    print("bench: rounds at the reference speed " + " ".join(f"{w:.4f}" for w in walls)
          + " s, plain " + " ".join(f"{w:.4f}" for w in plain_walls) + " s", file=sys.stderr)

    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
        layer = tracing.layer_metrics(tracers, overhead)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        (out / f"trace_seed{args.seed}.json").write_text(json.dumps(
            {"untraced_wall_s": plain_walls, "traced_wall_s": traced_walls, "metrics": metrics},
            indent=1) + "\n", encoding="utf-8")
    else:
        times = [op.seconds for op in all_ops if not math.isnan(op.seconds)]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "run_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not errors and not any(op.check_errors for op in all_ops),
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
