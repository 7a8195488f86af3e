"""Per-layer tracing of adcslab, installed from outside the package.

A :class:`Tracer` replaces each function listed in :data:`TRACED` with a
timing wrapper, everywhere an ``adcslab`` module holds a reference to it:
the defining module (so calls inside a layer, such as
``orbit_frame_sample`` -> ``propagate_orbit``, are seen) and every module
that imported the name (``harness``, ``cli``, ...).  Two methods are
patched on their class.  Nothing under ``src/`` changes, and leaving the
``with`` block restores every original.

Spans are folded into per-function totals as they close rather than kept
one by one: a tumble round makes over a million ``propagate`` calls, and
storing each span would distort both the timing and the memory of the run.
Self time is a span's duration minus the spans of the wrapped functions
called directly inside it.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (layer, function, module that defines it, attribute path in that module)
TRACED = (
    ("rigidbody", "propagate", "adcslab.rigidbody", "propagate"),
    ("environment", "orbit_frame_sample", "adcslab.environment", "orbit_frame_sample"),
    ("environment", "propagate_orbit", "adcslab.environment", "propagate_orbit"),
    ("environment", "to_body", "adcslab.environment", "OrbitFrameSample.to_body"),
    ("environment", "total_disturbance", "adcslab.environment", "total_disturbance"),
    ("control", "error_state", "adcslab.control", "error_state"),
    ("control", "pd_torque", "adcslab.control", "pd_torque"),
    ("control", "spin_torques", "adcslab.control", "spin_torques"),
    ("control", "allocate_magnetorquer", "adcslab.control", "allocate_magnetorquer"),
    ("control", "wheel_step", "adcslab.control", "wheel_step"),
    ("control", "mode_transition", "adcslab.control", "mode_transition"),
    ("control", "total_control", "adcslab.control", "total_control"),
    ("quatmath", "quat_to_euler", "adcslab.quatmath", "quat_to_euler"),
    ("quatmath", "rotate_orbit_to_body", "adcslab.quatmath", "rotate_orbit_to_body"),
    ("massmodel", "mass_properties", "adcslab.massmodel", "mass_properties"),
    ("massmodel", "apply_inertia_floor", "adcslab.massmodel", "apply_inertia_floor"),
    ("harness", "assemble", "adcslab.harness", "assemble"),
    ("harness", "run_scenario", "adcslab.harness", "run_scenario"),
    ("harness", "monte_carlo", "adcslab.harness", "monte_carlo"),
    ("harness", "write_csv", "adcslab.harness", "Telemetry.write_csv"),
    ("svgplot", "write_plot", "adcslab.svgplot", "write_plot"),
    ("cli", "main", "adcslab.cli", "main"),
)

NAMES = tuple(f"{layer}.{fn}" for layer, fn, _, _ in TRACED)


class Tracer:
    """Counts calls and self time of every function in :data:`TRACED`.

    Use as a context manager around one traced round.
    """

    def __init__(self) -> None:
        # name -> [calls, self time in ns]
        self.stats = {name: [0, 0] for name in NAMES}
        self.substeps = 0
        self.telemetry_rows = 0
        self.csv_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- hooks that derive counts from arguments and results -------------------

    def _after_propagate(self, args, kwargs, result) -> None:
        # propagate(state, J, torque, dt, n_sub=1)
        self.substeps += args[4] if len(args) > 4 else kwargs.get("n_sub", 1)

    def _after_run_scenario(self, args, kwargs, result) -> None:
        self.telemetry_rows += len(result[0])

    def _after_write_csv(self, args, kwargs, result) -> None:
        # Telemetry.write_csv(self, path)
        self.csv_bytes += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns
        after = {
            "rigidbody.propagate": self._after_propagate,
            "harness.run_scenario": self._after_run_scenario,
            "harness.write_csv": self._after_write_csv,
        }.get(name)

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stat[1] += span - stack.pop()
                stat[0] += 1
                if stack:
                    stack[-1] += span
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for _, _, module_name, _ in TRACED:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "adcslab" or n.startswith("adcslab.")]
        for layer, fn_name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            name = f"{layer}.{fn_name}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, holder, key: str, original, wrapper) -> None:
        setattr(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def __exit__(self, *exc) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)
        self._stack.clear()

    def calls(self, name: str) -> int:
        return self.stats[name][0]


def layer_metrics(tracers: list[Tracer], overhead_s: float) -> dict:
    """Per-round figures from one tracer per traced round: name -> (value, unit).

    Counts are those of the first round (the caller checks that every round
    counted the same); times are the mean over the rounds.
    """
    n = len(tracers)
    first = tracers[0]
    out: dict = {}
    for name in NAMES:
        out[f"{name}.calls"] = (first.calls(name), "count")
        out[f"{name}.self_s"] = (sum(t.stats[name][1] for t in tracers) / n / 1e9, "s")
    prop_ns = sum(t.stats["rigidbody.propagate"][1] for t in tracers) / n
    out["rigidbody.substeps"] = (first.substeps, "count")
    out["rigidbody.ns_per_substep"] = (prop_ns / first.substeps if first.substeps else 0.0,
                                       "ns")
    out["harness.telemetry_rows"] = (first.telemetry_rows, "count")
    out["harness.csv_bytes"] = (first.csv_bytes, "bytes")
    for layer in ("control", "environment"):
        names = [m for m in NAMES if m.startswith(layer + ".")]
        total = sum(t.stats[m][1] for t in tracers for m in names)
        out[f"{layer}.self_s"] = (total / n / 1e9, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def counts(tracer: Tracer) -> tuple:
    """Everything a traced round counts; equal rounds give equal tuples."""
    return (tuple(tracer.stats[n][0] for n in NAMES), tracer.substeps,
            tracer.telemetry_rows, tracer.csv_bytes)
