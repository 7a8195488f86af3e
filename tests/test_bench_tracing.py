"""The benchmark's tracer finds every function it wraps, and the loop still
calls each of them.

``bench/tracing.py`` wraps each function in its ``TRACED`` table by module
and attribute path, and the traced benchmark smokes fail on a name that no
longer exists.  These tests load the tracer by path and resolve each entry
in the package, so a refactor that moves or renames a traced function fails
here first.  They also trace two short runs and count the calls, so a
refactor that writes a traced layer in place, and so drops its calls from
the per-layer figures, fails here too.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from adcslab import harness
from adcslab.control import Fidelity
from adcslab.harness import default_scenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TRACED = tracing.TRACED


def test_the_table_names_the_functions_refactors_touch():
    attrs = {(module, attr) for _, _, module, attr in TRACED}
    assert {("adcslab.control", "total_control"), ("adcslab.control", "error_state"),
            ("adcslab.environment", "OrbitFrameSample.to_body")} <= attrs


@pytest.mark.parametrize("module, attr", [(m, a) for _, _, m, a in TRACED],
                         ids=[f"{layer}.{fn}" for layer, fn, _, _ in TRACED])
def test_every_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:  # a method, which the tracer patches on its class
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


def _traced_run(scenario):
    with tracing.Tracer() as tracer:  # patches harness.run_scenario, not a copy of it
        telemetry, result = harness.run_scenario(scenario)
    calls = {name: tracer.calls(name) for name in tracing.NAMES}
    return calls, tracer.substeps, len(telemetry), result.steps


def _common_counts(calls, rows, steps):
    """What every run calls: one kernel step per control step, one Euler
    conversion per recorded sample, one refresh (orbit sample, rotation into
    the body, disturbance torques) per second of 0.1 s steps."""
    refreshes = math.ceil(steps / 10)
    assert calls["rigidbody.propagate"] == steps
    assert calls["quatmath.quat_to_euler"] == rows
    assert calls["environment.orbit_frame_sample"] == refreshes
    assert calls["environment.to_body"] == calls["environment.total_disturbance"] == refreshes
    assert calls["environment.propagate_orbit"] > 0
    assert calls["harness.run_scenario"] == calls["harness.assemble"] == 1
    assert calls["massmodel.apply_inertia_floor"] == 1


def test_a_physical_spin_up_calls_every_layer_it_runs():
    calls, substeps, rows, steps = _traced_run(
        default_scenario("spin", duration_s=10.0, fidelity=Fidelity.PHYSICAL))
    assert steps == 100 and rows == steps + 1    # every step, and the end
    _common_counts(calls, rows, steps)
    assert substeps >= steps
    for name in ("quatmath.rotate_orbit_to_body", "control.spin_torques",
                 "control.allocate_magnetorquer", "control.wheel_step"):
        assert calls[name] == steps, name
    assert calls["control.pd_torque"] == calls["control.mode_transition"] == 0


def test_a_conops_run_calls_every_layer_it_runs():
    """At rest, de-tumble hands over to nominal at once; the schedule then
    spins up and de-spins, so both laws and the wheel run."""
    calls, _, rows, steps = _traced_run(default_scenario(
        "conops", omega0_radps=(0.0, 0.0, 0.0), duration_s=10.0, duration_orbits=None,
        fidelity=Fidelity.PHYSICAL, schedule=((2.0, "spin"), (6.0, "despin"))))
    assert steps == 100
    _common_counts(calls, rows, steps)
    for name in ("control.mode_transition", "quatmath.rotate_orbit_to_body",
                 "control.allocate_magnetorquer"):
        assert calls[name] == steps, name
    assert calls["control.pd_torque"] > 0 and calls["control.spin_torques"] > 0
    assert calls["control.pd_torque"] + calls["control.spin_torques"] == steps
    assert calls["control.wheel_step"] == calls["control.spin_torques"]
