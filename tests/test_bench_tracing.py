"""The benchmark's tracer finds every function it wraps.

``bench/tracing.py`` wraps each function in its ``TRACED`` table by module
and attribute path, and the traced benchmark smokes fail on a name that no
longer exists.  This test loads the table by path and resolves each entry
in the package, so a refactor that moves or renames a traced function fails
here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced()


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
