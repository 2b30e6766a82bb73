"""Every name that the benchmark's tracer binds exists in the package.

``bench/tracer.py`` wraps functions and methods by (module, attribute)
name; a renamed or deleted name would only surface when a traced
benchmark run fails.  The tracer's tables are read from its source with
``ast``, so the benchmark directory is neither imported nor written.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_table(name):
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


FUNCTION_SPANS = _tracer_table("FUNCTION_SPANS")
METHOD_SPANS = _tracer_table("METHOD_SPANS")
SCALAR_OPS = _tracer_table("SCALAR_OPS")
SCALAR_ZERO_TESTS = _tracer_table("SCALAR_ZERO_TESTS")


def test_traced_functions_exist():
    assert FUNCTION_SPANS
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in FUNCTION_SPANS
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert not missing, f"bench/tracer.py traces names the package lacks: {missing}"


def test_traced_methods_exist():
    assert METHOD_SPANS
    missing = [
        f"{module}.{cls}.{attribute}"
        for module, cls, attribute, _ in METHOD_SPANS
        if not callable(getattr(getattr(importlib.import_module(module), cls, None), attribute, None))
    ]
    assert not missing, f"bench/tracer.py traces methods the package lacks: {missing}"


def test_traced_scalar_operations_are_defined_on_scalar():
    # the tracer swaps each entry out of Scalar.__dict__, so an inherited
    # or renamed operator would break a traced run
    from csrk.exact import Scalar

    names = SCALAR_OPS + SCALAR_ZERO_TESTS
    assert "__lt__" in names and "__eq__" in names
    missing = [name for name in names if not callable(Scalar.__dict__.get(name))]
    assert not missing, f"bench/tracer.py swaps Scalar operations it lacks: {missing}"
