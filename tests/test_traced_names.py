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
