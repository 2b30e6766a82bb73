"""Every name that the benchmark's tracer binds exists in the package.

``bench/tracer.py`` wraps functions and methods by (module, attribute)
name; a renamed or deleted name would only surface when a traced
benchmark run fails.  The tracer's tables, and the names that
``Tracer.install`` swaps directly, are read from its source with ``ast``,
so the benchmark directory is neither imported nor written.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


TREE = ast.parse(TRACER.read_text())


def _tracer_table(name):
    for node in TREE.body:
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


def _direct_swaps():
    """(module, attribute) for each _swap(owner, "attribute", ...) in Tracer.install
    whose owner is a local bound to sys.modules.get("module") or sys.modules["module"]."""
    install = next(
        node for node in ast.walk(TREE)
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    modules = {}
    for node in ast.walk(install):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            value = node.value
            if isinstance(value, ast.Call) and ast.unparse(value.func) == "sys.modules.get":
                key = value.args[0]
            elif isinstance(value, ast.Subscript) and ast.unparse(value.value) == "sys.modules":
                key = value.slice
            else:
                continue
            if isinstance(key, ast.Constant):
                modules[node.targets[0].id] = key.value
    swaps = []
    for node in ast.walk(install):
        if (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) == "self._swap"
            and isinstance(node.args[1], ast.Constant)
        ):
            owner = node.args[0]
            assert isinstance(owner, ast.Name) and owner.id in modules, ast.unparse(node)
            swaps.append((modules[owner.id], node.args[1].value))
    return swaps


def test_directly_swapped_names_exist():
    swaps = _direct_swaps()
    assert ("csrk.integrate", "_solve_stages") in swaps
    missing = [
        f"{module}.{attribute}"
        for module, attribute in swaps
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert not missing, f"bench/tracer.py swaps names the package lacks: {missing}"


def test_solve_stages_returns_stage_values_and_iterations():
    # the tracer's stage counter unpacks (u, iters) from every call
    import numpy as np

    from csrk.discretize import discretize, gauss_legendre
    from csrk.integrate import StepperConfig, _solve_stages, builtin_problem
    from csrk.method import construct_symplectic

    tableau = discretize(construct_symplectic({}), gauss_legendre(2))
    problem = builtin_problem("harmonic")
    u, iters = _solve_stages(tableau, problem, 0.0, problem.z0, 0.1, StepperConfig())
    assert isinstance(u, np.ndarray) and u.shape == (2, 2)
    assert type(iters) is int and iters >= 1
