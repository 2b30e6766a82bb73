"""Span tracing around csrk's public functions, installed from outside.

The tracer replaces each traced function at every module binding that
refers to it (``csrk.legendre.mono_mul`` and ``csrk.verify.mono_mul`` are
the same function bound twice), so calls made inside the package are seen
as well as calls made by the benchmark.  Nothing under ``src/`` changes:
``install`` swaps the bindings in, ``uninstall`` puts the originals back.

Spans are ``(name, start, end, parent, op_id)`` tuples kept in memory.
``Scalar`` arithmetic is far too frequent for one span per call, so the
``exact`` layer is traced by wrappers on ``Scalar``'s arithmetic methods
that count operations and add their time to the enclosing span instead.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  Several functions may share a span name.
FUNCTION_SPANS = [
    ("csrk.legendre", "legendre_monomial", "legendre.legendre_monomial"),
    ("csrk.legendre", "mono_mul", "legendre.mono_mul"),
    ("csrk.legendre", "mono_pow", "legendre.mono_pow"),
    ("csrk.legendre", "mono_int01", "legendre.mono_int01"),
    ("csrk.legendre", "antiderivative", "legendre.antiderivative"),
    ("csrk.legendre", "legendre_table", "legendre.legendre_table"),
    ("csrk.legendre", "monomial_to_legendre", "legendre.monomial_to_legendre"),
    ("csrk.legendre", "eval_legendre", "legendre.eval_legendre"),
    ("csrk.legendre", "xi", "legendre.xi"),
    ("csrk.method", "new_method", "method.construct"),
    ("csrk.method", "construct_order_by_order", "method.construct"),
    ("csrk.method", "construct_simplifying", "method.construct"),
    ("csrk.method", "construct_symplectic", "method.construct"),
    ("csrk.method", "construct_symmetric", "method.construct"),
    ("csrk.method", "construct_ep_legendre", "method.construct"),
    ("csrk.method", "construct_ep_general", "method.construct"),
    ("csrk.method", "method_from_json_dict", "method.construct"),
    ("csrk.method", "method_to_json_dict", "method.serialize"),
    ("csrk.verify", "build_property_report", "verify.build_property_report"),
    ("csrk.verify", "check_order_conditions", "verify.check_order_conditions"),
    ("csrk.verify", "order_condition_residuals", "verify.check_order_conditions"),
    ("csrk.verify", "check_simplifying", "verify.check_simplifying"),
    ("csrk.verify", "c_breve_defect", "verify.c_breve_defect"),
    ("csrk.verify", "d_breve_defect", "verify.d_breve_defect"),
    ("csrk.verify", "symplectic_residual", "verify.symplectic_residual"),
    ("csrk.verify", "symmetric_residual", "verify.symmetric_residual"),
    ("csrk.verify", "energy_preserving_residual", "verify.energy_preserving_residual"),
    ("csrk.verify", "stage_contraction_bound", "verify.stage_contraction_bound"),
    ("csrk.verify", "report_to_json_dict", "verify.report_to_json_dict"),
    ("csrk.discretize", "gauss_legendre", "discretize.rule"),
    ("csrk.discretize", "lobatto", "discretize.rule"),
    ("csrk.discretize", "discretize", "discretize.discretize"),
    ("csrk.discretize", "predicted_rk_order", "discretize.predicted_rk_order"),
    ("csrk.discretize", "rk_symplectic_residual", "discretize.rk_symplectic_residual"),
    ("csrk.discretize", "tableau_to_json_dict", "discretize.serialize"),
    ("csrk.discretize", "tableau_from_json_dict", "discretize.serialize"),
    ("csrk.discretize", "tableau_to_csv", "discretize.serialize"),
    ("csrk.integrate", "integrate", "integrate.integrate"),
    ("csrk.integrate", "rk_step", "integrate.rk_step"),
    ("csrk.integrate", "empirical_order", "integrate.empirical_order"),
    ("csrk.integrate", "energy_drift", "integrate.diagnostics"),
    ("csrk.integrate", "invariant_drift", "integrate.diagnostics"),
    ("csrk.integrate", "symmetry_residual", "integrate.diagnostics"),
    ("csrk.integrate", "symplecticity_residual", "integrate.diagnostics"),
    ("csrk.integrate", "trajectory_to_csv", "integrate.serialize"),
    ("csrk.integrate", "builtin_problem", "integrate.problem_setup"),
    ("csrk.cli", "main", "cli.main"),
    ("csrk.cli", "cmd_construct", "cli.construct"),
    ("csrk.cli", "cmd_verify", "cli.verify"),
    ("csrk.cli", "cmd_discretize", "cli.discretize"),
    ("csrk.cli", "cmd_integrate", "cli.integrate"),
    ("csrk.cli", "cmd_convergence", "cli.convergence"),
]

# (module, class, attribute, span name) for methods.
METHOD_SPANS = [
    ("csrk.legendre", "UnivariatePoly", "to_monomial", "legendre.to_monomial"),
    ("csrk.legendre", "UnivariatePoly", "from_monomial", "legendre.from_monomial"),
    ("csrk.method", "CsrkMethod", "__post_init__", "method.validate"),
]

# Scalar methods counted as exact-field operations, and those counted as
# zero tests instead.
SCALAR_OPS = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__", "sign", "__float__",
]
SCALAR_ZERO_TESTS = ["__eq__", "__bool__"]

PACKAGE_MODULES = [
    "csrk", "csrk.exact", "csrk.legendre", "csrk.method", "csrk.verify",
    "csrk.discretize", "csrk.integrate", "csrk.cli",
]


class Tracer:
    """Collects spans and exact-field counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.exact_in_span: dict[int, float] = defaultdict(float)
        self.op_id = None
        self._stack: list[int] = []
        self._exact_depth = 0
        self._saved: list = []
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero the counters (spans are kept)."""
        self.exact_ops = 0
        self.exact_zero_tests = 0
        self.exact_time = 0.0
        self.exact_outside = 0.0  # exact time with no enclosing span
        self.max_radicals = 0
        self.max_int_bits = 0
        self.stage_solves = 0
        self.stage_iters = 0
        self.stage_iters_max = 0

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        return wrapper

    def _scalar_wrapper(self, fn, zero_test):
        scalar_cls = sys.modules["csrk.exact"].Scalar

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._exact_depth:
                return fn(*args, **kwargs)
            self._exact_depth = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._exact_depth = 0
            self.exact_time += elapsed
            if self._stack:
                self.exact_in_span[self._stack[-1]] += elapsed
            else:
                self.exact_outside += elapsed
            if zero_test:
                self.exact_zero_tests += 1
            else:
                self.exact_ops += 1
                if type(result) is scalar_cls:
                    terms = result._terms
                    if len(terms) > self.max_radicals:
                        self.max_radicals = len(terms)
                    for q in terms.values():
                        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
                        if bits > self.max_int_bits:
                            self.max_int_bits = bits
            return result

        return wrapper

    def _solve_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            u, iters = fn(*args, **kwargs)
            self.stage_solves += 1
            self.stage_iters += iters
            self.stage_iters_max = max(self.stage_iters_max, iters)
            return u, iters

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _swap(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[m] for m in PACKAGE_MODULES if m in sys.modules]
        for mod_name, attr, span in FUNCTION_SPANS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            target = getattr(mod, attr)
            wrapped = self._span_wrapper(span, target)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is target:
                        self._swap(module, name, wrapped)
        for mod_name, cls_name, attr, span in METHOD_SPANS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._span_wrapper(span, raw.__func__))
            else:
                new = self._span_wrapper(span, raw)
            self._swap(cls, attr, new)
        scalar_cls = sys.modules["csrk.exact"].Scalar
        for attr in SCALAR_OPS + SCALAR_ZERO_TESTS:
            self._swap(
                scalar_cls,
                attr,
                self._scalar_wrapper(scalar_cls.__dict__[attr], attr in SCALAR_ZERO_TESTS),
            )
        integ = sys.modules.get("csrk.integrate")
        if integ is not None:
            self._swap(integ, "_solve_stages", self._solve_counter(integ._solve_stages))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def self_times(self, op_ids=None) -> dict[str, list[float]]:
        """Per span name: [calls, self seconds], over spans of the given ops.

        A span's self time is its duration minus its child spans and minus
        the exact-field time spent directly inside it.
        """
        child = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for idx, span in enumerate(self.spans):
            if span is None or (op_ids is not None and span[4] not in op_ids):
                continue
            entry = out[span[0]]
            entry[0] += 1
            entry[1] += span[2] - span[1] - child[idx] - self.exact_in_span.get(idx, 0.0)
        return out

    def covered_time(self, op_ids) -> float:
        """Wall time covered by the root spans of the given ops."""
        return sum(s[2] - s[1] for s in self.spans if s and s[4] in op_ids and s[3] < 0)

    def export(self) -> dict:
        """Spans and exact-field counters as plain JSON data."""
        return {
            "spans": [s for s in self.spans if s is not None],
            "exact_in_span": sorted(self.exact_in_span.items()),
            "counters": self.counters(),
        }

    def merge(self, data: dict, op_id) -> None:
        """Add what a child process's tracer exported, re-indexing its spans."""
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, op_id))
        for idx, t in data["exact_in_span"]:
            self.exact_in_span[idx + base] += t
        c = data["counters"]
        self.exact_ops += c["exact_ops"]
        self.exact_zero_tests += c["exact_zero_tests"]
        self.exact_time += c["exact_time"]
        self.exact_outside += c["exact_outside"]
        self.max_radicals = max(self.max_radicals, c["max_radicals"])
        self.max_int_bits = max(self.max_int_bits, c["max_int_bits"])
        self.stage_solves += c["stage_solves"]
        self.stage_iters += c["stage_iters"]
        self.stage_iters_max = max(self.stage_iters_max, c["stage_iters_max"])

    def counters(self) -> dict:
        return {
            "exact_ops": self.exact_ops,
            "exact_zero_tests": self.exact_zero_tests,
            "exact_time": self.exact_time,
            "exact_outside": self.exact_outside,
            "max_radicals": self.max_radicals,
            "max_int_bits": self.max_int_bits,
            "stage_solves": self.stage_solves,
            "stage_iters": self.stage_iters,
            "stage_iters_max": self.stage_iters_max,
        }

    def dump(self, path) -> None:
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
