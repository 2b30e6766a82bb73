"""Quadrature rules and the reduction of csRK methods to classical tableaus.

Applying an s-point rule (b_i, c_i) to a continuous-stage method yields the
s-stage Runge-Kutta tableau a_ij = b_j * A(c_i, c_j), weights b_i * B(c_i),
nodes c_i.  Nodes and weights are algebraic irrationals, so everything in
this module is double precision by design; exactness stops at the csRK
coefficient level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .method import CsrkMethod
from .verify import check_simplifying, order_bound

__all__ = [
    "Quadrature",
    "ButcherTableau",
    "gauss_legendre",
    "lobatto",
    "quadrature_order",
    "discretize",
    "predicted_rk_order",
    "rk_symplectic_residual",
    "explicit_euler",
    "tableau_to_json_dict",
    "tableau_from_json_dict",
    "tableau_to_csv",
    "tableau_from_csv",
]


@dataclass(frozen=True)
class Quadrature:
    """Nodes and weights on [0, 1] with a certified order."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    name: str = ""

    def __post_init__(self):
        nodes = np.asarray(self.nodes, float)
        weights = np.asarray(self.weights, float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching vectors")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(nodes < 0) or np.any(nodes > 1):
            raise ValueError("nodes must lie in [0, 1]")
        if abs(weights.sum() - 1.0) > 1e-14:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        if quadrature_order(self, self.order) < self.order:
            raise ValueError(f"rule does not reach its claimed order {self.order}")

    @property
    def stages(self) -> int:
        return len(self.nodes)


def gauss_legendre(s: int) -> Quadrature:
    """Gauss-Legendre rule on [0, 1]: s nodes, order 2s."""
    if not 1 <= s <= 20:
        raise ValueError(f"stage count must be in 1..20, got {s}")
    x, w = np.polynomial.legendre.leggauss(s)
    return Quadrature((x + 1) / 2, w / 2, 2 * s, f"gauss-legendre({s})")


def lobatto(s: int) -> Quadrature:
    """Lobatto rule on [0, 1]: s nodes including both endpoints, order 2s - 2."""
    if not 2 <= s <= 20:
        raise ValueError(f"Lobatto needs 2..20 stages, got {s}")
    # interior nodes: roots of the derivative of the (s-1)-degree Legendre poly
    coeffs = np.zeros(s)
    coeffs[-1] = 1.0
    interior = np.polynomial.legendre.legroots(np.polynomial.legendre.legder(coeffs))
    x = np.concatenate([[-1.0], interior, [1.0]])
    pvals = np.polynomial.legendre.legval(x, coeffs)
    w = 2.0 / (s * (s - 1) * pvals**2)
    return Quadrature((x + 1) / 2, w / 2, 2 * s - 2, f"lobatto({s})")


def quadrature_order(q: Quadrature, cap: int = 40) -> int:
    """Largest p <= cap with exact moments sum b c^(k-1) = 1/k for k <= p."""
    p = 0
    for k in range(1, cap + 1):
        if abs(float(q.weights @ q.nodes ** (k - 1)) - 1.0 / k) > 1e-12:
            break
        p = k
    return p


@dataclass(frozen=True)
class ButcherTableau:
    """Classical s-stage Runge-Kutta coefficients."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        a = np.asarray(self.a, float)
        b = np.asarray(self.b, float)
        c = np.asarray(self.c, float)
        if a.shape != (b.size, b.size) or c.shape != b.shape:
            raise ValueError("inconsistent tableau dimensions")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("non-finite tableau coefficient")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def stages(self) -> int:
        return len(self.b)


def discretize(m: CsrkMethod, q: Quadrature) -> ButcherTableau:
    """Reduce a continuous-stage method to the s-stage tableau of the rule."""
    a_vals = m.eval_A_grid(q.nodes, q.nodes)
    a = a_vals * q.weights[None, :]
    bhat = q.weights * m.B(q.nodes)
    provenance = f"{m.label or 'csrk'} @ {q.name or 'custom-rule'}"
    return ButcherTableau(a, bhat, q.nodes.copy(), provenance)


def predicted_rk_order(m: CsrkMethod, q: Quadrature) -> int:
    """Order lower bound of the discretized method.

    min(p, 2*alpha + 2, alpha + beta + 1) with alpha = min(eta, p - deg_sigma)
    and beta = min(zeta, p - deg_tau); requires B = 1 and C = tau.
    """
    if not (m.is_b_one() and m.is_c_tau()):
        raise ValueError("order prediction requires B = 1 and C = tau")
    levels = check_simplifying(m)
    p = q.order
    alpha = min(levels.eta, p - m.pi_sigma)
    beta = min(levels.zeta, p - m.pi_tau)
    return max(order_bound(p, alpha, beta), 0)


def rk_symplectic_residual(t: ButcherTableau) -> float:
    """max_ij |b_i a_ij + b_j a_ji - b_i b_j| for the discretized tableau."""
    ba = t.b[:, None] * t.a
    return float(np.max(np.abs(ba + ba.T - np.outer(t.b, t.b))))


def explicit_euler() -> ButcherTableau:
    """The forward Euler tableau (negative control for the geometric tests)."""
    return ButcherTableau(np.zeros((1, 1)), np.ones(1), np.zeros(1), "explicit-euler")


# -- serialization -----------------------------------------------------------


def tableau_to_json_dict(t: ButcherTableau) -> dict:
    return {
        "s": t.stages,
        "c": t.c.tolist(),
        "b": t.b.tolist(),
        "a": t.a.tolist(),
        "provenance": t.provenance,
    }


def tableau_from_json_dict(data) -> ButcherTableau:
    try:
        a = np.asarray(data["a"], float)
        b = np.asarray(data["b"], float)
        c = np.asarray(data["c"], float)
        if int(data.get("s", len(b))) != len(b):
            raise ValueError("stage count does not match weights")
        return ButcherTableau(a, b, c, str(data.get("provenance", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tableau JSON: {exc}") from exc


def _csv_header(stages: int) -> list[str]:
    return ["c", "b"] + [f"a{j + 1}" for j in range(stages)]


def tableau_to_csv(t: ButcherTableau) -> str:
    """One row per stage: c_i, b_i, a_i1..a_is (shortest round-trip decimals)."""
    lines = [",".join(_csv_header(t.stages))]
    for i in range(t.stages):
        row = [repr(float(t.c[i])), repr(float(t.b[i]))]
        row += [repr(float(v)) for v in t.a[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def tableau_from_csv(text: str) -> ButcherTableau:
    """Read tableau_to_csv's format; anything else raises ValueError."""
    lines = text.strip().splitlines()
    s = len(lines) - 1
    try:
        if s < 1 or lines[0].split(",") != _csv_header(s):
            header = ",".join(_csv_header(max(s, 1)))
            raise ValueError(f"expected the header {header} and one row per stage")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if rows.shape != (s, s + 2):
            raise ValueError(f"expected {s} rows of {s + 2} numbers")
        return ButcherTableau(rows[:, 2:], rows[:, 1], rows[:, 0])
    except ValueError as exc:  # also a ragged row, a non-numeric or non-finite cell
        raise ValueError(f"malformed tableau CSV: {exc}") from exc
