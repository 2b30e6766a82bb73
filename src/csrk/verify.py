"""Exact certification of order and geometric properties in coefficient space.

Every certificate here is algebraic: residuals are exact Scalars computed
from the coefficient tensor, and a property "holds" only when its residual
is exactly zero.  Order conditions are checked directly up to order 4; the
moment identities B/C/D deliver a guaranteed lower bound on the order
beyond that.  The step-size contraction bound is the only numerical
(advisory) quantity in the module.

Every certifier reads one form of the method in the unnormalized Legendre
basis L_i = P_i/sqrt(2i+1) of ``legendre``: the tensor, its columns, B, C
and the ladders C**k and B*C**k, grown on demand by exact ``l_mul``
products with no degree cap (rho probes C**19).  The form is cached for
the last method only, so the certifiers of one report and the defects
that follow it share one conversion and one ladder.  Projections onto L_i
are coefficients over 2i+1.  Results are converted back only at the end:
tensors to orthonormal coefficients, the moment-identity defects to
monomial coefficients.

The advisory step-size bound reads the same L form as floats: the L basis
is numpy's Legendre basis on x = 2t - 1 in both variables, so one
``legval`` call gives the sigma-series of A(tau, .) for all tau samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import Scalar
from .legendre import (
    from_l,
    l_derivative,
    l_dot,
    l_mul,
    l_sub,
    l_to_monomial,
    tensor_from_l,
    tensor_to_l,
    to_l,
)
from .method import CsrkMethod, EpSpec

__all__ = [
    "OrderConditionResult",
    "SimplifyingLevels",
    "PropertyReport",
    "check_order_conditions",
    "order_condition_residuals",
    "check_simplifying",
    "c_breve_defect",
    "d_breve_defect",
    "guaranteed_order",
    "order_bound",
    "symplectic_residual",
    "symplectic_defect",
    "symmetric_residual",
    "symmetric_defect",
    "energy_preserving_residual",
    "energy_preserving_defect",
    "check_epm2_condition",
    "stage_contraction_bound",
    "build_property_report",
    "report_to_json_dict",
]

_ZERO = Scalar(0)


def _max_abs(values) -> Scalar:
    """Exact max-norm: zero iff every entry is exactly zero."""
    return max((abs(v) for v in values if v), default=_ZERO)


def _at(seq, i: int) -> Scalar:
    return seq[i] if i < len(seq) else _ZERO


def _columns(a, n: int) -> list[list[Scalar]]:
    """The first n columns of a (ragged) coefficient matrix."""
    return [[_at(row, j) for row in a] for j in range(n)]


def _contract(rows, q) -> list[Scalar]:
    """L coefficients of int_0^1 F(., s) q(s) ds, F given by its rows; all in the L basis."""
    proj = [v * Fraction(1, 2 * j + 1) for j, v in enumerate(q)]
    return [sum((v * w for v, w in zip(row, proj) if v and w), _ZERO) for row in rows]


class _LForm:
    """A method in the L basis: tensor, columns, B, C and the ladders C**k, B*C**k.

    The ladders grow on demand and are kept for the next certifier.
    """

    def __init__(self, m: CsrkMethod):
        self.a = tensor_to_l(m.alpha)
        self.cols = _columns(self.a, m.pi_sigma + 1)
        self.b = tuple(to_l(m.B.coeffs))
        self.c = tuple(to_l(m.C.coeffs))
        self.c_pow = [(Scalar(1),)]
        self.bc_pow = [self.b]

    def power(self, ladder: list, k: int) -> tuple[Scalar, ...]:
        while len(ladder) <= k:
            ladder.append(l_mul(self.c, ladder[-1]))
        return ladder[k]

    def c_breve(self, k: int) -> tuple[Scalar, ...]:
        """L coefficients of int A C^(k-1) dsigma - C^k / k."""
        lhs = _contract(self.a, self.power(self.c_pow, k - 1))
        return l_sub(lhs, [v * Fraction(1, k) for v in self.power(self.c_pow, k)])

    def d_breve(self, k: int) -> tuple[Scalar, ...]:
        """L coefficients of int B C^(k-1) A dtau - B (1 - C^k) / k."""
        lhs = _contract(self.cols, self.power(self.bc_pow, k - 1))
        rhs = l_sub(self.b, self.power(self.bc_pow, k))
        return l_sub(lhs, [v * Fraction(1, k) for v in rhs])


@functools.lru_cache(maxsize=1)
def _l_form(m: CsrkMethod) -> _LForm:
    """The L form of m, shared by the certifiers until another method is certified."""
    return _LForm(m)


# -- order conditions --------------------------------------------------------


@dataclass(frozen=True)
class OrderConditionResult:
    order: int
    residuals: dict[int, Scalar]

    def holds(self, condition: int) -> bool:
        return not self.residuals[condition]


def order_condition_residuals(m: CsrkMethod) -> dict[int, Scalar]:
    """Residuals of the eight order conditions, exactly.

    The defining integrals are evaluated in the L basis, where
    int L_i L_j = delta_ij / (2i+1); for B = 1, C = tau they reduce to the
    paper's coefficient relations (4), (6), (7) and (8).
    """
    f = _l_form(m)
    b, c = f.b, f.c
    bc, cc = f.power(f.bc_pow, 1), f.power(f.c_pow, 2)
    left = _contract(f.cols, b)  # int B(t) A(t, s) dt
    return {
        1: (b[0] if b else _ZERO) - 1,
        2: l_dot(b, c) - Fraction(1, 2),
        3: l_dot(bc, c) - Fraction(1, 3),
        4: l_dot(left, c) - Fraction(1, 6),
        5: l_dot(bc, cc) - Fraction(1, 4),
        6: l_dot(_contract(f.cols, bc), c) - Fraction(1, 8),
        7: l_dot(left, cc) - Fraction(1, 12),
        8: l_dot(left, _contract(f.a, c)) - Fraction(1, 24),
    }


_CONDITIONS_BY_ORDER = {1: (1,), 2: (1, 2), 3: (1, 2, 3, 4), 4: tuple(range(1, 9))}


def check_order_conditions(m: CsrkMethod) -> OrderConditionResult:
    """Largest directly verified order in 0..4 plus per-condition residuals."""
    residuals = order_condition_residuals(m)
    order = 0
    for p in (1, 2, 3, 4):
        if all(not residuals[c] for c in _CONDITIONS_BY_ORDER[p]):
            order = p
        else:
            break
    return OrderConditionResult(order, residuals)


# -- simplifying assumptions ---------------------------------------------------


@dataclass(frozen=True)
class SimplifyingLevels:
    rho: float  # math.inf when B = 1, C = tau holds (then every level passes)
    eta: int
    zeta: int


def c_breve_defect(m: CsrkMethod, k: int) -> tuple[Scalar, ...]:
    """Monomial coefficients (in tau) of int A C^(k-1) dsigma - C^k / k."""
    return l_to_monomial(_l_form(m).c_breve(k))


def d_breve_defect(m: CsrkMethod, k: int) -> tuple[Scalar, ...]:
    """Monomial coefficients (in sigma) of int B C^(k-1) A dtau - B (1 - C^k) / k."""
    return l_to_monomial(_l_form(m).d_breve(k))


def check_simplifying(m: CsrkMethod, cap: int = 10) -> SimplifyingLevels:
    """Largest levels of the moment identities, checked exactly.

    rho is infinity for B = 1, C = tau (where the weight moments hold at
    every level) and is otherwise probed to 2*cap.
    """
    f = _l_form(m)
    rho: float = 0
    if m.is_b_one() and m.is_c_tau():
        rho = math.inf
    else:
        for k in range(1, 2 * cap + 1):
            if l_dot(f.b, f.power(f.c_pow, k - 1)) != Fraction(1, k):
                break
            rho += 1
    eta = next((k - 1 for k in range(1, cap + 1) if f.c_breve(k)), cap)
    zeta = next((k - 1 for k in range(1, cap + 1) if f.d_breve(k)), cap)
    return SimplifyingLevels(rho, eta, zeta)


def order_bound(rho: float, eta: int, zeta: int) -> int:
    """min(rho, 2*eta + 2, eta + zeta + 1): the order that B(rho), C(eta), D(zeta) guarantee."""
    return int(min(rho, 2 * eta + 2, eta + zeta + 1))


def guaranteed_order(m: CsrkMethod) -> int:
    """Order lower bound from the exact simplifying levels of m."""
    lv = check_simplifying(m)
    return order_bound(lv.rho, lv.eta, lv.zeta)


# -- geometric property residuals ---------------------------------------------


def symplectic_defect(m: CsrkMethod) -> list[list[Scalar]]:
    """Tensor coefficients of B(t)A(t,s) + B(s)A(s,t) - B(t)B(s)."""
    f = _l_form(m)
    b, ncols = f.b, len(f.cols)
    # B(tau) * A(tau, sigma), column by column
    cols = [l_mul(b, col) for col in f.cols]
    n = max(max(len(col) for col in cols), ncols, len(b))

    def t(i: int, j: int) -> Scalar:
        return _at(cols[j], i) if j < ncols else _ZERO

    return tensor_from_l(
        [[t(i, j) + t(j, i) - _at(b, i) * _at(b, j) for j in range(n)] for i in range(n)]
    )


def symplectic_residual(m: CsrkMethod) -> Scalar:
    """Max-norm of the symplectic defect tensor; zero certifies symplecticity."""
    return _max_abs(v for row in symplectic_defect(m) for v in row)


def symmetric_defect(m: CsrkMethod) -> list[list[Scalar]]:
    """Tensor coefficients of A(t,s) + A(1-t,1-s) - B(s).

    Uses the reflection P_i(1-x) = (-1)**i P_i(x).  Requires the first
    weight moment to be 1 (a method of order at least 1).
    """
    if m.B.coeff(0) != 1:
        raise ValueError(
            "symmetry residual requires the weight integral to equal 1 "
            f"(got {m.B.coeff(0)})"
        )
    n = max(m.pi_tau + 1, m.pi_sigma + 1, len(m.B.coeffs))
    out = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sign = 1 if (i + j) % 2 == 0 else -1
            out[i][j] = m.entry(i, j) + sign * m.entry(i, j)
    for j in range(n):
        out[0][j] = out[0][j] - m.B.coeff(j)
    return out


def symmetric_residual(m: CsrkMethod) -> Scalar:
    """Max-norm of the time-reversal defect tensor; zero certifies symmetry."""
    return _max_abs(v for row in symmetric_defect(m) for v in row)


def energy_preserving_defect(
    m: CsrkMethod,
) -> tuple[list[list[Scalar]], tuple[Scalar, ...], tuple[Scalar, ...]]:
    """The three defect arrays of the energy-preservation certificate.

    (1) asymmetry of the tau-derivative of A, (2) coefficients of A(0, .),
    (3) coefficients of A(1, .) - B.
    """
    f = _l_form(m)
    n = max(m.pi_tau, m.pi_sigma, m.B.degree)
    # A column by column, in tau, padded with zero columns up to n + 1
    cols = f.cols + [[_ZERO] * len(f.a)] * (n - m.pi_sigma)
    da = [l_derivative(col) for col in cols]
    asym = tensor_from_l(
        [[_at(da[j], i) - _at(da[i], j) for j in range(n + 1)] for i in range(n + 1)]
    )
    # L_i(0) = (-1)**i and L_i(1) = 1
    at0 = from_l([sum((-v if i % 2 else v for i, v in enumerate(col)), _ZERO) for col in cols])
    at1 = from_l(l_sub([sum(col, _ZERO) for col in cols], f.b))
    return asym, at0, at1


def energy_preserving_residual(m: CsrkMethod) -> tuple[Scalar, Scalar, Scalar]:
    """Max-norms of the three energy-preservation defects; all zero certifies."""
    asym, at0, at1 = energy_preserving_defect(m)
    return (
        _max_abs(v for row in asym for v in row),
        _max_abs(at0),
        _max_abs(at1),
    )


def check_epm2_condition(
    spec: EpSpec, eta: int
) -> tuple[bool, tuple[int, int] | None]:
    """Moment-identity level test for generator-based energy-preserving specs.

    True iff sum_k w_k a_ki a_kj equals delta_ij for i, j < eta and equals 0
    for i < eta, j from eta up to the generators' degree.  On failure the
    first violating index pair is returned.
    """
    if spec.generators is None:
        raise ValueError("generator coefficients are required")
    max_deg = max((g.degree for g in spec.generators), default=0)

    def gram(i: int, j: int) -> Scalar:
        total = _ZERO
        for w, g in zip(spec.omegas, spec.generators):
            total = total + w * g.coeff(i) * g.coeff(j)
        return total

    for i in range(eta):
        for j in range(max_deg + 1):
            target = Scalar(1 if i == j else 0) if j < eta else _ZERO
            if gram(i, j) != target:
                return False, (i, j)
    return True, None


# -- step-size contraction bound (advisory, numerical) -------------------------


def stage_contraction_bound(m: CsrkMethod, lipschitz: float) -> float:
    """Step-size ceiling 1 / (L * max_tau int |A(tau, .)|) for unique stages.

    The sigma-series of A(tau, .) for a batch of tau values comes from one
    ``legval`` of the L form; the inner integral of |A| is that series
    integrated exactly between its real roots in (-1, 1), and the outer
    maximum is taken by dense sampling plus ternary refinement to 1e-6 in
    tau.  Advisory, not a certificate.
    """
    if lipschitz <= 0:
        raise ValueError("the Lipschitz constant must be positive")
    leg = np.polynomial.legendre
    # The L form is in numpy's Legendre basis on x = 2t - 1 in both variables.
    a = np.array(_l_form(m).a or [[0]], dtype=float)

    def g_at(taus) -> list[float]:
        """int_0^1 |A(tau, sigma)| dsigma for each tau, from one sigma-series per tau."""
        out = []
        for series in leg.legval(2.0 * np.asarray(taus) - 1.0, a).T:
            series = leg.legtrim(series, 1e-14 * np.max(np.abs(series)))
            roots = leg.legroots(series)
            breaks = np.sort(roots[(abs(roots.imag) < 1e-9) & (abs(roots.real) < 1 - 2e-12)].real)
            anti = leg.legval(np.concatenate([[-1.0], breaks, [1.0]]), leg.legint(series))
            out.append(float(np.sum(np.abs(np.diff(anti)))) / 2)
        return out

    taus = np.linspace(0.0, 1.0, 65)
    vals = g_at(taus)
    k = int(np.argmax(vals))
    lo = taus[max(k - 1, 0)]
    hi = taus[min(k + 1, len(taus) - 1)]
    best = vals[k]
    while hi - lo > 1e-6:
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        g1, g2 = g_at([m1, m2])
        best = max(best, g1, g2)
        if g1 < g2:
            lo = m1
        else:
            hi = m2
    if best == 0.0:
        return math.inf
    return 1.0 / (lipschitz * best)


# -- aggregate report ----------------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    verified_order_direct: int
    breve_b: float
    breve_c: int
    breve_d: int
    guaranteed_order: int
    symplectic_residual: Scalar
    symmetric_residual: Scalar | None
    ep_residuals: tuple[Scalar, Scalar, Scalar]
    h_bound_per_unit_L: float

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "symplectic": not self.symplectic_residual,
            "symmetric": self.symmetric_residual is not None
            and not self.symmetric_residual,
            "energy_preserving": not any(self.ep_residuals),
        }


def build_property_report(m: CsrkMethod) -> PropertyReport:
    """Run every certifier and collect the results."""
    levels = check_simplifying(m)
    try:
        sym = symmetric_residual(m)
    except ValueError:
        sym = None
    return PropertyReport(
        verified_order_direct=check_order_conditions(m).order,
        breve_b=levels.rho,
        breve_c=levels.eta,
        breve_d=levels.zeta,
        guaranteed_order=order_bound(levels.rho, levels.eta, levels.zeta),
        symplectic_residual=symplectic_residual(m),
        symmetric_residual=sym,
        ep_residuals=energy_preserving_residual(m),
        h_bound_per_unit_L=stage_contraction_bound(m, 1.0),
    )


def report_to_json_dict(r: PropertyReport) -> dict:
    return {
        "verified_order_direct": r.verified_order_direct,
        "breve": {
            "B": "inf" if math.isinf(r.breve_b) else int(r.breve_b),
            "C": r.breve_c,
            "D": r.breve_d,
        },
        "guaranteed_order": r.guaranteed_order,
        "residuals": {
            "symplectic": str(r.symplectic_residual),
            "symmetric": None if r.symmetric_residual is None else str(r.symmetric_residual),
            "energy": [str(v) for v in r.ep_residuals],
        },
        "flags": r.flags,
        "h_bound_per_unit_L": r.h_bound_per_unit_L,
    }
