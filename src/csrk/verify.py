"""Exact certification of order and geometric properties in coefficient space.

Every certificate here is algebraic: residuals are exact Scalars computed
from the coefficient tensor, and a property "holds" only when its residual
is exactly zero.  Order conditions are checked directly up to order 4; the
moment identities B/C/D deliver a guaranteed lower bound on the order
beyond that.  The step-size contraction bound is the only numerical
(advisory) quantity in the module.

Products, projections and derivatives run in the unnormalized Legendre
basis L_i = P_i/sqrt(2i+1) of ``legendre``: the tensor, B and C are
converted once per certifier call, projections onto L_i are coefficients
over 2i+1, and products and powers of C are exact ``l_mul`` products
with no degree cap (rho probes C**19).  ``check_simplifying`` builds the powers of C once and shares
them across its levels.  Results are converted back only at the end:
tensors to orthonormal coefficients, the moment-identity defects to
monomial coefficients.
"""

from __future__ import annotations

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
    legendre_monomial,
    legendre_table,
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
    a = tensor_to_l(m.alpha)
    cols = _columns(a, m.pi_sigma + 1)
    b, c = to_l(m.B.coeffs), to_l(m.C.coeffs)
    bc, cc = l_mul(b, c), l_mul(c, c)
    left = _contract(cols, b)  # int B(t) A(t, s) dt
    return {
        1: (b[0] if b else _ZERO) - 1,
        2: l_dot(b, c) - Fraction(1, 2),
        3: l_dot(bc, c) - Fraction(1, 3),
        4: l_dot(left, c) - Fraction(1, 6),
        5: l_dot(bc, cc) - Fraction(1, 4),
        6: l_dot(_contract(cols, bc), c) - Fraction(1, 8),
        7: l_dot(left, cc) - Fraction(1, 12),
        8: l_dot(left, _contract(a, c)) - Fraction(1, 24),
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


class _Moments:
    """A method in the L basis with the ladders C**k and B*C**k, built on demand."""

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


def c_breve_defect(m: CsrkMethod, k: int) -> tuple[Scalar, ...]:
    """Monomial coefficients (in tau) of int A C^(k-1) dsigma - C^k / k."""
    return l_to_monomial(_Moments(m).c_breve(k))


def d_breve_defect(m: CsrkMethod, k: int) -> tuple[Scalar, ...]:
    """Monomial coefficients (in sigma) of int B C^(k-1) A dtau - B (1 - C^k) / k."""
    return l_to_monomial(_Moments(m).d_breve(k))


def check_simplifying(m: CsrkMethod, cap: int = 10) -> SimplifyingLevels:
    """Largest levels of the moment identities, checked exactly.

    rho is infinity for B = 1, C = tau (where the weight moments hold at
    every level) and is otherwise probed to 2*cap.  The powers of C are
    built once and shared by the three levels.
    """
    mom = _Moments(m)
    rho: float = 0
    if m.is_b_one() and m.is_c_tau():
        rho = math.inf
    else:
        for k in range(1, 2 * cap + 1):
            if l_dot(mom.b, mom.power(mom.c_pow, k - 1)) != Fraction(1, k):
                break
            rho += 1
    eta = next((k - 1 for k in range(1, cap + 1) if mom.c_breve(k)), cap)
    zeta = next((k - 1 for k in range(1, cap + 1) if mom.d_breve(k)), cap)
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
    b = to_l(m.B.coeffs)
    ncols = m.pi_sigma + 1
    # B(tau) * A(tau, sigma), column by column
    cols = [l_mul(b, col) for col in _columns(tensor_to_l(m.alpha), ncols)]
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
    n = max(m.pi_tau, m.pi_sigma, m.B.degree)
    cols = _columns(tensor_to_l(m.alpha), n + 1)  # A column by column, in tau
    da = [l_derivative(col) for col in cols]
    asym = tensor_from_l(
        [[_at(da[j], i) - _at(da[i], j) for j in range(n + 1)] for i in range(n + 1)]
    )
    # L_i(0) = (-1)**i and L_i(1) = 1
    at0 = from_l([sum((-v if i % 2 else v for i, v in enumerate(col)), _ZERO) for col in cols])
    at1 = from_l(l_sub([sum(col, _ZERO) for col in cols], to_l(m.B.coeffs)))
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


def _abs_sigma_integral(mono: np.ndarray) -> float:
    """Integral over [0, 1] of |p| for a monomial-coefficient polynomial."""
    mono = np.asarray(mono, float)
    scale = np.max(np.abs(mono)) if mono.size else 0.0
    if scale == 0.0:
        return 0.0
    trimmed = np.trim_zeros(np.where(np.abs(mono) > 1e-14 * scale, mono, 0.0), "b")
    if trimmed.size <= 1:
        return abs(float(trimmed[0])) if trimmed.size else 0.0
    roots = np.roots(trimmed[::-1])
    breaks = sorted(
        float(r.real)
        for r in roots
        if abs(r.imag) < 1e-9 and 1e-12 < r.real < 1 - 1e-12
    )
    anti = np.concatenate([[0.0], trimmed / np.arange(1, trimmed.size + 1)])
    points = [0.0] + breaks + [1.0]
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        total += abs(np.polyval(anti[::-1], b) - np.polyval(anti[::-1], a))
    return total


def stage_contraction_bound(m: CsrkMethod, lipschitz: float) -> float:
    """Step-size ceiling 1 / (L * max_tau int |A(tau, .)|) for unique stages.

    The inner integral of |A| is computed by exact piecewise integration
    between the real roots of the sigma-polynomial; the outer maximum by
    dense sampling plus local refinement to 1e-6 in tau.  Advisory, not a
    certificate.
    """
    if lipschitz <= 0:
        raise ValueError("the Lipschitz constant must be positive")
    nsig = m.pi_sigma
    leg2mono = np.zeros((nsig + 1, nsig + 1))
    for i in range(nsig + 1):
        for k, c in enumerate(legendre_monomial(i)):
            leg2mono[i, k] = float(c)
    alpha_f = m.alpha_floats()

    def g(tau: float) -> float:
        pt = legendre_table(m.pi_tau, np.array([tau]))[:, 0]
        sigma_leg = pt @ alpha_f
        return _abs_sigma_integral(sigma_leg @ leg2mono)

    taus = np.linspace(0.0, 1.0, 65)
    vals = [g(t) for t in taus]
    k = int(np.argmax(vals))
    lo = taus[max(k - 1, 0)]
    hi = taus[min(k + 1, len(taus) - 1)]
    best = vals[k]
    while hi - lo > 1e-6:
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        g1, g2 = g(m1), g(m2)
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
