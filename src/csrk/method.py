"""Continuous-stage Runge-Kutta methods as Legendre coefficient tensors.

A method is the triple (A, B, C): the bivariate stage coefficient
A(tau, sigma) stored as a matrix alpha with A = sum alpha[i][j] *
P_i(tau) * P_j(sigma), plus the univariate weight polynomial B and node
polynomial C.  Internal consistency (the sigma-average of A equals C) is
validated exactly on every construction.

The construction families fix B = 1 and C = tau, except ep-general,
which derives both B and C from its generators; other general (B, C)
methods can be built through new_method directly.  ep-legendre is
ep-general on the generators P_0..P_{n-1}, for which the derived B is 1
and C is tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .exact import Scalar, ScalarLike, as_scalar
from .legendre import (
    CAP,
    ONE,
    TAU,
    BasisCapExceeded,
    UnivariatePoly,
    _basis_values,
    antiderivative,
    legendre_table,
    xi,
)

__all__ = [
    "ConsistencyViolation",
    "Order4ConstraintViolation",
    "SkewConflict",
    "ParityViolation",
    "CsrkMethod",
    "new_method",
    "construct_order_by_order",
    "construct_simplifying",
    "construct_symplectic",
    "construct_symmetric",
    "EpSpec",
    "EpLegendreResult",
    "EpGeneralResult",
    "construct_ep_legendre",
    "construct_ep_general",
    "method_to_json_dict",
    "method_from_json_dict",
]


class ConsistencyViolation(ValueError):
    """Column 0 of alpha does not reproduce the node polynomial C."""


class Order4ConstraintViolation(ValueError):
    """Free parameters violate the bilinear fourth-order relation."""


class SkewConflict(ValueError):
    """Supplied entries contradict the skew-symmetric coefficient form."""


class ParityViolation(ValueError):
    """Supplied entries break the odd-index-sum requirement."""


_HALF = Scalar(Fraction(1, 2))
_SQRT3_6 = Scalar.sqrt(3, Fraction(1, 6))


def _trim_matrix(rows: list[list[Scalar]]) -> tuple[tuple[Scalar, ...], ...]:
    while rows and not any(rows[-1]):
        rows.pop()
    ncols = 0
    for row in rows:
        n = len(row)
        while n > 0 and not row[n - 1]:
            n -= 1
        ncols = max(ncols, n)
    # ragged rows are padded, so every row spans the columns 0..pi_sigma
    return tuple(tuple(row[:ncols]) + (Scalar(0),) * (ncols - len(row)) for row in rows)


@dataclass(frozen=True)
class CsrkMethod:
    alpha: tuple[tuple[Scalar, ...], ...]
    B: UnivariatePoly
    C: UnivariatePoly
    label: str = ""

    def __post_init__(self):
        rows = [[as_scalar(v) for v in row] for row in self.alpha]
        matrix = _trim_matrix(rows)
        if len(matrix) > CAP + 1 or (matrix and len(matrix[0]) > CAP + 1):
            raise BasisCapExceeded(
                f"coefficient tensor of shape {len(matrix)}x{len(matrix[0])} exceeds cap {CAP}"
            )
        object.__setattr__(self, "alpha", matrix)
        if not isinstance(self.B, UnivariatePoly):
            object.__setattr__(self, "B", UnivariatePoly(self.B))
        if not isinstance(self.C, UnivariatePoly):
            object.__setattr__(self, "C", UnivariatePoly(self.C))
        column0 = UnivariatePoly([row[0] if row else 0 for row in matrix])
        if column0 != self.C:
            raise ConsistencyViolation(
                f"sigma-average of A is {column0!r}, but C is {self.C!r}"
            )

    @property
    def pi_tau(self) -> int:
        return max(len(self.alpha) - 1, 0)

    @property
    def pi_sigma(self) -> int:
        return max((len(self.alpha[0]) - 1) if self.alpha else 0, 0)

    def entry(self, i: int, j: int) -> Scalar:
        if 0 <= i < len(self.alpha) and 0 <= j < len(self.alpha[i]):
            return self.alpha[i][j]
        return Scalar(0)

    def alpha_floats(self) -> np.ndarray:
        return np.array(self.alpha or [[0]], dtype=float)

    def eval_A(self, tau, sigma):
        """A(tau, sigma): exact for exact inputs, double precision otherwise."""
        exact = (Scalar, Fraction, int)
        if isinstance(tau, exact) and isinstance(sigma, exact):
            ptau = _basis_values(self.pi_tau, tau)
            psigma = _basis_values(self.pi_sigma, sigma)
            total = Scalar(0)
            for i, row in enumerate(self.alpha):
                for j, v in enumerate(row):
                    if v:
                        total = total + v * ptau[i] * psigma[j]
            return total
        return float(self.eval_A_grid(np.asarray([tau], float), np.asarray([sigma], float))[0, 0])

    def eval_A_grid(self, taus: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        """Matrix of A values: entry (i, j) = A(taus[i], sigmas[j])."""
        pt = legendre_table(self.pi_tau, np.asarray(taus, float))
        ps = legendre_table(self.pi_sigma, np.asarray(sigmas, float))
        return pt.T @ self.alpha_floats() @ ps

    def is_b_one(self) -> bool:
        return self.B == ONE

    def is_c_tau(self) -> bool:
        return self.C == TAU

    def __repr__(self):
        shape = f"{self.pi_tau + 1}x{self.pi_sigma + 1}"
        return f"CsrkMethod(label={self.label!r}, alpha {shape})"


def new_method(
    alpha: Sequence[Sequence[ScalarLike]],
    B: UnivariatePoly | Sequence[ScalarLike],
    C: UnivariatePoly | Sequence[ScalarLike],
    label: str = "",
) -> CsrkMethod:
    """Validated method from raw coefficients; exact consistency enforced."""
    return CsrkMethod(alpha, B, C, label)


def _entries_to_matrix(entries: Mapping[tuple[int, int], Scalar]) -> list[list[Scalar]]:
    if not entries:
        return [[Scalar(0)]]
    nrows = max(i for i, _ in entries) + 1
    ncols = max(j for _, j in entries) + 1
    rows = [[Scalar(0)] * ncols for _ in range(nrows)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return rows


def _coerce_free(free: Mapping[tuple[int, int], ScalarLike] | None) -> dict[tuple[int, int], Scalar]:
    out: dict[tuple[int, int], Scalar] = {}
    for (i, j), v in (free or {}).items():
        if i < 0 or j < 0:
            raise ValueError(f"negative coefficient index ({i}, {j})")
        if i > CAP or j > CAP:
            raise BasisCapExceeded(f"free entry ({i}, {j}) exceeds basis cap {CAP}")
        out[(int(i), int(j))] = as_scalar(v)
    return out


def construct_order_by_order(
    target_order: int,
    free: Mapping[tuple[int, int], ScalarLike] | None = None,
    label: str | None = None,
) -> CsrkMethod:
    """Method of at least the target order (2, 3 or 4) with B = 1, C = tau.

    Free parameters may sit at any (i, j >= 1); the entries pinned by the
    order requirements override free values at the same positions.  For
    order 4 the remaining bilinear relation sum_{i>=3} a[0,i]*a[i,1] = 0
    is checked and violations are rejected.
    """
    if target_order not in (2, 3, 4):
        raise ValueError(f"target order must be 2, 3 or 4, got {target_order}")
    entries = _coerce_free(free)
    for (i, j) in entries:
        if j == 0:
            raise ValueError(f"free entry ({i}, {j}) sits in the consistency column j = 0")
    entries[(0, 0)] = _HALF
    entries[(1, 0)] = _SQRT3_6
    if target_order >= 3:
        entries[(0, 1)] = -_SQRT3_6
    if target_order == 4:
        entries[(1, 1)] = Scalar(0)
        entries[(0, 2)] = Scalar(0)
        bilinear = Scalar(0)
        for i in range(3, CAP + 1):
            bilinear = bilinear + entries.get((0, i), Scalar(0)) * entries.get(
                (i, 1), Scalar(0)
            )
        if bilinear:
            raise Order4ConstraintViolation(
                f"sum over i>=3 of a[0,i]*a[i,1] must vanish, got {bilinear}"
            )
    return CsrkMethod(
        _entries_to_matrix(entries),
        ONE,
        TAU,
        label or f"order-by-order(p={target_order})",
    )


def construct_simplifying(
    alpha_level: int,
    beta_level: int,
    free: Mapping[tuple[int, int], ScalarLike] | None = None,
    label: str | None = None,
) -> CsrkMethod:
    """Method satisfying the moment identities to levels (alpha, beta).

    Guaranteed order min(2*alpha + 2, alpha + beta + 1).  Free parameters
    are restricted to the region i >= beta, j >= alpha.
    """
    if alpha_level < 1 or beta_level < 1:
        raise ValueError("levels must be >= 1")
    entries = _coerce_free(free)
    for (i, j) in entries:
        if i < beta_level or j < alpha_level:
            raise ValueError(
                f"free entry ({i}, {j}) outside permitted region "
                f"i >= {beta_level}, j >= {alpha_level}"
            )
    n1 = max(alpha_level - 1, beta_level - 2)
    n2 = max(alpha_level - 2, beta_level - 1)
    if max(n1, n2) + 1 > CAP:
        raise BasisCapExceeded("levels exceed basis cap")

    def bump(i: int, j: int, v: Scalar) -> None:
        entries[(i, j)] = entries.get((i, j), Scalar(0)) + v

    bump(0, 0, _HALF)
    for k in range(n1 + 1):
        bump(k + 1, k, xi(k + 1))
    for k in range(n2 + 1):
        bump(k, k + 1, -xi(k + 1))
    return CsrkMethod(
        _entries_to_matrix(entries),
        ONE,
        TAU,
        label or f"simplifying(alpha={alpha_level},beta={beta_level})",
    )


def construct_symplectic(
    skew: Mapping[tuple[int, int], ScalarLike] | None = None,
    label: str | None = None,
) -> CsrkMethod:
    """Symplectic method: a[0,0] = 1/2 and skew-symmetric elsewhere.

    Entries are supplied for i < j only; the mirrored side is derived.
    """
    given = _coerce_free(skew)
    entries: dict[tuple[int, int], Scalar] = {
        (0, 0): _HALF,
        (1, 0): _SQRT3_6,
        (0, 1): -_SQRT3_6,
    }
    for (i, j), v in given.items():
        if i == j:
            if i == 0 or v:
                raise SkewConflict(f"skew-symmetry forces a zero diagonal, got a[{i},{j}] = {v}")
            continue
        if i > j:
            raise SkewConflict(f"supply upper-triangle entries only, got ({i}, {j})")
        if (i, j) == (0, 1):
            if v != -_SQRT3_6:
                raise SkewConflict(
                    f"consistency pins a[0,1] = -sqrt(3)/6, got {v}"
                )
            continue
        entries[(i, j)] = v
        entries[(j, i)] = -v
    return CsrkMethod(_entries_to_matrix(entries), ONE, TAU, label or "symplectic")


def construct_symmetric(
    odd: Mapping[tuple[int, int], ScalarLike] | None = None,
    label: str | None = None,
) -> CsrkMethod:
    """Symmetric method: 1/2 plus terms at odd index sums i + j.

    The consistency entry a[1,0] = sqrt(3)/6 is inserted when absent.
    """
    given = _coerce_free(odd)
    for (i, j) in given:
        if (i + j) % 2 == 0:
            raise ParityViolation(f"index sum of ({i}, {j}) is even")
    entries: dict[tuple[int, int], Scalar] = {(0, 0): _HALF}
    entries.update(given)
    entries.setdefault((1, 0), _SQRT3_6)
    return CsrkMethod(_entries_to_matrix(entries), ONE, TAU, label or "symmetric")


@dataclass(frozen=True)
class EpSpec:
    """Weights (and optional generator polynomials) for the energy-preserving families."""

    omegas: tuple[Scalar, ...]
    generators: tuple[UnivariatePoly, ...] | None = None

    def __post_init__(self):
        omegas = tuple(as_scalar(w) for w in self.omegas)
        if not omegas:
            raise ValueError("at least one weight is required")
        object.__setattr__(self, "omegas", omegas)
        if self.generators is not None:
            gens = tuple(
                g if isinstance(g, UnivariatePoly) else UnivariatePoly(g)
                for g in self.generators
            )
            if len(gens) != len(omegas):
                raise ValueError("one generator per weight is required")
            object.__setattr__(self, "generators", gens)
        elif self.omegas[0] != 1:
            raise ValueError(f"the Legendre family requires omega_0 = 1, got {self.omegas[0]}")

    def omega_at(self, i: int) -> Scalar:
        return self.omegas[i] if i < len(self.omegas) else Scalar(0)


@dataclass(frozen=True)
class EpLegendreResult:
    method: CsrkMethod
    kappa: int
    claimed_order: int
    conjugate_tuned: bool


@dataclass(frozen=True)
class EpGeneralResult:
    method: CsrkMethod
    c_matches_tau: bool


def construct_ep_legendre(
    spec: EpSpec | Sequence[ScalarLike],
    label: str | None = None,
) -> EpLegendreResult:
    """Energy-preserving method from basis weights: A = sum_i w_i * (int P_i) * P_i(sigma).

    Weights beyond the supplied list are taken as zero.  Reports the level
    kappa (first weight differing from 1), the claimed order 2*kappa, and
    whether the conjugate-symplectic tuning relation
    w_k/(2k-1) - w_{k+1}/(2k+1) = 2/(4k^2-1) holds.
    """
    if not isinstance(spec, EpSpec):
        spec = EpSpec(tuple(as_scalar(w) for w in spec))
    if spec.generators is not None:
        raise ValueError("spec carries generators; use construct_ep_general")
    # generators P_0..P_{n-1}: B = omega_0 * P_0 = 1 and C = int P_0 = tau; a zero
    # weight gets the zero generator, so its index is never built or capped
    generators = tuple(
        UnivariatePoly([0] * i + [1] if w else []) for i, w in enumerate(spec.omegas)
    )
    method = construct_ep_general(
        EpSpec(spec.omegas, generators),
        label or f"ep-legendre(omega=[{','.join(str(w) for w in spec.omegas)}])",
    ).method
    kappa = 0
    while spec.omega_at(kappa) == 1:
        kappa += 1
    lhs = spec.omega_at(kappa) / Fraction(2 * kappa - 1) - spec.omega_at(kappa + 1) / Fraction(
        2 * kappa + 1
    )
    tuned = lhs == Scalar(Fraction(2, 4 * kappa * kappa - 1))
    return EpLegendreResult(method, kappa, 2 * kappa, tuned)


def construct_ep_general(
    spec: EpSpec,
    label: str | None = None,
) -> EpGeneralResult:
    """Energy-preserving method from generator polynomials g_i.

    A = sum_i w_i * (integral of g_i)(tau) * g_i(sigma).  The energy
    argument needs the update to equal the stage at tau = 1, so the weight
    polynomial is derived as B = A(1, .) = sum_i w_i * (int_0^1 g_i) * g_i,
    which is not 1 in general.  Since int_0^1 B = sum_i w_i * (int_0^1 g_i)^2,
    the method has order >= 1 only when that sum is 1; the property report
    shows it.  The node polynomial C is derived from consistency and
    compared against tau.
    """
    if spec.generators is None:
        raise ValueError("generator polynomials are required; use construct_ep_legendre")
    entries: dict[tuple[int, int], Scalar] = {}
    b_poly = UnivariatePoly()
    for w, g in zip(spec.omegas, spec.generators):
        if w and g:
            for i, u in enumerate(antiderivative(g).coeffs):
                for j, v in enumerate(g.coeffs):
                    if u and v:
                        entries[(i, j)] = entries.get((i, j), Scalar(0)) + w * u * v
            # int_0^1 g is its P_0 coefficient in the orthonormal basis
            b_poly = b_poly + g * (w * g.coeff(0))
    matrix = _entries_to_matrix(entries)
    c_poly = UnivariatePoly([row[0] for row in matrix])
    method = CsrkMethod(matrix, b_poly, c_poly, label or "ep-general")
    return EpGeneralResult(method, c_poly == TAU)


# -- serialization -----------------------------------------------------------


def method_to_json_dict(m: CsrkMethod) -> dict:
    return {
        "label": m.label,
        "B": [str(c) for c in m.B.coeffs] or ["0"],
        "C": [str(c) for c in m.C.coeffs] or ["0"],
        "alpha": [[str(v) for v in row] for row in m.alpha],
    }


def method_from_json_dict(data: Mapping) -> CsrkMethod:
    try:
        rows, b_strs, c_strs = data["alpha"], data["B"], data["C"]
        if not (isinstance(rows, list) and all(isinstance(v, list) for v in (b_strs, c_strs, *rows))):
            raise TypeError("B and C must be lists and alpha a list of lists")
        alpha = [[Scalar.from_string(v) for v in row] for row in rows]
        b = UnivariatePoly([Scalar.from_string(v) for v in b_strs])
        c = UnivariatePoly([Scalar.from_string(v) for v in c_strs])
        label = str(data.get("label", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed method JSON: {exc}") from exc
    return new_method(alpha, b, c, label)
