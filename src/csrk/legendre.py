"""Normalized shifted Legendre polynomials on [0, 1] with exact algebra.

The basis P_0, P_1, ... is orthonormal for the L2 inner product on [0, 1]
and P_i has exact degree i.  Univariate polynomials are stored by their
coefficients in this basis; the per-degree normalizations sqrt(2*i+1)
live in the exact Scalar field, so basis conversions, antiderivatives and
inner products are exact.

Exact algebra runs in the unnormalized basis L_i = P_i / sqrt(2i+1)
(L_i(1) = 1), where every structural constant is rational:

    L_i(tau) = sum_k (-1)**(i+k) C(i, k) C(i+k, k) tau**k       (integers),
    tau**m = sum_{k<=m} (2k+1) m!**2 / ((m-k)! (m+k+1)!) L_k,
    L_n' = 2 * sum over k < n with n - k odd of (2k+1) L_k,
    int_0^tau L_0 = (L_0 + L_1) / 2,
    int_0^tau L_n = (L_{n+1} - L_{n-1}) / (2 (2n+1))  for n >= 1,
    int_0^1 L_i L_j = delta_ij / (2i+1).

``to_l``/``from_l`` convert coefficient lists, and ``tensor_to_l``/
``tensor_from_l`` coefficient tensors such as a method's alpha.
Products, powers of tau and the family tensors are radical-free there,
and the orthonormal coefficients are only an input/output view.
Products (``l_mul``), dots (``l_dot``), contractions (``l_contract``) and
both tau<->L conversions (``l_to_monomial``, ``UnivariatePoly.from_monomial``
and ``monomial_to_legendre``) run on one integer kernel: a polynomial
becomes one integer vector per square-free radicand over one common
denominator (the layout of FLINT's fmpq_poly).  A product maps each vector
to tau-monomials through the integer matrix of the first identity,
convolves each radicand pair as plain integer lists (no Kronecker
substitution), merges the radicals by sqrt(r) sqrt(s) = g sqrt((r/g)(s/g))
with g = gcd(r, s), and maps back through the second identity as one
integer matrix over one denominator; dots weigh the vectors by 1/(2i+1)
over one denominator.  Scalars are the type at every boundary.
``l_sub``, ``l_derivative`` and ``l_antiderivative`` apply rational
identities to Scalars.  None of the ``l_*`` functions is bound by CAP;
``UnivariatePoly.derivative`` and the function ``antiderivative`` are
orthonormal views of them.  ``xi``, the ladder constant of the orthonormal
antiderivative, remains for the simplifying family; the algebra here does
not use it.

L_i(t) is numpy's Legendre polynomial at x = 2t - 1, so a tensor in the
L basis is also a float series for ``np.polynomial.legendre``.  ``_root``
holds the normalization sqrt(2i+1), and one three-term recurrence
(``_basis_values``) gives P_0..P_n at a point, as Scalars for exact input
and as doubles otherwise.  ``eval_legendre``, ``legendre_table``,
``UnivariatePoly.__call__`` and exact ``CsrkMethod.eval_A`` all read it.

The monomial helpers (``legendre_monomial``, ``mono_*``,
``UnivariatePoly.to_monomial``) are reference implementations for the
tests and names that ``bench/tracer.py`` traces; no certifier uses them.
``from_monomial`` is no longer a reference: it reads the kernel's tau-to-L
table, as ``monomial_to_legendre`` does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .exact import Scalar, ScalarLike, as_scalar

__all__ = [
    "CAP",
    "BasisCapExceeded",
    "UnivariatePoly",
    "eval_legendre",
    "xi",
    "antiderivative",
    "monomial_to_legendre",
    "inner_product",
    "legendre_monomial",
    "legendre_table",
    "to_l",
    "from_l",
    "tensor_to_l",
    "tensor_from_l",
    "l_mul",
    "l_sub",
    "l_dot",
    "l_contract",
    "l_derivative",
    "l_antiderivative",
    "l_to_monomial",
    "ONE",
    "TAU",
]

# Highest admissible basis index; exceeding it is an error, never truncation.
CAP = 32


class BasisCapExceeded(ValueError):
    """A construction needs basis indices beyond the supported cap."""


def _check_index(i: int) -> None:
    if i < 0:
        raise ValueError(f"basis index must be nonnegative, got {i}")
    if i > CAP:
        raise BasisCapExceeded(f"basis index {i} exceeds cap {CAP}")


def xi(i: int) -> Scalar:
    """The ladder constant 1 / (2*sqrt(4*i**2 - 1)), defined for i >= 1."""
    if i < 1:
        raise ValueError(f"xi is defined for indices >= 1, got {i}")
    m = 4 * i * i - 1
    return Scalar.sqrt(m, Fraction(1, 2 * m))


@lru_cache(maxsize=None)
def _shifted_mono(i: int) -> tuple[int, ...]:
    """Integer monomial coefficients of the unnormalized shifted Legendre polynomial L_i.

    Normalized so the value at x = 1 is 1; multiply by sqrt(2*i+1) for the
    orthonormal basis element.
    """
    return tuple((-1) ** (i + k) * comb(i, k) * comb(i + k, k) for k in range(i + 1))


@lru_cache(maxsize=None)
def legendre_monomial(i: int) -> tuple[Scalar, ...]:
    """Exact monomial coefficients of the orthonormal basis element P_i."""
    _check_index(i)
    return tuple(_root(2 * i + 1) * c for c in _shifted_mono(i))


@lru_cache(maxsize=None)
def _root(n: int, inverse: bool = False) -> Scalar:
    return Scalar.sqrt(n, Fraction(1, n) if inverse else 1)


def _basis_values(n: int, x):
    """P_0(x), ..., P_n(x) by the three-term recurrence in 2x - 1.

    Exact x (Scalar, Fraction, int) gives a list of Scalars; anything else
    is flattened to doubles and gives an (n+1, x.size) array.
    """
    _check_index(n)
    if isinstance(x, (Scalar, Fraction, int)):
        t = as_scalar(x) * 2 - 1
        vals = [Scalar(1), t]
    else:
        t = 2.0 * np.ravel(np.asarray(x, dtype=float)) - 1.0
        vals = [np.ones_like(t), t]
    for k in range(1, n):
        vals.append(((2 * k + 1) * t * vals[k] - k * vals[k - 1]) / (k + 1))
    vals = vals[: n + 1]
    if isinstance(t, Scalar):
        return [_root(2 * i + 1) * v for i, v in enumerate(vals)]
    return np.array(vals) * np.sqrt(2 * np.arange(n + 1) + 1)[:, None]


def eval_legendre(i: int, x):
    """P_i(x): a Scalar for exact x, a float or an array shaped like x otherwise."""
    vals = _basis_values(i, x)
    if isinstance(vals, list):
        return vals[i]
    return float(vals[i, 0]) if np.ndim(x) == 0 else vals[i].reshape(np.shape(x))


def legendre_table(n_max: int, x: np.ndarray) -> np.ndarray:
    """Float table vals[i, m] = P_i(x[m]) for i = 0..n_max."""
    return _basis_values(n_max, np.asarray(x, dtype=float))


def _trim(coeffs: Sequence[Scalar]) -> tuple[Scalar, ...]:
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class UnivariatePoly:
    """Polynomial stored by coefficients in the orthonormal shifted basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        trimmed = _trim([as_scalar(c) for c in coeffs])
        if len(trimmed) > CAP + 1:
            raise BasisCapExceeded(
                f"polynomial degree {len(trimmed) - 1} exceeds cap {CAP}"
            )
        object.__setattr__(self, "coeffs", trimmed)

    @property
    def degree(self) -> int:
        return max(len(self.coeffs) - 1, 0)

    def coeff(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Scalar(0)

    def __eq__(self, other):
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly([-c for c in self.coeffs])

    def __mul__(self, scalar: ScalarLike) -> "UnivariatePoly":
        s = as_scalar(scalar)
        return UnivariatePoly([c * s for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, x):
        n = max(len(self.coeffs), 1)
        vals = _basis_values(n - 1, x)
        if isinstance(vals, list):
            return sum((c * v for c, v in zip(self.coeffs, vals)), Scalar(0))
        out = self.float_coeffs(n) @ vals
        return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))

    def float_coeffs(self, n: int | None = None) -> np.ndarray:
        m = len(self.coeffs) if n is None else n
        out = np.zeros(m)
        for i, c in enumerate(self.coeffs[:m]):
            out[i] = float(c)
        return out

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly(from_l(l_derivative(to_l(self.coeffs))))

    def to_monomial(self) -> tuple[Scalar, ...]:
        """Exact monomial coefficients (index k = coefficient of x**k)."""
        out = [Scalar(0)] * (len(self.coeffs) or 1)
        for i, c in enumerate(self.coeffs):
            for k, m in enumerate(legendre_monomial(i)):
                out[k] = out[k] + c * m
        return _trim(out)

    @classmethod
    def from_monomial(cls, mono: Sequence[ScalarLike]) -> "UnivariatePoly":
        """The polynomial with monomial coefficients mono (index k = coefficient of x**k)."""
        return cls(from_l(_scalars(_apply(_from_tau, _vec([as_scalar(c) for c in mono])))))

    def __repr__(self):
        return f"UnivariatePoly([{', '.join(str(c) for c in self.coeffs)}])"


def antiderivative(p: UnivariatePoly) -> UnivariatePoly:
    """The antiderivative q(x) = integral of p from 0 to x, exactly."""
    return UnivariatePoly(from_l(l_antiderivative(to_l(p.coeffs))))


@lru_cache(maxsize=None)
def monomial_to_legendre(m: int) -> UnivariatePoly:
    """Legendre-basis coefficients of x**m."""
    if m < 0:
        raise ValueError(f"monomial exponent must be nonnegative, got {m}")
    if m > CAP:
        raise BasisCapExceeded(f"monomial degree {m} exceeds cap {CAP}")
    return UnivariatePoly.from_monomial([0] * m + [1])


def inner_product(u: UnivariatePoly, v: UnivariatePoly) -> Scalar:
    """L2 inner product on [0, 1]; by orthonormality a coefficient dot."""
    total = Scalar(0)
    for i in range(min(len(u.coeffs), len(v.coeffs))):
        total = total + u.coeffs[i] * v.coeffs[i]
    return total


# -- exact algebra in the unnormalized basis L_i = P_i / sqrt(2i+1) ---------

_ZERO = Scalar(0)


def to_l(coeffs: Sequence[Scalar]) -> list[Scalar]:
    """L-basis coefficients of sum_i coeffs[i] * P_i."""
    return [c * _root(2 * i + 1) if c else c for i, c in enumerate(coeffs)]


def from_l(coeffs: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Orthonormal coefficients of sum_i coeffs[i] * L_i, trailing zeros trimmed."""
    return _trim([c * _root(2 * i + 1, True) if c else c for i, c in enumerate(coeffs)])


def _scale_tensor(t: Sequence[Sequence[Scalar]], inverse: bool) -> list[list[Scalar]]:
    return [
        [v * _root((2 * i + 1) * (2 * j + 1), inverse) if v else v for j, v in enumerate(row)]
        for i, row in enumerate(t)
    ]


def tensor_to_l(alpha: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Coefficients of sum alpha[i][j] P_i(tau) P_j(sigma) on the L_i(tau) L_j(sigma)."""
    return _scale_tensor(alpha, False)


def tensor_from_l(t: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Coefficients of sum t[i][j] L_i(tau) L_j(sigma) on the P_i(tau) P_j(sigma)."""
    return _scale_tensor(t, True)


def l_mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Exact product of two L-basis coefficient lists, with no degree cap.

    Both factors go to integer tau-monomial vectors; each radicand pair is
    convolved as plain integer lists, and the product comes back to L
    through one integer matrix.
    """
    (pa, da), (pb, db) = _apply(_to_tau, _vec(a)), _apply(_to_tau, _vec(b))
    n = len(a) + len(b) - 1
    prod: dict[int, list[int]] = {}
    for core, g, u, v in _pairs(pa, pb):
        w = prod.setdefault(core, [0] * n)
        for i, x in enumerate(u):
            if x:
                x *= g
                for j, y in enumerate(v, i):
                    w[j] += x * y
    return _scalars(_apply(_from_tau, (prod, da * db)))


def l_sub(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Difference of two L-basis coefficient lists, trailing zeros trimmed."""
    return _trim([x - y for x, y in zip_longest(a, b, fillvalue=_ZERO)])


def l_dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    """int_0^1 of the product of two L-basis polynomials."""
    return l_contract([a], b)[0]


def l_contract(rows: Sequence[Sequence[Scalar]], q: Sequence[Scalar]) -> list[Scalar]:
    """int_0^1 row(s) q(s) ds for each L-basis row: the L coefficients of
    int_0^1 F(., s) q(s) ds when F(tau, sigma) is given by its rows in sigma."""
    weights, wden = _dot_weights(_size(len(q)))
    qv, qden = _vec(q)
    out = []
    for row in rows:
        rv, rden = _vec(row)
        terms: dict[int, int] = {}
        for core, g, u, v in _pairs(rv, qv):
            terms[core] = terms.get(core, 0) + g * sum(map(mul, map(mul, u, v), weights))
        den = rden * qden * wden
        out.append(Scalar._raw({r: Fraction(w, den) for r, w in terms.items()}))
    return out


def l_derivative(a: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """d/dx of an L-basis polynomial, in the L basis (rational, exact)."""
    out = [_ZERO] * max(len(a) - 1, 0)
    tail = [_ZERO, _ZERO]  # a_m + a_{m+2} + ..., by the parity of m
    for k in range(len(a) - 2, -1, -1):
        tail[(k + 1) % 2] = tail[(k + 1) % 2] + a[k + 1]
        out[k] = tail[(k + 1) % 2] * (4 * k + 2)
    return _trim(out)


def l_antiderivative(a: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """int_0^tau of an L-basis polynomial, in the L basis (rational, exact)."""
    out = [_ZERO] * (len(a) + 1)
    for n, c in enumerate(a):
        if c:
            w = c * Fraction(1, 2 * (2 * n + 1))
            out[n + 1] = out[n + 1] + w
            if n:
                out[n - 1] = out[n - 1] - w
            else:
                out[0] = out[0] + w
    return _trim(out)


def l_to_monomial(a: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Monomial coefficients (index k = coefficient of x**k) of an L-basis polynomial."""
    return _scalars(_apply(_to_tau, _vec(a)))


# -- the integer kernel -----------------------------------------------------
#
# A polynomial is ({radicand: numerators}, denominator): one integer vector
# per square-free radicand r over one common denominator, so coefficient i
# is the sum over r of numerators[i] / denominator * sqrt(r).  Every vector
# of one polynomial has its length.  Scalars enter through _vec and leave
# through _scalars, which read and build Scalar's {radicand: Fraction}
# terms directly; in between every operation is on Python ints.

_Vec = tuple[dict[int, list[int]], int]


def _vec(coeffs: Sequence[Scalar]) -> _Vec:
    """The kernel form of a coefficient list."""
    n = len(coeffs)
    den = lcm(*(q.denominator for c in coeffs for q in c._terms.values()))
    parts: dict[int, list[int]] = {}
    for i, c in enumerate(coeffs):
        for r, q in c._terms.items():
            if r not in parts:
                parts[r] = [0] * n
            parts[r][i] = q.numerator * (den // q.denominator)
    return parts, den


def _scalars(vec: _Vec) -> tuple[Scalar, ...]:
    """The coefficient list of a kernel form, trailing zeros trimmed."""
    parts, den = vec
    n = max(map(len, parts.values()), default=0)
    terms: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for r, nums in parts.items():
        for i, v in enumerate(nums):
            if v:
                terms[i][r] = Fraction(v, den)
    return _trim([Scalar._raw(t) for t in terms])


def _pairs(a: dict[int, list[int]], b: dict[int, list[int]]):
    """(core, g, a[r], b[s]) for each radicand pair (r, s), where
    sqrt(r) * sqrt(s) = g * sqrt(core).

    r and s are square-free, so sqrt(r) * sqrt(s) = g * sqrt((r/g) * (s/g))
    with g = gcd(r, s), the rule of Scalar multiplication.
    """
    for r, u in a.items():
        for s, v in b.items():
            g = gcd(r, s)
            yield (r // g) * (s // g), g, u, v


def _size(n: int) -> int:
    """The cached table size for vectors of length n: a power of two, at least 16."""
    return max(16, 1 << (n - 1).bit_length())


@lru_cache(maxsize=None)
def _to_tau(size: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Columns and denominator (1) of the map from L to tau-monomial coefficients:
    column k holds the tau**k coefficients of L_k, L_{k+1}, ..., L_{size-1}."""
    rows = [_shifted_mono(i) for i in range(size)]
    return tuple(tuple(rows[i][k] for i in range(k, size)) for k in range(size)), 1


@lru_cache(maxsize=None)
def _from_tau(size: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Columns M and one denominator D of the map from tau-monomial to L
    coefficients: tau**m = sum_{k<=m} M[k][m-k] / D * L_k.

    tau**m = sum_{k<=m} (2k+1) m!**2 / ((m-k)! (m+k+1)!) L_k, and that
    coefficient is (2k+1) C(2m+1, m-k) / e_m with e_m = (2m+1) C(2m, m).
    """
    e = [(2 * m + 1) * comb(2 * m, m) for m in range(size)]
    den = lcm(*e)
    return (
        tuple(
            tuple((2 * k + 1) * comb(2 * m + 1, m - k) * (den // e[m]) for m in range(k, size))
            for k in range(size)
        ),
        den,
    )


@lru_cache(maxsize=None)
def _dot_weights(size: int) -> tuple[tuple[int, ...], int]:
    """Integers w_i and one denominator D with w_i / D = int_0^1 L_i**2 = 1 / (2i+1)."""
    den = lcm(*range(1, 2 * size, 2))
    return tuple(den // (2 * i + 1) for i in range(size)), den


def _apply(table, vec: _Vec) -> _Vec:
    """vec through the triangular integer map of table: coefficient k of the
    result is sum_{m>=k} vec[m] * columns[k][m-k] / denominator."""
    parts, den = vec
    n = max(map(len, parts.values()), default=0)
    cols, d = table(_size(n))
    return {r: [sum(map(mul, u[k:], cols[k])) for k in range(n)] for r, u in parts.items()}, den * d


# -- exact monomial-basis helpers (reference implementations) ---------------


def mono_mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> tuple[Scalar, ...]:
    if not a or not b:
        return ()
    out = [Scalar(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return _trim(out)


def mono_pow(a: Sequence[Scalar], k: int) -> tuple[Scalar, ...]:
    out: tuple[Scalar, ...] = (Scalar(1),)
    for _ in range(k):
        out = mono_mul(out, a)
    return out


def mono_int01(a: Sequence[Scalar]) -> Scalar:
    """Exact integral over [0, 1] of a monomial-coefficient polynomial."""
    total = Scalar(0)
    for k, c in enumerate(a):
        total = total + c * Fraction(1, k + 1)
    return total


ONE = UnivariatePoly([1])
TAU = UnivariatePoly(from_l([Scalar(Fraction(1, 2))] * 2))  # tau = (L_0 + L_1) / 2
