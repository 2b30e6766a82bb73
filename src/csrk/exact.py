"""Exact arithmetic over the rationals extended by integer square roots.

A value is a finite sum ``q_1*sqrt(r_1) + ... + q_n*sqrt(r_n)`` with
rational coefficients ``q_k`` and distinct square-free positive integer
radicands ``r_k`` (``r = 1`` is the rational part).  Because square roots
of distinct square-free integers are linearly independent over the
rationals, equality and zero tests on this representation are exact.
Addition, subtraction and multiplication are closed; division is
supported when the divisor is a single term (a rational multiple of one
radical), which covers every constant arising in the coefficient
constructions downstream.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt

__all__ = ["Scalar", "as_scalar"]

# Terms are separated by "+" or begin at a "-", except a "-" that is an
# exponent's sign ("1e-3") or follows a sign, "*", "/" or "(".
_TERM_SPLIT = re.compile(r"\+|(?<=[^+\-eE*/(])(?=-)")

# Working precision (decimal digits) for sign decisions and float export.
_APPROX_DIGITS = 48


@lru_cache(maxsize=None)
def _square_free(n: int) -> tuple[int, int]:
    """Split n > 0 as outer**2 * core with core square-free."""
    outer, core = 1, 1
    d = 2
    while d * d <= n:
        dd = d * d
        while n % dd == 0:
            n //= dd
            outer *= d
        if n % d == 0:
            n //= d
            core *= d
        d += 1
    return outer, core * n


@lru_cache(maxsize=None)
def _sqrt_approx(r: int, digits: int = _APPROX_DIGITS) -> Fraction:
    """sqrt(r) rounded down to a multiple of 10**-digits; the error is below 10**-digits."""
    return Fraction(isqrt(r * 10 ** (2 * digits)), 10**digits)


class Scalar:
    """Immutable element of Q adjoined square roots of positive integers."""

    __slots__ = ("_terms",)

    def __init__(self, value: "Scalar | Fraction | int | str" = 0):
        if isinstance(value, Scalar):
            terms = value._terms
        elif isinstance(value, (int, Fraction)):
            q = Fraction(value)
            terms = {1: q} if q else {}
        elif isinstance(value, str):
            terms = Scalar.from_string(value)._terms
        else:
            raise TypeError(f"cannot build Scalar from {type(value).__name__}")
        object.__setattr__(self, "_terms", dict(terms))

    @staticmethod
    def _raw(terms: dict[int, Fraction]) -> "Scalar":
        s = Scalar.__new__(Scalar)
        object.__setattr__(s, "_terms", {r: q for r, q in terms.items() if q})
        return s

    @classmethod
    def sqrt(cls, n: int, coeff: Fraction | int = 1) -> "Scalar":
        """coeff * sqrt(n) for a positive integer n, reduced to square-free form."""
        if not isinstance(n, int) or n <= 0:
            raise ValueError(f"sqrt radicand must be a positive integer, got {n!r}")
        outer, core = _square_free(n)
        return cls._raw({core: Fraction(coeff) * outer})

    @classmethod
    def from_string(cls, text: str) -> "Scalar":
        """Parse a signed sum of terms q, q*sqrt(n), sqrt(n), sqrt(n)/k and
        q*sqrt(n)/k with q rational and n, k integers, e.g. "1/2-sqrt(3)/6"
        or its serialization "1/2+-1/6*sqrt(3)"."""
        text = "".join(text.split())
        if not text:
            raise ValueError("empty exact-scalar string")
        total: dict[int, Fraction] = {}
        try:
            for term in _TERM_SPLIT.split(text):
                if not term:
                    raise ValueError(f"malformed exact-scalar string: {text!r}")
                head, sep, tail = term.partition("sqrt")
                if not sep:
                    part = cls._raw({1: Fraction(term)})
                else:
                    rad, close, den = tail[1:].partition(")")
                    if not (tail.startswith("(") and close and den[:1] in ("", "/")):
                        raise ValueError(f"malformed radical term: {term!r}")
                    head = head.rstrip("*")
                    coeff = Fraction(head) if head not in ("", "-") else Fraction(head + "1")
                    part = cls.sqrt(int(rad), coeff / (int(den[1:]) if den else 1))
                for r, q in part._terms.items():
                    total[r] = total.get(r, Fraction(0)) + q
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in exact-scalar string {text!r}") from exc
        return cls._raw(total)

    # -- queries -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} has irrational radical parts")
        return self._terms.get(1, Fraction(0))

    def _approx(self) -> Fraction:
        return sum((q * _sqrt_approx(r) for r, q in self._terms.items()), Fraction(0))

    def sign(self) -> int:
        """Exact sign: bound each sqrt from both sides, doubling the digits
        until the interval excludes 0 (it does for every nonzero value)."""
        if not self._terms:
            return 0
        if len(self._terms) == 1:  # q*sqrt(r) has the sign of q
            return 1 if next(iter(self._terms.values())) > 0 else -1
        digits = _APPROX_DIGITS
        while True:
            lo = hi = Fraction(0)
            for r, q in self._terms.items():
                s = _sqrt_approx(r, digits)  # exact for r = 1
                a, b = q * s, q * (s + Fraction(r != 1, 10**digits))
                lo, hi = lo + min(a, b), hi + max(a, b)
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            digits *= 2

    def __float__(self) -> float:
        return float(self._approx())

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Scalar | None":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for r, q in o._terms.items():
            terms[r] = terms.get(r, Fraction(0)) + q
        return Scalar._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._raw({r: -q for r, q in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar._raw({r: q * other for r, q in self._terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for r, q in self._terms.items():
            for s, p in o._terms.items():
                outer, core = _square_free(r * s)
                terms[core] = terms.get(core, Fraction(0)) + q * p * outer
        return Scalar._raw(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._terms:
            raise ZeroDivisionError("division by exact zero")
        if len(o._terms) > 1:
            raise ValueError("division by multi-term radical expressions is unsupported")
        ((r, q),) = o._terms.items()
        # 1 / (q*sqrt(r)) == sqrt(r) / (q*r)
        return self * Scalar._raw({r: Fraction(1, 1) / (q * r)})

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = Scalar(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        # equal to hash(Fraction) for rational values, which compare equal
        if self.is_rational:
            return hash(self._terms.get(1, Fraction(0)))
        return hash(frozenset(self._terms.items()))

    def _cmp(self, other) -> int:
        diff = self - other
        return diff.sign()

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._cmp(o) >= 0

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for r in sorted(self._terms):
            q = self._terms[r]
            parts.append(str(q) if r == 1 else f"{q}*sqrt({r})")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"Scalar('{self}')"


ScalarLike = Scalar | Fraction | int | str


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce an exact-valued input (Scalar, int, Fraction, string) to Scalar."""
    return value if isinstance(value, Scalar) else Scalar(value)
