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

Multiplication needs no factoring: for square-free r and s,
sqrt(r) * sqrt(s) = g * sqrt((r/g) * (s/g)) with g = gcd(r, s).  Only
``Scalar.sqrt`` factors its radicand (by trial division), so it accepts
radicands up to 10**12.  One size rule says what a file can hold: no
radicand above 10**12 and no numerator or denominator of more than 4300
digits (Python's limit on integer strings).  ``readable_str``, the form of
a value in a file, and ``from_string`` both refuse a value beyond it, so
``from_string`` reads back every value written; ``from_string`` also
rejects decimal exponents beyond 4300 before it builds the power.
The four orderings share one exact test, the sign of the difference.

Signs and floats read one integer bracket.  With D the common denominator
of the coefficients, x = sum of n_k*sqrt(r_k)/D for integers n_k, and each
n*sqrt(r)*2**bits lies between isqrt(n**2*r*4**bits) and one more (both
ends equal when n**2*r*4**bits is a square, so always for r = 1).  The
sums give integers lo <= D*2**bits*x <= hi.  ``sign`` doubles bits until
the bracket excludes 0; ``float`` doubles them until lo/(D*2**bits) and
hi/(D*2**bits) round to the same double.  Integer true division rounds
correctly, so the float is the correctly rounded value of x and never
contradicts its sign.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, isqrt, lcm

__all__ = ["Scalar", "as_scalar", "readable_str"]

# Terms are separated by "+" or begin at a "-", except a sign of an
# exponent ("1e-3", "1e+3") and a "-" that follows a sign, "*", "/" or "(".
_TERM_SPLIT = re.compile(r"(?<![eE])\+|(?<=[^+\-eE*/(])(?=-)")
# Whitespace between two digits or dots would join two numbers into one.
_SPLIT_NUMBER = re.compile(r"[\d.]\s+[\d.]")

# Python writes and reads no integer string of more than 4300 digits, so no
# numerator or denominator in a file has more.  A decimal exponent ("1e-5")
# beyond that is refused before Fraction builds the power.
_MAX_DIGITS = 4300
_DIGIT_BOUND = 10**_MAX_DIGITS
_EXPONENT = re.compile(r"[eE][+-]?(\d+)")
# Largest radicand that sqrt factors (trial division stays below 10**6
# steps), so also the largest that a string read back may hold.
_MAX_RADICAND = 10**12


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


def _ordering(test):
    """One comparison operator: test(sign of self - other, 0), exactly."""

    def compare(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return test((self - o).sign(), 0)

    return compare


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
        if n > _MAX_RADICAND:
            raise ValueError(f"sqrt radicand {n} exceeds 10**12")
        outer, core = _square_free(n)
        return cls._raw({core: Fraction(coeff) * outer})

    @classmethod
    def from_string(cls, text: str) -> "Scalar":
        """Parse a signed sum of terms q, q*sqrt(n), sqrt(n), sqrt(n)/k and
        q*sqrt(n)/k with q rational and n, k integers, e.g. "1/2-sqrt(3)/6"
        or its serialization "1/2+-1/6*sqrt(3)".  Whitespace is ignored,
        except inside a number: "1 2" is an error, not 12."""
        if _SPLIT_NUMBER.search(text):
            raise ValueError(f"whitespace inside a number in exact-scalar string {text!r}")
        text = "".join(text.split())
        if not text:
            raise ValueError("empty exact-scalar string")
        for exponent in _EXPONENT.findall(text):
            if int(exponent) > _MAX_DIGITS:
                raise ValueError(f"decimal exponent beyond {_MAX_DIGITS} in exact-scalar string")
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
        return _writable(cls._raw(total))

    # -- queries -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} has irrational radical parts")
        return self._terms.get(1, Fraction(0))

    def _bracket(self, bits: int) -> tuple[int, int, int]:
        """Integers lo, hi, den with lo/den <= self <= hi/den and den = D*2**bits."""
        den = lcm(*(q.denominator for q in self._terms.values()))
        lo = hi = 0
        for r, q in self._terms.items():
            n = q.numerator * (den // q.denominator)
            m = n * n * r << 2 * bits
            s = isqrt(m)
            t = s + (s * s != m)  # floor and ceiling of |n|*sqrt(r)*2**bits
            lo, hi = (lo + s, hi + t) if n > 0 else (lo - t, hi - s)
        return lo, hi, den << bits

    def sign(self) -> int:
        """Exact sign: the bracket narrows until it excludes 0, as it does
        for every nonzero value."""
        bits = 64
        while self._terms:
            lo, hi, _ = self._bracket(bits)
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            bits *= 2
        return 0

    def __float__(self) -> float:
        bits = 64
        while True:
            lo, hi, den = self._bracket(bits)
            if lo / den == hi / den:
                return lo / den
            bits *= 2

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
                # r and s are square-free: r*s = g**2 * (r/g)*(s/g) with g = gcd(r, s)
                g = gcd(r, s)
                core = (r // g) * (s // g)
                terms[core] = terms.get(core, Fraction(0)) + q * p * g
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

    __lt__ = _ordering(operator.lt)
    __le__ = _ordering(operator.le)
    __gt__ = _ordering(operator.gt)
    __ge__ = _ordering(operator.ge)

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


def _writable(value: Scalar) -> Scalar:
    """value, if a file can hold it (see the module docstring); else ValueError."""
    if any(max(abs(q.numerator), q.denominator) >= _DIGIT_BOUND for q in value._terms.values()):
        raise ValueError(
            f"an exact coefficient has more than {_MAX_DIGITS} digits, more than a file can hold"
        )
    for r in value._terms:
        if r > _MAX_RADICAND:
            raise ValueError(f"radicand {r} of {value} exceeds 10**12, more than a file can hold")
    return value


def readable_str(value: Scalar) -> str:
    """str(value) for a file that from_string reads back.  Arithmetic keeps
    any size, so a value beyond the size rule is refused here, not when
    reading."""
    return str(_writable(value))


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce an exact-valued input (Scalar, int, Fraction, string) to Scalar."""
    return value if isinstance(value, Scalar) else Scalar(value)
