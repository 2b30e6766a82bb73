import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrk.exact import Scalar, _square_free, as_scalar, readable_str


def test_construction_and_rational_part():
    assert Scalar(3).as_fraction() == 3
    assert Scalar(Fraction(2, 4)).as_fraction() == Fraction(1, 2)
    assert Scalar(0) == 0
    assert not Scalar(0)
    assert Scalar("−".replace("−", "-") + "2/3").as_fraction() == Fraction(-2, 3)


def test_sqrt_reduces_to_square_free():
    assert Scalar.sqrt(12) == 2 * Scalar.sqrt(3)
    assert Scalar.sqrt(9) == 3
    assert Scalar.sqrt(1) == 1
    assert Scalar.sqrt(49, Fraction(1, 7)) == 1
    assert Scalar.sqrt(8) == 2 * Scalar.sqrt(2)


def test_field_arithmetic_closure():
    a = Scalar(Fraction(1, 2)) + Scalar.sqrt(3, Fraction(1, 6))
    b = Scalar.sqrt(5) - 2
    prod = a * b
    # (1/2 + sqrt3/6)(sqrt5 - 2) = sqrt5/2 + sqrt15/6 - 1 - sqrt3/3
    expected = (
        Scalar.sqrt(5, Fraction(1, 2))
        + Scalar.sqrt(15, Fraction(1, 6))
        - 1
        - Scalar.sqrt(3, Fraction(1, 3))
    )
    assert prod == expected
    assert a - a == 0
    assert (a + b) - b == a


def test_sqrt_products_recombine():
    assert Scalar.sqrt(3) * Scalar.sqrt(3) == 3
    assert Scalar.sqrt(3) * Scalar.sqrt(15) == 3 * Scalar.sqrt(5)
    assert Scalar.sqrt(6) * Scalar.sqrt(10) == 2 * Scalar.sqrt(15)


def test_division_by_single_term():
    one = Scalar(1)
    third = one / Scalar.sqrt(3)
    assert third * Scalar.sqrt(3) == 1
    assert third == Scalar.sqrt(3, Fraction(1, 3))
    x = Scalar(Fraction(5, 7)) + Scalar.sqrt(11, 2)
    assert (x / Scalar.sqrt(7, Fraction(3, 2))) * Scalar.sqrt(7, Fraction(3, 2)) == x
    with pytest.raises(ZeroDivisionError):
        one / Scalar(0)


def test_division_by_sum_is_rejected():
    with pytest.raises(ValueError):
        Scalar(1) / (Scalar(1) + Scalar.sqrt(2))


def test_float_conversion_matches_correct_rounding():
    cases = {
        Scalar.sqrt(3): math.sqrt(3),
        Scalar(Fraction(1, 3)): 1 / 3,
        Scalar.sqrt(3, Fraction(1, 6)): math.sqrt(3) / 6,
        Scalar(10**6) + Scalar.sqrt(2): 10**6 + math.sqrt(2),
    }
    for scalar, ref in cases.items():
        assert float(scalar) == pytest.approx(ref, abs=0, rel=1e-15)
    # cancellation-heavy value stays accurate
    tiny = (Scalar.sqrt(2) - 1) ** 8
    assert float(tiny) == pytest.approx((math.sqrt(2) - 1) ** 8, rel=1e-13)


def test_sign_abs_and_ordering():
    s = Scalar.sqrt(2) - Scalar(Fraction(3, 2))
    assert s.sign() == -1
    assert abs(s) == Scalar(Fraction(3, 2)) - Scalar.sqrt(2)
    assert Scalar(0).sign() == 0
    assert Scalar.sqrt(2) < Scalar.sqrt(3)
    assert Scalar(1) <= Scalar(1)
    vals = [Scalar(1), Scalar.sqrt(2), Scalar(Fraction(5, 4))]
    assert max(vals) == Scalar.sqrt(2)


def test_string_round_trip():
    values = [
        Scalar(0),
        Scalar(Fraction(-7, 3)),
        Scalar(Fraction(1, 2)) + Scalar.sqrt(3, Fraction(-1, 6)),
        Scalar.sqrt(15, Fraction(1, 30)) + Scalar.sqrt(35, Fraction(2, 7)) - 4,
    ]
    for v in values:
        assert Scalar.from_string(str(v)) == v
    assert str(Scalar(Fraction(1, 2))) == "1/2"
    assert Scalar.from_string("sqrt(3)") == Scalar.sqrt(3)
    assert Scalar.from_string("-sqrt(3)") == -Scalar.sqrt(3)
    assert Scalar.from_string("1/2+-1/6*sqrt(3)") == Scalar(Fraction(1, 2)) - Scalar.sqrt(3, Fraction(1, 6))
    assert Scalar.from_string("0.25") == Fraction(1, 4)
    assert Scalar.from_string("1e-3") == Fraction(1, 1000)


def test_from_string_accepts_natural_forms():
    half_minus = Scalar(Fraction(1, 2)) - Scalar.sqrt(3, Fraction(1, 6))
    assert Scalar.from_string("1/2-1/6*sqrt(3)") == half_minus
    assert Scalar.from_string("1/2 - sqrt(3)/6") == half_minus
    assert Scalar.from_string("-sqrt(3)/6+1/2") == half_minus
    assert Scalar.from_string("sqrt(15)/30") == Scalar.sqrt(15, Fraction(1, 30))
    assert Scalar.from_string("2*sqrt(12)/3") == Scalar.sqrt(3, Fraction(4, 3))
    assert Scalar.from_string("1e-3-sqrt(2)") == Fraction(1, 1000) - Scalar.sqrt(2)
    assert Scalar.from_string("3-1") == 2
    # an exponent's "+" is not a term separator
    assert Scalar.from_string("1e+5") == 100000
    assert Scalar.from_string("1E+2-1") == 99
    assert Scalar.from_string("2.5e+1*sqrt(3)") == Scalar.sqrt(3, 25)
    for bad in ("1/0", "sqrt(3)/0", "sqrt(3)/", "sqrt(3)*2", "sqrt(-3)", "2-", "+1", "sqrt3"):
        with pytest.raises(ValueError):
            Scalar.from_string(bad)


def test_from_string_rejects_whitespace_inside_a_number():
    half_plus = Scalar(Fraction(1, 2)) + Scalar.sqrt(3, Fraction(1, 6))
    assert Scalar.from_string(" 1/2 + sqrt(3) / 6 ") == half_plus
    assert Scalar.from_string("1/2 - 1/6 * sqrt( 3 )") == Scalar(1) - half_plus
    for bad in ("1 2", "3 1/2", "1/2 3", "1. 5", "sqrt(1 5)", "1/2-sqrt(3)/1 2"):
        with pytest.raises(ValueError, match="whitespace inside a number"):
            Scalar.from_string(bad)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1) + 0.5


def test_as_scalar_coercions():
    assert as_scalar("1/2") == Scalar(Fraction(1, 2))
    assert as_scalar(Fraction(3, 4)) == Scalar(Fraction(3, 4))
    s = Scalar.sqrt(7)
    assert as_scalar(s) is s


def test_sign_near_cancellation():
    # sqrt(2) minus its 65-digit truncation is +7.3e-67
    v = Scalar.sqrt(2) - Fraction(
        141421356237309504880168872420969807856967187537694807317667973799, 10**65
    )
    assert v.sign() == 1
    assert abs(v) == v
    assert -v < 0 < v
    assert (-v).sign() == -1


_RADICANDS = (1, 2, 3, 5, 6, 7, 10, 15, 35)
_TERMS = st.lists(
    st.tuples(
        st.sampled_from(_RADICANDS),
        st.fractions(min_value=-5, max_value=5, max_denominator=50),
    ),
    min_size=1,
    max_size=4,
)


def _mp_value(terms):
    return mpmath.fsum(mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(r) for r, q in terms)


@settings(max_examples=300, deadline=None)
@given(terms=_TERMS, digits=st.integers(0, 90), nudge=st.integers(-2, 2))
def test_sign_against_mpmath_oracle(terms, digits, nudge):
    """Subtract a digits-long truncation of the value, so most cases nearly cancel."""
    with mpmath.workdps(200):
        approx = Fraction(int(mpmath.floor(_mp_value(terms) * 10**digits)) + nudge, 10**digits)
        v = Scalar(0)
        for r, q in terms:
            v = v + Scalar.sqrt(r, q)
        v = v - approx
        exact = _mp_value(terms) - mpmath.mpf(approx.numerator) / approx.denominator
        # the value is rational exactly when its radical parts cancel
        expected = 0 if v.is_rational and v.as_fraction() == 0 else (1 if exact > 0 else -1)
    assert v.sign() == expected
    assert (abs(v) == v) == (expected >= 0)


def _correctly_rounded(x: mpmath.mpf) -> float:
    """The double nearest to the binary value x (ties to even), via Fraction."""
    man, exp = x.man_exp  # |x| = man * 2**exp
    f = float(Fraction(int(man)) * Fraction(2) ** int(exp))
    return -f if x < 0 else f


def test_float_near_cancellation_is_correctly_rounded():
    # sqrt(2) minus its 65-digit truncation is +7.3e-67; its float has the same sign
    digits = 141421356237309504880168872420969807856967187537694807317667973799
    v = Scalar.sqrt(2) - Fraction(digits, 10**65)
    with mpmath.workdps(300):
        expected = _correctly_rounded(mpmath.sqrt(2) - mpmath.mpf(digits) / 10**65)
    assert float(v) == expected > 0
    assert float(-v) == -expected


@settings(max_examples=300, deadline=None)
@given(
    terms=_TERMS, digits=st.integers(0, 90), nudge=st.integers(-2, 2), scale=st.integers(-1100, 1000)
)
def test_float_against_mpmath_oracle(terms, digits, nudge, scale):
    """float(x) is the correctly rounded 300-digit value, down to cancellation
    of 90 digits and over the whole exponent range, subnormals included."""
    with mpmath.workdps(300):
        approx = Fraction(int(mpmath.floor(_mp_value(terms) * 10**digits)) + nudge, 10**digits)
        v = (_scalar(terms) - approx) * Fraction(2) ** scale
        # from the merged terms, so equal radicands cancel exactly
        exact = mpmath.fsum(
            mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(r) for r, q in v._terms.items()
        )
        expected = _correctly_rounded(exact)
    got = float(v)
    assert got == expected
    assert (got > 0) - (got < 0) in (v.sign(), 0)


def test_readable_str_refuses_radicands_that_from_string_rejects():
    # products of radicals are unbounded: 3 * 999983 * 999979 = 2999886001071
    big = Scalar.sqrt(3) * Scalar.sqrt(999983) * Scalar.sqrt(999979)
    for v in (big, Fraction(1, 2) - big / 6):
        with pytest.raises(ValueError, match=r"radicand 2999886001071 .* exceeds 10\*\*12"):
            readable_str(v)
    ok = Scalar.sqrt(999983) * Scalar.sqrt(999979) + 1  # radicand 999962000357
    assert Scalar.from_string(readable_str(ok)) == ok


def test_hash_agrees_with_fraction_and_int():
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(Scalar(3)) == hash(3) == hash(Fraction(3))
    assert hash(Scalar(0)) == hash(0)
    table = {Fraction(1, 2): "half", 3: "three", Scalar.sqrt(2): "root"}
    assert table[Scalar(Fraction(1, 2))] == "half"
    assert table[Scalar(3)] == "three"
    assert table[Scalar.sqrt(8) / 2] == "root"
    keys = {Scalar(Fraction(1, 2)), Fraction(1, 2), Scalar(2), 2}
    keys |= {Scalar.sqrt(3), Scalar.sqrt(12) / 2}
    assert len(keys) == 3


def _scalar(terms):
    v = Scalar(0)
    for r, q in terms:
        v = v + Scalar.sqrt(r, q)
    return v


_SCALARS = _TERMS.map(_scalar)
_SINGLE_TERMS = st.builds(
    Scalar.sqrt,
    st.sampled_from(_RADICANDS),
    st.fractions(min_value=-5, max_value=5, max_denominator=50).filter(bool),
)


@settings(deadline=None)
@given(a=_SCALARS, b=_SCALARS, c=_SCALARS)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0 and a - a == 0
    assert a + 0 == a and a * 1 == a


@settings(deadline=None)
@given(a=_SCALARS, d=_SINGLE_TERMS)
def test_division_by_single_term_inverts_multiplication(a, d):
    assert (a / d) * d == a
    assert (a * d) / d == a
    assert d * (1 / d) == 1


@settings(deadline=None)
@given(a=_SCALARS)
def test_string_round_trip_property(a):
    assert Scalar.from_string(str(a)) == a


_NATURAL_FORMS = {
    "{q}": lambda q, n, k: Scalar(q),
    "{q}*sqrt({n})": lambda q, n, k: Scalar.sqrt(n, q),
    "sqrt({n})": lambda q, n, k: Scalar.sqrt(n),
    "sqrt({n})/{k}": lambda q, n, k: Scalar.sqrt(n, Fraction(1, k)),
    "{q}*sqrt({n})/{k}": lambda q, n, k: Scalar.sqrt(n, q / k),
}
_NATURAL_TERM = st.tuples(
    st.sampled_from(["+", "-", "+-"]),
    st.sampled_from(sorted(_NATURAL_FORMS)),
    st.fractions(min_value=Fraction(1, 50), max_value=5, max_denominator=50),
    st.integers(1, 60),
    st.integers(1, 30),
)


@settings(deadline=None)
@given(terms=st.lists(_NATURAL_TERM, min_size=1, max_size=4))
def test_from_string_parses_signed_sums_of_natural_terms(terms):
    """Terms joined by "+", "-" or the serialization's "+-"; a leading "+" is dropped."""
    text, expected = "", Scalar(0)
    for sign, form, q, n, k in terms:
        joiner = sign.lstrip("+") if not text else sign
        text += joiner + form.format(q=q, n=n, k=k)
        value = _NATURAL_FORMS[form](q, n, k)
        expected = expected - value if "-" in sign else expected + value
    assert Scalar.from_string(text) == expected


# -- one ordering test, one radical product, bounded parsing work -------------

_ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)
_RATIONALS = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=50)
)


@settings(max_examples=300, deadline=None)
@given(ta=_TERMS, b=st.one_of(_TERMS, _RATIONALS), nudge=st.integers(-1, 1))
def test_orderings_against_mpmath_oracle(ta, b, nudge):
    """Each ordering is the 200-digit sign of the difference, for Scalar, int and Fraction b."""
    a = _scalar(ta)
    with mpmath.workdps(200):
        if isinstance(b, list):
            mp_b, b = _mp_value(b), _scalar(b)
        else:
            mp_b = mpmath.mpf(b.numerator) / b.denominator
        diff = _mp_value(ta) - mp_b
        expected = 0 if a - b == 0 else (1 if diff > 0 else -1)
    for op in _ORDERINGS:
        assert op(a, b) is op(expected, 0)
        assert op(b, a) is op(0, expected)
    if not isinstance(b, Scalar):
        # a rational within 10**-3 of a, where the difference nearly cancels
        near = Fraction(math.floor(float(a) * 1000) + nudge, 1000)
        with mpmath.workdps(200):
            sign = mpmath.sign(_mp_value(ta) - mpmath.mpf(near.numerator) / near.denominator)
        expected = 0 if a == near else int(sign)
        for op in _ORDERINGS:
            assert op(a, near) is op(expected, 0)


def test_orderings_leave_floats_to_python():
    a = Scalar.sqrt(2)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(a, name)(1.5) is NotImplemented
    for op in _ORDERINGS:
        with pytest.raises(TypeError):
            op(a, 1.5)
        with pytest.raises(TypeError):
            op(1.5, a)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_SQUARE_FREE = st.sets(st.sampled_from(_PRIMES), max_size=5).map(math.prod)


@settings(max_examples=300, deadline=None)
@given(r=_SQUARE_FREE, s=_SQUARE_FREE, q=_RATIONALS, p=_RATIONALS)
def test_radical_product_matches_trial_division(r, s, q, p):
    outer, core = _square_free(r * s)
    # core reaches 6e13, beyond the 10**12 that Scalar.sqrt accepts; products are unbounded
    assert Scalar.sqrt(r, q) * Scalar.sqrt(s, p) == Scalar._raw({core: q * p * outer})


def test_sqrt_rejects_radicands_above_ten_to_the_twelve():
    assert Scalar.sqrt(10**12) == 10**6
    # 10000000000037 is prime: trial division used to take over a second
    for n in (10**12 + 1, 10000000000037):
        with pytest.raises(ValueError, match=r"radicand .* exceeds 10\*\*12"):
            Scalar.sqrt(n)
    with pytest.raises(ValueError, match=r"exceeds 10\*\*12"):
        Scalar.from_string("1/2-sqrt(10000000000037)/6")


def test_from_string_rejects_exponents_beyond_the_int_string_limit():
    # 10**4299 has 4300 digits, the most a file can hold (10**4300 is refused below)
    assert Scalar.from_string("1e4299") == 10**4299
    assert Scalar.from_string("1e-4299-sqrt(2)") == Fraction(1, 10**4299) - Scalar.sqrt(2)
    for bad in ("1e4301", "1E-100000", "1/2-3e5000*sqrt(2)", "2.5e00000000009999"):
        with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
            Scalar.from_string(bad)


def test_one_size_rule_for_values_a_file_holds():
    # str() writes no integer of more than 4300 digits; 10**4300 has 4301
    for text in ("1e4300", "1e-4300", "1/2-1e-4300*sqrt(2)", "1e4299+9e4299"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            Scalar.from_string(text)
    tiny = Scalar.from_string("1e-3000")
    assert Scalar.from_string(readable_str(tiny)) == tiny
    for made in (tiny * tiny, 1 + tiny * tiny * Scalar.sqrt(2)):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            readable_str(made)
