import random
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np
import pytest
import sympy
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from csrk.exact import Scalar
from csrk.legendre import (
    CAP,
    ONE,
    TAU,
    BasisCapExceeded,
    UnivariatePoly,
    antiderivative,
    eval_legendre,
    inner_product,
    from_l,
    l_antiderivative,
    l_contract,
    l_derivative,
    l_dot,
    l_mul,
    l_sub,
    l_to_monomial,
    legendre_monomial,
    legendre_table,
    mono_int01,
    mono_mul,
    mono_pow,
    monomial_to_legendre,
    to_l,
    xi,
)


def sympy_rodrigues(i):
    """Independent symbolic construction from the Rodrigues formula."""
    x = sympy.Symbol("x")
    if i == 0:
        return sympy.Integer(1), x
    expr = sympy.sqrt(2 * i + 1) / sympy.factorial(i) * sympy.diff(
        (x**i) * (x - 1) ** i, x, i
    )
    return sympy.expand(expr), x


@pytest.mark.parametrize("i", range(6))
def test_monomial_coefficients_match_rodrigues(i):
    expr, x = sympy_rodrigues(i)
    ours = legendre_monomial(i)
    for k in range(i + 1):
        sym_coeff = expr.coeff(x, k)
        rational = Fraction(*(ours[k] / Scalar.sqrt(2 * i + 1)).as_fraction().as_integer_ratio())
        assert sympy.simplify(sym_coeff - sympy.sqrt(2 * i + 1) * sympy.Rational(rational)) == 0


def test_eval_constant_and_midpoint():
    assert eval_legendre(0, Fraction(1, 3)) == 1
    assert eval_legendre(0, 0.77) == 1.0
    assert eval_legendre(1, Fraction(1, 2)) == 0


@pytest.mark.parametrize("i", range(11))
def test_endpoint_values(i):
    assert eval_legendre(i, 1) == Scalar.sqrt(2 * i + 1)
    assert eval_legendre(i, 0) == (-1) ** i * Scalar.sqrt(2 * i + 1)
    # float path agrees
    assert eval_legendre(i, 1.0) == pytest.approx(float(Scalar.sqrt(2 * i + 1)), rel=1e-13)


def test_exact_and_float_eval_agree():
    rng = random.Random(7)
    for _ in range(40):
        i = rng.randrange(0, 11)
        q = Fraction(rng.randrange(0, 101), 100)
        assert eval_legendre(i, float(q)) == pytest.approx(float(eval_legendre(i, q)), abs=1e-12)


def test_xi_values():
    assert xi(1) == Scalar.sqrt(3, Fraction(1, 6))
    assert xi(2) == Scalar.sqrt(15, Fraction(1, 30))
    assert xi(3) == Scalar(1) / (2 * Scalar.sqrt(35))
    with pytest.raises(ValueError):
        xi(0)


def test_antiderivative_of_basis_elements():
    p0 = UnivariatePoly([1])
    assert antiderivative(p0) == UnivariatePoly([Fraction(1, 2), xi(1)])
    p1 = UnivariatePoly([0, 1])
    assert antiderivative(p1) == UnivariatePoly([-xi(1), 0, xi(2)])
    # 2 * double antiderivative of P0 is x**2
    twice = antiderivative(antiderivative(p0)) * 2
    assert twice == UnivariatePoly(
        [Fraction(1, 3), Scalar.sqrt(3, Fraction(1, 6)), Scalar.sqrt(5, Fraction(1, 30))]
    )


def test_monomial_to_legendre_low_degrees():
    assert monomial_to_legendre(0) == ONE
    assert monomial_to_legendre(1) == UnivariatePoly(
        [Fraction(1, 2), Scalar.sqrt(3, Fraction(1, 6))]
    )
    assert monomial_to_legendre(2) == UnivariatePoly(
        [Fraction(1, 3), Scalar.sqrt(3, Fraction(1, 6)), Scalar.sqrt(5, Fraction(1, 30))]
    )
    assert TAU == monomial_to_legendre(1)


def test_inner_product_orthonormality():
    for i in range(6):
        for j in range(6):
            ei = UnivariatePoly([0] * i + [1])
            ej = UnivariatePoly([0] * j + [1])
            assert inner_product(ei, ej) == (1 if i == j else 0)


def test_inner_product_against_monomial_integration_oracle():
    # oracle: integrate u*v termwise in the monomial basis with Fractions
    x = TAU
    assert inner_product(x, x) == Fraction(1, 3)
    rng = random.Random(3)
    for _ in range(20):
        u = UnivariatePoly([Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(6)])
        v = UnivariatePoly([Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)) for _ in range(6)])
        oracle = mono_int01(mono_mul(u.to_monomial(), v.to_monomial()))
        assert inner_product(u, v) == oracle


def test_derivative_inverts_antiderivative_and_vanishes_at_zero():
    rng = random.Random(11)
    for _ in range(25):
        p = UnivariatePoly(
            [Fraction(rng.randrange(-6, 7), rng.randrange(1, 7)) for _ in range(9)]
        )
        q = antiderivative(p)
        assert q.derivative() == p
        assert q(Fraction(0)) == 0


def test_antiderivative_is_only_the_module_function():
    # the tracer binds csrk.legendre.antiderivative; a method copy would bypass it
    assert not hasattr(UnivariatePoly, "antiderivative")


def test_orthonormality_against_gauss_quadrature():
    nodes, weights = np.polynomial.legendre.leggauss(20)
    nodes = (nodes + 1) / 2
    weights = weights / 2
    for i in range(11):
        for j in range(11):
            vals = eval_legendre(i, nodes) * eval_legendre(j, nodes)
            approx = float(weights @ vals)
            assert approx == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


@pytest.mark.parametrize("m", range(9))
def test_monomial_round_trip_on_grid(m):
    grid = np.linspace(0.0, 1.0, 100)
    poly = monomial_to_legendre(m)
    assert np.max(np.abs(poly(grid) - grid**m)) < 1e-12


def test_to_monomial_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        p = UnivariatePoly(
            [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(7)]
        )
        assert UnivariatePoly.from_monomial(p.to_monomial()) == p


def test_poly_eval_matches_monomial_eval():
    rng = random.Random(9)
    for _ in range(10):
        p = UnivariatePoly([Fraction(rng.randrange(-5, 6), 3) for _ in range(6)])
        xq = Fraction(rng.randrange(0, 11), 10)
        mono = p.to_monomial()
        direct = Scalar(0)
        for k, c in enumerate(mono):
            direct = direct + c * xq**k
        assert p(xq) == direct
        assert p(float(xq)) == pytest.approx(float(direct), abs=1e-12)


def test_basis_cap_is_enforced():
    with pytest.raises(BasisCapExceeded):
        legendre_monomial(CAP + 1)
    with pytest.raises(BasisCapExceeded):
        monomial_to_legendre(CAP + 1)
    with pytest.raises(BasisCapExceeded):
        UnivariatePoly([1] * (CAP + 2))
    with pytest.raises(BasisCapExceeded):
        antiderivative(UnivariatePoly([0] * CAP + [1]))


def test_zero_polynomial_behaviour():
    z = UnivariatePoly()
    assert z.degree == 0
    assert not z
    assert z(Fraction(1, 2)) == 0
    assert antiderivative(z) == z
    assert z.to_monomial() == ()


def test_legendre_table_matches_pointwise():
    xs = np.linspace(0, 1, 13)
    table = legendre_table(8, xs)
    for i in range(9):
        assert np.max(np.abs(table[i] - eval_legendre(i, xs))) < 1e-13


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, CAP])
def test_float_values_match_numpy_legvander(n):
    # independent oracle: numpy's Legendre basis on 2x - 1, times sqrt(2i+1)
    xs = np.concatenate([np.linspace(0, 1, 41), [0.123456789, 0.987654321]])
    oracle = (np.polynomial.legendre.legvander(2 * xs - 1, n) * np.sqrt(2 * np.arange(n + 1) + 1)).T
    table = legendre_table(n, xs)
    assert table.shape == (n + 1, xs.size)
    assert np.max(np.abs(table - oracle)) < 1e-13
    for i in range(n + 1):
        assert np.array_equal(eval_legendre(i, xs), table[i])
        assert eval_legendre(i, float(xs[7])) == table[i, 7]


@pytest.mark.parametrize("i", [0, 1, 2, 3, 7, 12, CAP])
def test_exact_values_match_sympy_shifted_legendre(i):
    # P_i(x) = sqrt(2i+1) * Legendre_i(2x - 1), so P_i(q) / sqrt(2i+1) is rational
    for q in (Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(5, 9), Fraction(1), 1):
        expected = sympy.legendre(i, 2 * sympy.Rational(q.numerator, q.denominator) - 1)
        ours = (eval_legendre(i, q) / Scalar.sqrt(2 * i + 1)).as_fraction()
        assert ours == Fraction(int(expected.p), int(expected.q))
    assert eval_legendre(i, Scalar(Fraction(1, 3))) == eval_legendre(i, Fraction(1, 3))


def horner(mono, x):
    total = Scalar(0)
    for c in reversed(mono):
        total = total * x + c
    return total


def test_exact_poly_call_matches_horner_on_monomial_form():
    rng = random.Random(29)
    for n in (1, 2, 4, 9, 16):
        p = UnivariatePoly(random_l_coeffs(rng, n, radicals=True))
        mono = p.to_monomial()
        for q in (Fraction(0), Fraction(1, 5), Fraction(3, 8), Fraction(1), 2, Fraction(-1, 3)):
            assert p(q) == horner(mono, q)


# -- unnormalized basis L_i = P_i / sqrt(2i+1) ------------------------------------


def random_l_coeffs(rng, n, radicals=False):
    """n coefficients with nonzero rational parts, so the degree is n - 1."""
    out = []
    for _ in range(n):
        v = Scalar(Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.randrange(1, 5)))
        if radicals:
            v = v + Scalar.sqrt(rng.choice((2, 3, 5)), Fraction(rng.randrange(-2, 3), 3))
        out.append(v)
    return out


def reference_monomial(coeffs):
    """Monomial form of sum_i c_i L_i in plain Scalar sums, with no degree cap:
    L_i(x) = sum_k (-1)**(i+k) C(i, k) C(i+k, k) x**k."""
    out = [Scalar(0)] * len(coeffs)
    for i, c in enumerate(coeffs):
        for k in range(i + 1):
            out[k] = out[k] + c * ((-1) ** (i + k) * comb(i, k) * comb(i + k, k))
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def test_l_basis_tau_operator():
    # tau = (L_0 + L_1) / 2 and tau L_n = L_n/2 + ((n+1) L_{n+1} + n L_{n-1}) / (2(2n+1))
    tau = [Scalar(Fraction(1, 2)), Scalar(Fraction(1, 2))]
    assert from_l(tau) == TAU.coeffs
    for n in range(1, 12):
        unit = [Scalar(0)] * n + [Scalar(1)]
        expected = [Scalar(0)] * (n + 2)
        expected[n - 1] = Scalar(Fraction(n, 2 * (2 * n + 1)))
        expected[n] = Scalar(Fraction(1, 2))
        expected[n + 1] = Scalar(Fraction(n + 1, 2 * (2 * n + 1)))
        assert l_mul(tau, unit) == tuple(expected)


def test_l_mul_matches_monomial_reference():
    rng = random.Random(17)
    for da, db in [(0, 0), (1, 5), (4, 4), (7, 2), (20, 25), (32, 32)]:
        a = random_l_coeffs(rng, da + 1, radicals=da < 8)
        b = random_l_coeffs(rng, db + 1, radicals=db < 8)
        product = l_mul(a, b)
        assert l_mul(b, a) == product
        # degree da + db may pass CAP: the product is not capped
        assert len(product) == da + db + 1
        assert l_to_monomial(product) == mono_mul(reference_monomial(a), reference_monomial(b))


def test_l_mul_powers_pass_the_basis_cap():
    rng = random.Random(19)
    c = random_l_coeffs(rng, 4)
    power = (Scalar(1),)
    for k in range(1, 15):
        power = l_mul(c, power)
    assert len(power) == 3 * 14 + 1 > CAP + 1
    assert l_to_monomial(power) == mono_pow(reference_monomial(c), 14)


def l_antiderivative_ladder(m):
    """x**m as m! times the m-fold antiderivative of L_0, in the L basis."""
    a = (Scalar(1),)
    for _ in range(m):
        a = l_antiderivative(a)
    return tuple(v * factorial(m) for v in a)


def test_monomial_to_legendre_matches_the_antiderivative_ladder():
    for m in range(CAP + 1):
        assert monomial_to_legendre(m) == UnivariatePoly(from_l(l_antiderivative_ladder(m)))


def test_from_monomial_inverts_to_monomial_on_radicals():
    rng = random.Random(37)
    for n in (1, 2, 5, 12, CAP + 1):
        a = random_l_coeffs(rng, n, radicals=True)
        p = UnivariatePoly(from_l(a))
        assert len(p.coeffs) == n
        assert UnivariatePoly.from_monomial(p.to_monomial()) == p
        assert UnivariatePoly.from_monomial(reference_monomial(a)) == p
    with pytest.raises(BasisCapExceeded):
        UnivariatePoly.from_monomial([0] * (CAP + 1) + [1])
    assert UnivariatePoly.from_monomial([1, 0] + [0] * CAP) == ONE


def test_l_to_monomial_matches_reference():
    rng = random.Random(21)
    for n in (1, 2, 6, 15, 33):
        a = random_l_coeffs(rng, n, radicals=True)
        assert l_to_monomial(a) == reference_monomial(a)
        # the orthonormal view and legendre_monomial agree (degree <= CAP)
        assert UnivariatePoly(from_l(a)).to_monomial() == reference_monomial(a)


# -- the integer kernel against plain Scalar arithmetic --------------------------

# Square-free radicands built from the primes of certify-general's radicals
# (sqrt((2i+1)(2j+1)) with 2i+1, 2j+1 <= 13) and 2, so that pairs meet on
# one radicand: sqrt(6)*sqrt(10) and sqrt(15)*1 both give sqrt(15).
_RADICANDS = st.sets(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=3).map(prod)
_COEFFS = st.lists(
    st.tuples(_RADICANDS, st.fractions(min_value=-4, max_value=4, max_denominator=12)),
    max_size=3,
).map(lambda terms: sum((Scalar.sqrt(r, q) for r, q in terms), Scalar(0)))
# lengths 0..45 pass CAP + 1 = 33; trailing zeros are allowed
_L_POLYS = st.lists(_COEFFS, max_size=45)


# A failing example is reported as drawn, unshrunk: the plain-Scalar
# references are slow on long radical operands, so shrinking one took
# minutes (6 min 40 s for a dropped gcd factor in _pairs) before any report.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def _plain_dot(a, b):
    return sum((x * y * Fraction(1, 2 * i + 1) for i, (x, y) in enumerate(zip(a, b))), Scalar(0))


@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(a=_L_POLYS, b=_L_POLYS)
def test_kernel_product_matches_plain_scalar_reference(a, b):
    product = l_mul(a, b)
    assert l_mul(b, a) == product
    assert reference_monomial(product) == mono_mul(reference_monomial(a), reference_monomial(b))


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(a=_L_POLYS, b=_L_POLYS, rows=st.lists(_L_POLYS, max_size=4))
def test_kernel_forms_match_plain_scalar_reference(a, b, rows):
    assert l_to_monomial(a) == reference_monomial(a)
    assert l_dot(a, b) == _plain_dot(a, b)
    assert l_contract(rows, b) == [_plain_dot(row, b) for row in rows]
    n = max(len(a), len(b))
    diff = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    while diff and not diff[-1]:
        diff.pop()
    assert l_sub(a, b) == tuple(diff)


@settings(max_examples=20, deadline=None, phases=_NO_SHRINK)
@given(a=_L_POLYS, b=_L_POLYS, c=_L_POLYS)
def test_kernel_operands_that_cancel_to_zero(a, b, c):
    zero = l_sub(b, b)
    assert zero == ()
    assert l_mul(a, zero) == () and l_mul(a, [Scalar(0)] * len(b)) == ()
    assert l_dot(a, zero) == 0 and l_contract([a, zero], zero) == [0, 0]
    assert l_to_monomial(zero) == ()
    # products distribute over differences, so merged radicals cancel exactly
    assert l_mul(a, l_sub(b, c)) == l_sub(l_mul(a, b), l_mul(a, c))
    assert l_sub(l_mul(a, b), l_mul(b, a)) == ()


def test_kernel_merges_radicals_that_meet_on_one_radicand():
    # sqrt(6)*sqrt(10) = 2 sqrt(15) meets sqrt(15)*(-6) L_1**2 = -2 sqrt(15) L_0 - 4 sqrt(15) L_2
    a = [Scalar.sqrt(6), Scalar.sqrt(15)]
    b = [Scalar.sqrt(10), Scalar(-6)]
    assert l_mul(a, b) == (Scalar(0), -Scalar.sqrt(6), Scalar.sqrt(15, -4))
    assert l_dot(a, b) == 0
    assert reference_monomial(l_mul(a, b)) == mono_mul(reference_monomial(a), reference_monomial(b))


def test_derivative_matches_monomial_reference():
    rng = random.Random(23)
    for n in (1, 2, 3, 9, 20, 33):
        a = random_l_coeffs(rng, n, radicals=n < 10)
        mono = reference_monomial(a)
        expected = tuple(k * mono[k] for k in range(1, len(mono)))
        assert l_to_monomial(l_derivative(a)) == expected
        p = UnivariatePoly(from_l(a))
        assert p.derivative().to_monomial() == expected
    # degree beyond the cap: d/dx x**40 = 40 x**39 through the L basis
    x40 = [Scalar(0)] * 41
    x40[40] = Scalar(1)
    power = (Scalar(1),)
    for _ in range(40):
        power = l_mul((Scalar(Fraction(1, 2)), Scalar(Fraction(1, 2))), power)
    assert l_to_monomial(power) == tuple(x40)
    assert l_to_monomial(l_derivative(power)) == tuple([Scalar(0)] * 39 + [Scalar(40)])



def sympy_series(coeffs, var, orthonormal=False):
    """sum_n c_n * L_n(var), or * P_n(var), with L_n(t) = legendre(n, 2t - 1)."""
    return sum(
        (
            sympy.sympify(str(c))
            * (sympy.sqrt(2 * n + 1) if orthonormal else 1)
            * sympy.legendre(n, 2 * var - 1)
            for n, c in enumerate(coeffs)
        ),
        sympy.Integer(0),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 6, 12, CAP + 4])
def test_l_antiderivative_matches_sympy_integral(n):
    rng = random.Random(29 + n)
    t, tau = sympy.symbols("t tau")
    a = random_l_coeffs(rng, n, radicals=n < 8)
    expected = sympy.integrate(sympy_series(a, t), (t, 0, tau))
    got = l_antiderivative(a)
    # degree n may pass CAP: the antiderivative is not capped
    assert len(got) == n + 1
    assert sympy.expand(sympy_series(got, tau) - expected) == 0
    assert l_derivative(got) == tuple(a)


def test_l_antiderivative_of_basis_elements():
    half = Scalar(Fraction(1, 2))
    assert l_antiderivative([Scalar(1)]) == (half, half)
    for n in range(1, 10):
        w = Scalar(Fraction(1, 2 * (2 * n + 1)))
        expected = [Scalar(0)] * (n + 2)
        expected[n - 1], expected[n + 1] = -w, w
        assert l_antiderivative([Scalar(0)] * n + [Scalar(1)]) == tuple(expected)
    assert l_antiderivative([]) == ()


def test_antiderivative_matches_sympy_integral():
    rng = random.Random(31)
    t, x = sympy.symbols("t x")
    for n in (1, 2, 4, 9):
        p = UnivariatePoly(random_l_coeffs(rng, n, radicals=True))
        expected = sympy.integrate(sympy_series(p.coeffs, t, orthonormal=True), (t, 0, x))
        got = sympy_series(antiderivative(p).coeffs, x, orthonormal=True)
        assert sympy.expand(got - expected) == 0
