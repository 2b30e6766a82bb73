import math
import random
from fractions import Fraction

import numpy as np
import pytest

from csrk.exact import Scalar
from csrk.legendre import (
    ONE,
    TAU,
    UnivariatePoly,
    legendre_monomial,
    legendre_table,
    mono_int01,
    mono_mul,
    mono_pow,
    xi,
)
from csrk.method import (
    EpSpec,
    construct_ep_legendre,
    construct_simplifying,
    construct_symmetric,
    construct_symplectic,
    new_method,
)
import csrk.verify
from csrk.verify import (
    _l_form,
    _max_abs,
    build_property_report,
    c_breve_defect,
    check_epm2_condition,
    check_order_conditions,
    check_simplifying,
    d_breve_defect,
    energy_preserving_residual,
    guaranteed_order,
    order_bound,
    order_condition_residuals,
    report_to_json_dict,
    stage_contraction_bound,
    symmetric_residual,
    symplectic_residual,
)

HALF = Fraction(1, 2)
S36 = Scalar.sqrt(3, Fraction(1, 6))

NODES, WEIGHTS = np.polynomial.legendre.leggauss(30)
NODES = (NODES + 1) / 2
WEIGHTS = WEIGHTS / 2


def minimal_method():
    return new_method([[HALF, -S36], [S36, 0]], ONE, TAU, "minimal")


def avf_method():
    return new_method([[HALF], [S36]], ONE, TAU, "avf")


def random_tau_method(rng, dtau=4, dsigma=4):
    """Random consistent method with B = 1, C = tau."""
    rows = [[Scalar(0)] * (dsigma + 1) for _ in range(dtau + 1)]
    rows[0][0] = Scalar(HALF)
    rows[1][0] = S36
    for i in range(dtau + 1):
        for j in range(1, dsigma + 1):
            rows[i][j] = Scalar(Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)))
    return new_method(rows, ONE, TAU)


def random_general_method(rng, dtau=4, dsigma=4, bdeg=2):
    """Random consistent method with arbitrary C and low-degree B."""
    rows = [
        [Scalar(Fraction(rng.randrange(-2, 3), rng.randrange(4, 9))) for _ in range(dsigma + 1)]
        for _ in range(dtau + 1)
    ]
    c_poly = UnivariatePoly([row[0] for row in rows])
    b = UnivariatePoly(
        [1] + [Fraction(rng.randrange(-2, 3), rng.randrange(2, 5)) for _ in range(bdeg)]
    )
    return new_method(rows, b, c_poly)


# -- order conditions ---------------------------------------------------------


def test_minimal_method_is_directly_order_4():
    res = check_order_conditions(minimal_method())
    assert res.order == 4
    assert all(not r for r in res.residuals.values())


def test_avf_is_directly_order_2():
    res = check_order_conditions(avf_method())
    assert res.order == 2
    assert res.residuals[4] == Fraction(1, 4) - Fraction(1, 6)


def test_constant_node_polynomial_order_residuals():
    # A = 1/2, B = 1, C = 1/2: every defining integral is a product of halves
    m = new_method([[HALF]], ONE, UnivariatePoly([HALF]))
    res = check_order_conditions(m)
    assert res.order == 2
    expected = {
        1: 0,
        2: 0,
        3: Fraction(1, 4) - Fraction(1, 3),
        4: Fraction(1, 4) - Fraction(1, 6),
        5: Fraction(1, 8) - Fraction(1, 4),
        6: Fraction(1, 8) - Fraction(1, 8),
        7: Fraction(1, 8) - Fraction(1, 12),
        8: Fraction(1, 8) - Fraction(1, 24),
    }
    assert res.residuals == {c: Scalar(v) for c, v in expected.items()}


def test_order_residuals_match_reduced_relations():
    """For B = 1, C = tau the residuals are the paper's relations (4), (6), (7), (8)."""
    rng = random.Random(101)
    s5 = Scalar.sqrt(5, Fraction(1, 30))
    for _ in range(50):
        m = random_tau_method(rng)
        a = m.entry
        s8 = Scalar(0)
        for i in range(m.pi_sigma + 1):
            s8 = s8 + a(0, i) * (a(i, 0) / 2 + S36 * a(i, 1))
        reduced = {
            1: 0,
            2: 0,
            3: 0,
            5: 0,
            4: a(0, 0) / 2 + S36 * a(0, 1) - Fraction(1, 6),
            6: a(0, 0) / 4 + S36 / 2 * (a(1, 0) + a(0, 1)) + a(1, 1) / 12 - Fraction(1, 8),
            7: a(0, 0) / 3 + S36 * a(0, 1) + s5 * a(0, 2) - Fraction(1, 12),
            8: s8 - Fraction(1, 24),
        }
        assert order_condition_residuals(m) == reduced


def quad_order_conditions(m):
    """30-node quadrature of the eight defining integrals."""
    bv = m.B(NODES)
    cv = m.C(NODES)
    a_grid = m.eval_A_grid(NODES, NODES)
    wb = WEIGHTS * bv
    wc = WEIGHTS * cv
    out = {
        1: wb.sum() - 1,
        2: (wb * cv).sum() - 1 / 2,
        3: (wb * cv**2).sum() - 1 / 3,
        5: (wb * cv**3).sum() - 1 / 4,
        4: wb @ a_grid @ wc - 1 / 6,
        6: (wb * cv) @ a_grid @ wc - 1 / 8,
        7: wb @ a_grid @ (WEIGHTS * cv**2) - 1 / 12,
        8: (wb @ a_grid) @ (WEIGHTS[:, None] * a_grid @ wc) - 1 / 24,
    }
    return out


def test_order_condition_residuals_match_quadrature_oracle():
    rng = random.Random(55)
    methods = [minimal_method(), avf_method()] + [
        random_general_method(rng, 5, 5) for _ in range(10)
    ]
    for m in methods:
        exact = order_condition_residuals(m)
        approx = quad_order_conditions(m)
        for c in range(1, 9):
            assert float(exact[c]) == pytest.approx(approx[c], abs=1e-12)


# -- simplifying assumptions ----------------------------------------------------


def test_simplifying_levels_for_named_methods():
    lv = check_simplifying(construct_simplifying(2, 1))
    assert math.isinf(lv.rho)
    assert lv.eta == 2 and lv.zeta == 1
    lv2 = check_simplifying(minimal_method())
    assert math.isinf(lv2.rho)
    assert lv2.eta == 1 and lv2.zeta == 1
    lv3 = check_simplifying(avf_method())
    assert lv3.eta == 1 and lv3.zeta == 0
    lv4 = check_simplifying(construct_simplifying(1, 2))
    assert lv4.eta == 1 and lv4.zeta == 2


def mono_breve_defects(m, k):
    """Monomial-basis reference for the C- and D-defects, by exact projection."""

    def mono(coeffs):
        return UnivariatePoly(coeffs).to_monomial()

    def project(p, n):
        return [mono_int01(mono_mul(p, legendre_monomial(i))) for i in range(n + 1)]

    def minus(a, b):
        n = max(len(a), len(b))
        out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    rows, cols = range(m.pi_tau + 1), range(m.pi_sigma + 1)
    bm, cm = mono(m.B.coeffs), mono(m.C.coeffs)
    proj = project(mono_pow(cm, k - 1), m.pi_sigma)
    lhs = [sum((m.entry(i, j) * proj[j] for j in cols), Scalar(0)) for i in rows]
    c_def = minus(mono(lhs), [v / k for v in mono_pow(cm, k)])
    proj = project(mono_mul(bm, mono_pow(cm, k - 1)), m.pi_tau)
    lhs = [sum((m.entry(i, j) * proj[i] for i in rows), Scalar(0)) for j in cols]
    rhs = minus(bm, mono_mul(bm, mono_pow(cm, k)))
    d_def = minus(mono(lhs), [v / k for v in rhs])
    return c_def, d_def


def test_breve_defects_match_monomial_reference():
    rng = random.Random(71)
    methods = [construct_simplifying(2, 1), avf_method()]
    methods += [random_general_method(rng, 3, 3, bdeg=1) for _ in range(4)]
    for m in methods:
        for k in (1, 2, 3):
            assert (c_breve_defect(m, k), d_breve_defect(m, k)) == mono_breve_defects(m, k)


def test_check_simplifying_power_ladder_passes_the_basis_cap():
    # ep-general has B = C' and C(0) = 0; with int B = 1 every weight moment
    # int B C^(k-1) = 1/k holds, so rho probes C^19, here of degree 38 > CAP
    from csrk.method import construct_ep_general

    g = UnivariatePoly([1, Fraction(1, 2)])
    m = construct_ep_general(EpSpec((Scalar(1),), (g,))).method
    assert m.C.degree == 2 and not m.is_c_tau()
    lv = check_simplifying(m)
    assert lv.rho == 20
    bm, cm = m.B.to_monomial(), m.C.to_monomial()
    for k in range(1, 21):
        assert mono_int01(mono_mul(bm, mono_pow(cm, k - 1))) == Fraction(1, k)
    assert len(mono_pow(cm, 19)) == 39
    assert (lv.eta, lv.zeta) == (1, 0)


def test_guaranteed_order_examples():
    assert guaranteed_order(construct_simplifying(2, 1)) == 4
    assert guaranteed_order(minimal_method()) == 3
    assert guaranteed_order(avf_method()) == 2
    assert guaranteed_order(construct_simplifying(1, 2)) == 4
    assert order_bound(math.inf, 2, 1) == 4
    assert order_bound(3, 5, 5) == 3
    assert order_bound(math.inf, 1, 5) == 4
    for m in (construct_simplifying(3, 2), minimal_method(), avf_method()):
        assert build_property_report(m).guaranteed_order == guaranteed_order(m)


def test_simplifying_construction_reaches_requested_levels():
    rng = random.Random(77)
    for _ in range(12):
        a = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        free = {(b + 1, a + 1): Fraction(rng.randrange(-2, 3), 3)}
        m = construct_simplifying(a, b, free)
        lv = check_simplifying(m, cap=8)
        assert lv.eta >= a
        assert lv.zeta >= b


def test_direct_order_at_least_guaranteed():
    rng = random.Random(13)
    cases = [construct_simplifying(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
    cases += [random_tau_method(rng) for _ in range(5)]
    for m in cases:
        direct = check_order_conditions(m).order
        assert direct >= min(guaranteed_order(m), 4)


# -- geometric residuals --------------------------------------------------------


def test_max_abs_is_exact():
    # the two entries round to the same float; the larger must still win
    big = Scalar(1) + Fraction(1, 10**20)
    assert _max_abs([Scalar(1), big]) == big
    assert _max_abs([big, -Scalar(1)]) == big
    assert _max_abs([-big, Scalar(1)]) == big
    assert _max_abs([Scalar(0), Scalar(0)]) == 0
    assert _max_abs([]) == 0
    assert _max_abs([Scalar.sqrt(2) - Fraction(141421356237, 10**11), Scalar(0)]).sign() == 1


@pytest.mark.parametrize(
    "values, expected",
    [
        ([Scalar(1), Scalar(1) + Fraction(1, 10**40)], Scalar(1) + Fraction(1, 10**40)),
        ([Scalar(1) + Fraction(1, 10**40), -Scalar(1)], Scalar(1) + Fraction(1, 10**40)),
        ([Scalar.sqrt(2) - 1, 1 - Scalar.sqrt(2)], Scalar.sqrt(2) - 1),
        ([1 - Scalar.sqrt(2), Scalar.sqrt(2) - 1], Scalar.sqrt(2) - 1),
        # both floats 0.0
        ([Scalar(Fraction(1, 10**400)), -Scalar(Fraction(2, 10**400))], Fraction(2, 10**400)),
        # both floats overflow
        ([-Scalar(2 * 10**400), Scalar(10**400), Scalar(1)], 2 * 10**400),
        ([Scalar(0), -Scalar(0), Scalar(0)], 0),
    ],
)
def test_max_abs_compares_exactly_among_the_entries_tied_at_the_top_float(values, expected):
    got = _max_abs(values)
    assert got == expected
    assert got == max(abs(v) for v in values)


def test_max_abs_separates_sqrt2_from_rationals_on_its_double():
    root2 = Scalar.sqrt(2)
    near = Fraction(math.sqrt(2))  # the double nearest sqrt(2)
    below, above = near - Fraction(1, 10**30), near + Fraction(1, 10**30)
    for r in (near, below, above):
        assert float(Scalar(r)) == float(root2)
        rational = Scalar(r)
        larger = root2 if (root2 - rational).sign() > 0 else rational
        assert _max_abs([root2, -rational]) == larger
        assert _max_abs([rational, -root2]) == larger


def test_symplectic_residual_examples():
    assert not symplectic_residual(minimal_method())
    assert symplectic_residual(avf_method()) == S36
    rng = random.Random(19)
    for _ in range(20):
        m = construct_symplectic(
            {(rng.randrange(1, 3), rng.randrange(3, 6)): Fraction(rng.randrange(-3, 4), 2)}
        )
        assert not symplectic_residual(m)


def test_symplectic_residual_matches_matrix_predicate():
    rng = random.Random(23)
    for _ in range(30):
        m = random_tau_method(rng, 3, 3)
        n = max(m.pi_tau, m.pi_sigma) + 1
        predicate = m.entry(0, 0) == HALF and all(
            m.entry(i, j) == -m.entry(j, i)
            for i in range(n)
            for j in range(n)
            if i + j > 0
        )
        assert (not symplectic_residual(m)) == predicate


def test_symmetric_residual_examples():
    assert not symmetric_residual(minimal_method())
    assert not symmetric_residual(avf_method())
    m = new_method(
        [[HALF], [0], [xi(2)]], ONE, UnivariatePoly([HALF, 0, xi(2)])
    )
    res = symmetric_residual(m)
    assert res == 2 * xi(2)
    plus = construct_symmetric({(0, 1): S36})
    assert not symmetric_residual(plus)
    assert symplectic_residual(plus) == Scalar.sqrt(3, Fraction(1, 3))


def test_symmetric_residual_matches_parity_predicate():
    rng = random.Random(29)
    for _ in range(30):
        m = random_tau_method(rng, 3, 3)
        n = max(m.pi_tau, m.pi_sigma) + 1
        predicate = all(
            not m.entry(i, j)
            for i in range(n)
            for j in range(n)
            if (i + j) % 2 == 0 and (i, j) != (0, 0)
        )
        assert (not symmetric_residual(m)) == predicate


def test_symmetric_residual_requires_unit_weight_integral():
    m = new_method([[1, 0], [0, Fraction(1, 5)]], UnivariatePoly([2]), UnivariatePoly([1]))
    with pytest.raises(ValueError):
        symmetric_residual(m)


def test_energy_preserving_residual_examples():
    assert energy_preserving_residual(avf_method()) == (Scalar(0), Scalar(0), Scalar(0))
    ep = construct_ep_legendre([1, 1]).method
    assert energy_preserving_residual(ep) == (Scalar(0), Scalar(0), Scalar(0))
    r1, r2, r3 = energy_preserving_residual(minimal_method())
    assert not r1
    assert r2 == S36
    assert r3 == S36


def test_ep_constructions_pass_certificate_for_random_weights():
    rng = random.Random(31)
    for _ in range(15):
        omegas = [1] + [Fraction(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in range(3)]
        res = construct_ep_legendre(omegas)
        assert energy_preserving_residual(res.method) == (Scalar(0),) * 3


def test_ep_general_passes_certificate_for_random_generators():
    from csrk.method import construct_ep_general

    rng = random.Random(33)
    for _ in range(10):
        gens = tuple(
            UnivariatePoly([Fraction(rng.randrange(-2, 3), 2) for _ in range(rng.randrange(1, 4))])
            for _ in range(2)
        )
        omegas = (Scalar(1), Scalar(Fraction(rng.randrange(-2, 3), 2)))
        res = construct_ep_general(EpSpec(omegas, gens))
        assert energy_preserving_residual(res.method) == (Scalar(0),) * 3


def test_check_epm2_condition():
    p0 = UnivariatePoly([1])
    p1 = UnivariatePoly([0, 1])
    ok, witness = check_epm2_condition(EpSpec((Scalar(1),), (p0,)), 1)
    assert ok and witness is None
    ok2, _ = check_epm2_condition(EpSpec((Scalar(1), Scalar(1)), (p0, p1)), 2)
    assert ok2
    ok3, witness3 = check_epm2_condition(EpSpec((Scalar(2),), (p0,)), 1)
    assert not ok3 and witness3 == (0, 0)


# -- quadrature oracle equivalence ----------------------------------------------


def numeric_tensor_projection(values_fn, n):
    """coeff[i][j] = quadrature of f(t, s) P_i(t) P_j(s)."""
    grid = values_fn(NODES)
    table = legendre_table(n, NODES)
    return (table * WEIGHTS) @ grid @ (table * WEIGHTS).T


def test_symplectic_residual_matches_quadrature_oracle():
    rng = random.Random(37)
    for m in [random_general_method(rng, 6, 6) for _ in range(8)] + [minimal_method()]:
        def defect(x):
            a = m.eval_A_grid(x, x)
            bv = m.B(x)
            return bv[:, None] * a + (bv[:, None] * a).T - np.outer(bv, bv)

        n = max(m.pi_tau, m.pi_sigma) + m.B.degree + 1
        numeric = numeric_tensor_projection(defect, n)
        assert float(symplectic_residual(m)) == pytest.approx(
            np.max(np.abs(numeric)), abs=1e-12
        )


def test_symmetric_residual_matches_quadrature_oracle():
    rng = random.Random(41)
    for m in [random_general_method(rng, 6, 6, bdeg=0) for _ in range(8)]:
        def defect(x):
            return m.eval_A_grid(x, x) + m.eval_A_grid(1 - x, 1 - x) - m.B(x)[None, :]

        n = max(m.pi_tau, m.pi_sigma, m.B.degree) + 1
        numeric = numeric_tensor_projection(defect, n)
        assert float(symmetric_residual(m)) == pytest.approx(
            np.max(np.abs(numeric)), abs=1e-12
        )


def complex_legendre_table(n, x):
    """Recurrence table that admits complex abscissae (for complex-step d/dx)."""
    t = 2.0 * x - 1.0
    vals = np.empty((n + 1, x.size), dtype=complex)
    vals[0] = 1.0
    if n >= 1:
        vals[1] = t
    for k in range(1, n):
        vals[k + 1] = ((2 * k + 1) * t * vals[k] - k * vals[k - 1]) / (k + 1)
    return vals * np.sqrt(2 * np.arange(n + 1) + 1)[:, None]


def test_energy_residual_matches_quadrature_oracle():
    rng = random.Random(43)
    step = 1e-20
    for m in [random_general_method(rng, 5, 5) for _ in range(8)] + [minimal_method()]:
        af = m.alpha_floats()
        pt = complex_legendre_table(m.pi_tau, NODES + 1j * step)
        ps = complex_legendre_table(m.pi_sigma, NODES.astype(complex))
        dgrid = np.imag(pt.T @ af @ ps) / step

        n = max(m.pi_tau, m.pi_sigma, m.B.degree)
        table = legendre_table(n, NODES)
        proj = (table * WEIGHTS) @ dgrid @ (table * WEIGHTS).T
        numeric1 = np.max(np.abs(proj - proj.T))
        a0 = (table * WEIGHTS) @ m.eval_A_grid(np.array([0.0]), NODES)[0]
        a1 = (table * WEIGHTS) @ (
            m.eval_A_grid(np.array([1.0]), NODES)[0] - m.B(NODES)
        )
        numeric2 = np.max(np.abs(a0))
        numeric3 = np.max(np.abs(a1))
        e1, e2, e3 = energy_preserving_residual(m)
        assert float(e1) == pytest.approx(numeric1, abs=1e-12)
        assert float(e2) == pytest.approx(numeric2, abs=1e-12)
        assert float(e3) == pytest.approx(numeric3, abs=1e-12)


# -- contraction bound -----------------------------------------------------------


def brute_force_bound(m, lipschitz, ntau=2001, nsig=20001, rows=64):
    taus = np.linspace(0, 1, ntau)
    sig = np.linspace(0, 1, nsig)
    # the trapezoid over sigma, taken `rows` tau values at a time to bound memory
    integrals = np.concatenate([
        np.trapezoid(np.abs(m.eval_A_grid(taus[k:k + rows], sig)), sig, axis=1)
        for k in range(0, ntau, rows)
    ])
    return 1.0 / (lipschitz * integrals.max())


def reference_contraction_bound(m, lipschitz):
    """The per-tau loop the batched bound replaced: legtrim, legroots, legint per tau."""
    leg = np.polynomial.legendre
    a = np.array(_l_form(m).a or [[0]], dtype=float)

    def g_at(taus):
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


def contraction_pinning_methods():
    """The golden corpus, 20 random general methods and the edge cases of the batched roots."""
    from make_golden import corpus

    methods = list(corpus())
    rng = random.Random(61)
    for n in range(20):
        dtau, dsigma = rng.randrange(3, 7), rng.randrange(3, 7)
        methods.append((f"general-{n}", random_general_method(rng, dtau, dsigma, n % 3)))
    methods += [
        ("zero", new_method([[0]], ONE, UnivariatePoly([0]))),
        # constant in sigma, changing sign in tau: every series has length 1
        ("sigma-constant", new_method([[HALF], [3 * S36]], ONE, UnivariatePoly([HALF, 3 * S36]))),
        # linear in sigma: the length-2 roots
        ("sigma-linear", new_method([[HALF, HALF], [S36, -HALF]], ONE, TAU)),
    ]
    # A = 1 + c L_1(tau) L_2(sigma): the sigma^2 coefficient vanishes at the grid point
    # tau = 1/2, so one batch holds series of lengths 1 and 3
    for c in (1, 3):
        rows = [[Scalar(1), 0, 0], [0, 0, Scalar.sqrt(15, Fraction(c, 15))]]
        methods.append((f"mixed-lengths-{c}", new_method(rows, ONE, ONE)))
    return methods


def test_batched_contraction_bound_matches_the_per_tau_loop():
    for name, m in contraction_pinning_methods():
        got = stage_contraction_bound(m, 1.0)
        assert got == pytest.approx(reference_contraction_bound(m, 1.0), rel=1e-14), name


def test_contraction_bound_edge_cases():
    methods = dict(contraction_pinning_methods())
    assert stage_contraction_bound(methods["zero"], 1.0) == math.inf
    # A = 1/2 + (3/2)(2 tau - 1) has |A| = 2 at tau = 1
    assert stage_contraction_bound(methods["sigma-constant"], 1.0) == pytest.approx(0.5, rel=1e-14)
    a = np.array(_l_form(methods["mixed-lengths-3"]).a, dtype=float)
    series = np.polynomial.legendre.legval(np.array([-0.5, 0.0, 0.5]), a)
    assert series[2].tolist() == [-1.5, 0.0, 1.5]
    # g is convex in L_1(tau), so it peaks at tau = 0 with A = (5 - 9 x^2)/2, x = 2 sigma - 1,
    # which changes sign at x = sqrt(5)/3: g(0) = 10 sqrt(5)/9 - 1
    assert stage_contraction_bound(methods["mixed-lengths-3"], 1.0) == pytest.approx(
        1 / (10 * math.sqrt(5) / 9 - 1), rel=1e-12
    )


def test_contraction_bound_returns_a_python_float():
    methods = dict(contraction_pinning_methods())
    for name in ("zero", "sigma-linear", "general-0"):
        assert type(stage_contraction_bound(methods[name], 1.0)) is float, name


def test_contraction_bound_avf():
    assert stage_contraction_bound(avf_method(), 1.0) == pytest.approx(1.0, abs=1e-6)


def test_contraction_bound_minimal_matches_piecewise_oracle():
    m = minimal_method()
    got = stage_contraction_bound(m, 1.0)
    assert got == pytest.approx(brute_force_bound(m, 1.0), abs=1e-4)
    assert got == pytest.approx(1.0, abs=1e-6)


def test_contraction_bound_scales_with_lipschitz():
    m = construct_simplifying(2, 1)
    b1 = stage_contraction_bound(m, 1.0)
    b10 = stage_contraction_bound(m, 10.0)
    assert b10 == pytest.approx(b1 / 10, rel=1e-12)
    assert stage_contraction_bound(m, 1.0) == pytest.approx(
        brute_force_bound(m, 1.0), abs=1e-4
    )
    with pytest.raises(ValueError):
        stage_contraction_bound(m, 0.0)


def test_contraction_bound_random_methods_against_oracle():
    rng = random.Random(47)
    for degree in (3, 6):  # a monomial-basis root search loses most accuracy at degree 6
        for _ in range(5):
            m = random_tau_method(rng, degree, degree)
            assert stage_contraction_bound(m, 1.0) == pytest.approx(
                brute_force_bound(m, 1.0), rel=2e-3
            )


# -- report ----------------------------------------------------------------------


def test_property_report_minimal():
    rep = build_property_report(minimal_method())
    assert rep.verified_order_direct == 4
    assert rep.guaranteed_order == 3
    assert rep.flags == {"symplectic": True, "symmetric": True, "energy_preserving": False}
    d = report_to_json_dict(rep)
    assert d["breve"]["B"] == "inf"
    assert d["residuals"]["symplectic"] == "0"
    assert d["flags"]["symplectic"] is True


def test_shared_l_form_matches_fresh_computation():
    """Certifiers sharing one cached L form give what each gives on its own."""
    rng = random.Random(53)
    m1 = random_general_method(rng, 4, 3, 2)
    m2 = random_general_method(rng, 3, 4, 1)
    twin = new_method(m1.alpha, m1.B, m1.C, "twin")  # m1 but for its label
    reweighted = new_method(m1.alpha, UnivariatePoly([1, Fraction(1, 3)]), m1.C)
    assert reweighted.B != m1.B
    calls = [
        (build_property_report, m1), (build_property_report, m2),
        (build_property_report, m1), (c_breve_defect, m2, 3),
        (check_simplifying, m1), (d_breve_defect, m2, 2),
        (build_property_report, twin), (c_breve_defect, m1, 3),
        (d_breve_defect, twin, 3), (check_order_conditions, m2),
        (symplectic_residual, twin), (energy_preserving_residual, m1),
        (build_property_report, reweighted), (d_breve_defect, m1, 3),
    ]
    _l_form.cache_clear()
    shared = [fn(*args) for fn, *args in calls]
    for (fn, *args), got in zip(calls, shared):
        _l_form.cache_clear()
        assert got == fn(*args), (fn.__name__, args[0].label)


def test_report_and_defects_convert_the_tensor_once(monkeypatch):
    converted = []

    def counting(alpha):
        converted.append(alpha)
        return tensor_to_l(alpha)

    tensor_to_l = csrk.verify.tensor_to_l
    monkeypatch.setattr(csrk.verify, "tensor_to_l", counting)
    _l_form.cache_clear()
    m = random_general_method(random.Random(59), 4, 4, 2)
    build_property_report(m)
    for k in (1, 2, 3):
        c_breve_defect(m, k)
        d_breve_defect(m, k)
    assert len(converted) == 1


def test_property_report_avf():
    rep = build_property_report(avf_method())
    assert rep.verified_order_direct == 2
    assert rep.flags == {"symplectic": False, "symmetric": True, "energy_preserving": True}
    assert rep.h_bound_per_unit_L == pytest.approx(1.0, abs=1e-6)
