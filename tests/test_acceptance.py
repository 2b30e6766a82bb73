"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 9's documented bound value is implemented as stated
and marked as an expected failure: the defining integral max_t int |A|
evaluates to 1 for the minimal method (see the companion behavior test,
which pins the oracle-computed value).
"""

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from csrk.exact import Scalar
from csrk.legendre import ONE, TAU, UnivariatePoly, mono_int01
from csrk.method import (
    EpSpec,
    construct_ep_general,
    construct_ep_legendre,
    construct_order_by_order,
    construct_simplifying,
    construct_symmetric,
    construct_symplectic,
    new_method,
)
from csrk.verify import (
    c_breve_defect,
    check_order_conditions,
    d_breve_defect,
    energy_preserving_residual,
    order_condition_residuals,
    stage_contraction_bound,
    symmetric_residual,
    symplectic_residual,
)
from csrk.discretize import (
    discretize,
    explicit_euler,
    gauss_legendre,
    predicted_rk_order,
    rk_symplectic_residual,
)
from csrk.integrate import (
    NonConvergence,
    OdeProblem,
    StepperConfig,
    builtin_problem,
    empirical_order,
    energy_drift,
    integrate,
    invariant_drift,
    rk_step,
    symmetry_residual,
    symplecticity_residual,
)

HALF = Fraction(1, 2)
S36 = Scalar.sqrt(3, Fraction(1, 6))
H_LIST = [0.2, 0.1, 0.05, 0.025]
T_FINAL = 2.0
NEWTON = StepperConfig(tol=1e-13, solver="newton")


def announce(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def minimal_method():
    return new_method([[HALF, -S36], [S36, 0]], ONE, TAU, "minimal")


def avf_method():
    return construct_ep_legendre([1]).method


def sigma_average(m):
    """Independent consistency oracle: row-wise monomial integration of A."""
    coeffs = []
    for i in range(m.pi_tau + 1):
        row = UnivariatePoly([m.entry(i, j) for j in range(m.pi_sigma + 1)])
        coeffs.append(mono_int01(row.to_monomial()))
    return UnivariatePoly(coeffs)


def random_tau_method(rng, dtau=4, dsigma=4):
    rows = [[Scalar(0)] * (dsigma + 1) for _ in range(dtau + 1)]
    rows[0][0] = Scalar(HALF)
    rows[1][0] = S36
    for i in range(dtau + 1):
        for j in range(1, dsigma + 1):
            rows[i][j] = Scalar(Fraction(rng.randrange(-3, 4), rng.randrange(2, 6)))
    return new_method(rows, ONE, TAU)


def random_general_method(rng, dtau=6, dsigma=6, bdeg=2):
    rows = [
        [Scalar(Fraction(rng.randrange(-2, 3), rng.randrange(6, 13))) for _ in range(dsigma + 1)]
        for _ in range(dtau + 1)
    ]
    c_poly = UnivariatePoly([row[0] for row in rows])
    b = UnivariatePoly(
        [1] + [Fraction(rng.randrange(-2, 3), rng.randrange(3, 7)) for _ in range(bdeg)]
    )
    return new_method(rows, b, c_poly)


@lru_cache(maxsize=None)
def order_estimate(case: str):
    if case == "minimal-harmonic":
        t = discretize(minimal_method(), gauss_legendre(2))
        return empirical_order(t, builtin_problem("harmonic"), H_LIST, T_FINAL)
    if case == "avf-pendulum":
        t = discretize(avf_method(), gauss_legendre(3))
        return empirical_order(t, builtin_problem("pendulum"), H_LIST, T_FINAL)
    if case == "ep11-pendulum":
        t = discretize(construct_ep_legendre([1, 1]).method, gauss_legendre(4))
        return empirical_order(t, builtin_problem("pendulum"), H_LIST, T_FINAL)
    if case == "simplifying21-harmonic":
        t = discretize(construct_simplifying(2, 1), gauss_legendre(2))
        return empirical_order(t, builtin_problem("harmonic"), H_LIST, T_FINAL)
    raise KeyError(case)


# -- 1. consistency certificate -------------------------------------------------


def test_a01_consistency_certificate():
    rng = random.Random(1001)
    count = 0
    for _ in range(50):
        frac = Fraction(rng.randrange(-3, 4), rng.randrange(2, 6))
        samples = [
            construct_order_by_order(
                rng.choice([2, 3, 4]), {(rng.randrange(1, 4), rng.randrange(2, 5)): frac}
            ),
            construct_simplifying(
                rng.randrange(1, 4),
                rng.randrange(1, 4),
                {(4, 4): frac},
            ),
            construct_symplectic({(rng.randrange(1, 3), rng.randrange(3, 6)): frac}),
            construct_symmetric({rng.choice([(0, 1), (2, 1), (1, 2), (3, 2), (2, 3)]): frac}),
            construct_ep_legendre([1, frac, Fraction(1, 2)]).method,
            construct_ep_general(
                EpSpec(
                    (Scalar(1), Scalar(frac)),
                    (UnivariatePoly([1]), UnivariatePoly([frac, 1, Fraction(1, 3)])),
                )
            ).method,
        ]
        for m in samples:
            assert sigma_average(m) == m.C
            count += 1
    assert count >= 300
    announce(1, "consistency-certificate")


# -- 2. reduced coefficient relations -------------------------------------------


def test_a02_reduced_coefficient_relations():
    # For B = 1, C = tau the order-condition integrals reduce to the paper's
    # coefficient relations (4), (6), (7) and (8), written out here.
    rng = random.Random(1002)
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
    announce(2, "reduced-coefficient-relations")


# -- 3. Gauss recovery ------------------------------------------------------------


def test_a03_gauss_recovery():
    r3 = math.sqrt(3) / 6
    expected_a = np.array([[0.25, 0.25 - r3], [0.25 + r3, 0.25]])
    for method in (construct_simplifying(1, 1), construct_simplifying(2, 1)):
        t = discretize(method, gauss_legendre(2))
        assert np.max(np.abs(t.a - expected_a)) < 1e-13
        assert np.max(np.abs(t.b - 0.5)) < 1e-13
    announce(3, "gauss-recovery")


# -- 4. order certificates vs empirical order --------------------------------------


def test_a04_order_certificates_vs_empirical():
    assert check_order_conditions(minimal_method()).order == 4
    est = order_estimate("minimal-harmonic")
    assert est.slope == pytest.approx(4.0, abs=0.2)

    avf = construct_ep_legendre([1])
    assert avf.claimed_order == 2
    assert check_order_conditions(avf.method).order == 2
    est2 = order_estimate("avf-pendulum")
    assert est2.slope == pytest.approx(2.0, abs=0.2)

    ep11 = construct_ep_legendre([1, 1])
    assert ep11.kappa == 2 and ep11.claimed_order == 4
    assert check_order_conditions(ep11.method).order == 4
    est3 = order_estimate("ep11-pendulum")
    assert est3.slope == pytest.approx(4.0, abs=0.2)
    announce(4, "order-certificates-vs-empirical")


# -- 5. order predictions are lower bounds ------------------------------------------


def test_a05_prediction_lower_bounds():
    cases = [
        ("minimal-harmonic", minimal_method(), 2),
        ("avf-pendulum", avf_method(), 3),
        ("ep11-pendulum", construct_ep_legendre([1, 1]).method, 4),
        ("simplifying21-harmonic", construct_simplifying(2, 1), 2),
    ]
    for case, method, stages in cases:
        predicted = predicted_rk_order(method, gauss_legendre(stages))
        est = order_estimate(case)
        assert est.slope >= predicted - 0.2
    # the documented strict case: prediction 3, realized order 4
    assert predicted_rk_order(minimal_method(), gauss_legendre(2)) == 3
    assert order_estimate("minimal-harmonic").slope == pytest.approx(4.0, abs=0.2)
    announce(5, "prediction-lower-bounds")


# -- 6. symplectic transfer ----------------------------------------------------------


def test_a06_symplectic_transfer():
    rng = random.Random(1006)
    kepler = builtin_problem("kepler", eccentricity=0.6)
    for _ in range(20):
        m = construct_symplectic(
            {
                (rng.randrange(1, 3), rng.randrange(3, 6)): Fraction(
                    rng.randrange(-2, 3), rng.randrange(4, 7)
                )
            }
        )
        assert not symplectic_residual(m)
        for s in (1, 2, 3):
            assert rk_symplectic_residual(discretize(m, gauss_legendre(s))) <= 1e-14
        t = discretize(m, gauss_legendre(2))
        traj = integrate(t, kepler, 0.01, 1000, NEWTON)
        assert invariant_drift(traj, kepler, "angular_momentum") <= 1e-10
        assert symplecticity_residual(t, kepler, kepler.z0, 0.01, NEWTON) <= 1e-8
    announce(6, "symplectic-transfer")


# -- 7. energy preservation -----------------------------------------------------------


def test_a07_energy_preservation():
    pend = builtin_problem("pendulum")
    for omegas in ([1], [1, 1]):
        res = construct_ep_legendre(omegas)
        assert energy_preserving_residual(res.method) == (Scalar(0), Scalar(0), Scalar(0))
        t = discretize(res.method, gauss_legendre(10))
        traj = integrate(t, pend, 0.1, 1000)
        assert energy_drift(traj, pend) < 1e-10
    control = integrate(explicit_euler(), pend, 0.1, 1000)
    assert energy_drift(control, pend) > 1e-3
    announce(7, "energy-preservation")


# -- 8. symmetry -------------------------------------------------------------------


def test_a08_symmetry():
    methods = [
        minimal_method(),
        avf_method(),
        construct_ep_legendre([1, 1]).method,
        construct_symmetric({(0, 1): S36}),
        construct_symmetric({(1, 2): Fraction(1, 3)}),
    ]
    problems = [
        builtin_problem("harmonic"),
        builtin_problem("pendulum"),
        builtin_problem("kepler", eccentricity=0.6),
    ]
    for m in methods:
        assert not symmetric_residual(m)
        t = discretize(m, gauss_legendre(3))
        for p in problems:
            assert symmetry_residual(t, p, p.z0, 0.1, NEWTON) < 1e-12
    pend = builtin_problem("pendulum")
    assert symmetry_residual(explicit_euler(), pend, pend.z0, 0.1) > 1e-4
    announce(8, "symmetry")


# -- 9. contraction bound --------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason=(
        "documented value 8/5 contradicts the defining integral: "
        "max over tau of int |1/2 + tau - sigma| dsigma is 1 (attained at tau = 1), "
        "so the bound for L = 1 is 1.0, not 1.6"
    ),
)
def test_a09_contraction_bound_documented_value():
    assert stage_contraction_bound(minimal_method(), 1.0) == pytest.approx(1.6, abs=1e-6)


def test_a09_contraction_bound_behavior():
    # piecewise oracle for A = 1/2 + tau - sigma:
    # int_0^1 |1/2 + tau - sigma| dsigma = tau**2 + 1/4 for tau < 1/2, else tau
    taus = np.linspace(0, 1, 100001)
    g = np.where(taus < 0.5, taus**2 + 0.25, taus)
    oracle = 1.0 / g.max()
    assert oracle == 1.0
    assert stage_contraction_bound(minimal_method(), 1.0) == pytest.approx(oracle, abs=1e-6)

    decay = OdeProblem(dim=1, rhs=lambda t, z: -z, z0=np.array([1.0]), lipschitz=1.0)
    midpoint = discretize(minimal_method(), gauss_legendre(1))
    with pytest.raises(NonConvergence):
        rk_step(midpoint, decay, 0.0, decay.z0, 2.0)
    z1 = rk_step(midpoint, decay, 0.0, decay.z0, 0.5)
    assert z1[0] == pytest.approx((1 - 0.25) / (1 + 0.25), abs=1e-12)
    announce(9, "contraction-bound (oracle value 1.0; documented 1.6 expected-fail)")


# -- 10. oracle quadrature equivalence ---------------------------------------------------


def ld_legendre_table(n, x):
    """Orthonormal-basis table at arbitrary precision/dtype abscissae."""
    t = 2.0 * x - 1.0
    vals = np.empty((n + 1, x.size), dtype=x.dtype)
    vals[0] = 1.0
    if n >= 1:
        vals[1] = t
    for k in range(1, n):
        vals[k + 1] = ((2 * k + 1) * t * vals[k] - k * vals[k - 1]) / (k + 1)
    return vals * np.sqrt(2 * np.arange(n + 1, dtype=np.longdouble) + 1)[:, None]


def gauss30_extended():
    """30-node Gauss rule on [0, 1], Newton-polished in extended precision.

    Double-precision nodes limit a quadrature oracle to ~1e-12 when the
    integrand has steep gradients; polishing removes that floor.
    """
    x = np.polynomial.legendre.leggauss(30)[0].astype(np.longdouble)
    for _ in range(3):
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(1, 30):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        dp = 30 * (p_prev - x * p) / (1 - x * x)
        x = x - p / dp
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(1, 30):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = 30 * (p_prev - x * p) / (1 - x * x)
    w = 2.0 / ((1 - x * x) * dp * dp)
    return (x + 1) / 2, w / 2


X30, W30 = gauss30_extended()


def max_abs(values):
    out = 0.0
    for v in values:
        out = max(out, abs(float(v)))
    return out


def test_a10_oracle_quadrature_equivalence():
    rng = random.Random(1010)
    table_cache = {}

    def raw(n, x=X30):
        key = (n, float(x[0]))
        if key not in table_cache:
            table_cache[key] = ld_legendre_table(n, x)
        return table_cache[key]

    def wtab(n):
        return raw(n) * W30

    for _ in range(50):
        m = random_general_method(rng)
        af = m.alpha_floats().astype(np.longdouble)
        a_grid = raw(m.pi_tau).T @ af @ raw(m.pi_sigma)
        bv = m.B.float_coeffs().astype(np.longdouble) @ raw(m.B.degree)
        cv = m.C.float_coeffs().astype(np.longdouble) @ raw(m.C.degree)
        wb = W30 * bv
        wc = W30 * cv

        # order conditions
        exact = order_condition_residuals(m)
        one = np.longdouble(1)
        approx = {
            1: wb.sum() - one,
            2: (wb * cv).sum() - one / 2,
            3: (wb * cv**2).sum() - one / 3,
            5: (wb * cv**3).sum() - one / 4,
            4: wb @ a_grid @ wc - one / 6,
            6: (wb * cv) @ a_grid @ wc - one / 8,
            7: wb @ a_grid @ (W30 * cv**2) - one / 12,
            8: (wb @ a_grid) @ (W30[:, None] * a_grid @ wc) - one / 24,
        }
        for c in range(1, 9):
            assert float(exact[c]) == pytest.approx(float(approx[c]), abs=1e-12)

        # moment identities at levels 1..3
        for k in (1, 2, 3):
            defect_tau = a_grid @ (W30 * cv ** (k - 1)) - cv**k / k
            exact_c_poly = UnivariatePoly.from_monomial(c_breve_defect(m, k))
            numeric = wtab(max(exact_c_poly.degree, m.pi_tau)) @ defect_tau
            assert max_abs(exact_c_poly.coeffs) == pytest.approx(
                float(np.max(np.abs(numeric))), abs=1e-12
            )

            defect_sig = (wb * cv ** (k - 1)) @ a_grid - bv * (1 - cv**k) / k
            exact_d_poly = UnivariatePoly.from_monomial(d_breve_defect(m, k))
            numeric_d = wtab(max(exact_d_poly.degree, m.pi_sigma)) @ defect_sig
            assert max_abs(exact_d_poly.coeffs) == pytest.approx(
                float(np.max(np.abs(numeric_d))), abs=1e-12
            )

        # geometric residuals
        n = max(m.pi_tau, m.pi_sigma) + m.B.degree + 1
        sym_defect = bv[:, None] * a_grid + (bv[:, None] * a_grid).T - np.outer(bv, bv)
        numeric_sym = wtab(n) @ sym_defect @ wtab(n).T
        assert float(symplectic_residual(m)) == pytest.approx(
            float(np.max(np.abs(numeric_sym))), abs=1e-12
        )

        rev_t = raw(m.pi_tau, 1 - X30).T @ af @ raw(m.pi_sigma, 1 - X30)
        numeric_rev = wtab(n) @ (a_grid + rev_t - bv[None, :]) @ wtab(n).T
        assert float(symmetric_residual(m)) == pytest.approx(
            float(np.max(np.abs(numeric_rev))), abs=1e-12
        )

        # complex-step differentiation for the tau-derivative of A
        step = np.longdouble(1e-20)
        pt = ld_legendre_table(m.pi_tau, X30.astype(np.clongdouble) + 1j * step)
        dgrid = np.imag(pt.T @ af.astype(np.clongdouble) @ raw(m.pi_sigma)) / step
        proj = wtab(n) @ dgrid @ wtab(n).T
        e1, e2, e3 = energy_preserving_residual(m)
        assert float(e1) == pytest.approx(float(np.max(np.abs(proj - proj.T))), abs=1e-12)
        ends = np.array([0.0, 1.0], dtype=np.longdouble)
        end_grid = raw(m.pi_tau, ends).T @ af @ raw(m.pi_sigma)
        a_at_0 = wtab(n) @ end_grid[0]
        a_at_1 = wtab(n) @ (end_grid[1] - bv)
        assert float(e2) == pytest.approx(float(np.max(np.abs(a_at_0))), abs=1e-12)
        assert float(e3) == pytest.approx(float(np.max(np.abs(a_at_1))), abs=1e-12)
    announce(10, "oracle-quadrature-equivalence")
