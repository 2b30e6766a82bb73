import random
from fractions import Fraction

import numpy as np
import pytest

from csrk.exact import Scalar
from csrk.legendre import ONE, TAU, UnivariatePoly, xi
from csrk.method import (
    ConsistencyViolation,
    EpSpec,
    Order4ConstraintViolation,
    ParityViolation,
    SkewConflict,
    construct_ep_general,
    construct_ep_legendre,
    construct_order_by_order,
    construct_simplifying,
    construct_symmetric,
    construct_symplectic,
    method_from_json_dict,
    method_to_json_dict,
    new_method,
)

HALF = Fraction(1, 2)
S36 = Scalar.sqrt(3, Fraction(1, 6))

MINIMAL_ALPHA = [[HALF, -S36], [S36, 0]]  # A = 1/2 + tau - sigma
AVF_ALPHA = [[HALF], [S36]]  # A = tau


def minimal_method():
    return new_method(MINIMAL_ALPHA, ONE, TAU, "minimal")


def avf_method():
    return new_method(AVF_ALPHA, ONE, TAU, "avf")


def test_new_method_accepts_consistent_tensors():
    m = minimal_method()
    assert m.pi_tau == 1 and m.pi_sigma == 1
    # A = 1/2 + tau - sigma pointwise
    for tq, sq in [(Fraction(1, 3), Fraction(2, 3)), (Fraction(0), Fraction(1))]:
        assert m.eval_A(tq, sq) == Fraction(1, 2) + tq - sq
    m2 = avf_method()
    assert m2.pi_sigma == 0
    assert m2.eval_A(Fraction(2, 5), Fraction(1, 7)) == Fraction(2, 5)


def test_new_method_rejects_inconsistent_column():
    with pytest.raises(ConsistencyViolation):
        new_method([[Fraction(1, 3)], [S36]], ONE, TAU)


def test_eval_A_examples():
    m = minimal_method()
    assert m.eval_A(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 2)
    assert avf_method().eval_A(0, Fraction(9, 10)) == 0
    # quadrature of A(tau, .) recovers C(tau)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    nodes, weights = (nodes + 1) / 2, weights / 2
    for m2 in (minimal_method(), avf_method()):
        approx = float(weights @ m2.eval_A_grid(np.array([0.3]), nodes)[0])
        assert approx == pytest.approx(float(m2.C(0.3)), abs=1e-12)


def test_trailing_zero_rows_and_columns_are_trimmed():
    m = new_method(
        [[HALF, -S36, 0], [S36, 0, 0], [0, 0, 0]], ONE, TAU
    )
    assert m.alpha == minimal_method().alpha


def test_order_by_order_defaults_to_minimal_method():
    m = construct_order_by_order(4)
    assert m.alpha == minimal_method().alpha
    assert m.is_b_one() and m.is_c_tau()


def test_order_by_order_paper_family_member():
    m = construct_order_by_order(4, {(2, 1): Scalar.sqrt(15, Fraction(1, 30))})
    assert m.entry(2, 1) == xi(2)
    assert m.entry(0, 0) == HALF and m.entry(1, 0) == S36
    assert m.entry(0, 1) == -S36
    assert m.entry(1, 1) == 0 and m.entry(0, 2) == 0


def test_order_by_order_rejects_bilinear_violation():
    with pytest.raises(Order4ConstraintViolation):
        construct_order_by_order(4, {(0, 3): 1, (3, 1): 1})
    # one-sided entries keep the sum at zero
    construct_order_by_order(4, {(0, 3): 1})
    construct_order_by_order(4, {(3, 1): 1})


def test_order_by_order_low_orders_and_bad_input():
    m2 = construct_order_by_order(2, {(0, 1): Fraction(1, 4)})
    assert m2.entry(0, 1) == Fraction(1, 4)
    m3 = construct_order_by_order(3, {(0, 1): Fraction(1, 4)})
    assert m3.entry(0, 1) == -S36  # overridden
    with pytest.raises(ValueError):
        construct_order_by_order(5)
    with pytest.raises(ValueError):
        construct_order_by_order(2, {(2, 0): 1})


def test_simplifying_one_one_is_minimal():
    assert construct_simplifying(1, 1).alpha == minimal_method().alpha


def test_simplifying_two_one_adds_ladder_term():
    m = construct_simplifying(2, 1)
    assert m.entry(2, 1) == xi(2)
    assert m.entry(0, 0) == HALF
    assert m.entry(1, 0) == S36 and m.entry(0, 1) == -S36
    assert m.pi_tau == 2 and m.pi_sigma == 1


def test_simplifying_one_two_mirrors():
    m = construct_simplifying(1, 2)
    assert m.entry(1, 2) == -xi(2)
    assert m.entry(2, 1) == 0
    assert m.pi_tau == 1 and m.pi_sigma == 2


def test_simplifying_free_region_enforced():
    m = construct_simplifying(2, 1, {(1, 2): Fraction(1, 3)})
    assert m.entry(1, 2) == Fraction(1, 3)
    with pytest.raises(ValueError):
        construct_simplifying(2, 1, {(0, 2): 1})
    with pytest.raises(ValueError):
        construct_simplifying(2, 1, {(1, 1): 1})


def test_symplectic_minimal_and_derived_side():
    m = construct_symplectic()
    assert m.alpha == minimal_method().alpha
    m2 = construct_symplectic({(1, 2): Fraction(3, 7)})
    assert m2.entry(1, 2) == Fraction(3, 7)
    assert m2.entry(2, 1) == -Fraction(3, 7)


def test_symplectic_conflicts():
    with pytest.raises(SkewConflict):
        construct_symplectic({(1, 1): 1})
    with pytest.raises(SkewConflict):
        construct_symplectic({(0, 1): S36})
    with pytest.raises(SkewConflict):
        construct_symplectic({(2, 1): 1})
    # supplying the forced value is fine
    construct_symplectic({(0, 1): -S36})


def test_symmetric_constructions():
    m = construct_symmetric({(0, 1): -S36})
    assert m.alpha == minimal_method().alpha
    m2 = construct_symmetric({(0, 1): S36})
    assert m2.entry(0, 1) == S36  # valid, symmetric but not symplectic
    with pytest.raises(ParityViolation):
        construct_symmetric({(2, 2): 1})


def test_ep_legendre_avf():
    res = construct_ep_legendre([1])
    assert res.method.alpha == avf_method().alpha
    assert res.kappa == 1
    assert res.claimed_order == 2
    assert not res.conjugate_tuned


def test_ep_legendre_two_weights():
    res = construct_ep_legendre([1, 1])
    m = res.method
    assert m.entry(0, 0) == HALF and m.entry(1, 0) == S36
    assert m.entry(0, 1) == -xi(1)
    assert m.entry(2, 1) == xi(2)
    assert m.entry(1, 1) == 0
    assert res.kappa == 2 and res.claimed_order == 4


def test_ep_legendre_tuning_relation():
    res = construct_ep_legendre([1, Fraction(2, 3)])
    assert res.kappa == 1
    assert res.conjugate_tuned
    res2 = construct_ep_legendre([1, Fraction(1, 2)])
    assert not res2.conjugate_tuned


def test_ep_legendre_requires_unit_leading_weight():
    with pytest.raises(ValueError):
        construct_ep_legendre([Fraction(2, 1)])


def test_ep_general_matches_legendre_family():
    p0 = UnivariatePoly([1])
    p1 = UnivariatePoly([0, 1])
    res = construct_ep_general(EpSpec((Scalar(1),), (p0,)))
    assert res.method.alpha == construct_ep_legendre([1]).method.alpha
    assert res.method.B == ONE
    assert res.c_matches_tau
    res2 = construct_ep_general(EpSpec((Scalar(1), Scalar(1)), (p0, p1)))
    assert res2.method.alpha == construct_ep_legendre([1, 1]).method.alpha
    assert res2.method.B == ONE


@pytest.mark.parametrize("omegas", [
    [1],
    [1, 1],
    [1, Fraction(2, 3)],
    [1, 0, Fraction(-3, 4)],
    [1, 1, Fraction(1, 2), Scalar.sqrt(2)],
    [1, Fraction(1, 5), 0, 0, 3, Scalar.sqrt(3, Fraction(1, 7))],
])
def test_ep_legendre_is_ep_general_on_basis_generators(omegas):
    res = construct_ep_legendre(omegas)
    gens = tuple(UnivariatePoly([0] * i + [1]) for i in range(len(omegas)))
    general = construct_ep_general(EpSpec(tuple(Scalar(w) for w in omegas), gens), res.method.label)
    assert res.method == general.method
    assert general.c_matches_tau and res.method.B == ONE


def test_ep_legendre_ignores_zero_weights_beyond_the_cap():
    wide = construct_ep_legendre([1, 1] + [0] * 40, "w").method
    assert wide == construct_ep_legendre([1, 1], "w").method


def test_ep_general_non_tau_node_polynomial():
    res = construct_ep_general(EpSpec((Scalar(2),), (UnivariatePoly([1]),)))
    assert not res.c_matches_tau
    assert res.method.C == TAU * Scalar(2)
    assert res.method.B == UnivariatePoly([2])  # B = A(1, .) = w * (int_0^1 g) * g
    assert res.method.eval_A(Fraction(1, 4), Fraction(3, 4)) == Fraction(1, 2)


def test_all_constructors_produce_consistent_methods():
    rng = random.Random(42)
    for _ in range(30):
        frac = Fraction(rng.randrange(-3, 4), rng.randrange(1, 5))
        construct_order_by_order(4, {(rng.randrange(0, 4), rng.randrange(2, 5)): frac})
        a, b = rng.randrange(1, 4), rng.randrange(1, 4)
        construct_simplifying(a, b, {(b + 1, a + 1): frac})
        construct_symplectic({(1, rng.randrange(2, 5)): frac})
        i = rng.randrange(0, 4)
        construct_symmetric({(i, i + 1): frac})
        construct_ep_legendre([1, Fraction(rng.randrange(-2, 3), 2)])


def test_json_round_trip_is_lossless():
    methods = [
        minimal_method(),
        construct_simplifying(2, 1),
        construct_ep_legendre([1, 1]).method,
        construct_ep_general(EpSpec((Scalar(2),), (UnivariatePoly([1]),))).method,
    ]
    for m in methods:
        d = method_to_json_dict(m)
        m2 = method_from_json_dict(d)
        assert m2.alpha == m.alpha
        assert m2.B == m.B and m2.C == m.C
        assert m2.label == m.label


def test_method_from_json_rejects_garbage():
    with pytest.raises(ValueError):
        method_from_json_dict({"label": "x"})
    with pytest.raises(ValueError):
        method_from_json_dict({"label": "x", "B": ["1"], "C": ["nonsense!!"], "alpha": [["1"]]})
    # B and C must be lists and alpha a list of lists: a string "12" is not 1 + 2*P_1
    for data in (
        {"B": "12", "C": ["1/2"], "alpha": [["1/2"]]},
        {"B": ["1"], "C": "1/2", "alpha": [["1/2"]]},
        {"B": ["1"], "C": ["1/2"], "alpha": ["1/2"]},
        {"B": ["1"], "C": ["1/2"], "alpha": [["1/2"], "0"]},
        {"B": {"0": "1"}, "C": ["1/2"], "alpha": [["1/2"]]},
    ):
        with pytest.raises(ValueError, match="malformed method JSON"):
            method_from_json_dict(data)


def test_ragged_rows_are_padded_to_the_full_width():
    # row 0 is shorter than row 1: pi_sigma must still count row 1's column
    m = method_from_json_dict(
        {"B": ["1"], "C": ["1/2", "1/6*sqrt(3)"], "alpha": [["1/2"], ["1/6*sqrt(3)", "1"]]}
    )
    assert m.pi_sigma == 1
    assert m.alpha[0] == (Scalar(Fraction(1, 2)), Scalar(0))
    assert m.alpha_floats()[1, 1] == 1.0
    # A(1, 1) = 1/2 + (sqrt(3)/6) * sqrt(3) + 1 * sqrt(3) * sqrt(3)
    assert m.eval_A(Fraction(1), Fraction(1)) == 4
