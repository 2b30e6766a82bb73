import dataclasses
import importlib
import math

import numpy as np
import pytest

from csrk.discretize import discretize, explicit_euler, gauss_legendre
from csrk.integrate import (
    NonConvergence,
    NonFinite,
    OdeProblem,
    StepperConfig,
    builtin_problem,
    canonical_structure,
    empirical_order,
    energy_drift,
    integrate,
    invariant_drift,
    rk_step,
    symmetry_residual,
    symplecticity_residual,
    trajectory_to_csv,
)
from csrk.method import (
    EpSpec,
    construct_ep_general,
    construct_ep_legendre,
    construct_simplifying,
    new_method,
)
from csrk.legendre import ONE, TAU, UnivariatePoly
from csrk.exact import Scalar
from fractions import Fraction

HALF = Fraction(1, 2)
S36 = Scalar.sqrt(3, Fraction(1, 6))

NEWTON = StepperConfig(tol=1e-13, solver="newton")


def minimal_method():
    return new_method([[HALF, -S36], [S36, 0]], ONE, TAU, "minimal")


def avf_method():
    return new_method([[HALF], [S36]], ONE, TAU, "avf")


def decay_problem():
    return OdeProblem(dim=1, rhs=lambda t, z: -z, z0=np.array([1.0]), lipschitz=1.0)


def midpoint_tableau():
    return discretize(minimal_method(), gauss_legendre(1))


def gauss2_tableau():
    return discretize(minimal_method(), gauss_legendre(2))


def test_midpoint_step_matches_closed_form():
    h = 0.1
    z1 = rk_step(midpoint_tableau(), decay_problem(), 0.0, np.array([1.0]), h)
    assert z1[0] == pytest.approx((1 - h / 2) / (1 + h / 2), abs=1e-12)


def test_zero_rhs_leaves_state_unchanged():
    p = OdeProblem(dim=3, rhs=lambda t, z: np.zeros(3), z0=np.array([1.0, -2.0, 0.5]))
    z1 = rk_step(gauss2_tableau(), p, 0.0, p.z0, 0.3)
    assert np.array_equal(z1, p.z0)


def test_large_step_fixed_point_diverges_newton_succeeds():
    p = builtin_problem("harmonic")
    t = gauss2_tableau()
    with pytest.raises(NonConvergence) as err:
        rk_step(t, p, 0.0, p.z0, 10.0)
    assert "contraction bound" in str(err.value)
    assert err.value.h_bound is not None
    z1 = rk_step(t, p, 0.0, p.z0, 10.0, NEWTON)
    assert np.all(np.isfinite(z1))


def test_integrate_midpoint_preserves_quadratic_invariant():
    p = builtin_problem("harmonic")
    traj = integrate(midpoint_tableau(), p, 0.1, 100)
    radius = np.hypot(traj.states[:, 0], traj.states[:, 1])
    assert np.max(np.abs(radius - 1.0)) < 1e-13
    assert traj.times[-1] == pytest.approx(10.0)


def test_single_step_integrate_equals_rk_step():
    # both share one step body, so chained rk_step calls reproduce the
    # trajectory bit for bit
    t = gauss2_tableau()
    kepler = builtin_problem("kepler", eccentricity=0.6)
    for p, h, n in ((builtin_problem("pendulum"), 0.05, 1), (kepler, 0.01, 20)):
        traj = integrate(t, p, h, n)
        z = p.z0
        for k in range(n):
            z = rk_step(t, p, traj.times[k], z, h)
            assert z.tobytes() == traj.states[k + 1].tobytes()


def test_kepler_desk_run_energy_and_momentum():
    p = builtin_problem("kepler", eccentricity=0.6)
    traj = integrate(gauss2_tableau(), p, 0.01, 1000)
    assert energy_drift(traj, p) < 1e-8
    assert invariant_drift(traj, p, "angular_momentum") < 1e-10


def test_empirical_order_gauss2_harmonic():
    p = builtin_problem("harmonic")
    est = empirical_order(gauss2_tableau(), p, [0.2, 0.1, 0.05, 0.025], 2.0)
    assert not est.saturated
    assert est.slope == pytest.approx(4.0, abs=0.2)


def test_empirical_order_avf_pendulum():
    p = builtin_problem("pendulum")
    t = discretize(avf_method(), gauss_legendre(3))
    est = empirical_order(t, p, [0.2, 0.1, 0.05, 0.025], 2.0)
    assert est.slope == pytest.approx(2.0, abs=0.2)


def test_empirical_order_ep_two_weights_pendulum():
    p = builtin_problem("pendulum")
    t = discretize(construct_ep_legendre([1, 1]).method, gauss_legendre(4))
    est = empirical_order(t, p, [0.2, 0.1, 0.05, 0.025], 2.0)
    assert est.slope == pytest.approx(4.0, abs=0.2)


def test_empirical_order_saturation():
    p = OdeProblem(dim=1, rhs=lambda t, z: np.zeros(1), z0=np.array([1.0]))
    est = empirical_order(gauss2_tableau(), p, [0.2, 0.1, 0.05], 1.0)
    assert est.saturated
    assert est.slope is None


def test_empirical_order_input_validation():
    p = builtin_problem("harmonic")
    with pytest.raises(ValueError):
        empirical_order(gauss2_tableau(), p, [0.2, 0.1], 2.0)
    with pytest.raises(ValueError):
        empirical_order(gauss2_tableau(), p, [0.2, 0.1, 0.07], 2.0)
    for bad in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"step {bad} must be positive and finite"):
            empirical_order(gauss2_tableau(), p, [0.2, 0.1, bad], 2.0)
    for bad in (-2.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"final time {bad} must be positive and finite"):
            empirical_order(gauss2_tableau(), p, [0.2, 0.1, 0.05], bad)


def test_energy_drift_ep_method_high_stage_quadrature():
    p = builtin_problem("pendulum")
    t = discretize(avf_method(), gauss_legendre(10))
    traj = integrate(t, p, 0.1, 200)
    assert energy_drift(traj, p) < 1e-11


def test_energy_drift_ep_general_method_with_non_unit_weight_polynomial():
    # generators P_0 + P_1/2 and P_0/2 - P_2 give B = A(1, .) != 1; the exact
    # energy certificate must still carry over to the dynamics
    spec = EpSpec(
        (Scalar(1), Scalar(HALF)),
        (UnivariatePoly([1, HALF]), UnivariatePoly([HALF, 0, -1])),
    )
    method = construct_ep_general(spec).method
    assert method.B != ONE
    p = builtin_problem("harmonic")
    traj = integrate(discretize(method, gauss_legendre(8)), p, 0.05, 400)
    assert energy_drift(traj, p) <= 1e-12


def test_energy_drift_explicit_euler_control():
    p = builtin_problem("pendulum")
    traj = integrate(explicit_euler(), p, 0.1, 200)
    assert energy_drift(traj, p) > 1e-3


def test_energy_drift_decreases_with_quadrature_stages():
    # an exact energy certificate realizes as drift shrinking at least
    # geometrically in the stage count, down to the solver floor
    p = builtin_problem("pendulum")
    drifts = []
    for s in (2, 4, 6, 8, 10):
        t = discretize(avf_method(), gauss_legendre(s))
        traj = integrate(t, p, 0.1, 200)
        drifts.append(energy_drift(traj, p))
    for coarse, fine in zip(drifts, drifts[1:]):
        assert fine <= max(coarse / 2, 1e-12)
    assert drifts[-1] < 1e-11


def test_energy_drift_requires_hamiltonian():
    traj = integrate(midpoint_tableau(), decay_problem(), 0.1, 5)
    with pytest.raises(ValueError):
        energy_drift(traj, decay_problem())


def test_symmetry_residual_gauss_vs_euler():
    p = builtin_problem("pendulum")
    assert symmetry_residual(gauss2_tableau(), p, p.z0, 0.1) < 1e-12
    assert symmetry_residual(explicit_euler(), p, p.z0, 0.1) > 1e-4
    assert symmetry_residual(gauss2_tableau(), p, p.z0, 0.0) == 0.0


def test_every_problem_starts_at_time_zero():
    # OdeProblem has no start-time field: integrate, symmetry_residual and
    # symplecticity_residual all step from t = 0
    assert "t0" not in {f.name for f in dataclasses.fields(OdeProblem)}
    seen = []

    def rhs(t, z):
        seen.append(t)
        return np.array([1.0, 0.0])

    p = OdeProblem(dim=2, rhs=rhs, z0=np.zeros(2))
    t = midpoint_tableau()
    for h in (0.25, -0.25):
        traj = integrate(t, p, h, 2)
        assert math.copysign(1.0, traj.times[0]) == 1.0  # t_0 = +0.0, also for h < 0
        assert traj.times.tolist() == [0.0, h, 2 * h]
    seen.clear()
    symmetry_residual(t, p, p.z0, 0.5)
    assert seen[0] == 0.25  # the midpoint stage of the forward step from t = 0
    seen.clear()
    symplecticity_residual(t, p, p.z0, 0.5)
    assert set(seen) == {0.25}


def test_symplecticity_residual_gauss_vs_avf():
    p = builtin_problem("kepler", eccentricity=0.6)
    t = gauss2_tableau()
    assert symplecticity_residual(t, p, p.z0, 0.05, NEWTON) < 1e-8
    t_avf = discretize(avf_method(), gauss_legendre(2))
    assert symplecticity_residual(t_avf, p, p.z0, 0.05, NEWTON) > 1e-6
    assert symplecticity_residual(t, p, p.z0, 0.0) == 0.0


def test_builtin_problems():
    h = builtin_problem("harmonic")
    assert h.reference(0.5) == pytest.approx([math.cos(0.5), -math.sin(0.5)])
    pend = builtin_problem("pendulum")
    assert pend.hamiltonian(pend.z0) == pytest.approx(0.125)
    kep0 = builtin_problem("kepler", eccentricity=0.0)
    assert kep0.reference(2 * math.pi) == pytest.approx(kep0.z0, abs=1e-12)
    kep = builtin_problem("kepler", eccentricity=0.6)
    assert kep.hamiltonian(kep.z0) == pytest.approx(-0.5)
    assert kep.invariants["angular_momentum"](kep.z0) == pytest.approx(math.sqrt(1 - 0.36))
    # the analytic reference satisfies the dynamics
    eps = 1e-6
    zdot = (kep.reference(1.0 + eps) - kep.reference(1.0 - eps)) / (2 * eps)
    assert zdot == pytest.approx(kep.rhs(1.0, kep.reference(1.0)), abs=1e-8)
    with pytest.raises(ValueError):
        builtin_problem("lorenz")
    with pytest.raises(ValueError):
        builtin_problem("kepler", eccentricity=1.0)


def test_fd_jacobian_matches_analytic_kepler_derivatives():
    from csrk.integrate import _fd_jacobian

    kep = builtin_problem("kepler", eccentricity=0.6)
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = kep.z0 + 0.1 * rng.standard_normal(4)
        q, p = z[:2], z[2:]
        r = math.hypot(q[0], q[1])
        grad_h = np.concatenate([q / r**3, p])
        hess_v = np.eye(2) / r**3 - 3 * np.outer(q, q) / r**5
        jac = np.block([[np.zeros((2, 2)), np.eye(2)], [-hess_v, np.zeros((2, 2))]])
        got_grad = _fd_jacobian(kep.hamiltonian, z, 1e-6)
        assert got_grad.shape == (4,)
        assert np.max(np.abs(got_grad - grad_h)) < 1e-8
        got_jac = _fd_jacobian(lambda v: kep.rhs(0.0, v), z, 1e-7)
        assert got_jac.shape == (4, 4)
        assert np.max(np.abs(got_jac - jac)) < 1e-6


def test_hamiltonian_rhs_consistency_is_enforced():
    def wrong_rhs(t, z):
        return np.array([-z[1], z[0]])  # time-reversed flow

    with pytest.raises(ValueError):
        OdeProblem(
            dim=2,
            rhs=wrong_rhs,
            z0=np.array([1.0, 0.0]),
            hamiltonian=lambda z: 0.5 * float(z @ z),
        )


@pytest.mark.parametrize("z0", [(1.0, 0.5), (1e200, 1e200)])
def test_hamiltonian_flow_check_fails_closed(z0):
    # swapped components: no Hamiltonian flow of H = (q^2 + p^2)/2.  At 1e200
    # H overflows, the comparison is NaN, and NaN > tol would pass the check
    with pytest.raises(ValueError, match="canonical Hamiltonian flow"):
        OdeProblem(
            dim=2,
            rhs=lambda t, z: np.array([z[1], z[0]]),
            z0=np.array(z0),
            hamiltonian=lambda z: 0.5 * (z[0] ** 2 + z[1] ** 2),
        )


def test_canonical_structure():
    j = canonical_structure(4)
    assert np.array_equal(j[:2, 2:], np.eye(2))
    assert np.array_equal(j[2:, :2], -np.eye(2))
    assert np.array_equal(j.T, -j)
    with pytest.raises(ValueError):
        canonical_structure(3)


def test_trajectory_csv_format():
    p = builtin_problem("harmonic")
    traj = integrate(midpoint_tableau(), p, 0.1, 3)
    text = trajectory_to_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "t,z1,z2,iters"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert int(first[-1]) == 0


def test_nonconvergence_reports_step_index():
    p = builtin_problem("harmonic")
    t = gauss2_tableau()
    with pytest.raises(NonConvergence) as err:
        integrate(t, p, 10.0, 3)
    assert err.value.step_index == 0


def test_newton_makes_one_jacobian_per_step():
    # per step: 2d calls for the central-difference Jacobian at z_n, s per
    # stage iteration and s for the update
    kepler = builtin_problem("kepler", eccentricity=0.6)
    calls = 0

    def counting_rhs(time, z):
        nonlocal calls
        calls += 1
        return kepler.rhs(time, z)

    p = dataclasses.replace(kepler, rhs=counting_rhs)
    t, n = gauss2_tableau(), 50
    calls = 0
    traj = integrate(t, p, 0.01, n, NEWTON)
    s, d = t.stages, p.dim
    assert calls == n * (2 * d + s) + s * int(traj.iterations.sum())


def test_newton_nonconvergence_reports_time_and_bound():
    p = builtin_problem("kepler", eccentricity=0.6)
    with pytest.raises(NonConvergence) as err:
        integrate(gauss2_tableau(), p, 0.01, 3, StepperConfig(max_iter=1, solver="newton"))
    message = str(err.value)
    assert message.startswith("Newton stage iteration")
    assert "t = " in message and "contraction bound" in message
    assert err.value.h_bound is not None and err.value.h_bound > 0
    assert err.value.step_index == 0


def test_newton_agrees_with_fixed_point_on_kepler():
    t = discretize(construct_simplifying(2, 1), gauss_legendre(2))
    p = builtin_problem("kepler", eccentricity=0.6)
    fixed = integrate(t, p, 0.01, 1000)
    newton = integrate(t, p, 0.01, 1000, NEWTON)
    assert np.max(np.abs(newton.states - fixed.states)) < 1e-13


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(tol=0.0)
    # NaN passed "tol <= 0", and then no iteration could ever reach it
    with pytest.raises(ValueError, match="stage tolerance must be positive"):
        StepperConfig(tol=math.nan)
    # an infinite tolerance accepts the first iterate: the stages go unsolved
    with pytest.raises(ValueError, match="stage tolerance must be positive and finite"):
        StepperConfig(tol=math.inf)
    with pytest.raises(ValueError):
        StepperConfig(solver="bisection")


@pytest.mark.parametrize("max_iter", [0, -5])
def test_stepper_config_rejects_max_iter_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        StepperConfig(max_iter=max_iter)


@pytest.mark.parametrize("h", [0.0, -0.0, math.inf, -math.inf, math.nan])
def test_integrate_rejects_zero_or_nonfinite_step(h):
    with pytest.raises(ValueError, match="step h must be nonzero and finite"):
        integrate(gauss2_tableau(), builtin_problem("harmonic"), h, 5)
    # a single step of size 0 stays the identity (the residuals at h = 0 use it)
    p = builtin_problem("harmonic")
    assert np.array_equal(rk_step(gauss2_tableau(), p, 0.0, p.z0, 0.0), p.z0)


def test_stage_overflow_is_non_finite_at_step_zero():
    with pytest.raises(NonFinite, match="stage iteration produced non-finite values") as err:
        integrate(gauss2_tableau(), builtin_problem("harmonic"), 1e300, 3)
    assert err.value.step_index == 0


def test_update_overflow_is_non_finite_at_its_step():
    # constant rhs: the stages converge to finite values, the update overflows
    p = OdeProblem(dim=1, rhs=lambda t, z: np.array([1e308]), z0=np.array([-1e308]))
    with pytest.raises(NonFinite, match="step produced non-finite state") as err:
        integrate(gauss2_tableau(), p, 1.5, 3)
    assert err.value.step_index == 1


def test_empirical_order_checks_every_step_before_integrating(monkeypatch):
    calls = []
    # the package exports the function integrate under the module's name
    module = importlib.import_module("csrk.integrate")
    monkeypatch.setattr(module, "integrate", lambda *args: calls.append(args))
    # the pendulum has no analytic reference, so a fine run would come first
    with pytest.raises(ValueError, match="step 0.07 does not divide the final time 2.0"):
        empirical_order(gauss2_tableau(), builtin_problem("pendulum"), [0.2, 0.1, 0.07], 2.0)
    assert calls == []


def test_empirical_order_evaluates_the_reference_once():
    harmonic = builtin_problem("harmonic")
    times = []

    def reference(time):
        times.append(time)
        return harmonic.reference(time)

    p = dataclasses.replace(harmonic, reference=reference)
    est = empirical_order(gauss2_tableau(), p, [0.2, 0.1, 0.05], 2.0)
    assert times == [2.0]
    assert est == empirical_order(gauss2_tableau(), harmonic, [0.2, 0.1, 0.05], 2.0)
