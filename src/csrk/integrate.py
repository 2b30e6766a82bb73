"""Implicit Runge-Kutta stepping and empirical geometric diagnostics.

The stage equations U_i = z_n + h * sum_j a_ij f(t_n + c_j h, U_j) are
solved by fixed-point iteration (the default, valid inside the contraction
regime) or by simplified Newton iteration (for step sizes beyond the
advisory bound): one central-difference Jacobian J of f(t_n, .) at z_n per
step, and the matrix I - h kron(a, J) inverted once per step.  Both share
one iteration loop, one convergence test and one NonConvergence, which
carries the contraction-bound advice.  Each iteration takes one reduction,
the max-norm of the update, which also detects non-finite stages.  The
first step of a run, and every rk_step, starts from z_n at each stage;
later steps of integrate start from the previous step's stage slopes,
extrapolated through the Lagrange basis on the nodes (repeated nodes keep
the z_n start).  On top of the stepper sit the
order, energy-drift, time-reversal and symplecticity diagnostics used to
validate coefficient-space certificates against actual dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .discretize import ButcherTableau

__all__ = [
    "NonConvergence",
    "NonFinite",
    "StepperConfig",
    "OdeProblem",
    "Trajectory",
    "canonical_structure",
    "rk_step",
    "integrate",
    "OrderEstimate",
    "empirical_order",
    "energy_drift",
    "symmetry_residual",
    "symplecticity_residual",
    "builtin_problem",
    "trajectory_to_csv",
]


class NonConvergence(RuntimeError):
    """Stage iteration failed to reach tolerance within the iteration budget."""

    def __init__(self, message: str, step_index: int | None = None, h_bound: float | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.h_bound = h_bound


class NonFinite(RuntimeError):
    """Stage values overflowed or turned into NaN."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class StepperConfig:
    tol: float = 1e-14
    max_iter: int = 100
    solver: str = "fixed_point"  # or "newton": simplified Newton, one FD Jacobian at z_n per step

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # also rejects NaN
            raise ValueError(f"stage tolerance must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.solver not in ("fixed_point", "newton"):
            raise ValueError(f"unknown stage solver {self.solver!r}")


def canonical_structure(dim: int) -> np.ndarray:
    """The canonical antisymmetric structure matrix for states (q, p)."""
    if dim % 2:
        raise ValueError("canonical structure needs an even dimension")
    d = dim // 2
    j = np.zeros((dim, dim))
    j[:d, d:] = np.eye(d)
    j[d:, :d] = -np.eye(d)
    return j


def _fd_jacobian(
    fn: Callable[[np.ndarray], np.ndarray | float], z: np.ndarray, eps: float
) -> np.ndarray:
    """Central-difference Jacobian of fn at z; column k differentiates along z_k.

    A scalar fn gives its gradient.  The error is O(eps**2) plus the noise
    of fn over eps.
    """
    cols = []
    for k in range(z.size):
        dz = np.zeros_like(z)
        dz[k] = eps
        cols.append((fn(z + dz) - fn(z - dz)) / (2 * eps))
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class OdeProblem:
    """Initial value problem from t = 0, optionally Hamiltonian.

    With a Hamiltonian present the state is ordered (q, p) and the right-hand
    side must match the canonical flow J grad(H); this is checked against a
    finite-difference gradient at construction.
    """

    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    z0: np.ndarray
    hamiltonian: Callable[[np.ndarray], float] | None = None
    invariants: Mapping[str, Callable[[np.ndarray], float]] = field(default_factory=dict)
    lipschitz: float | None = None
    reference: Callable[[float], np.ndarray] | None = None
    name: str = ""

    def __post_init__(self):
        z0 = np.asarray(self.z0, float)
        if z0.shape != (self.dim,):
            raise ValueError(f"initial state must have shape ({self.dim},)")
        object.__setattr__(self, "z0", z0)
        if self.hamiltonian is not None:
            if self.dim % 2:
                raise ValueError("Hamiltonian problems need an even dimension")
            j = canonical_structure(self.dim)
            # ten fixed probe points near z0, spread over every component
            probes = z0 + 0.1 * np.sin(np.outer(np.arange(1, 11), np.arange(1, self.dim + 1)))
            for z in probes:
                with np.errstate(all="ignore"):  # a non-finite value is raised below
                    expected = j @ _fd_jacobian(self.hamiltonian, z, 1e-6)
                    got = np.asarray(self.rhs(0.0, z), float)
                    err = np.max(np.abs(got - expected))
                    # relative to the rhs: near a singularity such as Kepler's 1/r the
                    # difference's own error grows with the gradient; a wrong flow errs
                    # by about |got|
                    tol = 1e-8 * max(1.0, float(np.max(np.abs(got))))
                if not np.isfinite(err):
                    raise ValueError(
                        "cannot check the canonical Hamiltonian flow: non-finite values"
                        " near the initial state"
                    )
                if err > tol:
                    raise ValueError(
                        "right-hand side does not match the canonical Hamiltonian flow"
                    )

    @property
    def structure(self) -> np.ndarray:
        return canonical_structure(self.dim)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    iterations: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.states)):
            raise NonFinite("trajectory contains non-finite states")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _stage_bound_message(t: ButcherTableau, lipschitz: float | None) -> tuple[str, float | None]:
    if lipschitz is None:
        return "", None
    row = float(np.max(np.abs(t.a).sum(axis=1)))
    if row == 0.0:
        return "", None
    bound = 1.0 / (lipschitz * row)
    return f"; contraction bound suggests h < {bound:.6g} for L = {lipschitz:g}", bound


def _stage_rhs(problem: OdeProblem, stage_times: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The right-hand side at every stage, stacked as an (s, d) array."""
    return np.array([problem.rhs(ti, ui) for ti, ui in zip(stage_times, u)])


def _start_weights(t: ButcherTableau) -> np.ndarray | None:
    """Weights w_ij = int_1^{1+c_i} l_j(theta) dtheta, l_j the Lagrange basis on c.

    The polynomial through a step's stage slopes K_j at the nodes c_j
    approximates the solution's derivative over the step, so
    z_{n+1} + h * w @ K extrapolates the solution to the next step's
    stages (Hairer & Wanner, Solving ODEs II, IV.8).  None when nodes
    repeat: there is no Lagrange basis.
    """
    c = t.c
    s = c.size
    if len(set(c.tolist())) < s:  # not np.unique, which imports numpy.ma
        return None
    x, g = np.polynomial.legendre.leggauss(s)  # exact for l_j, of degree s - 1
    theta = 1 + np.outer(c, (1 + x) / 2)  # Gauss points on [1, 1 + c_i], row i
    w = np.empty((s, s))
    for j in range(s):
        others = np.delete(c, j)
        ell = np.prod((theta[..., None] - others) / (c[j] - others), axis=-1)
        w[:, j] = c / 2 * (ell @ g)
    return w


def _solve_stages(
    t: ButcherTableau,
    problem: OdeProblem,
    tn: float,
    zn: np.ndarray,
    h: float,
    cfg: StepperConfig,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Stage values and iteration count, from start (finite) or else z_n at every stage."""
    s, d = t.stages, problem.dim
    stage_times = tn + t.c * h
    u = np.tile(zn, (s, 1)) if start is None else start
    newton = cfg.solver == "newton"
    if newton:
        # simplified Newton: M = I - h kron(a, J) with J at z_n, inverted once per step
        jac = _fd_jacobian(lambda v: problem.rhs(tn, v), zn, 1e-7)
        try:
            m_inv = np.linalg.inv(np.eye(s * d) - h * np.kron(t.a, jac))
        except np.linalg.LinAlgError as exc:
            raise NonConvergence(f"singular Newton system at t = {tn:g}: {exc}") from exc

    for it in range(1, cfg.max_iter + 1):
        g = zn + h * (t.a @ _stage_rhs(problem, stage_times, u))
        unew = u - (m_inv @ (u - g).ravel()).reshape(s, d) if newton else g
        # u is finite, so delta is not finite exactly when unew is not, or
        # when the two differ by more than the largest double
        delta = float(np.abs(unew - u).max())
        if not math.isfinite(delta):
            raise NonFinite("stage iteration produced non-finite values")
        u = unew
        if delta < cfg.tol:
            return u, it
    advice, bound = _stage_bound_message(t, problem.lipschitz)
    raise NonConvergence(
        f"{'Newton' if newton else 'fixed-point'} stage iteration did not reach {cfg.tol:g} "
        f"in {cfg.max_iter} iterations at t = {tn:g}{advice}",
        h_bound=bound,
    )


# overflow and NaN are not warned about: the finiteness checks raise NonFinite
@np.errstate(all="ignore")
def _step(
    t: ButcherTableau,
    problem: OdeProblem,
    tn: float,
    zn: np.ndarray,
    h: float,
    cfg: StepperConfig,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, int, np.ndarray]:
    """The step body shared by rk_step and integrate: (z1, stage iterations, stage slopes)."""
    u, iters = _solve_stages(t, problem, tn, zn, h, cfg, start)
    k = _stage_rhs(problem, tn + t.c * h, u)
    z1 = zn + h * (t.b @ k)
    if not np.all(np.isfinite(z1)):
        raise NonFinite("step produced non-finite state")
    return z1, iters, k


@np.errstate(all="ignore")
def _predicted_start(w: np.ndarray, z1: np.ndarray, h: float, k: np.ndarray) -> np.ndarray | None:
    """The next step's starting stages z1 + h * w @ K, or None where that is not finite.

    A slope the update weighs by b_j = 0 can be large enough for w @ K to
    overflow while z1 stays finite; that step then starts from z1.
    """
    u0 = z1 + h * (w @ k)
    return u0 if np.isfinite(u0).all() else None


def rk_step(
    t: ButcherTableau,
    problem: OdeProblem,
    tn: float,
    zn: np.ndarray,
    h: float,
    cfg: StepperConfig = StepperConfig(),
) -> np.ndarray:
    """One implicit RK step from (tn, zn) with step h (h may be negative)."""
    return _step(t, problem, tn, np.asarray(zn, float), h, cfg)[0]


def integrate(
    t: ButcherTableau,
    problem: OdeProblem,
    h: float,
    n_steps: int,
    cfg: StepperConfig = StepperConfig(),
) -> Trajectory:
    """n_steps equal steps from the problem's initial state z0 at t = 0.

    The first step's stage iteration starts from z0; each later one from
    the previous step's stage slopes extrapolated by _start_weights.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not (math.isfinite(h) and h != 0):
        raise ValueError(f"step h must be nonzero and finite, got {h}")
    times = 0.0 + h * np.arange(n_steps + 1)  # 0.0 + turns t_0 = -0.0 (h < 0) into 0.0
    states = np.empty((n_steps + 1, problem.dim))
    iters = np.zeros(n_steps + 1, dtype=int)
    states[0] = problem.z0
    z = problem.z0.copy()
    w = _start_weights(t)
    start = None
    for n in range(n_steps):
        try:
            z, iters[n + 1], k = _step(t, problem, times[n], z, h, cfg, start)
        except (NonConvergence, NonFinite) as exc:
            exc.step_index = n
            raise
        states[n + 1] = z
        if w is not None:
            start = _predicted_start(w, z, h, k)
    return Trajectory(times, states, iters)


@dataclass(frozen=True)
class OrderEstimate:
    slope: float | None
    pairwise: tuple[float, ...]
    errors: tuple[float, ...]
    h_values: tuple[float, ...]
    saturated: bool


def empirical_order(
    t: ButcherTableau,
    problem: OdeProblem,
    h_list,
    t_final: float,
    cfg: StepperConfig = StepperConfig(),
) -> OrderEstimate:
    """Least-squares slope of log global error against log step size.

    The inputs are checked before any integration runs.  The reference
    state at t_final is the problem's analytic reference, else the final
    state of a run at h_min / 8 with the same tableau.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("at least three step sizes are required")
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError(f"final time {t_final} must be positive and finite")
    n_steps = []
    for h in h_list:
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"step {h} must be positive and finite")
        n = round(t_final / h)
        if n < 1 or abs(n * h - t_final) > 1e-9:
            raise ValueError(f"step {h} does not divide the final time {t_final}")
        n_steps.append(n)
    if problem.reference is not None:
        target = np.asarray(problem.reference(t_final))
    else:
        n_fine = round(t_final / (min(h_list) / 8))
        target = integrate(t, problem, t_final / n_fine, n_fine, cfg).final_state
    errors = [
        float(np.max(np.abs(integrate(t, problem, h, n, cfg).final_state - target)))
        for h, n in zip(h_list, n_steps)
    ]
    if all(e < 1e-12 for e in errors):
        return OrderEstimate(None, (), tuple(errors), tuple(h_list), True)
    pairwise = tuple(
        math.log(errors[i] / errors[i + 1]) / math.log(h_list[i] / h_list[i + 1])
        for i in range(len(errors) - 1)
        if errors[i] > 0 and errors[i + 1] > 0
    )
    logs_h = np.log([h for h, e in zip(h_list, errors) if e > 0])
    logs_e = np.log([e for e in errors if e > 0])
    slope = float(np.polyfit(logs_h, logs_e, 1)[0])
    return OrderEstimate(slope, pairwise, tuple(errors), tuple(h_list), False)


def _drift(traj: Trajectory, q: Callable[[np.ndarray], float]) -> float:
    values = np.array([q(z) for z in traj.states])
    return float(np.max(np.abs(values - values[0])))


def energy_drift(traj: Trajectory, problem: OdeProblem) -> float:
    """max_n |H(z_n) - H(z_0)| along a stored trajectory."""
    if problem.hamiltonian is None:
        raise ValueError("the problem has no Hamiltonian")
    return _drift(traj, problem.hamiltonian)


def invariant_drift(traj: Trajectory, problem: OdeProblem, name: str) -> float:
    """max_n |Q(z_n) - Q(z_0)| for a named quadratic invariant."""
    return _drift(traj, problem.invariants[name])


def symmetry_residual(
    t: ButcherTableau,
    problem: OdeProblem,
    z: np.ndarray,
    h: float,
    cfg: StepperConfig = StepperConfig(),
) -> float:
    """Round-trip defect |forward then backward step - identity| in max norm."""
    z = np.asarray(z, float)
    if h == 0.0:
        return 0.0
    forward = rk_step(t, problem, 0.0, z, h, cfg)
    back = rk_step(t, problem, h, forward, -h, cfg)
    return float(np.max(np.abs(back - z)))


def symplecticity_residual(
    t: ButcherTableau,
    problem: OdeProblem,
    z: np.ndarray,
    h: float,
    cfg: StepperConfig = StepperConfig(),
) -> float:
    """Departure of the one-step Jacobian from preserving the symplectic form.

    The Jacobian is estimated by central finite differences with spacing
    1e-6, so the result carries an O(1e-12) + O(tol / 1e-6) budget on top
    of the method's own defect.
    """
    if h == 0.0:
        return 0.0
    psi = _fd_jacobian(
        lambda v: rk_step(t, problem, 0.0, v, h, cfg), np.asarray(z, float), 1e-6
    )
    j = problem.structure
    return float(np.max(np.abs(psi.T @ j @ psi - j)))


# -- built-in Hamiltonian test problems ---------------------------------------


def _harmonic(z0) -> OdeProblem:
    z0 = np.asarray(z0 if z0 is not None else [1.0, 0.0], float)

    def rhs(t, z):
        return np.array([z[1], -z[0]])

    def hamiltonian(z):
        return 0.5 * float(z @ z)

    def reference(time):
        q0, p0 = z0
        ct, st = math.cos(time), math.sin(time)
        return np.array([q0 * ct + p0 * st, -q0 * st + p0 * ct])

    return OdeProblem(
        dim=2,
        rhs=rhs,
        z0=z0,
        hamiltonian=hamiltonian,
        invariants={"energy": hamiltonian},
        lipschitz=1.0,
        reference=reference,
        name="harmonic",
    )


def _pendulum(z0) -> OdeProblem:
    z0 = np.asarray(z0 if z0 is not None else [0.0, 1.5], float)

    def rhs(t, z):
        return np.array([z[1], -math.sin(z[0])])

    def hamiltonian(z):
        return 0.5 * z[1] ** 2 - math.cos(z[0])

    return OdeProblem(
        dim=2,
        rhs=rhs,
        z0=z0,
        hamiltonian=hamiltonian,
        invariants={"energy": hamiltonian},
        lipschitz=1.0,
        name="pendulum",
    )


def _kepler(eccentricity: float) -> OdeProblem:
    e = float(eccentricity)
    if not 0 <= e < 1:
        raise ValueError(f"eccentricity must be in [0, 1), got {e}")
    z0 = np.array([1.0 - e, 0.0, 0.0, math.sqrt((1 + e) / (1 - e))])

    def rhs(t, z):
        q, p = z[:2], z[2:]
        r3 = float(q @ q) ** 1.5
        return np.concatenate([p, -q / r3])

    def hamiltonian(z):
        q, p = z[:2], z[2:]
        return 0.5 * float(p @ p) - 1.0 / math.hypot(q[0], q[1])

    def angular_momentum(z):
        return z[0] * z[3] - z[1] * z[2]

    def reference(time):
        # eccentric anomaly from Kepler's equation (unit period 2*pi)
        big_e = time
        for _ in range(60):
            delta = (big_e - e * math.sin(big_e) - time) / (1 - e * math.cos(big_e))
            big_e -= delta
            if abs(delta) < 1e-15:
                break
        s, c = math.sin(big_e), math.cos(big_e)
        edot = 1.0 / (1 - e * c)
        root = math.sqrt(1 - e * e)
        return np.array([c - e, root * s, -s * edot, root * c * edot])

    return OdeProblem(
        dim=4,
        rhs=rhs,
        z0=z0,
        hamiltonian=hamiltonian,
        invariants={"energy": hamiltonian, "angular_momentum": angular_momentum},
        lipschitz=2.0 / (1 - e) ** 3,
        reference=reference,
        name=f"kepler(e={e:g})",
    )


def builtin_problem(name: str, eccentricity: float = 0.6, z0=None) -> OdeProblem:
    """Standard Hamiltonian test set: harmonic, pendulum, kepler."""
    if name == "harmonic":
        return _harmonic(z0)
    if name == "pendulum":
        return _pendulum(z0)
    if name == "kepler":
        if z0 is not None:
            raise ValueError("the Kepler start is parameterized by eccentricity")
        return _kepler(eccentricity)
    raise ValueError(f"unknown problem {name!r} (expected harmonic, pendulum or kepler)")


def trajectory_to_csv(traj: Trajectory) -> str:
    dim = traj.states.shape[1]
    header = ["t"] + [f"z{k + 1}" for k in range(dim)] + ["iters"]
    lines = [",".join(header)]
    for tn, zn, it in zip(traj.times, traj.states, traj.iterations):
        lines.append(",".join([repr(float(tn))] + [repr(float(v)) for v in zn] + [str(int(it))]))
    return "\n".join(lines) + "\n"
