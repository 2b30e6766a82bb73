"""Extended-precision quadrature oracle for the general-B/C certificates.

Every exact residual csrk reports for a general method is compared, to
1e-12, with the same quantity computed independently: the defining
integrals are evaluated on a 30-node Gauss rule in long double, and the
exact defect polynomials are evaluated at the nodes in 40-digit mpmath
before projection.  Nothing here calls csrk's algebra.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np

TOL = 1e-12
ZERO_TOL = 1e-10
NODES = 30
_CONDITIONS_BY_ORDER = {1: (1,), 2: (1, 2), 3: (1, 2, 3, 4), 4: tuple(range(1, 9))}


def _gauss_rule():
    """Gauss-Legendre nodes and weights on [0, 1]: mpmath nodes, long double copies."""
    with mpmath.workdps(40):
        x0, _ = np.polynomial.legendre.leggauss(NODES)
        xs, ws = [], []
        for guess in x0:
            x = mpmath.mpf(float(guess))
            for _ in range(6):
                p_prev, p = mpmath.mpf(1), x
                for k in range(1, NODES):
                    p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
                dp = NODES * (p_prev - x * p) / (1 - x * x)
                x = x - p / dp
            p_prev, p = mpmath.mpf(1), x
            for k in range(1, NODES):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            dp = NODES * (p_prev - x * p) / (1 - x * x)
            xs.append((x + 1) / 2)
            ws.append(1 / ((1 - x * x) * dp * dp))
        x_ld = np.array([np.longdouble(mpmath.nstr(v, 30)) for v in xs])
        w_ld = np.array([np.longdouble(mpmath.nstr(v, 30)) for v in ws])
    return xs, x_ld, w_ld


X_MP, X, W = _gauss_rule()


def _tables(n: int, x: np.ndarray):
    """Orthonormal shifted Legendre values and x-derivatives, rows 0..n."""
    t = 2 * x - 1
    vals = np.empty((n + 1, x.size), dtype=np.longdouble)
    ders = np.zeros((n + 1, x.size), dtype=np.longdouble)
    vals[0] = 1
    if n >= 1:
        vals[1] = t
        ders[1] = 2
    for k in range(1, n):
        vals[k + 1] = ((2 * k + 1) * t * vals[k] - k * vals[k - 1]) / (k + 1)
        ders[k + 1] = ((2 * k + 1) * (2 * vals[k] + t * ders[k]) - k * ders[k - 1]) / (k + 1)
    norm = np.sqrt(2 * np.arange(n + 1, dtype=np.longdouble) + 1)[:, None]
    return vals * norm, ders * norm


def _scalar_to_mp(value) -> mpmath.mpf:
    """Parse csrk's exact serialization ("q+q*sqrt(r)+...") into mpmath."""
    total = mpmath.mpf(0)
    for term in str(value).split("+"):
        if "*sqrt(" in term:
            q, _, r = term.partition("*sqrt(")
            total += _frac_to_mp(Fraction(q)) * mpmath.sqrt(int(r[:-1]))
        else:
            total += _frac_to_mp(Fraction(term))
    return total


def _frac_to_mp(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def _mono_at_nodes(coeffs) -> np.ndarray:
    """Values of a monomial-coefficient exact polynomial at the nodes."""
    with mpmath.workdps(40):
        cs = [_scalar_to_mp(c) for c in coeffs]
        out = []
        for x in X_MP:
            acc = mpmath.mpf(0)
            for c in reversed(cs):
                acc = acc * x + c
            out.append(np.longdouble(mpmath.nstr(acc, 30)))
    return np.array(out, dtype=np.longdouble)


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def check_general(m, report, c_defects, d_defects) -> list[str]:
    """Names of the certificates of ``m`` that disagree with the oracle."""
    failed = []
    pt, _ = _tables(m.pi_tau, X)
    ps, _ = _tables(m.pi_sigma, X)
    af = m.alpha_floats().astype(np.longdouble)
    a_grid = pt.T @ af @ ps
    bv = m.B.float_coeffs().astype(np.longdouble) @ _tables(m.B.degree, X)[0]
    cv = m.C.float_coeffs().astype(np.longdouble) @ _tables(m.C.degree, X)[0]
    wb = W * bv

    def proj(n, values):
        return (_tables(n, X)[0] * W) @ values

    # order conditions: the directly verified order must match the oracle's
    one = np.longdouble(1)
    r = {
        1: wb.sum() - one,
        2: (wb * cv).sum() - one / 2,
        3: (wb * cv**2).sum() - one / 3,
        5: (wb * cv**3).sum() - one / 4,
        4: wb @ a_grid @ (W * cv) - one / 6,
        6: (wb * cv) @ a_grid @ (W * cv) - one / 8,
        7: wb @ a_grid @ (W * cv**2) - one / 12,
        8: (wb @ a_grid) @ ((W[:, None] * a_grid) @ (W * cv)) - one / 24,
    }
    order = 0
    for p in (1, 2, 3, 4):
        if all(abs(r[c]) <= ZERO_TOL for c in _CONDITIONS_BY_ORDER[p]):
            order = p
        else:
            break
    if order != report.verified_order_direct:
        failed.append("order_conditions")

    # moment identities: each defect polynomial, and the levels built from them
    levels = {"C": 0, "D": 0}
    for tag, defects in (("C", c_defects), ("D", d_defects)):
        leading = True
        for k in sorted(defects):
            exact = defects[k]
            if tag == "C":
                values = a_grid @ (W * cv ** (k - 1)) - cv**k / k
                n = max(m.pi_tau, k * m.C.degree)
            else:
                values = (wb * cv ** (k - 1)) @ a_grid - bv * (1 - cv**k) / k
                n = max(m.pi_sigma, m.B.degree + k * m.C.degree)
            numeric = proj(n, values)
            from_exact = proj(n, _mono_at_nodes(exact)) if exact else np.zeros(n + 1)
            if _max_abs(numeric - from_exact) > TOL:
                failed.append(f"{tag.lower()}_breve_defect")
            zero = _max_abs(numeric) <= ZERO_TOL
            if zero != (not exact):
                failed.append(f"{tag.lower()}_breve_zero_test")
            leading = leading and zero
            levels[tag] += leading
    if min(report.breve_c, len(c_defects)) != levels["C"]:
        failed.append("breve_c_level")
    if min(report.breve_d, len(d_defects)) != levels["D"]:
        failed.append("breve_d_level")

    # geometric residuals (max-norms of Legendre coefficient tensors)
    n = max(m.pi_tau, m.pi_sigma) + m.B.degree + 1
    tw = _tables(n, X)[0] * W
    sym = bv[:, None] * a_grid
    if abs(float(report.symplectic_residual) - _max_abs(tw @ (sym + sym.T - np.outer(bv, bv)) @ tw.T)) > TOL:
        failed.append("symplectic_residual")
    if report.symmetric_residual is not None:
        rev = _tables(m.pi_tau, 1 - X)[0].T @ af @ _tables(m.pi_sigma, 1 - X)[0]
        numeric = _max_abs(tw @ (a_grid + rev - bv[None, :]) @ tw.T)
        if abs(float(report.symmetric_residual) - numeric) > TOL:
            failed.append("symmetric_residual")
    elif abs(wb.sum() - one) <= ZERO_TOL:
        failed.append("symmetric_residual_missing")
    _, dt = _tables(m.pi_tau, X)
    dgrid = tw @ (dt.T @ af @ ps) @ tw.T
    ends = np.array([0, 1], dtype=np.longdouble)
    end_grid = _tables(m.pi_tau, ends)[0].T @ af @ ps
    numeric_ep = (
        _max_abs(dgrid - dgrid.T),
        _max_abs(tw @ end_grid[0]),
        _max_abs(tw @ (end_grid[1] - bv)),
    )
    for exact, numeric in zip(report.ep_residuals, numeric_ep):
        if abs(float(exact) - numeric) > TOL:
            failed.append("energy_residual")
            break
    return failed
