"""The four seeded workloads: their inputs, their op and their output checks.

Each workload turns a seed into a pool of inputs (``make_pool``), runs one
op on one input (``run``) and checks an op's output outside the timed span
(``check``, which returns the failed check names).  ``fingerprint`` reduces
an output to a string so the traced and untraced runs of one input can be
compared.  Library calls go through module attributes (``V.build_property_report``)
so that the tracer, which swaps module bindings, sees them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from importlib import import_module

# ``csrk`` re-exports functions named like its modules (csrk.discretize,
# csrk.integrate), so the modules are looked up by name.
D = import_module("csrk.discretize")
E = import_module("csrk.exact")
I = import_module("csrk.integrate")
L = import_module("csrk.legendre")
M = import_module("csrk.method")
V = import_module("csrk.verify")

# Failed checks caused by a known defect of the program rather than by the
# benchmark.  They still count as failed ops; they do not make a run incorrect.
KNOWN_DEFECTS = {
    "ep-general.energy_certificate": (
        "construct_ep_general fixes B = 1, but the energy certificate needs "
        "B = A(1, .) (ROADMAP item 1)"
    ),
}


def _frac(rng, lo=-3, hi=4, dlo=2, dhi=6) -> Fraction:
    return Fraction(rng.randrange(lo, hi), rng.randrange(dlo, dhi))


# -- certify-families ----------------------------------------------------------


class CertifyFamilies:
    """Construct a paper-family member, certify it, discretize it."""

    name = "certify-families"
    families = ("simplifying", "order", "symplectic", "symmetric", "ep-legendre", "ep-general")
    rules = (("gauss", 1), ("lobatto", 2), ("gauss", 2), ("lobatto", 3), ("gauss", 3),
             ("lobatto", 4), ("gauss", 4))
    levels = [(a, b) for a in range(1, 6) for b in range(1, 6)]
    draws = 25  # per family; the size-setting parameters cycle, the seed draws values

    def make_pool(self, rng):
        pool = []
        for k in range(self.draws * len(self.families)):
            family = self.families[k % len(self.families)]
            n = k // len(self.families)
            if family == "simplifying":
                a, b = self.levels[n % len(self.levels)]
                free = {(b + rng.randrange(2), a + rng.randrange(2)): _frac(rng)} if n % 2 else {}
                params = {"alpha": a, "beta": b, "free": free}
            elif family == "order":
                params = {
                    "order": 2 + n % 3,
                    "free": {(rng.randrange(1, 4), rng.randrange(2, 5)): _frac(rng)},
                }
            elif family == "symplectic":
                skew = {}
                while len(skew) < 1 + n % 2:
                    skew[(rng.randrange(1, 3), rng.randrange(3, 6))] = _frac(rng, -2, 3, 4, 7)
                params = {"skew": skew}
            elif family == "symmetric":
                key = rng.choice([(0, 1), (2, 1), (1, 2), (3, 2), (2, 3)])
                params = {"odd": {key: _frac(rng)}}
            elif family == "ep-legendre":
                omegas = [Fraction(1)] + [
                    Fraction(1) if rng.random() < 0.5 else _frac(rng) for _ in range(n % 4)
                ]
                params = {"omegas": omegas}
            else:
                gens = tuple(
                    tuple(Fraction(rng.randrange(-2, 3), 2) for _ in range(1 + (n + g) % 3))
                    for g in range(2)
                )
                params = {"omegas": (1, Fraction(rng.randrange(-2, 3), 2)), "generators": gens}
            pool.append({"family": family, "params": params, "rule": self.rules[k % len(self.rules)]})
        return pool

    def prepare(self, inp, traced):
        return inp

    def run(self, inp):
        fam, p = inp["family"], inp["params"]
        extra = {}
        if fam == "simplifying":
            method = M.construct_simplifying(p["alpha"], p["beta"], p["free"])
        elif fam == "order":
            method = M.construct_order_by_order(p["order"], p["free"])
        elif fam == "symplectic":
            method = M.construct_symplectic(p["skew"])
        elif fam == "symmetric":
            method = M.construct_symmetric(p["odd"])
        elif fam == "ep-legendre":
            res = M.construct_ep_legendre(p["omegas"])
            method, extra = res.method, {"claimed_order": res.claimed_order}
        else:
            spec = M.EpSpec(
                tuple(E.Scalar(w) for w in p["omegas"]),
                tuple(L.UnivariatePoly(g) for g in p["generators"]),
            )
            method = M.construct_ep_general(spec).method
        report = V.build_property_report(method)
        kind, s = inp["rule"]
        rule = D.gauss_legendre(s) if kind == "gauss" else D.lobatto(s)
        tableau = D.discretize(method, rule)
        predicted = None
        if method.is_b_one() and method.is_c_tau():
            predicted = D.predicted_rk_order(method, rule)
        return {
            "report": report,
            "tableau": tableau,
            "predicted": predicted,
            "rk_symplectic": D.rk_symplectic_residual(tableau),
            **extra,
        }

    def check(self, inp, out):
        fam, p, rep = inp["family"], inp["params"], out["report"]
        flags = rep.flags
        failed = []
        if fam == "simplifying":
            a, b = p["alpha"], p["beta"]
            if rep.guaranteed_order < min(2 * a + 2, a + b + 1):
                failed.append("simplifying.guaranteed_order")
        elif fam == "order":
            if rep.verified_order_direct < p["order"]:
                failed.append("order.verified_order")
        elif fam == "symplectic":
            if not flags["symplectic"]:
                failed.append("symplectic.flag")
            if not out["rk_symplectic"] <= 1e-13:
                failed.append("symplectic.rk_residual")
        elif fam == "symmetric":
            if not flags["symmetric"]:
                failed.append("symmetric.flag")
        elif fam == "ep-legendre":
            if not flags["energy_preserving"]:
                failed.append("ep-legendre.energy_certificate")
            if rep.guaranteed_order < out["claimed_order"]:
                failed.append("ep-legendre.claimed_order")
        elif not flags["energy_preserving"]:
            failed.append("ep-general.energy_certificate")
        q_order = 2 * inp["rule"][1] if inp["rule"][0] == "gauss" else 2 * inp["rule"][1] - 2
        if out["predicted"] is not None and not 0 <= out["predicted"] <= q_order:
            failed.append("discretize.predicted_order_range")
        if not np.all(np.isfinite(out["tableau"].a)):
            failed.append("discretize.finite")
        return failed

    def fingerprint(self, out):
        t = out["tableau"]
        return json.dumps(
            [
                V.report_to_json_dict(out["report"]),
                t.a.tobytes().hex(), t.b.tobytes().hex(), t.c.tobytes().hex(),
                out["predicted"], repr(out["rk_symplectic"]), out.get("claimed_order"),
            ],
            sort_keys=True,
        )

    def steps(self, inp):
        return 0


# -- certify-general -------------------------------------------------------------


def _shape_order():
    """(dtau, dsigma, bdeg) grid in an order whose every prefix spans the costs.

    The 48 shapes are sorted by cost and visited at a stride of 29, about
    48 over the golden ratio and prime to 48.  A run ends part-way through the
    pool, after a number of ops that depends on the host's speed; with this
    order the ops it did run still have the pool's mix of costs, so the
    latency quantiles do not move with the number of ops.
    """
    shapes = [(dt, ds, b) for dt in range(3, 7) for ds in range(3, 7) for b in range(3)]
    shapes.sort(key=lambda s: (s[0] + s[1], s[2]))
    return [shapes[k * 29 % len(shapes)] for k in range(len(shapes))]


class CertifyGeneral:
    """Property report plus moment-identity defects of a general-B/C method."""

    name = "certify-general"
    ks = (1, 2, 3)
    draws = 2  # per shape, so the latency quantiles fall among many methods

    def make_pool(self, rng):
        # As test_a10's random_general_method, but with nonzero numerators:
        # a zero would lower a degree, and cost is steep in the degrees.
        def num():
            return rng.choice((-2, -1, 1, 2))

        pool = []
        for dtau, dsigma, bdeg in _shape_order() * self.draws:
            rows = [
                [E.Scalar(Fraction(num(), rng.randrange(6, 13))) for _ in range(dsigma + 1)]
                for _ in range(dtau + 1)
            ]
            c_poly = L.UnivariatePoly([row[0] for row in rows])
            b_poly = L.UnivariatePoly([1] + [Fraction(num(), rng.randrange(3, 7)) for _ in range(bdeg)])
            pool.append({"method": M.new_method(rows, b_poly, c_poly), "shape": (dtau, dsigma, bdeg)})
        return pool

    def prepare(self, inp, traced):
        return inp

    def run(self, inp):
        m = inp["method"]
        return {
            "report": V.build_property_report(m),
            "c": {k: V.c_breve_defect(m, k) for k in self.ks},
            "d": {k: V.d_breve_defect(m, k) for k in self.ks},
        }

    def check(self, inp, out):
        import oracle  # mpmath is imported here, after set-up

        return oracle.check_general(inp["method"], out["report"], out["c"], out["d"])

    def fingerprint(self, out):
        return json.dumps(
            [
                V.report_to_json_dict(out["report"]),
                {k: [str(v) for v in out["c"][k]] for k in self.ks},
                {k: [str(v) for v in out["d"][k]] for k in self.ks},
            ],
            sort_keys=True,
        )

    def steps(self, inp):
        return 0


# -- integrate ---------------------------------------------------------------------


class Integrate:
    """One validation job: integrate, then the cmd_integrate diagnostics."""

    name = "integrate"
    kinds = ("kepler-fixed-point", "pendulum-ep", "kepler-newton")
    pool_size = 12

    def make_pool(self, rng):
        gauss2 = D.discretize(M.construct_simplifying(2, 1), D.gauss_legendre(2))
        ep_tableaus = {
            n: D.discretize(M.construct_ep_legendre([1] * n).method, D.gauss_legendre(10))
            for n in (1, 2)
        }
        pool = []
        for k in range(self.pool_size):
            kind = self.kinds[k % len(self.kinds)]
            if kind == "kepler-fixed-point":
                problem = I.builtin_problem("kepler", eccentricity=rng.uniform(0.3, 0.7))
                job = dict(tableau=gauss2, h=0.01, steps=1000, cfg=I.StepperConfig(),
                           symmetric=True, symplectic=True)
            elif kind == "kepler-newton":
                skew = {(rng.randrange(1, 3), rng.randrange(3, 6)): _frac(rng, -2, 3, 4, 7)}
                tableau = D.discretize(M.construct_symplectic(skew), D.gauss_legendre(2))
                problem = I.builtin_problem("kepler", eccentricity=rng.uniform(0.3, 0.7))
                job = dict(tableau=tableau, h=0.01, steps=250,
                           cfg=I.StepperConfig(tol=1e-13, solver="newton"),
                           symmetric=False, symplectic=True)
            else:
                z0 = [rng.uniform(-0.5, 0.5), rng.uniform(1.0, 1.5)]
                problem = I.builtin_problem("pendulum", z0=z0)
                job = dict(tableau=ep_tableaus[rng.choice((1, 2))], h=0.1, steps=250,
                           cfg=I.StepperConfig(), symmetric=True, symplectic=False)
            pool.append({"kind": kind, "problem": problem, **job})
        return pool

    def prepare(self, inp, traced):
        """With a tracer, count the problem's rhs calls through a wrapped copy."""
        if traced is None:
            return inp
        problem = inp["problem"]
        counter = traced.rhs_counter

        def rhs(t, z, _f=problem.rhs):
            counter[0] += 1
            return _f(t, z)

        counted = dataclasses.replace(problem, rhs=rhs)
        counter[0] = 0  # the replace re-ran the Hamiltonian check
        return {**inp, "problem": counted}

    def run(self, job):
        t, p, h, cfg = job["tableau"], job["problem"], job["h"], job["cfg"]
        traj = I.integrate(t, p, h, job["steps"], cfg)
        return {
            "trajectory": traj,
            "energy_drift": I.energy_drift(traj, p),
            "symmetry_residual": I.symmetry_residual(t, p, p.z0, h, cfg),
            "symplecticity_residual": I.symplecticity_residual(t, p, p.z0, h, cfg),
            "invariant_drifts": {name: I.invariant_drift(traj, p, name) for name in p.invariants},
        }

    # Angular momentum, symplecticity and symmetry bounds are the acceptance
    # tests' (a06, a08), and the EP energy bound is a07's.  The Kepler energy
    # and reference bounds cover e up to 0.7: Gauss-2 at h = 0.01 drifts
    # ~5e-8 and ends ~2e-6 off the analytic orbit; symplectic-family
    # reductions with entries at sigma-degree 4 are only second order on
    # Gauss-2 and reach ~1.1e-2 / ~5e-2 after 250 steps.
    BOUNDS = {
        "kepler-fixed-point": {"energy": 1e-6, "reference": 1e-5},
        "kepler-newton": {"energy": 5e-2, "reference": 2.5e-1},
        "pendulum-ep": {"energy": 1e-10},
    }

    def check(self, job, out):
        failed = []
        kind = job["kind"]
        bounds = self.BOUNDS[kind]
        if not out["energy_drift"] <= bounds["energy"]:
            failed.append(f"{kind}.energy_drift")
        if "reference" in bounds:
            if not out["invariant_drifts"]["angular_momentum"] <= 1e-10:
                failed.append(f"{kind}.angular_momentum")
            traj, p = out["trajectory"], job["problem"]
            ref_err = float(np.max(np.abs(traj.final_state - p.reference(traj.times[-1]))))
            if not ref_err <= bounds["reference"]:
                failed.append(f"{kind}.reference")
        if job["symmetric"] and not out["symmetry_residual"] < 1e-12:
            failed.append(f"{kind}.symmetry")
        if job["symplectic"] and not out["symplecticity_residual"] <= 1e-8:
            failed.append(f"{kind}.symplecticity")
        return failed

    def fingerprint(self, out):
        traj = out["trajectory"]
        return json.dumps(
            [
                traj.states.tobytes().hex(), traj.iterations.tolist(),
                repr(out["energy_drift"]), repr(out["symmetry_residual"]),
                repr(out["symplecticity_residual"]),
                {k: repr(v) for k, v in out["invariant_drifts"].items()},
            ]
        )

    def steps(self, job):
        return job["steps"] + 2 + 2 * job["problem"].dim


# -- cli-session ---------------------------------------------------------------------

_NUM = r"([-+0-9.eE]+|None|n/a)"


class CliSession:
    """One csrk subprocess from a README-style session."""

    name = "cli-session"
    sessions = 6

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def make_pool(self, rng):
        pool = []
        for s in range(self.sessions):
            e = round(rng.uniform(0.3, 0.7), 3)
            z0 = f"{rng.uniform(-0.5, 0.5):.3f},{rng.uniform(1.0, 1.5):.3f}"
            # No ep-general here: every such construct fails the energy
            # certificate (KNOWN_DEFECTS), and a workload BENCHMARK.json lists
            # must be one on which no op fails.  certify-families still
            # constructs ep-general methods.
            second = rng.choice(["symplectic", "ep-legendre", "order", "symmetric", "simplifying"])
            if second == "symplectic":
                args = ["--family", "symplectic", "--set", f"{rng.randrange(1, 3)},{rng.randrange(3, 6)}={_frac(rng)}"]
                expect = {"flag": "'symplectic': True"}
            elif second == "ep-legendre":
                omegas = [1] + [rng.choice([1, 1, 0, "1/2", "-1/3"]) for _ in range(rng.randrange(0, 3))]
                kappa = next((i for i, w in enumerate(omegas) if w != 1), len(omegas))
                args = ["--family", "ep-legendre", "--omega", ",".join(map(str, omegas))]
                expect = {"flag": "'energy_preserving': True", "order": 2 * kappa}
            elif second == "order":
                p = rng.choice([3, 4])
                args = ["--family", "order", "--order", str(p), "--set", "2,1=1/30*sqrt(15)"]
                expect = {"direct": p}
            elif second == "symmetric":
                i, j = rng.choice([(2, 1), (1, 2), (3, 2)])
                args = ["--family", "symmetric", "--set", f"{i},{j}={_frac(rng)}"]
                expect = {"flag": "'symmetric': True"}
            else:
                a, b = rng.randrange(1, 4), rng.randrange(1, 4)
                args = ["--family", "simplifying", "--alpha", str(a), "--beta", str(b)]
                expect = {"order": min(2 * a + 2, a + b + 1)}
            rule, stages = rng.choice([("gauss", rng.randrange(1, 4)), ("lobatto", rng.randrange(2, 5))])
            d = f"s{s}"
            pool += [
                {"dir": d, "cmd": "construct", "out": "order4.json", "expect": {"order": 4},
                 "argv": ["construct", "--family", "simplifying", "--alpha", "2", "--beta", "1", "--out", "order4.json"]},
                {"dir": d, "cmd": "discretize", "out": "gauss2.json", "expect": {"predicted": 4},
                 "argv": ["discretize", "order4.json", "--rule", "gauss", "--stages", "2", "--out", "gauss2.json"]},
                {"dir": d, "cmd": "integrate", "out": "kepler.csv",
                 "expect": {"rows": 1001, "energy": 1e-6, "angular_momentum": 1e-10},
                 "argv": ["integrate", "gauss2.json", "--problem", "kepler", "--e", str(e),
                          "--h", "0.01", "--steps", "1000", "--out", "kepler.csv"]},
                {"dir": d, "cmd": "convergence", "out": "conv.json", "expect": {"empirical": 4.0},
                 "argv": ["convergence", "gauss2.json", "--problem", "harmonic", "--h-list",
                          "0.2,0.1,0.05,0.025", "--t-final", "2.0", "--out", "conv.json"]},
                {"dir": d, "cmd": "construct", "out": "second.json", "expect": expect,
                 "argv": ["construct", *args, "--out", "second.json"]},
                {"dir": d, "cmd": "verify", "out": None, "expect": {"report_of": "second.report.json"},
                 "argv": ["verify", "second.json"]},
                {"dir": d, "cmd": "discretize", "out": "second.csv", "expect": {},
                 "argv": ["discretize", "second.json", "--rule", rule, "--stages", str(stages),
                          "--format", "csv", "--out", "second.csv"]},
                {"dir": d, "cmd": "integrate", "out": "pendulum.csv",
                 "expect": {"rows": 1001, "energy": 1e-5},
                 "argv": ["integrate", "gauss2.json", "--problem", "pendulum", f"--z0={z0}",
                          "--h", "0.1", "--steps", "1000", "--out", "pendulum.csv"]},
            ]
        return pool

    def prepare(self, inp, traced):
        cwd = self.workdir / inp["dir"]
        cwd.mkdir(parents=True, exist_ok=True)
        if traced is None:
            argv = [sys.executable, "-m", "csrk.cli", *inp["argv"]]
        else:
            spans = cwd / f"spans-{traced.next_child}.json"
            traced.next_child += 1
            argv = [sys.executable, str(self.root / "bench" / "cli_shim.py"), str(spans), *inp["argv"]]
        return {**inp, "cwd": cwd, "cmdline": argv, "spans_path": None if traced is None else spans}

    def run(self, job):
        proc = subprocess.Popen(
            job["cmdline"], cwd=job["cwd"], env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        # communicate() reaped the child; its rusage went into RUSAGE_CHILDREN
        return {"code": proc.returncode, "stdout": out, "stderr": err}

    def check(self, job, out):
        cmd, cwd, exp = job["cmd"], job["cwd"], job["expect"]
        failed = []
        if out["code"] != 0:
            return [f"{cmd}.exit_code"]
        stdout = out["stdout"]
        if job["out"] is not None:
            manifest = cwd / (Path(job["out"]).stem + ".manifest.json")
            try:
                data = json.loads(manifest.read_text())
                for path in data["outputs"]:
                    text = (cwd / path).read_text()
                    if path.endswith(".json"):
                        json.loads(text)
                    elif len(text.splitlines()) < 2:
                        failed.append(f"{cmd}.output_short")
            except (OSError, ValueError, KeyError):
                failed.append(f"{cmd}.outputs")
                return failed
            if "rows" in exp and len((cwd / job["out"]).read_text().splitlines()) != exp["rows"] + 1:
                failed.append(f"{cmd}.rows")
        if cmd == "construct":
            got = re.search(r"guaranteed_order=(\d+)", stdout)
            direct = re.search(r"verified_order_direct=(\d+)", stdout)
            if got is None or int(got.group(1)) < exp.get("order", 0):
                failed.append("construct.guaranteed_order")
            if "direct" in exp and (direct is None or int(direct.group(1)) < exp["direct"]):
                failed.append("construct.verified_order_direct")
            if "flag" in exp and exp["flag"] not in stdout:
                failed.append("construct.flag")
        elif cmd == "verify":
            try:
                report = json.loads(stdout)
                saved = json.loads((cwd / exp["report_of"]).read_text())
                if report["guaranteed_order"] != saved["guaranteed_order"] or report["flags"] != saved["flags"]:
                    failed.append("verify.matches_construct")
            except (ValueError, KeyError, OSError):
                failed.append("verify.report")
        elif cmd == "discretize":
            got = re.search(r"predicted_rk_order=" + _NUM, stdout)
            if got is None:
                failed.append("discretize.stdout")
            elif "predicted" in exp and got.group(1) != str(exp["predicted"]):
                failed.append("discretize.predicted_rk_order")
        elif cmd == "integrate":
            got = re.search(r"energy_drift=" + _NUM, stdout)
            diag_path = cwd / (Path(job["out"]).stem + ".diagnostics.json")
            try:
                drifts = json.loads(diag_path.read_text())["invariant_drifts"]
            except (OSError, ValueError, KeyError):
                return failed + ["integrate.diagnostics"]
            if got is None or not float(got.group(1)) <= exp["energy"]:
                failed.append("integrate.energy_drift")
            if "angular_momentum" in exp and not drifts["angular_momentum"] <= exp["angular_momentum"]:
                failed.append("integrate.angular_momentum")
        elif cmd == "convergence":
            got = re.search(r"empirical_order=" + _NUM, stdout)
            if got is None or abs(float(got.group(1)) - exp["empirical"]) > 0.2:
                failed.append("convergence.empirical_order")
        return failed

    def fingerprint(self, out):
        return json.dumps([out["code"], out["stdout"]])

    def steps(self, job):
        return 0

    def written(self, job):
        """(files, bytes) named by the command's manifest, manifest included."""
        if job["out"] is None:
            return 0, 0
        manifest = job["cwd"] / (Path(job["out"]).stem + ".manifest.json")
        try:
            paths = [manifest] + [job["cwd"] / p for p in json.loads(manifest.read_text())["outputs"]]
            return len(paths), sum(p.stat().st_size for p in paths)
        except (OSError, ValueError, KeyError):
            return 0, 0


def make(name: str, root: Path, workdir: Path):
    if name == CliSession.name:
        return CliSession(root, workdir)
    for cls in (CertifyFamilies, CertifyGeneral, Integrate):
        if cls.name == name:
            return cls()
    raise KeyError(name)


def pool_for(workload, seed: int):
    return workload.make_pool(random.Random(seed))
