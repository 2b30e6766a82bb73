"""Command-line interface: construct, verify, discretize, integrate, convergence.

Every command runs on one path.  A ``cmd_*`` function only computes: it
returns ``({path: text}, summary)`` and writes, prints and times nothing.
``main`` alone starts the clock, calls the command named by
``args.command``, writes the outputs and the run manifest through
``_write_outputs`` (the manifest's inputs are the positional file
arguments), prints the summary, and turns an exception into its exit code
through the ordered table ``_EXIT_CODES``: 0 success, 1 domain error
(constraint violations and invalid parameters), 2 I/O or parse error,
3 stage-solver non-convergence.  Errors are emitted as one-line JSON
objects on stderr.  ``construct`` reads its families from one table,
``_FAMILIES``: family -> (required options, builder), which also supplies
argparse's choices and the missing-option messages.  Commands and builders
are looked up by name when called, so a rebinding of a module name (as a
tracer does) is seen.

The writer removes the stale run manifest, puts each output in place by
renaming a complete temporary file over it, and writes the new manifest
last the same way, so a manifest only ever names complete outputs of the
run it describes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .exact import Scalar
from .legendre import BasisCapExceeded, UnivariatePoly
from .method import (
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
)
from .verify import build_property_report, report_to_json_dict
from .discretize import (
    discretize,
    gauss_legendre,
    lobatto,
    predicted_rk_order,
    rk_symplectic_residual,
    tableau_from_csv,
    tableau_from_json_dict,
    tableau_to_csv,
    tableau_to_json_dict,
)
from .integrate import (
    NonConvergence,
    NonFinite,
    StepperConfig,
    builtin_problem,
    empirical_order,
    energy_drift,
    integrate,
    invariant_drift,
    symmetry_residual,
    symplecticity_residual,
    trajectory_to_csv,
)

_DOMAIN_ERRORS = (
    ConsistencyViolation,
    Order4ConstraintViolation,
    SkewConflict,
    ParityViolation,
    BasisCapExceeded,
)


class _InputError(Exception):
    """File missing, unreadable, or not matching the expected schema."""


def _load_method(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read JSON from {path}: {exc}") from exc
    try:
        return method_from_json_dict(data)
    except _DOMAIN_ERRORS:
        raise
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _load_tableau(path: str):
    """A tableau file in either format that discretize writes: JSON (an
    object) or CSV, told apart by the first non-blank character."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read tableau from {path}: {exc}") from exc
    try:
        if text.lstrip().startswith("{"):
            return tableau_from_json_dict(json.loads(text))
        return tableau_from_csv(text)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise _InputError(f"cannot read tableau from {path}: {exc}") from exc


def _json_text(data) -> str:
    # strict JSON: a NaN or infinity raises instead of writing a bare token
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def _replace(path: Path, text: str) -> None:
    """Write text to a temporary file beside path, then rename it over path."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_outputs(args, outputs: dict[str, str], started: float) -> None:
    """Write {path: text} outputs, then the run manifest named after the first.

    The stale manifest is deleted before any output is replaced, so a run
    interrupted midway leaves no manifest rather than one naming its
    half-written outputs.  The manifest's inputs are the command's
    positional file arguments.
    """
    stem = Path(next(iter(outputs))).with_suffix("")
    manifest_path = stem.parent / (stem.name + ".manifest.json")
    manifest_path.unlink(missing_ok=True)
    for path, text in outputs.items():
        _replace(Path(path), text)
    manifest = {
        "command": args.command,
        "inputs": [getattr(args, name) for name in ("method", "tableau") if hasattr(args, name)],
        "parameters": vars(args),
        "version": __version__,
        "outputs": list(outputs),
        "wall_time_s": time.perf_counter() - started,
    }
    _replace(manifest_path, _json_text(manifest))


def _parse_set_entries(pairs) -> dict[tuple[int, int], Scalar]:
    out: dict[tuple[int, int], Scalar] = {}
    for item in pairs or []:
        try:
            key, _, value = item.partition("=")
            i_str, j_str = key.split(",")
            out[(int(i_str), int(j_str))] = Scalar.from_string(value)
        except (ValueError, TypeError) as exc:
            raise _InputError(f"cannot parse --set entry {item!r}: {exc}") from exc
    return out


def _parse_exact_list(text: str) -> list[Scalar]:
    try:
        return [Scalar.from_string(part) for part in text.split(",")]
    except ValueError as exc:
        raise _InputError(f"cannot parse exact values {text!r}: {exc}") from exc


def _sidecar(out: str, tag: str) -> str:
    p = Path(out)
    return str(p.parent / (p.stem + f".{tag}.json"))


# -- construct ----------------------------------------------------------------


def _ep_legendre(omega, label):
    return construct_ep_legendre(_parse_exact_list(omega), label)


def _ep_general(omega, generators, label):
    return construct_ep_general(EpSpec(
        tuple(_parse_exact_list(omega)),
        tuple(UnivariatePoly(_parse_exact_list(g)) for g in generators),
    ), label)


# family -> (options it requires, name of its builder).  A builder takes the
# required options' values, then the --set entries (every family but the ep
# ones), then the label.  Names are looked up when called, not bound here.
_FAMILIES = {
    "order": (("order",), "construct_order_by_order"),
    "simplifying": (("alpha", "beta"), "construct_simplifying"),
    "symplectic": ((), "construct_symplectic"),
    "symmetric": ((), "construct_symmetric"),
    "ep-legendre": (("omega",), "_ep_legendre"),
    "ep-general": (("omega", "generator"), "_ep_general"),
}


def cmd_construct(args):
    required, builder = _FAMILIES[args.family]
    takes_set = not args.family.startswith("ep-")
    if args.set and not takes_set:
        raise _InputError(f"--set does not apply to the {args.family} family")
    entries = [_parse_set_entries(args.set)] if takes_set else []
    values = [getattr(args, name) for name in required]
    if None in values:
        names = " and ".join(f"--{name}" for name in required)
        verb = "is" if len(required) == 1 else "are"
        raise _InputError(f"{names} {verb} required for the {args.family} family")
    built = globals()[builder](*values, *entries, args.label)
    # an ep builder returns a result whose other fields join the summary
    method = getattr(built, "method", built)
    extra = "" if built is method else "".join(
        f" {k}={v}" for k, v in vars(built).items() if k != "method"
    )
    report = build_property_report(method)
    outputs = {
        args.out: _json_text(method_to_json_dict(method)),
        _sidecar(args.out, "report"): _json_text(report_to_json_dict(report)),
    }
    return outputs, (
        f"constructed {method.label}: guaranteed_order={report.guaranteed_order} "
        f"verified_order_direct={report.verified_order_direct} flags={report.flags}{extra}"
    )


# -- verify / discretize --------------------------------------------------------


def cmd_verify(args):
    report = build_property_report(_load_method(args.method))
    return {}, _json_text(report_to_json_dict(report)).rstrip("\n")


def cmd_discretize(args):
    method = _load_method(args.method)
    rule = gauss_legendre(args.stages) if args.rule == "gauss" else lobatto(args.stages)
    tableau = discretize(method, rule)
    info = {
        "rk_symplectic_residual": rk_symplectic_residual(tableau),
        "quadrature": {"rule": args.rule, "stages": args.stages, "order": rule.order},
    }
    try:
        info["predicted_rk_order"] = predicted_rk_order(method, rule)
    except ValueError:
        info["predicted_rk_order"] = None
    if args.format == "json":
        table = _json_text(tableau_to_json_dict(tableau))
    else:
        table = tableau_to_csv(tableau)
    outputs = {args.out: table, _sidecar(args.out, "info"): _json_text(info)}
    return outputs, (
        f"{tableau.provenance}: s={tableau.stages} "
        f"predicted_rk_order={info['predicted_rk_order']} "
        f"rk_symplectic_residual={info['rk_symplectic_residual']:.3e}"
    )


# -- integrate / convergence -------------------------------------------------------

_DIAGNOSTICS = (
    "empirical_order", "pairwise_ratios", "energy_drift", "symmetry_residual",
    "symplecticity_residual",
)


def _run_inputs(args):
    """The tableau, problem and stepper configuration of a run."""
    tableau = _load_tableau(args.tableau)
    if not math.isfinite(args.e):  # recorded in the manifest for every problem
        raise ValueError(f"Kepler eccentricity must be finite, got {args.e}")
    kwargs = {}
    if args.problem == "kepler":
        kwargs["eccentricity"] = args.e
    if args.z0 is not None:
        try:
            kwargs["z0"] = [float(v) for v in args.z0.split(",")]
        except ValueError as exc:
            raise _InputError(f"cannot parse --z0 {args.z0!r}") from exc
    problem = builtin_problem(args.problem, **kwargs)
    return tableau, problem, StepperConfig(tol=args.tol, max_iter=args.max_iter, solver=args.solver)


def cmd_integrate(args):
    tableau, problem, cfg = _run_inputs(args)
    traj = integrate(tableau, problem, args.h, args.steps, cfg)
    diag = dict.fromkeys(_DIAGNOSTICS)
    if problem.hamiltonian is not None:
        diag["energy_drift"] = energy_drift(traj, problem)
        diag["symplecticity_residual"] = symplecticity_residual(
            tableau, problem, problem.z0, args.h, cfg
        )
    diag["symmetry_residual"] = symmetry_residual(tableau, problem, problem.z0, args.h, cfg)
    diag["invariant_drifts"] = {
        name: invariant_drift(traj, problem, name) for name in problem.invariants
    }
    steps = traj.iterations[1:]
    diag["stage_iterations"] = {"mean": float(steps.mean()), "max": int(steps.max())}
    outputs = {
        args.out: trajectory_to_csv(traj),
        _sidecar(args.out, "diagnostics"): _json_text(diag),
    }
    drift = diag["energy_drift"]
    return outputs, (
        f"problem={problem.name} h={args.h:g} steps={args.steps} "
        f"energy_drift={'n/a' if drift is None else format(drift, '.3e')} "
        f"symmetry_residual={diag['symmetry_residual']:.3e}"
    )


def cmd_convergence(args):
    tableau, problem, cfg = _run_inputs(args)
    try:
        h_list = [float(part) for part in args.h_list.split(",")]
    except ValueError as exc:
        raise _InputError(f"cannot parse --h-list {args.h_list!r}") from exc
    est = empirical_order(tableau, problem, h_list, args.t_final, cfg)
    diag = dict.fromkeys(_DIAGNOSTICS)
    diag.update(
        empirical_order=est.slope,
        pairwise_ratios=list(est.pairwise),
        errors=list(est.errors),
        h_values=list(est.h_values),
        saturated=est.saturated,
    )
    if est.saturated:
        verdict = "order estimate saturated at the solver floor"
    else:
        verdict = f"empirical_order={est.slope:.3f} pairwise={[round(r, 3) for r in est.pairwise]}"
    summary = f"problem={problem.name} h_list={est.h_values} errors={est.errors}\n{verdict}"
    return {args.out: _json_text(diag)}, summary


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csrk",
        description="Continuous-stage Runge-Kutta construction, certification and validation",
    )
    parser.add_argument("--version", action="version", version=f"csrk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a method and certify it")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--order", type=int, help="target order for the order family")
    p.add_argument("--alpha", type=int, help="C-level for the simplifying family")
    p.add_argument("--beta", type=int, help="D-level for the simplifying family")
    p.add_argument("--omega", help="comma-separated exact weights for the ep families")
    p.add_argument(
        "--generator",
        action="append",
        help="comma-separated exact basis coefficients of one generator (repeatable)",
    )
    p.add_argument(
        "--set",
        action="append",
        metavar="I,J=VALUE",
        help="free coefficient entry, e.g. 2,1=sqrt(15)/30 (repeatable)",
    )
    p.add_argument("--label", default=None)
    p.add_argument("--out", default="method.json")

    p = sub.add_parser("verify", help="print the property report of a method file")
    p.add_argument("method")

    p = sub.add_parser("discretize", help="reduce a method to a Butcher tableau")
    p.add_argument("method")
    p.add_argument("--rule", choices=["gauss", "lobatto"], default="gauss")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default="tableau.json")

    def add_run_arguments(q):
        q.add_argument("tableau")
        q.add_argument("--problem", required=True, choices=["harmonic", "pendulum", "kepler"])
        q.add_argument("--e", type=float, default=0.6, help="Kepler eccentricity")
        q.add_argument("--z0", help="comma-separated initial state (harmonic, pendulum)")
        q.add_argument("--solver", choices=["fixed_point", "newton"], default="fixed_point")
        q.add_argument("--tol", type=float, default=1e-14)
        q.add_argument("--max-iter", type=int, default=100)

    p = sub.add_parser("integrate", help="integrate a tableau on a builtin problem")
    add_run_arguments(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default="trajectory.csv")

    p = sub.add_parser("convergence", help="empirical order from an h-sweep")
    add_run_arguments(p)
    p.add_argument("--h-list", required=True, help="comma-separated step sizes")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--out", default="convergence.json")

    return parser


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for key in ("step_index", "h_bound"):
        if getattr(exc, key, None) is not None:
            payload[key] = getattr(exc, key)
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


# exception types -> exit code; the first match wins (a JSONDecodeError is a
# ValueError) and any other exception propagates.  Exit 1 covers the domain
# errors: constraint violations and rejected or oversized parameter values.
_EXIT_CODES = (
    ((NonConvergence,), 3),
    ((_InputError, OSError, json.JSONDecodeError), 2),
    ((NonFinite, ValueError, OverflowError, MemoryError), 1),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        outputs, summary = globals()[f"cmd_{args.command}"](args)
        if outputs:
            _write_outputs(args, outputs, started)
        print(summary)
        return 0
    except tuple(t for types, _ in _EXIT_CODES for t in types) as exc:
        _emit_error(exc)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
