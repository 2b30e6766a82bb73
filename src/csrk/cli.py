"""Command-line interface: construct, verify, discretize, integrate, convergence.

Exit codes: 0 success, 1 domain error (constraint violations and invalid
parameters), 2 I/O or parse error, 3 stage-solver non-convergence.  Errors
are emitted as one-line JSON objects on stderr.  Every command that writes
files computes all of them first and then writes them through one writer,
which removes the stale run manifest, puts each output in place by
renaming a complete temporary file over it, and writes the new manifest
last the same way, so a manifest only ever names complete outputs of the
run it describes.
"""

from __future__ import annotations

import argparse
import json
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


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_method(path: str):
    data = _load_json(path)
    try:
        return method_from_json_dict(data)
    except _DOMAIN_ERRORS:
        raise
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _load_tableau(path: str):
    data = _load_json(path)
    try:
        return tableau_from_json_dict(data)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _json_text(data) -> str:
    return json.dumps(data, indent=2) + "\n"


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


def _write_outputs(command: str, args, inputs: list[str], outputs: dict[str, str], started: float):
    """Write {path: text} outputs, then the run manifest named after the first.

    The stale manifest is deleted before any output is replaced, so a run
    interrupted midway leaves no manifest rather than one naming its
    half-written outputs.
    """
    stem = Path(next(iter(outputs))).with_suffix("")
    manifest_path = stem.parent / (stem.name + ".manifest.json")
    manifest_path.unlink(missing_ok=True)
    for path, text in outputs.items():
        _replace(Path(path), text)
    params = {
        k: v for k, v in vars(args).items() if k != "func" and not callable(v)
    }
    manifest = {
        "command": command,
        "inputs": inputs,
        "parameters": params,
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


def cmd_construct(args) -> int:
    started = time.perf_counter()
    if args.set and args.family in ("ep-legendre", "ep-general"):
        raise _InputError(f"--set does not apply to the {args.family} family")
    entries = _parse_set_entries(args.set)
    extra = ""
    if args.family == "order":
        if args.order is None:
            raise _InputError("--order is required for the order family")
        method = construct_order_by_order(args.order, entries, args.label)
    elif args.family == "simplifying":
        if args.alpha is None or args.beta is None:
            raise _InputError("--alpha and --beta are required for the simplifying family")
        method = construct_simplifying(args.alpha, args.beta, entries, args.label)
    elif args.family == "symplectic":
        method = construct_symplectic(entries, args.label)
    elif args.family == "symmetric":
        method = construct_symmetric(entries, args.label)
    elif args.family == "ep-legendre":
        if args.omega is None:
            raise _InputError("--omega is required for the ep-legendre family")
        result = construct_ep_legendre(_parse_exact_list(args.omega), args.label)
        method = result.method
        extra = (
            f" kappa={result.kappa} claimed_order={result.claimed_order}"
            f" conjugate_tuned={result.conjugate_tuned}"
        )
    else:  # ep-general
        if args.omega is None or not args.generator:
            raise _InputError("--omega and --generator are required for the ep-general family")
        spec = EpSpec(
            tuple(_parse_exact_list(args.omega)),
            tuple(UnivariatePoly(_parse_exact_list(g)) for g in args.generator),
        )
        result = construct_ep_general(spec, args.label)
        method = result.method
        extra = f" c_matches_tau={result.c_matches_tau}"

    report = build_property_report(method)
    _write_outputs("construct", args, [], {
        args.out: _json_text(method_to_json_dict(method)),
        _sidecar(args.out, "report"): _json_text(report_to_json_dict(report)),
    }, started)
    print(
        f"constructed {method.label}: guaranteed_order={report.guaranteed_order} "
        f"verified_order_direct={report.verified_order_direct} flags={report.flags}{extra}"
    )
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    method = _load_method(args.method)
    report = build_property_report(method)
    json.dump(report_to_json_dict(report), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# -- discretize -------------------------------------------------------------------


def cmd_discretize(args) -> int:
    started = time.perf_counter()
    method = _load_method(args.method)
    if args.rule == "gauss":
        rule = gauss_legendre(args.stages)
    else:
        rule = lobatto(args.stages)
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
    _write_outputs("discretize", args, [args.method], {
        args.out: table,
        _sidecar(args.out, "info"): _json_text(info),
    }, started)
    print(
        f"{tableau.provenance}: s={tableau.stages} "
        f"predicted_rk_order={info['predicted_rk_order']} "
        f"rk_symplectic_residual={info['rk_symplectic_residual']:.3e}"
    )
    return 0


# -- integrate / convergence -------------------------------------------------------


def _make_problem(args):
    kwargs = {}
    if args.problem == "kepler":
        kwargs["eccentricity"] = args.e
    if args.z0 is not None:
        try:
            kwargs["z0"] = [float(v) for v in args.z0.split(",")]
        except ValueError as exc:
            raise _InputError(f"cannot parse --z0 {args.z0!r}") from exc
    return builtin_problem(args.problem, **kwargs)


def _make_config(args) -> StepperConfig:
    return StepperConfig(tol=args.tol, max_iter=args.max_iter, solver=args.solver)


def _diagnostics_skeleton() -> dict:
    return {
        "empirical_order": None,
        "pairwise_ratios": None,
        "energy_drift": None,
        "symmetry_residual": None,
        "symplecticity_residual": None,
    }


def cmd_integrate(args) -> int:
    started = time.perf_counter()
    tableau = _load_tableau(args.tableau)
    problem = _make_problem(args)
    cfg = _make_config(args)
    traj = integrate(tableau, problem, args.h, args.steps, cfg)
    diag = _diagnostics_skeleton()
    if problem.hamiltonian is not None:
        diag["energy_drift"] = energy_drift(traj, problem)
        diag["symplecticity_residual"] = symplecticity_residual(
            tableau, problem, problem.z0, args.h, cfg
        )
    diag["symmetry_residual"] = symmetry_residual(tableau, problem, problem.z0, args.h, cfg)
    diag["invariant_drifts"] = {
        name: invariant_drift(traj, problem, name) for name in problem.invariants
    }
    _write_outputs("integrate", args, [args.tableau], {
        args.out: trajectory_to_csv(traj),
        _sidecar(args.out, "diagnostics"): _json_text(diag),
    }, started)
    drift = diag["energy_drift"]
    print(
        f"problem={problem.name} h={args.h:g} steps={args.steps} "
        f"energy_drift={'n/a' if drift is None else format(drift, '.3e')} "
        f"symmetry_residual={diag['symmetry_residual']:.3e}"
    )
    return 0


def cmd_convergence(args) -> int:
    started = time.perf_counter()
    tableau = _load_tableau(args.tableau)
    problem = _make_problem(args)
    cfg = _make_config(args)
    try:
        h_list = [float(part) for part in args.h_list.split(",")]
    except ValueError as exc:
        raise _InputError(f"cannot parse --h-list {args.h_list!r}") from exc
    est = empirical_order(tableau, problem, h_list, args.t_final, cfg)
    diag = _diagnostics_skeleton()
    diag["empirical_order"] = est.slope
    diag["pairwise_ratios"] = list(est.pairwise)
    diag["errors"] = list(est.errors)
    diag["h_values"] = list(est.h_values)
    diag["saturated"] = est.saturated
    _write_outputs("convergence", args, [args.tableau], {args.out: _json_text(diag)}, started)
    print(f"problem={problem.name} h_list={est.h_values} errors={est.errors}")
    if est.saturated:
        print("order estimate saturated at the solver floor")
    else:
        print(f"empirical_order={est.slope:.3f} pairwise={[round(r, 3) for r in est.pairwise]}")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csrk",
        description="Continuous-stage Runge-Kutta construction, certification and validation",
    )
    parser.add_argument("--version", action="version", version=f"csrk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a method and certify it")
    p.add_argument(
        "--family",
        required=True,
        choices=["order", "simplifying", "symplectic", "symmetric", "ep-legendre", "ep-general"],
    )
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
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="print the property report of a method file")
    p.add_argument("method")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("discretize", help="reduce a method to a Butcher tableau")
    p.add_argument("method")
    p.add_argument("--rule", choices=["gauss", "lobatto"], default="gauss")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default="tableau.json")
    p.set_defaults(func=cmd_discretize)

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
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("convergence", help="empirical order from an h-sweep")
    add_run_arguments(p)
    p.add_argument("--h-list", required=True, help="comma-separated step sizes")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--out", default="convergence.json")
    p.set_defaults(func=cmd_convergence)

    return parser


def _emit_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for key in ("step_index", "h_bound"):
        if getattr(exc, key, None) is not None:
            payload[key] = getattr(exc, key)
    json.dump(payload, sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergence as exc:
        _emit_error(exc)
        return 3
    except _InputError as exc:
        _emit_error(exc)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2
    except (NonFinite, ValueError, MemoryError) as exc:
        # constraint violations and rejected or oversized parameter values (domain errors)
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
