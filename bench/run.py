#!/usr/bin/env python3
"""Layered csrk benchmark: one closed-loop client driving csrk's public API.

    python3 bench/run.py --workload certify-general --seed 1 --seconds 50 --trace 0

Run from the repository root; csrk is imported from ``src/`` (it need not be
installed) and the CLI workload starts ``python -m csrk.cli`` with
``PYTHONPATH=src``.  The workload's inputs come from ``--seed``; ops run back
to back until ``--seconds`` of timed op time have passed, and every op's
output is checked outside its timed span.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every input
twice, untraced and traced, and prints the per-layer metrics, the tracing
overhead and how much of the op time the layer spans cover.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
run's details (seeds, versions, sample counts, failures by check).
Results and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
HELD_OUT_SEED = 424242  # reserved for confirming claims; never used while tuning
SETUP_PROBES = 5
WORKLOADS = ("certify-families", "certify-general", "integrate", "cli-session")

LAYER_FUNCTIONS = {
    "legendre": ["legendre_monomial", "mono_mul", "mono_pow", "mono_int01", "to_monomial",
                 "from_monomial", "antiderivative", "legendre_table"],
    "method": ["construct", "validate"],
    "verify": ["build_property_report", "check_order_conditions", "check_simplifying",
               "c_breve_defect", "d_breve_defect", "symplectic_residual", "symmetric_residual",
               "energy_preserving_residual", "stage_contraction_bound"],
    "discretize": ["rule", "discretize", "predicted_rk_order", "rk_symplectic_residual"],
}
CLI_COMMANDS = ["construct", "verify", "discretize", "integrate", "convergence"]


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import csrk from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "csrk" / "__init__.py").is_file():
        fail(f"no csrk sources under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import csrk

    if Path(csrk.__file__).resolve().parent != (src / "csrk").resolve():
        fail(f"imported csrk from {csrk.__file__}, not from {src}")
    return csrk


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "heldout_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Wall seconds from a fresh interpreter to the workload's built inputs."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return elapsed


class TraceContext:
    """The tracer plus the per-op counters workloads feed during traced ops."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.rhs_counter = [0]
        self.next_child = 0


def run_one(wl, inp, ctx, op_id):
    """Prepare, time and run one op: (seconds, prepared job, output or None, error)."""
    job = wl.prepare(inp, ctx)
    if ctx is not None:
        ctx.tracer.op_id = op_id
        ctx.tracer.install()
    start = perf_counter()
    try:
        out, err = wl.run(job), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out, err = None, exc
    finally:
        elapsed = perf_counter() - start
        if ctx is not None:
            ctx.tracer.uninstall()
    return elapsed, job, out, err


def percentile_ms(values, q):
    return float(np.percentile(values, q)) * 1000.0


def measure(wl, pool, seconds: float, ctx=None, probe=None) -> dict:
    """Run ops until ``seconds`` of timed op time; with ``ctx``, in traced pairs.

    ``probe`` (untraced runs) times one set-up; it is called SETUP_PROBES
    times, spread evenly over the timed ops, so that set-up time samples the
    whole run rather than one moment of it.  Untraced runs also time the
    reference kernel every ``reference.REF_EVERY_S`` of op time; ``ref_at``
    and ``probe_at`` give the latest kernel timing before each op and probe.
    """
    rec = {
        "lat": [], "lat_traced": [], "failures": Counter(), "attempted": 0, "failed": 0,
        "steps": 0, "traced_ops": set(),
        "solver": defaultdict(lambda: [0, 0]), "import_s": [], "written": [0, 0],
        "probes": [], "refs": [], "ref_at": [], "probe_at": [],
    }
    wall_start = perf_counter()
    timed = 0.0
    i = 0
    # The wall-time cap keeps a run on a slow host well inside 180 s.
    while timed < seconds and perf_counter() - wall_start < 2 * seconds + 20:
        if ctx is None and len(rec["refs"]) * reference.REF_EVERY_S <= timed:
            rec["refs"].append(reference.time_kernel())
        if probe is not None and len(rec["probes"]) * seconds <= timed * SETUP_PROBES:
            rec["probes"].append(probe())
            rec["probe_at"].append(len(rec["refs"]) - 1)
        inp = pool[i % len(pool)]
        modes = (False,) if ctx is None else ((False, True) if i % 2 == 0 else (True, False))
        prints, outcomes = {}, []
        for traced in modes:
            tracer = ctx.tracer if traced else None
            before = tracer.stage_solves if tracer else 0
            elapsed, job, out, err = run_one(wl, inp, ctx if traced else None, i)
            timed += elapsed
            rec["attempted"] += 1
            if traced:
                rec["lat_traced"].append(elapsed)
                rec["traced_ops"].add(i)
                if "cfg" in job:
                    bucket = rec["solver"][job["cfg"].solver]
                    bucket[0] += ctx.rhs_counter[0]
                    bucket[1] += tracer.stage_solves - before
                if job.get("spans_path") is not None and job["spans_path"].exists():
                    data = json.loads(job["spans_path"].read_text())
                    tracer.merge(data, i)
                    rec["import_s"].append(data["import_s"])
                    job["spans_path"].unlink()
            else:
                rec["lat"].append(elapsed)
                rec["ref_at"].append(len(rec["refs"]) - 1)
                rec["steps"] += wl.steps(job)
            if err is not None:
                failed = [f"{wl.name}.raised.{type(err).__name__}"]
            else:
                failed = wl.check(job, out)
                prints[traced] = wl.fingerprint(out)
                if traced and hasattr(wl, "written"):
                    files, size = wl.written(job)
                    rec["written"][0] += files
                    rec["written"][1] += size
            outcomes.append((traced, failed))
        if len(prints) == 2 and prints[False] != prints[True]:
            outcomes[[t for t, _ in outcomes].index(True)][1].append("trace.changed_output")
        for _, failed in outcomes:
            if failed:
                rec["failed"] += 1
                rec["failures"].update(failed)
        i += 1
    while probe is not None and len(rec["probes"]) < SETUP_PROBES:
        rec["probes"].append(probe())
        rec["probe_at"].append(len(rec["refs"]) - 1)
    rec["wall_s"] = perf_counter() - wall_start
    return rec


def scaled(values, refs, at):
    """Times at the reference host speed (see reference.py)."""
    return [v * k for v, k in zip(values, reference.scales(refs, at))]


def end_to_end(rec, peak_rss_mb) -> dict:
    lat = scaled(rec["lat"], rec["refs"], rec["ref_at"])
    total = sum(lat)
    metrics = {
        "setup_s": (statistics.median(scaled(rec["probes"], rec["refs"], rec["probe_at"])), "s"),
        "ops_per_s": (len(lat) / total, "1/s"),
        "op_ms_p50": (percentile_ms(lat, 50), "ms"),
        "op_ms_p90": (percentile_ms(lat, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(rec, tracer) -> dict:
    ops = rec["traced_ops"]
    n = max(len(ops), 1)
    own = tracer.self_times(ops)
    every = tracer.self_times()
    m: dict[str, tuple[float, str]] = {}
    m["exact.ops"] = (tracer.exact_ops / n, "count/op")
    m["exact.zero_tests"] = (tracer.exact_zero_tests / n, "count/op")
    m["exact.self_s"] = ((tracer.exact_time - tracer.exact_outside) / n, "s/op")
    m["exact.max_radicals"] = (tracer.max_radicals, "count")
    m["exact.max_int_bits"] = (tracer.max_int_bits, "bits")
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            calls, self_s = own.get(f"{layer}.{fn}", (0, 0.0))
            m[f"{layer}.{fn}.calls"] = (calls / n, "count/op")
            m[f"{layer}.{fn}.self_s"] = (self_s / n, "s/op")
    for layer in ("legendre", "method", "verify", "discretize", "integrate", "cli"):
        total = sum(v[1] for k, v in own.items() if k.startswith(layer + "."))
        m[f"{layer}.self_s"] = (total / n, "s/op")

    spans = [s for s in tracer.spans if s is not None and s[4] in ops]
    integ_time = sum(s[2] - s[1] for s in spans if s[0] == "integrate.integrate")
    rk_spans = [s[2] - s[1] for s in spans if s[0] == "integrate.rk_step"]
    solves = tracer.stage_solves
    m["integrate.steps"] = (solves / n, "count/op")
    m["integrate.steps_per_s"] = (rec["steps"] / sum(rec["lat"]) if rec["lat"] else 0.0, "1/s")
    integ_steps = solves - len(rk_spans)
    m["integrate.us_per_step"] = (1e6 * integ_time / integ_steps if integ_steps else 0.0, "us")
    for solver in ("fixed_point", "newton"):
        rhs, steps = rec["solver"].get(solver, (0, 0))
        m[f"integrate.rhs_calls_per_step.{solver}"] = (rhs / steps if steps else 0.0, "count")
    m["integrate.stage_iters_per_step"] = (tracer.stage_iters / solves if solves else 0.0, "count")
    m["integrate.stage_iters_max"] = (tracer.stage_iters_max, "count")
    m["integrate.rk_step.calls"] = (len(rk_spans) / n, "count/op")
    m["integrate.rk_step.us_per_call"] = (1e6 * sum(rk_spans) / len(rk_spans) if rk_spans else 0.0, "us")
    m["integrate.diagnostics.self_s"] = (own.get("integrate.diagnostics", (0, 0.0))[1] / n, "s/op")
    calls, self_s = every.get("integrate.problem_setup", (0, 0.0))
    m["integrate.problem_setup.self_s"] = (self_s / calls if calls else 0.0, "s/call")

    m["cli.import_s"] = (statistics.median(rec["import_s"]) if rec["import_s"] else 0.0, "s")
    for cmd in CLI_COMMANDS:
        durations = [s[2] - s[1] for s in spans if s[0] == f"cli.{cmd}"]
        calls, self_s = own.get(f"cli.{cmd}", (0, 0.0))
        m[f"cli.{cmd}.wall_ms"] = (1e3 * sum(durations) / len(durations) if durations else 0.0, "ms")
        m[f"cli.{cmd}.self_ms"] = (1e3 * self_s / calls if calls else 0.0, "ms")
    m["cli.files_written"] = (rec["written"][0] / n, "count/op")
    m["cli.bytes_written"] = (rec["written"][1] / n, "B/op")

    traced_total = sum(rec["lat_traced"])
    m["trace.overhead"] = (traced_total / sum(rec["lat"]), "ratio")
    m["trace.coverage"] = (tracer.covered_time(ops) / traced_total, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    wl = workloads.make(args.workload, ROOT, workdir)
    if args.setup_probe:
        workloads.pool_for(wl, args.seed)
        return 0

    OUT.mkdir(exist_ok=True)
    try:
        ctx = probe = None
        if args.trace:
            from tracer import Tracer

            ctx = TraceContext(Tracer())
            ctx.tracer.op_id = "setup"
            ctx.tracer.install()
            try:
                pool = workloads.pool_for(wl, args.seed)
            finally:
                ctx.tracer.uninstall()
            ctx.tracer.reset_counters()  # set-up keeps its spans, not its counts
        else:
            pool = workloads.pool_for(wl, args.seed)

            def probe():
                return setup_probe(args.workload, args.seed)

        run_one(wl, pool[0], None, "warmup")
        rec = measure(wl, pool, args.seconds, ctx, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.workload == "cli-session":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if ctx is None:
        metrics = end_to_end(rec, peak_kb / 1024.0)
    else:
        metrics = per_layer(rec, ctx.tracer)

    unexpected = sorted(k for k in rec["failures"] if k not in workloads.KNOWN_DEFECTS)
    lat = rec["lat"]
    p90 = percentile_ms(lat, 90) / 1000.0
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        **environment(args.seed),
        "seconds": args.seconds,
        "wall_s": rec["wall_s"],
        "op_samples": len(lat),
        "samples_beyond_p90": sum(1 for v in lat if v > p90),
        "fail_ratio": rec["failed"] / rec["attempted"],
        "failures": dict(rec["failures"]),
        "known_defects": {k: workloads.KNOWN_DEFECTS[k] for k in rec["failures"] if k in workloads.KNOWN_DEFECTS},
        "steps_per_s": rec["steps"] / sum(lat) if args.workload == "integrate" else None,
        "setup_probes_s": rec["probes"] or None,
        "unscaled": {
            "setup_s": statistics.median(rec["probes"]),
            "ops_per_s": len(lat) / sum(lat),
            "op_ms_p50": percentile_ms(lat, 50),
            "op_ms_p90": percentile_ms(lat, 90),
        } if ctx is None else None,
        "reference_kernel_s": statistics.median(rec["refs"]) if rec["refs"] else None,
        "benchmark_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {
        "correct": not unexpected,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(
        json.dumps({**detail, **result, "latencies_s": lat, "reference_s": rec["refs"],
                    "reference_at": rec["ref_at"]}, indent=1) + "\n"
    )
    if ctx is not None:
        ctx.tracer.dump(OUT / "results" / f"{tag}.spans.jsonl.gz")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
