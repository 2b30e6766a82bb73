"""Paired benchmark runs of a parent checkout against this tree.

Runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` in
the parent checkout and in this tree, alternating which of the two runs
first in each pair, and records every run's end-to-end metrics, the
medians and quartiles per side, and for each metric the number of pairs in
which this tree did better (the direction comes from BENCHMARK.json).  The
result goes into OUT under the key "W seed S", next to what OUT already
holds, together with the command, the Python and numpy versions and
``nproc``.  Run from the repository root:

    python3 tests/bench_pairs.py PARENT_DIR --workload certify-general \\
        --seed 1 --pairs 10 --seconds 15 --out BENCH_15.json

It only calls ``bench/run.py``; it changes nothing under ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its metric values, ops attempted and ops failed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name in runs[0]["parent"]["metrics"]:
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        sign = 1.0 if better.get(name) == "higher" else -1.0
        p, c = quartiles(parent), quartiles(change)
        summary[name] = {
            "better": better.get(name, "lower"),
            "parent": p,
            "change": c,
            "median_ratio": c["median"] / p["median"] if p["median"] else None,
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "pairs": len(runs),
            "median_gain_exceeds_parent_iqr": sign * (c["median"] - p["median"]) > p["iqr"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    runs = []
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, args.seed, args.seconds)
            print(f"pair {k + 1}/{args.pairs} {side}: {pair[side]['metrics']}", file=sys.stderr)
        runs.append(pair)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record.update({
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0, "
                   "parent and change alternated, parent first in odd pairs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    })
    record.setdefault("workloads", {})[f"{args.workload} seed {args.seed}"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
        "summary": summarize(runs, better),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
