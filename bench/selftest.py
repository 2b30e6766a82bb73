"""Self-test of the benchmark (not part of the repository's pytest suite).

    python3 bench/selftest.py

1. Every workload, run at minimum size with and without tracing, prints
   every metric named in BENCHMARK.json with its unit (also the workloads
   BENCHMARK.json does not list).
2. Deliberately wrong inputs are counted as failed ops instead of crashing
   the run: explicit Euler where a symplectic tableau is expected, a step
   the fixed-point solver cannot take, a CLI command that exits non-zero,
   and a certificate that does not belong to its method.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def check_metric_names() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (workload, trace, set(got) ^ set(expected[trace]))
            for name, value in result["metrics"].items():
                assert isinstance(value["value"], (int, float)), (workload, name, value)
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")


def check_failures_are_counted() -> None:
    run.import_package()
    import workloads

    d, i = workloads.D, workloads.I
    integ = workloads.make("integrate", ROOT, ROOT)
    pool = workloads.pool_for(integ, 7)
    newton_job = next(job for job in pool if job["kind"] == "kepler-newton")
    euler = {**newton_job, "tableau": d.explicit_euler()}
    rec = run.measure(integ, [euler], 0.01)
    assert rec["failed"] == rec["attempted"] >= 1, rec
    assert rec["failures"]["kepler-newton.symplecticity"] >= 1, rec["failures"]
    assert rec["failures"]["kepler-newton.angular_momentum"] >= 1, rec["failures"]
    print("ok  explicit Euler in place of a symplectic tableau counts as failed")

    fp_job = next(job for job in pool if job["kind"] == "kepler-fixed-point")
    too_big = {**fp_job, "h": 5.0, "steps": 3}
    rec = run.measure(integ, [too_big], 0.01)
    assert rec["failed"] == rec["attempted"] >= 1, rec
    assert any(".raised." in k for k in rec["failures"]), rec["failures"]
    print("ok  an op that raises counts as failed")

    workdir = ROOT / ".bench_out" / "selftest-cli"
    cli = workloads.make("cli-session", ROOT, workdir)
    bad = {"dir": "bad", "cmd": "verify", "out": None, "expect": {},
           "argv": ["verify", "missing.json"]}
    try:
        rec = run.measure(cli, [bad], 0.01)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert rec["failures"]["verify.exit_code"] >= 1, rec["failures"]
    print("ok  a CLI command exiting non-zero counts as failed")

    gen = workloads.make("certify-general", ROOT, ROOT)
    first, second = workloads.pool_for(gen, 7)[:2]
    out = gen.run(second)
    failed = gen.check(first, out)
    assert failed, "the oracle accepted another method's certificates"
    print(f"ok  the oracle rejects certificates of another method: {sorted(set(failed))}")


if __name__ == "__main__":
    check_metric_names()
    check_failures_are_counted()
    print("selftest passed")
