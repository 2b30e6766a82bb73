"""Host-speed reference: a fixed exact-rational kernel that uses no csrk code.

The shared host this benchmark runs on changes speed by up to 1.8x in phases
that last from seconds to minutes, longer than one run.  ``run.py`` times
this kernel every ``REF_EVERY_S`` of op time and scales each op's time by
``NOMINAL_S`` over the kernel's median time around that op, so that the
reported times read as if the host had run at one fixed speed.  The kernel
does what csrk's ``Scalar`` multiplication does, on plain dicts of small
``Fraction`` values: products over pairs of radical terms and zero tests.
It must never change, or figures before and after the change stop being
comparable.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time inside a run on the reference host (2-vCPU Xeon VM,
# Python 3.11.7) in its slow phase; scaled times are op times at that speed.
NOMINAL_S = 0.021
REF_EVERY_S = 0.5  # op time between two kernel timings
WINDOW = 4  # kernel timings on each side of an op that set its scale

_ROOTS = (1, 2, 3, 5, 6, 7, 10, 11)


def kernel(n: int = 8) -> int:
    """Multiply n eight-term radical sums pairwise; count the nonzero terms."""
    xs = [{r: Fraction((r + k) % 5 - 2 or 1, 3 + (r * k) % 7) for r in _ROOTS} for k in range(n)]
    nonzero = 0
    for a in xs:
        for b in xs:
            terms: dict[int, Fraction] = {}
            for ra, qa in a.items():
                for rb, qb in b.items():
                    key = ra * rb
                    terms[key] = terms.get(key, 0) + qa * qb
            nonzero += sum(1 for q in terms.values() if q != 0)
    return nonzero


EXPECTED = kernel()


def time_kernel() -> float:
    start = perf_counter()
    out = kernel()
    elapsed = perf_counter() - start
    if out != EXPECTED:
        raise RuntimeError(f"reference kernel gave {out}, not {EXPECTED}")
    return elapsed


def scales(refs: list[float], at: list[int]) -> list[float]:
    """NOMINAL_S over the median kernel time within WINDOW timings of each index."""
    return [NOMINAL_S / statistics.median(refs[max(0, k - WINDOW): k + WINDOW + 1]) for k in at]
