"""A committed corpus of methods that pins every certificate and defect.

The corpus holds 24 random general-B/C methods, one for each
(dtau, dsigma, deg B) in 3..6 x 3..6 x 0..2 whose index sum is even, drawn
as the certify-general benchmark draws them, plus seven family members:
simplifying(3,3), two order-4 members (one with the single radical entry
a[2,1] = sqrt(15)/30), EP-Legendre [1, 1, 1/2], the symplectic member
{(1,2): 1/4, (1,3): 1/5}, a symmetric member with the radical odd-sum
entries a[2,1] = sqrt(15)/30 and a[0,3] = sqrt(7)/10, and the README's
ep-general method with weights 1, 1/2 and generators 1 + P_1/2 and
P_0/2 - P_2, whose B is not 1.  Per
method the file holds the method JSON, the full ``report_to_json_dict``
and the sha256 of the ``c_breve_defect``/``d_breve_defect`` strings for
k = 1..3.  Exact fields compare as strings, ``h_bound_per_unit_L`` at
1e-12 relative (it is the one float).

Check the committed file against the code (exit 1 and the differing
methods listed when they disagree):

    PYTHONPATH=src python3 tests/make_golden.py

Rewrite it only when a change to a certificate is intended, and say so in
CHANGES.md:

    PYTHONPATH=src python3 tests/make_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_certify.json"
SEED = 12
KS = (1, 2, 3)


def corpus():
    """(name, method) for every method of the corpus, rebuilt from the seed."""
    from csrk.exact import Scalar
    from csrk.legendre import UnivariatePoly
    from csrk.method import (
        EpSpec,
        construct_ep_general,
        construct_ep_legendre,
        construct_order_by_order,
        construct_simplifying,
        construct_symmetric,
        construct_symplectic,
        new_method,
    )

    rng = random.Random(SEED)

    def num():
        return rng.choice((-2, -1, 1, 2))

    out = []
    for dtau in range(3, 7):
        for dsigma in range(3, 7):
            for bdeg in range(3):
                if (dtau + dsigma + bdeg) % 2:
                    continue
                rows = [
                    [Scalar(Fraction(num(), rng.randrange(6, 13))) for _ in range(dsigma + 1)]
                    for _ in range(dtau + 1)
                ]
                c = UnivariatePoly([row[0] for row in rows])
                b = UnivariatePoly(
                    [1] + [Fraction(num(), rng.randrange(3, 7)) for _ in range(bdeg)]
                )
                out.append((f"general-{dtau}-{dsigma}-{bdeg}", new_method(rows, b, c)))
    out.append(("simplifying-3-3", construct_simplifying(3, 3)))
    free = {(2, 1): Scalar.sqrt(15, Fraction(1, 30)), (1, 3): Fraction(1, 5)}
    out.append(("order-4", construct_order_by_order(4, free)))
    out.append(("ep-legendre-1-1-1/2", construct_ep_legendre([1, 1, Fraction(1, 2)]).method))
    sqrt15_30 = Scalar.sqrt(15, Fraction(1, 30))
    out.append(("order-4-sqrt15", construct_order_by_order(4, {(2, 1): sqrt15_30})))
    sympl = {(1, 2): Fraction(1, 4), (1, 3): Fraction(1, 5)}
    out.append(("symplectic-1/4-1/5", construct_symplectic(sympl)))
    odd = {(2, 1): sqrt15_30, (0, 3): Scalar.sqrt(7, Fraction(1, 10))}
    out.append(("symmetric-sqrt15-sqrt7", construct_symmetric(odd)))
    half = Fraction(1, 2)
    spec = EpSpec((1, half), (UnivariatePoly([1, half]), UnivariatePoly([half, 0, -1])))
    out.append(("ep-general-readme", construct_ep_general(spec).method))
    return out


def _digest(values) -> str:
    return hashlib.sha256(json.dumps([str(v) for v in values]).encode()).hexdigest()


def entry(m) -> dict:
    """The golden record of one method."""
    from csrk.method import method_to_json_dict
    from csrk.verify import (
        build_property_report,
        c_breve_defect,
        d_breve_defect,
        report_to_json_dict,
    )

    return {
        "method": method_to_json_dict(m),
        "report": report_to_json_dict(build_property_report(m)),
        "defects": {
            **{f"c{k}": _digest(c_breve_defect(m, k)) for k in KS},
            **{f"d{k}": _digest(d_breve_defect(m, k)) for k in KS},
        },
    }


def differences(expected: dict, got: dict) -> list[str]:
    """The fields where got differs from expected; h_bound_per_unit_L at 1e-12 relative."""
    bad = []
    if got["method"] != expected["method"]:
        bad.append("method")
    for key in sorted(set(expected["report"]) | set(got["report"])):
        want, have = expected["report"].get(key), got["report"].get(key)
        if key == "h_bound_per_unit_L" and isinstance(want, float) and isinstance(have, float):
            same = math.isclose(have, want, rel_tol=1e-12, abs_tol=0.0)
        else:
            same = want == have
        if not same:
            bad.append(f"report.{key}")
    bad += [
        f"defects.{k}"
        for k, digest in sorted(expected["defects"].items())
        if got["defects"].get(k) != digest
    ]
    return bad


def main(argv: list[str]) -> int:
    records = {name: entry(m) for name, m in corpus()}
    if argv == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(records)} methods to {GOLDEN}", file=sys.stderr)
        return 0
    if argv:
        print("usage: make_golden.py [--write]", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    failed = 0
    for name in sorted(set(golden) | set(records)):
        if name not in golden or name not in records:
            print(f"{name}: only in {'the code' if name in records else GOLDEN.name}")
            failed += 1
            continue
        bad = differences(golden[name], records[name])
        if bad:
            print(f"{name}: {', '.join(bad)}")
            failed += 1
    print(f"{failed} of {len(golden)} methods differ from {GOLDEN.name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
