"""Run one csrk CLI command in-process under the tracer.

    python bench/cli_shim.py SPANS_JSON csrk-arguments...

Used for the traced runs of the cli-session workload: it times the import
of ``csrk.cli``, installs the tracer, calls ``csrk.cli.main`` with the
remaining arguments, writes the spans and counters to SPANS_JSON and exits
with main's exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import csrk.cli

    import_s = perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.op_id = 0
    tracer.install()
    try:
        code = csrk.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, **tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
