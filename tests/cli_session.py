"""A recorded ``csrk`` session that pins the command line's observable behaviour.

Each command runs in-process through ``csrk.cli.main`` in one working
directory, in order, so later commands read the files earlier ones wrote.
Per command the record holds the exit code, stdout, stderr, the names in
the directory afterwards and the text of every file the command created
or changed.  ``wall_time_s`` is dropped from run manifests, the one value
that differs between runs.

Regenerate ``tests/data/cli_session.json`` only when a change to the
command line is intended, and say so in CHANGES.md:

    PYTHONPATH=src python3 tests/cli_session.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_session.json"

SESSION = [
    # the README session, with the Kepler run cut to 200 steps
    ["construct", "--family", "simplifying", "--alpha", "2", "--beta", "1", "--out", "order4.json"],
    ["verify", "order4.json"],
    ["discretize", "order4.json", "--rule", "gauss", "--stages", "2", "--out", "gauss2.json"],
    ["integrate", "gauss2.json", "--problem", "kepler", "--e", "0.6", "--h", "0.01",
     "--steps", "200", "--out", "kepler.csv"],
    ["convergence", "gauss2.json", "--problem", "harmonic", "--h-list", "0.2,0.1,0.05,0.025",
     "--t-final", "2.0", "--out", "conv.json"],
    ["construct", "--family", "ep-legendre", "--omega", "1,1", "--out", "ep.json"],
    ["construct", "--family", "ep-general", "--omega", "1,1/2", "--generator", "1,1/2",
     "--generator", "1/2,0,-1", "--out", "epg.json"],
    ["construct", "--family", "symplectic", "--set", "1,2=1/4", "--out", "sympl.json"],
    ["construct", "--family", "order", "--order", "4", "--set", "2,1=sqrt(15)/30",
     "--out", "member.json"],
    # the family the README session leaves out, and the other file formats
    ["construct", "--family", "symmetric", "--label", "symm", "--out", "symm.json"],
    ["discretize", "symm.json", "--rule", "lobatto", "--stages", "3", "--format", "csv",
     "--out", "lobatto3.csv"],
    ["integrate", "lobatto3.csv", "--problem", "pendulum", "--z0=0.5,1", "--solver", "newton",
     "--h", "0.1", "--steps", "20", "--out", "pendulum.csv"],
    # each missing required option, and --set with an ep family
    ["construct", "--family", "order", "--out", "x.json"],
    ["construct", "--family", "simplifying", "--alpha", "2", "--out", "x.json"],
    ["construct", "--family", "ep-legendre", "--out", "x.json"],
    ["construct", "--family", "ep-general", "--omega", "1", "--out", "x.json"],
    ["construct", "--family", "ep-general", "--omega", "1", "--generator", "1",
     "--set", "1,1=1/2", "--out", "x.json"],
    # a Newton run that does not converge, a two-step sweep, a missing input
    ["integrate", "gauss2.json", "--problem", "kepler", "--solver", "newton", "--max-iter", "1",
     "--h", "0.01", "--steps", "3", "--out", "x.csv"],
    ["convergence", "gauss2.json", "--problem", "harmonic", "--h-list", "0.2,0.1",
     "--t-final", "1", "--out", "x.json"],
    ["verify", "missing.json"],
]


def _normalized(name: str, data: bytes) -> str:
    text = data.decode()
    if name.endswith(".manifest.json"):
        manifest = json.loads(text)
        del manifest["wall_time_s"]
        text = json.dumps(manifest, indent=2) + "\n"
    return text


def run_session(session, workdir: Path) -> list[dict]:
    """Run each argv of session in workdir; one record per command."""
    from csrk.cli import main

    records, seen = [], {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in session:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            files = {p.name: p.read_bytes() for p in workdir.iterdir()}
            records.append({
                "argv": list(argv),
                "exit": code,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "listing": sorted(files),
                "written": {
                    name: _normalized(name, data)
                    for name, data in sorted(files.items()) if seen.get(name) != data
                },
            })
            seen = files
    finally:
        os.chdir(cwd)
    return records


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = run_session(SESSION, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} commands to {GOLDEN}", file=sys.stderr)
