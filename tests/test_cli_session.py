"""The recorded csrk session replays byte for byte (see tests/cli_session.py)."""

import json

from cli_session import GOLDEN, run_session

RECORDS = json.loads(GOLDEN.read_text())


def test_golden_session_covers_every_exit_code():
    assert {record["exit"] for record in RECORDS} == {0, 1, 2, 3}


def test_cli_session_replays_byte_for_byte(tmp_path):
    replay = run_session([record["argv"] for record in RECORDS], tmp_path)
    for expected, got in zip(RECORDS, replay):
        assert got == expected, " ".join(expected["argv"])
