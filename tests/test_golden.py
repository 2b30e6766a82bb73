"""Every certificate and defect of the golden corpus is reproduced (see tests/make_golden.py)."""

import json

import pytest

from csrk.method import method_from_json_dict, method_to_json_dict
from make_golden import GOLDEN, corpus, differences, entry

RECORDS = json.loads(GOLDEN.read_text())


def test_corpus_rebuilds_the_committed_methods():
    methods = dict(corpus())
    assert sorted(methods) == sorted(RECORDS)
    for name, m in methods.items():
        assert method_to_json_dict(m) == RECORDS[name]["method"], name


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_golden_certificates(name):
    expected = RECORDS[name]
    m = method_from_json_dict(expected["method"])
    assert differences(expected, entry(m)) == []
