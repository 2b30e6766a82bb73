import json
import math
import os

import numpy as np
import pytest

import csrk.cli
from csrk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_simplifying_writes_method_report_manifest(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, stdout, _ = run(
        capsys,
        "construct", "--family", "simplifying", "--alpha", "2", "--beta", "1",
        "--out", str(out),
    )
    assert code == 0
    assert "guaranteed_order=4" in stdout
    method = json.loads(out.read_text())
    assert method["B"] == ["1"]
    assert method["C"] == ["1/2", "1/6*sqrt(3)"]
    assert method["alpha"][2][1] == "1/30*sqrt(15)"
    report = json.loads((tmp_path / "m.report.json").read_text())
    assert report["guaranteed_order"] == 4
    assert report["breve"] == {"B": "inf", "C": 2, "D": 1}
    manifest = json.loads((tmp_path / "m.manifest.json").read_text())
    assert manifest["command"] == "construct"
    for path in manifest["outputs"]:
        assert (tmp_path / path).exists() or json.loads(open(path).read()) is not None


def test_construct_ep_legendre_report(tmp_path, capsys):
    out = tmp_path / "ep.json"
    code, stdout, _ = run(
        capsys,
        "construct", "--family", "ep-legendre", "--omega", "1,1", "--out", str(out),
    )
    assert code == 0
    assert "kappa=2" in stdout and "claimed_order=4" in stdout
    report = json.loads((tmp_path / "ep.report.json").read_text())
    assert report["flags"]["energy_preserving"] is True
    assert report["flags"]["symmetric"] is True
    assert report["guaranteed_order"] == 4


def test_construct_skew_conflict_exits_1_with_error_json(tmp_path, capsys):
    code, _, stderr = run(
        capsys,
        "construct", "--family", "symplectic", "--set", "1,1=1",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 1
    err = json.loads(stderr.strip())
    assert err["error"] == "SkewConflict"


def test_verify_round_trip_reproduces_report(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, _ = run(
        capsys,
        "construct", "--family", "symplectic", "--out", str(out),
    )
    assert code == 0
    construct_report = json.loads((tmp_path / "m.report.json").read_text())
    code2, stdout, _ = run(capsys, "verify", str(out))
    assert code2 == 0
    assert json.loads(stdout) == construct_report
    assert construct_report["flags"] == {
        "symplectic": True,
        "symmetric": True,
        "energy_preserving": False,
    }
    assert construct_report["verified_order_direct"] == 4


def test_verify_corrupt_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, stderr = run(capsys, "verify", str(bad))
    assert code == 2
    assert json.loads(stderr.strip())["error"] == "_InputError"
    code2, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code2 == 2


def test_discretize_gauss2_midpoint_values(tmp_path, capsys):
    method = tmp_path / "m.json"
    run(capsys, "construct", "--family", "symplectic", "--out", str(method))
    out = tmp_path / "tab.json"
    code, stdout, _ = run(
        capsys,
        "discretize", str(method), "--rule", "gauss", "--stages", "2", "--out", str(out),
    )
    assert code == 0
    tab = json.loads(out.read_text())
    r3 = math.sqrt(3) / 6
    assert np.allclose(tab["a"], [[0.25, 0.25 - r3], [0.25 + r3, 0.25]], atol=1e-14)
    assert np.allclose(tab["b"], [0.5, 0.5])
    info = json.loads((tmp_path / "tab.info.json").read_text())
    assert info["rk_symplectic_residual"] <= 1e-14
    assert info["predicted_rk_order"] == 3


def test_discretize_csv_format(tmp_path, capsys):
    method = tmp_path / "m.json"
    run(capsys, "construct", "--family", "ep-legendre", "--omega", "1", "--out", str(method))
    out = tmp_path / "tab.csv"
    code, _, _ = run(
        capsys,
        "discretize", str(method), "--stages", "1", "--format", "csv", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "c,b,a1"
    c, b, a11 = (float(v) for v in lines[1].split(","))
    assert (c, b, a11) == (0.5, 1.0, 0.5)


def test_discretize_lobatto_needs_two_stages(tmp_path, capsys):
    method = tmp_path / "m.json"
    run(capsys, "construct", "--family", "symplectic", "--out", str(method))
    code, _, stderr = run(
        capsys,
        "discretize", str(method), "--rule", "lobatto", "--stages", "1",
        "--out", str(tmp_path / "t.json"),
    )
    assert code == 1
    assert json.loads(stderr.strip())["error"] == "ValueError"


def test_integrate_kepler_diagnostics(tmp_path, capsys):
    method = tmp_path / "m.json"
    run(capsys, "construct", "--family", "symplectic", "--out", str(method))
    tab = tmp_path / "tab.json"
    run(capsys, "discretize", str(method), "--stages", "2", "--out", str(tab))
    out = tmp_path / "traj.csv"
    code, stdout, _ = run(
        capsys,
        "integrate", str(tab), "--problem", "kepler", "--e", "0.6",
        "--h", "0.01", "--steps", "200", "--out", str(out),
    )
    assert code == 0
    assert "energy_drift=" in stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,z1,z2,z3,z4,iters"
    assert len(lines) == 202
    diag = json.loads((tmp_path / "traj.diagnostics.json").read_text())
    assert diag["energy_drift"] < 1e-8
    assert diag["invariant_drifts"]["angular_momentum"] < 1e-10
    assert diag["empirical_order"] is None


def test_integrate_nonconvergence_exits_3_with_bound_advice(tmp_path, capsys):
    method = tmp_path / "m.json"
    run(capsys, "construct", "--family", "symplectic", "--out", str(method))
    tab = tmp_path / "tab.json"
    run(capsys, "discretize", str(method), "--stages", "2", "--out", str(tab))
    code, _, stderr = run(
        capsys,
        "integrate", str(tab), "--problem", "harmonic",
        "--h", "10", "--steps", "3", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 3
    err = json.loads(stderr.strip())
    assert err["error"] == "NonConvergence"
    assert "contraction bound" in err["message"]


def test_convergence_gauss2_harmonic_slope(tmp_path, capsys):
    method = tmp_path / "m.json"
    run(capsys, "construct", "--family", "simplifying", "--alpha", "1", "--beta", "1",
        "--out", str(method))
    tab = tmp_path / "tab.json"
    run(capsys, "discretize", str(method), "--stages", "2", "--out", str(tab))
    out = tmp_path / "conv.json"
    code, stdout, _ = run(
        capsys,
        "convergence", str(tab), "--problem", "harmonic",
        "--h-list", "0.2,0.1,0.05,0.025", "--t-final", "2.0", "--out", str(out),
    )
    assert code == 0
    diag = json.loads(out.read_text())
    assert abs(diag["empirical_order"] - 4.0) <= 0.2
    assert len(diag["pairwise_ratios"]) == 3
    assert "empirical_order=" in stdout


def test_construct_order_family_with_set_entries(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, _ = run(
        capsys,
        "construct", "--family", "order", "--order", "4",
        "--set", "2,1=1/30*sqrt(15)", "--out", str(out),
    )
    assert code == 0
    method = json.loads(out.read_text())
    assert method["alpha"][2][1] == "1/30*sqrt(15)"
    natural = tmp_path / "natural.json"
    code, _, _ = run(
        capsys,
        "construct", "--family", "order", "--order", "4",
        "--set", "2,1=sqrt(15)/30", "--out", str(natural),
    )
    assert code == 0
    assert natural.read_text() == out.read_text()
    code, _, stderr = run(
        capsys,
        "construct", "--family", "order", "--order", "4",
        "--set", "2,1=1/0", "--out", str(natural),
    )
    assert code == 2
    assert json.loads(stderr.strip())["error"] == "_InputError"
    # bilinear violation rejected
    code2, _, stderr = run(
        capsys,
        "construct", "--family", "order", "--order", "4",
        "--set", "0,3=1", "--set", "3,1=1", "--out", str(out),
    )
    assert code2 == 1
    assert json.loads(stderr.strip())["error"] == "Order4ConstraintViolation"


def test_construct_ep_general(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, stdout, _ = run(
        capsys,
        "construct", "--family", "ep-general", "--omega", "1,1",
        "--generator", "1", "--generator", "0,1", "--out", str(out),
    )
    assert code == 0
    assert "c_matches_tau=True" in stdout
    ref = tmp_path / "ref.json"
    run(capsys, "construct", "--family", "ep-legendre", "--omega", "1,1", "--out", str(ref))
    assert json.loads(out.read_text())["alpha"] == json.loads(ref.read_text())["alpha"]


def test_construct_ep_general_derives_weight_polynomial(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run(
        capsys,
        "construct", "--family", "ep-general", "--omega", "2", "--generator", "1",
        "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["B"] == ["2"]
    report = json.loads((tmp_path / "g.report.json").read_text())
    assert report["residuals"]["energy"] == ["0", "0", "0"]
    assert report["flags"]["energy_preserving"] is True


def test_missing_required_parameter_is_usage_error(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "construct", "--family", "order", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "required" in json.loads(stderr.strip())["message"]


class _Interrupted(Exception):
    pass


def _snapshot(tmp_path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in tmp_path.iterdir()}


def _assert_manifest_names_one_complete_run(tmp_path, first_run):
    """A manifest left behind must be the first run's, over that run's outputs."""
    manifest = tmp_path / "m.manifest.json"
    if not manifest.exists():
        return
    assert manifest.read_bytes() == first_run["m.manifest.json"]
    for path in json.loads(manifest.read_text())["outputs"]:
        name = os.path.basename(path)
        assert (tmp_path / name).read_bytes() == first_run[name]


def _construct_twice(tmp_path, capsys):
    """Construct m.json, then return the files and the argv of a different rerun."""
    out = str(tmp_path / "m.json")
    assert run(capsys, "construct", "--family", "symplectic", "--out", out)[0] == 0
    first_run = _snapshot(tmp_path)
    assert set(first_run) == {"m.json", "m.report.json", "m.manifest.json"}
    rerun = ["construct", "--family", "simplifying", "--alpha", "2", "--beta", "1", "--out", out]
    return first_run, rerun


def test_rerun_interrupted_while_certifying_keeps_a_consistent_manifest(
    tmp_path, capsys, monkeypatch
):
    first_run, rerun = _construct_twice(tmp_path, capsys)

    def interrupted(method):
        raise _Interrupted

    monkeypatch.setattr(csrk.cli, "build_property_report", interrupted)
    with pytest.raises(_Interrupted):
        main(rerun)
    _assert_manifest_names_one_complete_run(tmp_path, first_run)
    assert _snapshot(tmp_path) == first_run


def test_rerun_interrupted_while_writing_leaves_no_stale_manifest(
    tmp_path, capsys, monkeypatch
):
    first_run, rerun = _construct_twice(tmp_path, capsys)
    real_replace = os.replace
    calls = []

    def replace_fails_on_second_output(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("interrupted")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_fails_on_second_output)
    code, _, stderr = run(capsys, *rerun)
    assert code == 2
    assert json.loads(stderr.strip())["error"] == "OSError"
    assert len(calls) == 2
    # the stale manifest went first, and no temporary file is left behind
    assert sorted(_snapshot(tmp_path)) == ["m.json", "m.report.json"]
    monkeypatch.setattr(os, "replace", real_replace)
    assert run(capsys, *rerun)[0] == 0
    manifest = json.loads((tmp_path / "m.manifest.json").read_text())
    assert manifest["parameters"]["family"] == "simplifying"
    assert [os.path.basename(p) for p in manifest["outputs"]] == ["m.json", "m.report.json"]
