import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import csrk.cli
from csrk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """Parse text as strict JSON, as Node's JSON.parse would: no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


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
    iters = [int(line.rsplit(",", 1)[1]) for line in lines[2:]]
    assert diag["stage_iterations"] == {"mean": sum(iters) / 200, "max": max(iters)}


def _symplectic_gauss2(tmp_path, capsys):
    method = tmp_path / "m.json"
    run(capsys, "construct", "--family", "symplectic", "--out", str(method))
    tab = tmp_path / "tab.json"
    run(capsys, "discretize", str(method), "--stages", "2", "--out", str(tab))
    return tab


def test_integrate_nonconvergence_exits_3_with_bound_advice(tmp_path, capsys):
    tab = _symplectic_gauss2(tmp_path, capsys)
    for args in (
        ["--problem", "harmonic", "--h", "10"],  # fixed point beyond the bound
        ["--problem", "kepler", "--solver", "newton", "--max-iter", "1", "--h", "0.01"],
    ):
        code, _, stderr = run(
            capsys,
            "integrate", str(tab), *args, "--steps", "3", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 3
        err = json.loads(stderr.strip())
        assert err["error"] == "NonConvergence"
        assert "contraction bound" in err["message"]
        assert "t = " in err["message"]
        assert err["step_index"] == 0
        assert isinstance(err["h_bound"], float) and err["h_bound"] > 0


def test_integrate_unparsable_z0_is_usage_error(tmp_path, capsys):
    tab = _symplectic_gauss2(tmp_path, capsys)
    for z0 in ("1,x", ""):
        code, _, stderr = run(
            capsys,
            "integrate", str(tab), "--problem", "pendulum", f"--z0={z0}",
            "--h", "0.1", "--steps", "3", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert "--z0" in json.loads(stderr.strip())["message"]


def test_integrate_kepler_rejects_z0(tmp_path, capsys):
    tab = _symplectic_gauss2(tmp_path, capsys)
    code, _, stderr = run(
        capsys,
        "integrate", str(tab), "--problem", "kepler", "--z0", "1,0,0,1",
        "--h", "0.01", "--steps", "3", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "eccentricity" in json.loads(stderr.strip())["message"]
    assert not (tmp_path / "t.csv").exists()


def test_integrate_z0_of_wrong_length_is_domain_error(tmp_path, capsys):
    tab = _symplectic_gauss2(tmp_path, capsys)
    code, _, stderr = run(
        capsys,
        "integrate", str(tab), "--problem", "harmonic", "--z0", "1",
        "--h", "0.1", "--steps", "3", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert json.loads(stderr.strip())["message"] == "initial state must have shape (2,)"


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


def test_set_value_with_whitespace_inside_a_number_is_rejected(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, stderr = run(
        capsys,
        "construct", "--family", "order", "--order", "4",
        "--set", "2,1=1 2", "--out", str(out),
    )
    assert code == 2
    assert json.loads(stderr.strip())["error"] == "_InputError"
    assert not out.exists()


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


@pytest.mark.parametrize("max_iter", ["0", "-5"])
def test_integrate_max_iter_below_one_is_domain_error(tmp_path, capsys, max_iter):
    tab = _symplectic_gauss2(tmp_path, capsys)
    out = tmp_path / "traj.csv"
    code, _, stderr = run(
        capsys,
        "integrate", str(tab), "--problem", "harmonic", "--h", "0.1", "--steps", "5",
        "--max-iter", max_iter, "--out", str(out),
    )
    assert code == 1
    err = json.loads(stderr.strip())
    assert err["error"] == "ValueError" and "max_iter must be at least 1" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("h_list", ["0.2,0.1,0", "0.2,-0.1,0.05", "0.2,0.1,nan", "inf,0.2,0.1"])
def test_convergence_nonpositive_or_nonfinite_step_is_domain_error(tmp_path, capsys, h_list):
    tab = _symplectic_gauss2(tmp_path, capsys)
    out = tmp_path / "conv.json"
    code, _, stderr = run(
        capsys,
        "convergence", str(tab), "--problem", "harmonic",
        "--h-list", h_list, "--t-final", "2", "--out", str(out),
    )
    assert code == 1
    err = json.loads(stderr.strip())
    assert err["error"] == "ValueError" and "must be positive and finite" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("family_args", [
    ["--family", "ep-legendre", "--omega", "1,1"],
    ["--family", "ep-general", "--omega", "1", "--generator", "1,1"],
])
def test_construct_ep_family_rejects_set(tmp_path, capsys, family_args):
    out = tmp_path / "m.json"
    code, _, stderr = run(
        capsys, "construct", *family_args, "--set", "1,1=1/2", "--out", str(out),
    )
    assert code == 2
    err = json.loads(stderr.strip())
    assert err["error"] == "_InputError"
    assert "--set does not apply to the" in err["message"]
    assert family_args[1] in err["message"]
    assert not out.exists()


def test_verify_rejects_coefficients_that_are_not_lists(tmp_path, capsys):
    # a string B would otherwise be read character by character: "12" -> 1 + 2*P_1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"B": "12", "C": ["1/2"], "alpha": [["1/2"]]}))
    code, stdout, stderr = run(capsys, "verify", str(bad))
    assert code == 2
    assert stdout == ""
    err = json.loads(stderr.strip())
    assert err["error"] == "_InputError" and "malformed method JSON" in err["message"]


@pytest.mark.parametrize("args, message", [
    (["--h", "0"], "step h must be nonzero and finite"),
    (["--h", "nan"], "step h must be nonzero and finite"),
    (["--h", "0.1", "--tol", "inf"], "stage tolerance must be positive and finite"),
])
def test_integrate_zero_step_or_infinite_tolerance_is_domain_error(tmp_path, capsys, args, message):
    tab = _symplectic_gauss2(tmp_path, capsys)
    out = tmp_path / "traj.csv"
    code, _, stderr = run(
        capsys,
        "integrate", str(tab), "--problem", "harmonic", *args, "--steps", "5", "--out", str(out),
    )
    assert code == 1
    err = json.loads(stderr.strip())
    assert err["error"] == "ValueError" and message in err["message"]
    assert not out.exists()


def test_integrate_memory_error_is_reported_as_json(tmp_path, capsys, monkeypatch):
    # stands in for --steps 100000000000, whose arrays cannot be allocated
    def oversized(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(csrk.cli, "integrate", oversized)
    tab = _symplectic_gauss2(tmp_path, capsys)
    out = tmp_path / "traj.csv"
    code, _, stderr = run(
        capsys,
        "integrate", str(tab), "--problem", "harmonic", "--h", "0.1",
        "--steps", "100000000000", "--out", str(out),
    )
    assert code == 1
    assert json.loads(stderr.strip()) == {
        "error": "MemoryError", "message": "Unable to allocate 745. GiB for an array",
    }
    assert not out.exists()


def test_integrate_overflow_is_non_finite_at_step_zero(tmp_path, capsys):
    tab = _symplectic_gauss2(tmp_path, capsys)
    code, _, stderr = run(
        capsys,
        "integrate", str(tab), "--problem", "harmonic", "--h", "1e300", "--steps", "3",
        "--out", str(tmp_path / "traj.csv"),
    )
    assert code == 1
    err = json.loads(stderr.strip())
    assert err["error"] == "NonFinite" and err["step_index"] == 0


@pytest.mark.parametrize("t_final", ["-2", "0", "inf", "nan"])
def test_convergence_bad_final_time_is_domain_error(tmp_path, capsys, t_final):
    tab = _symplectic_gauss2(tmp_path, capsys)
    out = tmp_path / "conv.json"
    code, _, stderr = run(
        capsys,
        "convergence", str(tab), "--problem", "harmonic",
        "--h-list", "0.2,0.1,0.05", "--t-final", t_final, "--out", str(out),
    )
    assert code == 1
    err = json.loads(stderr.strip())
    assert err["error"] == "ValueError"
    assert err["message"].startswith("final time") and "must be positive and finite" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("value, shown", [("1e-2200", "≈0"), ("1e2200", "≈inf")])
def test_order4_violation_with_an_oversized_sum_is_reported(tmp_path, capsys, value, shown):
    # the bilinear sum has 4400 digits, more than Python writes as a string
    out = tmp_path / "m.json"
    code, _, stderr = run(
        capsys,
        "construct", "--family", "order", "--order", "4",
        "--set", f"0,3={value}", "--set", f"3,1={value}", "--out", str(out),
    )
    assert code == 1
    err = json.loads(stderr.strip())
    assert err["error"] == "Order4ConstraintViolation"
    assert err["message"].endswith(f"must vanish, got {shown}")
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ("sqrt(10000000000037)/2", "exceeds 10**12"),
    ("1e-5000", "decimal exponent beyond 4300"),
    ("1e-4300", "more than 4300 digits"),
    ("1e4300", "more than 4300 digits"),
])
def test_construct_oversized_exact_value_is_usage_error(tmp_path, capsys, value, message):
    out = tmp_path / "m.json"
    code, _, stderr = run(
        capsys,
        "construct", "--family", "order", "--order", "4", "--set", f"2,1={value}",
        "--out", str(out),
    )
    assert code == 2
    err = json.loads(stderr.strip())
    assert err["error"] == "_InputError" and message in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("family_args", [
    ["--family", "order", "--order", "3", "--set", "40,1=1"],
    ["--family", "simplifying", "--alpha", "40", "--beta", "1"],
])
def test_construct_beyond_the_basis_cap_is_domain_error(tmp_path, capsys, family_args):
    out = tmp_path / "m.json"
    code, _, stderr = run(capsys, "construct", *family_args, "--out", str(out))
    assert code == 1
    assert json.loads(stderr.strip())["error"] == "BasisCapExceeded"
    assert not out.exists()


def test_verify_method_beyond_the_basis_cap_is_domain_error(tmp_path, capsys):
    rows = [["1/2"], ["1/6*sqrt(3)"]] + [["0"]] * 31 + [["0", "1"]]
    assert len(rows) == 34
    method = tmp_path / "m.json"
    method.write_text(json.dumps({"B": ["1"], "C": ["1/2", "1/6*sqrt(3)"], "alpha": rows}))
    code, stdout, stderr = run(capsys, "verify", str(method))
    assert code == 1
    assert stdout == ""
    err = json.loads(stderr.strip())
    assert err["error"] == "BasisCapExceeded" and "34x2 exceeds cap 32" in err["message"]


# -- documented forms of errors and JSON outputs --------------------------------


def test_construct_radicand_above_the_parse_bound_is_domain_error(tmp_path, capsys):
    # the product radicand 3 * 999983 * 999979 = 2999886001071 could not be read back
    out = tmp_path / "m.json"
    code, _, stderr = run(
        capsys,
        "construct", "--family", "ep-general", "--omega", "1",
        "--generator", "sqrt(999983),sqrt(999979)", "--out", str(out),
    )
    assert code == 1
    err = strict_json(stderr.strip())
    assert err["error"] == "ValueError"
    assert "radicand 2999886001071" in err["message"] and "exceeds 10**12" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_construct_value_beyond_4300_digits_is_domain_error(tmp_path, capsys):
    # each input fits; A = omega * (int g) * g has a 9001-digit denominator
    out = tmp_path / "m.json"
    code, _, stderr = run(
        capsys,
        "construct", "--family", "ep-general", "--omega", "1e-3000", "--generator", "1e-3000",
        "--out", str(out),
    )
    assert code == 1
    err = strict_json(stderr.strip())
    assert err["error"] == "ValueError" and "more than 4300 digits" in err["message"]
    assert list(tmp_path.iterdir()) == []


def test_construct_overflowing_float_export_is_domain_error(tmp_path, capsys):
    out = tmp_path / "m.json"
    code, _, stderr = run(
        capsys,
        "construct", "--family", "symplectic", "--set", "1,2=1e400", "--out", str(out),
    )
    assert code == 1
    assert strict_json(stderr.strip())["error"] == "OverflowError"
    assert list(tmp_path.iterdir()) == []


def test_infinite_bound_is_written_as_the_string_inf(tmp_path, capsys):
    # omega = 0 gives A = 0, so the stage iteration contracts for every h
    out = tmp_path / "m.json"
    code, _, _ = run(
        capsys,
        "construct", "--family", "ep-general", "--omega", "0", "--generator", "1",
        "--out", str(out),
    )
    assert code == 0
    report = strict_json((tmp_path / "m.report.json").read_text())
    assert report["h_bound_per_unit_L"] == "inf"
    strict_json((tmp_path / "m.manifest.json").read_text())
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert strict_json(stdout) == report


def test_nan_eccentricity_is_rejected_before_writing(tmp_path, capsys):
    tab = _symplectic_gauss2(tmp_path, capsys)
    before = _snapshot(tmp_path)
    code, _, stderr = run(
        capsys,
        "integrate", str(tab), "--problem", "harmonic", "--e", "nan",
        "--h", "0.1", "--steps", "3", "--out", str(tmp_path / "traj.csv"),
    )
    assert code == 1
    err = strict_json(stderr.strip())
    assert err["error"] == "ValueError" and "eccentricity must be finite" in err["message"]
    assert _snapshot(tmp_path) == before


# -- tableau files in either format ------------------------------------------------


def test_integrate_and_convergence_read_the_csv_tableau(tmp_path, capsys):
    method = tmp_path / "m.json"
    run(capsys, "construct", "--family", "symplectic", "--out", str(method))
    outputs = {}
    for fmt in ("json", "csv"):
        tab = tmp_path / f"g2.{fmt}"
        code, _, _ = run(
            capsys,
            "discretize", str(method), "--stages", "2", "--format", fmt, "--out", str(tab),
        )
        assert code == 0
        traj, conv = tmp_path / f"traj-{fmt}.csv", tmp_path / f"conv-{fmt}.json"
        code, _, _ = run(
            capsys,
            "integrate", str(tab), "--problem", "kepler", "--h", "0.01", "--steps", "50",
            "--out", str(traj),
        )
        assert code == 0
        code, _, _ = run(
            capsys,
            "convergence", str(tab), "--problem", "harmonic",
            "--h-list", "0.2,0.1,0.05", "--t-final", "1", "--out", str(conv),
        )
        assert code == 0
        outputs[fmt] = (
            traj.read_bytes(),
            (tmp_path / f"traj-{fmt}.diagnostics.json").read_bytes(),
            conv.read_bytes(),
        )
    assert outputs["csv"] == outputs["json"]


@pytest.mark.parametrize("text", [
    "c,b,a1,a2\n0.2,0.5,0.25,0.1\n0.8,0.5,0.5\n",  # ragged row
    "c,b,a1\n0.5,1.0,half\n",  # non-numeric cell
    "",  # empty file
    "t,z1,z2,iters\n0.0,1.0,0.0,0\n",  # a trajectory, not a tableau
    "c,b,a1\n0.5,nan,0.5\n",  # a non-finite coefficient
])
def test_malformed_csv_tableau_is_input_error(tmp_path, capsys, text):
    tab = tmp_path / "bad.csv"
    tab.write_text(text)
    for command, args in (
        ("integrate", ["--h", "0.1", "--steps", "3"]),
        ("convergence", ["--h-list", "0.2,0.1,0.05", "--t-final", "1"]),
    ):
        out = tmp_path / "out.csv"
        code, _, stderr = run(
            capsys, command, str(tab), "--problem", "harmonic", *args, "--out", str(out),
        )
        assert code == 2
        err = strict_json(stderr.strip())
        assert err["error"] == "_InputError" and "malformed tableau CSV" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"s": 1, "c": [0.5], "b": [1.0], "a": [[Infinity]]}',
    '{"s": 1, "c": [NaN], "b": [1.0], "a": [[0.5]]}',
    '{"s": 1, "c": [0.5], "b": [-Infinity], "a": [[0.5]]}',
])
def test_malformed_json_tableau_is_input_error(tmp_path, capsys, text):
    tab = tmp_path / "bad.json"
    tab.write_text(text)
    for command, args in (
        ("integrate", ["--h", "0.1", "--steps", "3"]),
        ("convergence", ["--h-list", "0.2,0.1,0.05", "--t-final", "1"]),
    ):
        out = tmp_path / "out.csv"
        code, _, stderr = run(
            capsys, command, str(tab), "--problem", "harmonic", *args, "--out", str(out),
        )
        assert code == 2
        err = strict_json(stderr.strip())
        assert err["error"] == "_InputError" and "malformed tableau JSON" in err["message"]
        assert "non-finite tableau coefficient" in err["message"]
        assert not out.exists()


def test_unverifiable_hamiltonian_start_is_rejected_before_stepping(tmp_path, capsys):
    # H overflows at 1e300, so the flow check cannot pass; the run used to
    # finish and then fail on a NaN diagnostic
    tab = _symplectic_gauss2(tmp_path, capsys)
    before = _snapshot(tmp_path)
    code, _, stderr = run(
        capsys,
        "integrate", str(tab), "--problem", "pendulum", "--z0=1e300,1e300",
        "--h", "0.1", "--steps", "3", "--out", str(tmp_path / "traj.csv"),
    )
    assert code == 1
    err = strict_json(stderr.strip())
    assert err["error"] == "ValueError" and "canonical Hamiltonian flow" in err["message"]
    assert _snapshot(tmp_path) == before


def test_commands_do_not_import_numpy_random_or_ma(tmp_path):
    # the Hamiltonian-flow check probes fixed points and the stage start
    # finds repeated nodes without np.unique, so no command pays for
    # importing numpy.random or numpy.ma
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = """
import sys
from csrk.cli import main
for argv in (
    "construct --family simplifying --alpha 2 --beta 1 --out m.json",
    "discretize m.json --stages 2 --out tab.json",
    "integrate tab.json --problem kepler --h 0.05 --steps 20 --out traj.csv",
    "convergence tab.json --problem pendulum --h-list 0.2,0.1,0.05 --t-final 0.4 --out conv.json",
):
    assert main(argv.split()) == 0, argv
print(sorted({"numpy.random", "numpy.ma"} & set(sys.modules)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_stderr_holds_only_the_error_line(tmp_path, capsys):
    # the stage iteration overflows: numpy used to warn on stderr before the JSON
    tab = _symplectic_gauss2(tmp_path, capsys)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "csrk.cli", "integrate", str(tab), "--problem", "harmonic",
         "--h", "1e300", "--steps", "3", "--out", str(tmp_path / "traj.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and proc.stderr == lines[0] + "\n", proc.stderr
    assert strict_json(lines[0])["error"] == "NonFinite"
