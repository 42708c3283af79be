import csv
import gc
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import steinmse as sm
from steinmse.cli import main
from _oracles import g3_above_kink


def _reject_constant(token):
    raise ValueError(f"the CLI wrote the non-standard JSON number {token}")


def _json(text: str):
    """A JSON document the CLI wrote; Infinity, -Infinity and NaN fail."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture()
def x_csv(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.5\n0.3\n-0.2\n0.8\n2.0\n")
    return str(path)


def test_estimate_json_contract(x_csv, tmp_path, capsys):
    out = tmp_path / "est.json"
    code = main(["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0",
                 "--family", "js-plus", "--mse", "psi0", "--matrix", "xi2",
                 "--seed", "3", "--const-reps", "30000",
                 "--out", str(out)])
    assert code == 0
    payload = _json(out.read_text())
    assert payload["schema"] == 1
    assert payload["inputs"]["seed"] == 3  # numeric flags echoed
    assert payload["inputs"]["const_reps"] == 30000
    assert "j_max" not in payload["inputs"]  # the moment scan has no knob
    assert len(payload["point_estimate"]) == 5
    assert payload["mse"]["value"] >= 0.0
    mat = payload["mse_matrix"]
    assert len(mat["axis"]) == 5 and len(mat["eigenvalues"]) == 5
    assert min(mat["eigenvalues"]) > 0.0  # xi2 kind is positive definite


def test_estimate_umvue_needs_no_seed(x_csv, capsys):
    code = main(["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0",
                 "--family", "js", "--mse", "umvue", "--matrix", "umvue"])
    assert code == 0
    payload = _json(capsys.readouterr().out)
    assert payload["mse"]["kind"] == "umvue"


def test_estimate_umvue_axial_keeps_its_digits(tmp_path, capsys):
    # At W = 1e8 the axial part g3 is about 1e-9 of the isotropic part;
    # the JSON carries g3 itself, not a cancelling difference of the two.
    path = tmp_path / "x.csv"
    path.write_text("10000.0\n0.0\n0.0\n0.0\n0.0\n")
    code = main(["estimate", "--p", "5", "--n", "5", "--x", str(path), "--s", "1.0",
                 "--family", "js", "--mse", "umvue", "--matrix", "umvue"])
    assert code == 0
    payload = _json(capsys.readouterr().out)
    want = g3_above_kink(5, 5, payload["w"])
    assert abs(payload["mse_matrix"]["axial"] - want) <= 1e-15 * want


def test_estimate_output_does_not_depend_on_seed(x_csv, capsys):
    # The built-in families' constants are exact, so the seed is only echoed.
    base = ["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0",
            "--family", "js-plus", "--mse", "psi2", "--matrix", "xi2-tr",
            "--confidence", "c2star", "--const-reps", "20000"]
    payloads = []
    for seed_args in (["--seed", "1"], ["--seed", "2"], []):
        assert main(base + seed_args) == 0
        payloads.append(_json(capsys.readouterr().out))
    seeds = [p["inputs"].pop("seed") for p in payloads]
    assert seeds == [1, 2, None]
    assert payloads[0] == payloads[1] == payloads[2]


def test_estimate_rejects_small_p(x_csv, capsys):
    code = main(["estimate", "--p", "2", "--n", "5", "--x", x_csv, "--s", "4.0"])
    assert code == 2
    assert ">= 3" in capsys.readouterr().err


def test_estimate_confidence_block(x_csv, capsys):
    code = main(["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0",
                 "--family", "js-plus", "--confidence", "c1star", "--seed", "5",
                 "--const-reps", "30000"])
    assert code == 0
    payload = _json(capsys.readouterr().out)
    assert payload["confidence"]["variant"] == "c1*"
    assert payload["confidence"]["volume"] > 0


def test_constants_writes_five_tables(tmp_path):
    out = tmp_path / "tables"
    code = main(["constants", "--dims", "5x5", "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    for expected in ("table1_gamma.csv", "table2_w.csv", "table3_beta2.csv",
                     "table4_gamma_xi_eta.csv", "table5_w_xi_eta.csv", "beta_per_j.csv",
                     "metadata.json", "plot_curves.py"):
        assert expected in names
    header = (out / "table2_w.csv").read_text().splitlines()[0]
    assert header == "family,p,n,w_pn"
    meta = json.loads((out / "metadata.json").read_text())
    assert meta == {"dims": "5x5", "families": "james-stein,positive-part"}  # no scan knob


def test_constants_to_stdout_heads_each_table(tmp_path, monkeypatch, capsys):
    # Several tables on stdout: each under a "# name" line, and no file.
    monkeypatch.chdir(tmp_path)
    assert main(["constants", "--dims", "5x5", "--families", "js"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("#")] == [
        "# table1_gamma", "# table2_w", "# table3_beta2", "# table4_gamma_xi_eta",
        "# table5_w_xi_eta", "# beta_per_j"]
    dims = sm.ProblemDims(5, 5)
    gamma = sm.shrinkage_constants(sm.family_from_name("js", dims), dims).gamma
    assert lines[1:3] == ["family,p,n,gamma", f"js,5,5,{gamma!r}"]  # full repr, not 10 digits
    assert os.listdir(tmp_path) == []


def test_risk_curve_smoke(tmp_path):
    out = tmp_path / "risk"
    code = main(["risk-curve", "--p", "5", "--n", "5", "--family", "js-plus",
                 "--kinds", "umvue,psi0", "--lambdas", "0,5", "--reps", "2000",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    text = (out / "risk_curve_mse.csv").read_text()
    assert text.splitlines()[0].startswith("p,n,family,lam,kind")
    assert len(text.strip().splitlines()) == 1 + 2 * 2


def test_matrix_risk_curve_smoke(capsys):
    code = main(["risk-curve", "--p", "5", "--n", "5", "--family", "js",
                 "--target", "matrix", "--kinds", "umvue,xi0", "--lambdas", "1",
                 "--reps", "1500", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "xi0" in out


def test_matrix_risk_curve_defaults_to_the_matrix_kinds(tmp_path):
    out = tmp_path / "risk"
    code = main(["risk-curve", "--p", "5", "--n", "5", "--target", "matrix", "--lambdas", "0,2",
                 "--reps", "500", "--seed", "1", "--out", str(out)])
    assert code == 0
    with open(out / "risk_curve_matrix.csv") as fh:
        kinds = [row["kind"] for row in csv.DictReader(fh)]
    assert kinds == ["umvue", "xi0", "xi1-tr", "xi2-tr"] * 2


def test_coverage_smoke(capsys):
    code = main(["coverage", "--p", "5", "--n", "5", "--family", "js-plus",
                 "--variants", "c0,c3", "--lambdas", "0", "--reps", "2000",
                 "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("p,n,family,lam,variant,coverage")


def test_coverage_refuses_an_uncertified_shape_on_one_line(capsys):
    # The default variants at (17, 21) include C1, whose xi1-tr shape has
    # no positive-definiteness certificate there: a numerical failure named
    # on one line, with nothing written. Without C1 and C1* the run works.
    args = ["coverage", "--p", "17", "--n", "21", "--lambdas", "0", "--reps", "500",
            "--seed", "1"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: variant c1, c1*: the xi1-tr shape is not "
                            "certified positive definite at p = 17, n = 21 for the js-plus "
                            "family\n")
    assert captured.out == ""
    assert main(args + ["--variants", "c0,c2,c3,c2star"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split(",")[4] for r in rows[1:]] == ["c0", "c2", "c3", "c2*"]


def test_canonicalize_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 5))
    y = a @ rng.standard_normal(5) + 0.5 * rng.standard_normal(12)
    design = tmp_path / "design.csv"
    response = tmp_path / "y.csv"
    design.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in a) + "\n")
    response.write_text("\n".join(f"{v:.17g}" for v in y) + "\n")
    canon_out = tmp_path / "canon.json"
    assert main(["canonicalize", "--design", str(design), "--response", str(response),
                 "--out", str(canon_out)]) == 0
    canon = _json(canon_out.read_text())
    assert canon["schema"] == 1
    assert canon["p"] == 5 and canon["n"] == 7

    # Feed the canonical output to estimate: must equal the direct call.
    x_path = tmp_path / "canon_x.csv"
    x_path.write_text("\n".join(f"{v:.17g}" for v in canon["x"]) + "\n")
    code = main(["estimate", "--p", "5", "--n", "7", "--x", str(x_path), "--s",
                 f"{canon['s']:.17g}", "--family", "js", "--mse", "umvue",
                 "--matrix", "umvue", "--out", str(tmp_path / "est.json")])
    assert code == 0
    est = _json((tmp_path / "est.json").read_text())
    dims = sm.ProblemDims(5, 7)
    obs = sm.Observation(np.array(canon["x"]), canon["s"])
    fam = sm.ShrinkageFamily.james_stein(dims)
    want = sm.apply_estimator(obs, fam, dims)
    assert est["point_estimate"] == pytest.approx(want, rel=1e-12)
    assert est["mse"]["value"] == pytest.approx(sm.umvue_mse(obs, fam, dims), rel=1e-12)


@pytest.mark.parametrize("design, message", [
    ("1,2,3\n2,1,3\n3,0,3\n1,1,2\n0,2,2\n", "design matrix is rank deficient"),
    ("1,0,0\n0,1,0\n0,0,1\n", "need more observations than regressors for a residual scale"),
], ids=["rank-deficient", "no-residual-df"])
def test_unusable_regression_is_usage_error(tmp_path, capsys, design, message):
    rows = design.count("\n")
    (tmp_path / "a.csv").write_text(design)
    (tmp_path / "y.csv").write_text("".join(f"{i}.5\n" for i in range(rows)))
    assert main(["canonicalize", "--design", str(tmp_path / "a.csv"),
                 "--response", str(tmp_path / "y.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_kind_is_usage_error(x_csv, capsys):
    code = main(["risk-curve", "--p", "5", "--n", "5", "--kinds", "umvue,bogus",
                 "--lambdas", "0", "--reps", "10", "--seed", "1"])
    assert code == 2


def test_bad_lambda_range(capsys):
    code = main(["coverage", "--p", "5", "--n", "5", "--lambdas", "0:10",
                 "--reps", "10", "--seed", "1"])
    assert code == 2


@pytest.mark.parametrize("command,lambdas", [
    ("risk-curve", "inf"), ("risk-curve", "nan"), ("risk-curve", "abc"),
    ("risk-curve", "0,-1"), ("risk-curve", "0:abc:1"), ("coverage", "nan"),
])
def test_bad_lambdas_are_usage_errors(capsys, command, lambdas):
    code = main([command, "--p", "5", "--n", "5", "--lambdas", lambdas,
                 "--reps", "10", "--seed", "1"])
    assert code == 2
    assert "--lambdas" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["risk-curve", "coverage"])
def test_lambda_grid_wider_than_its_stream_field_is_usage_error(capsys, monkeypatch, command):
    # Refused when the configuration is built, before any curve work starts.
    import steinmse.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the curve ran")

    for name in ("run_mse_risk_curve", "run_coverage_curve"):
        monkeypatch.setattr(cli, name, never)
    code = main([command, "--p", "5", "--n", "5", "--lambdas", "0:65536:1", "--reps", "1",
                 "--seed", "1"])
    assert code == 2
    assert "65537 lambda indices exceed the 16-bit stream field" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["risk-curve", "coverage"])
@pytest.mark.parametrize("lambdas", ["1,1", "0,2,2.0"])
def test_repeated_lambda_is_usage_error(capsys, monkeypatch, command, lambdas):
    # Its rows could not be told apart; refused before any curve work starts.
    import steinmse.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("the curve ran")

    for name in ("run_mse_risk_curve", "run_coverage_curve"):
        monkeypatch.setattr(cli, name, never)
    code = main([command, "--p", "5", "--n", "5", "--lambdas", lambdas, "--reps", "10",
                 "--seed", "1"])
    assert code == 2
    assert "lambda_grid lists an entry more than once" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["risk-curve", "coverage"])
def test_threads_flag_is_gone(command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--p", "5", "--n", "5", "--lambdas", "0", "--reps", "10",
              "--seed", "1", "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["risk-curve", "coverage"])
def test_curve_metadata_has_no_runtime_threads(tmp_path, monkeypatch, command):
    monkeypatch.setenv("STEIN_PRECISION_THREADS", "2")
    out = tmp_path / command
    code = main([command, "--p", "5", "--n", "5", "--family", "js", "--lambdas", "0",
                 "--reps", "1000", "--seed", "9", "--out", str(out)])
    assert code == 0
    meta = _json((out / "metadata.json").read_text())
    assert "threads" not in meta
    assert meta["seed"] == 9 and meta["reps"] == 1000


@pytest.mark.parametrize("argv", [
    ["risk-curve", "--reps", "0"], ["risk-curve", "--reps", "-5"],
    ["coverage", "--reps", "0"], ["coverage", "--reps", "-1"],
    ["risk-curve", "--seed", "-1"], ["coverage", "--seed", str(2 ** 64)],
    ["estimate", "--family", "ridge"], ["risk-curve", "--family", "ridge"],
    ["coverage", "--family", "ridge"], ["constants", "--families", "js,ridge"],
    ["coverage", "--variants", "c0,c0"], ["coverage", "--variants", "c1*,c3,c1star"],
    ["estimate", "--s", "0"], ["estimate", "--s", "-2.5"], ["estimate", "--confidence", "c9"],
    ["estimate", "--p", "6"], ["constants", "--dims", "5by5"], ["constants", "--dims", "5x5,x"],
    ["risk-curve", "--lambdas", "0:5:0"], ["coverage", "--lambdas", "0:5:-1"],
])
def test_bad_flag_values_are_usage_errors(x_csv, tmp_path, capsys, argv):
    command, *flags = argv
    out = str(tmp_path / "out")
    base = {
        "estimate": ["--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0"],
        "constants": ["--dims", "5x5"],
        "risk-curve": ["--p", "5", "--n", "5", "--lambdas", "0", "--reps", "10", "--seed", "1"],
        "coverage": ["--p", "5", "--n", "5", "--lambdas", "0", "--reps", "10", "--seed", "1"],
    }[command]
    assert main([command, *base, *flags, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command,bad_flag,text", [
    ("canonicalize", "--design", "1,2\n3\n4,5\n"),
    ("canonicalize", "--design", "1,2,3\n4,5,6\n\n7,8\n"),
    ("canonicalize", "--response", "1,2\n3,4\n5,6\n7,8\n9,1\n2,3\n"),
    ("estimate", "--x", "1.5,0\n0.3,0\n-0.2,0\n0.8,0\n2.0,0\n"),
], ids=["ragged-design", "ragged-design-after-blank-line", "two-column-response",
        "two-column-x"])
def test_ragged_or_multi_column_csv_is_usage_error(tmp_path, capsys, command, bad_flag, text):
    # Every other input is valid, so only the shape of the bad file fails.
    good = {"--design": "1,0\n0,1\n1,1\n2,1\n1,3\n0,2\n",
            "--response": "1\n2\n3\n4\n5\n6\n",
            "--x": "1.5\n0.3\n-0.2\n0.8\n2.0\n"}
    paths = {}
    for flag, content in good.items():
        paths[flag] = tmp_path / f"{flag[2:]}.csv"
        paths[flag].write_text(text if flag == bad_flag else content)
    flags = {"canonicalize": ["--design", str(paths["--design"]),
                              "--response", str(paths["--response"])],
             "estimate": ["--p", "5", "--n", "5", "--x", str(paths["--x"]), "--s", "4.0"]}
    assert main([command, *flags[command]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(paths[bad_flag]) in err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read"), ("1.5\nabc\n-0.2\n0.8\n2.0\n", "is not a numeric CSV"),
    ("\n  \n", "is empty"),
], ids=["missing", "non-numeric", "empty"])
def test_unreadable_non_numeric_or_empty_csv_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "x.csv"
    if text is not None:
        path.write_text(text)
    assert main(["estimate", "--p", "5", "--n", "5", "--x", str(path), "--s", "4.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and str(path) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("x, s, message", [
    ("1\nnan\n2\n0.5\n1\n", "1.0", "observation vector must be finite"),
    ("1\ninf\n2\n0.5\n1\n", "1.0", "observation vector must be finite"),
    ("1\n0.3\n2\n0.5\n1\n", "inf", "scale statistic s must be positive and finite"),
    ("1\n0.3\n2\n0.5\n1\n", "1e-320", "the statistic W = ||x||^2 / s must be finite"),
    ("1e155\n1\n1\n1\n1\n", "1.0", "the statistic W = ||x||^2 / s must be finite"),
], ids=["nan-x", "inf-x", "inf-s", "w-overflows-by-s", "w-overflows-by-x"])
def test_bad_observation_is_usage_error(tmp_path, capsys, x, s, message):
    path = tmp_path / "x.csv"
    path.write_text(x)
    out = tmp_path / "out.json"
    code = main(["estimate", "--p", "5", "--n", "5", "--x", str(path), "--s", s,
                 "--confidence", "c2star", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_non_finite_result_is_numerical_failure(tmp_path, capsys, to_file):
    # W = 1 + 9e-300 is finite, but the C0 volume overflows a double. The
    # run names the volume on one line, with no raw warning, and writes nothing.
    path = tmp_path / "x.csv"
    path.write_text("1e150\n" + "1\n" * 9)
    out = tmp_path / "out.json"
    code = main(["estimate", "--p", "10", "--n", "5", "--x", str(path), "--s", "1e300",
                 "--confidence", "c0", *(["--out", str(out)] if to_file else [])])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: the ellipsoid volume")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_an_overflowing_umvue_mse_is_one_numerical_failure_line(tmp_path, capsys):
    # James-Stein at (5, 5) with W = 8.2e-134: the unbiased MSE estimate is
    # -inf, refused by name before the JSON encoder meets it.
    path = tmp_path / "x.csv"
    path.write_text("7e71\n" * 5)
    code = main(["estimate", "--p", "5", "--n", "5", "--x", str(path), "--s", "3e277",
                 "--family", "james-stein", "--mse", "umvue"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: the umvue MSE estimate overflows a double (-inf)\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_positive_part_at_large_n_is_estimated(x_csv, tmp_path, capsys):
    # Residual degrees of freedom in the hundreds: k^(-n/2) overflows a
    # double from n = 307 at p = 5, and the kernels no longer form it.
    path = tmp_path / "x.csv"
    path.write_text("0.01\n0.02\n-0.01\n0.0\n0.01\n")
    for x in (x_csv, str(path)):  # W above and below the kink
        assert main(["estimate", "--p", "5", "--n", "310", "--x", x, "--s", "1.0",
                     "--family", "js-plus", "--mse", "psi2-tr", "--matrix", "xi2-tr",
                     "--confidence", "c2star"]) == 0
        payload = _json(capsys.readouterr().out)
        assert payload["mse"]["value"] > 0
    assert main(["constants", "--dims", "5x310", "--out", str(tmp_path / "tables")]) == 0


def test_arithmetic_error_is_one_numerical_failure_line(x_csv, capsys, monkeypatch):
    import steinmse.cli as cli

    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "estimate_mse", overflow)
    code = main(["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0",
                 "--mse", "psi0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: math range error\n" and captured.out == ""


def test_finite_w_whose_squared_norm_overflows_is_estimated(tmp_path, capsys):
    # ||x||^2 = 1e310 overflows a double; W = ||x||^2 / s = 1e10 does not,
    # and neither does any estimate, though the psi2-tr cap does.
    path = tmp_path / "x.csv"
    path.write_text("1e155\n1\n1\n")
    assert main(["estimate", "--p", "3", "--n", "5", "--x", str(path), "--s", "1e300",
                 "--mse", "psi2-tr", "--matrix", "xi2-tr"]) == 0
    captured = capsys.readouterr()
    payload = _json(captured.out)
    assert payload["w"] == pytest.approx(1e10, rel=1e-15) and captured.err == ""
    assert payload["mse_matrix"]["axis"] == pytest.approx([1.0, 1e-155, 1e-155], rel=1e-15)


@pytest.mark.parametrize("command, where", [("estimate", "missing-dir"),
                                            ("estimate", "under-a-file"),
                                            ("constants", "under-a-file")])
def test_unwritable_out_is_usage_error(x_csv, tmp_path, capsys, command, where):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = {"missing-dir": tmp_path / "no" / "such" / "out.json",
           "under-a-file": blocker / "sub"}[where]
    flags = {"estimate": ["--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0"],
             "constants": ["--dims", "5x5"]}[command]
    assert main([command, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output:") and str(out) in err
    assert err.count("\n") == 1


def test_mse_target_rejects_matrix_loss(capsys):
    code = main(["risk-curve", "--p", "5", "--n", "5", "--target", "mse", "--loss", "matrix",
                 "--lambdas", "0", "--reps", "10", "--seed", "1"])
    assert code == 2
    assert "--target matrix" in capsys.readouterr().err


def test_estimate_closes_input_files(x_csv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0"]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("level", ["1.5", "0", "1"])
def test_estimate_level_outside_unit_interval_is_usage_error(x_csv, capsys, level):
    code = main(["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0",
                 "--confidence", "c0", "--level", level])
    assert code == 2
    assert "--level" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["1.5", "-0.2"])
def test_coverage_level_outside_unit_interval_is_usage_error(capsys, level):
    code = main(["coverage", "--p", "5", "--n", "5", "--variants", "c0", "--level", level,
                 "--lambdas", "0", "--reps", "10", "--seed", "1"])
    assert code == 2
    assert "--level" in capsys.readouterr().err


def _modules_after(code: str, *argv: str) -> list:
    """Sorted names in ``sys.modules`` after a fresh interpreter runs ``code``
    (with ``argv`` as its arguments) on the library sources."""
    import steinmse
    src = os.path.dirname(os.path.dirname(os.path.abspath(steinmse.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code += "\nimport json, sys; sys.stderr.write('\\n' + json.dumps(sorted(sys.modules)))"
    res = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stderr.rsplit("\n", 1)[-1])


def _scipy(modules) -> list:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def test_import_leaves_out_scipy():
    for code in ("import steinmse", "import steinmse.cli"):
        assert _scipy(_modules_after(code)) == [], code


def test_estimate_with_every_constant_kind_leaves_out_scipy(x_csv):
    # The closed-form constants, the F quantile and the volume all run on
    # the library's own kernels, and only the Monte Carlo curves start the
    # block-drawing thread pool.
    code = "from steinmse.cli import main\nif main() != 0: raise SystemExit(1)"
    loaded = _modules_after(code, "estimate", "--p", "5", "--n", "5", "--x", x_csv,
                            "--s", "4.0", "--family", "js-plus", "--mse", "psi2-tr",
                            "--matrix", "xi2-tr", "--confidence", "c2star")
    assert _scipy(loaded) == []
    assert [m for m in loaded if m.startswith("concurrent")] == []


def test_custom_family_quadrature_runs_without_scipy():
    # A None entry in sys.modules makes any scipy import raise ImportError,
    # so the run fails if the quadrature still reaches for scipy.
    code = """import sys
sys.modules["scipy"] = None
import warnings
import numpy as np
import steinmse as sm
warnings.simplefilter("ignore", RuntimeWarning)  # custom scans warn at their boundary
dims = sm.ProblemDims(5, 5)
k = dims.shrink_constant
fam = sm.ShrinkageFamily.custom(lambda w: k * w / (w + k), lambda w: k * k / (w + k) ** 2)
sm.shrinkage_constants(fam, dims)
sm.matrix_constants(fam, dims)
sm.umvue_mse(sm.Observation([1.0, -0.5, 0.3, 0.8, 0.2], 2.0), fam, dims)
from steinmse.umvue import g_transform
assert g_transform(lambda t: k / t, dims, np.array([0.5, 2.0])).shape == (2,)
"""
    _modules_after(code)  # asserts that the interpreter exits cleanly


def test_import_leaves_out_the_thread_pool():
    assert [m for m in _modules_after("import steinmse.cli") if m.startswith("concurrent")] == []


def test_estimate_with_matrix_constants_writes_nothing_to_stderr(x_csv):
    import steinmse
    src = os.path.dirname(os.path.dirname(os.path.abspath(steinmse.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys; from steinmse.cli import main; sys.exit(main())"
    res = subprocess.run([sys.executable, "-c", code, "estimate", "--p", "5", "--n", "5",
                          "--x", x_csv, "--s", "4.0", "--matrix", "xi2-tr"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0
    assert res.stderr == ""


@pytest.mark.parametrize("argv", [
    ["constants", "--seed", "1"],
    ["constants", "--reps", "1000"],
    ["risk-curve", "--p", "5", "--n", "5", "--seed", "1", "--const-reps", "1000"],
    ["coverage", "--p", "5", "--n", "5", "--seed", "1", "--const-reps", "1000"],
])
def test_monte_carlo_constant_flags_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
