import gc
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from steinmse.cli import main


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.fixture()
def x_csv(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.5\n0.3\n-0.2\n0.8\n2.0\n")
    return str(path)


def test_estimate_json_contract(x_csv, tmp_path, capsys):
    out = tmp_path / "est.json"
    code = main(["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0",
                 "--family", "js-plus", "--mse", "psi0", "--matrix", "xi2",
                 "--seed", "3", "--const-reps", "30000", "--j-max", "12",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["inputs"]["seed"] == 3  # numeric flags echoed
    assert payload["inputs"]["const_reps"] == 30000
    assert len(payload["point_estimate"]) == 5
    assert payload["mse"]["value"] >= 0.0
    mat = payload["mse_matrix"]
    assert len(mat["axis"]) == 5 and len(mat["eigenvalues"]) == 5
    assert min(mat["eigenvalues"]) > 0.0  # xi2 kind is positive definite


def test_estimate_umvue_needs_no_seed(x_csv, capsys):
    code = main(["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0",
                 "--family", "js", "--mse", "umvue", "--matrix", "umvue"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mse"]["kind"] == "umvue"


def test_estimate_output_does_not_depend_on_seed(x_csv, capsys):
    # The built-in families' constants are exact, so the seed is only echoed.
    base = ["estimate", "--p", "5", "--n", "5", "--x", x_csv, "--s", "4.0",
            "--family", "js-plus", "--mse", "psi2", "--matrix", "xi2-tr",
            "--confidence", "c2star", "--const-reps", "20000", "--j-max", "12"]
    payloads = []
    for seed_args in (["--seed", "1"], ["--seed", "2"], []):
        assert main(base + seed_args) == 0
        payloads.append(json.loads(capsys.readouterr().out))
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
                 "--const-reps", "30000", "--j-max", "12"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["confidence"]["variant"] == "c1*"
    assert payload["confidence"]["volume"] > 0


def test_constants_writes_five_tables(tmp_path):
    out = tmp_path / "tables"
    code = main(["constants", "--dims", "5x5", "--j-max", "12", "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    for expected in ("table1_gamma.csv", "table2_w.csv", "table3_beta2.csv",
                     "table4_gamma_xi_eta.csv", "table5_w_xi_eta.csv", "beta_per_j.csv",
                     "metadata.json", "plot_curves.py"):
        assert expected in names
    header = (out / "table2_w.csv").read_text().splitlines()[0]
    assert header == "family,p,n,w_pn"


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


def test_coverage_smoke(capsys):
    code = main(["coverage", "--p", "5", "--n", "5", "--family", "js-plus",
                 "--variants", "c0,c3", "--lambdas", "0", "--reps", "2000",
                 "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("p,n,family,lam,variant,coverage")


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
    canon = json.loads(canon_out.read_text())
    assert canon["schema"] == 1
    assert canon["p"] == 5 and canon["n"] == 7

    # Feed the canonical output to estimate: must equal the direct call.
    x_path = tmp_path / "canon_x.csv"
    x_path.write_text("\n".join(f"{v:.17g}" for v in canon["x"]) + "\n")
    code = main(["estimate", "--p", "5", "--n", "7", "--x", str(x_path), "--s",
                 f"{canon['s']:.17g}", "--family", "js", "--mse", "umvue",
                 "--matrix", "umvue", "--out", str(tmp_path / "est.json")])
    assert code == 0
    est = json.loads((tmp_path / "est.json").read_text())
    import steinmse as sm
    dims = sm.ProblemDims(5, 7)
    obs = sm.Observation(np.array(canon["x"]), canon["s"])
    fam = sm.ShrinkageFamily.james_stein(dims)
    want = sm.apply_estimator(obs, fam, dims)
    assert est["point_estimate"] == pytest.approx(want, rel=1e-12)
    assert est["mse"]["value"] == pytest.approx(sm.umvue_mse(obs, fam, dims), rel=1e-12)


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
    meta = json.loads((out / "metadata.json").read_text())
    assert "threads" not in meta
    assert meta["seed"] == 9 and meta["reps"] == 1000


@pytest.mark.parametrize("argv", [
    ["risk-curve", "--reps", "0"], ["risk-curve", "--reps", "-5"],
    ["coverage", "--reps", "0"], ["coverage", "--reps", "-1"],
    ["risk-curve", "--seed", "-1"], ["coverage", "--seed", str(2 ** 64)],
    ["estimate", "--family", "ridge"], ["risk-curve", "--family", "ridge"],
    ["coverage", "--family", "ridge"], ["constants", "--families", "js,ridge"],
    ["constants", "--j-max", "5"], ["estimate", "--j-max", "5", "--mse", "psi1"],
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
    # the library's own kernels.
    code = "from steinmse.cli import main\nif main() != 0: raise SystemExit(1)"
    loaded = _modules_after(code, "estimate", "--p", "5", "--n", "5", "--x", x_csv,
                            "--s", "4.0", "--family", "js-plus", "--mse", "psi2-tr",
                            "--matrix", "xi2-tr", "--confidence", "c2star")
    assert _scipy(loaded) == []


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
