"""Short end-to-end runs of the benchmark command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
END_TO_END = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}


def _run(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", ["estimate-cli", "estimate-stream", "risk-curve",
                                      "coverage"])
def test_workload_smoke(workload):
    res = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_pass_reports_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    res = _run("--workload", "coverage", "--seed", "3", "--seconds", "0.2", "--trace", "1")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == per_layer
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert all(v > 0 for v in metrics.values())
    # Counts that the code fixes exactly.
    assert metrics["matrix_improved.beta_j.calls"] == 2 * (50 + 3)
    assert metrics["distributions.f_quantile.calls"] == 6


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("--workload", "coverage", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=str(tmp_path), script=str(tmp_path / "perfbench" / "run.py"))
    assert res.returncode != 0
    assert res.stdout.strip() == ""
