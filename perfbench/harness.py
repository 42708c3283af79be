"""Measurement loops of the benchmark: untraced runs and the traced pass.

Imported by ``run.py`` after it has pinned the BLAS thread counts and put
the library sources on the import path.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback

import tracing
import workloads

SETUP_REPEATS = 3
THREAD_PROBE_OPS = 5

# (metric, workload the layer is measured on, span name, span field)
LAYER_METRICS = (
    ("cli.import.s", "estimate-cli", "cli.import", "s"),
    ("cli.main.self_s", "estimate-cli", "cli.main", "self_s"),
    ("distributions.f_quantile.calls", "estimate-stream", "distributions.f_quantile", "calls"),
    ("distributions.f_quantile.s", "estimate-stream", "distributions.f_quantile", "s"),
    ("distributions.streams.calls", "risk-curve", "distributions.streams", "calls"),
    ("shrinkage.true_risk.calls", "risk-curve", "shrinkage.true_risk", "calls"),
    ("shrinkage.true_risk.s", "risk-curve", "shrinkage.true_risk", "s"),
    ("shrinkage.apply_estimator.s", "estimate-stream", "shrinkage.apply_estimator", "s"),
    ("shrinkage.shrink_factors.s", "coverage", "shrinkage.shrink_factors", "s"),
    ("umvue.g_functions.calls", "estimate-stream", "umvue.g_functions", "calls"),
    ("umvue.umvue_mse.s", "estimate-stream", "umvue.umvue_mse", "s"),
    ("umvue.umvue_mse_matrix.s", "estimate-stream", "umvue.umvue_mse_matrix", "s"),
    ("mse_improved.shrinkage_constants.s", "estimate-cli", "mse_improved.shrinkage_constants",
     "s"),
    ("mse_improved.solve_w_pn.calls", "estimate-cli", "mse_improved.solve_w_pn", "calls"),
    ("mse_improved.estimate_mse_at.s", "risk-curve", "mse_improved.estimate_mse_at", "s"),
    ("mse_improved.estimate_mse.s", "estimate-stream", "mse_improved.estimate_mse", "s"),
    ("matrix_improved.matrix_constants.s", "estimate-cli", "matrix_improved.matrix_constants",
     "s"),
    ("matrix_improved.beta_j.calls", "estimate-cli", "matrix_improved.beta_j", "calls"),
    ("matrix_improved.beta_j.s", "estimate-cli", "matrix_improved.beta_j", "s"),
    ("matrix_improved.solve_w_xi_eta.calls", "estimate-cli", "matrix_improved.solve_w_xi_eta",
     "calls"),
    ("matrix_improved.solve_w_xi_eta.s", "estimate-cli", "matrix_improved.solve_w_xi_eta", "s"),
    ("matrix_improved.matrix_eigen_parts.s", "coverage", "matrix_improved.matrix_eigen_parts",
     "s"),
    ("matrix_improved.estimate_mse_matrix.s", "estimate-stream",
     "matrix_improved.estimate_mse_matrix", "s"),
    ("confidence.build_confidence_set.s", "estimate-stream", "confidence.build_confidence_set",
     "s"),
    ("confidence.build_confidence_set.self_s", "estimate-stream",
     "confidence.build_confidence_set", "self_s"),
    ("confidence.quad_form_inv.s", "estimate-stream", "confidence.quad_form_inv", "s"),
    ("confidence.ellipsoid_volume.s", "estimate-stream", "confidence.ellipsoid_volume", "s"),
    ("experiments.run_mse_risk_curve.self_s", "risk-curve", "experiments.run_mse_risk_curve",
     "self_s"),
    ("experiments.run_matrix_risk_curve.self_s", "risk-curve",
     "experiments.run_matrix_risk_curve", "self_s"),
    ("experiments.run_coverage_curve.self_s", "coverage", "experiments.run_coverage_curve",
     "self_s"),
    ("experiments.write_csv.s", "risk-curve", "experiments.write_csv", "s"),
)


def run_ops(wl, seconds: float, tracer=None) -> dict:
    """Run whole rounds of ``wl``'s operations until ``seconds`` have passed.

    Only ``wl.op`` is timed (and, with a tracer, traced under an ``op.*``
    span); inputs are made before and outputs checked after.
    """
    name = type(wl).NAME
    latencies, round_times, roots = [], [], []
    failed = wrong = k = 0
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(wl.ROUND):
            inp = wl.prepare(k)
            if tracer is not None:
                roots.append(tracer.open(f"op.{name}"))
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out = wl.op(inp)
                problems = None
            except Exception:  # an operation that raises counts as failed
                problems = [traceback.format_exc()]
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
                tracer.close(roots[-1])
            if problems is None:
                try:
                    problems = wl.check(inp, out)
                except Exception:  # output too malformed to check
                    problems = [traceback.format_exc()]
                wrong += bool(problems)
            if problems:
                failed += 1
                print(f"{name} operation {k} failed: {problems[0]}", file=sys.stderr)
            k += 1
        round_times.append(sum(latencies[-wl.ROUND:]))
        if time.perf_counter() >= deadline:
            break
    run_problems = wl.finish()
    for problem in run_problems:
        print(f"{name}: {problem}", file=sys.stderr)
    if run_problems:
        failed = wrong = k
    return {"latencies": latencies, "round_times": round_times, "attempted": k,
            "failed": failed, "wrong": wrong, "roots": roots}


def untraced_run(wl, seconds: float) -> tuple:
    """Set ``wl`` up three times, then run it; returns (counts, metrics)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    res = run_ops(wl, seconds)
    who = resource.RUSAGE_CHILDREN if type(wl).NAME == "estimate-cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(res["round_times"]), "s"),
        "latency_p50_ms": (1e3 * statistics.median(res["latencies"]), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return res, metrics


def thread_probe(root: str, seed: int, workdir: str) -> tuple:
    """Median time of one coverage operation at threads=1 and threads=2."""
    wl = workloads.Coverage(root, seed, workdir)
    wl.setup()
    out, attempted, failed = {}, 0, 0
    for threads in (1, 2):
        times = []
        for k in range(THREAD_PROBE_OPS):
            inp = wl.prepare(k)
            inp["cfg"] = dataclasses.replace(inp["cfg"], threads=threads)
            t0 = time.perf_counter()
            wl.op(inp)
            times.append(time.perf_counter() - t0)
            attempted += 1
            failed += bool(wl.check(inp, None))
        out[f"experiments.threads{threads}.op_s"] = (statistics.median(times), "s")
    return out, attempted, failed


def traced_pass(root: str, seed: int, seconds: float, out_dir: str, workdir: str) -> tuple:
    """Thread probe, then every workload traced for a quarter of ``seconds``
    (at least one round); returns (counts, per-layer metrics) and writes the
    spans and per-workload summaries to ``out_dir``."""
    metrics, attempted, failed = thread_probe(root, seed, workdir)
    wrong = failed
    tracer = tracing.Tracer()
    tracer.enabled = False
    tracer.install()
    per_workload = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(root, seed, workdir, tracer)
            wl.setup()
            res = run_ops(wl, seconds / len(workloads.WORKLOADS), tracer)
            attempted += res["attempted"]
            failed += res["failed"]
            wrong += res["wrong"]
            per_workload[name] = res
    finally:
        tracer.uninstall()
    layers = {}
    for name, res in per_workload.items():
        summary = tracing.summarize(tracer.spans, res["roots"])
        ops = res["attempted"]
        total = sum(res["latencies"])
        shares = {}
        for span, agg in summary.items():
            layer = span.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + agg["self_s"] / total
        layers[name] = {"ops": ops, "median_op_s": statistics.median(res["latencies"]),
                        "self_share": shares,
                        "per_op": {span: {f: v / ops for f, v in agg.items()}
                                   for span, agg in summary.items()}}
    for metric, home, span, field in LAYER_METRICS:
        value = layers[home]["per_op"].get(span, {}).get(field, 0.0)
        metrics[metric] = (value, "calls" if field == "calls" else "s")
    with open(os.path.join(out_dir, f"trace-{seed}.json"), "w") as fh:
        json.dump({"layers": layers, "spans": tracer.spans}, fh)
    return {"attempted": attempted, "failed": failed, "wrong": wrong}, metrics
