"""Benchmark of steinmse: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: estimate-cli, estimate-stream, risk-curve, coverage (see
README.md). The library is imported from ``src/`` of the checkout; without
it the benchmark exits with code 2 and prints no result.

``--trace 0`` sets the workload up three times (``setup_s`` is the median),
then runs whole rounds of operations until S seconds have passed, checks
every output and reports the end-to-end metrics. ``--trace 1`` makes one
traced pass over all four workloads, whatever ``--workload`` names, so that
every layer metric is measured on the workload it belongs to; it reports
the per-layer metrics, per operation of that workload.

The last line of standard output is the JSON result. Results and spans
are also written under ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

# One BLAS thread, so that no input size puts more threads on a 2-core
# machine than the library's own, which runs at threads=1.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("estimate-cli", "estimate-stream", "risk-curve", "coverage")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "steinmse", "__init__.py")):
        print(f"error: no steinmse sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import steinmse  # after the thread pins: numpy reads them on import
    if os.path.dirname(os.path.dirname(os.path.abspath(steinmse.__file__))) != src:
        print(f"error: steinmse was imported from {steinmse.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    out_dir = os.path.join(root, ".perfbench-out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            res, metrics = harness.traced_pass(root, args.seed, args.seconds, out_dir, workdir)
        else:
            wl = workloads.WORKLOADS[args.workload](root, args.seed, workdir)
            res, metrics = harness.untraced_run(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    with open(os.path.join(out_dir, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
