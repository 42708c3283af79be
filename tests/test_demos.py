"""Each demo script runs to completion as a standalone program."""

import os
import subprocess
import sys

import pytest

import steinmse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(steinmse.__file__)))

DEMOS = [
    ("estimate_walkthrough.py", []),
    ("constants_tables.py", []),
    ("risk_curves.py", ["--reps", "256"]),
    ("coverage_curves.py", ["--reps", "256"]),
    ("regression_canonical_form.py", []),
]


@pytest.mark.parametrize("script,args", DEMOS, ids=[d[0] for d in DEMOS])
def test_demo_runs(script, args):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    res = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script), *args],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
