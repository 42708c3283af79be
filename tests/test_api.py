"""The package namespace: what the demos and the benchmark call, and no
name that does not resolve."""

import pathlib
import re

import steinmse as sm

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_name_the_callers_use_is_exported():
    # Reads the callers' source only; importing the benchmark would run it.
    paths = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    used = set()
    for path in paths:
        used |= set(re.findall(r"\bsm\.(\w+)", path.read_text()))
    assert "estimate_mse_matrix" in used  # the pattern does find the calls
    assert sorted(used - set(sm.__all__)) == []


def test_every_exported_name_resolves():
    assert len(set(sm.__all__)) == len(sm.__all__)
    missing = [name for name in sm.__all__ if not hasattr(sm, name)]
    assert missing == []
