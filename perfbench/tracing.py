"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions of every ``steinmse`` module
(each name in the module's ``__all__`` that is a function, cached or not), plus
``RngStream.generator`` and the two table ``write_csv`` methods. A wrapper
replaces the function in every ``steinmse`` namespace that holds it, so a
call through a name imported with ``from .x import f`` is traced too.

Each call records one span ``[name, start, end, parent]`` in memory; the
parent is the index of the enclosing open span (or -1). Spans are written
out only when the run ends. A span's self time is its duration minus the
durations of its direct children (calls are nested and single-threaded,
so the children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Methods traced besides the module-level public functions. The two table
# writers share one span name, since each writes one CSV file.
_METHODS = (
    ("distributions.streams", "steinmse.distributions", "RngStream", "generator"),
    ("experiments.write_csv", "steinmse.experiments", "RiskTable", "write_csv"),
    ("experiments.write_csv", "steinmse.experiments", "CoverageTable", "write_csv"),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self.enabled = True

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.current()])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded in another process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par])

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, extra: tuple = ()) -> None:
        """Wrap every public function of the imported steinmse modules.

        ``extra`` lists more (span name, module, attribute) triples, such
        as the CLI's ``main``, which is not in any ``__all__``.
        """
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "steinmse" or name.startswith("steinmse."))}
        targets = []
        for mod_name, mod in mods.items():
            if mod_name == "steinmse":
                continue
            layer = mod_name.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if (callable(fn) and not inspect.isclass(fn)
                        and getattr(fn, "__module__", None) == mod_name):
                    targets.append((f"{layer}.{attr}", fn))
        for span_name, mod_name, attr in extra:
            targets.append((span_name, getattr(mods[mod_name], attr)))
        for span_name, fn in targets:
            traced = self._wrap(span_name, fn)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, traced)
        for span_name, mod_name, cls_name, attr in _METHODS:
            cls = getattr(mods[mod_name], cls_name)
            self._patch(cls, attr, self._wrap(span_name, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans: list, roots: list) -> dict:
    """Per-name totals over the subtrees of the ``roots`` span indices.

    Returns {name: {"calls", "s", "self_s"}}; ``s`` is inclusive time,
    ``self_s`` excludes the time of direct child spans.
    """
    children: dict = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out: dict = {}
    todo = list(roots)
    while todo:
        i = todo.pop()
        name, start, end, _ = spans[i]
        kids = children.get(i, [])
        dur = end - start
        child_time = sum(spans[k][2] - spans[k][1] for k in kids)
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child_time
        todo.extend(kids)
    return out
