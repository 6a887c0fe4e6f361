"""Run one ``interdiv`` command in this process with a span around each layer.

Usage: ``python3 perfbench/tracer.py SPANS.json RUN_ID <interdiv args...>``

Wrappers are installed from here, on each module's public entry point and
on every name a caller looks it up by (``curves`` imports ``evaluate`` from
``relevance``; objectives are methods of the ``losses`` classes). Spans are
kept in memory and written as JSON when the command ends. The program under
test is not modified.
"""
from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

from interdiv import approx, cli, curves, dataset, gbt, harness, idboost, losses, metrics, relevance


class Recorder:
    """Collects ``[name, start, end, parent, run_id, detail, work]`` spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work=None, method=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            detail = type(args[0]).__name__ if method else ""
            span = [name, time.perf_counter(), None, parent, self.run_id, detail, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[6] = work(args, result)
            return result

        return traced


def _rows_times_trees(args, result):
    """Rows scored times trees walked by one ``TreeEnsemble.predict``."""
    return int(np.asarray(args[1]).shape[0]) * len(args[0].trees)


def _simplify_work(args, result):
    """Segments the simplified sweep covers, and intervals of the exact sweep."""
    grid = np.unique(np.concatenate([c.t for c in result.curves]))
    return [len(grid) - 1, len(args[0].breakpoints) - 1]


# (span name, objects the name is looked up on, attribute, work counter)
TARGETS = [
    ("dataset.load_csv", [dataset], "load_csv", lambda a, r: r.n),
    ("dataset.split", [dataset], "split", None),
    ("relevance.evaluate", [relevance, curves], "evaluate", None),
    ("curves.build", [curves], "build", lambda a, r: len(r.breakpoints) - 1),
    ("curves.export_curves", [curves], "export_curves", None),
    ("gbt.fit", [gbt], "fit", lambda a, r: sum(len(t.feature) for t in r.trees)),
    ("gbt.predict", [gbt.TreeEnsemble], "predict", _rows_times_trees),
    ("idboost.fit", [idboost], "fit", None),
    ("idboost.predict", [idboost.IdBoostModel], "predict", None),
    ("approx.simplify", [approx], "simplify", _simplify_work),
    ("metrics.full_report", [metrics], "full_report", None),
    ("harness.run", [harness], "run", None),
    ("harness.export_id_curves", [harness], "export_id_curves", None),
]
OBJECTIVES = [losses.MseObjective, losses.HuberObjective, losses.SeraObjective,
              losses.IdLossObjective]


def install(rec: Recorder) -> None:
    for name, owners, attr, work in TARGETS:
        owner0 = owners[0]
        fn = owner0.__dict__[attr] if isinstance(owner0, type) else getattr(owner0, attr)
        traced = rec.wrap(name, fn, work, method=isinstance(owner0, type))
        for owner in owners:
            setattr(owner, attr, traced)
    for cls in OBJECTIVES:
        for attr in ("grad_hess", "value"):
            setattr(cls, attr, rec.wrap(f"losses.{attr}", cls.__dict__[attr], method=True))


def main() -> int:
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    rec = Recorder(run_id)
    install(rec)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"clock": "perf_counter", "spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
