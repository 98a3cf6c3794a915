"""Traced in-process CLI operations: spans around the package's public functions.

Run as a script, this is one traced operation: it wraps every public
function of the layer modules on every module attribute that refers to it
(``cli`` and ``mc`` bind ``caf``/``scmb`` functions through ``from ...
import``, so patching the defining module alone would miss those calls),
plus the ``ResultTable`` serializers, then calls ``cli.main(argv)`` and
writes the recorded spans as JSON.  The ``cmd_*`` functions are resolved
when ``main`` builds its parser, so patching before ``main`` catches them.

    python3 perfbench/tracer.py SPANS_JSON OP_ID -- <dpe_multipath argv>
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("geom", "caf", "scmb", "mc", "cli")
METHODS = {"cli": {"ResultTable": ("to_csv", "to_json")}}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    op: int  # operation id shared by every span of one operation
    counts: dict = field(default_factory=dict)


def _table_counts(args, kwargs, result) -> dict:
    table = args[0]
    return {"cells": len(table.rows) * len(table.columns), "bytes": len(result)}


# Work counts read off each boundary's arguments and return value.
COUNTERS = {
    "caf.channel_caf": lambda a, k, r: {"cells": r.values.size},
    "caf.superpose_and_argmax": lambda a, k, r: {
        "cells": sum(g.values.size for g in (a[0] if a else k["grids"]))},
    "mc.run_random_azimuth_mc": lambda a, k, r: {"trials": r.summary["trials"]},
    "cli.ResultTable.to_csv": _table_counts,
    "cli.ResultTable.to_json": _table_counts,
}


class Tracer:
    """Records one span per call of each wrapped function, in memory."""

    def __init__(self, op: int = 0):
        self.spans: list[Span] = []
        self.op = op
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, open_[-1] if open_ else None, self.op)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "dpe_multipath") -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for other in modules.values():
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    setattr(cls, meth, self.wrap(name, vars(cls)[meth]))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON OP_ID -- <dpe_multipath argv>", file=sys.stderr)
        return 2
    tracer = Tracer(int(argv[1]))
    tracer.install()
    cli = importlib.import_module("dpe_multipath.cli")
    status = cli.main(argv[3:])
    Path(argv[0]).write_text(json.dumps([asdict(s) for s in tracer.spans]))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
