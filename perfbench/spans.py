"""Traced run: spans around the public functions of each module, recorded
from the benchmark's side, and the per-layer metrics derived from them.

Each wrapper is installed where callers look the function up (a module
attribute such as ``cli.load_model`` or ``semantics.update_dpal``, or a
method on ``Model``), records (name, parent, start, end) in memory, and
feeds counters computed from the call's public arguments and return value.
Recursive helpers (``modal_depth``, ``_nv``, ``to_text``'s self-calls) are
not wrapped, so the trace stays one span per layer boundary.
"""

from __future__ import annotations

import gc
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

from depthlogic import cli, dot, model, muddy, props, semantics, syntax

# Per-layer metrics, in report order, with their units.
LAYER_METRICS = {
    "semantics.update.dpal.self_s": "s",
    "semantics.update.edpal.self_s": "s",
    "semantics.update.adpal.self_s": "s",
    "semantics.update.calls": "count",
    "semantics.update.states_out": "count",
    "semantics.update.pairs_out": "count",
    "semantics.label.self_s": "s",
    "semantics.label.cells": "count",
    "semantics.naive.self_s": "s",
    "semantics.naive.calls": "count",
    "model.init.self_s": "s",
    "model.init.calls": "count",
    "model.init.pairs_in": "count",
    "model.classes.self_s": "s",
    "model.load.self_s": "s",
    "model.validate.self_s": "s",
    "model.dump.self_s": "s",
    "model.json_bytes_in": "bytes",
    "model.json_bytes_out": "bytes",
    "syntax.parse.self_s": "s",
    "syntax.parse.calls": "count",
    "syntax.to_text.self_s": "s",
    "syntax.tree_nodes": "count",
    "syntax.distinct_nodes": "count",
    "syntax.share_ratio": "ratio",
    "muddy.build.self_s": "s",
    "muddy.reduction_decide.self_s": "s",
    "props.random_model.self_s": "s",
    "props.random_formula.self_s": "s",
    "props.holds_everywhere.self_s": "s",
    "dot.sequence_to_dot.self_s": "s",
    "dot.bytes_out": "bytes",
    "cli.update.self_s": "s",
    "cli.check.self_s": "s",
    "cli.export_dot.self_s": "s",
    "runtime.gc_pause_s": "s",
    "runtime.gc_collections": "count",
}


# -- counters fed from public arguments and return values --

def _count_update(counts, args, result):
    counts["semantics.update.calls"] += 1
    counts["semantics.update.states_out"] += len(result.states)
    counts["semantics.update.pairs_out"] += sum(
        len(result.pairs(a)) for a in range(result.agents))


def _count_label(counts, args, result):
    counts["semantics.label.cells"] += sum(
        len(row) for row in result.table.values())


def _count_naive(counts, args, result):
    counts["semantics.naive.calls"] += 1


def _count_init(counts, args, result):
    m = args[0]
    counts["model.init.calls"] += 1
    counts["model.init.pairs_in"] += sum(
        len(m.pairs(a)) for a in range(m.agents))


def _count_load(counts, args, result):
    counts["model.json_bytes_in"] += os.path.getsize(args[0])


def _count_dump(counts, args, result):
    counts["model.json_bytes_out"] += os.path.getsize(args[1])


def _count_parse(counts, args, result):
    counts["syntax.parse.calls"] += 1


def _count_export(counts, args, result):
    if args[0].out and os.path.exists(args[0].out):
        counts["dot.bytes_out"] += os.path.getsize(args[0].out)


# (owner, attribute, span name, counter); span names ending in ".self_s"
# are what the metric table reports.
WRAPPED = [
    (semantics, "update_dpal", "semantics.update.dpal", _count_update),
    (semantics, "update_edpal", "semantics.update.edpal", _count_update),
    (semantics, "update_adpal", "semantics.update.adpal", _count_update),
    (semantics, "check_labeling", "semantics.label", _count_label),
    (semantics, "check_naive", "semantics.naive", _count_naive),
    (muddy, "check_naive", "semantics.naive", _count_naive),
    (dot, "check_naive", "semantics.naive", _count_naive),
    (props, "check_naive", "semantics.naive", _count_naive),
    (model.Model, "__init__", "model.init", _count_init),
    (model.Model, "classes", "model.classes", None),
    (cli, "load_model", "model.load", _count_load),
    (cli, "validate", "model.validate", None),
    (model, "save_model", "model.dump", _count_dump),
    (cli, "save_model", "model.dump", _count_dump),
    (cli, "parse", "syntax.parse", _count_parse),
    (cli, "to_text", "syntax.to_text", None),
    (dot, "to_text", "syntax.to_text", None),
    (props, "to_text", "syntax.to_text", None),
    (muddy, "build_muddy", "muddy.build", None),
    (muddy, "reduction_decide", "muddy.reduction_decide", None),
    (props, "random_model", "props.random_model", None),
    (props, "random_formula", "props.random_formula", None),
    (props, "holds_everywhere", "props.holds_everywhere", None),
    (dot, "sequence_to_dot", "dot.sequence_to_dot", None),
    (cli, "cmd_update", "cli.update", None),
    (cli, "cmd_check", "cli.check", None),
    (cli, "cmd_export_dot", "cli.export_dot", _count_export),
]


class Tracer:
    """In-memory span recorder.  ``enabled`` is switched off while the
    worker computes references, so reference work is not attributed."""

    def __init__(self) -> None:
        # (name, parent span id or -1, start, end); a slot holds None
        # while its span is open
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.enabled = True
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (name, parent, start, end)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def _on_gc(self, phase, info) -> None:
        if not self.enabled:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    def install(self) -> None:
        for owner, attr, name, counter in WRAPPED:
            setattr(owner, attr, self.wrap(name, owner.__dict__[attr], counter))
        gc.callbacks.append(self._on_gc)

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, per name."""
        child = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, _, start, end) in enumerate(self.spans):
            out[name] += end - start - child[sid]
        return out

    def write(self, path: str) -> None:
        """One JSON line per span: name, parent id, start and end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, span in enumerate(self.spans):
                fh.write(json.dumps([sid, *span]) + "\n")


def _as_formula(item) -> syntax.Formula:
    if isinstance(item, str):
        return syntax.parse(item)
    if isinstance(item, muddy.ThreeSatInstance):
        return muddy.reduce_3sat(item)[1]
    return item


def syntax_counts(ops) -> dict[str, float]:
    """Tree nodes and distinct subformulas of the formulas the ops check:
    the share of subformula work that sharing identical nodes could save."""
    tree = distinct = 0
    seen: dict[int, tuple[int, int]] = {}
    for op in ops:
        for item in op.formulas:
            key = id(item)
            if key not in seen:
                f = _as_formula(item)
                seen[key] = (syntax.size(f), len(syntax.subformulas(f)))
            tree += seen[key][0]
            distinct += seen[key][1]
    return {"syntax.tree_nodes": tree, "syntax.distinct_nodes": distinct,
            "syntax.share_ratio": distinct / tree if tree else 0.0}


def layer_metrics(tracer: Tracer, ops) -> dict[str, float]:
    selfs = tracer.self_times()
    values: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = selfs.get(name[:-len(".self_s")], 0.0)
        else:
            values[name] = tracer.counts.get(name, 0)
    values.update(syntax_counts(ops))
    values["runtime.gc_pause_s"] = tracer.gc_pause_s
    values["runtime.gc_collections"] = tracer.gc_collections
    return values
