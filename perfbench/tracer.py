"""Outside-in tracing of relpoly, layer by layer, from the benchmark's files.

The tracer replaces the module attributes through which relpoly's layers
call each other with wrappers that record one span per call: name, start,
end, parent span and the id of the CLI operation it belongs to.  Spans stay
in memory and are written out when the pass ends; layer_metrics() derives
self times and counts from them.  No file of the program changes.

Two traps:

* ``relpoly.scan`` as an attribute of the package is the ``scan`` function,
  which shadows the submodule of the same name.  Modules are therefore taken
  from ``importlib.import_module``, which returns the ``sys.modules`` entry.
* ``tutte._dc_block`` recurses through the module global, so wrapping that
  attribute catches every deletion-contraction node.  The nodes nest deeply:
  their summed inclusive times come to several times the run's wall time,
  which is why only span self time (duration minus the time covered by child
  spans) is reported.

``scan.scan`` reads ``_member_data`` when it builds its ``partial``, at call
time, so wrapping the module attribute before the scan catches every member.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

# (module, attribute, span name).  An attribute "Class.method" wraps the
# method on the class.
WRAP_POINTS = (
    ("relpoly.cli", "scan", "scan.classify"),
    ("relpoly.cli", "_dump", "cli.dump"),
    ("relpoly.cli", "estimate", "mc"),
    ("relpoly.cli", "ntable_from_whitney", "counts.table"),
    ("relpoly.cli", "mu_vector", "counts.table"),
    ("relpoly.cli", "t_k", "counts.table"),
    ("relpoly.cli", "lambda_k", "counts.table"),
    ("relpoly.cli", "reliability", "counts.rel"),
    ("relpoly.cli", "rel_eval", "counts.rel"),
    ("relpoly.cli", "reliability_via_tutte", "counts.rel"),
    ("relpoly.scan", "enumerate_class", "scan.enum"),
    ("relpoly.scan", "_graphs_with_edges", "scan.enum.augment"),
    ("relpoly.scan", "canonical_form", "graphs.canon.enum"),
    ("relpoly.scan", "canonical_relabel", "graphs.canon.enum"),
    ("relpoly.scan", "_member_data", "scan.members"),
    ("relpoly.scan", "ntable_from_whitney", "counts.table"),
    ("relpoly.scan", "mu_vector", "counts.table"),
    ("relpoly.scan", "t_k", "counts.table"),
    ("relpoly.scan", "lambda_k", "counts.table"),
    ("relpoly.scan", "compare_whitney_polys", "order.compare"),
    ("relpoly.scan", "compare_tutte_polys", "order.compare"),
    ("relpoly.order", "compare_whitney_polys", "order.compare"),
    ("relpoly.order", "compare_tutte_polys", "order.compare"),
    ("relpoly.order", "divide_one_minus_xy", "order.divide"),
    ("relpoly.tutte", "tutte_dc", "tutte.dc"),
    ("relpoly.counts", "tutte_dc", "tutte.dc"),
    ("relpoly.tutte", "_dc_block", "tutte.dc.block"),
    ("relpoly.tutte", "_core_key", "graphs.canon.dc"),
    ("relpoly.tutte", "edge_subset_census", "graphs.census"),
    ("relpoly.poly", "BivarPoly.shift_vars", "poly.shift"),
    ("relpoly.mc", "estimate", "mc"),
    ("relpoly.mc", "ntable_from_whitney", "counts.table"),
    ("relpoly.mc", "reliability", "counts.rel"),
    ("relpoly.mc", "rel_eval", "counts.rel"),
)

ROOT_SPAN = "cli.op"  # one per CLI operation; parent of everything it calls

# layer metric -> span names whose self times it sums
SELF_TIME_METRICS = {
    "graphs.canon.enum.s": ("graphs.canon.enum",),
    "graphs.canon.dc.s": ("graphs.canon.dc",),
    "graphs.census.s": ("graphs.census",),
    "scan.enum.s": ("scan.enum", "scan.enum.augment"),
    "scan.members.s": ("scan.members",),
    "scan.classify.s": ("scan.classify",),
    "tutte.dc.s": ("tutte.dc", "tutte.dc.block"),
    "poly.shift.s": ("poly.shift",),
    "order.compare.s": ("order.compare",),
    "order.divide.s": ("order.divide",),
    "counts.table.s": ("counts.table",),
    "counts.rel.s": ("counts.rel",),
    "mc.s": ("mc",),
    "cli.dump.s": ("cli.dump",),
}

# layer metric -> span name whose calls it counts
CALL_METRICS = {
    "graphs.canon.enum.calls": "graphs.canon.enum",
    "graphs.canon.dc.calls": "graphs.canon.dc",
    "graphs.census.calls": "graphs.census",
    "tutte.dc.calls": "tutte.dc",
    "tutte.dc.nodes": "tutte.dc.block",
    "poly.shift.calls": "poly.shift",
    "order.compare.calls": "order.compare",
    "order.divide.calls": "order.divide",
}

clock = time.perf_counter


class Tracer:
    """Span recorder.  install() wraps every point in WRAP_POINTS;
    uninstall() puts the originals back."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, operation id)
        self.spans: list[tuple] = []
        self.counters = {
            "scan.enum.candidates": 0,
            "scan.enum.kept": 0,
            "scan.enum.classes": 0,
            "tutte.memo.lookups": 0,
            "tutte.memo.hits": 0,
            "mc.trials": 0,
            "cli.dump.bytes": 0,
        }
        self._open: list[int] = []  # indices of the spans now running
        self._memos: list = []  # memo argument of each running _dc_block
        self._op = -1
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _parent_name(self) -> str:
        return self.names[self.spans[self._open[-1]][0]] if self._open else ""

    def _wrap(self, fn, name: str, before=None, after=None):
        name_id = self._name_id(name)
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append((name_id, 0.0, 0.0, open_[-1] if open_ else -1, self._op))
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                _, _, _, parent, op = spans[idx]
                spans[idx] = (name_id, start, end, parent, op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def operation(self, op_id: int, main, argv):
        """Run one CLI operation under a root span carrying its id."""
        self._op = op_id
        try:
            return self._wrap(main, ROOT_SPAN)(argv)
        finally:
            self._op = -1

    # -- counters read at the wrap points ----------------------------------

    def _hooks(self, module: str, attr: str):
        """(before, after) callables for the wrap points that count work."""
        c = self.counters
        augmenting = "scan.enum.augment"
        if (module, attr) == ("relpoly.scan", "canonical_form"):
            # candidates: graphs canonicalized during augmentation, not the
            # empty starting graph and not the final connected-member pass
            def after(args, result):
                if self._parent_name() == augmenting and args[0].m > 0:
                    c["scan.enum.candidates"] += 1
            return None, after
        if (module, attr) == ("relpoly.scan", "canonical_relabel"):
            # one relabel per distinct class kept at an augmentation level
            def after(args, result):
                if self._parent_name() == augmenting:
                    c["scan.enum.kept"] += 1
            return None, after
        if (module, attr) == ("relpoly.scan", "enumerate_class"):
            def after(args, result):
                c["scan.enum.classes"] += len(result)
            return None, after
        if (module, attr) == ("relpoly.tutte", "_dc_block"):
            # a block that raises leaves its memo below the top of the
            # stack, where no later lookup reads it
            memos = self._memos

            def before(args):
                memos.append(args[1])

            def after(args, result):
                memos.pop()
            return before, after
        if (module, attr) == ("relpoly.tutte", "_core_key"):
            # _dc_block looks its key up right after _core_key returns: a
            # key already in the running block's memo is a hit
            def after(args, result):
                c["tutte.memo.lookups"] += 1
                if result in self._memos[-1]:
                    c["tutte.memo.hits"] += 1
            return None, after
        if attr == "estimate":
            def after(args, result):
                c["mc.trials"] += result.trials
            return None, after
        if (module, attr) == ("relpoly.cli", "_dump"):
            # stdout is a StringIO during an operation; its position grows
            # by the characters written, which are ASCII JSON
            def before(args):
                self._dump_start = sys.stdout.tell()

            def after(args, result):
                c["cli.dump.bytes"] += sys.stdout.tell() - self._dump_start
            return before, after
        return None, None

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr_name = attr.split(".")
                owner = getattr(owner, cls_name)
            else:
                attr_name = attr
            original = getattr(owner, attr_name)
            before, after = self._hooks(module_name, attr)
            setattr(owner, attr_name, self._wrap(original, span_name, before, after))
            self._installed.append((owner, attr_name, original))

    def uninstall(self) -> None:
        for owner, attr_name, original in reversed(self._installed):
            setattr(owner, attr_name, original)
        self._installed.clear()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans,
                                    "counters": self.counters}))


# -- derivation, run in the benchmark's parent process --------------------


def self_times(names: list[str], spans: list) -> dict[str, float]:
    """Summed self time per span name: each span's duration minus the
    durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals = dict.fromkeys(names, 0.0)
    for (name_id, *_), seconds in zip(spans, own):
        totals[names[name_id]] += seconds
    return totals


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from a written trace.  A ratio whose base is zero
    (the layer did no work on this workload) reads 0."""
    names, spans, counters = trace["names"], trace["spans"], trace["counters"]
    own = self_times(names, spans)
    calls = dict.fromkeys(names, 0)
    for name_id, *_ in spans:
        calls[names[name_id]] += 1
    metrics = {m: sum(own.get(n, 0.0) for n in group) for m, group in SELF_TIME_METRICS.items()}
    metrics.update({m: calls.get(n, 0) for m, n in CALL_METRICS.items()})
    candidates = counters["scan.enum.candidates"]
    lookups = counters["tutte.memo.lookups"]
    metrics.update({
        "scan.enum.candidates": candidates,
        "scan.enum.classes": counters["scan.enum.classes"],
        "scan.enum.kept_ratio": counters["scan.enum.kept"] / candidates if candidates else 0.0,
        "tutte.memo.lookups": lookups,
        "tutte.memo.hit_ratio": counters["tutte.memo.hits"] / lookups if lookups else 0.0,
        "mc.trials_per_s": counters["mc.trials"] / metrics["mc.s"] if metrics["mc.s"] else 0.0,
        "cli.dump.bytes": counters["cli.dump.bytes"],
        "trace.spans": len(spans),
        "trace.self_sum_s": sum(own.values()),
    })
    return metrics
