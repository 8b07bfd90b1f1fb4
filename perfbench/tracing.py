"""Span recorder for the traced run, and the wrappers that feed it.

The wrappers are installed from outside the program: `install` replaces
module attributes (the names the program looks up at call time) with
timing wrappers, so nothing under `src/` changes.  A name the program no
longer has is left alone and reported as missing: its metrics would read 0,
which looks like a gain, so the traced run is marked incorrect until the
wrapper follows the rename.  Spans live in memory as
parallel arrays and are written out once the run ends.

A span's layer is its name up to the first dot.  Self time is a span's
duration minus the durations of its direct children; the work the tracer
does itself after a call (counting states, bucketing join inputs) is
recorded as a child span of layer "trace", so it never lands in a program
layer's self time.
"""
from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

KINDS = ("introduce_vertex", "introduce_edge", "forget", "join")
LAYERS = ("cli", "model", "annotate", "treewidth", "tw_dp", "oracle", "enum",
          "compactness", "matching", "path_dp")
BOOKKEEPING = "trace.bookkeeping"

_clock = time.perf_counter


class Tracer:
    """In-memory spans (name, start, end, parent, request) plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.request = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request_of.append(self.request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def __len__(self) -> int:
        return len(self.name)

    def span_name(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def write(self, path: str) -> None:
        """Gzipped CSV, one span per line: request,span,parent,name,start,end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("request,span,parent,name,start,end\n")
            for i in range(len(self)):
                fh.write(
                    f"{self.request_of[i]},{i},{self.parent[i]},{self.span_name(i)},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )


def self_times(tracer: Tracer) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [tracer.end[i] - tracer.start[i] for i in range(len(tracer))]
    for i in range(len(tracer)):
        p = tracer.parent[i]
        if p >= 0:
            own[p] -= tracer.end[i] - tracer.start[i]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def bookkeeping_within(tracer: Tracer) -> list[float]:
    """Per span: time spent in tracer bookkeeping spans inside it, itself
    included.  Children always have higher indices than their parents."""
    book = [0.0] * len(tracer)
    for i in range(len(tracer) - 1, -1, -1):
        if tracer.span_name(i) == BOOKKEEPING:
            book[i] += tracer.end[i] - tracer.start[i]
        p = tracer.parent[i]
        if p >= 0:
            book[p] += book[i]
    return book


def span_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Aggregates per span name and per layer.

    For each span name: "calls" and "s" (summed duration, less the tracer
    bookkeeping inside).  For each layer: "self_s" (summed self time), and
    "entry_calls" / "entry_s" over the layer's outermost spans, those whose
    parent belongs to another layer.
    """
    own = self_times(tracer)
    book = bookkeeping_within(tracer)
    out: defaultdict[str, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i in range(len(tracer)):
        name = tracer.span_name(i)
        dur = tracer.end[i] - tracer.start[i] - book[i]
        layer = layer_of(name)
        out[name]["calls"] += 1
        out[name]["s"] += dur
        out[layer]["self_s"] += own[i]
        p = tracer.parent[i]
        if p < 0 or layer_of(tracer.span_name(p)) != layer:
            out[layer]["entry_calls"] += 1
            out[layer]["entry_s"] += dur
    return out


# ---------------------------------------------------------------------------
# wrappers


def _timed(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable] = None):
    """Wrap fn in a span; `after(result, args)` runs as tracer bookkeeping."""

    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            book = tracer.open(BOOKKEEPING)
            try:
                after(result, args)
            except Exception:  # a layout the counters no longer read must not fail the request
                tracer.counts["trace.bookkeeping_errors"] += 1
            finally:
                tracer.close(book)
        return result

    return wrapper


def _replace(undo: list, missing: list, owner, attr: str, make: Callable, kind=object) -> None:
    """Set owner.attr to make(original).  A name the program no longer has,
    or no longer has as a `kind`, is skipped and added to `missing`."""
    original = vars(owner).get(attr)
    if original is not None and isinstance(original, kind):
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))
    else:
        missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")


def install(tracer: Tracer) -> tuple[Callable[[], None], list[str]]:
    """Wrap the program's layer boundaries.  Returns a function that undoes
    it, and the names of the hooks it could not find."""
    from compactfd import (
        annotate, cli, compactness, enum_solver, matching, oracle, path_dp, tw_dp,
    )

    undo: list = []
    missing: list[str] = []
    counts, peak = tracer.counts, tracer.peak

    def patch(owner, attr, name, after=None):
        _replace(undo, missing, owner, attr, lambda fn: _timed(tracer, name, fn, after))

    # cli: the request itself, the verification and the per-agent mms recompute
    patch(cli, "main", "cli.main")
    patch(cli, "_mms_with", "cli.mms_recompute")
    patch(cli, "is_compact_allocation", "compactness.verify")
    patch(cli, "load_instance", "model.load")

    # tw_dp: one span per nice-node transition, per sweep, per witness
    def states_out(kind):
        def after(table, _args):
            counts[f"tw_dp.{kind}.states_out"] += len(table)
            peak("tw_dp.peak_states", len(table))
        return after

    def join_after(table, args):
        left, right = args[0], args[1]
        keys: defaultdict[tuple, int] = defaultdict(int)
        for state in left:
            keys[tuple((ag[0], ag[1]) for ag in state[0])] += 1
        pairs = 0
        for state in right:
            pairs += keys.get(tuple((ag[0], ag[1]) for ag in state[0]), 0)
        counts["tw_dp.join.pairs"] += pairs
        states_out("join")(table, args)

    patch(tw_dp, "leaf_states", "tw_dp.leaf")
    patch(tw_dp, "introduce_vertex_transition", "tw_dp.introduce_vertex", states_out("introduce_vertex"))
    patch(tw_dp, "introduce_edge_transition", "tw_dp.introduce_edge", states_out("introduce_edge"))
    patch(tw_dp, "forget_transition", "tw_dp.forget", states_out("forget"))
    patch(tw_dp, "join_transition", "tw_dp.join", join_after)

    def sweep_after(table, _args):
        counts["tw_dp.root_states"] += len(table.root_slice())

    patch(tw_dp, "run_dp", "tw_dp.sweep", sweep_after)
    patch(tw_dp, "_witness", "tw_dp.witness")
    patch(tw_dp.RootTable, "extract", "tw_dp.extract")
    patch(tw_dp, "solve_tw", "tw_dp.solve")
    patch(tw_dp, "mms_tw", "tw_dp.mms")

    # annotate: one span per center tuple built; pruning and complete skips
    def built(ann, _args):
        counts["annotate.kept"] += len(ann.kept)
        counts["annotate.base"] += ann.base.m

    patch(annotate, "build_annotated", "annotate.build", built)
    patch(tw_dp, "build_annotated", "annotate.build", built)

    def counted_prunes(prop):
        def prunes_nothing(ann):
            result = prop.fget(ann)
            if not result:
                counts["annotate.complete_skips"] += 1
            return result
        return property(prunes_nothing)

    _replace(undo, missing, annotate.AnnotatedInstance, "prunes_nothing", counted_prunes, property)

    # treewidth, as the tw_dp search calls it
    def nicefied(nice, _args):
        counts["treewidth.nice_nodes"] += len(nice.nodes)
        peak("treewidth.max_bag", nice.width + 1)

    patch(tw_dp, "greedy_decompose", "treewidth.decompose")
    patch(tw_dp, "nicefy", "treewidth.nicefy", nicefied)

    # oracle: solve and mms spans; passes counted where the scan starts
    patch(oracle, "solve_oracle", "oracle.solve")
    patch(oracle, "mms_oracle", "oracle.mms")
    patch(oracle, "mms_all", "oracle.mms_all")

    def counted_scan(scan):
        def wrapper(instance, *args, **kwargs):
            counts["oracle.passes"] += 1
            counts["oracle.assignments"] += (instance.n + 1) ** instance.m
            return scan(instance, *args, **kwargs)
        return wrapper

    _replace(undo, missing, oracle, "_scan", counted_scan)

    # enum_solver
    patch(enum_solver, "solve_enum", "enum.solve")
    patch(enum_solver, "mms_enum", "enum.mms")

    def bundles_after(bundles, _args):
        counts["enum.bundles"] += len(bundles)

    patch(enum_solver, "compact_bundles", "enum.bundles", bundles_after)

    def counted_allocations(enumerate_allocs):
        def wrapper(*args, **kwargs):
            counts["enum.passes"] += 1
            for alloc in enumerate_allocs(*args, **kwargs):
                counts["enum.allocations"] += 1
                yield alloc
        return wrapper

    _replace(undo, missing, enum_solver, "enumerate_compact_allocations", counted_allocations)

    # compactness: recognizer spans; cache checks counted, not spanned
    patch(compactness, "is_compact", "compactness.recognize")
    patch(compactness, "is_strongly_compact", "compactness.recognize")

    def counted_check(check_mask):
        def wrapper(cache, mask):
            counts["compactness.checks"] += 1
            store = getattr(cache, "_cache", None)
            if store is None:  # the hit counter can no longer see the cache
                counts["trace.bookkeeping_errors"] += 1
            elif mask in store:
                counts["compactness.hits"] += 1
            return check_mask(cache, mask)
        return wrapper

    _replace(undo, missing, compactness.BundleCompactnessCache, "check_mask", counted_check)

    # matching and path_dp entry points, as the CLI calls them
    for attr in ("solve_prop_10", "solve_mms_10", "solve_ef_one_item", "mms_10"):
        patch(matching, attr, f"matching.{attr}")
    patch(path_dp, "solve_prop_path_agents", "path_dp.solve")

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall, missing


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, requests: int, overhead_s: float, overhead_ratio: float) -> dict:
    """Every per-layer metric, as (value, unit).  Counts and times are per
    request unless the unit says otherwise."""
    per = 1.0 / max(requests, 1)
    spans = span_totals(tracer)
    c, mx = tracer.counts, tracer.maxima

    def s(name):  # summed duration of one span name, per request
        return spans[name]["s"] * per

    def calls(name):
        return spans[name]["calls"] * per

    def ratio(num, den):
        return num / den if den else 0.0

    sweeps = int(spans["tw_dp.sweep"]["calls"])
    out = {
        "tw_dp.sweeps": (sweeps, "count"),
        "tw_dp.sweep_s": (s("tw_dp.sweep"), "s/req"),
        "tw_dp.sweeps_per_request": (sweeps * per, "count/req"),
    }
    for kind in KINDS:
        out[f"tw_dp.{kind}.calls"] = (calls(f"tw_dp.{kind}"), "count/req")
        out[f"tw_dp.{kind}.s"] = (s(f"tw_dp.{kind}"), "s/req")
        out[f"tw_dp.{kind}.states_out"] = (c[f"tw_dp.{kind}.states_out"] * per, "count/req")
    out.update({
        "tw_dp.join.yield_ratio": (ratio(c["tw_dp.join.states_out"], c["tw_dp.join.pairs"]), "ratio"),
        "tw_dp.peak_states": (mx["tw_dp.peak_states"], "count"),
        "tw_dp.root_states": (c["tw_dp.root_states"] * per, "count/req"),
        "tw_dp.witness_calls": (calls("tw_dp.witness"), "count/req"),
        "tw_dp.witness_s": (s("tw_dp.witness"), "s/req"),
        "annotate.tuples": (calls("annotate.build"), "count/req"),
        "annotate.build_s": (s("annotate.build"), "s/req"),
        "annotate.kept_ratio": (ratio(c["annotate.kept"], c["annotate.base"]), "ratio"),
        "annotate.complete_skips": (c["annotate.complete_skips"] * per, "count/req"),
        "treewidth.decompose_s": (s("treewidth.decompose"), "s/req"),
        "treewidth.nicefy_s": (s("treewidth.nicefy"), "s/req"),
        "treewidth.nice_nodes": (
            ratio(c["treewidth.nice_nodes"], spans["treewidth.nicefy"]["calls"]), "count/nicefy"
        ),
        "treewidth.max_bag": (mx["treewidth.max_bag"], "count"),
        "cli.verify_s": (s("compactness.verify"), "s/req"),
        "cli.mms_recompute_s": (s("cli.mms_recompute"), "s/req"),
        "oracle.passes": (c["oracle.passes"] * per, "count/req"),
        "oracle.assignments": (c["oracle.assignments"] * per, "count/req"),
        "oracle.solve_s": (s("oracle.solve"), "s/req"),
        "oracle.mms_s": (s("oracle.mms_all"), "s/req"),
        "enum.bundles": (c["enum.bundles"] * per, "count/req"),
        "enum.bundles_s": (s("enum.bundles"), "s/req"),
        "enum.passes": (c["enum.passes"] * per, "count/req"),
        "enum.allocations": (c["enum.allocations"] * per, "count/req"),
        "enum.solve_s": (s("enum.solve"), "s/req"),
        "enum.mms_s": (s("enum.mms"), "s/req"),
        "compactness.checks": (c["compactness.checks"] * per, "count/req"),
        "compactness.cache_hit_ratio": (ratio(c["compactness.hits"], c["compactness.checks"]), "ratio"),
        "compactness.recognize_s": (s("compactness.recognize"), "s/req"),
        "matching.calls": (spans["matching"]["entry_calls"] * per, "count/req"),
        "matching.s": (spans["matching"]["entry_s"] * per, "s/req"),
        "path_dp.calls": (spans["path_dp"]["entry_calls"] * per, "count/req"),
        "path_dp.s": (spans["path_dp"]["entry_s"] * per, "s/req"),
    })
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (spans[layer]["self_s"] * per, "s/req")
    out["trace.overhead_s"] = (overhead_s, "s/req")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["trace.spans"] = (len(tracer) * per, "count/req")
    out["trace.bookkeeping_errors"] = (c["trace.bookkeeping_errors"], "count")
    return out
