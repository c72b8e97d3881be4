"""Spans around the calls into each sumsetlab layer, recorded from outside.

`Tracer.install` wraps public functions wherever a package module binds
them (a consumer's `from .partition import partition_graph` binds its own
name, so wrapping only the defining module would miss it), two
`FlowNetwork` methods, and the entries of `suite.CRITERIA`.  `uninstall`
restores the originals, so untraced rounds run the package untouched.

Each span records its name, start, end, parent span and job in flat
arrays kept in memory; `write` saves them when the run ends.  A layer's
self time is its spans' durations minus the time their child spans cover.
A target that a later refactor removed is reported absent, not fatal.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter


def _pairs_sumset(args, kwargs, result):
    return len(args[0]) * len(args[1])


def _pairs_stream(args, kwargs, result):
    # [|A|, |A+B|, ..., |A+hB|]: fold i pairs every element of A+iB with B.
    return sum(result[:-1]) * len(args[1])


def _edges(args, kwargs, result):
    return result.edge_count


def _arcs(args, kwargs, result):
    return sum(len(adj) for adj in args[0].graph) // 2


def _blocks(args, kwargs, result):
    return len(result.blocks)


def _subsets(args, kwargs, result):
    return result.checked


# (module, qualified name, span, counters).  A counter is (name, fn) where
# fn maps (args, kwargs, result) to the amount; None counts calls.  A span
# name is also the prefix of its layer's time metric: `groups.sumset` gives
# `groups.sumset_s`.
TARGETS = (
    ("groups", "sumset", "groups.sumset",
     (("groups.sumset_calls", None), ("groups.pairs_computed", _pairs_sumset))),
    ("groups", "cardinality_stream", "groups.sumset",
     (("groups.sumset_calls", None), ("groups.pairs_computed", _pairs_stream))),
    # Compositions of `sumset` today; wrapped so their time stays in the
    # layer if a later kernel stops calling `sumset`.
    ("groups", "iterated_sumset", "groups.sumset", ()),
    ("groups", "fold_sumset", "groups.sumset", ()),
    ("groups", "load_gset", "groups.load", ()),
    ("groups", "gset_from_json", "groups.load", ()),
    ("groups", "gset_to_json", "groups.json", ()),
    ("graphs", "build_addition_graph", "graphs.build",
     (("graphs.build_calls", None), ("graphs.edges", _edges))),
    ("graphs", "build_restricted_graph", "graphs.build",
     (("graphs.build_calls", None), ("graphs.edges", _edges))),
    ("graphs", "load_graph", "graphs.json", ()),
    ("graphs", "graph_from_json", "graphs.json", ()),
    ("graphs", "graph_to_json", "graphs.json", ()),
    ("graphs", "channel", "graphs.channel", (("graphs.channel_calls", None),)),
    ("graphs", "channel_of", "graphs.channel", ()),
    ("graphs", "image", "graphs.image", (("graphs.image_calls", None),)),
    ("graphs", "check_commutative", "graphs.check", ()),
    ("maxflow", "FlowNetwork.max_flow", "maxflow.cut",
     (("maxflow.cuts", None), ("maxflow.arcs", _arcs))),
    ("maxflow", "FlowNetwork.residual_reaches_sink", "maxflow.residual", ()),
    ("magnification", "magnification_flow", "magnification.flow",
     (("magnification.flow_calls", None),)),
    ("magnification", "magnification_bruteforce", "magnification.bruteforce",
     (("magnification.bruteforce_calls", None),)),
    ("partition", "partition_graph", "partition.graph",
     (("partition.calls", None), ("partition.blocks", _blocks))),
    ("partition", "verify_partition", "partition.verify", ()),
    ("bounds", "bound_report", "bounds.report", ()),
    ("bounds", "pseudo_cardinality", "bounds.pseudo", (("bounds.pseudo_calls", None),)),
    ("bounds", "growth_commutative_bound", "bounds.growth", ()),
    ("bounds", "growth_general_bound", "bounds.growth", ()),
    ("bounds", "restricted_growth_check", "bounds.growth", ()),
    ("bounds", "large_subset_search", "bounds.subset",
     (("bounds.subsets_checked", _subsets),)),
    ("bounds", "restricted_sumset_check", "bounds.subset", ()),
    ("cli", "main", "cli.self", ()),
)
SUITE_CRITERIA = 11
SPANS = sorted({span for _, _, span, _ in TARGETS}
               | {f"suite.c{k}" for k in range(1, SUITE_CRITERIA + 1)})
FLOW_CUTS = "magnification.flow_cuts"  # cuts made inside magnification_flow


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_of = array("i")
        self.parent_of = array("i")
        self.job_of = array("i")
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._flow_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, span: str, counters):
        nid = self._name_ids.setdefault(span, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(span)
        stack, counts = self._stack, self.counts
        starts, ends = self.starts, self.ends
        is_flow, is_cut = span == "magnification.flow", span == "maxflow.cut"

        def wrapper(*args, **kwargs):
            idx = len(starts)
            self.name_of.append(nid)
            self.parent_of.append(stack[-1] if stack else -1)
            self.job_of.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            if is_flow:
                self._flow_depth += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                if is_flow:
                    self._flow_depth -= 1
            for name, amount in counters:
                counts[name] += 1 if amount is None else amount(args, kwargs, result)
            if is_cut and self._flow_depth:
                counts[FLOW_CUTS] += 1
            return result

        return wrapper

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "sumsetlab" or name.startswith("sumsetlab."))]
        for mod_name, qualname, span, counters in TARGETS:
            module = sys.modules.get(f"sumsetlab.{mod_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{qualname}")
                continue
            wrapper = self._wrap(fn, span, counters)
            if owner_name:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, name, wrapper)
        suite = sys.modules.get("sumsetlab.suite")
        criteria = getattr(suite, "CRITERIA", None)
        if criteria is None:
            self.absent.append("suite.CRITERIA")
        else:
            wrapped = tuple(self._wrap(fn, f"suite.c{k}", ()) for k, fn in enumerate(criteria, 1))
            self._patch(suite, "CRITERIA", wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, value = self._patched.pop()
            setattr(owner, name, value)

    # -- results --------------------------------------------------------------

    def self_times(self, first: int, last: int) -> tuple[dict[str, float], float]:
        """Self time per span name over spans [first, last), and the time
        covered by root spans."""
        starts, ends, parent_of = self.starts, self.ends, self.parent_of
        child = [0.0] * (last - first)
        for i in range(last - 1, first - 1, -1):
            p = parent_of[i]
            if p >= first:
                child[p - first] += ends[i] - starts[i]
        self_time: Counter = Counter()
        covered = 0.0
        for i in range(first, last):
            dur = ends[i] - starts[i]
            self_time[self.names[self.name_of[i]]] += dur - child[i - first]
            if parent_of[i] < 0:
                covered += dur
        return dict(self_time), covered

    def write(self, path: Path) -> None:
        """Save every span: a JSON header line, then the five arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.starts, self.ends, self.name_of, self.parent_of, self.job_of)
        header = {"names": self.names, "spans": len(self.starts),
                  "columns": ["start:f64", "end:f64", "name:i32", "parent:i32", "job:i32"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays:
                arr.tofile(fh)
