"""Span recorder for the traced run, installed from outside the engine.

``install`` wraps the public functions listed in ``TARGETS`` and rebinds
each name in every ``cspaces`` module that holds it (including values
of module-level dicts, such as the CLI's transform table).  Each call
records a span (name, start, end, parent span) in flat arrays, so a run
of millions of calls stays compact; ``dump`` writes them out once at
the end and ``analyse`` turns span files into per-layer metrics.  Self
time is a span's duration minus the time its child spans cover.  Spans
are timed in CPU time of the process, like the end-to-end metrics.

Spans recorded before ``end_setup`` belong to the workload's set-up:
they count only towards ``corpus.build.self_ms``, which is per call and
tied to ``setup_s``; every per-operation metric uses the spans of timed
operations alone.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# module -> public functions to wrap; "Class.method" wraps a method.
TARGETS = {
    "model": ("assemble",),
    "kinds": ("kind_generators",),
    "presentation": ("edge_map", "family", "cuts", "bound_rigid",
                     "closed_traces", "normalize", "canonicalize"),
    "membership": ("graph_parse", "parse_controlled", "explode"),
    "reach": ("transitions", "c_reachable", "d_reachable", "unavoidable_point",
              "exists_c_from", "exists_c_to", "exists_c_through",
              "ReachRelation.pairs"),
    "classify": ("classify_point", "is_rigid_path", "is_flexible_path",
                 "is_splittable"),
    "construct": ("hat", "flexible_part", "product", "quotient_identify",
                  "subspace", "opposite", "reversible_closure",
                  "exclude_endpoints", "is_finer"),
    "jsonio": ("space_from_json", "path_from_json", "point_from_str",
               "space_to_json", "path_to_json", "dumps"),
    "cli": ("main",),
    "corpus": ("build",),
}

# Calls whose result length is summed into a counter.
COUNTERS = {"membership.explode": "membership.tokens",
            "reach.transitions": "reach.transitions.count"}

# Layer groups: metric prefix -> span names.
GROUPS = {
    "presentation.lookup": ("presentation.edge_map", "presentation.family",
                            "presentation.cuts", "presentation.bound_rigid",
                            "presentation.closed_traces"),
    "presentation.normalize": ("presentation.normalize",),
    "presentation.canonicalize": ("presentation.canonicalize",),
    "kinds.kind_generators": ("kinds.kind_generators",),
    "model.assemble": ("model.assemble",),
    "membership.parse": ("membership.graph_parse",),
    "membership.parse_controlled": ("membership.parse_controlled",),
    "membership.explode": ("membership.explode",),
    "reach.transitions": ("reach.transitions",),
    "reach.query": ("reach.c_reachable", "reach.d_reachable",
                    "reach.unavoidable_point"),
    "reach.exists": ("reach.exists_c_from", "reach.exists_c_to",
                     "reach.exists_c_through"),
    "reach.pairs": ("reach.ReachRelation.pairs",),
    "classify.classify_point": ("classify.classify_point",),
    "classify.path": ("classify.is_rigid_path", "classify.is_flexible_path",
                      "classify.is_splittable"),
    "construct.hat": ("construct.hat",),
    "construct.flexible_part": ("construct.flexible_part",),
    "construct.other": tuple(f"construct.{f}" for f in TARGETS["construct"]
                             if f not in ("hat", "flexible_part")),
    "jsonio.read": ("jsonio.space_from_json", "jsonio.path_from_json",
                    "jsonio.point_from_str"),
    "jsonio.write": ("jsonio.space_to_json", "jsonio.path_to_json",
                     "jsonio.dumps"),
    "cli.main": ("cli.main",),
}

# Per-layer metrics: name -> (unit, better).  Times and counts are per
# timed operation of the traced run, so runs of different length compare.
PER_OP_CALLS = ("presentation.lookup", "kinds.kind_generators",
                "model.assemble", "membership.parse", "reach.transitions")
PER_OP_SELF = ("presentation.lookup", "presentation.normalize",
               "presentation.canonicalize", "model.assemble",
               "membership.parse", "membership.parse_controlled",
               "membership.explode", "reach.transitions", "reach.query",
               "reach.exists", "reach.pairs", "classify.classify_point",
               "classify.path", "construct.hat", "construct.flexible_part",
               "construct.other", "jsonio.read", "jsonio.write", "cli.main")


def metric_units():
    out = {}
    for g in PER_OP_CALLS:
        out[f"{g}.calls"] = ("1/op", "lower")
    for g in PER_OP_SELF:
        out[f"{g}.self_ms"] = ("ms/op", "lower")
    out["membership.tokens"] = ("1/op", "lower")
    out["reach.transitions.count"] = ("1/op", "lower")
    for layer in ("presentation", "reach"):
        out[f"{layer}.cache_entries"] = ("count", "lower")
        out[f"{layer}.cache_hit_ratio"] = ("ratio", "higher")
    out["corpus.build.self_ms"] = ("ms/call", "lower")
    out["cli.import_ms"] = ("ms/call", "lower")
    out["cli.process_ms"] = ("ms/call", "lower")
    out["trace.overhead_ms"] = ("ms/op", "lower")
    return out


# lru caches read at the end of a run: layer -> (module, function).
CACHES = {"presentation": [("presentation", f) for f in
                           ("edge_map", "family", "cuts", "bound_rigid",
                            "closed_traces", "normalize")],
          "reach": [("reach", "transitions")]}


class Recorder:
    """Spans in flat arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names = []
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = {c: 0 for c in COUNTERS.values()}
        self.on = True
        self.setup_end = 0
        self.originals = {}

    def __len__(self):
        return len(self.start)

    def end_setup(self):
        """Mark the spans so far as set-up, and restart the counters."""
        self.setup_end = len(self.start)
        for c in self.counts:
            self.counts[c] = 0

    def wrap(self, name, fn):
        sid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        sids, parents, starts, ends = self.sid, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.process_time

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(starts)
            sids.append(sid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[counter] += len(result)
            return result

        return traced

    def install(self):
        """Wrap every target and rebind it wherever ``cspaces`` holds it,
        including values of module-level dicts such as the CLI's table of
        transforms."""
        wrapped = {}  # id(original) -> wrapper; originals stay referenced
        for mod, funcs in TARGETS.items():
            module = importlib.import_module(f"cspaces.{mod}")
            for func in funcs:
                if "." in func:
                    cls, attr = func.split(".")
                    owner = getattr(module, cls)
                    setattr(owner, attr,
                            self.wrap(f"{mod}.{func}", owner.__dict__[attr]))
                    continue
                fn = getattr(module, func)
                self.originals[f"{mod}.{func}"] = fn
                wrapped[id(fn)] = self.wrap(f"{mod}.{func}", fn)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "cspaces":
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            value[key] = wrapped[id(item)]

    def cache_stats(self):
        """Per layer: (entries, hits, misses) from the lru caches."""
        out = {}
        for layer, funcs in CACHES.items():
            entries = hits = misses = 0
            for mod, func in funcs:
                info = self.originals[f"{mod}.{func}"].cache_info()
                entries += info.currsize
                hits += info.hits
                misses += info.misses
            out[layer] = (entries, hits, misses)
        return out

    def dump(self, path, extra):
        """Write the spans and run facts: one JSON header line, then the
        four arrays as raw machine bytes."""
        self.on = False
        header = {"names": self.names, "n": len(self.start),
                  "setup_end": self.setup_end, "counts": self.counts, "caches": self.cache_stats()}
        header.update(extra)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.sid, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def self_times(names, sid, parent, start, end, first=0):
    """Total self time (s) and call count per span name, over the spans
    from index ``first`` on."""
    n = len(start)
    covered = array("d", bytes(8 * n))
    for i in range(first, n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    total = {name: 0.0 for name in names}
    calls = {name: 0 for name in names}
    for i in range(first, n):
        name = names[sid[i]]
        total[name] += end[i] - start[i] - covered[i]
        calls[name] += 1
    return total, calls


def analyse(span_files, ops, overhead_ms_per_op, cli_calls=()):
    """Per-layer metrics from span files of one traced run.

    ``cli_calls`` holds (latency_s, in_process_s, import_s) per CLI call."""
    self_s, calls, counts = {}, {}, {}
    build_s = builds = 0
    caches = {layer: [0, 0, 0] for layer in CACHES}
    for path in span_files:
        header, arrays = load(path)
        setup_end = header["setup_end"]
        total, n = self_times(header["names"], *arrays, first=setup_end)
        for name, v in total.items():
            self_s[name] = self_s.get(name, 0.0) + v
            calls[name] = calls.get(name, 0) + n[name]
        build_s += total["corpus.build"]
        builds += n["corpus.build"]
        if setup_end:
            total, n = self_times(header["names"], *(a[:setup_end] for a in arrays))
            build_s += total["corpus.build"]
            builds += n["corpus.build"]
        for c, v in header["counts"].items():
            counts[c] = counts.get(c, 0) + v
        for layer, (entries, hits, misses) in header["caches"].items():
            caches[layer][0] = max(caches[layer][0], entries)
            caches[layer][1] += hits
            caches[layer][2] += misses

    def group(g, table):
        return sum(table.get(name, 0) for name in GROUPS[g])

    ops = max(ops, 1)
    out = {}
    for g in PER_OP_CALLS:
        out[f"{g}.calls"] = group(g, calls) / ops
    for g in PER_OP_SELF:
        out[f"{g}.self_ms"] = group(g, self_s) * 1000 / ops
    for c, v in counts.items():
        out[c] = v / ops
    for layer, (entries, hits, misses) in caches.items():
        out[f"{layer}.cache_entries"] = entries
        out[f"{layer}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["corpus.build.self_ms"] = build_s * 1000 / builds if builds else 0.0
    if cli_calls:
        out["cli.import_ms"] = 1000 * sum(c[2] for c in cli_calls) / len(cli_calls)
        out["cli.process_ms"] = 1000 * sum(c[0] - c[1] for c in cli_calls) / len(cli_calls)
    else:
        out["cli.import_ms"] = out["cli.process_ms"] = 0.0
    out["trace.overhead_ms"] = overhead_ms_per_op
    return out
