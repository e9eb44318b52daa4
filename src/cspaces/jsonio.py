"""JSON (de)serialization of spaces, points and paths.

Rationals travel as "p/q" strings; points as "v:NAME", "EDGE@p/q" or
"(P;Q)"; spaces as {"graph": {...}} or {"expr": {"op", "args", ...}};
paths as {"track": [...]} or {"start", "items"} documents.
"""

from __future__ import annotations

import json
from dataclasses import replace

from . import kinds as K
from .kinds import ALL, Family, Fragment
from .model import (ONE, PAUSE, ZERO, CanonicalPath, EdgePoint, ModelError,
                    Pause, ProdSeg, PTuple, RigidTrace, Seg, Track,
                    TraceStep, Vertex, assemble, rat, rat_str)
from .construct import hat
from .presentation import (Edge, ExcludeEndpoints, GraphPresentation,
                           HatProductN, Opposite, Product, ProductN, Quotient,
                           Subspace, Sum, _point_of_seg, canonicalize,
                           check_path_geometry, normalize, pos_point)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Points

def point_to_str(p) -> str:
    if isinstance(p, Vertex):
        return f"v:{p.name}"
    if isinstance(p, EdgePoint):
        return f"{p.edge}@{rat_str(p.t)}"
    if isinstance(p, PTuple):
        return f"({point_to_str(p.parts[0])};{point_to_str(p.parts[1])})"
    raise ModelError(f"cannot serialize point {p!r}")


def _split_pair(s: str):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == ";" and depth == 0:
            return s[:i], s[i + 1:]
    raise ModelError(f"bad product point {('(' + s + ')')!r}")


def point_from_str(s: str, space=None):
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        a, b = _split_pair(s[1:-1])
        lspace = rspace = None
        if space is not None:
            norm = normalize(space)
            if isinstance(norm, ProductN):
                lspace, rspace = norm.left, norm.right
            elif isinstance(norm, HatProductN):
                lspace, rspace = norm.left, norm.right
        return PTuple((point_from_str(a, lspace), point_from_str(b, rspace)))
    if s.startswith("v:"):
        return Vertex(s[2:])
    if "@" in s:
        edge, _, val = s.partition("@")
        t = rat(val)
        if t in (ZERO, ONE):
            if space is None:
                raise ModelError(
                    f"endpoint position {s!r} needs a space to resolve")
            norm = normalize(space)
            if not isinstance(norm, GraphPresentation):
                raise ModelError(f"cannot resolve {s!r} here")
            return pos_point(norm, edge, t)
        return EdgePoint(edge, t)
    raise ModelError(f"bad point syntax {s!r}")


# ---------------------------------------------------------------------------
# Kinds, families, traces

def _trace_to_json(tr: RigidTrace) -> dict:
    d = {"steps": [{"edge": s.edge, "from": rat_str(s.a), "to": rat_str(s.b)}
                   for s in tr.steps],
         "pauses": sorted(tr.pauses)}
    if tr.restriction_closed:
        d["closed"] = True
    return d


def _trace_from_json(d: dict) -> RigidTrace:
    steps = tuple(TraceStep(s["edge"], rat(s["from"]), rat(s["to"]))
                  for s in d.get("steps", ()))
    return RigidTrace(steps, frozenset(int(i) for i in d.get("pauses", ())),
                      bool(d.get("closed", False)))


def _fragment_to_json(f: Fragment) -> dict:
    return {"dir": f.dir, "lo": rat_str(f.lo), "hi": rat_str(f.hi),
            "lo_open": f.lo_open, "hi_open": f.hi_open,
            "start_not": sorted(rat_str(x) for x in f.start_not),
            "end_not": sorted(rat_str(x) for x in f.end_not)}


def _fragment_from_json(d: dict) -> Fragment:
    return Fragment(int(d["dir"]), rat(d.get("lo", "0/1")),
                    rat(d.get("hi", "1/1")),
                    bool(d.get("lo_open", False)), bool(d.get("hi_open", False)),
                    frozenset(rat(x) for x in d.get("start_not", ())),
                    frozenset(rat(x) for x in d.get("end_not", ())))


def _family_to_json(fam: Family) -> dict:
    return {"rigid": [_trace_to_json(t) for t in fam.rigid],
            "fragments": [_fragment_to_json(f) for f in fam.fragments],
            "flexible": ("all" if fam.flexible == ALL
                         else sorted(rat_str(x) for x in fam.flexible))}


def _family_from_json(d: dict) -> Family:
    flex = d.get("flexible", [])
    return Family(
        rigid=tuple(_trace_from_json(t) for t in d.get("rigid", ())),
        fragments=tuple(_fragment_from_json(f) for f in d.get("fragments", ())),
        flexible=ALL if flex == "all" else frozenset(rat(x) for x in flex))


def _kind_to_json(kind) -> tuple:
    if kind.name == "n_stop":
        return kind.name, {"n": kind.n}
    if kind.name == "custom":
        return kind.name, {"family": _family_to_json(kind.family)}
    return kind.name, {}


def _kind_from_json(name: str, params: dict):
    if name == "n_stop":
        return K.n_stop(int(params["n"]))
    if name == "custom":
        return K.custom(_family_from_json(params["family"]))
    return K.kind(name)


# ---------------------------------------------------------------------------
# Spaces

def _graph_to_json(g: GraphPresentation) -> dict:
    edges = []
    for e in g.edges:
        name, params = _kind_to_json(e.kind)
        ed = {"id": e.id, "from": e.src, "to": e.dst, "kind": name}
        if params:
            ed["params"] = params
        edges.append(ed)
    def pts(ps):
        return sorted(point_to_str(p) for p in ps)
    return {"vertices": sorted(g.vertices), "edges": edges,
            "generators": [_trace_to_json(t) for t in g.generators],
            "flexible": pts(g.flexible), "excluded": pts(g.excluded),
            "absorbing": pts(g.absorbing), "emitting": pts(g.emitting),
            "blocked": pts(g.blocked)}


def _graph_from_json(d: dict) -> GraphPresentation:
    edges = tuple(Edge(e["id"], e["from"], e["to"],
                       _kind_from_json(e["kind"], e.get("params", {})))
                  for e in d.get("edges", ()))
    g = GraphPresentation(
        vertices=frozenset(d.get("vertices", ())), edges=edges,
        generators=tuple(_trace_from_json(t) for t in d.get("generators", ())))
    def pts(key):
        return frozenset(point_from_str(s, g) for s in d.get(key, ()))
    return replace(g, flexible=pts("flexible"), excluded=pts("excluded"),
                   absorbing=pts("absorbing"), emitting=pts("emitting"),
                   blocked=pts("blocked"))


def space_to_json(space) -> dict:
    norm = normalize(space)
    if isinstance(norm, GraphPresentation):
        return {"graph": _graph_to_json(norm)}
    if isinstance(norm, ProductN):
        return {"expr": {"op": "product",
                         "args": [space_to_json(norm.left),
                                  space_to_json(norm.right)]}}
    if isinstance(norm, HatProductN):
        inner = {"expr": {"op": "product",
                          "args": [space_to_json(norm.left),
                                   space_to_json(norm.right)]}}
        return {"expr": {"op": "hat", "args": [inner]}}
    raise ModelError(f"cannot serialize {type(norm).__name__}")


def space_from_json(d: dict):
    if "graph" in d:
        return _graph_from_json(d["graph"])
    if "expr" in d:
        ex = d["expr"]
        op = ex.get("op")
        args = [space_from_json(a) for a in ex.get("args", ())]
        if op == "product":
            return Product(args[0], args[1])
        if op == "sum":
            return Sum(args[0], args[1])
        if op == "opposite":
            return Opposite(args[0])
        if op == "hat":
            return hat(args[0])
        if op == "quotient":
            classes = tuple(
                frozenset(point_from_str(p, args[0]) for p in cls)
                for cls in ex.get("classes", ()))
            return Quotient(args[0], classes)
        if op == "subspace":
            region = []
            for r in ex.get("region", ()):
                if isinstance(r, str):
                    region.append(point_from_str(r, args[0]))
                else:
                    region.append((r[0], rat(r[1]), rat(r[2])))
            return Subspace(args[0], tuple(region))
        if op == "exclude":
            pts = frozenset(point_from_str(p, args[0])
                            for p in ex.get("points", ()))
            return ExcludeEndpoints(args[0], pts)
        raise ModelError(f"unknown space op {op!r}")
    raise ModelError("space document needs a 'graph' or 'expr' key")


# ---------------------------------------------------------------------------
# Paths

def _seg_to_json(seg):
    if isinstance(seg, Seg):
        return {"edge": seg.edge, "from": rat_str(seg.a), "to": rat_str(seg.b),
                "dir": seg.dir}
    if isinstance(seg, ProdSeg):
        parts = []
        for part in seg.parts:
            if isinstance(part, (Seg, ProdSeg)):
                parts.append(_seg_to_json(part))
            else:
                parts.append({"stay": point_to_str(part)})
        return {"parts": parts}
    raise ModelError(f"cannot serialize segment {seg!r}")


def _seg_from_json(d: dict, space=None):
    if "parts" in d:
        parts = []
        factors = (None, None)
        if space is not None:
            norm = normalize(space)
            if isinstance(norm, (ProductN, HatProductN)):
                factors = (norm.left, norm.right)
        for part, fac in zip(d["parts"], factors):
            if "stay" in part:
                parts.append(point_from_str(part["stay"], fac))
            else:
                parts.append(_seg_from_json(part, fac))
        return ProdSeg(tuple(parts))
    return Seg(d["edge"], rat(d["from"]), rat(d["to"]))


def path_to_json(path: CanonicalPath) -> dict:
    items = []
    for item in path.items:
        if isinstance(item, Pause):
            items.append({"pause": True})
        else:
            items.append({"run": [_seg_to_json(s) for s in item.segs]})
    return {"start": point_to_str(path.start), "items": items,
            "end": point_to_str(path.end)}


def _atom_end(norm, atom):
    if isinstance(atom, Seg):
        if isinstance(norm, GraphPresentation):
            return pos_point(norm, atom.edge, atom.b)
        return None
    if isinstance(atom, ProdSeg):
        return _point_of_seg(norm, atom, ONE)
    return None


def path_from_json(d: dict, space):
    """Read a path document; returns a CanonicalPath."""
    norm = normalize(space)
    if "track" in d:
        pts = tuple((rat(row["t"]), point_from_str(row["at"], norm))
                    for row in d["track"])
        return canonicalize(Track(pts), norm)
    if "start" not in d:
        raise ModelError("path document needs 'track' or 'start'+'items'")
    start = point_from_str(d["start"], norm)
    atoms = []
    for item in d.get("items", ()):
        if item.get("pause"):
            atoms.append(PAUSE)
            continue
        for sd in item.get("run", ()):
            atoms.append(_seg_from_json(sd, norm))
    end = start
    for atom in reversed(atoms):
        e = _atom_end(norm, atom)
        if e is not None:
            end = e
            break
    if "end" in d:
        end = point_from_str(d["end"], norm)
    path = assemble(start, atoms, end)
    check_path_geometry(norm, path)
    return path
