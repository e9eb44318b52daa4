"""JSON (de)serialization of spaces, points and paths.

Rationals travel as "p/q" strings; points as "v:NAME", "EDGE@p/q" or
"(P;Q)"; spaces as {"graph": {...}} or {"expr": {"op", "args", ...}};
paths as {"track": [...]} or {"start", "items"} documents.
"""

from __future__ import annotations

import json
from dataclasses import replace

from . import kinds as K
from .kinds import LOOPS, Family, Fragment
from .model import (ONE, PAUSE, ZERO, CanonicalPath, EdgePoint, ModelError,
                    Pause, ProdSeg, PTuple, RigidTrace, Seg, Track,
                    TraceStep, Vertex, assemble, rat, rat_str)
from .construct import hat
from .membership import check_path_geometry
from .presentation import (Edge, ExcludeEndpoints, GraphPresentation,
                           Opposite, Product, ProductN, Quotient, Subspace,
                           Sum, _point_of_seg, canonicalize, edge_map,
                           normalize, pos_point)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Reading fields: a missing key or a value of the wrong JSON type is a
# ModelError naming its place in the document, e.g. "space.graph.edges[0]".

_REQUIRED = object()
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "true or false",
               type(None): "null"}


def _check(value, types: tuple, where: str):
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and bool not in types):
        want = " or ".join(_JSON_TYPES[t] for t in types)
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ModelError(f"{where} must be {want}, not {got}")
    return value


def _field(doc: dict, key: str, types: tuple, where: str,
           default=_REQUIRED):
    """doc[key], of one of `types`; `default` when the key is absent."""
    if key not in doc:
        if default is _REQUIRED:
            raise ModelError(f"{where} has no {key!r} key")
        return default
    return _check(doc[key], types, f"{where}.{key}")


def _items(doc: dict, key: str, types: tuple, where: str) -> list:
    """The array doc[key] (empty when absent), each item of `types`."""
    items = _field(doc, key, (list,), where, [])
    for i, item in enumerate(items):
        _check(item, types, f"{where}.{key}[{i}]")
    return items


def _rat(value, where: str):
    """A rational from a "p/q" string or an integer."""
    _check(value, (str, int), where)
    try:
        return rat(value)
    except ModelError as exc:
        raise ModelError(f"{where}: {exc}") from None


def _rat_field(doc: dict, key: str, where: str, default=_REQUIRED):
    value = _field(doc, key, (str, int), where, default)
    return value if value is default else _rat(value, f"{where}.{key}")


def _rats(doc: dict, key: str, where: str) -> frozenset:
    return frozenset(_rat(x, f"{where}.{key}[{i}]")
                     for i, x in enumerate(_field(doc, key, (list,), where, [])))


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
            if edge not in edge_map(norm):
                raise ModelError(f"unknown edge {edge!r} in {s!r}")
            return pos_point(norm, edge, t)
        return EdgePoint(edge, t)
    raise ModelError(f"bad point syntax {s!r}")


# ---------------------------------------------------------------------------
# Kinds, families, traces

def _trace_to_json(tr: RigidTrace) -> dict:
    return {"steps": [{"edge": s.edge, "from": rat_str(s.a), "to": rat_str(s.b)}
                      for s in tr.steps],
            "pauses": sorted(tr.pauses)}


def _trace_from_json(d: dict, where: str, carrier: str = None) -> RigidTrace:
    """A generator's trace, or with `carrier` one of the custom family of
    that edge: each of its steps must name the edge."""
    steps = []
    for i, s in enumerate(_items(d, "steps", (dict,), where)):
        at = f"{where}.steps[{i}]"
        edge = _field(s, "edge", (str,), at)
        if carrier not in (None, edge):
            raise ModelError(f"{at} is on edge {edge!r}, not on "
                             f"{carrier!r}, whose family it belongs to")
        steps.append(TraceStep(edge, _rat_field(s, "from", at),
                               _rat_field(s, "to", at)))
    return RigidTrace(tuple(steps),
                      frozenset(_items(d, "pauses", (int,), where)))


def _fragment_to_json(f: Fragment) -> dict:
    return {"dir": f.dir, "lo": rat_str(f.lo), "hi": rat_str(f.hi),
            "lo_open": f.lo_open, "hi_open": f.hi_open,
            "start_not": sorted(rat_str(x) for x in f.start_not),
            "end_not": sorted(rat_str(x) for x in f.end_not)}


def _fragment_from_json(d: dict, where: str) -> Fragment:
    args = (_field(d, "dir", (int,), where), _rat_field(d, "lo", where, ZERO),
            _rat_field(d, "hi", where, ONE),
            _field(d, "lo_open", (bool,), where, False),
            _field(d, "hi_open", (bool,), where, False),
            _rats(d, "start_not", where), _rats(d, "end_not", where))
    try:
        return Fragment(*args)
    except ModelError as exc:
        raise ModelError(f"{where}: {exc}") from None


def _family_to_json(fam: Family, edge: str) -> dict:
    """The family of a custom kind on `edge`, each rigid step naming it.
    ``LOOPS`` is written as "flexible": "all", closed one-point loop
    windows as a list of positions, and any other window as a fragment."""
    loops = [f for f in fam.fragments if f in (LOOPS, Fragment(0, f.lo, f.lo))]
    return {"rigid": [_trace_to_json(t.on(edge)) for t in fam.rigid],
            "fragments": [_fragment_to_json(f) for f in fam.fragments
                          if f not in loops],
            "flexible": ("all" if LOOPS in loops
                         else sorted(rat_str(f.lo) for f in loops))}


def _family_from_json(d: dict, where: str, edge: str) -> Family:
    flex = _field(d, "flexible", (str, list), where, [])
    if isinstance(flex, str) and flex != "all":
        raise ModelError(f"{where}.flexible must be \"all\" or an array")
    loops = (LOOPS,) if flex == "all" else tuple(
        Fragment(0, t, t) for t in sorted(_rats(d, "flexible", where)))
    return Family(
        rigid=tuple(_trace_from_json(t, f"{where}.rigid[{i}]", edge).on(None)
                    for i, t in enumerate(_items(d, "rigid", (dict,), where))),
        fragments=tuple(_fragment_from_json(f, f"{where}.fragments[{i}]")
                        for i, f in enumerate(
                            _items(d, "fragments", (dict,), where))) + loops)


def _kind_to_json(kind, edge: str) -> tuple:
    if kind.name == "n_stop":
        return kind.name, {"n": kind.n}
    if kind.name == "custom":
        return kind.name, {"family": _family_to_json(kind.family, edge)}
    return kind.name, {}


def _kind_from_json(name: str, params: dict, where: str, edge: str):
    if name == "n_stop":
        return K.n_stop(_field(params, "n", (int,), where))
    if name == "custom":
        return K.custom(_family_from_json(
            _field(params, "family", (dict,), where), f"{where}.family", edge))
    return K.kind(name)


# ---------------------------------------------------------------------------
# Spaces

def _graph_to_json(g: GraphPresentation) -> dict:
    edges = []
    for e in g.edges:
        name, params = _kind_to_json(e.kind, e.id)
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


def _graph_from_json(d: dict, where: str) -> GraphPresentation:
    edges = []
    for i, e in enumerate(_items(d, "edges", (dict,), where)):
        at = f"{where}.edges[{i}]"
        eid = _field(e, "id", (str,), at)
        edges.append(Edge(eid, _field(e, "from", (str,), at),
                          _field(e, "to", (str,), at),
                          _kind_from_json(_field(e, "kind", (str,), at),
                                          _field(e, "params", (dict,), at, {}),
                                          f"{at}.params", eid)))
    gens, closed = [], {e.id: [] for e in edges}
    for i, t in enumerate(_items(d, "generators", (dict,), where)):
        at = f"{where}.generators[{i}]"
        tr = _trace_from_json(t, at)
        if not _field(t, "closed", (bool,), at, False):
            gens.append(tr)
            continue
        # A closed generator (every sub-run of its steps, written by older
        # versions) generates the same paths as one window per step.
        for j, s in enumerate(tr.steps):
            if s.edge not in closed:
                raise ModelError(f"{at}.steps[{j}]: unknown edge {s.edge!r}")
            closed[s.edge].append((s.a, s.b))
    edges = [Edge(e.id, e.src, e.dst, K.kind_of(K.add_windows(
        K.kind_generators(e.kind), closed[e.id])))
        if closed[e.id] else e for e in edges]
    g = GraphPresentation(
        vertices=frozenset(_items(d, "vertices", (str,), where)),
        edges=tuple(edges), generators=tuple(gens))
    def pts(key):
        return frozenset(point_from_str(s, g)
                         for s in _items(d, key, (str,), where))
    return replace(g, flexible=pts("flexible"), excluded=pts("excluded"),
                   absorbing=pts("absorbing"), emitting=pts("emitting"),
                   blocked=pts("blocked"))


def space_to_json(space) -> dict:
    norm = normalize(space)
    if isinstance(norm, ProductN):
        return {"expr": {"op": "product",
                         "args": [space_to_json(norm.left),
                                  space_to_json(norm.right)]}}
    return {"graph": _graph_to_json(norm)}


_ARITY = {"product": 2, "sum": 2, "opposite": 1, "hat": 1, "quotient": 1,
          "subspace": 1, "exclude": 1}


def space_from_json(d: dict):
    return _space_from_json(d, "space")


def _space_from_json(d: dict, where: str):
    _check(d, (dict,), where)
    if "graph" in d:
        return _graph_from_json(_field(d, "graph", (dict,), where),
                                f"{where}.graph")
    if "expr" in d:
        at = f"{where}.expr"
        ex = _field(d, "expr", (dict,), where)
        op = _field(ex, "op", (str,), at)
        if op not in _ARITY:
            raise ModelError(f"unknown space op {op!r}")
        args = [_space_from_json(a, f"{at}.args[{i}]")
                for i, a in enumerate(_items(ex, "args", (dict,), at))]
        if len(args) != _ARITY[op]:
            raise ModelError(f"{at}.args must hold {_ARITY[op]} space(s) "
                             f"for {op!r}, not {len(args)}")
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
                frozenset(point_from_str(_check(p, (str,),
                                                f"{at}.classes[{i}][{j}]"),
                                         args[0]) for j, p in enumerate(cls))
                for i, cls in enumerate(_items(ex, "classes", (list,), at)))
            return Quotient(args[0], classes)
        if op == "subspace":
            region = []
            for i, r in enumerate(_items(ex, "region", (str, list), at)):
                if isinstance(r, str):
                    region.append(point_from_str(r, args[0]))
                    continue
                ri = f"{at}.region[{i}]"
                if len(r) != 3:
                    raise ModelError(f"{ri} must be a point or [edge, lo, hi]")
                region.append((_check(r[0], (str,), f"{ri}[0]"),
                               _rat(r[1], f"{ri}[1]"), _rat(r[2], f"{ri}[2]")))
            return Subspace(args[0], tuple(region))
        pts = frozenset(point_from_str(p, args[0])
                        for p in _items(ex, "points", (str,), at))
        return ExcludeEndpoints(args[0], pts)
    raise ModelError(f"{where} needs a 'graph' or 'expr' key")


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


def _seg_from_json(d: dict, where: str, space=None):
    if "parts" in d:
        parts = []
        factors = (None, None)
        if space is not None:
            norm = normalize(space)
            if isinstance(norm, ProductN):
                factors = (norm.left, norm.right)
        items = _items(d, "parts", (dict,), where)
        for i, (part, fac) in enumerate(zip(items, factors)):
            at = f"{where}.parts[{i}]"
            if "stay" in part:
                parts.append(point_from_str(_field(part, "stay", (str,), at),
                                            fac))
            else:
                parts.append(_seg_from_json(part, at, fac))
        return ProdSeg(tuple(parts))
    return Seg(_field(d, "edge", (str,), where), _rat_field(d, "from", where),
               _rat_field(d, "to", where))


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
    """Where a motion atom of the right sort for norm ends, else None (a
    pause, or a misplaced atom that the geometry check reports)."""
    if isinstance(norm, GraphPresentation):
        return pos_point(norm, atom.edge, atom.b) if isinstance(atom, Seg) else None
    return _point_of_seg(norm, atom, ONE) if isinstance(atom, ProdSeg) else None


def path_from_json(d: dict, space, check: bool = True):
    """Read a path document; returns a CanonicalPath.  With `check`, a
    path whose segments do not chain is a ModelError here; a caller that
    parses the path next may leave that to the parse, which raises the
    same error."""
    norm = normalize(space)
    _check(d, (dict,), "path")
    if "track" in d:
        pts = []
        for i, row in enumerate(_items(d, "track", (dict,), "path")):
            at = f"path.track[{i}]"
            pts.append((_rat_field(row, "t", at),
                        point_from_str(_field(row, "at", (str,), at), norm)))
        return canonicalize(Track(tuple(pts)), norm)
    if "start" not in d:
        raise ModelError("path document needs 'track' or 'start'+'items'")
    start = point_from_str(_field(d, "start", (str,), "path"), norm)
    atoms = []
    for i, item in enumerate(_items(d, "items", (dict,), "path")):
        at = f"path.items[{i}]"
        if _field(item, "pause", (bool,), at, False):
            atoms.append(PAUSE)
            continue
        for j, sd in enumerate(_items(item, "run", (dict,), at)):
            atoms.append(_seg_from_json(sd, f"{at}.run[{j}]", norm))
    end = start
    for atom in reversed(atoms):
        e = _atom_end(norm, atom)
        if e is not None:
            end = e
            break
    if "end" in d:
        end = point_from_str(_field(d, "end", (str,), "path"), norm)
    path = assemble(start, atoms, end)
    if check:
        check_path_geometry(norm, path)
    return path
