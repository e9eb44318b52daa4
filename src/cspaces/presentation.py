"""Graph presentations of controlled spaces and their normal forms.

A space is either a finite graph presentation (vertices, edges carrying
interval kinds, explicit rigid generators, point-level overrides) or an
expression built from presentations: binary products and sums,
quotients identifying vertices or anchor points, closed subspaces,
opposites and endpoint exclusions.  ``normalize`` reduces expressions
to a graph presentation where possible, or to a product of normal
forms; the membership/classification engines work on normal forms.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import NamedTuple

from . import kinds as K
from .kinds import ALL, EdgeKind, Family, Fragment
from .model import (ONE, PAUSE, ZERO, CanonicalPath, EdgePoint, ModelError,
                    Pause, Position, ProdSeg, PTuple, Rat, RigidTrace, Run,
                    Seg, Track, TraceStep, UnsupportedConstruction, Vertex,
                    assemble, concat, rat_str)


# ---------------------------------------------------------------------------
# Presentations and expressions

@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str
    kind: EdgeKind


@dataclass(frozen=True)
class GraphPresentation:
    """A finite graph presentation.

    Every field is immutable (frozensets and tuples of frozen values), so
    the hash cannot change after construction.  ``__hash__`` therefore
    computes it once and stores it on the instance, outside the dataclass
    fields: ``==``, ``repr`` and ``replace()`` never see it.  The engines
    look presentations up in caches many times per query.
    """
    vertices: frozenset
    edges: tuple  # of Edge
    generators: tuple = ()        # of RigidTrace
    flexible: frozenset = frozenset()   # extra flexible points
    excluded: frozenset = frozenset()   # no controlled path may end here
    absorbing: frozenset = frozenset()  # reachable only as a path's final point
    emitting: frozenset = frozenset()   # reachable only as a path's start point
    blocked: frozenset = frozenset()    # no controlled path may touch these

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # string hashes are salted per process: a pickled hash would be stale
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@dataclass(frozen=True)
class Product:
    left: object
    right: object


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Quotient:
    base: object
    classes: tuple  # of frozenset of Points (vertices or anchor points)


@dataclass(frozen=True)
class Subspace:
    base: object
    region: tuple  # of Vertex or (edge_id, lo, hi)


@dataclass(frozen=True)
class Opposite:
    base: object


@dataclass(frozen=True)
class ExcludeEndpoints:
    base: object
    points: frozenset


@dataclass(frozen=True)
class ProductN:
    """Normal form of a binary product."""
    left: object
    right: object


SpaceExpr = object  # any of the above


# ---------------------------------------------------------------------------
# Geometry helpers

@lru_cache(maxsize=None)
def edge_map(pres: GraphPresentation):
    return {e.id: e for e in pres.edges}


def edge_of(pres: GraphPresentation, edge: str) -> Edge:
    e = edge_map(pres).get(edge)
    if e is None:
        raise ModelError(f"unknown edge {edge!r}")
    return e


@lru_cache(maxsize=None)
def family(pres: GraphPresentation, edge: str) -> Family:
    return K.kind_generators(edge_of(pres, edge).kind, edge)


def pos_point(pres: GraphPresentation, edge: str, t: Rat):
    e = edge_map(pres).get(edge)  # not edge_of: this is a hot path
    if e is None:
        raise ModelError(f"unknown edge {edge!r}")
    if t == ZERO:
        return Vertex(e.src)
    if t == ONE:
        return Vertex(e.dst)
    return EdgePoint(edge, t)


def point_positions(pres: GraphPresentation, p):
    """All (edge, parameter) incarnations of a graph point."""
    if isinstance(p, EdgePoint):
        if p.edge not in edge_map(pres):
            raise ModelError(f"unknown edge {p.edge!r}")
        return [(p.edge, p.t)]
    if isinstance(p, Vertex):
        if p.name not in pres.vertices:
            raise ModelError(f"unknown vertex {p.name!r}")
        out = []
        for e in pres.edges:
            if e.src == p.name:
                out.append((e.id, ZERO))
            if e.dst == p.name:
                out.append((e.id, ONE))
        return out
    raise ModelError(f"not a point of this space: {p!r}")


def in_support(pres: GraphPresentation, p) -> bool:
    try:
        point_positions(pres, p)
        return True
    except ModelError:
        return False


def trace_start(pres: GraphPresentation, tr: RigidTrace):
    s = tr.steps[0]
    return pos_point(pres, s.edge, s.a)


def trace_end(pres: GraphPresentation, tr: RigidTrace):
    s = tr.steps[-1]
    return pos_point(pres, s.edge, s.b)


def _point_values_on_edge(pres: GraphPresentation, edge: str):
    vals = set()
    for pts in (pres.flexible, pres.excluded, pres.absorbing,
                pres.emitting, pres.blocked):
        for p in pts:
            if isinstance(p, EdgePoint) and p.edge == edge:
                vals.add(p.t)
    return vals


@lru_cache(maxsize=None)
def cuts(pres: GraphPresentation, edge: str) -> tuple:
    """Sorted positions at which parse boundaries can occur on an edge."""
    vals = {ZERO, ONE}
    fam = family(pres, edge)
    for tr in fam.rigid:
        for s in tr.steps:
            vals.add(s.a)
            vals.add(s.b)
    for f in fam.fragments:
        vals.update({f.lo, f.hi})
        vals.update(f.start_not)
        vals.update(f.end_not)
    if fam.flexible != ALL:
        vals.update(fam.flexible)
    for tr in pres.generators:
        for s in tr.steps:
            if s.edge == edge:
                vals.add(s.a)
                vals.add(s.b)
    vals.update(_point_values_on_edge(pres, edge))
    if len(fam.fragments) > 1:
        vals.update(_overlap_cuts(fam.fragments, vals))
    return tuple(sorted(vals))


def _overlap_cuts(frags, vals) -> set:
    """A cut inside each stretch between consecutive cut values where two
    windows of one direction overlap.

    A run across such an overlap may have to pass from one window to the
    other inside it, where no window end offers a cut (the windows [0, ½)
    and (¼, 1] join only strictly between ¼ and ½).  Every point of a
    stretch serves equally, since no window or constraint ends inside it.
    """
    out = set()
    for d in (1, -1):
        wins = [f for f in frags if f.dir == d]
        for n, f in enumerate(wins):
            for h in wins[n + 1:]:
                lo, hi = max(f.lo, h.lo), min(f.hi, h.hi)
                inner = sorted(v for v in vals if lo <= v <= hi)
                out.update((a + b) / 2 for a, b in zip(inner, inner[1:]))
    return out


@lru_cache(maxsize=None)
def bound_rigid(pres: GraphPresentation) -> tuple:
    """All rigid generator traces: the edges' and the presentation's."""
    out = []
    for e in pres.edges:
        out.extend(family(pres, e.id).rigid)
    out.extend(pres.generators)
    return tuple(out)


@lru_cache(maxsize=None)
def closed_traces(pres: GraphPresentation) -> tuple:
    # Nothing in the package calls this: the hat turns generator steps into
    # windows of their edges.  It stays only because perfbench/spans.py
    # wraps it by name and reads its cache_info().
    return ()


def flexible_point(pres: GraphPresentation, p) -> bool:
    """Is the trivial loop at p controlled?"""
    if p in pres.excluded or p in pres.blocked:
        return False
    if p in pres.flexible:
        return True
    for edge, t in point_positions(pres, p):
        fam = family(pres, edge)
        if fam.position_flexible(t) or fam.instance_end(t):
            return True
    return any(trace_start(pres, tr) == p or trace_end(pres, tr) == p
               for tr in pres.generators)


def is_flexible_point(space, x) -> bool:
    """Is the constant path at x controlled?"""
    norm = normalize(space)
    if isinstance(norm, ProductN):
        if not isinstance(x, PTuple):
            raise ModelError("product points must be pairs")
        return (is_flexible_point(norm.left, x.parts[0])
                and is_flexible_point(norm.right, x.parts[1]))
    return flexible_point(norm, x)


# ---------------------------------------------------------------------------
# Normalization

@lru_cache(maxsize=None)
def normalize(space):
    """Reduce a space expression to a graph presentation or a product of
    normal forms."""
    if isinstance(space, GraphPresentation):
        return space
    if isinstance(space, (Product, ProductN)):
        return ProductN(normalize(space.left), normalize(space.right))
    if isinstance(space, Sum):
        return _sum_normal(_as_graph(space.left, "sum"),
                           _as_graph(space.right, "sum"))
    if isinstance(space, Quotient):
        return _quotient_normal(_as_graph(space.base, "quotient"), space.classes)
    if isinstance(space, Subspace):
        return _subspace(_as_graph(space.base, "subspace"), space.region)[0]
    if isinstance(space, Opposite):
        inner = normalize(space.base)
        return _opposite_normal(inner)
    if isinstance(space, ExcludeEndpoints):
        base = _as_graph(space.base, "endpoint exclusion")
        for p in space.points:
            if not in_support(base, p):
                raise ModelError(f"excluded point {p!r} outside support")
        return replace(base, excluded=frozenset(base.excluded | space.points))
    raise UnsupportedConstruction(f"cannot normalize {type(space).__name__}")


def _as_graph(space, what: str) -> GraphPresentation:
    norm = normalize(space)
    if not isinstance(norm, GraphPresentation):
        raise UnsupportedConstruction(f"{what} needs a graph presentation base")
    return norm


def _sum_normal(l: GraphPresentation, r: GraphPresentation) -> GraphPresentation:
    if l.vertices & r.vertices or set(edge_map(l)) & set(edge_map(r)):
        raise ModelError("sum requires disjoint vertex and edge names")
    return GraphPresentation(
        vertices=frozenset(l.vertices | r.vertices),
        edges=l.edges + r.edges,
        generators=l.generators + r.generators,
        flexible=frozenset(l.flexible | r.flexible),
        excluded=frozenset(l.excluded | r.excluded),
        absorbing=frozenset(l.absorbing | r.absorbing),
        emitting=frozenset(l.emitting | r.emitting),
        blocked=frozenset(l.blocked | r.blocked))


def _remap_point(p, vmap):
    if isinstance(p, Vertex):
        return Vertex(vmap.get(p.name, p.name))
    return p


def _quotient_normal(g: GraphPresentation, classes) -> GraphPresentation:
    # identifications at anchor points cut their edges there first, all at once
    anchors = {}
    for cls in classes:
        for p in cls:
            if isinstance(p, EdgePoint):
                if p.edge not in edge_map(g):
                    raise ModelError(f"unknown edge {p.edge!r} in quotient class")
                anchors.setdefault(p.edge, set()).add(p.t)
            elif not isinstance(p, Vertex):
                raise UnsupportedConstruction(
                    "quotients may only identify vertices or anchor points")
    if anchors:
        region = [Vertex(v) for v in g.vertices]
        for e in g.edges:
            ends = [ZERO, *sorted(anchors.get(e.id, ())), ONE]
            region.extend((e.id, lo, hi) for lo, hi in zip(ends, ends[1:]))
        g, remap = _subspace(g, region)
        classes = tuple(frozenset(remap(p) or p for p in c) for c in classes)
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for cls in classes:
        names = sorted(p.name for p in cls)
        for name in names:
            if name not in parent:
                raise ModelError(f"unknown vertex {name!r} in quotient class")
        for name in names[1:]:
            a, b = find(names[0]), find(name)
            if a != b:
                parent[max(a, b)] = min(a, b)
    vmap = {v: find(v) for v in g.vertices}
    return GraphPresentation(
        vertices=frozenset(vmap.values()),
        edges=tuple(Edge(e.id, vmap[e.src], vmap[e.dst], e.kind) for e in g.edges),
        generators=g.generators,
        flexible=frozenset(_remap_point(p, vmap) for p in g.flexible),
        excluded=frozenset(_remap_point(p, vmap) for p in g.excluded),
        absorbing=frozenset(_remap_point(p, vmap) for p in g.absorbing),
        emitting=frozenset(_remap_point(p, vmap) for p in g.emitting),
        blocked=frozenset(_remap_point(p, vmap) for p in g.blocked))


def _rescale(v: Rat, lo: Rat, hi: Rat) -> Rat:
    return (v - lo) / (hi - lo)


def _sub_family(fam: Family, lo: Rat, hi: Rat, rigid: tuple) -> Family:
    """The fragments and flexible positions of `fam` on [lo, hi], rescaled
    to [0, 1], with the rigid traces `rigid` (already cut)."""
    frags = []
    for f in fam.fragments:
        wlo, whi = max(f.lo, lo), min(f.hi, hi)
        if wlo >= whi:
            continue
        frags.append(Fragment(
            f.dir, _rescale(wlo, lo, hi), _rescale(whi, lo, hi),
            lo_open=f.lo_open and wlo == f.lo,
            hi_open=f.hi_open and whi == f.hi,
            start_not=frozenset(_rescale(v, lo, hi) for v in f.start_not
                                if lo <= v <= hi),
            end_not=frozenset(_rescale(v, lo, hi) for v in f.end_not
                              if lo <= v <= hi)))
    flex = ALL if fam.flexible == ALL else frozenset(
        _rescale(v, lo, hi) for v in fam.flexible if lo <= v <= hi)
    return Family(rigid=rigid, fragments=tuple(frags), flexible=flex)


def _region_intervals(g: GraphPresentation, region):
    """(kept vertex names, {edge: sorted [(lo, hi)]}) of a subspace region.

    Raises ModelError on a vertex or edge that g lacks, on an interval
    outside 0 <= lo < hi <= 1 and on overlapping intervals; intervals of
    one edge may touch.
    """
    kept, intervals = set(), {}
    for part in region:
        if isinstance(part, Vertex):
            if part.name not in g.vertices:
                raise ModelError(f"unknown vertex {part.name!r} in region")
            kept.add(part.name)
            continue
        if not (isinstance(part, tuple) and len(part) == 3):
            raise ModelError(
                f"region part {part!r} is neither a vertex nor (edge, lo, hi)")
        eid, lo, hi = part
        if eid not in edge_map(g):
            raise ModelError(f"unknown edge {eid!r} in region")
        if not (ZERO <= lo < hi <= ONE):
            raise ModelError("region interval must satisfy 0 <= lo < hi <= 1")
        intervals.setdefault(eid, []).append((lo, hi))
    for eid, ivs in intervals.items():
        ivs.sort()
        for (_, b1), (a2, _) in zip(ivs, ivs[1:]):
            if a2 < b1:
                raise ModelError(f"overlapping region intervals on edge {eid!r}")
    return kept, intervals


class _Piece(NamedTuple):
    """The part [lo, hi] of an edge, as the edge `id` from `src` to `dst`."""
    lo: Rat
    hi: Rat
    id: str
    src: str
    dst: str

    def at(self, t: Rat):
        """The point at parameter t of the old edge, lo <= t <= hi."""
        s = _rescale(t, self.lo, self.hi)
        if s == ZERO:
            return Vertex(self.src)
        if s == ONE:
            return Vertex(self.dst)
        return EdgePoint(self.id, s)


def _cut_vertex(e: Edge, t: Rat) -> str:
    if t == ZERO:
        return e.src
    if t == ONE:
        return e.dst
    return f"{e.id}@{t.numerator}_{t.denominator}"


def _cut_trace(pieces: dict, tr: RigidTrace):
    """A trace on the pieces of its edges, each step cut where it crosses
    from one piece into the next, dwell marks renumbered.  None when part
    of the trace lies outside the pieces."""
    steps, at = [], []
    for s in tr.steps:
        at.append(len(steps))
        ps = pieces.get(s.edge, ())
        lo, hi = min(s.a, s.b), max(s.a, s.b)
        marks = sorted({s.a, s.b} | {x for p in ps for x in (p.lo, p.hi)
                                     if lo < x < hi}, reverse=s.dir < 0)
        for a, b in zip(marks, marks[1:]):
            p = next((p for p in ps if p.lo <= min(a, b) and max(a, b) <= p.hi),
                     None)
            if p is None:
                return None
            steps.append(TraceStep(p.id, _rescale(a, p.lo, p.hi),
                                   _rescale(b, p.lo, p.hi)))
    at.append(len(steps))
    return RigidTrace(tuple(steps), frozenset(at[i] for i in tr.pauses))


def _subspace(g: GraphPresentation, region):
    """The subspace of g on a region, and the map of g's points into it
    (None outside).

    This is the one rewrite that cuts edges.  An edge covered by [0, 1]
    stays whole; any other interval [lo, hi] becomes the edge
    ``e[lo..hi]``, and touching intervals meet at the vertex
    ``e@num_den``.  A rigid trace of the edge's family that lies in the
    region but crosses such a vertex moves onto the presentation.  Rigid
    traces that leave the region are dropped.
    """
    kept, intervals = _region_intervals(g, region)
    pieces = {}  # edge id -> [_Piece], sorted
    for e in g.edges:
        pieces[e.id] = [
            _Piece(lo, hi, e.id if (lo, hi) == (ZERO, ONE)
                   else f"{e.id}[{rat_str(lo)}..{rat_str(hi)}]",
                   _cut_vertex(e, lo), _cut_vertex(e, hi))
            for lo, hi in intervals.get(e.id, ())]
    edges, moved = [], []
    for e in g.edges:
        ps = pieces[e.id]
        kept.update(x for p in ps for x in (p.src, p.dst))
        if not ps:
            continue
        if ps[0].id == e.id:
            edges.append(e)
            continue
        fam = family(g, e.id)
        for p, q in zip(ps, ps[1:]):
            if p.hi == q.lo and any(f.lo < p.hi < f.hi
                                    and p.hi in f.start_not | f.end_not
                                    for f in fam.fragments):
                raise UnsupportedConstruction(
                    f"a fragment of edge {e.id!r} may not start or end at {p.hi}")
        own = {}
        for tr in fam.rigid:
            cut = _cut_trace(pieces, tr)
            if cut is None:
                continue
            ids = {s.edge for s in cut.steps}
            if len(ids) > 1:
                moved.append(cut)
            else:
                own.setdefault(ids.pop(), []).append(cut)
        for p in ps:
            sub = _sub_family(fam, p.lo, p.hi, tuple(own.get(p.id, ())))
            edges.append(Edge(p.id, p.src, p.dst, K.kind_of(sub, p.id)))
    gens = [cut for cut in (_cut_trace(pieces, tr) for tr in g.generators)
            if cut is not None]

    def remap(p):
        if isinstance(p, Vertex):
            return p if p.name in kept else None
        if isinstance(p, EdgePoint):
            for piece in pieces.get(p.edge, ()):
                if piece.lo <= p.t <= piece.hi:
                    return piece.at(p.t)
        return None

    def remap_set(pts):
        return frozenset(q for q in map(remap, pts) if q is not None)

    return GraphPresentation(
        vertices=frozenset(kept),
        edges=tuple(edges),
        generators=tuple(gens + moved),
        flexible=remap_set(g.flexible),
        excluded=remap_set(g.excluded),
        absorbing=remap_set(g.absorbing),
        emitting=remap_set(g.emitting),
        blocked=remap_set(g.blocked)), remap


def _opposite_normal(norm):
    if isinstance(norm, ProductN):
        return ProductN(_opposite_normal(norm.left), _opposite_normal(norm.right))
    edges = tuple(
        Edge(e.id, e.src, e.dst,
             K.kind_of(K.family_reversed(family(norm, e.id)), e.id))
        for e in norm.edges)
    return GraphPresentation(
        vertices=norm.vertices,
        edges=edges,
        generators=tuple(tr.reversed() for tr in norm.generators),
        flexible=norm.flexible,
        excluded=norm.excluded,
        absorbing=norm.emitting,
        emitting=norm.absorbing,
        blocked=norm.blocked)


# ---------------------------------------------------------------------------
# Validation

def validate(space) -> list:
    """Collect presentation-level violations; empty list means valid."""
    out = []
    try:
        _validate(space, out)
    except ModelError as exc:
        out.append(str(exc))
    return out


def _validate(space, out):
    if isinstance(space, GraphPresentation):
        _validate_graph(space, out)
    elif isinstance(space, (Product, ProductN)):
        _validate(space.left, out)
        _validate(space.right, out)
    elif isinstance(space, Sum):
        _validate(space.left, out)
        _validate(space.right, out)
        l, r = normalize(space.left), normalize(space.right)
        if isinstance(l, GraphPresentation) and isinstance(r, GraphPresentation):
            if l.vertices & r.vertices or set(edge_map(l)) & set(edge_map(r)):
                out.append("sum summands share vertex or edge names")
    elif isinstance(space, Quotient):
        _validate(space.base, out)
        base = normalize(space.base)
        for cls in space.classes:
            if len(cls) < 2:
                out.append("quotient class with fewer than two points")
            for p in cls:
                if not isinstance(p, (Vertex, EdgePoint)):
                    out.append(f"quotient class member {p!r} is not a graph point")
                elif isinstance(base, GraphPresentation) and not in_support(base, p):
                    out.append(f"quotient class member {p!r} outside support")
    elif isinstance(space, Subspace):
        _validate(space.base, out)
        base = normalize(space.base)
        if isinstance(base, GraphPresentation):
            try:
                _region_intervals(base, space.region)
            except ModelError as exc:
                out.append(str(exc))
    elif isinstance(space, Opposite):
        _validate(space.base, out)
    elif isinstance(space, ExcludeEndpoints):
        _validate(space.base, out)
        base = normalize(space.base)
        if isinstance(base, GraphPresentation):
            for p in space.points:
                if not in_support(base, p):
                    out.append(f"excluded point {p!r} outside support")
    else:
        out.append(f"unknown space expression {type(space).__name__}")


def _validate_graph(g: GraphPresentation, out):
    seen = set()
    for e in g.edges:
        if e.id in seen:
            out.append(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        for v in (e.src, e.dst):
            if v not in g.vertices:
                out.append(f"edge {e.id!r} endpoint {v!r} is not a vertex")
        for tr in K.kind_generators(e.kind, e.id).rigid:
            for s in tr.steps:
                if s.edge != e.id:
                    out.append(f"custom family of {e.id!r} references {s.edge!r}")
    for tr in g.generators:
        prev = None
        for s in tr.steps:
            if s.edge not in seen:
                out.append(f"generator step on unknown edge {s.edge!r}")
                prev = None
                continue
            for v in (s.a, s.b):
                if not (ZERO <= v <= ONE):
                    out.append(f"generator step parameter {v} outside [0,1]")
            here = pos_point(g, s.edge, s.a)
            if prev is not None and prev != here:
                out.append("generator steps are not consecutive")
            prev = pos_point(g, s.edge, s.b)
    for label, pts in (("flexible", g.flexible), ("excluded", g.excluded),
                       ("absorbing", g.absorbing), ("emitting", g.emitting),
                       ("blocked", g.blocked)):
        for p in pts:
            if not in_support(g, p):
                out.append(f"{label} point {p!r} outside support")
    if g.flexible & g.excluded:
        out.append("a point is both flexible-override and excluded")


# ---------------------------------------------------------------------------
# Tracks -> canonical paths

def _segs_between(pres: GraphPresentation, p, q):
    """Monotone single-edge motion from p to q, as a list of Segs."""
    if isinstance(p, EdgePoint) and isinstance(q, EdgePoint):
        if p.edge != q.edge:
            raise ModelError("track jumps between edges without a vertex breakpoint")
        return [Seg(p.edge, p.t, q.t)]
    if isinstance(p, EdgePoint) and isinstance(q, Vertex):
        e = edge_of(pres, p.edge)
        if q.name == e.src and q.name == e.dst:
            raise ModelError(f"ambiguous motion on loop edge {p.edge!r}; add a breakpoint")
        if q.name == e.src:
            return [Seg(p.edge, p.t, ZERO)]
        if q.name == e.dst:
            return [Seg(p.edge, p.t, ONE)]
        raise ModelError("track moves to a vertex off the current edge")
    if isinstance(p, Vertex) and isinstance(q, EdgePoint):
        return [s.reversed() for s in reversed(_segs_between(pres, q, p))]
    if isinstance(p, Vertex) and isinstance(q, Vertex):
        cands = [e for e in pres.edges
                 if {e.src, e.dst} == {p.name, q.name} and e.src != e.dst]
        if len(cands) != 1:
            raise ModelError(
                f"vertex-to-vertex move {p.name!r}->{q.name!r} needs a unique edge; "
                "add an interior breakpoint")
        e = cands[0]
        return [Seg(e.id, ZERO, ONE) if e.src == p.name else Seg(e.id, ONE, ZERO)]
    raise ModelError("track points must lie in the space")


def _part_motion(norm, p, q):
    """One factor's contribution to a product segment."""
    if p == q:
        return p  # stationary
    if isinstance(norm, ProductN):
        if not isinstance(p, PTuple) or not isinstance(q, PTuple):
            raise ModelError("product point expected")
        return ProdSeg((_part_motion(norm.left, p.parts[0], q.parts[0]),
                        _part_motion(norm.right, p.parts[1], q.parts[1])))
    segs = _segs_between(norm, p, q)
    if len(segs) != 1:
        raise ModelError("product track needs breakpoints at vertex crossings")
    return segs[0]


def canonicalize(path_or_track, space) -> CanonicalPath:
    """Canonical pause/run form of a track (or an already canonical path)."""
    norm = normalize(space)
    if isinstance(path_or_track, CanonicalPath):
        p = path_or_track
        atoms = []
        for item in p.items:
            atoms.append(PAUSE) if isinstance(item, Pause) else atoms.extend(item.segs)
        return assemble(p.start, atoms, p.end)
    track = path_or_track
    pts = [p for _, p in track.points]
    atoms = []
    for p, q in zip(pts, pts[1:]):
        if p == q:
            atoms.append(PAUSE)
        elif isinstance(norm, GraphPresentation):
            atoms.extend(_segs_between(norm, p, q))
        else:
            atoms.append(_part_motion(norm, p, q))
    return assemble(pts[0], atoms, pts[-1])


def project(path_or_track, space, index: int) -> CanonicalPath:
    """Project a path of a binary product onto factor 0 or 1."""
    norm = normalize(space)
    if not isinstance(norm, ProductN):
        raise ModelError("project needs a product space")
    factor = (norm.left, norm.right)[index]
    if isinstance(path_or_track, Track):
        pts = tuple((t, p.parts[index]) for t, p in path_or_track.points)
        return canonicalize(Track(pts), factor)
    path = path_or_track
    atoms = []
    for item in path.items:
        if isinstance(item, Pause):
            atoms.append(PAUSE)
            continue
        for seg in item.segs:
            if not isinstance(seg, ProdSeg):
                raise ModelError("not a product path")
            part = seg.parts[index]
            atoms.append(PAUSE if not isinstance(part, (Seg, ProdSeg)) else part)
    return assemble(path.start.parts[index], atoms, path.end.parts[index])


# ---------------------------------------------------------------------------
# Path surgery

def _point_of_seg(norm, seg, t):
    """The point at parameter t of a segment-like (t in edge coordinates for
    Seg, traversal fraction for ProdSeg)."""
    if isinstance(seg, Seg):
        return pos_point(norm, seg.edge, t)
    lam = t
    parts = []
    for sub, fnorm in zip(seg.parts, (norm.left, norm.right)):
        if isinstance(sub, Seg):
            parts.append(pos_point(fnorm, sub.edge, sub.a + (sub.b - sub.a) * lam))
        elif isinstance(sub, ProdSeg):
            parts.append(_point_of_seg(fnorm, sub, lam))
        else:
            parts.append(sub)
    return PTuple(tuple(parts))


def split_path(space, path: CanonicalPath, pos: Position):
    """Split a canonical path at a position; returns (left, right)."""
    norm = normalize(space)
    items = list(path.items)
    if pos.seg is None:
        if not (0 <= pos.item <= len(items)):
            raise ModelError("split position out of range")
        cut_pt = _boundary_point(norm, path, pos.item)
        left = assemble(path.start, items[:pos.item], cut_pt)
        right = assemble(cut_pt, items[pos.item:], path.end)
        return left, right
    run = items[pos.item]
    if not isinstance(run, Run):
        raise ModelError("segment split position must address a run")
    seg = run.segs[pos.seg]
    if isinstance(seg, Seg):
        if not (min(seg.a, seg.b) <= pos.t <= max(seg.a, seg.b)):
            raise ModelError("split parameter outside segment")
        cut_pt = pos_point(norm, seg.edge, pos.t)
        lsegs = list(run.segs[:pos.seg]) + ([Seg(seg.edge, seg.a, pos.t)]
                                            if pos.t != seg.a else [])
        rsegs = ([Seg(seg.edge, pos.t, seg.b)] if pos.t != seg.b else []) \
            + list(run.segs[pos.seg + 1:])
    else:
        if not (ZERO <= pos.t <= ONE):
            raise ModelError("product split parameter is a traversal fraction in [0,1]")
        cut_pt = _point_of_seg(norm, seg, pos.t)
        lsegs = list(run.segs[:pos.seg]) + ([_clip_prodseg(seg, ZERO, pos.t)]
                                            if pos.t != ZERO else [])
        rsegs = ([_clip_prodseg(seg, pos.t, ONE)] if pos.t != ONE else []) \
            + list(run.segs[pos.seg + 1:])
    left = assemble(path.start, items[:pos.item] + lsegs, cut_pt)
    right = assemble(cut_pt, rsegs + items[pos.item + 1:], path.end)
    return left, right


def _clip_prodseg(seg: ProdSeg, lo: Rat, hi: Rat) -> ProdSeg:
    parts = []
    for sub in seg.parts:
        if isinstance(sub, Seg):
            parts.append(Seg(sub.edge, sub.a + (sub.b - sub.a) * lo,
                             sub.a + (sub.b - sub.a) * hi))
        elif isinstance(sub, ProdSeg):
            parts.append(_clip_prodseg(sub, lo, hi))
        else:
            parts.append(sub)
    return ProdSeg(tuple(parts))


def _boundary_point(norm, path: CanonicalPath, item: int):
    cur = path.start
    for it in path.items[:item]:
        if isinstance(it, Run):
            seg = it.segs[-1]
            cur = (_point_of_seg(norm, seg, seg.b) if isinstance(seg, Seg)
                   else _point_of_seg(norm, seg, ONE))
    return cur


def insert_pause(space, path: CanonicalPath, pos: Position) -> CanonicalPath:
    left, right = split_path(space, path, pos)
    mid = assemble(left.end, [PAUSE], left.end)
    return concat(concat(left, mid), right)


def trace_path(pres: GraphPresentation, tr: RigidTrace) -> CanonicalPath:
    """The canonical path of one standard traversal of a rigid trace."""
    atoms = []
    for i, step in enumerate(tr.steps):
        if i in tr.pauses:
            atoms.append(PAUSE)
        atoms.append(Seg(step.edge, step.a, step.b))
    if len(tr.steps) in tr.pauses:
        atoms.append(PAUSE)
    return assemble(trace_start(pres, tr), atoms, trace_end(pres, tr))


def check_path_geometry(space, path: CanonicalPath):
    """Raise if the path's segments do not chain together in the space."""
    norm = normalize(space)
    cur = path.start
    for item in path.items:
        if isinstance(item, Pause):
            continue
        for seg in item.segs:
            if isinstance(seg, Seg):
                if not isinstance(norm, GraphPresentation):
                    raise ModelError("graph segment in a product path")
                here = pos_point(norm, seg.edge, seg.a)
                if here != cur:
                    raise ModelError(f"path breaks at {cur!r} -> {here!r}")
                cur = pos_point(norm, seg.edge, seg.b)
            else:
                here = _point_of_seg(norm, seg, ZERO)
                if here != cur:
                    raise ModelError(f"path breaks at {cur!r} -> {here!r}")
                cur = _point_of_seg(norm, seg, ONE)
    if cur != path.end:
        raise ModelError("path end point mismatch")
