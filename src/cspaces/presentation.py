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
    generators: tuple = ()        # of RigidTrace (may be restriction_closed)
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


@dataclass(frozen=True)
class HatProductN:
    """Generated d-space of a product of graph presentations.

    Keeps the original factors (whose rigid generators constrain the
    diagonal moves) and their generated d-space presentations (which
    govern moves with one coordinate at rest).
    """
    left: GraphPresentation
    right: GraphPresentation
    hat_left: GraphPresentation
    hat_right: GraphPresentation


SpaceExpr = object  # any of the above


# ---------------------------------------------------------------------------
# Geometry helpers

@lru_cache(maxsize=None)
def edge_map(pres: GraphPresentation):
    return {e.id: e for e in pres.edges}


@lru_cache(maxsize=None)
def family(pres: GraphPresentation, edge: str) -> Family:
    return K.kind_generators(edge_map(pres)[edge].kind, edge)


def pos_point(pres: GraphPresentation, edge: str, t: Rat):
    e = edge_map(pres)[edge]
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
    return tuple(sorted(vals))


@lru_cache(maxsize=None)
def bound_rigid(pres: GraphPresentation) -> tuple:
    """All rigid (non-restriction-closed) generator traces."""
    out = []
    for e in pres.edges:
        out.extend(family(pres, e.id).rigid)
    out.extend(tr for tr in pres.generators if not tr.restriction_closed)
    return tuple(out)


@lru_cache(maxsize=None)
def closed_traces(pres: GraphPresentation) -> tuple:
    return tuple(tr for tr in pres.generators if tr.restriction_closed)


def point_on_step(step: TraceStep, edge: str, t: Rat) -> bool:
    return step.edge == edge and min(step.a, step.b) <= t <= max(step.a, step.b)


def flexible_point(pres: GraphPresentation, p) -> bool:
    """Is the trivial loop at p controlled?"""
    if p in pres.excluded or p in pres.blocked:
        return False
    if p in pres.flexible:
        return True
    positions = point_positions(pres, p)
    for edge, t in positions:
        if family(pres, edge).position_flexible(t):
            return True
    for tr in pres.generators:
        if trace_start(pres, tr) == p or trace_end(pres, tr) == p:
            return True
        if tr.restriction_closed:
            for edge, t in positions:
                if any(point_on_step(s, edge, t) for s in tr.steps):
                    return True
    return False


# ---------------------------------------------------------------------------
# Normalization

@lru_cache(maxsize=None)
def normalize(space):
    """Reduce a space expression to a graph presentation or (hat-)product."""
    if isinstance(space, (GraphPresentation, ProductN, HatProductN)):
        if isinstance(space, ProductN):
            return ProductN(normalize(space.left), normalize(space.right))
        return space
    if isinstance(space, Product):
        return ProductN(normalize(space.left), normalize(space.right))
    if isinstance(space, Sum):
        return _sum_normal(_as_graph(space.left, "sum"),
                           _as_graph(space.right, "sum"))
    if isinstance(space, Quotient):
        return _quotient_normal(_as_graph(space.base, "quotient"), space.classes)
    if isinstance(space, Subspace):
        return _subspace_normal(_as_graph(space.base, "subspace"), space.region)
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
    # identifications at anchor points require splitting the edge first
    for cls in classes:
        for p in cls:
            if isinstance(p, EdgePoint):
                g, repl = _split_edge(g, p.edge, p.t)
                classes = tuple(frozenset(repl.get(q, q) for q in c) for c in classes)
            elif not isinstance(p, Vertex):
                raise UnsupportedConstruction(
                    "quotients may only identify vertices or anchor points")
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


def _split_edge(g: GraphPresentation, edge: str, t: Rat):
    """Split an edge at an interior anchor; returns (graph, point remapping)."""
    e = edge_map(g)[edge]
    if not (ZERO < t < ONE):
        raise ModelError("split position must be interior")
    name = e.kind.name
    mid = f"{edge}@{t.numerator}_{t.denominator}"
    lid, rid = f"{edge}.l", f"{edge}.r"
    if name in ("natural", "directed", "still", "discrete_c"):
        lkind = rkind = e.kind
    elif name == "n_stop":
        k = t * e.kind.n
        if k.denominator != 1:
            raise UnsupportedConstruction("n_stop edges split only at anchors")
        k = int(k)
        if not (0 < k < e.kind.n):
            raise ModelError("split position out of range")
        lkind = K.n_stop(k) if k > 1 else K.ONE_JUMP
        rkind = K.n_stop(e.kind.n - k) if e.kind.n - k > 1 else K.ONE_JUMP
    else:
        raise UnsupportedConstruction(f"cannot split an edge of kind {name!r}")

    def remap_t(s: Rat):
        if s < t:
            return (lid, s / t)
        if s > t:
            return (rid, (s - t) / (ONE - t))
        return (None, None)  # the split point itself

    def remap_point(p):
        if isinstance(p, EdgePoint) and p.edge == edge:
            ne, ns = remap_t(p.t)
            if ne is None:
                return Vertex(mid)
            return pos_point_raw(ne, ns, e.src if ne == lid else mid,
                                 mid if ne == lid else e.dst)
        return p

    def pos_point_raw(eid, s, src, dst):
        if s == ZERO:
            return Vertex(src)
        if s == ONE:
            return Vertex(dst)
        return EdgePoint(eid, s)

    gens = []
    for tr in g.generators:
        steps = []
        for s in tr.steps:
            if s.edge != edge:
                steps.append(s)
                continue
            if min(s.a, s.b) < t < max(s.a, s.b):
                pieces = [(s.a, t), (t, s.b)]
            else:
                pieces = [(s.a, s.b)]
            for a, b in pieces:
                sub = sorted((a, b))
                if sub[1] <= t:
                    steps.append(TraceStep(lid, a / t, b / t))
                else:
                    steps.append(TraceStep(rid, (a - t) / (ONE - t), (b - t) / (ONE - t)))
        if tr.pauses and len(steps) != len(tr.steps):
            raise UnsupportedConstruction("cannot split a trace with dwell marks")
        gens.append(RigidTrace(tuple(steps), tr.pauses, tr.restriction_closed))

    edges = tuple(x for e2 in g.edges for x in
                  ((Edge(lid, e.src, mid, lkind), Edge(rid, mid, e.dst, rkind))
                   if e2.id == edge else (e2,)))
    repl = {}
    for pts in (g.flexible, g.excluded, g.absorbing, g.emitting, g.blocked):
        for p in pts:
            repl[p] = remap_point(p)
    out = GraphPresentation(
        vertices=frozenset(g.vertices | {mid}),
        edges=edges,
        generators=tuple(gens),
        flexible=frozenset(remap_point(p) for p in g.flexible),
        excluded=frozenset(remap_point(p) for p in g.excluded),
        absorbing=frozenset(remap_point(p) for p in g.absorbing),
        emitting=frozenset(remap_point(p) for p in g.emitting),
        blocked=frozenset(remap_point(p) for p in g.blocked))
    repl[EdgePoint(edge, t)] = Vertex(mid)
    return out, repl


def _rescale(v: Rat, lo: Rat, hi: Rat) -> Rat:
    return (v - lo) / (hi - lo)


def _sub_family(fam: Family, lo: Rat, hi: Rat) -> Family:
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
    rigid = []
    for tr in fam.rigid:
        ok = all(lo <= min(s.a, s.b) and max(s.a, s.b) <= hi for s in tr.steps)
        if ok:
            steps = tuple(TraceStep(s.edge, _rescale(s.a, lo, hi),
                                    _rescale(s.b, lo, hi)) for s in tr.steps)
            rigid.append(RigidTrace(steps, tr.pauses, tr.restriction_closed))
    flex = ALL if fam.flexible == ALL else frozenset(
        _rescale(v, lo, hi) for v in fam.flexible if lo <= v <= hi)
    return Family(rigid=tuple(rigid), fragments=tuple(frags), flexible=flex)


def _rebind_family_edge(fam: Family, new_edge: str) -> Family:
    def rebind(tr):
        return RigidTrace(tuple(TraceStep(new_edge, s.a, s.b) for s in tr.steps),
                          tr.pauses, tr.restriction_closed)
    return Family(rigid=tuple(rebind(t) for t in fam.rigid),
                  fragments=fam.fragments, flexible=fam.flexible)


def _subspace_normal(g: GraphPresentation, region) -> GraphPresentation:
    kept_vertices = set()
    intervals = {}
    for part in region:
        if isinstance(part, Vertex):
            if part.name not in g.vertices:
                raise ModelError(f"unknown vertex {part.name!r} in region")
            kept_vertices.add(part.name)
        else:
            eid, lo, hi = part
            if eid not in edge_map(g):
                raise ModelError(f"unknown edge {eid!r} in region")
            if not (ZERO <= lo < hi <= ONE):
                raise ModelError("region interval must satisfy 0 <= lo < hi <= 1")
            intervals.setdefault(eid, []).append((lo, hi))
    for eid, ivs in intervals.items():
        ivs.sort()
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            if a2 < b1:
                raise ModelError(f"overlapping region intervals on edge {eid!r}")

    edges, pmap_edges = [], {}  # pmap: (edge) -> list of (lo, hi, new_id, src, dst)
    for e in g.edges:
        for lo, hi in intervals.get(e.id, []):
            if (lo, hi) == (ZERO, ONE):
                edges.append(e)
                pmap_edges.setdefault(e.id, []).append((lo, hi, e.id, e.src, e.dst))
                kept_vertices.update({e.src, e.dst})
                continue
            nid = f"{e.id}[{rat_str(lo)}..{rat_str(hi)}]"
            src = e.src if lo == ZERO else f"{e.id}@{lo.numerator}_{lo.denominator}"
            dst = e.dst if hi == ONE else f"{e.id}@{hi.numerator}_{hi.denominator}"
            sub = _rebind_family_edge(_sub_family(family(g, e.id), lo, hi), nid)
            edges.append(Edge(nid, src, dst, K.custom(sub)))
            pmap_edges.setdefault(e.id, []).append((lo, hi, nid, src, dst))
            kept_vertices.update({src, dst})

    def remap(p):
        """Map an ambient point into the subspace, or None if outside."""
        if isinstance(p, Vertex):
            return p if p.name in kept_vertices else None
        if isinstance(p, EdgePoint):
            for lo, hi, nid, src, dst in pmap_edges.get(p.edge, []):
                if lo <= p.t <= hi:
                    s = _rescale(p.t, lo, hi)
                    if s == ZERO:
                        return Vertex(src)
                    if s == ONE:
                        return Vertex(dst)
                    return EdgePoint(nid, s)
        return None

    gens = []
    for tr in g.generators:
        steps = []
        ok = True
        for s in tr.steps:
            hit = None
            for lo, hi, nid, _, _ in pmap_edges.get(s.edge, []):
                if lo <= min(s.a, s.b) and max(s.a, s.b) <= hi:
                    hit = TraceStep(nid, _rescale(s.a, lo, hi), _rescale(s.b, lo, hi))
                    break
            if hit is None:
                ok = False
                break
            steps.append(hit)
        if ok:
            gens.append(RigidTrace(tuple(steps), tr.pauses, tr.restriction_closed))

    def remap_set(pts):
        return frozenset(q for q in (remap(p) for p in pts) if q is not None)

    return GraphPresentation(
        vertices=frozenset(kept_vertices),
        edges=tuple(edges),
        generators=tuple(gens),
        flexible=remap_set(g.flexible),
        excluded=remap_set(g.excluded),
        absorbing=remap_set(g.absorbing),
        emitting=remap_set(g.emitting),
        blocked=remap_set(g.blocked))


_SELF_DUAL_KINDS = {"natural", "still", "discrete_c", "reversible_one_jump"}


def _opposite_normal(norm):
    if isinstance(norm, ProductN):
        return ProductN(_opposite_normal(norm.left), _opposite_normal(norm.right))
    if not isinstance(norm, GraphPresentation):
        raise UnsupportedConstruction("opposite of this construction is unsupported")
    edges = []
    for e in norm.edges:
        if e.kind.name in _SELF_DUAL_KINDS:
            edges.append(e)
        else:
            fam = K.family_reversed(family(norm, e.id))
            edges.append(Edge(e.id, e.src, e.dst, K.custom(fam)))
    return GraphPresentation(
        vertices=norm.vertices,
        edges=tuple(edges),
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
    elif isinstance(space, Opposite):
        _validate(space.base, out)
    elif isinstance(space, ExcludeEndpoints):
        _validate(space.base, out)
        base = normalize(space.base)
        if isinstance(base, GraphPresentation):
            for p in space.points:
                if not in_support(base, p):
                    out.append(f"excluded point {p!r} outside support")
    elif isinstance(space, HatProductN):
        pass
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
        if e.kind.name == "custom":
            for tr in e.kind.family.rigid:
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
        e = edge_map(pres)[p.edge]
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
    if isinstance(norm, GraphPresentation):
        segs = _segs_between(norm, p, q)
        if len(segs) != 1:
            raise ModelError("product track needs breakpoints at vertex crossings")
        return segs[0]
    if isinstance(norm, (ProductN, HatProductN)):
        ln, rn = _factors(norm)
        if not isinstance(p, PTuple) or not isinstance(q, PTuple):
            raise ModelError("product point expected")
        return ProdSeg((_part_motion(ln, p.parts[0], q.parts[0]),
                        _part_motion(rn, p.parts[1], q.parts[1])))
    raise ModelError("unsupported factor")


def _factors(norm):
    """The two factors of a ProductN or HatProductN."""
    return norm.left, norm.right


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
    if not isinstance(norm, (ProductN, HatProductN)):
        raise ModelError("project needs a product space")
    factor = _factors(norm)[index]
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
    ln, rn = _factors(norm)
    for sub, fnorm in zip(seg.parts, (ln, rn)):
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
