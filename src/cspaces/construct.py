"""Constructions on controlled spaces.

Wrappers for the basic operations (product, sum, quotient, subspace,
opposite, endpoint exclusion) plus the derived constructions: generated
d-space (``hat``), flexible part, the three forgetful functors, the
reversible closure and reversible part, comparison of presentations on
the same support (``is_finer``), and verification of controlled maps
(``check_cmap``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import kinds as K
from .kinds import ALL, EdgeKind, Family, Fragment
from .membership import closed_token_ok, fragment_span_ok, is_controlled
from .model import (ONE, ZERO, CanonicalPath, EdgePoint, ModelError, Pause,
                    Rat, RigidTrace, Seg, TraceStep, UnsupportedConstruction,
                    Vertex, assemble)
from .presentation import (Edge, ExcludeEndpoints, GraphPresentation,
                           HatProductN, Opposite, Product, ProductN, Quotient,
                           Subspace, Sum, bound_rigid, closed_traces, cuts,
                           edge_map, family, flexible_point, in_support,
                           normalize, point_on_step, point_positions,
                           pos_point, trace_end, trace_path, trace_start)


# ---------------------------------------------------------------------------
# Basic operations

def product(left, right):
    return Product(left, right)


def sum_space(left, right) -> GraphPresentation:
    return normalize(Sum(left, right))


def quotient_identify(space, classes) -> GraphPresentation:
    return normalize(Quotient(space, tuple(frozenset(c) for c in classes)))


def subspace(space, region) -> GraphPresentation:
    return normalize(Subspace(space, tuple(region)))


def opposite(space):
    return normalize(Opposite(space))


def exclude_endpoints(space, points) -> GraphPresentation:
    return normalize(ExcludeEndpoints(space, frozenset(points)))


# ---------------------------------------------------------------------------
# Generated d-space

def _hat_family(fam: Family) -> tuple:
    """Rewrite one family for the generated d-space.

    Returns (family, promoted_traces): rigid generators lose their dwell
    requirements and become restriction-closed presentation generators;
    fragments and their boundary constraints survive restriction closure.
    """
    promoted = tuple(RigidTrace(tr.steps, frozenset(), restriction_closed=True)
                     for tr in fam.rigid)
    return Family(fragments=fam.fragments, flexible=ALL), promoted


_HAT_KIND = {
    "natural": K.NATURAL,
    "directed": K.DIRECTED,
    "still": K.STILL,
    "discrete_c": K.STILL,
    "one_jump": K.DIRECTED,
    "n_stop": K.DIRECTED,
    "delayed_minus": K.DIRECTED,
    "delayed_plus": K.DIRECTED,
    "reversible_one_jump": K.NATURAL,
    "siphon": K.NATURAL,
    "siphon_osc": K.NATURAL,
}


def hat_graph(g: GraphPresentation) -> GraphPresentation:
    edges = []
    extra = []
    for e in g.edges:
        if e.kind.name == "custom":
            fam, promoted = _hat_family(e.kind.family)
            extra.extend(promoted)
            edges.append(replace(e, kind=K.custom(fam)))
        else:
            edges.append(replace(e, kind=_HAT_KIND[e.kind.name]))
    gens = tuple(RigidTrace(tr.steps, frozenset(), restriction_closed=True)
                 for tr in g.generators) + tuple(extra)
    seen, uniq = set(), []
    for tr in gens:
        if tr not in seen:
            seen.add(tr)
            uniq.append(tr)
    return GraphPresentation(
        vertices=g.vertices, edges=tuple(edges), generators=tuple(uniq),
        flexible=g.flexible, excluded=frozenset(),
        absorbing=g.absorbing, emitting=g.emitting, blocked=g.blocked)


def hat(space):
    """The d-space generated by a controlled space."""
    norm = normalize(space)
    if isinstance(norm, GraphPresentation):
        return hat_graph(norm)
    if isinstance(norm, HatProductN):
        return norm
    if isinstance(norm, ProductN):
        l, r = norm.left, norm.right
        if isinstance(l, GraphPresentation) and isinstance(r, GraphPresentation):
            return HatProductN(l, r, hat_graph(l), hat_graph(r))
        raise UnsupportedConstruction(
            "generated d-space of a product is only supported for "
            "graph-presented factors")
    raise UnsupportedConstruction("cannot take the generated d-space here")


# ---------------------------------------------------------------------------
# Flexible part

def _fl_edge(e: Edge):
    """Rewrite one edge for the flexible part.

    Returns (kind, extra_flexible_points, extra_absorbing_points).
    """
    name = e.kind.name
    ends = (Vertex(e.src), Vertex(e.dst))
    if name in ("natural", "directed", "still", "discrete_c"):
        return e.kind, (), ()
    if name in ("one_jump", "delayed_minus", "delayed_plus",
                "reversible_one_jump"):
        return K.DISCRETE_C, ends, ()
    if name == "n_stop":
        anchors = [Fraction(i, e.kind.n) for i in range(1, e.kind.n)]
        flex = ends + tuple(EdgePoint(e.id, a) for a in anchors)
        return K.DISCRETE_C, flex, ()
    if name == "siphon":
        return K.DIRECTED, (), ()
    if name == "siphon_osc":
        return K.NATURAL, (), (Vertex(e.dst),)
    if name == "custom":
        fam = e.kind.family
        flex = []
        for tr in fam.rigid:
            flex.append(_trace_pt(e, tr.steps[0].edge, tr.steps[0].a))
            flex.append(_trace_pt(e, tr.steps[-1].edge, tr.steps[-1].b))
        new = Family(fragments=fam.fragments, flexible=fam.flexible)
        return K.custom(new), tuple(flex), ()
    raise ModelError(f"unknown kind {name!r}")


def _trace_pt(e: Edge, edge: str, t: Rat):
    if t == ZERO:
        return Vertex(e.src)
    if t == ONE:
        return Vertex(e.dst)
    return EdgePoint(edge, t)


def flexible_part(space):
    """The space of flexible paths: same support, drop all rigid motion."""
    norm = normalize(space)
    if isinstance(norm, ProductN):
        return ProductN(flexible_part(norm.left), flexible_part(norm.right))
    if isinstance(norm, HatProductN):
        return norm  # every path of a generated d-space is flexible
    g = norm
    edges, flex, absorbing = [], set(norm.flexible), set(norm.absorbing)
    for e in g.edges:
        kind, extra_flex, extra_abs = _fl_edge(e)
        edges.append(replace(e, kind=kind))
        flex.update(extra_flex)
        absorbing.update(extra_abs)
    gens = []
    for tr in g.generators:
        if tr.restriction_closed:
            gens.append(tr)
        else:
            flex.add(trace_start(g, tr))
            flex.add(trace_end(g, tr))
    flex -= set(g.excluded) | set(g.blocked)
    return GraphPresentation(
        vertices=g.vertices, edges=tuple(edges), generators=tuple(gens),
        flexible=frozenset(flex), excluded=g.excluded,
        absorbing=frozenset(absorbing), emitting=g.emitting,
        blocked=frozenset(g.blocked | g.excluded))


# ---------------------------------------------------------------------------
# Forgetful functors

def _uniform_kind(space, kind: EdgeKind, flex_all: bool) -> GraphPresentation:
    g = normalize(space)
    if not isinstance(g, GraphPresentation):
        raise UnsupportedConstruction("functor needs a graph presentation")
    edges = tuple(replace(e, kind=kind) for e in g.edges)
    flex = frozenset(Vertex(v) for v in g.vertices) if flex_all else frozenset()
    return GraphPresentation(vertices=g.vertices, edges=edges,
                             generators=(), flexible=flex)


def functor_D(space) -> GraphPresentation:
    """Forget all motion: only trivial loops remain controlled."""
    return _uniform_kind(space, K.STILL, flex_all=True)


def functor_Dprime(space) -> GraphPresentation:
    """Forget all control: every path of the support is controlled."""
    return _uniform_kind(space, K.NATURAL, flex_all=True)


def functor_Dc(space) -> GraphPresentation:
    """Forget everything: no controlled paths at all."""
    return _uniform_kind(space, K.DISCRETE_C, flex_all=False)


# ---------------------------------------------------------------------------
# Reversible closure / reversible part

def _rc_edge(e: Edge):
    """Rewrite one edge for the reversible closure.

    Returns (kind, extra_generator_traces).
    """
    name = e.kind.name
    if name in ("natural", "still", "discrete_c", "reversible_one_jump"):
        return e.kind, ()
    if name == "directed":
        return K.NATURAL, ()
    if name == "one_jump":
        return K.REVERSIBLE_ONE_JUMP, ()
    if name in ("siphon", "siphon_osc"):
        return K.NATURAL, ()
    if name in ("delayed_minus", "delayed_plus", "n_stop"):
        fam = K.kind_generators(e.kind, e.id)
        return e.kind, tuple(tr.reversed() for tr in fam.rigid)
    if name == "custom":
        fam = e.kind.family
        return K.custom(K.family_union(fam, K.family_reversed(fam))), ()
    raise ModelError(f"unknown kind {name!r}")


def reversible_closure(space) -> GraphPresentation:
    g = normalize(space)
    if not isinstance(g, GraphPresentation):
        raise UnsupportedConstruction(
            "reversible closure needs a graph presentation")
    edges, extra = [], []
    for e in g.edges:
        kind, more = _rc_edge(e)
        edges.append(replace(e, kind=kind))
        extra.extend(more)
    gens = list(g.generators)
    for tr in g.generators:
        gens.append(tr.reversed())
    gens.extend(extra)
    seen, uniq = set(), []
    for tr in gens:
        if tr not in seen:
            seen.add(tr)
            uniq.append(tr)
    return replace(g, edges=tuple(edges), generators=tuple(uniq))


def _rp_custom(g: GraphPresentation, e: Edge, fam: Family) -> Family:
    """Reversible part of a custom family: keep generators whose reverse
    is controlled, and add the reverses."""
    rigid = []
    for tr in fam.rigid:
        if is_controlled(g, trace_path(g, tr.reversed())):
            rigid.append(tr)
            rigid.append(tr.reversed())
    frags = []
    for f in fam.fragments:
        for h in fam.fragments:
            if h.dir != -f.dir:
                continue
            lo, hi = max(f.lo, h.lo), min(f.hi, h.hi)
            if lo > hi:
                continue
            lo_open = (f.lo_open and lo == f.lo) or (h.lo_open and lo == h.lo)
            hi_open = (f.hi_open and hi == f.hi) or (h.hi_open and hi == h.hi)
            if lo == hi and (lo_open or hi_open):
                continue
            frags.append(Fragment(
                f.dir, lo, hi, lo_open, hi_open,
                start_not=frozenset(f.start_not | h.end_not),
                end_not=frozenset(f.end_not | h.start_not)))
    seen, uniq = set(), []
    for x in rigid:
        if x not in seen:
            seen.add(x)
            uniq.append(x)
    return Family(rigid=tuple(uniq), fragments=tuple(frags),
                  flexible=fam.flexible)


def _rp_edge(g: GraphPresentation, e: Edge):
    """Rewrite one edge for the reversible part.

    Returns (kind, extra_flexible_points).
    """
    name = e.kind.name
    ends = (Vertex(e.src), Vertex(e.dst))
    if name in ("natural", "still", "discrete_c", "reversible_one_jump"):
        return e.kind, ()
    if name == "directed":
        return K.STILL, ()
    if name in ("one_jump", "delayed_minus", "delayed_plus"):
        return K.DISCRETE_C, ends
    if name == "n_stop":
        anchors = [Fraction(i, e.kind.n) for i in range(1, e.kind.n)]
        flex = ends + tuple(EdgePoint(e.id, a) for a in anchors)
        return K.DISCRETE_C, flex
    if name == "siphon":
        fam = Family(rigid=(K._full(e.id, 1), K._full(e.id, -1)), flexible=ALL)
        return K.custom(fam), ()
    if name == "siphon_osc":
        fam = Family(
            rigid=(K._full(e.id, 1), K._full(e.id, -1)),
            fragments=(Fragment(1, hi_open=True), Fragment(-1, hi_open=True)),
            flexible=ALL)
        return K.custom(fam), ()
    if name == "custom":
        return K.custom(_rp_custom(g, e, e.kind.family)), ()
    raise ModelError(f"unknown kind {name!r}")


def reversible_part(space) -> GraphPresentation:
    g = normalize(space)
    if not isinstance(g, GraphPresentation):
        raise UnsupportedConstruction(
            "reversible part needs a graph presentation")
    edges, flex = [], set(g.flexible)
    for e in g.edges:
        kind, extra = _rp_edge(g, e)
        edges.append(replace(e, kind=kind))
        flex.update(extra)
    gens = []
    for tr in g.generators:
        if tr.restriction_closed:
            # keep only if its pointwise reverse is also available
            if tr.reversed() in g.generators or is_controlled(
                    g, trace_path(g, tr.reversed())):
                gens.append(tr)
                gens.append(tr.reversed())
            else:
                flex.add(trace_start(g, tr))
                flex.add(trace_end(g, tr))
        elif is_controlled(g, trace_path(g, tr.reversed())):
            gens.append(tr)
            gens.append(tr.reversed())
        else:
            flex.add(trace_start(g, tr))
            flex.add(trace_end(g, tr))
    seen, uniq = set(), []
    for tr in gens:
        if tr not in seen:
            seen.add(tr)
            uniq.append(tr)
    flex -= set(g.excluded) | set(g.blocked)
    return replace(g, edges=tuple(edges), generators=tuple(uniq),
                   flexible=frozenset(flex))


# ---------------------------------------------------------------------------
# Comparison of presentations on the same support

def _same_support(g1: GraphPresentation, g2: GraphPresentation) -> bool:
    if g1.vertices != g2.vertices or len(g1.edges) != len(g2.edges):
        return False
    m2 = edge_map(g2)
    for e in g1.edges:
        o = m2.get(e.id)
        if o is None or o.src != e.src or o.dst != e.dst:
            return False
    return True


def _closed_cover(g: GraphPresentation, edge: str, lo: Rat, hi: Rat,
                  direction: int) -> bool:
    """Is [lo,hi] of `edge` inside one step of a closed trace in `direction`?"""
    for tr in closed_traces(g):
        for s in tr.steps:
            if s.edge != edge:
                continue
            sd = 1 if s.b > s.a else -1
            if sd != direction:
                continue
            if min(s.a, s.b) <= lo and hi <= max(s.a, s.b):
                return True
    return False


def _fragment_contained(f1: Fragment, g2: GraphPresentation,
                        edge: str) -> bool:
    for f2 in family(g2, edge).fragments:
        if f2.dir != f1.dir:
            continue
        if f2.lo > f1.lo or (f2.lo == f1.lo and f2.lo_open and not f1.lo_open):
            continue
        if f2.hi < f1.hi or (f2.hi == f1.hi and f2.hi_open and not f1.hi_open):
            continue
        bad = {x for x in f2.start_not if f1.lo <= x <= f1.hi} - f1.start_not
        if bad:
            continue
        bad = {x for x in f2.end_not if f1.lo <= x <= f1.hi} - f1.end_not
        if bad:
            continue
        return True
    return _closed_cover(g2, edge, f1.lo, f1.hi, f1.dir)


def _edge_all_flexible(g: GraphPresentation, edge: str) -> bool:
    if family(g, edge).flexible == ALL:
        return True
    return (_closed_cover(g, edge, ZERO, ONE, 1)
            or _closed_cover(g, edge, ZERO, ONE, -1))


def is_finer(fine, coarse) -> bool:
    """Does every controlled path of `fine` stay controlled in `coarse`?

    Both spaces must share the same support (vertices and edges).
    """
    g1, g2 = normalize(fine), normalize(coarse)
    if isinstance(g1, ProductN) and isinstance(g2, ProductN):
        return (is_finer(g1.left, g2.left) and is_finer(g1.right, g2.right))
    if not (isinstance(g1, GraphPresentation)
            and isinstance(g2, GraphPresentation)):
        raise UnsupportedConstruction("is_finer needs matching presentations")
    if not _same_support(g1, g2):
        raise ModelError("is_finer requires identical supports")
    # flexible points
    for v in g1.vertices:
        if flexible_point(g1, Vertex(v)) and not flexible_point(g2, Vertex(v)):
            return False
    for e in g1.edges:
        fam1 = family(g1, e.id)
        if fam1.flexible == ALL:
            if not _edge_all_flexible(g2, e.id):
                return False
        else:
            for t in fam1.flexible:
                if not flexible_point(g2, pos_point(g1, e.id, t)):
                    return False
    for p in g1.flexible:
        if flexible_point(g1, p) and not flexible_point(g2, p):
            return False
    # rigid generators of the finer space must be controlled in the coarser
    for tr in bound_rigid(g1):
        if not is_controlled(g2, trace_path(g1, tr)):
            return False
    for tr in closed_traces(g1):
        for s in tr.steps:
            d = 1 if s.b > s.a else -1
            probe = Fragment(d, min(s.a, s.b), max(s.a, s.b))
            if not _fragment_contained(probe, g2, s.edge):
                return False
    # fragments of the finer space must embed in fragments of the coarser
    for e in g1.edges:
        for f in family(g1, e.id).fragments:
            if not _fragment_contained(f, g2, e.id):
                return False
    # stricter occurrence constraints on the coarse side break inclusion
    for name, pts2, pts1 in (("blocked", g2.blocked, g1.blocked),
                             ("absorbing", g2.absorbing, g1.absorbing),
                             ("emitting", g2.emitting, g1.emitting)):
        for q in pts2 - pts1:
            if in_support(g1, q) and _point_used(g1, q):
                return False
    for q in g2.excluded - g1.excluded:
        if in_support(g1, q) and flexible_point(g1, q):
            return False
    return True


def _point_used(g: GraphPresentation, q) -> bool:
    """Does some nontrivial or trivial controlled path of g touch q?"""
    if flexible_point(g, q):
        return True
    for edge, t in point_positions(g, q):
        fam = family(g, edge)
        for f in fam.fragments:
            lo_ok = t > f.lo or (t == f.lo and not f.lo_open)
            hi_ok = t < f.hi or (t == f.hi and not f.hi_open)
            if lo_ok and hi_ok:
                return True
        for tr in fam.rigid:
            if any(point_on_step(s, edge, t) for s in tr.steps):
                return True
    for tr in g.generators:
        for edge, t in point_positions(g, q):
            if any(point_on_step(s, edge, t) for s in tr.steps):
                return True
    return False


# ---------------------------------------------------------------------------
# Controlled maps

@dataclass(frozen=True)
class EdgeImage:
    """Image of one source edge: pieces ((lo, hi, step), ...) that tile
    [0,1] in order; each piece maps [lo,hi] affinely onto its step."""
    pieces: tuple


@dataclass(frozen=True)
class CMap:
    vertex_map: tuple   # of (vertex_name, Point)
    edge_images: tuple  # of (edge_id, EdgeImage)

    def vmap(self):
        return {k: Vertex(v) if isinstance(v, str) else v
                for k, v in self.vertex_map}

    def emap(self):
        return dict(self.edge_images)


def cmap(vertex_map: dict, edge_images: dict) -> CMap:
    return CMap(tuple(sorted(vertex_map.items())),
                tuple(sorted(edge_images.items())))


def map_point(f: CMap, src: GraphPresentation, dst: GraphPresentation, p):
    if isinstance(p, Vertex):
        try:
            return f.vmap()[p.name]
        except KeyError:
            raise ModelError(f"vertex {p.name!r} has no image")
    if isinstance(p, EdgePoint):
        img = f.emap().get(p.edge)
        if img is None:
            raise ModelError(f"edge {p.edge!r} has no image")
        for lo, hi, step in img.pieces:
            if lo <= p.t <= hi:
                if hi == lo:
                    raise ModelError("degenerate piece")
                u = (p.t - lo) / (hi - lo)
                return pos_point(dst, step.edge, step.a + u * (step.b - step.a))
        raise ModelError(f"no piece covers {p!r}")
    raise ModelError(f"cannot map {p!r}")


def _map_seg(f: CMap, dst: GraphPresentation, seg: Seg):
    """Image atoms (Segs, possibly empty for collapsed pieces) of one seg."""
    img = f.emap().get(seg.edge)
    if img is None:
        raise ModelError(f"edge {seg.edge!r} has no image")
    pieces = img.pieces if seg.dir > 0 else tuple(reversed(img.pieces))
    out = []
    for lo, hi, step in pieces:
        a = max(seg.lo, lo)
        b = min(seg.hi, hi)
        if a >= b:
            continue
        u0 = (a - lo) / (hi - lo)
        u1 = (b - lo) / (hi - lo)
        ia = step.a + u0 * (step.b - step.a)
        ib = step.a + u1 * (step.b - step.a)
        if seg.dir < 0:
            ia, ib = ib, ia
        if ia != ib:
            out.append(Seg(step.edge, ia, ib))
    return out


def map_path(f: CMap, src: GraphPresentation, dst: GraphPresentation,
             path: CanonicalPath) -> CanonicalPath:
    atoms = []
    for item in path.items:
        if isinstance(item, Pause):
            atoms.append(item)
            continue
        for seg in item.segs:
            atoms.extend(_map_seg(f, dst, seg))
    return assemble(map_point(f, src, dst, path.start), atoms,
                    map_point(f, src, dst, path.end))


def _check_cmap_geometry(f: CMap, src: GraphPresentation,
                         dst: GraphPresentation, out: list):
    vmap = f.vmap()
    emap = f.emap()
    for v in src.vertices:
        if v not in vmap:
            out.append(f"vertex {v!r} has no image")
        elif not in_support(dst, vmap[v]):
            out.append(f"image of vertex {v!r} is outside the target")
    for e in src.edges:
        img = emap.get(e.id)
        if img is None:
            out.append(f"edge {e.id!r} has no image")
            continue
        prev = ZERO
        for lo, hi, step in img.pieces:
            if lo != prev or hi < lo:
                out.append(f"edge {e.id!r}: pieces do not tile [0,1]")
                break
            if step.edge not in edge_map(dst):
                out.append(f"edge {e.id!r}: image edge {step.edge!r} unknown")
                break
            prev = hi
        else:
            if prev != ONE:
                out.append(f"edge {e.id!r}: pieces do not reach 1")
        if not img.pieces:
            continue
        # endpoint compatibility and continuity between pieces
        try:
            head = _piece_point(dst, img.pieces[0], start=True)
            tail = _piece_point(dst, img.pieces[-1], start=False)
            if e.src in vmap and head != vmap[e.src]:
                out.append(f"edge {e.id!r}: image does not start at f({e.src})")
            if e.dst in vmap and tail != vmap[e.dst]:
                out.append(f"edge {e.id!r}: image does not end at f({e.dst})")
            for a, b in zip(img.pieces, img.pieces[1:]):
                if (_piece_point(dst, a, start=False)
                        != _piece_point(dst, b, start=True)):
                    out.append(f"edge {e.id!r}: image is discontinuous")
                    break
        except ModelError as exc:
            out.append(f"edge {e.id!r}: {exc}")


def _piece_point(dst: GraphPresentation, piece, start: bool):
    lo, hi, step = piece
    t = step.a if start else step.b
    return pos_point(dst, step.edge, t)


def _interval_flexible(dst: GraphPresentation, edge: str,
                       lo: Rat, hi: Rat) -> bool:
    fam = family(dst, edge)
    if fam.flexible == ALL:
        return True
    if lo == hi:
        return flexible_point(dst, pos_point(dst, edge, lo))
    return (_closed_cover(dst, edge, lo, hi, 1)
            or _closed_cover(dst, edge, lo, hi, -1))


def check_cmap(f: CMap, src, dst):
    """Verify that f maps every controlled path of src to one of dst.

    Returns (ok, failures).
    """
    g1, g2 = normalize(src), normalize(dst)
    if not (isinstance(g1, GraphPresentation)
            and isinstance(g2, GraphPresentation)):
        raise UnsupportedConstruction("check_cmap needs graph presentations")
    out: list = []
    _check_cmap_geometry(f, g1, g2, out)
    if out:
        return False, out
    # rigid generators map to controlled paths
    for tr in bound_rigid(g1):
        p = trace_path(g1, tr)
        try:
            q = map_path(f, g1, g2, p)
        except ModelError as exc:
            out.append(f"generator image failed: {exc}")
            continue
        if not is_controlled(g2, q):
            out.append(f"image of rigid generator {tr} is not controlled")
    # fragments map into flexible motion of the target
    for e in g1.edges:
        for frag in family(g1, e.id).fragments:
            if frag.lo == frag.hi:
                continue
            run = Seg(e.id, frag.lo, frag.hi) if frag.dir > 0 \
                else Seg(e.id, frag.hi, frag.lo)
            for seg in _map_seg(f, g2, run):
                if not _image_flexible(g2, seg):
                    out.append(
                        f"edge {e.id!r}: flexible motion maps onto "
                        f"non-flexible motion of {seg.edge!r}")
                    break
    for tr in closed_traces(g1):
        for s in tr.steps:
            seg = Seg(s.edge, s.a, s.b)
            for iseg in _map_seg(f, g2, seg):
                if not _image_flexible(g2, iseg):
                    out.append(
                        f"closed generator step {s} maps onto "
                        f"non-flexible motion of {iseg.edge!r}")
                    break
    # flexible points map to flexible points
    for v in g1.vertices:
        if flexible_point(g1, Vertex(v)):
            if not flexible_point(g2, map_point(f, g1, g2, Vertex(v))):
                out.append(f"flexible vertex {v!r} maps to a rigid point")
    for e in g1.edges:
        fam = family(g1, e.id)
        if fam.flexible == ALL:
            for lo, hi, step in f.emap()[e.id].pieces:
                a, b = min(step.a, step.b), max(step.a, step.b)
                if not _interval_flexible(g2, step.edge, a, b):
                    out.append(
                        f"edge {e.id!r}: flexible points map onto "
                        f"non-flexible stretch of {step.edge!r}")
                    break
        else:
            for t in fam.flexible:
                p = pos_point(g1, e.id, t)
                if flexible_point(g1, p) and not flexible_point(
                        g2, map_point(f, g1, g2, p)):
                    out.append(f"flexible point {p!r} maps to a rigid point")
    for p in g1.flexible:
        if flexible_point(g1, p) and not flexible_point(
                g2, map_point(f, g1, g2, p)):
            out.append(f"flexible point {p!r} maps to a rigid point")
    return not out, out


def _image_flexible(g: GraphPresentation, seg: Seg) -> bool:
    """Is every sub-run of this image seg flexibly controlled in g?"""
    toks = _cut_seg(g, seg)
    fam = family(g, seg.edge)
    for tok in toks:
        if fragment_span_ok(fam, tok.lo, tok.hi, tok, tok) \
                or closed_token_ok(g, tok):
            continue
        return False
    return True


def _cut_seg(g: GraphPresentation, seg: Seg):
    marks = [x for x in cuts(g, seg.edge) if seg.lo < x < seg.hi]
    pts = [seg.lo] + marks + [seg.hi]
    if seg.dir < 0:
        pts = list(reversed(pts))
    return [Seg(seg.edge, a, b) for a, b in zip(pts, pts[1:])]
