"""Constructions on controlled spaces.

Wrappers for the basic operations (product, sum, quotient, subspace,
opposite, endpoint exclusion) plus the derived constructions: generated
d-space (``hat``), flexible part, the three forgetful functors, the
reversible closure and reversible part, comparison of presentations on
the same support (``is_finer``), and verification of controlled maps
(``check_cmap``).  Each edge family is rewritten once per distinct kind.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import kinds as K
from .kinds import LOOPS, EdgeKind, Family, Fragment
from .membership import is_controlled
from .model import (ONE, ZERO, CanonicalPath, EdgePoint, ModelError, Pause,
                    RigidTrace, Seg, TraceStep, UnsupportedConstruction,
                    Vertex, assemble, rat_str)
from .presentation import (ExcludeEndpoints, GraphPresentation,
                           Opposite, Product, ProductN, Quotient, Subspace,
                           Sum, bound_rigid, cuts, edge_map, family,
                           flexible_point, flexible_points, in_support,
                           normalize, pos_point, rekind, trace_path)


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

def _hat_window(f: Fragment) -> Fragment:
    """The window of every sub-run of an instance of f.  A sub-run may
    start or end where an instance may not, inside the window (a longer
    instance passes there), but not at an end that no instance reaches.
    A window of direction 0 keeps its loops: its marks mean nothing."""
    at_lo, at_hi = ((f.start_not, f.end_not) if f.dir > 0
                    else (f.end_not, f.start_not) if f.dir else ((), ()))
    return Fragment(f.dir, f.lo, f.hi, f.lo_open or f.lo in at_lo,
                    f.hi_open or f.hi in at_hi)


def _hat_family(fam: Family) -> Family:
    """Generated d-space of one edge: each fragment admits the sub-runs of
    its instances, each rigid step becomes a closed window in its
    direction, and every point is flexible."""
    frags = tuple(_hat_window(f) for f in fam.fragments)
    return K.add_windows(Family(fragments=frags + (LOOPS,)),
                         [(s.a, s.b) for tr in fam.rigid for s in tr.steps])


def hat_graph(g: GraphPresentation) -> GraphPresentation:
    """The hat of a graph presentation in normal form.  Its generators'
    steps become windows of their edges, so the hat has no generators; a
    presentation whose hat changes no edge's kind, with no generators and
    no excluded point, is its own hat, and is returned as it is."""
    steps = {}  # edge id -> (from, to) of each generator step on it
    for tr in g.generators:
        for s in tr.steps:
            steps.setdefault(s.edge, []).append((s.a, s.b))
    edges, _ = rekind(
        g, lambda fam, *s: (K.add_windows(_hat_family(fam), s), None),
        lambda e: steps.get(e.id, ()))
    if edges == g.edges and not g.generators and not g.excluded:
        return g
    return GraphPresentation(vertices=g.vertices, edges=edges,
                             flexible=g.flexible)


def hat(space):
    """The d-space generated by a controlled space.

    The hat of a product is the product of the hats: restrictions of the
    two coordinates of a controlled pair can be padded with pauses until
    both run over one interval, where they restrict one controlled pair.
    The hat of a graph presentation is kept on it, like its cell graph,
    and dropped from pickles.  It is kept in normal form, so when it
    equals a presentation already seen (a ``directed`` chain is its own
    hat), it is that instance, with its cell graph and parse index.
    """
    norm = normalize(space)
    if isinstance(norm, ProductN):
        return ProductN(hat(norm.left), hat(norm.right))
    if "_hat" not in norm.__dict__:
        object.__setattr__(norm, "_hat", normalize(hat_graph(norm)))
    return norm._hat


# ---------------------------------------------------------------------------
# Flexible part

def _flexible_windows(frags) -> tuple:
    """The fragments cut at their interior ``start_not`` / ``end_not``
    points: a run across such a point has a portion that starts or ends
    there, so it is not flexible, while every sub-run of a piece is an
    instance of the fragment."""
    return tuple(p for f in frags for p in K.cut_window(f, f.start_not
                                                        | f.end_not))


def flexible_part(space):
    """The space of flexible paths: same support, drop all rigid motion
    and cut each fragment where a portion of a run may not start or end.

    The endpoints of the dropped rigid traces stay flexible points.  The
    flexible part of a graph presentation is kept on it, like its hat,
    and dropped from pickles.  It is kept in normal form, so when it
    equals a presentation already seen, it is that instance, with its
    cell graph and parse index.
    """
    norm = normalize(space)
    if isinstance(norm, ProductN):
        return ProductN(flexible_part(norm.left), flexible_part(norm.right))
    if "_flexible" not in norm.__dict__:
        object.__setattr__(norm, "_flexible", normalize(_flexible_graph(norm)))
    return norm._flexible


def _flexible_graph(g: GraphPresentation) -> GraphPresentation:
    """The flexible part before ``normalize``: no portion of a flexible
    path starts or ends at an excluded point, so none touches one."""
    edges, positions = rekind(g, lambda fam: K.kept_loops(
        Family(fragments=_flexible_windows(fam.fragments)), fam.rigid_ends))
    return GraphPresentation(
        vertices=g.vertices, edges=edges, excluded=g.excluded,
        flexible=flexible_points(g, positions, g.generators),
        blocked=g.excluded)


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

def _step_covered(frags, tr: RigidTrace) -> bool:
    """Is a one-step trace a run that one of the fragments admits?"""
    s = tr.steps[0]
    return len(tr.steps) == 1 and any(
        f.admits(s.a, s.b, s.dir) and s.a not in f.start_not
        and s.b not in f.end_not for f in frags)


def _rc_family(fam: Family) -> tuple:
    """Reversible closure of a family: (the family joined with the
    reversed family, None).  A one-step trace that the merged windows
    admit is dropped: they generate it."""
    rev = K.family_reversed(fam)
    frags = K.merge_fragments(fam.fragments + rev.fragments)
    rigid = tuple(tr for tr in dict.fromkeys((*fam.rigid, *rev.rigid))
                  if not _step_covered(frags, tr))
    return Family(rigid, frags), None


def reversible_closure(space) -> GraphPresentation:
    g = normalize(space)
    if not isinstance(g, GraphPresentation):
        raise UnsupportedConstruction(
            "reversible closure needs a graph presentation")
    edges, _ = rekind(g, _rc_family)
    gens = g.generators + tuple(tr.reversed() for tr in g.generators)
    return replace(g, edges=edges, generators=tuple(dict.fromkeys(gens)))


def _rp_family(fam: Family, *kept) -> tuple:
    """Reversible part of a family on an edge where `kept` are its rigid
    traces whose reverse is controlled: (family, positions to keep
    flexible).  The family holds those traces with their reverses, the
    overlaps of fragments of opposite directions, and every trivial loop
    where a run starts or ends (a constant path is its own reverse); the
    loops at the ends of the other traces stay as flexible points."""
    rigid = tuple(dict.fromkeys(x for tr in kept for x in (tr, tr.reversed())))
    frags = []
    for f in fam.fragments:
        for h in fam.fragments:
            if not f.dir or h.dir != -f.dir:
                continue
            lo, hi = max(f.lo, h.lo), min(f.hi, h.hi)
            if lo >= hi:  # a one-point window of a run direction is empty
                continue
            lo_open = (f.lo_open and lo == f.lo) or (h.lo_open and lo == h.lo)
            hi_open = (f.hi_open and hi == f.hi) or (h.hi_open and hi == h.hi)
            frags.append(Fragment(
                f.dir, lo, hi, lo_open, hi_open,
                start_not=frozenset(f.start_not | h.end_not),
                end_not=frozenset(f.end_not | h.start_not)))
    # a one-point window of a run direction holds no run, so no loop
    loops = sorted((replace(_hat_window(w), dir=0) for w in _flexible_windows(
        fam.fragments) if w.lo < w.hi or not w.dir), key=lambda w: (w.lo, w.hi))
    dropped = Family(tuple(tr for tr in fam.rigid if tr not in rigid))
    return K.kept_loops(Family(rigid, tuple(frags) + K.merge_fragments(loops)),
                        dropped.rigid_ends)


def reversible_part(space) -> GraphPresentation:
    """The paths whose reverse is controlled too: the overlaps of windows
    of opposite directions, and each rigid trace whose reverse parses,
    with that reverse.  The normal form's families obey its filters, so
    what a filter kills one way is gone both ways."""
    g = normalize(space)
    if not isinstance(g, GraphPresentation):
        raise UnsupportedConstruction(
            "reversible part needs a graph presentation")

    def reversible(tr: RigidTrace) -> bool:
        return is_controlled(g, trace_path(g, tr.reversed()))

    edges, positions = rekind(g, _rp_family, lambda e: tuple(
        tr for tr in K.kind_generators(e.kind).rigid
        if reversible(tr.on(e.id))))
    kept = [tr for tr in g.generators if reversible(tr)]
    gens = dict.fromkeys(x for tr in kept for x in (tr, tr.reversed()))
    return replace(g, edges=edges, generators=tuple(gens),
                   flexible=flexible_points(g, positions, [
                       tr for tr in g.generators if tr not in kept]))


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


def is_finer(fine, coarse) -> bool:
    """Does every controlled path of `fine` stay controlled in `coarse`?

    Both spaces must share the same support (vertices and edges); then
    the question is whether the identity is a controlled map.
    """
    g1, g2 = normalize(fine), normalize(coarse)
    if isinstance(g1, ProductN) and isinstance(g2, ProductN):
        return (is_finer(g1.left, g2.left) and is_finer(g1.right, g2.right))
    if not (isinstance(g1, GraphPresentation)
            and isinstance(g2, GraphPresentation)):
        raise UnsupportedConstruction("is_finer needs matching presentations")
    if not _same_support(g1, g2):
        raise ModelError("is_finer requires identical supports")
    identity = cmap({v: v for v in g1.vertices},
                    {e.id: EdgeImage(((ZERO, ONE, TraceStep(e.id, ZERO, ONE)),))
                     for e in g1.edges})
    return check_cmap(identity, g1, g2)[0]


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

    @cached_property
    def vmap(self) -> dict:
        return {k: Vertex(v) if isinstance(v, str) else v
                for k, v in self.vertex_map}

    @cached_property
    def emap(self) -> dict:
        return dict(self.edge_images)


def cmap(vertex_map: dict, edge_images: dict) -> CMap:
    return CMap(tuple(sorted(vertex_map.items())),
                tuple(sorted(edge_images.items())))


def map_point(f: CMap, src: GraphPresentation, dst: GraphPresentation, p):
    if isinstance(p, Vertex):
        try:
            return f.vmap[p.name]
        except KeyError:
            raise ModelError(f"vertex {p.name!r} has no image")
    if isinstance(p, EdgePoint):
        img = f.emap.get(p.edge)
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
    img = f.emap.get(seg.edge)
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
    vmap = f.vmap
    emap = f.emap
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


def _grid(f: CMap, src: GraphPresentation, dst: GraphPresentation,
          edge: str) -> list:
    """Sorted parameters on a source edge where src, dst or f may change:
    src's cut values, the piece ends of f, the preimages of dst's cut
    values, and two points inside each gap between neighbours.

    Inside a gap neither space changes and f is affine, so every run of
    the edge has a representative with ends on the grid: the same gaps,
    or two points of one gap (a window open at both ends of a gap admits
    only runs inside it).
    """
    vals = set(cuts(src, edge))
    for lo, hi, step in f.emap[edge].pieces:
        vals.update((lo, hi))
        a, b = min(step.a, step.b), max(step.a, step.b)
        vals.update(lo + (c - step.a) / (step.b - step.a) * (hi - lo)
                    for c in cuts(dst, step.edge) if a <= c <= b)
    base = sorted(vals)
    return sorted(vals | {a + (b - a) * k / 3 for a, b in zip(base, base[1:])
                          for k in (1, 2)})


def _runs(g: GraphPresentation, edge: str, grid: list):
    """The runs between two grid points in each direction that a fragment
    of the edge moves."""
    for d in {fr.dir for fr in family(g, edge).fragments} - {0}:
        for n, lo in enumerate(grid):
            for hi in grid[n + 1:]:
                a, b = (lo, hi) if d > 0 else (hi, lo)
                yield assemble(pos_point(g, edge, a), [Seg(edge, a, b)],
                               pos_point(g, edge, b))


def check_cmap(f: CMap, src, dst):
    """Verify that f maps every controlled path of src to one of dst.

    A controlled path is a concatenation of generator instances whose end
    points are flexible.  So f is controlled when every instance of src
    that src controls maps to a path that dst controls, and every
    flexible point maps to a flexible point.  Instances may end at
    excluded points inside a longer path, so both sides clear them for
    that test.  The instances are the rigid traces and the ``_runs``
    between points of each edge's ``_grid``, and the flexible points are
    tested at the vertices and grid points; the membership engine decides
    each test.

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
    open1 = replace(g1, excluded=frozenset())
    open2 = replace(g2, excluded=frozenset())

    # the target answers first: the source is then rarely asked
    def kept(p) -> bool:
        if is_controlled(open2, map_path(f, g1, g2, p)):
            return True
        return not is_controlled(open1, p)

    def flexible_kept(p) -> bool:
        if flexible_point(g2, map_point(f, g1, g2, p)):
            return True
        return not flexible_point(g1, p)

    for tr in bound_rigid(g1):
        if not kept(trace_path(g1, tr)):
            out.append(f"image of rigid generator {tr} is not controlled")
    for v in sorted(g1.vertices):
        if not flexible_kept(Vertex(v)):
            out.append(f"flexible vertex {v!r} maps to a rigid point")
    for e in g1.edges:
        grid = _grid(f, g1, g2, e.id)
        bad = next((r for r in _runs(g1, e.id, grid) if not kept(r)), None)
        if bad is not None:
            s = bad.items[0].segs[0]
            out.append(f"edge {e.id!r}: image of the run {rat_str(s.a)} -> "
                       f"{rat_str(s.b)} is not controlled")
        bad = next((t for t in grid[1:-1]
                    if not flexible_kept(EdgePoint(e.id, t))), None)
        if bad is not None:
            out.append(f"flexible point {EdgePoint(e.id, bad)!r} maps to a "
                       f"rigid point")
    return not out, out
