"""Shared helpers for the test suite: path builders and independent
hand-coded membership predicates used as cross-checks."""

from bisect import bisect
from fractions import Fraction as F

from cspaces import kinds as K
from cspaces.construct import CMap, EdgeImage, cmap
from cspaces.kinds import Family, Fragment
from cspaces.model import (PAUSE, CanonicalPath, EdgePoint, Pause, ProdSeg,
                           PTuple, RigidTrace, Seg, TraceStep, Vertex,
                           assemble)
from cspaces.presentation import (Edge, GraphPresentation, _subspace, cuts,
                                  normalize, pos_point)

Z, O, H = F(0), F(1), F(1, 2)

# A custom family with open window ends, end_not and a falling window.
OPEN_WINDOWS = K.custom(Family(fragments=(
    Fragment(1, Z, H, hi_open=True),
    Fragment(1, F(1, 4), O, lo_open=True, end_not=frozenset({H, O})),
    Fragment(-1, F(1, 4), F(3, 4), hi_open=True))))


# One custom kind on two chained edges: a rigid trace that overshoots to
# 3/4, falls back to 1/4 and rises to the end, and a path of two instances.
DETOUR = K.custom(Family(rigid=(RigidTrace((
    TraceStep(None, Z, F(3, 4)), TraceStep(None, F(3, 4), F(1, 4)),
    TraceStep(None, F(1, 4), O))),)))
SHARED = GraphPresentation(frozenset({"v0", "v1", "v2"}), (
    Edge("e0", "v0", "v1", DETOUR), Edge("e1", "v1", "v2", DETOUR)))
SHARED_RUN = assemble(Vertex("v0"), [
    Seg(e, a, b) for e in ("e0", "e1")
    for a, b in ((Z, F(3, 4)), (F(3, 4), F(1, 4)), (F(1, 4), O))],
    Vertex("v2"))


def interval(kind) -> GraphPresentation:
    """The interval v0 -e0-> v1 carrying one edge kind."""
    return GraphPresentation(frozenset({"v0", "v1"}),
                             (Edge("e0", "v0", "v1", kind),))


def cut_at(pres, points):
    """The subspace of pres cut at points, which become vertices of it,
    and the map of points into it."""
    ts = {}
    for q in points:
        ts.setdefault(q.edge, set()).add(q.t)
    region = [Vertex(v) for v in pres.vertices]
    for e in pres.edges:
        marks = [Z, *sorted(ts.get(e.id, ())), O]
        region.extend((e.id, a, b) for a, b in zip(marks, marks[1:]))
    return _subspace(pres, region)


def after(pres, q) -> EdgePoint:
    """The midpoint between q and the next cut value of its edge: a point
    of the open segment that holds q, or that starts at q."""
    vals = cuts(pres, q.edge)
    return EdgePoint(q.edge, (q.t + vals[bisect(vals, q.t)]) / 2)


def identity(space) -> CMap:
    """The identity map of a graph presentation."""
    g = normalize(space)
    return cmap({v: v for v in g.vertices},
                {e.id: EdgeImage(((Z, O, TraceStep(e.id, Z, O)),))
                 for e in g.edges})


def run(start, *atoms, end):
    return assemble(start, list(atoms), end)


def point_of(pres, edge, t):
    """Edge position as a point, resolving 0/1 to the incident vertices."""
    return pos_point(normalize(pres), edge, F(t))


def projection_segs(path: CanonicalPath, index: int):
    """Flatten one coordinate of a binary-product path to its moving segs."""
    segs = []
    for item in path.items:
        if isinstance(item, Pause):
            continue
        for seg in item.segs:
            part = seg.parts[index]
            if isinstance(part, (Seg, ProdSeg)):
                segs.append(part)
    return segs


def _coord(point, index):
    return point.parts[index]


def _value(p):
    """Position of a point of a single-edge interval model in [0, 1]."""
    if isinstance(p, Vertex):
        return Z if p.name == "v0" else O
    return p.t


def jump_projection_ok(path: CanonicalPath, index: int) -> bool:
    """Hand-coded one-jump interval membership for one product coordinate:
    constant at an endpoint, or a single monotone increasing sweep 0 -> 1
    (pauses anywhere)."""
    segs = projection_segs(path, index)
    if not segs:
        return _value(_coord(path.start, index)) in (Z, O)
    vals = [_value(_coord(path.start, index))]
    for seg in segs:
        if not isinstance(seg, Seg):
            return False
        if seg.a != vals[-1]:
            return False
        if seg.b <= seg.a:
            return False
        vals.append(seg.b)
    return vals[0] == Z and vals[-1] == O


def directed_projection_ok(path: CanonicalPath, index: int) -> bool:
    """Hand-coded directed-interval membership for one product coordinate:
    any contiguous non-decreasing sweep."""
    segs = projection_segs(path, index)
    last = _value(_coord(path.start, index))
    for seg in segs:
        if not isinstance(seg, Seg):
            return False
        if seg.a != last or seg.b <= seg.a:
            return False
        last = seg.b
    return True


def square_predicate(path: CanonicalPath) -> bool:
    """Independent membership predicate for the product of two one-jump
    intervals."""
    return jump_projection_ok(path, 0) and jump_projection_ok(path, 1)


def hybrid_predicate(path: CanonicalPath) -> bool:
    """Independent membership predicate for one-jump x directed interval."""
    return jump_projection_ok(path, 0) and directed_projection_ok(path, 1)


def positive_product_path(rng, second_directed=False):
    """Random controlled path of a product of interval models: each
    coordinate parks at an endpoint or sweeps upward, moves interleaved."""
    from fractions import Fraction

    def plan(directed):
        style = rng.choice(["park0", "park1", "sweep"])
        if style == "park0":
            return Vertex("v0"), []
        if style == "park1":
            return Vertex("v1"), []
        if directed:
            lo = Fraction(rng.randrange(0, 4), 8)
            hi = Fraction(rng.randrange(int(lo * 8) + 1, 9), 8)
        else:
            lo, hi = Z, O
        cuts = sorted({lo, hi}
                      | {Fraction(rng.randrange(int(lo * 8) + 1, int(hi * 8)), 8)
                         for _ in range(rng.randrange(0, 3))
                         if int(lo * 8) + 1 < int(hi * 8)})
        segs = [Seg("e0", a, b) for a, b in zip(cuts, cuts[1:])]
        def pt(t):
            if t == Z:
                return Vertex("v0")
            if t == O:
                return Vertex("v1")
            return EdgePoint("e0", t)
        return pt(lo), segs

    start0, segs0 = plan(False)
    start1, segs1 = plan(second_directed)
    cur = [start0, start1]
    queues = [list(segs0), list(segs1)]
    atoms = []
    while queues[0] or queues[1]:
        i = rng.choice([k for k in (0, 1) if queues[k]])
        seg = queues[i].pop(0)
        other = cur[1 - i]
        atoms.append(ProdSeg((seg, other)) if i == 0 else ProdSeg((other, seg)))
        end_t = seg.b
        cur[i] = (Vertex("v0") if end_t == Z else
                  Vertex("v1") if end_t == O else EdgePoint("e0", end_t))
        if rng.random() < 0.2:
            atoms.append(PAUSE)
    return assemble(PTuple((start0, start1)), atoms, PTuple(tuple(cur)))
