"""Reachability along controlled and generated-d-space paths.

Each presentation is compiled once into an integer-indexed *cell graph*
(``compiled``): the presentation cut at its own cut values, kept on the
presentation instance like its hash.  A question cuts that graph again
at its query points (``transitions``, ``CellGraph.cut``) and searches
the result.

Cells are ints: one per vertex, then, edge by edge, one per interior cut
value and one per open segment between two consecutive cut values.  An
edge's positions are numbered consecutively from its offset, and the
position of a cut value is the offset plus its rank in the sense of
``membership``: rank ``r`` is the ``r // 2``-th cut value when ``r`` is
even and the open segment after that value when ``r`` is odd.  So a
stretch of an edge is a range of position numbers.  The sorted cut
values, their ranks and the family of an edge come from the entry of its
kind and cut values in the parse index (``membership.parse_index``),
which edges of one kind share, so they are computed once per entry.

Every generator contributes transitions ``(src, dst, cover, recipe)``
over ints: the cells the motion starts and ends in, the position ranges
it passes (one per trace step), and how to build its witness atoms.  A
fragment gives one transition for every pair of positions in its window,
in its direction; a rigid trace one for its whole traversal.
Transitions that touch a blocked point, pass an absorbing point before
their end or an emitting point after their start are dropped.  Forward
and reverse adjacency are built with the graph, so a question is a
breadth-first search over ints: one from the source, one each way from
the point for ``existence`` (and a multi-source one each way when
neither finds a path), one per representative point for
``ReachRelation.pairs``.

A cut splits only the open segments that hold a query point which is
not a cut value.  The m query values in the segment at position p get
2m new positions and cells after all others, a point and the piece of
segment after it for each, ordered by keys strictly between p and
p + 1; p keeps the piece before the first value.  Window bounds,
forbidden ends and filter points are all cut values, so a window that
holds p holds every piece and admits the same moves to and from each:
each fragment transition into or out of p gives one into or out of
every new position, and each window that holds p adds the moves between
its pieces.  No transition is unlinked, no edge is laid out or ranked
again, and a new position's parameter is computed only when a witness
reads it.  The cut copies the graph's top-level lists and each
adjacency list it extends, so the compiled graph never changes.  A
question thus costs its points and a copy of the top-level lists, not
the edges its points lie on.

Witness atoms (``Seg`` / ``PAUSE``) are built only along the chain of
transitions a witness returns, with pauses between the pieces; pauses
can always be inserted, so this never breaks membership.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from copy import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .construct import hat
from .membership import _edge_index, parse_index
from .model import (PAUSE, CanonicalPath, EdgePoint, ModelError, ProdSeg,
                    PTuple, Seg, UnsupportedConstruction, Vertex, assemble)
from .presentation import (GraphPresentation, ProductN, cuts,
                           flexible_point, is_flexible_point, normalize,
                           point_positions, trace_path)

# Cell graphs kept by ``transitions``.  ``classify_point`` asks for the
# graph of a space and of its flexible part three times each.
GRAPH_CACHE_SIZE = 8


@dataclass(frozen=True)
class ReachResult:
    ok: bool
    witness: Optional[CanonicalPath] = None

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# The cell graph

class CellGraph:
    """A graph presentation cut at its cut values (``CellGraph(pres)``,
    kept on pres by ``compiled``), or such a graph also split at the
    query points of one question (``cut``).

    ``len()`` is the number of transitions.
    """

    def __init__(self, pres: GraphPresentation):
        self.pres = pres
        names = sorted(pres.vertices.union(*((e.src, e.dst)
                                             for e in pres.edges)))
        self.vertex = {v: c for c, v in enumerate(names)}
        index = parse_index(pres)
        # edge number -> its ranked entry: cut values, ranks, family, windows
        self.ent = [index.edges.get(e.id) or _edge_index(index, pres, e.id)
                    for e in pres.edges]
        self.index = {e.id: i for i, e in enumerate(pres.edges)}
        self.ids = [e.id for e in pres.edges]  # edge number -> edge id
        self.offset = []     # edge number -> number of its position 0
        self.pos_edge = []   # position -> edge number
        self.cell_at = []    # position -> cell
        self.places = [[] for _ in names]  # cell -> its positions
        for e, ent in zip(pres.edges, self.ent):
            self._place(len(ent.cuts), self.vertex[e.src], self.vertex[e.dst])
        self.src, self.dst, self.cover, self.recipe = [], [], [], []
        self.excluded = self._cells(pres.excluded)
        self.absorbing = self._cells(pres.absorbing)
        self.emitting = self._cells(pres.emitting)
        self.blocked = self._cells(pres.blocked)
        self.filtered = bool(self.blocked or self.absorbing or self.emitting)
        for i, e in enumerate(pres.edges):
            fam = self.ent[i].fam
            for frag in fam.fragments:
                self._fragment(i, frag)
            for tr in fam.rigid:
                self._rigid(tr.on(e.id))
        for tr in pres.generators:
            self._rigid(tr)
        self.fwd = [[] for _ in self.places]
        self.rev = [[] for _ in self.places]
        for k, (s, d) in enumerate(zip(self.src, self.dst)):
            self.fwd[s].append(k)
            self.rev[d].append(k)
        # Filled by ``cut``: split segment -> (its query values, sorted,
        # and its first new position); new position -> the segment it
        # splits; new position -> its order key.
        self.inner, self.home, self.order = {}, {}, {}

    def __len__(self):
        return len(self.src)

    # -- cells and positions -------------------------------------------------

    def _place(self, m: int, first: int, last: int) -> None:
        """Lay out an edge with m cut values on new positions after all
        others.  Its ends are in the cells first and last; every other
        position gets a new cell."""
        base = len(self.cell_at)
        self.offset.append(base)
        top = 2 * m - 2
        for r in range(top + 1):
            c = first if r == 0 else last if r == top else None
            if c is None:
                c = len(self.places)
                self.places.append([])
            self.places[c].append(base + r)
            self.cell_at.append(c)
            self.pos_edge.append(len(self.offset) - 1)

    def cell(self, p) -> int:
        """The cell holding a point of the presentation."""
        if isinstance(p, Vertex):
            if p.name not in self.pres.vertices:
                raise ModelError(f"unknown vertex {p.name!r}")
            return self.vertex[p.name]
        if isinstance(p, EdgePoint) and p.edge in self.index:
            i = self.index[p.edge]
            vals = self.ent[i].cuts
            h = bisect_left(vals, p.t)
            g = self.offset[i] + 2 * h
            if vals[h] != p.t:
                g -= 1
                if g in self.inner:  # a segment split by the question
                    ts, first = self.inner[g]
                    j = bisect_left(ts, p.t)
                    if j < len(ts) and ts[j] == p.t:
                        g = first + 2 * j
                    elif j:
                        g = first + 2 * j - 1
            return self.cell_at[g]
        raise ModelError(f"not a point of this space: {p!r}")

    def _cells(self, points) -> frozenset:
        out = set()
        for p in points:
            try:
                out.add(self.cell(p))
            except ModelError:
                pass
        return frozenset(out)

    def _at(self, i: int, t) -> int:
        """The position of cut value t on edge number i."""
        return self.offset[i] + self.ent[i].rank[t]

    def value(self, g: int):
        """The edge parameter of position g: a cut value, a query point,
        or the midpoint of an open segment or of a piece of a split one."""
        seg = self.home.get(g, g)
        i = self.pos_edge[seg]
        vals, r = self.ent[i].cuts, seg - self.offset[i]
        if seg in self.inner:
            # rank g among the ends and the query values of its segment
            ts, first = self.inner[seg]
            vals = (vals[r // 2], *ts, vals[r // 2 + 1])
            r = g - first + 2 if g != seg else 1
        h = r // 2
        return vals[h] if r % 2 == 0 else (vals[h] + vals[h + 1]) / 2

    # -- transitions ---------------------------------------------------------

    def _add(self, src: int, dst: int, cover: tuple, recipe) -> None:
        if self.filtered and not self._allowed(src, dst, cover):
            return
        self.src.append(src)
        self.dst.append(dst)
        self.cover.append(cover)
        self.recipe.append(recipe)

    def _allowed(self, src: int, dst: int, cover: tuple) -> bool:
        touched = {self.cell_at[g] for a, b in cover
                   for g in range(min(a, b), max(a, b) + 1)}
        return not (touched & self.blocked
                    or any(c != dst for c in touched & self.absorbing)
                    or any(c != src for c in touched & self.emitting))

    def _fragment(self, i: int, frag) -> None:
        if not frag.dir:
            return  # trivial loops move nowhere
        lo = self._at(i, frag.lo) + frag.lo_open
        hi = self._at(i, frag.hi) - frag.hi_open
        no_start = {self._at(i, t) for t in frag.start_not}
        no_end = {self._at(i, t) for t in frag.end_not}
        window = range(lo, hi + 1) if frag.dir > 0 else range(hi, lo - 1, -1)
        cell_at = self.cell_at
        for n, a in enumerate(window):
            if a in no_start:
                continue
            for b in window[n + 1:]:
                if b not in no_end:
                    self._add(cell_at[a], cell_at[b], ((a, b),), None)

    def _rigid(self, tr) -> None:
        steps = tuple((self._at(self.index[s.edge], s.a),
                       self._at(self.index[s.edge], s.b)) for s in tr.steps)
        self._add(self.cell_at[steps[0][0]], self.cell_at[steps[-1][1]],
                  steps, tr)

    # -- query points --------------------------------------------------------

    def cut(self, extra: frozenset) -> "CellGraph":
        """This graph also split at the (edge, t) positions in extra.

        Each open segment that holds positions which are not cut values
        is split there; with nothing to split, the result is this graph.
        The result copies the top-level lists and every adjacency list
        it extends, so this graph never changes.  A cut graph is not cut
        again.
        """
        segs = {}  # segment position -> the values that split it
        for e, t in extra:
            i = self.index[e]
            vals = self.ent[i].cuts
            h = bisect_left(vals, t)
            if vals[h] != t:
                segs.setdefault(self.offset[i] + 2 * h - 1, []).append(t)
        if not segs:
            return self
        g = copy(self)
        g._split(segs)
        return g

    def _split(self, segs: dict) -> None:
        """Split each segment position p at its m values: 2m new
        positions, each a new cell, follow p, which keeps the piece
        before the first value.  A window holding p holds every piece,
        and no bound, forbidden end or filter point lies inside p, so
        each transition that ends (starts) at p gives one that ends
        (starts) at each new position, and each window that holds p
        moves between any two of its pieces in its direction."""
        self.cell_at, self.pos_edge = list(self.cell_at), list(self.pos_edge)
        self.places, self.fwd, self.rev = (list(self.places), list(self.fwd),
                                           list(self.rev))
        self.src, self.dst = list(self.src), list(self.dst)
        self.cover, self.recipe = list(self.cover), list(self.recipe)
        self.inner, self.home, self.order = {}, {}, {}
        fwd, rev = {}, {}  # cell -> the new transitions leaving / entering it
        cell_at = self.cell_at

        def link(a: int, b: int) -> None:
            k = len(self.src)
            s, d = cell_at[a], cell_at[b]
            self.src.append(s)
            self.dst.append(d)
            self.cover.append(((a, b),))
            self.recipe.append(None)
            fwd.setdefault(s, []).append(k)
            rev.setdefault(d, []).append(k)

        for p, ts in sorted(segs.items()):  # not in the hash order of extra
            ts.sort()
            i, c = self.pos_edge[p], cell_at[p]
            first = len(cell_at)
            new = range(first, first + 2 * len(ts))
            self.inner[p] = (ts, first)
            for j, q in enumerate(new, 1):
                self.home[q] = p
                self.order[q] = p + j / (len(new) + 1)
                cell_at.append(len(self.places))
                self.places.append([q])
                self.pos_edge.append(i)
            into = self.rev[c] + rev.get(c, [])
            out = self.fwd[c] + fwd.get(c, [])
            for k in into:
                a = self.cover[k][0][0]
                for q in new:
                    link(a, q)
            for k in out:
                b = self.cover[k][0][1]
                for q in new:
                    link(q, b)
            pieces, r = [p, *new], p - self.offset[i]
            for d, wins in self.ent[i].wins.items():
                run = pieces if d > 0 else pieces[::-1]
                for lo, hi, _, _ in wins:
                    if lo <= r <= hi:
                        for n, a in enumerate(run):
                            for b in run[n + 1:]:
                                link(a, b)
        for adj, added in ((self.fwd, fwd), (self.rev, rev)):
            adj.extend([] for _ in range(len(adj), len(self.places)))
            for c, ks in added.items():
                adj[c] = adj[c] + ks

    # -- witnesses -----------------------------------------------------------

    def touches(self, k: int, c: int) -> bool:
        """Does transition k pass through cell c?  Positions compare by
        order key: a new position's lies strictly between the segment it
        splits and the next position."""
        order = self.order
        for g in self.places[c]:
            x = order.get(g, g)
            for a, b in self.cover[k]:
                a, b = order.get(a, a), order.get(b, b)
                if a <= x <= b or b <= x <= a:
                    return True
        return False

    def atoms(self, k: int):
        """Witness atoms of transition k."""
        tr = self.recipe[k]
        if tr is not None:  # a rigid trace, traversed whole
            return trace_path(self.pres, tr).items
        return [Seg(self.ids[self.pos_edge[a]], self.value(a), self.value(b))
                for a, b in self.cover[k]]


def compiled(pres: GraphPresentation) -> CellGraph:
    """The cell graph of pres at its own cut values.  It is built once
    and kept on pres, like its hash, and dropped from pickles."""
    try:
        return pres.__dict__["_cells"]
    except KeyError:
        g = CellGraph(pres)
        object.__setattr__(pres, "_cells", g)
        return g


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def transitions(pres: GraphPresentation, extra: frozenset = frozenset()):
    """The cell graph of pres also cut at the (edge, t) positions in extra."""
    return compiled(pres).cut(extra)


def _query_extra(pres: GraphPresentation, points) -> frozenset:
    """The interior (edge, t) positions of points: vertices are cut
    values of every edge they lie on."""
    return frozenset((e, t) for p in points if isinstance(p, EdgePoint)
                     for e, t in point_positions(pres, p))


def _graph(pres: GraphPresentation, points) -> CellGraph:
    return transitions(pres, _query_extra(pres, points))


def _search(g: CellGraph, sources, forward: bool = True,
            avoid: Optional[int] = None) -> dict:
    """The transition by which each cell reached from `sources` was
    reached (-1 at a source), in breadth-first order.  Backwards
    (``forward=False``) a cell maps to the transition leaving it towards
    the sources.  Transitions through the cell `avoid` are not taken."""
    adj, ends = (g.fwd, g.dst) if forward else (g.rev, g.src)
    parent = dict.fromkeys(sources, -1)
    queue = deque(parent)
    while queue:
        for k in adj[queue.popleft()]:
            c = ends[k]
            if c in parent or (avoid is not None and g.touches(k, avoid)):
                continue
            parent[c] = k
            queue.append(c)
    return parent


def _witness(g: CellGraph, start, chain, end) -> CanonicalPath:
    atoms = []
    for n, k in enumerate(chain):
        if n:
            atoms.append(PAUSE)
        atoms.extend(g.atoms(k))
    return assemble(start, atoms, end)


# ---------------------------------------------------------------------------
# Point-to-point queries

def _graph_reach(pres: GraphPresentation, x, y) -> ReachResult:
    if x == y:
        if flexible_point(pres, x):
            return ReachResult(True, assemble(x, [], x))
        return ReachResult(True, None)
    bad = pres.excluded | pres.blocked
    if x in bad or y in bad:
        return ReachResult(False)
    g = _graph(pres, (x, y))
    ny = g.cell(y)
    parent = _search(g, (g.cell(x),))
    if ny not in parent:
        return ReachResult(False)
    chain = []
    k = parent[ny]
    while k >= 0:
        chain.append(k)
        k = parent[g.src[k]]
    return ReachResult(True, _witness(g, x, chain[::-1], y))


def _graph_loop(pres: GraphPresentation, x) -> ReachResult:
    """A nontrivial controlled loop at x, if one exists."""
    if x in pres.excluded or x in pres.blocked:
        return ReachResult(False)
    g = _graph(pres, (x,))
    nx = g.cell(x)
    back = _search(g, (nx,), forward=False)
    order = {c: n for n, c in enumerate(back)}
    out = [k for k in g.fwd[nx] if g.dst[k] in order]
    if not out:
        return ReachResult(False)
    chain = [min(out, key=lambda k: order[g.dst[k]])]
    c = g.dst[chain[0]]
    while c != nx:
        chain.append(back[c])
        c = g.dst[back[c]]
    return ReachResult(True, _witness(g, x, chain, x))


def _wait_path(space, p) -> ReachResult:
    """A controlled path staying at p: trivial if p is flexible, else a loop."""
    norm = normalize(space)
    if isinstance(norm, ProductN):
        return _product_reach((norm.left, norm.right), p, p, c_reachable)
    if flexible_point(norm, p):
        return ReachResult(True, assemble(p, [], p))
    return _graph_loop(norm, p)


def _stage_product(w1: CanonicalPath, w2: CanonicalPath) -> CanonicalPath:
    """Move coordinate 1 first, then coordinate 2."""
    x2 = w2.start
    y1 = w1.end
    atoms = []
    for item in w1.items:
        if isinstance(item, type(PAUSE)):
            atoms.append(PAUSE)
        else:
            for seg in item.segs:
                atoms.append(ProdSeg((seg, x2)))
    if w1.items and w2.items:
        atoms.append(PAUSE)
    for item in w2.items:
        if isinstance(item, type(PAUSE)):
            atoms.append(PAUSE)
        else:
            for seg in item.segs:
                atoms.append(ProdSeg((y1, seg)))
    return assemble(PTuple((w1.start, x2)), atoms, PTuple((y1, w2.end)))


def _product_reach(factors, x: PTuple, y: PTuple, reach_fn) -> ReachResult:
    if not isinstance(x, PTuple) or not isinstance(y, PTuple):
        raise ModelError("product points must be pairs")
    parts = []
    for f, xi, yi in zip(factors, x.parts, y.parts):
        if xi == yi:
            r = _wait_path(f, xi)
        else:
            r = reach_fn(f, xi, yi)
        if not r.ok:
            return ReachResult(False)
        parts.append(r.witness)
    if any(w is None for w in parts):
        return ReachResult(True, None)
    return ReachResult(True, _stage_product(parts[0], parts[1]))


def c_reachable(space, x, y) -> ReachResult:
    """Is there a controlled path from x to y?  Reflexive by convention."""
    norm = normalize(space)
    if isinstance(norm, ProductN):
        if x == y:
            return ReachResult(True, _trivial_if_flex(norm, x))
        return _product_reach((norm.left, norm.right), x, y, c_reachable)
    return _graph_reach(norm, x, y)


def _trivial_if_flex(norm, x):
    if is_flexible_point(norm, x):
        return assemble(x, [], x)
    return None


def d_reachable(space, x, y) -> ReachResult:
    """Reachability in the generated d-space."""
    return c_reachable(hat(space), x, y)


def unavoidable_point(space, x, y, p, mode: str = "c") -> bool:
    """Must every (c- or d-) path from x to y pass through p?"""
    norm = normalize(hat(space) if mode == "d" else space)
    if not isinstance(norm, GraphPresentation):
        raise UnsupportedConstruction(
            "unavoidable-point queries need a graph presentation")
    for q in (x, y, p):
        compiled(norm).cell(q)  # a ModelError names a point outside norm
    if x == y:
        return p == x
    if x in norm.excluded | norm.blocked or y in norm.excluded | norm.blocked:
        raise ModelError("y is not reachable from x")
    g = _graph(norm, (x, y) if p in (x, y) else (x, y, p))
    nx, ny = g.cell(x), g.cell(y)
    if ny not in _search(g, (nx,)):
        raise ModelError("y is not reachable from x")
    if p == x or p == y:
        return True
    return ny not in _search(g, (nx,), avoid=g.cell(p))


# ---------------------------------------------------------------------------
# Whole relations

class ReachRelation:
    """The full reachability preorder of a space."""

    def __init__(self, space, mode: str = "c"):
        self.space = normalize(space)
        self.mode = mode

    def holds(self, x, y) -> bool:
        target = hat(self.space) if self.mode == "d" else self.space
        return c_reachable(target, x, y).ok

    def nodes(self) -> tuple:
        """Representative points, one per cell (graph presentations only)."""
        pres = self.space
        if not isinstance(pres, GraphPresentation):
            raise UnsupportedConstruction(
                "cell enumeration needs a graph presentation")
        out = [Vertex(v) for v in sorted(pres.vertices)]
        for e in pres.edges:
            vals = cuts(pres, e.id)
            for k in range(len(vals) - 1):
                if k:
                    out.append(EdgePoint(e.id, vals[k]))
                out.append(EdgePoint(e.id, (vals[k] + vals[k + 1]) / 2))
        return tuple(out)

    def pairs(self) -> tuple:
        """All (x, y) node-representative pairs with x ⤳ y.

        One cell graph of the target and one search per representative,
        which has its own cell of the compiled graph.  The hat's graph
        (mode ``d``) is cut at every representative first.
        """
        reps = self.nodes()
        norm = normalize(hat(self.space) if self.mode == "d" else self.space)
        bad = norm.excluded | norm.blocked
        g = _graph(norm, reps) if self.mode == "d" else compiled(norm)
        cells = [g.cell(x) for x in reps]
        out = []
        for x, cx in zip(reps, cells):
            reached = {} if x in bad else _search(g, (cx,))
            out.extend((x, y) for y, cy in zip(reps, cells)
                       if x == y or (cy in reached and y not in bad))
        return tuple(out)


def reach_relation(space, mode: str = "c") -> ReachRelation:
    return ReachRelation(space, mode)


# ---------------------------------------------------------------------------
# Existence queries (used by point classification)

def _leaves(g: CellGraph, c: int) -> bool:
    """Does a nontrivial path from cell c end where a path may end?"""
    reached = _search(g, [g.dst[k] for k in g.fwd[c]])
    return any(n not in g.excluded for n in reached)


def _arrives(g: CellGraph, c: int) -> bool:
    """Does a nontrivial path to cell c start where a path may start?"""
    reached = _search(g, [g.src[k] for k in g.rev[c]], forward=False)
    return any(n not in g.excluded and n not in g.absorbing for n in reached)


def existence(pres: GraphPresentation, x) -> tuple:
    """(through, from, to): is there a nontrivial controlled path
    visiting, starting at, ending at x?  One cut, and one search each
    way from x; only when neither finds a path does ``through`` search
    the whole graph for a transition over x."""
    if x in pres.blocked:
        return False, False, False
    g = _graph(pres, (x,))
    nx = g.cell(x)
    if x in pres.excluded:
        leaves = arrives = False
    else:
        leaves, arrives = _leaves(g, nx), _arrives(g, nx)
    if leaves or arrives:
        return True, leaves, arrives
    startable = _search(g, [s for s in g.src if s not in g.excluded
                            and s not in g.absorbing])
    stoppable = _search(g, [d for d in g.dst if d not in g.excluded],
                        forward=False)
    return (any(s in startable and d in stoppable and g.touches(k, nx)
                for k, (s, d) in enumerate(zip(g.src, g.dst))),
            False, False)


def exists_c_from(pres: GraphPresentation, x) -> bool:
    """Is there a nontrivial controlled path starting at x?"""
    return existence(pres, x)[1]


def exists_c_to(pres: GraphPresentation, x) -> bool:
    """Is there a nontrivial controlled path ending at x?"""
    return existence(pres, x)[2]


def exists_c_through(pres: GraphPresentation, x) -> bool:
    """Is there a nontrivial controlled path visiting x?"""
    return existence(pres, x)[0]
