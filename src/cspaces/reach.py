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
breadth-first search over ints: one from the source, one multi-source
search each way for ``exists_c_through``, one per representative point
for ``ReachRelation.pairs``.

A cut re-lays only the edges that hold a query point which is not yet a
cut value, on new positions after all others, ranked by the same
``membership._ranks`` but kept out of the parse index, which does not
grow with the questions.  Their vertex and cut-value cells keep their
ids.  So a rigid trace with a step on such an edge keeps its transition
and its cells, and only its cover is laid out again.  Their fragment
transitions are unlinked, keeping their numbers, and added again on the
new positions.  The cut copies the graph's top-level lists and shares
every inner list with the compiled graph until it changes it, so the
compiled graph never changes.  A question thus costs the edges its
points lie on and a copy of the top-level lists, not a rebuild of the
graph.

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
from .membership import _edge_index, _ranks, parse_index
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
    kept on pres by ``compiled``), or such a graph also cut at the query
    points of one question (``cut``).

    ``len()`` is the number of live transitions: a cut graph keeps the
    numbers of the transitions it unlinks, in ``dead``.
    """

    def __init__(self, pres: GraphPresentation):
        self.pres = pres
        names = sorted(pres.vertices.union(*((e.src, e.dst)
                                             for e in pres.edges)))
        self.vertex = {v: c for c, v in enumerate(names)}
        index = parse_index(pres)
        entries = [index.edges.get(e.id) or _edge_index(index, pres, e.id)
                   for e in pres.edges]
        n = len(pres.edges)
        self.index = {e.id: i for i, e in enumerate(pres.edges)}
        self.ids = [e.id for e in pres.edges]  # edge number -> edge id
        self.fam = [ent.fam for ent in entries]  # edge number -> family
        self.vals = [None] * n    # edge number -> sorted cut values
        self.rank = [None] * n    # edge number -> {cut value: rank}
        self.offset = [None] * n  # edge number -> number of its position 0
        self.pos_edge = []   # position -> edge number
        self.cell_at = []    # position -> cell
        self.places = [[] for _ in names]  # cell -> its positions
        for i, (e, ent) in enumerate(zip(pres.edges, entries)):
            keep = [None] * len(ent.cuts)
            keep[0], keep[-1] = self.vertex[e.src], self.vertex[e.dst]
            self._place(i, ent.cuts, ent.rank, keep)
        self.src, self.dst, self.cover, self.recipe = [], [], [], []
        self.excluded = self._cells(pres.excluded)
        self.absorbing = self._cells(pres.absorbing)
        self.emitting = self._cells(pres.emitting)
        self.blocked = self._cells(pres.blocked)
        self.filtered = bool(self.blocked or self.absorbing or self.emitting)
        self.on_edge = [[] for _ in pres.edges]  # edge number -> transitions
        for i, e in enumerate(pres.edges):
            first = len(self.src)
            for frag in self.fam[i].fragments:
                self._fragment(i, frag)
            self.on_edge[i].extend(range(first, len(self.src)))
            for tr in self.fam[i].rigid:
                self._rigid(tr.on(e.id))
        for tr in pres.generators:
            self._rigid(tr)
        for k, tr in enumerate(self.recipe):
            if tr is not None:
                for i in {self.index[s.edge] for s in tr.steps}:
                    self.on_edge[i].append(k)
        self.dead = frozenset()
        self.fwd = [[] for _ in self.places]
        self.rev = [[] for _ in self.places]
        for k, (s, d) in enumerate(zip(self.src, self.dst)):
            self.fwd[s].append(k)
            self.rev[d].append(k)

    def __len__(self):
        return len(self.src) - len(self.dead)

    # -- cells and positions -------------------------------------------------

    def _place(self, i: int, vals, rank: dict, keep: list) -> None:
        """Lay out edge number i cut at the sorted values vals, whose ranks
        are rank, on new positions after all others.  The k-th cut value
        stays in the cell keep[k] unless that is None; every other position
        gets a new cell."""
        base = len(self.cell_at)
        self.vals[i], self.rank[i], self.offset[i] = vals, rank, base
        for r in range(2 * len(vals) - 1):
            c = keep[r // 2] if r % 2 == 0 else None
            if c is None:
                c = len(self.places)
                self.places.append([])
            self.places[c].append(base + r)
            self.cell_at.append(c)
            self.pos_edge.append(i)

    def cell(self, p) -> int:
        """The cell holding a point of the presentation."""
        if isinstance(p, Vertex):
            if p.name not in self.pres.vertices:
                raise ModelError(f"unknown vertex {p.name!r}")
            return self.vertex[p.name]
        if isinstance(p, EdgePoint) and p.edge in self.index:
            i = self.index[p.edge]
            vals = self.vals[i]
            h = bisect_left(vals, p.t)
            r = 2 * h if vals[h] == p.t else 2 * h - 1
            return self.cell_at[self.offset[i] + r]
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
        return self.offset[i] + self.rank[i][t]

    def value(self, g: int):
        """The edge parameter of position g (the midpoint of a segment)."""
        i = self.pos_edge[g]
        r = g - self.offset[i]
        vals = self.vals[i]
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

    def _steps(self, tr) -> tuple:
        """(start, end) positions of each step of a trace."""
        return tuple((self._at(self.index[s.edge], s.a),
                      self._at(self.index[s.edge], s.b)) for s in tr.steps)

    def _rigid(self, tr) -> None:
        steps = self._steps(tr)
        self._add(self.cell_at[steps[0][0]], self.cell_at[steps[-1][1]],
                  steps, tr)

    # -- query points --------------------------------------------------------

    def cut(self, extra: frozenset) -> "CellGraph":
        """This graph also cut at the (edge, t) positions in extra.

        Only an edge holding a position that is not yet a cut value is
        cut again.  It gets new positions after all existing ones, and
        its vertex and cut-value cells keep their ids, so the cell sets
        of the filters hold as they are.  A rigid transition on it keeps
        its number and its cells: only its cover is laid out again, on
        the new positions.  Its fragment transitions are unlinked (they
        keep their numbers, in ``dead``) and added again.  The result copies
        each list before it changes it, so this graph never changes;
        with nothing to cut, the result is this graph.  A cut graph is
        not cut again.
        """
        added = {}
        for e, t in extra:
            i = self.index[e]
            if t not in self.rank[i]:
                added.setdefault(i, set()).add(t)
        if not added:
            return self
        g = copy(self)
        g._recut(added)
        return g

    def _recut(self, added: dict) -> None:
        on = [k for i in added for k in self.on_edge[i]]
        gone = {k for k in on if self.recipe[k] is None}
        self.dead = frozenset(gone)
        self.vals, self.rank = list(self.vals), list(self.rank)
        self.offset, self.pos_edge = list(self.offset), list(self.pos_edge)
        self.cell_at, self.places = list(self.cell_at), list(self.places)
        self.fwd, self.rev = list(self.fwd), list(self.rev)
        self.src, self.dst = list(self.src), list(self.dst)
        self.cover, self.recipe = list(self.cover), list(self.recipe)
        cells, first = len(self.places), len(self.src)
        for i, ts in sorted(added.items()):
            vals, start = list(self.vals[i]), self.offset[i]
            old = range(start, start + 2 * len(vals) - 1)
            keep = [self.cell_at[g] for g in old[::2]]  # each cut value's cell
            for c in set(keep):
                self.places[c] = [g for g in self.places[c] if g not in old]
            for t in sorted(ts):
                k = bisect_left(vals, t)
                vals.insert(k, t)
                keep.insert(k, None)
            self._place(i, vals, _ranks(vals), keep)
        for k in set(on) - gone:
            self.cover[k] = self._steps(self.recipe[k])
        self.fwd.extend([] for _ in range(cells, len(self.places)))
        self.rev.extend([] for _ in range(cells, len(self.places)))
        for i in sorted(added):
            for frag in self.fam[i].fragments:
                self._fragment(i, frag)
        for adj, ends in ((self.fwd, self.src), (self.rev, self.dst)):
            relink = {ends[k]: [] for k in gone}
            for k in range(first, len(self.src)):
                relink.setdefault(ends[k], []).append(k)
            for c, ks in relink.items():
                adj[c] = [k for k in adj[c] if k not in gone] + ks

    # -- witnesses -----------------------------------------------------------

    def touches(self, k: int, c: int) -> bool:
        """Does transition k pass through cell c?"""
        for g in self.places[c]:
            for a, b in self.cover[k]:
                if a <= g <= b or b <= g <= a:
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


def exists_c_from(pres: GraphPresentation, x) -> bool:
    """Is there a nontrivial controlled path starting at x?"""
    if x in pres.excluded or x in pres.blocked:
        return False
    g = _graph(pres, (x,))
    return _leaves(g, g.cell(x))


def exists_c_to(pres: GraphPresentation, x) -> bool:
    """Is there a nontrivial controlled path ending at x?"""
    if x in pres.excluded or x in pres.blocked:
        return False
    g = _graph(pres, (x,))
    return _arrives(g, g.cell(x))


def exists_c_through(pres: GraphPresentation, x) -> bool:
    """Is there a nontrivial controlled path visiting x?"""
    if x in pres.blocked:
        return False
    g = _graph(pres, (x,))
    nx = g.cell(x)
    if x not in pres.excluded and (_leaves(g, nx) or _arrives(g, nx)):
        return True
    live = [(k, s, d) for k, (s, d) in enumerate(zip(g.src, g.dst))
            if k not in g.dead]
    startable = _search(g, [s for _, s, _ in live if s not in g.excluded
                            and s not in g.absorbing])
    stoppable = _search(g, [d for _, _, d in live if d not in g.excluded],
                        forward=False)
    return any(s in startable and d in stoppable and g.touches(k, nx)
               for k, s, d in live)
