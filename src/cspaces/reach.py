"""Reachability along controlled and generated-d-space paths.

Each presentation is compiled once into an integer-indexed *cell graph*
(``compiled``): the presentation cut at its own cut values, kept on the
presentation instance like its hash, and shared by equal instances.
Whether x reaches y, the existence flags of point classification and
whole relations are read from transitive closures of that graph
(``CellGraph.closure``), built the first time a question needs them.  A
witness is built only when it is read, by a search of the same graph.
The compiled graph never changes after it is built.

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
in its direction, and a pair that two windows give is one transition; a
rigid trace gives one for its whole traversal.  Transitions that touch a
blocked point, pass an absorbing point before their last position or an
emitting point after their first are dropped; the positions are walked
in the order the motion passes them.  Forward and reverse adjacency are
built with the graph.  The fragment transitions that cross no forbidden
start or end of their window and pass no excluded cell are flagged
flexible (``CellGraph.flex``): they are the moves of ``flexible_part``,
so the flexible part is a mask over the one graph, not a second one.

The closure is one ``int`` bitset per strongly connected component: the
components reached from it by a nonempty chain of transitions, numbered
in the order an iterative Tarjan pass emits them.  Each component is
emitted after every component it reaches, so OR-ing the successors'
bitsets in that order completes each one.  It takes at most cells² / 8
bytes, about half that on an acyclic graph: 0.8 MB for the 3,201 cells
of a 1,600-edge ``directed`` chain.  It lives and dies with the compiled
graph, and so does the closure of the flexible transitions, which is
the same one when every transition is flexible.  A point inside an open
segment reaches, and is reached from, what the segment's cell does, so
for x ≠ y in different cells x reaches y iff cell(y) is in the closure
of cell(x).  Two points of one open segment are joined iff a window of
the direction from x to y holds the segment, or the segment's cell lies
on a cycle.  ``existence`` and ``ReachRelation.pairs`` read the same
rules.  So does ``unavoidable_point``: when x, y and p lie in three
cells, p is avoidable if no transition over p (``CellGraph.over``) lies
on a chain from x to y, and only otherwise does a pruned search run.

A witness is searched on the same graph, breadth-first over ints, when
it is read.  A point inside an open segment is that segment's cell, so a
witness from x to y is a shortest chain of transitions from x's cell to
y's, whose first and last fragment moves start at x and end at y in
place of the segment's midpoint.  Two points of one segment that a
window holds in their direction are joined by one ``Seg``; otherwise
their chain leads from the cell back to itself.  A loop at a point that
windows hold both ways, with no cell one move away each way, steps to
the middle of the piece of segment below the point and back.  Witness
atoms (``Seg`` / ``PAUSE``) are built only along the chain a witness
returns, with pauses between the pieces; pauses can always be inserted,
so this never breaks membership.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import FrozenInstanceError, replace
from functools import cached_property, lru_cache, reduce
from itertools import chain, compress
from operator import or_
from typing import Optional
from weakref import WeakKeyDictionary

from .construct import hat
from .membership import _edge_index, parse_index
from .model import (PAUSE, CanonicalPath, EdgePoint, ModelError, Pause,
                    ProdSeg, PTuple, Seg, UnsupportedConstruction, Vertex,
                    assemble)
from .presentation import (GraphPresentation, ProductN, flexible_point,
                           is_flexible_point, normalize, trace_path)

# Compiled graphs kept alive by ``transitions``.
GRAPH_CACHE_SIZE = 8


class ReachResult:
    """The answer to a reach question: ``ok``, and a controlled path from
    x to y as ``witness`` (None when there is none, or when x = y is not
    flexible).  A witness given as ``build`` is built the first time
    ``witness`` is read, so an answer read only for ``ok`` (or ``bool()``)
    searches nothing.  Immutable; ``==``, ``hash`` and ``repr`` read the
    witness."""

    def __init__(self, ok: bool, witness: Optional[CanonicalPath] = None,
                 build=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "_build", build or (lambda: witness))

    @cached_property
    def witness(self) -> Optional[CanonicalPath]:
        return self._build()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __bool__(self):
        return self.ok

    def __eq__(self, other):
        if not isinstance(other, ReachResult):
            return NotImplemented
        return (self.ok, self.witness) == (other.ok, other.witness)

    def __hash__(self):
        return hash((self.ok, self.witness))

    def __repr__(self):
        return f"ReachResult(ok={self.ok!r}, witness={self.witness!r})"


# ---------------------------------------------------------------------------
# The cell graph

class CellGraph:
    """A graph presentation cut at its cut values, built once per
    presentation (``compiled``) and never changed after.  Every reach
    question, whole relation and witness reads this one graph; a query
    point inside an open segment is that segment's cell.

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
        self.flex = []  # transition -> is it a move of the flexible part?
        self.excluded = self._cells(pres.excluded)
        self.absorbing = self._cells(pres.absorbing)
        self.emitting = self._cells(pres.emitting)
        self.blocked = self._cells(pres.blocked)
        self.filtered = bool(self.blocked or self.absorbing or self.emitting)
        # edge number -> its first transition; then the generators' first,
        # and the end of theirs
        self.first = []
        for i, e in enumerate(pres.edges):
            self.first.append(len(self.src))
            ent = self.ent[i]
            # windows of one direction that overlap give some pairs twice
            seen = {} if max(map(len, ent.wins.values())) > 1 else None
            for frag in ent.fam.fragments:
                self._fragment(i, frag, seen)
            for tr in ent.fam.rigid:
                self._rigid(tr.on(e.id))
        self.first.append(len(self.src))
        for tr in pres.generators:
            self._rigid(tr)
        self.first.append(len(self.src))
        self.fwd = [[] for _ in self.places]
        self.rev = [[] for _ in self.places]
        for k, (s, d) in enumerate(zip(self.src, self.dst)):
            self.fwd[s].append(k)
            self.rev[d].append(k)
        # Filled on first use: the closures of every transition and of the
        # flexible ones, the representative points, and graph -> the cells
        # of its representatives in this one.
        self._closure = self._flexible = self._reps = self._rep_cells = None

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
            return self.cell_at[g]
        if isinstance(p, EdgePoint):
            raise ModelError(f"unknown edge {p.edge!r}")
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
        """The edge parameter of position g: a cut value, or the midpoint
        of an open segment."""
        i = self.pos_edge[g]
        r = g - self.offset[i]
        vals, h = self.ent[i].cuts, r // 2
        return vals[h] if r % 2 == 0 else (vals[h] + vals[h + 1]) / 2

    # -- transitions ---------------------------------------------------------

    def _add(self, src: int, dst: int, cover: tuple, recipe,
             flex: bool = False) -> Optional[int]:
        """Add a transition unless a filter drops it; its number, or None."""
        if self.filtered and not self._allowed(cover):
            return None
        self.src.append(src)
        self.dst.append(dst)
        self.cover.append(cover)
        self.recipe.append(recipe)
        self.flex.append(flex)
        return len(self.src) - 1

    def _allowed(self, cover: tuple) -> bool:
        """Does the motion over cover, walked in order, touch no blocked
        cell, and an absorbing cell only at its last position and an
        emitting cell only at its first?"""
        cell_at, last = self.cell_at, len(cover) - 1
        for n, (a, b) in enumerate(cover):
            way = 1 if b >= a else -1
            for g in range(a, b + way, way):
                c = cell_at[g]
                if (c in self.blocked
                        or c in self.absorbing and (n, g) != (last, b)
                        or c in self.emitting and (n, g) != (0, a)):
                    return False
        return True

    def _fragment(self, i: int, frag, seen: Optional[dict]) -> None:
        """One transition per pair of positions of the window, in its
        direction.  It is flexible when no forbidden start or end lies
        strictly between its ends and it passes no excluded cell: exactly
        the moves of ``flexible_part``, whose windows are cut at those
        points and whose excluded points are blocked.  With `seen` (pair
        -> transition), a pair that another window of the edge gave
        before is not added again; its flag is OR-ed in."""
        if not frag.dir:
            return  # trivial loops move nowhere
        lo = self._at(i, frag.lo) + frag.lo_open
        hi = self._at(i, frag.hi) - frag.hi_open
        no_start = {self._at(i, t) for t in frag.start_not}
        no_end = {self._at(i, t) for t in frag.end_not}
        marks = no_start | no_end
        window = range(lo, hi + 1) if frag.dir > 0 else range(hi, lo - 1, -1)
        cell_at, excluded, flags = self.cell_at, self.excluded, self.flex
        for n, a in enumerate(window):
            if a in no_start:
                continue
            flex = cell_at[a] not in excluded
            for b in window[n + 1:]:
                flex = flex and cell_at[b] not in excluded
                if b not in no_end:
                    k = None if seen is None else seen.get((a, b))
                    if k is not None:
                        flags[k] |= flex
                    else:
                        k = self._add(cell_at[a], cell_at[b], ((a, b),), None,
                                      flex)
                        if seen is not None and k is not None:
                            seen[a, b] = k
                if b in marks:
                    flex = False

    def _rigid(self, tr) -> None:
        steps = tuple((self._at(self.index[s.edge], s.a),
                       self._at(self.index[s.edge], s.b)) for s in tr.steps)
        self._add(self.cell_at[steps[0][0]], self.cell_at[steps[-1][1]],
                  steps, tr)

    # -- the closure ---------------------------------------------------------

    def closure(self, flexible: bool = False) -> "Closure":
        """The closure of every transition, built on the first call, or of
        the flexible ones only.  When every transition is flexible, the
        two are one.  Only a compiled graph has flexible transitions."""
        if self._closure is None:
            self._closure = Closure(self.fwd, self.dst)
        if not flexible:
            return self._closure
        if self._flexible is None:
            if all(self.flex):
                self._flexible = self._closure
            else:
                fwd = [[] for _ in self.fwd]
                for k in compress(range(len(self.flex)), self.flex):
                    fwd[self.src[k]].append(k)
                self._flexible = Closure(fwd, self.dst)
        return self._flexible

    def reaches(self, a: int, b: int) -> bool:
        """Does a nonempty chain of transitions lead from cell a to cell b?"""
        return self.closure().reaches(a, b)

    def segment(self, c: int) -> Optional[int]:
        """The position of cell c if it is an open segment, else None."""
        if len(self.places[c]) == 1:
            p = self.places[c][0]
            if (p - self.offset[self.pos_edge[p]]) % 2:
                return p
        return None

    def held(self, c: int, d: int) -> bool:
        """Is cell c an open segment that a window of direction d holds?"""
        p = self.segment(c)
        if p is None:
            return False
        i = self.pos_edge[p]
        r = p - self.offset[i]
        return any(lo <= r <= hi for lo, hi, _, _ in self.ent[i].wins[d])

    def over(self, c: int) -> set:
        """The transitions of a compiled graph that pass through cell c:
        those of the families of its edges, and the generators, whose
        cover reaches one of its positions."""
        first, cover, out = self.first, self.cover, set()
        gens = range(first[-2], first[-1])
        for g in self.places[c]:
            i = self.pos_edge[g]
            for k in chain(range(first[i], first[i + 1]), gens):
                for a, b in cover[k]:
                    if a <= g <= b or b <= g <= a:
                        out.add(k)
                        break
        return out

    # -- representatives -----------------------------------------------------

    def reps(self) -> tuple:
        """One point per cell: the vertices by name, then, edge by edge,
        each interior cut value and the midpoint of each open segment.
        Built on the first call."""
        if self._reps is None:
            pres = self.pres
            out = [Vertex(v) for v in sorted(pres.vertices)]
            for e, ent in zip(pres.edges, self.ent):
                vals = ent.cuts
                for k in range(len(vals) - 1):
                    if k:
                        out.append(EdgePoint(e.id, vals[k]))
                    out.append(EdgePoint(e.id, (vals[k] + vals[k + 1]) / 2))
            self._reps = tuple(out)
        return self._reps

    def rep_cells(self, g: "CellGraph") -> list:
        """The cells in this graph of the representatives of graph g,
        kept while both live."""
        if self._rep_cells is None:
            self._rep_cells = WeakKeyDictionary()
        cells = self._rep_cells.get(g)
        if cells is None:
            cells = self._rep_cells[g] = [self.cell(x) for x in g.reps()]
        return cells

    # -- witnesses -----------------------------------------------------------

    def atoms(self, k: int):
        """Witness atoms of transition k."""
        tr = self.recipe[k]
        if tr is not None:  # a rigid trace, traversed whole
            return trace_path(self.pres, tr).items
        return [Seg(self.ids[self.pos_edge[a]], self.value(a), self.value(b))
                for a, b in self.cover[k]]


class Closure:
    """The transitive closure of some transitions of a cell graph.

    ``comp``: each cell's strongly connected component, numbered in the
    order an iterative Tarjan pass emits them; ``bits``: per component,
    the bitset of the components it reaches by a nonempty chain.
    """
    __slots__ = ("comp", "bits", "_ends")

    def __init__(self, fwd: list, dst: list):
        self.comp, self.bits = _close(fwd, dst)
        self._ends = None

    def reaches(self, a: int, b: int) -> bool:
        """Does a nonempty chain lead from cell a to cell b?"""
        return self.bits[self.comp[a]] >> self.comp[b] & 1 == 1

    def ends(self, g: CellGraph) -> tuple:
        """(stop, start, from_start), bitsets of components: those that
        hold a cell where a path may end (one not excluded), those that
        hold one where it may start (neither excluded nor absorbing), and
        those a nonempty chain reaches from a start component."""
        if self._ends is None:
            comp, bits = self.comp, self.bits
            every = stop = start = (1 << len(bits)) - 1
            if g.excluded or g.absorbing:
                stop = start = 0
                for c, n in enumerate(comp):
                    if c not in g.excluded:
                        stop |= 1 << n
                        if c not in g.absorbing:
                            start |= 1 << n
            from_start = reduce(or_, bits if start == every else (
                b for n, b in enumerate(bits) if start >> n & 1), 0)
            self._ends = stop, start, from_start
        return self._ends


def _close(fwd: list, dst: list) -> tuple:
    """Each cell's strongly connected component, numbered in the order an
    iterative Tarjan pass over the transitions in fwd emits them, and per
    component the bitset of the components it reaches.  A component is
    emitted after every component it reaches, so the bitsets it ORs in
    are complete, and its own bit is the highest it can hold."""
    n = len(fwd)
    if not any(fwd):  # no transition: each cell is a component of its own
        return list(range(n)), [0] * n
    index, low, comp, bits = [-1] * n, [0] * n, [-1] * n, []
    stack, count = [], 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(fwd[root]))]
        while work:
            v, ks = work[-1]
            for k in ks:
                w = dst[k]
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(fwd[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    c, members = len(bits), []
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        comp[members[-1]] = c
                    r = 0
                    for u in members:
                        for k in fwd[u]:
                            d = comp[dst[k]]
                            r |= 1 << d
                            if d != c:
                                r |= bits[d]
                    bits.append(r)
    return comp, bits


def compiled(pres: GraphPresentation) -> CellGraph:
    """The cell graph of pres at its own cut values.  It is built once on
    ``normalize(pres)`` and kept on both instances, like the hash, so an
    equal instance never compiles again; pickles drop it."""
    try:
        return pres.__dict__["_cells"]
    except KeyError:
        norm = normalize(pres)
        g = norm.__dict__.get("_cells")
        if g is None:
            g = CellGraph(norm)
        for q in (norm, pres):
            object.__setattr__(q, "_cells", g)
        return g


@lru_cache(maxsize=GRAPH_CACHE_SIZE)
def transitions(pres: GraphPresentation) -> CellGraph:
    """The compiled graph of pres, as a reach question asks for it.

    ``compiled`` alone would do.  This function stays, with its bounded
    cache, because the benchmark harness (``perfbench/spans.py``) wraps
    it to count reach questions and reads its ``cache_info()``; the
    cache keeps the last few graphs, and their presentations, alive."""
    return compiled(pres)


def _search(g: CellGraph, source: int, forward: bool = True) -> dict:
    """The transition by which each cell reached from cell `source` was
    reached (-1 at the source), in breadth-first order.  Backwards
    (``forward=False``) a cell maps to the transition leaving it towards
    the source."""
    adj, ends = (g.fwd, g.dst) if forward else (g.rev, g.src)
    parent = {source: -1}
    queue = deque(parent)
    while queue:
        for k in adj[queue.popleft()]:
            c = ends[k]
            if c in parent:
                continue
            parent[c] = k
            queue.append(c)
    return parent


def _witness(g: CellGraph, x, chain, y) -> CanonicalPath:
    """The path from x to y along a chain of transitions.  A point inside
    an open segment stands for the segment's cell, so the move out of
    (into) such a cell starts at x (ends at y), not at its midpoint."""
    atoms = []
    for n, k in enumerate(chain):
        if n:
            atoms.append(PAUSE)
        atoms.extend(g.atoms(k))
    if g.segment(g.src[chain[0]]) is not None:
        atoms[0] = replace(atoms[0], a=x.t)
    if g.segment(g.dst[chain[-1]]) is not None:
        atoms[-1] = replace(atoms[-1], b=y.t)
    return assemble(x, atoms, y)


# ---------------------------------------------------------------------------
# Point-to-point queries

def _reaches(g: CellGraph, x, y, cx: int, cy: int) -> bool:
    """x ⤳ y, for x ≠ y neither excluded nor blocked in cells cx and cy,
    from the closure of the compiled graph g."""
    if cx == cy:  # two points of one open segment
        return g.held(cx, 1 if y.t > x.t else -1) or g.reaches(cx, cx)
    return g.reaches(cx, cy)


def _graph_reach(pres: GraphPresentation, x, y) -> ReachResult:
    if x == y:
        if flexible_point(pres, x):
            return ReachResult(True, assemble(x, [], x))
        return ReachResult(True, None)
    bad, g = pres.excluded | pres.blocked, transitions(pres)
    if x in bad or y in bad or not _reaches(g, x, y, g.cell(x), g.cell(y)):
        return ReachResult(False)
    return ReachResult(True, build=lambda: _reach_witness(g, x, y))


def _reach_witness(g: CellGraph, x, y) -> CanonicalPath:
    """A controlled path from x to y, for x ⤳ y.  Two points of one open
    segment that a window of their direction holds are one ``Seg``; else
    the path follows a shortest nonempty chain from x's cell to y's."""
    cx, cy = g.cell(x), g.cell(y)
    if cx == cy and g.held(cx, 1 if y.t > x.t else -1):
        return assemble(x, [Seg(x.edge, x.t, y.t)], y)
    parent = _search(g, cx)
    if cx != cy:
        k = parent[cy]
    else:  # the first transition back into the cell, in breadth-first order
        k = next(k for c in parent for k in g.fwd[c] if g.dst[k] == cx)
    chain = []
    while k >= 0:
        chain.append(k)
        k = parent[g.src[k]]
    return _witness(g, x, chain[::-1], y)


def _graph_loop(pres: GraphPresentation, x) -> ReachResult:
    """A nontrivial controlled loop at x, if one exists: its cell lies on
    a cycle, or windows of both directions hold its open segment."""
    if x in pres.excluded or x in pres.blocked:
        return ReachResult(False)
    g = transitions(pres)
    c = g.cell(x)
    if not (g.reaches(c, c) or (g.held(c, 1) and g.held(c, -1))):
        return ReachResult(False)
    return ReachResult(True, build=lambda: _loop_witness(g, x, c))


def _loop_witness(g: CellGraph, x, c: int) -> CanonicalPath:
    """A nontrivial loop at x in cell c, which has one: a first move to
    the cell nearest back to c, then the shortest way back.  When windows
    hold x's open segment both ways and no cell is one move away each
    way, the loop steps to the middle of the piece below x and back."""
    back = _search(g, c, forward=False)
    order = {d: n for n, d in enumerate(back)}
    out = [k for k in g.fwd[c] if g.dst[k] in order]
    first = min(out, key=lambda k: order[g.dst[k]], default=None)
    # is the cell that first leads to one move away from c each way?
    near = first is not None and g.dst[back[g.dst[first]]] == c
    if g.held(c, 1) and g.held(c, -1) and not near:
        mid = (g.value(g.segment(c) - 1) + x.t) / 2
        return assemble(x, [Seg(x.edge, x.t, mid), PAUSE,
                            Seg(x.edge, mid, x.t)], x)
    chain, d = [first], g.dst[first]
    while d != c:
        chain.append(back[d])
        d = g.dst[back[d]]
    return _witness(g, x, chain, x)


def _wait_path(space, p) -> ReachResult:
    """A controlled path staying at p: trivial if p is flexible, else a loop."""
    norm = normalize(space)
    if isinstance(norm, ProductN):
        return _product_reach((norm.left, norm.right), p, p, c_reachable)
    if flexible_point(norm, p):
        return ReachResult(True, assemble(p, [], p))
    return _graph_loop(norm, p)


def _stage_product(w1: CanonicalPath, w2: CanonicalPath) -> CanonicalPath:
    """Move coordinate 1 first, with coordinate 2 at its start, then
    coordinate 2, with coordinate 1 at its end."""
    atoms = []
    for n, (w, still) in enumerate(((w1, w2.start), (w2, w1.end))):
        if n and w1.items and w2.items:
            atoms.append(PAUSE)
        for item in w.items:
            if isinstance(item, Pause):
                atoms.append(PAUSE)
            else:
                atoms += (ProdSeg((seg, still) if n == 0 else (still, seg))
                          for seg in item.segs)
    return assemble(PTuple((w1.start, w2.start)), atoms,
                    PTuple((w1.end, w2.end)))


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
        parts.append(r)
    return ReachResult(True, build=lambda: _staged(*parts))


def _staged(r1: ReachResult, r2: ReachResult) -> Optional[CanonicalPath]:
    """The staged product of the factors' witnesses, if both have one."""
    w1, w2 = r1.witness, r2.witness
    if w1 is None or w2 is None:
        return None
    return _stage_product(w1, w2)


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
    """Must every (c- or d-) path from x to y pass through p?

    Decided on the compiled graph of the space (of its hat in mode
    ``d``).  When x, y and p lie in three cells, p is avoidable if no
    transition over p lies on a chain from x to y.  Two points of one
    open segment, on one side of p, are joined by a window of their
    direction that holds it.  Otherwise ``_avoiding`` searches.
    """
    norm = normalize(hat(space) if mode == "d" else space)
    if not isinstance(norm, GraphPresentation):
        raise UnsupportedConstruction(
            "unavoidable-point queries need a graph presentation")
    g = compiled(norm)
    # a ModelError names a point outside norm
    cx, cy, cp = g.cell(x), g.cell(y), g.cell(p)
    if x == y:
        return p == x
    bad = norm.excluded | norm.blocked
    if x in bad or y in bad or not _reaches(g, x, y, cx, cy):
        raise ModelError("y is not reachable from x")
    if p == x or p == y:
        return True
    over = g.over(cp)
    if cx != cy and cp != cx and cp != cy:
        clo = g.closure()
        comp, bits = clo.comp, clo.bits
        row, goal = bits[comp[cx]], comp[cy]
        if not any((s == cx or row >> comp[s] & 1)
                   and (d == cy or bits[comp[d]] >> goal & 1)
                   for s, d in ((g.src[k], g.dst[k]) for k in over)):
            return False
    # x and y in p's open segment are on its side: -1 below p, -2 above
    start = cx if cx != cp else -1 if x.t < p.t else -2
    target = cy if cy != cp else -1 if y.t < p.t else -2
    if start == target and g.held(cx, 1 if y.t > x.t else -1):
        return False
    return not _avoiding(g, start, target, cp, over)


def _avoiding(g: CellGraph, start: int, target: int, cp: int,
              over: set) -> bool:
    """Does a nonempty chain of transitions that pass no point p of cell
    cp lead from state start to state target?

    The states are the cells, except that when cp is an open segment it
    is two states: -1 below p and -2 above it.  Of the transitions over
    p, one into the segment lands on the side it comes from, one out of
    it leaves from the side it heads to, and the rest are dropped.  The
    search runs depth first, enters only states whose cell reaches the
    target's (a closure bit test) and stops at the target."""
    seg = g.segment(cp)
    land, leave = {}, {-1: [], -2: []}
    if seg is not None:
        for k in over:
            if g.dst[k] == cp:
                land[k] = -1 if g.cover[k][0][0] < seg else -2
            elif g.src[k] == cp:
                leave[-2 if g.cover[k][0][1] > seg else -1].append(g.dst[k])
    clo = g.closure()
    comp, bits = clo.comp, clo.bits
    goal = comp[cp if target < 0 else target]
    seen, todo = {start}, [start]
    while todo:
        u = todo.pop()
        for v in leave[u] if u < 0 else (
                land.get(k) if k in over else g.dst[k] for k in g.fwd[u]):
            if v == target:
                return True
            if (v is not None and v not in seen
                    and bits[comp[cp if v < 0 else v]] >> goal & 1):
                seen.add(v)
                todo.append(v)
    return False


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
        """Representative points, one per cell of the compiled graph
        (graph presentations only)."""
        if not isinstance(self.space, GraphPresentation):
            raise UnsupportedConstruction(
                "cell enumeration needs a graph presentation")
        return compiled(self.space).reps()

    def pairs(self) -> tuple:
        """All (x, y) node-representative pairs with x ⤳ y.

        Read from the closure of the compiled graph of the space (mode
        ``c``) or of its hat (mode ``d``) by the rule of ``_reaches``.  In
        mode ``c`` each representative has a cell of its own.  In mode
        ``d`` several can share an open segment of the hat, and they come
        in the order of their parameters along it.  The representatives
        are kept on the space's graph and their cells on the graph that
        answers.  Excluded and blocked points are cut values, each alone
        in its cell.
        """
        reps = self.nodes()
        norm = normalize(hat(self.space) if self.mode == "d" else self.space)
        g = compiled(norm)
        clo = g.closure()
        cells = g.rep_cells(compiled(self.space))
        comps = [clo.comp[c] for c in cells]
        bad = g.excluded | g.blocked
        good = [c not in bad for c in cells]
        out = []
        for i, (x, c, n) in enumerate(zip(reps, cells, comps)):
            if not good[i]:
                out.append((x, x))
                continue
            row = clo.bits[n]
            out.extend((x, reps[j]) for j in range(len(reps))
                       if j == i or good[j] and (
                           row >> comps[j] & 1 if cells[j] != c
                           else row >> n & 1 or g.held(c, 1 if j > i else -1)))
        return tuple(out)


def reach_relation(space, mode: str = "c") -> ReachRelation:
    return ReachRelation(space, mode)


# ---------------------------------------------------------------------------
# Existence queries (used by point classification)

def existence(pres: GraphPresentation, x, flexible: bool = False) -> tuple:
    """(through, from, to): is there a nontrivial controlled path
    visiting, starting at, ending at x?  With `flexible`, the same in
    ``flexible_part(pres)``, whose moves are the flexible transitions of
    the compiled graph and whose excluded points are blocked.

    Read from a closure of the compiled graph.  A point inside an open
    segment moves as the segment's cell c does, and a window holding
    the segment takes it on in its direction.  So x starts a path iff a
    window holds c or c reaches a cell where a path may stop, and ends
    one iff a window holds c or c is reached from a cell where a path
    may start.  Only when neither holds does ``through`` look for a
    transition over x (``CellGraph.over``) from a start cell, or a cell
    it reaches, to a cell that is or reaches a stop cell: x then lies
    inside one motion.
    """
    if x in pres.blocked or flexible and x in pres.excluded:
        return False, False, False
    g = compiled(pres)
    c = g.cell(x)
    clo = g.closure(flexible)
    comp, bits = clo.comp, clo.bits
    stop, start, from_start = clo.ends(g)
    if x in pres.excluded:
        leaves = arrives = False
    else:
        held = g.held(c, 1) or g.held(c, -1)
        leaves = held or bits[comp[c]] & stop != 0
        arrives = held or from_start >> comp[c] & 1 == 1
    if leaves or arrives:
        return True, leaves, arrives
    begin, flags, src, dst = start | from_start, g.flex, g.src, g.dst
    return (any((flags[k] or not flexible)
                and begin >> comp[src[k]] & 1
                and (stop >> comp[dst[k]] & 1 or bits[comp[dst[k]]] & stop)
                for k in g.over(c)),
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
