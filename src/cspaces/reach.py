"""Reachability along controlled and generated-d-space paths.

The engine abstracts a graph presentation into *cells*: vertices, marked
edge positions (generator boundaries, annotations, query points) and the
open segments between them.  Every generator family contributes
transitions between cells, each carrying the set of cells it covers and
a concrete witness piece.  Reachability is breadth-first search over
this cell graph; witnesses concatenate the pieces with pauses between
them (pauses can always be inserted, so this never breaks membership).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .construct import hat
from .model import (ONE, PAUSE, ZERO, CanonicalPath, EdgePoint, ModelError,
                    ProdSeg, PTuple, Rat, Seg, UnsupportedConstruction,
                    Vertex, assemble)
from .presentation import (GraphPresentation, HatProductN, ProductN,
                           cuts, edge_map, family, flexible_point,
                           is_flexible_point, normalize, point_positions,
                           trace_end, trace_path, trace_start)


@dataclass(frozen=True)
class ReachResult:
    ok: bool
    witness: Optional[CanonicalPath] = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class Transition:
    src: tuple
    dst: tuple
    cover: frozenset   # of cells touched, including src and dst
    atoms: tuple       # concrete witness atoms (Seg / Pause)
    label: str


# ---------------------------------------------------------------------------
# Cells

def _cutvals(pres: GraphPresentation, edge: str, extra: frozenset) -> tuple:
    vals = set(cuts(pres, edge))
    vals.update(t for e, t in extra if e == edge)
    return tuple(sorted(vals))


def _val_node(pres: GraphPresentation, edge: str, t: Rat) -> tuple:
    e = edge_map(pres)[edge]
    if t == ZERO:
        return ("v", e.src)
    if t == ONE:
        return ("v", e.dst)
    return ("p", edge, t)


def node_for(pres: GraphPresentation, p, extra: frozenset = frozenset()):
    if isinstance(p, Vertex):
        if p.name not in pres.vertices:
            raise ModelError(f"unknown vertex {p.name!r}")
        return ("v", p.name)
    if isinstance(p, EdgePoint):
        vals = _cutvals(pres, p.edge, extra)
        if p.t in vals:
            return _val_node(pres, p.edge, p.t)
        for i in range(len(vals) - 1):
            if vals[i] < p.t < vals[i + 1]:
                return ("s", p.edge, i)
    raise ModelError(f"not a point of this space: {p!r}")


def node_point(pres: GraphPresentation, node: tuple, extra: frozenset):
    """A representative point of a cell (midpoint for open segments)."""
    kind = node[0]
    if kind == "v":
        return Vertex(node[1])
    if kind == "p":
        return EdgePoint(node[1], node[2])
    _, edge, i = node
    vals = _cutvals(pres, edge, extra)
    return EdgePoint(edge, (vals[i] + vals[i + 1]) / 2)


def _edge_cells(pres: GraphPresentation, edge: str, extra: frozenset):
    """Alternating (node, value) cells along an edge, ascending."""
    vals = _cutvals(pres, edge, extra)
    out = [(_val_node(pres, edge, vals[0]), vals[0])]
    for i in range(len(vals) - 1):
        mid = (vals[i] + vals[i + 1]) / 2
        out.append((("s", edge, i), mid))
        out.append((_val_node(pres, edge, vals[i + 1]), vals[i + 1]))
    return out


def _window_cells(pres, edge, extra, frag):
    cells = [(n, v) for n, v in _edge_cells(pres, edge, extra)
             if frag.lo <= v <= frag.hi]
    if frag.lo_open and cells and cells[0][1] == frag.lo:
        cells = cells[1:]
    if frag.hi_open and cells and cells[-1][1] == frag.hi:
        cells = cells[:-1]
    if frag.dir < 0:
        cells = list(reversed(cells))
    return cells


def _pair_transitions(edge, cells, frag, label):
    out = []
    for i in range(len(cells)):
        ni, vi = cells[i]
        if ni[0] != "s" and vi in frag.start_not:
            continue
        for j in range(i + 1, len(cells)):
            nj, vj = cells[j]
            if nj[0] != "s" and vj in frag.end_not:
                continue
            cover = frozenset(n for n, _ in cells[i:j + 1])
            out.append(Transition(ni, nj, cover,
                                  (Seg(edge, vi, vj),), label))
    return out


def _trace_cells(pres, tr, extra):
    """Cells along a whole trace, with per-cell (step_index, value)."""
    seq = []
    for k, s in enumerate(tr.steps):
        lo, hi = min(s.a, s.b), max(s.a, s.b)
        cells = [(n, v) for n, v in _edge_cells(pres, s.edge, extra)
                 if lo <= v <= hi]
        if s.b < s.a:
            cells = list(reversed(cells))
        for idx, (n, v) in enumerate(cells):
            if seq and idx == 0:
                continue  # junction cell already present from previous step
            seq.append((n, k, v))
    return seq


def _trace_atoms(tr, seq, i, j):
    """Witness atoms for moving along the trace from seq[i] to seq[j]."""
    atoms = []
    cur_k = seq[i][1]
    cur_v = seq[i][2]
    for pos in range(i + 1, j + 1):
        _, k, v = seq[pos]
        if k != cur_k:
            end_v = tr.steps[cur_k].b
            if end_v != cur_v:
                atoms.append(Seg(tr.steps[cur_k].edge, cur_v, end_v))
            cur_k = k
            cur_v = tr.steps[k].a
        if pos == j and v != cur_v:
            atoms.append(Seg(tr.steps[k].edge, cur_v, v))
    return tuple(atoms)


def _closed_transitions(pres, tr, extra):
    seq = _trace_cells(pres, tr, extra)
    out = []
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            cover = frozenset(n for n, _, _ in seq[i:j + 1])
            atoms = _trace_atoms(tr, seq, i, j)
            if atoms:
                out.append(Transition(seq[i][0], seq[j][0], cover, atoms,
                                      "closed"))
    return out


def _rigid_transition(pres, tr, extra):
    seq = _trace_cells(pres, tr, extra)
    cover = frozenset(n for n, _, _ in seq)
    path = trace_path(pres, tr)
    atoms = tuple(path.items)
    return Transition(node_for(pres, trace_start(pres, tr), extra),
                      node_for(pres, trace_end(pres, tr), extra),
                      cover, atoms, "rigid")


def _annot_nodes(pres, points, extra):
    out = set()
    for p in points:
        try:
            out.add(node_for(pres, p, extra))
        except ModelError:
            pass
    return out


@lru_cache(maxsize=None)
def transitions(pres: GraphPresentation, extra: frozenset = frozenset()):
    """All cell transitions, filtered for blocked/absorbing/emitting."""
    out = []
    for e in pres.edges:
        fam = family(pres, e.id)
        for frag in fam.fragments:
            cells = _window_cells(pres, e.id, extra, frag)
            out.extend(_pair_transitions(e.id, cells, frag, "fragment"))
        for tr in fam.rigid:
            out.append(_rigid_transition(pres, tr, extra))
    for tr in pres.generators:
        if tr.restriction_closed:
            out.extend(_closed_transitions(pres, tr, extra))
        else:
            out.append(_rigid_transition(pres, tr, extra))
    blocked = _annot_nodes(pres, pres.blocked, extra)
    absorbing = _annot_nodes(pres, pres.absorbing, extra)
    emitting = _annot_nodes(pres, pres.emitting, extra)
    kept = []
    for t in out:
        if t.cover & blocked:
            continue
        if any(a != t.dst for a in t.cover & absorbing):
            continue
        if any(m != t.src for m in t.cover & emitting):
            continue
        kept.append(t)
    return tuple(kept)


def _adjacency(trans):
    adj = {}
    for t in trans:
        adj.setdefault(t.src, []).append(t)
    for lst in adj.values():
        lst.sort(key=lambda t: (t.label, repr(t.atoms), repr(t.dst)))
    return adj


def _bfs(trans, source, avoid=frozenset()):
    """Shortest transition chains from source; returns parent map."""
    adj = _adjacency(trans)
    parent = {source: None}
    q = deque([source])
    while q:
        u = q.popleft()
        for t in adj.get(u, ()):
            if t.dst in parent or t.dst in avoid or (t.cover & avoid):
                continue
            parent[t.dst] = t
            q.append(t.dst)
    return parent


def _reached_nontrivially(trans, source):
    """Nodes reachable from source via at least one transition."""
    adj = _adjacency(trans)
    reached = set()
    q = deque([source])
    while q:
        u = q.popleft()
        for t in adj.get(u, ()):
            if t.dst not in reached:
                reached.add(t.dst)
                q.append(t.dst)
    return reached


def _chain_path(pres, extra, source_point, parent, target):
    """Assemble a witness from the BFS parent chain ending at target."""
    chain = []
    node = target
    while parent[node] is not None:
        t = parent[node]
        chain.append(t)
        node = t.src
    chain.reverse()
    atoms = []
    for i, t in enumerate(chain):
        if i:
            atoms.append(PAUSE)
        atoms.extend(t.atoms)
    end = node_point(pres, target, extra)
    return assemble(source_point, atoms, end)


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
    extra = frozenset((e, t) for p in (x, y)
                      for e, t in point_positions(pres, p)
                      if t != ZERO and t != ONE)
    trans = transitions(pres, extra)
    nx, ny = node_for(pres, x, extra), node_for(pres, y, extra)
    parent = _bfs(trans, nx)
    if ny not in parent:
        return ReachResult(False)
    return ReachResult(True, _chain_path(pres, extra, x, parent, ny))


def _graph_loop(pres: GraphPresentation, x) -> ReachResult:
    """A nontrivial controlled loop at x, if one exists."""
    if x in pres.excluded or x in pres.blocked:
        return ReachResult(False)
    extra = frozenset((e, t) for e, t in point_positions(pres, x)
                      if t != ZERO and t != ONE)
    trans = transitions(pres, extra)
    nx = node_for(pres, x, extra)
    adj = _adjacency(trans)
    best = None
    for t in adj.get(nx, ()):
        if t.dst == nx:
            return ReachResult(True, assemble(x, list(t.atoms), x))
        back = _bfs(trans, t.dst)
        if nx in back:
            tail = _chain_path(pres, extra, node_point(pres, t.dst, extra),
                               back, nx)
            atoms = list(t.atoms) + [PAUSE] + list(tail.items)
            cand = assemble(x, atoms, x)
            if best is None or len(cand.items) < len(best.items):
                best = cand
    return ReachResult(best is not None, best)


def _wait_path(space, p) -> ReachResult:
    """A controlled path staying at p: trivial if p is flexible, else a loop."""
    norm = normalize(space)
    if isinstance(norm, GraphPresentation):
        if flexible_point(norm, p):
            return ReachResult(True, assemble(p, [], p))
        return _graph_loop(norm, p)
    raise UnsupportedConstruction("waiting needs a graph factor")


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
    if isinstance(norm, GraphPresentation):
        return _graph_reach(norm, x, y)
    if isinstance(norm, ProductN):
        if x == y:
            return ReachResult(True, _trivial_if_flex(norm, x))
        return _product_reach((norm.left, norm.right), x, y, c_reachable)
    if isinstance(norm, HatProductN):
        if x == y:
            return ReachResult(True, _trivial_if_flex(norm, x))
        return _product_reach((norm.hat_left, norm.hat_right), x, y,
                              c_reachable)
    raise UnsupportedConstruction("reachability needs a normalized space")


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
    base = _graph_reach(norm, x, y)
    if not base.ok:
        raise ModelError("y is not reachable from x")
    if p == x or p == y:
        return True
    if x == y:
        return False
    extra = frozenset((e, t) for q in (x, y, p)
                      for e, t in point_positions(norm, q)
                      if t != ZERO and t != ONE)
    trans = transitions(norm, extra)
    np_, nx, ny = (node_for(norm, p, extra), node_for(norm, x, extra),
                   node_for(norm, y, extra))
    parent = _bfs(trans, nx, avoid=frozenset({np_}))
    return ny not in parent


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
        seen, out = set(), []
        for v in sorted(pres.vertices):
            seen.add(("v", v))
            out.append(Vertex(v))
        for e in pres.edges:
            for n, val in _edge_cells(pres, e.id, frozenset()):
                if n not in seen:
                    seen.add(n)
                    out.append(EdgePoint(e.id, val))
        return tuple(out)

    def pairs(self) -> tuple:
        """All (x, y) node-representative pairs with x ⤳ y."""
        reps = self.nodes()
        return tuple((x, y) for x in reps for y in reps if self.holds(x, y))


def reach_relation(space, mode: str = "c") -> ReachRelation:
    return ReachRelation(space, mode)


# ---------------------------------------------------------------------------
# Existence queries (used by point classification)

def _stop_ok(pres, node, extra) -> bool:
    if node[0] == "s":
        return True
    return node_point(pres, node, extra) not in pres.excluded


def _start_ok(pres, node, extra) -> bool:
    if node[0] == "s":
        return True
    p = node_point(pres, node, extra)
    return p not in pres.excluded and p not in pres.absorbing


def _query_extra(pres, x):
    return frozenset((e, t) for e, t in point_positions(pres, x)
                     if t != ZERO and t != ONE)


def exists_c_from(pres: GraphPresentation, x) -> bool:
    """Is there a nontrivial controlled path starting at x?"""
    if x in pres.excluded or x in pres.blocked:
        return False
    extra = _query_extra(pres, x)
    trans = transitions(pres, extra)
    reached = _reached_nontrivially(trans, node_for(pres, x, extra))
    return any(_stop_ok(pres, n, extra) for n in reached)


def exists_c_to(pres: GraphPresentation, x) -> bool:
    """Is there a nontrivial controlled path ending at x?"""
    if x in pres.excluded or x in pres.blocked:
        return False
    extra = _query_extra(pres, x)
    trans = transitions(pres, extra)
    rev = tuple(Transition(t.dst, t.src, t.cover, t.atoms, t.label)
                for t in trans)
    reached = _reached_nontrivially(rev, node_for(pres, x, extra))
    return any(_start_ok(pres, n, extra) for n in reached)


def exists_c_through(pres: GraphPresentation, x) -> bool:
    """Is there a nontrivial controlled path visiting x?"""
    if x in pres.blocked:
        return False
    if exists_c_from(pres, x) or exists_c_to(pres, x):
        return True
    extra = _query_extra(pres, x)
    trans = transitions(pres, extra)
    nx = node_for(pres, x, extra)
    startable = set()
    for t in trans:
        if _start_ok(pres, t.src, extra):
            startable.add(t.src)
    for seed in list(startable):
        for n in _bfs(trans, seed):
            startable.add(n)
    rev = tuple(Transition(t.dst, t.src, t.cover, t.atoms, t.label)
                for t in trans)
    stoppable = set()
    for t in trans:
        if _stop_ok(pres, t.dst, extra):
            stoppable.add(t.dst)
    for seed in list(stoppable):
        for n in _bfs(rev, seed):
            stoppable.add(n)
    for t in trans:
        if nx in t.cover and t.src in startable and t.dst in stoppable:
            return True
    return False
