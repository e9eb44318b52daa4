"""Deciding whether a path is controlled.

The engine explodes a canonical path into atomic motion tokens, cut at
every cut value of their edge (``presentation.cuts``: run boundaries,
anchors of the edge kind, trace step ends, annotated points), and checks
that its segments chain in the same walk.  A shortest-parse search, one
forward pass over the tokens, then covers them by generator instances:
rigid traces matched step by step (with dwell requirements) and
flexible-fragment stretches.  Pauses move the parse forward for free.

The parse compares integer ranks, not rationals.  On an edge whose cut
values are c_0 < c_1 < ... < c_m, the value c_i has rank 2i and a point
strictly between c_i and c_(i+1) has rank 2i + 1.  Every window bound,
forbidden start or end, and trace step end is a cut value, so ranks
decide each comparison exactly.  ``_ranks`` is the one place that
defines this encoding, and ``rank_of`` its integer form for any value:
an entry keeps its cut values as integer numerators ``nums`` over their
common denominator ``den``, so one ``divmod`` of v·den and one
``bisect`` over ints rank v, for ``explode`` and for the cells of
``reach`` alike.  The ranked windows and rigid steps of an edge
live in a parse index stored on the presentation and built in one pass
over its edges: edges of one kind with the same cut values share one
entry, each entry keeps its kind's rigid traces, and the index keeps
apart only the presentation's generators.  The same pass numbers all
edges' ranks one after another, so a rank plus its edge's offset is a
position, from which the cell graph of ``reach`` lays out its edges.

The parse reads only families: ``presentation.normalize`` compiles the
absorbing, emitting and blocked points into them, so a path that a
filter refuses fails like any other, at its longest parsed prefix.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import lcm
from typing import NamedTuple, Optional

from .model import (ONE, PAUSE, ZERO, CanonicalPath, EdgePoint, ModelError,
                    Pause, Rat, Seg, Track, Vertex)
from .presentation import (GraphPresentation, ProductN, _point_of_seg,
                           canonicalize, cuts, edge_map, family,
                           flexible_point, normalize, outside_support,
                           own_cut_values, pos_point, project)


@dataclass(frozen=True)
class ParseOutcome:
    """``instances``: the shortest parse, in order.  ``("rigid", edge, tr)``
    starts on `edge`, where the steps of an edge's own trace lie;
    ``("fragment", edge, a, b)`` runs from a to b; on a product,
    ``("projection", i, instances)`` parses coordinate i."""
    controlled: bool
    instances: tuple = ()
    count: Optional[int] = None
    fail_at: object = None


# ---------------------------------------------------------------------------
# Ranks and the parse index

def _ranks(cs: tuple) -> dict:
    """Each of the sorted cut values cs -> its rank."""
    return {v: 2 * i for i, v in enumerate(cs)}


def _file(table: dict, key: tuple, steps: tuple, tr) -> None:
    """Add a trace with its ranked steps to table under key.  A step is
    (edge, d, rank a, rank b); the entry is (steps, dwell marks, trace,
    goal), where goal is the end rank of a one-step trace with no dwell
    marks, which the parse matches on its own, and None otherwise."""
    goal = steps[0][3] if len(steps) == 1 and not tr.pauses else None
    table[key] = table.get(key, ()) + ((steps, tr.pauses, tr, goal),)


class _EdgeIndex:
    """The ranked generators of the edges of one kind and one set of cut
    values.

    ``cuts``: the sorted cut values; ``rank``: each of them -> its rank;
    ``den``, ``nums``: their common denominator and their numerators over
    it, for ``rank_of``; ``top``: the rank of 1; ``fam``: the family of
    the kind.
    ``wins[d]``: the windows of direction d as (lowest rank, highest rank,
    forbidden start ranks, forbidden end ranks), open ends already taken
    off; windows of direction 0 move nothing and are left out.
    ``rigid``: the family's rigid traces, filed by ``_file`` under (d,
    rank of the start); their steps name no edge, and None stands for
    the edge the trace starts on.
    """
    __slots__ = ("cuts", "rank", "den", "nums", "top", "fam", "wins", "rigid")

    def __init__(self, fam, cs: tuple):
        self.cuts, self.fam = cs, fam
        rank = self.rank = _ranks(cs)
        ratios = [v.as_integer_ratio() for v in cs]
        den = self.den = lcm(*(q for _, q in ratios))
        self.nums = tuple(p * (den // q) for p, q in ratios)
        self.top = 2 * len(cs) - 2
        self.wins = {1: [], -1: []}
        for f in fam.fragments:
            if f.dir:
                self.wins[f.dir].append((
                    rank[f.lo] + f.lo_open, rank[f.hi] - f.hi_open,
                    frozenset(rank[x] for x in f.start_not),
                    frozenset(rank[x] for x in f.end_not)))
        self.rigid = {}
        for tr in fam.rigid:
            steps = tuple((None, s.dir, rank[s.a], rank[s.b]) for s in tr.steps)
            _file(self.rigid, steps[0][1:3], steps, tr)


class _ParseIndex:
    """A presentation's edge entries, built in one pass over its edges,
    and its generators by (edge, d, rank of their start).

    ``edges``: edge id -> its entry.  Edges of one kind with the same
    ``own_cut_values`` (most often none) have the same cut values, so they
    share one entry (``shared``: (kind, own cut values) -> entry), and
    ``cuts`` and ``family`` run once per entry, not once per edge.  Each
    entry keeps its family's rigid traces; ``rigid`` holds only the
    presentation's generators, whose steps name their edges.
    ``offset``: edge id -> the position of its rank 0, the edges' ranks
    numbered one after another.  The cell graph (``reach.CellGraph``)
    lays out its edges from the entries and the offsets.  Raises
    ModelError for an excluded point outside the support.
    """
    __slots__ = ("edges", "shared", "rigid", "offset", "__weakref__")

    def __init__(self, pres: GraphPresentation):
        self.edges = edges = {}
        self.shared = shared = {}
        self.offset = offset = {}
        at = 0
        own = own_cut_values(pres)
        for e in pres.edges:
            key = (e.kind, frozenset(own.get(e.id, ())))
            ent = shared.get(key)
            if ent is None:
                ent = shared[key] = _EdgeIndex(family(pres, e.id),
                                               cuts(pres, e.id))
            edges[e.id] = ent
            offset[e.id] = at
            at += ent.top + 1
        self.rigid = {}  # (edge, d, rank) -> the entries of _file
        for tr in pres.generators:
            steps = []
            for s in tr.steps:
                ent = edges.get(s.edge)
                if ent is None:
                    raise ModelError(f"unknown edge {s.edge!r}")
                steps.append((s.edge, s.dir, ent.rank[s.a], ent.rank[s.b]))
            _file(self.rigid, steps[0][:3], tuple(steps), tr)
        for message in outside_support(pres, ("excluded",)):
            raise ModelError(message)


def rank_of(ent: _EdgeIndex, v) -> int:
    """The rank of v, 0 <= v <= 1, among the cut values of entry ent.  The
    floor n of v·den is found with one ``divmod``: v is the cut value n /
    den when nothing remains and n is a numerator, and otherwise lies
    strictly after the last numerator <= n.  ``as_integer_ratio`` reads
    an int, a float or a Fraction exactly."""
    p, q = v.as_integer_ratio()
    n, rest = divmod(p * ent.den, q)
    nums = ent.nums
    i = bisect_right(nums, n)
    return 2 * i - 2 if not rest and nums[i - 1] == n else 2 * i - 1


def parse_index(pres: GraphPresentation) -> _ParseIndex:
    """The parse index of pres.  It is kept on pres, like its hash and its
    cell graph, and dropped from pickles."""
    try:
        return pres.__dict__["_parse_index"]
    except KeyError:
        index = _ParseIndex(pres)
        object.__setattr__(pres, "_parse_index", index)
        return index


# ---------------------------------------------------------------------------
# Tokenization

class Token(NamedTuple):
    """Monotone motion from a to b on one edge that crosses no cut value;
    ra and rb are the ranks of a and b."""
    edge: str
    dir: int
    a: Rat
    b: Rat
    ra: int
    rb: int


_new = tuple.__new__  # builds a Token without its Python-level __new__


def explode(pres: GraphPresentation, path: CanonicalPath) -> list:
    """Atomic tokens (PAUSE or Token), cut at every cut value of their edge;
    raises ModelError when the path's segments do not chain in pres."""
    edges, emap = parse_index(pres).edges, edge_map(pres)
    toks = []
    add = toks.append
    # where the path is: at the vertex named `at`, or, with `at` None,
    # inside edge `on` at t of rank r (a start off the graph chains with
    # nothing, and the rank of a start inside an edge is found when used)
    p = path.start
    if isinstance(p, EdgePoint):
        at, on, t, r = None, p.edge, p.t, None
    else:
        at, on, t, r = p.name if isinstance(p, Vertex) else p, None, None, None
    prev = None
    for item in path.items:
        if isinstance(item, Pause):
            add(PAUSE)
            continue
        for seg in item.segs:
            if type(seg) is not Seg:
                raise ModelError("product segment in a graph path")
            edge, a, b = seg.edge, seg.a, seg.b
            ent = edges.get(edge)
            if ent is None:
                raise ModelError(f"unknown edge {edge!r}")
            top, cs, e = ent.top, ent.cuts, emap[edge]
            # the segment starts where the path is: inside the edge where
            # the last one stopped, or at an end of the edge, rank 0 at its
            # source vertex and the top rank at its target
            if at is None:
                ok = on == edge and (t is a or t == a)
                if ok and r is None:
                    r = rank_of(ent, a)
                ra = r
            elif a == 0:
                ok, ra = at == e.src, 0
            else:
                ok, ra = a == 1 and at == e.dst, top
            if not ok:
                was = path.start if prev is None else pos_point(pres, prev.edge, prev.b)
                raise ModelError(f"path breaks at {was!r} -> "
                                 f"{pos_point(pres, edge, a)!r}")
            # an end inside an edge without interior cut values lies in
            # its one open segment, rank 1
            if b == 1:
                rb, at = top, e.dst
            elif b == 0:
                rb, at = 0, e.src
            else:
                rb = 1 if top == 2 else rank_of(ent, b)
                at, on, t, r = None, edge, b, rb
            prev = seg
            # the cut values strictly inside the segment are cs[i:j]
            if ra < rb or (ra == rb and a < b):
                d, i, j = 1, (ra + 2) >> 1, (rb + 1) >> 1
            else:
                d, i, j = -1, (rb + 2) >> 1, (ra + 1) >> 1
            if i == j:
                add(_new(Token, (edge, d, a, b, ra, rb)))
                continue
            if d > 0:
                vals = [a, *cs[i:j], b]
                ranks = [ra, *range(2 * i, 2 * j, 2), rb]
            else:
                vals = [a, *cs[j - 1:i - 1:-1], b]
                ranks = [ra, *range(2 * j - 2, 2 * i - 2, -2), rb]
            toks.extend(_new(Token, (edge, d, vals[k], vals[k + 1],
                                     ranks[k], ranks[k + 1]))
                        for k in range(len(vals) - 1))
    end = path.end
    if isinstance(end, EdgePoint):
        ok = at is None and (on, t) == (end.edge, end.t)
    else:
        ok = at == (end.name if isinstance(end, Vertex) else end)
    if not ok:
        raise ModelError("path end point mismatch")
    return toks


def check_path_geometry(space, path: CanonicalPath):
    """Raise if the path's segments do not chain together in the space."""
    norm = normalize(space)
    if isinstance(norm, GraphPresentation):
        explode(norm, path)
        return
    cur = path.start
    for item in path.items:
        if isinstance(item, Pause):
            continue
        for seg in item.segs:
            if isinstance(seg, Seg):
                raise ModelError("graph segment in a product path")
            here = _point_of_seg(norm, seg, ZERO)
            if here != cur:
                raise ModelError(f"path breaks at {cur!r} -> {here!r}")
            cur = _point_of_seg(norm, seg, ONE)
    if cur != path.end:
        raise ModelError("path end point mismatch")


def _point_before(pres, start, toks, k: int):
    """The point of the path before token k."""
    for tok in reversed(toks[:k]):
        if tok is not PAUSE:
            return pos_point(pres, tok.edge, tok.b)
    return start


# ---------------------------------------------------------------------------
# Instance matching

def _match(steps, pauses, toks, i: int, edge: str) -> Optional[int]:
    """Match a ranked rigid trace whose first motion token is toks[i], on
    `edge`; returns the index after its last token, or None.

    Pauses interleave freely; dwell requirements demand a pause token at
    the marked boundaries (a path-initial boundary has no pause)."""
    n = len(toks)
    if 0 in pauses and not (i > 0 and toks[i - 1] is PAUSE):
        return None
    pos = i
    for si, (e, d, cur, rb) in enumerate(steps):
        e = e or edge
        paused = False
        while pos < n and toks[pos] is PAUSE:
            paused = True
            pos += 1
        if si and si in pauses and not paused:
            return None
        while cur != rb:
            while pos < n and toks[pos] is PAUSE:
                pos += 1
            if pos >= n:
                return None
            tok = toks[pos]
            # the token must follow on from cur and stay within the step
            if tok.edge != e or tok.dir != d or tok.ra != cur \
                    or (tok.rb - rb) * d > 0:
                return None
            cur = tok.rb
            pos += 1
    if len(steps) in pauses and not (pos < n and toks[pos] is PAUSE):
        return None
    return pos


def _window_ok(wins, lo: int, hi: int, start: int, end: int) -> bool:
    """Does one ranked window admit a stretch over ranks [lo, hi] that
    starts at rank `start` and ends at rank `end`?"""
    for wlo, whi, start_not, end_not in wins:
        if wlo <= lo and hi <= whi and start not in start_not \
                and end not in end_not:
            return True
    return False


# ---------------------------------------------------------------------------
# Core graph parse

def graph_parse(pres: GraphPresentation, path: CanonicalPath) -> ParseOutcome:
    toks = explode(pres, path)
    if path.is_trivial():
        ok = flexible_point(pres, path.start)
        return ParseOutcome(ok, count=0,
                            fail_at=None if ok else path.start)
    for p in (path.start, path.end):
        if p in pres.excluded:
            return ParseOutcome(False, fail_at=p)
    index = parse_index(pres)
    edges, gens = index.edges, index.rigid
    n = len(toks)
    INF = n + 10 ** 6
    dist = [INF] * (n + 1)
    parent = [None] * (n + 1)
    dist[0] = 0
    # every instance ends after the token it starts at, so token order is
    # a topological order and one forward pass finds the shortest parse
    for i, tok in enumerate(toks):
        if dist[i] >= INF:
            continue
        if tok is PAUSE:
            if dist[i] < dist[i + 1]:
                dist[i + 1] = dist[i]
                parent[i + 1] = (i, ("pause",))
            continue
        step = dist[i] + 1
        edge, d, start = tok.edge, tok.dir, tok.ra
        ent = edges[edge]
        wins = ent.wins[d]
        if wins:
            # flexible-fragment stretches: consecutive tokens on the edge
            # in direction d whose ranks chain (a loop edge's two ends,
            # 0 and 1, have different ranks)
            j, last = i, tok
            while True:
                j += 1
                lo, hi = (start, last.rb) if d > 0 else (last.rb, start)
                if step < dist[j] and _window_ok(wins, lo, hi, start, last.rb):
                    dist[j] = step
                    parent[j] = (i, ("fragment", edge, tok.a, last.b))
                if j == n:
                    break
                nxt = toks[j]
                if nxt is PAUSE or nxt.edge != edge or nxt.dir != d \
                        or nxt.ra != last.rb:
                    break
                last = nxt
        # rigid instances: the edge's own traces first, then the generators
        traces = ent.rigid.get((d, start), ())
        if gens:
            traces += gens.get((edge, d, start), ())
        for steps, pauses, tr, goal in traces:
            if goal is None:
                end = _match(steps, pauses, toks, i, edge)
                if end is None:
                    continue
            else:
                # one step, no dwell marks: tokens that follow on from
                # this one, pauses aside, until they reach the goal rank
                cur, end = tok.rb, i + 1
                while cur != goal and (cur - goal) * d < 0:
                    while end < n and toks[end] is PAUSE:
                        end += 1
                    if end == n:
                        break
                    nxt = toks[end]
                    if nxt.edge != edge or nxt.dir != d or nxt.ra != cur:
                        break
                    cur = nxt.rb
                    end += 1
                if cur != goal:
                    continue
            if step < dist[end]:
                dist[end] = step
                parent[end] = (i, ("rigid", edge, tr))
    if dist[n] >= INF:
        far = max(k for k in range(n + 1) if dist[k] < INF)
        return ParseOutcome(False, fail_at=_point_before(pres, path.start, toks, far))
    steps = []
    k = n
    while k > 0:
        i, desc = parent[k]
        if desc[0] != "pause":
            steps.append(desc)
        k = i
    return ParseOutcome(True, instances=tuple(reversed(steps)), count=dist[n])


# ---------------------------------------------------------------------------
# Public entry points

def _ensure_path(norm, path_or_track) -> CanonicalPath:
    # explode checks a graph path; a product path's projections forget
    # where a resting coordinate rests, so it is checked here
    path = canonicalize(path_or_track, norm)
    if isinstance(norm, ProductN) and not isinstance(path_or_track, Track):
        check_path_geometry(norm, path)
    return path


def parse_controlled(space, path_or_track) -> ParseOutcome:
    norm = normalize(space)
    path = _ensure_path(norm, path_or_track)
    return _parse_normal(norm, path)


def _parse_normal(norm, path: CanonicalPath) -> ParseOutcome:
    if isinstance(norm, ProductN):
        subs = []
        for i, factor in enumerate((norm.left, norm.right)):
            sub = _parse_normal(factor, project(path, norm, i))
            if not sub.controlled:
                return ParseOutcome(False, fail_at=sub.fail_at)
            subs.append(sub)
        count = max(s.count for s in subs if s.count is not None)
        return ParseOutcome(True,
                            instances=tuple(("projection", i, s.instances)
                                            for i, s in enumerate(subs)),
                            count=count)
    return graph_parse(norm, path)


def is_controlled(space, path_or_track) -> bool:
    return parse_controlled(space, path_or_track).controlled
