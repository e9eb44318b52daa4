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
defines this encoding.  The ranked windows and rigid steps of an edge
live in a parse index stored on the presentation; edges of one kind with
the same cut values share one entry, and the cell graph of ``reach``
lays out its edges from the same entries.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import (ONE, PAUSE, ZERO, CanonicalPath, EdgePoint, ModelError,
                    Pause, Rat, Seg, Track, Vertex)
from .presentation import (GraphPresentation, ProductN, _point_of_seg,
                           canonicalize, cuts, edge_map, edge_of, family,
                           flexible_point, normalize, own_cut_values,
                           pos_point, project)


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


def _file(table: dict, tr, rank: dict) -> None:
    """Add a trace to table under the (edge, d, rank) of its start, as
    (steps, dwell marks, trace); a step is (edge, d, rank a, rank b)."""
    steps = tuple((s.edge, s.dir, rank[s.edge][s.a], rank[s.edge][s.b])
                  for s in tr.steps)
    table.setdefault(steps[0][:3], []).append((steps, tr.pauses, tr))


class _EdgeIndex:
    """The ranked generators of the edges of one kind and one set of cut
    values.

    ``cuts``: the sorted cut values; ``rank``: each of them -> its rank;
    ``fam``: the family of the kind.
    ``wins[d]``: the windows of direction d as (lowest rank, highest rank,
    forbidden start ranks, forbidden end ranks), open ends already taken
    off; windows of direction 0 move nothing and are left out.
    ``rigid``: the family's rigid traces, filed by ``_file`` under
    (None, d, rank); their steps name no edge, and None stands for the
    edge the trace starts on.
    """
    __slots__ = ("cuts", "rank", "fam", "wins", "rigid")

    def __init__(self, fam, cs: tuple):
        self.cuts, self.fam = cs, fam
        rank = self.rank = _ranks(cs)
        self.wins = {1: [], -1: []}
        for f in fam.fragments:
            if f.dir:
                self.wins[f.dir].append((
                    rank[f.lo] + f.lo_open, rank[f.hi] - f.hi_open,
                    frozenset(rank[x] for x in f.start_not),
                    frozenset(rank[x] for x in f.end_not)))
        self.rigid, by_edge = {}, {None: rank}
        for tr in fam.rigid:
            _file(self.rigid, tr, by_edge)


class _ParseIndex:
    """A presentation's edge entries, filled as paths reach their edges,
    and every rigid trace by (edge, d, rank of its start).

    Edges of one kind with the same ``own_cut_values`` (most often none)
    have the same cut values, so they share one entry, and ``cuts`` and
    ``family`` run once per entry, not once per edge.  The cell graph
    (``reach.CellGraph``) fills the entries of every edge it lays out.
    ``rigid`` holds the presentation's generators from the start; when a
    path or the cell graph first reaches an edge, the traces of its entry
    go in front of them.
    """
    __slots__ = ("edges", "shared", "own", "rigid", "__weakref__")

    def __init__(self, pres: GraphPresentation):
        self.edges = {}   # edge id -> _EdgeIndex
        self.shared = {}  # (kind, own cut values) -> _EdgeIndex
        self.own = {e: frozenset(vals)
                    for e, vals in own_cut_values(pres).items()}
        self.rigid = {}   # (edge, d, rank) -> [(steps, dwell marks, trace)]
        rank = {e: _ranks(cuts(pres, e))
                for e in {s.edge for tr in pres.generators for s in tr.steps}}
        for tr in pres.generators:
            _file(self.rigid, tr, rank)


def parse_index(pres: GraphPresentation) -> _ParseIndex:
    """The parse index of pres.  It is kept on pres, like its hash and its
    cell graph, and dropped from pickles."""
    try:
        return pres.__dict__["_parse_index"]
    except KeyError:
        index = _ParseIndex(pres)
        object.__setattr__(pres, "_parse_index", index)
        return index


def _edge_index(index: _ParseIndex, pres, edge: str) -> _EdgeIndex:
    """The entry of an edge that no path has reached yet."""
    key = (edge_of(pres, edge).kind, index.own.get(edge, frozenset()))
    ent = index.shared.get(key)
    if ent is None:
        ent = index.shared[key] = _EdgeIndex(family(pres, edge), cuts(pres, edge))
    index.edges[edge] = ent
    for (_, d, r), own in ent.rigid.items():
        index.rigid[edge, d, r] = own + index.rigid.get((edge, d, r), [])
    return ent


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


def _place(p):
    """A graph point as a vertex name or an (edge, t) pair."""
    if isinstance(p, Vertex):
        return p.name
    if isinstance(p, EdgePoint):
        return p.edge, p.t
    return p


def explode(pres: GraphPresentation, path: CanonicalPath) -> list:
    """Atomic tokens (PAUSE or Token), cut at every cut value of their edge;
    raises ModelError when the path's segments do not chain in pres."""
    index = parse_index(pres)
    edges, emap = index.edges, edge_map(pres)
    toks = []
    cur, prev = _place(path.start), None
    for item in path.items:
        if isinstance(item, Pause):
            toks.append(PAUSE)
            continue
        for seg in item.segs:
            if type(seg) is not Seg:
                raise ModelError("product segment in a graph path")
            edge, a, b = seg.edge, seg.a, seg.b
            cs = (edges.get(edge) or _edge_index(index, pres, edge)).cuts
            # comparing a Fraction with an int is quick; most segments
            # start or end at a vertex
            d = 1 if a == 0 or b == 1 or (a != 1 and b != 0 and a < b) else -1
            lo, hi = (a, b) if d > 0 else (b, a)
            # cuts holds 0 and 1, so 1 <= i and j < len(cs)
            if lo == 0:
                i, rlo = 1, 0
            else:
                i = bisect_right(cs, lo)
                rlo = 2 * i - 2 if cs[i - 1] == lo else 2 * i - 1
            top = 2 * len(cs) - 2
            if hi == 1:
                j, rhi = len(cs) - 1, top
            else:
                j = bisect_left(cs, hi)
                rhi = 2 * j if cs[j] == hi else 2 * j - 1
            ra, rb = (rlo, rhi) if d > 0 else (rhi, rlo)
            # rank 0 is the edge's source vertex, the top rank its target
            e = emap[edge]
            if (e.src if ra == 0 else e.dst if ra == top else (edge, a)) != cur:
                was = path.start if prev is None else pos_point(pres, prev.edge, prev.b)
                raise ModelError(f"path breaks at {was!r} -> "
                                 f"{pos_point(pres, edge, a)!r}")
            cur, prev = e.src if rb == 0 else e.dst if rb == top else (edge, b), seg
            if i == j:
                toks.append(Token(edge, d, a, b, ra, rb))
                continue
            vals = [lo, *cs[i:j], hi]
            ranks = [rlo, *range(2 * i, 2 * j, 2), rhi]
            if d < 0:
                vals.reverse()
                ranks.reverse()
            toks.extend(Token(edge, d, vals[k], vals[k + 1], ranks[k], ranks[k + 1])
                        for k in range(len(vals) - 1))
    if cur != _place(path.end):
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


def boundaries(pres: GraphPresentation, start, toks) -> list:
    """Geometric point before token i, for i in 0..len(toks)."""
    pts = [start]
    for tok in toks:
        pts.append(pts[-1] if tok is PAUSE else pos_point(pres, tok.edge, tok.b))
    return pts


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
# Path-level point constraints

def _occurrence_check(pres, start, toks) -> Optional[object]:
    """Enforce blocked / absorbing / emitting points; returns a violating
    point or None."""
    moves = [i for i, tok in enumerate(toks) if tok is not PAUSE]
    for i, p in enumerate(boundaries(pres, start, toks)):
        if p in pres.blocked:
            return p
        if p in pres.absorbing and i <= moves[-1]:
            return p
        if p in pres.emitting and i > moves[0]:
            return p
    return None


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
    if pres.blocked or pres.absorbing or pres.emitting:
        bad = _occurrence_check(pres, path.start, toks)
        if bad is not None:
            return ParseOutcome(False, fail_at=bad)
    index = parse_index(pres)
    edges, rigid = index.edges, index.rigid
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
        wins = edges[edge].wins[d]
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
        for steps, pauses, tr in rigid.get((edge, d, start), ()):
            end = _match(steps, pauses, toks, i, edge)
            if end is not None and step < dist[end]:
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
