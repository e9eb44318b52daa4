"""Deciding whether a path is controlled.

The engine explodes a canonical path into atomic motion tokens, cut at
every position where a generator-instance boundary can occur (run
boundaries, anchors of the edge kind, explicit trace step endpoints,
annotated points).  A shortest-parse search then covers the tokens by
generator instances: rigid traces matched step by step (with dwell
requirements), flexible-fragment stretches, and sub-runs of
restriction-closed traces.  Pauses move the parse forward for free.

``brute_force_controlled`` is an independent oracle: a depth-bounded
enumeration of generator-instance concatenations with fragment
endpoints drawn from a uniform grid joined with the path's own
breakpoints.  It agrees with the engine whenever the path has a parse
into at most ``depth`` instances.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import (PAUSE, CanonicalPath, Pause, Rat, RigidTrace, Run, Seg,
                    Track)
from .presentation import (GraphPresentation, ProductN, bound_rigid,
                           canonicalize, check_path_geometry, closed_traces,
                           cuts, family, flexible_point, normalize,
                           pos_point, project)


@dataclass(frozen=True)
class ParseOutcome:
    controlled: bool
    instances: tuple = ()
    count: Optional[int] = None
    fail_at: object = None


# ---------------------------------------------------------------------------
# Tokenization

def explode(pres: GraphPresentation, path: CanonicalPath, extra=None):
    """Atomic tokens (PAUSE or Seg) with every potential cut exposed."""
    toks = []
    for item in path.items:
        if isinstance(item, Pause):
            toks.append(PAUSE)
            continue
        for seg in item.segs:
            marks = [c for c in cuts(pres, seg.edge) if seg.lo < c < seg.hi]
            if extra:
                marks += [c for c in extra.get(seg.edge, ()) if seg.lo < c < seg.hi]
            marks = sorted(set(marks), reverse=(seg.dir < 0))
            cur = seg.a
            for c in marks:
                toks.append(Seg(seg.edge, cur, c))
                cur = c
            toks.append(Seg(seg.edge, cur, seg.b))
    return toks


def boundaries(pres: GraphPresentation, start, toks):
    """Geometric point before token i, for i in 0..len(toks)."""
    pts = [start]
    cur = start
    for tok in toks:
        if isinstance(tok, Seg):
            cur = pos_point(pres, tok.edge, tok.b)
        pts.append(cur)
    return pts


# ---------------------------------------------------------------------------
# Instance matching

def match_trace(tr: RigidTrace, toks, i: int) -> Optional[int]:
    """Match a rigid trace instance whose first motion token is toks[i].

    Pauses interleave freely; dwell requirements demand a pause token at
    the marked boundaries (a path-initial boundary has no pause)."""
    if tr.restriction_closed:
        return None
    if 0 in tr.pauses and not (i > 0 and isinstance(toks[i - 1], Pause)):
        return None
    pos = i
    for si, step in enumerate(tr.steps):
        paused_here = False
        while pos < len(toks) and isinstance(toks[pos], Pause):
            paused_here = True
            pos += 1
        if si > 0 and si in tr.pauses and not paused_here:
            return None
        cur = step.a
        while cur != step.b:
            while pos < len(toks) and isinstance(toks[pos], Pause):
                pos += 1
            if pos >= len(toks):
                return None
            tok = toks[pos]
            if not (isinstance(tok, Seg) and tok.edge == step.edge
                    and tok.dir == step.dir and tok.a == cur):
                return None
            # the token must stay within the step
            if step.dir > 0 and tok.b > step.b:
                return None
            if step.dir < 0 and tok.b < step.b:
                return None
            cur = tok.b
            pos += 1
    if len(tr.steps) in tr.pauses:
        if not (pos < len(toks) and isinstance(toks[pos], Pause)):
            return None
    return pos


def fragment_span_ok(fam, lo: Rat, hi: Rat, first: Seg, last: Seg) -> bool:
    """Can one flexible-fragment instance cover the same-edge stretch that
    spans [lo, hi], begins with token `first` and ends with token `last`?"""
    for f in fam.fragments:
        if f.admits(lo, hi, first.dir) and first.a not in f.start_not \
                and last.b not in f.end_not:
            return True
    return False


def closed_token_ok(pres, tok: Seg) -> bool:
    for tr in closed_traces(pres):
        for s in tr.steps:
            if s.edge == tok.edge and s.dir == tok.dir \
                    and min(s.a, s.b) <= tok.lo and tok.hi <= max(s.a, s.b):
                return True
    return False


def _gen_index(pres):
    idx = {}
    for tr in bound_rigid(pres):
        s = tr.steps[0]
        idx.setdefault((s.edge, s.dir, s.a), []).append(tr)
    return idx


# ---------------------------------------------------------------------------
# Path-level point constraints

def _occurrence_check(pres, path, bpts, toks) -> Optional[object]:
    """Enforce blocked / absorbing / emitting points; returns a violating
    point or None."""
    if not (pres.blocked or pres.absorbing or pres.emitting):
        return None
    n = len(toks)
    # suffix_pause[i]: every token from i on is a pause
    tail = [True] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] and isinstance(toks[i], Pause)
    head = [True] * (n + 1)
    for i in range(n):
        head[i + 1] = head[i] and isinstance(toks[i], Pause)
    for i, p in enumerate(bpts):
        if p in pres.blocked:
            return p
        if p in pres.absorbing and not tail[i]:
            return p
        if p in pres.emitting and not head[i]:
            return p
    return None


# ---------------------------------------------------------------------------
# Core graph parse

def graph_parse(pres: GraphPresentation, path: CanonicalPath) -> ParseOutcome:
    if path.is_trivial():
        ok = flexible_point(pres, path.start)
        return ParseOutcome(ok, count=0,
                            fail_at=None if ok else path.start)
    for p in (path.start, path.end):
        if p in pres.excluded:
            return ParseOutcome(False, fail_at=p)
    toks = explode(pres, path)
    bpts = boundaries(pres, path.start, toks)
    bad = _occurrence_check(pres, path, bpts, toks)
    if bad is not None:
        return ParseOutcome(False, fail_at=bad)
    n = len(toks)
    idx = _gen_index(pres)
    INF = n + 10 ** 6
    dist = [INF] * (n + 1)
    parent = [None] * (n + 1)
    dist[0] = 0
    dq = deque([0])
    seen = [False] * (n + 1)
    while dq:
        i = dq.popleft()
        if seen[i]:
            continue
        seen[i] = True
        if i == n:
            break
        tok = toks[i]
        if isinstance(tok, Pause):
            if dist[i] < dist[i + 1]:
                dist[i + 1] = dist[i]
                parent[i + 1] = (i, ("pause",))
                dq.appendleft(i + 1)
            continue

        def relax(j, desc):
            if dist[i] + 1 < dist[j]:
                dist[j] = dist[i] + 1
                parent[j] = (i, desc)
                dq.append(j)

        fam = family(pres, tok.edge)
        if fam.fragments:
            # flexible-fragment stretches; their bounds grow with j
            lo, hi = tok.lo, tok.hi
            j = i
            while j < n and isinstance(toks[j], Seg) and toks[j].edge == tok.edge \
                    and toks[j].dir == tok.dir \
                    and (j == i or toks[j].a == toks[j - 1].b):
                lo, hi = min(lo, toks[j].lo), max(hi, toks[j].hi)
                j += 1
                if fragment_span_ok(fam, lo, hi, tok, toks[j - 1]):
                    relax(j, ("fragment", tok.edge, tok.a, toks[j - 1].b))
        # restriction-closed trace pieces
        if closed_token_ok(pres, tok):
            relax(i + 1, ("trace-fragment", tok.edge, tok.a, tok.b))
        # rigid instances
        for tr in idx.get((tok.edge, tok.dir, tok.a), ()):
            end = match_trace(tr, toks, i)
            if end is not None:
                relax(end, ("rigid", tr))
    if dist[n] >= INF:
        far = max(k for k in range(n + 1) if dist[k] < INF)
        return ParseOutcome(False, fail_at=bpts[far])
    steps = []
    k = n
    while k > 0:
        i, desc = parent[k]
        if desc[0] != "pause":
            steps.append(desc)
        k = i
    return ParseOutcome(True, instances=tuple(reversed(steps)), count=dist[n])


# ---------------------------------------------------------------------------
# Flexible segments

def seg_flexible(pres: GraphPresentation, seg: Seg) -> bool:
    """Is every cut-atom of the segment inside a flexible fragment or a
    step of a restriction-closed trace?"""
    fam = family(pres, seg.edge)
    path = CanonicalPath(pos_point(pres, seg.edge, seg.a), (Run((seg,)),),
                         pos_point(pres, seg.edge, seg.b))
    return all(fragment_span_ok(fam, t.lo, t.hi, t, t)
               or closed_token_ok(pres, t) for t in explode(pres, path))


# ---------------------------------------------------------------------------
# Public entry points

def _ensure_path(norm, path_or_track) -> CanonicalPath:
    if isinstance(path_or_track, Track):
        return canonicalize(path_or_track, norm)
    path = canonicalize(path_or_track, norm)
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


# ---------------------------------------------------------------------------
# Independent oracle

def brute_force_controlled(space, path_or_track, depth: int = 5,
                           grid: int = 8) -> bool:
    """Depth-bounded enumeration of generator-instance concatenations.

    Fragment instances take their endpoints from the uniform 1/grid
    lattice joined with the path's own breakpoints.  Agrees with
    ``is_controlled`` whenever the path admits a parse into at most
    ``depth`` instances whose fragment endpoints lie on that lattice.
    """
    norm = normalize(space)
    path = _ensure_path(norm, path_or_track)
    return _brute_normal(norm, path, depth, grid)


def _brute_normal(norm, path, depth, grid):
    if isinstance(norm, ProductN):
        return all(_brute_normal(f, project(path, norm, i), depth, grid)
                   for i, f in enumerate((norm.left, norm.right)))
    pres = norm
    if path.is_trivial():
        return flexible_point(pres, path.start)
    if path.start in pres.excluded or path.end in pres.excluded:
        return False
    lattice = {e.id: tuple(Fraction(k, grid) for k in range(grid + 1))
               for e in pres.edges}
    toks = explode(pres, path, extra=lattice)
    bpts = boundaries(pres, path.start, toks)
    if _occurrence_check(pres, path, bpts, toks) is not None:
        return False
    n = len(toks)
    gens = bound_rigid(pres)
    memo = {}

    def dfs(i, used):
        if i == n:
            return True
        key = (i, used)
        if key in memo:
            return memo[key]
        memo[key] = False
        tok = toks[i]
        ok = False
        if isinstance(tok, Pause):
            ok = dfs(i + 1, used)
        elif used < depth:
            for tr in gens:
                end = match_trace(tr, toks, i)
                if end is not None and dfs(end, used + 1):
                    ok = True
                    break
            if not ok and closed_token_ok(pres, tok):
                ok = dfs(i + 1, used + 1)
            if not ok:
                fam = family(pres, tok.edge)
                j = i
                while not ok and j < n and isinstance(toks[j], Seg) \
                        and toks[j].edge == tok.edge and toks[j].dir == tok.dir \
                        and (j == i or toks[j].a == toks[j - 1].b):
                    j += 1
                    stretch = toks[i:j]
                    if fragment_span_ok(fam, min(t.lo for t in stretch),
                                        max(t.hi for t in stretch),
                                        stretch[0], stretch[-1]) \
                            and dfs(j, used + 1):
                        ok = True
        memo[key] = ok
        return ok

    return dfs(0, 0)
