"""Independent oracles: membership by a depth-bounded enumeration of
generator-instance concatenations (``brute_force_controlled``), and
reachability by a transitive closure over a grid (``brute_force_reach``
and ``brute_force_unavoidable``, at the end of the module).

The membership oracle shares no code with the engine's parse (``cspaces.membership``), not
even the check that a path's segments chain (``tests/test_imports.py``
holds it to that).  It reads the generator families from
``kinds.kind_generators``, the rigid traces with their edges from
``presentation.bound_rigid`` and the presentation's own fields, and cuts
segments into ``Seg`` tokens at the uniform 1/grid lattice, at the ends
of every generator step and window and at the annotated points.
Fragment instances therefore take their ends from that lattice joined
with the path's own breakpoints.  The oracle agrees with
``is_controlled`` whenever the path admits a parse into at most
``depth`` instances whose fragment ends lie there.

Both oracles read a graph presentation as it is given, with its
absorbing, emitting and blocked points, and apply the filters to a
whole path's motion (``_occurrences_ok``) or to each move
(``brute_force_reach``).  ``presentation.normalize`` would compile those
points into the families, so the oracles check that compilation.
"""

from fractions import Fraction

from cspaces import kinds as K
from cspaces.model import (ONE, PAUSE, ZERO, EdgePoint, ModelError, Pause,
                           PTuple, Seg, Track, Vertex)
from cspaces.presentation import (GraphPresentation, Product, ProductN,
                                  bound_rigid, canonicalize, normalize,
                                  project)


def brute_force_controlled(space, path_or_track, depth: int = 5,
                           grid: int = 8) -> bool:
    """Is the path a concatenation of at most `depth` generator instances
    (pauses aside), with fragment ends on the lattice?"""
    norm = _as_given(space)
    path = canonicalize(path_or_track, norm)
    if not isinstance(path_or_track, Track):
        _check_chain(norm, path)
    return _brute(norm, path, depth, grid)


def _as_given(space):
    """The space with its graph presentations as given, filters and all,
    and anything else in normal form."""
    if isinstance(space, GraphPresentation):
        return space
    if isinstance(space, (Product, ProductN)):
        return ProductN(_as_given(space.left), _as_given(space.right))
    return normalize(space)


def _at(norm, seg, t):
    """Where a segment, or a resting coordinate, is at its start (t = 0)
    or its end (t = 1)."""
    if isinstance(seg, (Vertex, EdgePoint, PTuple)):
        return seg
    if isinstance(norm, ProductN):
        return PTuple((_at(norm.left, seg.parts[0], t),
                       _at(norm.right, seg.parts[1], t)))
    e = next((e for e in norm.edges if e.id == seg.edge), None)
    if e is None:
        raise ModelError(f"unknown edge {seg.edge!r}")
    x = seg.b if t else seg.a
    return Vertex(e.src) if x == ZERO else Vertex(e.dst) if x == ONE \
        else EdgePoint(seg.edge, x)


def _check_chain(norm, path):
    """Raise ModelError unless each segment starts where the last ended
    and the path ends at its end point."""
    cur = path.start
    for item in path.items:
        for seg in () if isinstance(item, Pause) else item.segs:
            if _at(norm, seg, 0) != cur:
                raise ModelError("path breaks")
            cur = _at(norm, seg, 1)
    if cur != path.end:
        raise ModelError("path end point mismatch")


def _brute(norm, path, depth, grid):
    if isinstance(norm, ProductN):
        return all(_brute(f, project(path, norm, i), depth, grid)
                   for i, f in enumerate((norm.left, norm.right)))
    pres = norm
    edges = {e.id: e for e in pres.edges}
    fams = {e.id: K.kind_generators(e.kind) for e in pres.edges}

    def point(edge, t):
        e = edges[edge]
        return Vertex(e.src) if t == ZERO else Vertex(e.dst) if t == ONE \
            else EdgePoint(edge, t)

    if path.is_trivial():
        return _loop_controlled(pres, fams, point, path.start)
    if path.start in pres.excluded or path.end in pres.excluded:
        return False
    toks = _tokens(path, _marks(pres, fams, grid))
    if not _occurrences_ok(pres, path.start, toks, point):
        return False
    gens = bound_rigid(pres)  # the edges' own traces, each bound to its edge
    n = len(toks)
    memo = {}

    def dfs(i, used):
        if i == n:
            return True
        key = (i, used)
        if key not in memo:
            memo[key] = False
            memo[key] = _next(i, used)
        return memo[key]

    def _next(i, used):
        tok = toks[i]
        if isinstance(tok, Pause):
            return dfs(i + 1, used)
        if used >= depth:
            return False
        for tr in gens:
            end = _match(tr, toks, i)
            if end is not None and dfs(end, used + 1):
                return True
        fam = fams[tok.edge]
        j = i
        while j < n and isinstance(toks[j], Seg) and toks[j].edge == tok.edge \
                and toks[j].dir == tok.dir and (j == i or toks[j].a == toks[j - 1].b):
            j += 1
            stretch = toks[i:j]
            lo = min(min(t.a, t.b) for t in stretch)
            hi = max(max(t.a, t.b) for t in stretch)
            if any(f.admits(lo, hi, tok.dir) and tok.a not in f.start_not
                   and toks[j - 1].b not in f.end_not for f in fam.fragments) \
                    and dfs(j, used + 1):
                return True
        return False

    return dfs(0, 0)


def _marks(pres, fams, grid) -> dict:
    """Edge -> the values at which the oracle cuts segments."""
    out = {}
    for e in pres.edges:
        fam = fams[e.id]
        vals = {Fraction(k, grid) for k in range(grid + 1)}
        vals.update(x for tr in fam.rigid for s in tr.steps for x in (s.a, s.b))
        for f in fam.fragments:
            vals.update((f.lo, f.hi, *f.start_not, *f.end_not))
        out[e.id] = vals
    for tr in pres.generators:
        for s in tr.steps:
            out[s.edge].update((s.a, s.b))
    for pts in (pres.flexible, pres.excluded, pres.absorbing, pres.emitting,
                pres.blocked):
        for p in pts:
            if isinstance(p, EdgePoint):
                out[p.edge].add(p.t)
    return out


def _tokens(path, marks) -> list:
    toks = []
    for item in path.items:
        if isinstance(item, Pause):
            toks.append(PAUSE)
            continue
        for seg in item.segs:
            inner = sorted((c for c in marks[seg.edge]
                            if min(seg.a, seg.b) < c < max(seg.a, seg.b)),
                           reverse=seg.dir < 0)
            ends = [seg.a, *inner, seg.b]
            toks.extend(Seg(seg.edge, a, b) for a, b in zip(ends, ends[1:]))
    return toks


def _match(tr, toks, i):
    """The token index after one instance of rigid trace tr whose first
    motion token is toks[i], or None."""
    if 0 in tr.pauses and not (i > 0 and isinstance(toks[i - 1], Pause)):
        return None
    pos = i
    for si, step in enumerate(tr.steps):
        paused = False
        while pos < len(toks) and isinstance(toks[pos], Pause):
            paused = True
            pos += 1
        if si > 0 and si in tr.pauses and not paused:
            return None
        cur = step.a
        while cur != step.b:
            while pos < len(toks) and isinstance(toks[pos], Pause):
                pos += 1
            if pos >= len(toks):
                return None
            tok = toks[pos]
            if tok.edge != step.edge or tok.dir != step.dir or tok.a != cur \
                    or (tok.b - step.b) * step.dir > 0:
                return None
            cur = tok.b
            pos += 1
    if len(tr.steps) in tr.pauses and not (pos < len(toks)
                                           and isinstance(toks[pos], Pause)):
        return None
    return pos


def _occurrences_ok(pres, start, toks, point) -> bool:
    """No blocked point is touched, an absorbing one is only reached at
    the end and an emitting one is only left at the start."""
    moving = [isinstance(t, Seg) for t in toks]
    cur = start
    for i in range(len(toks) + 1):
        if i and moving[i - 1]:
            cur = point(toks[i - 1].edge, toks[i - 1].b)
        if cur in pres.blocked:
            return False
        if cur in pres.absorbing and any(moving[i:]):
            return False
        if cur in pres.emitting and any(moving[:i]):
            return False
    return True


def _loop_controlled(pres, fams, point, p) -> bool:
    """Is the trivial loop at p controlled?"""
    if p in pres.excluded or p in pres.blocked:
        return False
    if p in pres.flexible:
        return True
    for e in pres.edges:
        for t in (ZERO, ONE):
            if point(e.id, t) == p and fams[e.id].instance_end(t):
                return True
    if isinstance(p, EdgePoint) and fams[p.edge].instance_end(p.t):
        return True
    return any(point(tr.steps[0].edge, tr.steps[0].a) == p
               or point(tr.steps[-1].edge, tr.steps[-1].b) == p
               for tr in pres.generators)


# ---------------------------------------------------------------------------
# Reachability

def brute_force_reach(pres, points) -> set:
    """The pairs (x, y) of points of a graph presentation such that a
    controlled path runs from x to y, by transitive closure.

    It shares no code with the engine's reachability
    (``cspaces.reach``; ``tests/test_imports.py`` holds it to that).
    Each edge gets a finite grid: its cut values, read from the
    generator families (``kinds.kind_generators``), the rigid traces
    (``presentation.bound_rigid``) and the annotated points, the given
    points on it, and one point between each two.  A move is a run of a
    window between two grid points, in its direction, or a whole rigid
    trace; no window end, forbidden end or annotated point lies strictly
    between two grid values, so every junction of a path can be moved
    onto the grid.  A move touches no blocked point, passes no absorbing
    point before its end and no emitting point after its start; a path
    neither starts nor ends at an excluded point.  Every point reaches
    itself.
    """
    moves = {}  # point -> the points one move from it reaches
    for run in _moves(pres, points):
        moves.setdefault(run[0], set()).add(run[-1])
    bad = pres.excluded | pres.blocked
    out = set()
    for x in points:
        out.add((x, x))
        if x not in bad:
            seen = _closed(moves, x)
            out.update((x, y) for y in points if y in seen and y not in bad)
    return out


def brute_force_unavoidable(pres, x, y, p) -> bool:
    """Does every controlled path from x to y pass p, for x ≠ y with y
    reachable from x?  The moves of ``brute_force_reach`` whose runs do
    not pass p, closed from x, miss y."""
    moves = {}
    for run in _moves(pres, (x, y, p)):
        if p not in run:
            moves.setdefault(run[0], set()).add(run[-1])
    return y not in _closed(moves, x)


def _closed(moves, x) -> set:
    """The points that a nonempty chain of moves reaches from x."""
    seen, todo = set(), [x]
    while todo:
        for q in moves.get(todo.pop(), ()):
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


def _moves(pres, points) -> list:
    """Each move of ``brute_force_reach`` on the grid of points, as the
    list of the grid points its run passes, in order."""
    edges = {e.id: e for e in pres.edges}
    fams = {e.id: K.kind_generators(e.kind) for e in pres.edges}
    traces = bound_rigid(pres)

    def point(edge, t):
        e = edges[edge]
        return Vertex(e.src) if t == ZERO else Vertex(e.dst) if t == ONE \
            else EdgePoint(edge, t)

    grid = _reach_grid(pres, fams, traces, points)
    out = []

    def move(run):
        pts = [point(edge, t) for edge, t in run]
        if not (any(p in pres.blocked for p in pts)
                or any(p in pres.absorbing for p in pts[:-1])
                or any(p in pres.emitting for p in pts[1:])):
            out.append(pts)

    def stretch(edge, a, b):
        """The grid of edge from a to b, in the order a run passes it."""
        vals = [t for t in grid[edge] if min(a, b) <= t <= max(a, b)]
        return [(edge, t) for t in (vals if a <= b else vals[::-1])]

    for edge, fam in fams.items():
        vals = grid[edge]
        for f in fam.fragments:
            for a in vals:
                for b in vals:
                    if (b - a) * f.dir > 0 and f.admits(a, b, f.dir) \
                            and a not in f.start_not and b not in f.end_not:
                        move(stretch(edge, a, b))
    for tr in traces:
        move([q for s in tr.steps for q in stretch(s.edge, s.a, s.b)])
    return out


def _reach_grid(pres, fams, traces, points) -> dict:
    """Edge id -> its sorted grid values."""
    marks = {e: {ZERO, ONE} for e in fams}
    for e, fam in fams.items():
        for f in fam.fragments:
            marks[e].update((f.lo, f.hi, *f.start_not, *f.end_not))
    for tr in traces:
        for s in tr.steps:
            marks[s.edge].update((s.a, s.b))
    for pts in (points, pres.flexible, pres.excluded, pres.absorbing,
                pres.emitting, pres.blocked):
        for p in pts:
            if isinstance(p, EdgePoint):
                marks[p.edge].add(p.t)
    grid = {}
    for e, vals in marks.items():
        vals = sorted(vals)
        grid[e] = sorted({*vals, *((a + b) / 2 for a, b in zip(vals, vals[1:]))})
    return grid
