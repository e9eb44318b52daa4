"""Reachability: witnesses, generated-path preorder, unavoidable points."""

import bisect
import hashlib
import pickle
import random
import zlib
from dataclasses import replace
from fractions import Fraction as F

import pytest

from cspaces import kinds as K
from cspaces import classify, construct, membership, presentation, reach
from cspaces.classify import classify_point
from cspaces.construct import (exclude_endpoints, flexible_part, hat,
                               opposite, product)
from cspaces.corpus import build, names
from cspaces.kinds import Family, Fragment
from cspaces.membership import is_controlled
from cspaces.model import (EdgePoint, ModelError, PTuple, RigidTrace, Seg,
                           TraceStep, Vertex, assemble)
from cspaces.presentation import (Edge, GraphPresentation, cuts, normalize,
                                  pos_point)
from cspaces.reach import (c_reachable, d_reachable, exists_c_from,
                           exists_c_through, exists_c_to, reach_relation,
                           unavoidable_point)

from helpers import OPEN_WINDOWS, Z, O, H, after, cut_at, interval
from oracle import brute_force_reach
from sampling import random_graph_path

V0, V1 = Vertex("v0"), Vertex("v1")


class TestOneJumpInterval:
    sp = build("c_interval")

    def test_bottom_reaches_top_with_witness(self):
        r = c_reachable(self.sp, V0, V1)
        assert r
        assert is_controlled(self.sp, r.witness)

    def test_top_does_not_reach_bottom(self):
        assert not c_reachable(self.sp, V1, V0)

    def test_interior_unreachable_under_c(self):
        m = EdgePoint("e0", H)
        assert not c_reachable(self.sp, V0, m)
        assert not c_reachable(self.sp, m, V1)

    def test_interior_reachable_under_d(self):
        m = EdgePoint("e0", H)
        r = d_reachable(self.sp, V0, m)
        assert r and is_controlled(hat(self.sp), r.witness)

    def test_reflexive(self):
        for p in (V0, V1, EdgePoint("e0", H)):
            assert c_reachable(self.sp, p, p)


class TestCrossingSquare:
    """Two rigid diagonals crossing at a middle point: switching diagonals
    is a d-space phenomenon only."""
    sp = build("crossing_square")
    p1 = EdgePoint("d0", H)   # incoming half of the first diagonal
    p2 = EdgePoint("d3", H)   # outgoing half of the second diagonal

    def test_c_reach_false_across_diagonals(self):
        assert not c_reachable(self.sp, self.p1, self.p2)

    def test_d_reach_true_across_diagonals(self):
        r = d_reachable(self.sp, self.p1, self.p2)
        assert r
        assert is_controlled(hat(self.sp), r.witness)

    def test_d_reach_along_one_diagonal(self):
        r = d_reachable(self.sp, self.p1, EdgePoint("d1", H))
        assert r and is_controlled(hat(self.sp), r.witness)

    def test_no_reach_against_flow(self):
        assert not d_reachable(self.sp, self.p2, self.p1)
        # d2 feeds into the crossing; nothing flows back up into it
        assert not d_reachable(self.sp, self.p1, EdgePoint("d2", H))


class TestCircle:
    sp = build("c_circle")

    def test_all_pairs_d_reachable(self):
        pts = [Vertex("v0"), EdgePoint("e0", F(1, 4)), EdgePoint("e0", F(3, 4))]
        for a in pts:
            for b in pts:
                r = d_reachable(self.sp, a, b)
                assert r and is_controlled(hat(self.sp), r.witness)

    def test_c_reach_only_via_full_loops(self):
        v = Vertex("v0")
        m = EdgePoint("e0", H)
        assert c_reachable(self.sp, v, v)
        assert not c_reachable(self.sp, v, m)
        assert not c_reachable(self.sp, m, v)


class TestDualCarriageway:
    """Two one-way lanes between shared junctions; every route from the
    west end to the east lane passes the second junction."""
    sp = build("dual_carriageway")
    west, east = Vertex("v0"), EdgePoint("x3", H)

    def test_reachable(self):
        r = c_reachable(self.sp, self.west, self.east)
        assert r and is_controlled(self.sp, r.witness)

    def test_second_junction_unavoidable(self):
        assert unavoidable_point(self.sp, self.west, self.east, Vertex("v2"))

    def test_lane_interior_avoidable(self):
        # the reverse lane x3's twin: mid of the forward lane x2 can be
        # bypassed only if another route exists -- here it cannot
        assert unavoidable_point(self.sp, self.west, self.east,
                                 EdgePoint("x1", H))

    def test_endpoints_trivially_unavoidable(self):
        assert unavoidable_point(self.sp, self.west, self.east, self.west)
        assert unavoidable_point(self.sp, self.west, self.east, self.east)

    def test_return_route_uses_reverse_lane(self):
        # coming back west along the reverse lane avoids the far junction
        assert c_reachable(self.sp, self.east, self.west)
        assert not unavoidable_point(self.sp, self.east, self.west,
                                     Vertex("v2"))


class TestUnreachablePair:
    def test_unavoidable_query_raises_when_unreachable(self):
        sp = build("c_interval")
        with pytest.raises(ModelError):
            unavoidable_point(sp, V1, V0, EdgePoint("e0", H))


class TestPointsOutsideTheSpace:
    """unavoidable_point checks its three points before any answer."""
    sp = build("d_interval")

    def test_unknown_vertex_with_x_equal_to_y(self):
        zz = Vertex("zz")
        with pytest.raises(ModelError, match="'zz'"):
            unavoidable_point(self.sp, zz, zz, zz)

    def test_point_on_an_unknown_edge(self):
        with pytest.raises(ModelError, match="'zz'"):
            unavoidable_point(self.sp, V0, V1, EdgePoint("zz", H))


class TestProductReach:
    sp = build("c_square")

    def test_corner_to_corner(self):
        lo = PTuple((V0, V0))
        hi = PTuple((V1, V1))
        r = c_reachable(self.sp, lo, hi)
        assert r and is_controlled(self.sp, r.witness)
        assert not c_reachable(self.sp, hi, lo)

    def test_one_coordinate_moves(self):
        a = PTuple((V0, V1))
        b = PTuple((V1, V1))
        r = c_reachable(self.sp, a, b)
        assert r and is_controlled(self.sp, r.witness)

    def test_interior_only_under_d(self):
        m = EdgePoint("e0", H)
        a = PTuple((V0, V0))
        b = PTuple((m, m))
        assert not c_reachable(self.sp, a, b)
        r = d_reachable(self.sp, a, b)
        assert r and is_controlled(hat(self.sp), r.witness)


class TestReachRelation:
    def test_c_subset_of_d(self):
        for name in ("c_interval", "two_jump", "siphon", "window_2_3e",
                     "crossing_square", "dual_carriageway"):
            sp = build(name)
            rc = reach_relation(sp, "c")
            rd = reach_relation(sp, "d")
            assert set(rc.pairs()) <= set(rd.pairs())

    def test_preorder_laws(self):
        for name in ("c_interval", "two_jump", "siphon", "c_circle"):
            rel = reach_relation(build(name), "c")
            nodes = rel.nodes()
            pairs = set(rel.pairs())
            for n in nodes:
                assert (n, n) in pairs
            for (a, b) in pairs:
                for (c, d) in pairs:
                    if b == c:
                        assert (a, d) in pairs


# ---------------------------------------------------------------------------
# One cell graph per question

def _directed_chain(n):
    return GraphPresentation(
        frozenset(f"v{i}" for i in range(n + 1)),
        tuple(Edge(f"e{i}", f"v{i}", f"v{i + 1}", K.DIRECTED)
              for i in range(n)))


GRAPH_MODELS = (
    [(n, normalize(build(n))) for n in names()
     if isinstance(normalize(build(n)), GraphPresentation)]
    + [(f"n_stop({n})", normalize(build("c_line_window", lo=0, hi=n)))
       for n in range(2, 8)]
    + [("open_windows", interval(OPEN_WINDOWS))])


class TestOneGraphPerQuestion:
    def test_each_edge_is_cut_once_per_presentation(self, monkeypatch):
        sp = build("c_line_window", lo=0, hi=256)
        calls = []

        def counting(pres, edge):
            calls.append(edge)
            return cuts(pres, edge)

        monkeypatch.setattr(membership, "cuts", counting)
        reach.transitions.cache_clear()
        for kept in ("_cells", "_parse_index"):  # start from nothing compiled
            vars(normalize(sp)).pop(kept, None)
        x, y = EdgePoint("e0", F(1, 256)), EdgePoint("e0", F(255, 256))
        r = c_reachable(sp, x, y)
        assert r and is_controlled(sp, r.witness)
        assert calls == ["e0"]
        # points inside two unit jumps: no cut value, and no controlled path
        x, y = EdgePoint("e0", F(3, 512)), EdgePoint("e0", F(509, 512))
        assert not c_reachable(sp, x, y)
        assert calls == ["e0"]

    @pytest.mark.parametrize("flexible, entries", [
        (frozenset(), 1), (frozenset({EdgePoint("e70", H)}), 2)])
    def test_compiling_looks_up_each_entry_once(self, monkeypatch, flexible,
                                                entries):
        """The edges of one kind share their ranked entry; a flexible
        point gives its edge cut values, and so an entry, of its own."""
        pres = replace(_directed_chain(150), flexible=flexible)
        calls = []
        for name in ("cuts", "family"):
            def counting(pres, edge, name=name,
                         real=getattr(presentation, name)):
                calls.append(name)
                return real(pres, edge)
            for module in (membership, reach):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        reach.CellGraph(pres)
        assert sorted(calls) == ["cuts"] * entries + ["family"] * entries

    def test_pairs_builds_one_graph(self, monkeypatch):
        sp = _directed_chain(12)
        calls = []
        real = reach.transitions

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(reach, "transitions", counting)
        pairs = reach_relation(sp).pairs()
        assert len(calls) <= 2
        # 13 vertices and 12 segment midpoints, ordered along the chain
        assert len(pairs) == 25 * 26 // 2

    @pytest.mark.parametrize("name, sp", GRAPH_MODELS,
                             ids=[n for n, _ in GRAPH_MODELS])
    @pytest.mark.parametrize("mode", ["c", "d"])
    def test_pairs_agree_with_holds(self, name, sp, mode):
        rel = reach_relation(sp, mode)
        nodes = rel.nodes()
        assert rel.pairs() == tuple((x, y) for x in nodes for y in nodes
                                    if rel.holds(x, y))

    def test_graph_cache_is_bounded(self):
        sp = build("c_line_window", lo=0, hi=32)
        for k in range(300):
            c_reachable(sp, EdgePoint("e0", F(1, 40 + k)),
                        EdgePoint("e0", F(2, 3)))
        info = reach.transitions.cache_info()
        assert info.currsize <= reach.GRAPH_CACHE_SIZE


class TestLoops:
    """Rigid traces 0 -> 1 and 1 -> 0 and no flexible point: waiting at a
    vertex takes a round trip.  In the corpus models (and their hats)
    every point with a nontrivial loop is flexible, so none of them asks
    ``_graph_loop`` for a loop that exists."""
    sp = interval(K.custom(Family(rigid=(
        RigidTrace((TraceStep(None, Z, O),)),
        RigidTrace((TraceStep(None, O, Z),))))))

    def test_loop_at_either_vertex(self):
        for v in (V0, V1):
            r = reach._graph_loop(self.sp, v)
            assert r and r.witness.start == v == r.witness.end
            assert not r.witness.is_trivial()
            assert is_controlled(self.sp, r.witness)

    def test_no_loop_at_the_midpoint(self):
        assert not reach._graph_loop(self.sp, EdgePoint("e0", H))

    def test_product_waits_with_a_loop(self):
        sp = product(self.sp, build("c_interval"))
        r = c_reachable(sp, PTuple((V0, V0)), PTuple((V0, V1)))
        assert r and is_controlled(sp, r.witness)

    def test_loop_inside_a_segment_held_both_ways(self):
        """Open windows (1/4, 1/2), one rising and one falling: no move
        leaves the segment, so the loop at 1/3 steps to the middle of the
        piece below it, (1/4 + 1/3) / 2, and back, and 1/3 reaches 3/8
        in one step."""
        q = F(1, 4)
        sp = interval(K.custom(Family(fragments=(
            Fragment(1, q, H, lo_open=True, hi_open=True),
            Fragment(-1, q, H, lo_open=True, hi_open=True)))))
        x, y = EdgePoint("e0", F(1, 3)), EdgePoint("e0", F(3, 8))
        start = "CanonicalPath(start=EdgePoint(edge='e0', t=Fraction(1, 3))"
        loop = reach._graph_loop(sp, x).witness
        assert repr(loop) == (
            f"{start}, items=(Run(segs=(Seg(edge='e0', a=Fraction(1, 3), "
            "b=Fraction(7, 24)),)), Pause(), Run(segs=(Seg(edge='e0', "
            "a=Fraction(7, 24), b=Fraction(1, 3)),))), "
            "end=EdgePoint(edge='e0', t=Fraction(1, 3)))")
        step = c_reachable(sp, x, y).witness
        assert repr(step) == (
            f"{start}, items=(Run(segs=(Seg(edge='e0', a=Fraction(1, 3), "
            "b=Fraction(3, 8)),)),), end=EdgePoint(edge='e0', "
            "t=Fraction(3, 8)))")
        assert is_controlled(sp, loop) and is_controlled(sp, step)


class TestExistence:
    """Windows [0, ½) and (¼, 1] rising (the second may not end at ½ or 1)
    and [¼, ¾) falling; no point is flexible."""
    sp = interval(OPEN_WINDOWS)

    @pytest.mark.parametrize("x, through, start, end", [
        (V0, True, True, False),
        (EdgePoint("e0", F(1, 8)), True, True, True),
        (EdgePoint("e0", H), True, True, True),   # entered falling only
        (EdgePoint("e0", F(7, 8)), True, True, True),
        (V1, False, False, False),                # end_not 1
    ])
    def test_existence_triple(self, x, through, start, end):
        assert (exists_c_through(self.sp, x), exists_c_from(self.sp, x),
                exists_c_to(self.sp, x)) == (through, start, end)

    def test_excluded_point_is_only_passed_through(self):
        half = EdgePoint("e0", H)
        sp = normalize(exclude_endpoints(self.sp, frozenset({half})))
        assert (exists_c_through(sp, half), exists_c_from(sp, half),
                exists_c_to(sp, half)) == (True, False, False)


# ---------------------------------------------------------------------------
# Occurrence constraints: the parse and the cell graph agree

CORPUS_GRAPHS = [(n, sp) for n, sp in GRAPH_MODELS if n in names()]
OCCURRENCE_PATHS = 100


@pytest.mark.parametrize("name, base", CORPUS_GRAPHS,
                         ids=[n for n, _ in CORPUS_GRAPHS])
@pytest.mark.parametrize("field", ["absorbing", "emitting", "blocked"])
def test_parse_and_reach_agree_on_one_constrained_point(name, base, field):
    """One point of the model (seeded with ``zlib.crc32``) is absorbing,
    emitting or blocked: each parsed path has a controlled witness for
    its ends, and each witness of ``c_reachable`` parses."""
    rng = random.Random(zlib.crc32(f"{name}/{field}".encode()))
    e = rng.choice(base.edges)
    point = pos_point(base, e.id, rng.choice((Z, F(1, 4), H, O)))
    sp = replace(base, **{field: frozenset({point})})
    for _ in range(OCCURRENCE_PATHS):
        p = random_graph_path(sp, rng)
        r = c_reachable(sp, p.start, p.end)
        if is_controlled(sp, p):
            assert r, p
        if r.witness is not None:
            assert is_controlled(sp, r.witness), (p, r.witness)


# ---------------------------------------------------------------------------
# One compiled cell graph per presentation, which no question changes

def _fresh_point(pres, rng):
    e = rng.choice(pres.edges)
    return EdgePoint(e.id, F(rng.randint(1, 10**6 - 1), 10**6))


def _snapshot(g):
    index = membership.parse_index(g.pres)
    return (len(g.src), list(g.cell_at), list(g.cover),
            [len(c) for c in g.fwd], [len(c) for c in g.rev],
            [len(c) for c in g.places], len(index.edges),
            {key: (ent.cuts,
                   [membership.rank_of(ent, v) for v in ent.cuts])
             for key, ent in index.shared.items()})


@pytest.mark.parametrize("name, pres", [
    ("directed(150)", normalize(_directed_chain(150))),
    ("n_stop(64)", normalize(build("c_line_window", lo=0, hi=64)))])
def test_no_question_writes_into_the_compiled_graph(name, pres):
    """Reach answers with their witnesses read, loops, unavoidable points
    and classifications at fresh points leave the compiled graph and the
    parse index as they were."""
    g = reach.compiled(pres)
    before = _snapshot(g)
    rng = random.Random(zlib.crc32(name.encode()))
    for n in range(200):
        x, y, p = (_fresh_point(pres, rng) for _ in range(3))
        if n % 3 == 0:
            r = c_reachable(pres, x, y)
            if r:
                assert is_controlled(pres, r.witness), (x, y)
            reach._graph_loop(pres, p).witness
        elif n % 3 == 1:
            try:
                unavoidable_point(pres, x, y, p)
            except ModelError:  # y is not reachable from x
                pass
        else:
            classify_point(pres, x)
    assert _snapshot(g) == before
    assert reach.transitions(pres) is g


EQUIVALENCE_MODELS = [
    (f"{cname}({name})" if cname else name,
     normalize(construct(sp)) if construct else sp)
    for name, sp in GRAPH_MODELS
    for cname, construct in (("", None), ("hat", hat),
                             ("flexible_part", flexible_part),
                             ("opposite", opposite))]
EQUIVALENCE_QUESTIONS = 40


def _answers(pres, x, y, p):
    r = c_reachable(pres, x, y)
    if r.witness is not None:
        assert is_controlled(pres, r.witness), (x, y, r.witness)
    try:
        unavoidable = unavoidable_point(pres, x, y, p)
    except ModelError:  # y is not reachable from x
        unavoidable = None
    return (r.ok, unavoidable, exists_c_from(pres, x), exists_c_to(pres, x),
            exists_c_through(pres, x), reach._graph_loop(pres, x).ok)


@pytest.mark.parametrize("name, pres", EQUIVALENCE_MODELS,
                         ids=[n for n, _ in EQUIVALENCE_MODELS])
def test_cut_graph_answers_as_the_cut_subspace(name, pres):
    """Each question at three random interior points has the same answers
    on the space, where they may lie inside open segments, as on its
    subspace cut at those points, where they are vertices."""
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(EQUIVALENCE_QUESTIONS):
        points = [EdgePoint(rng.choice(pres.edges).id,
                            F(rng.randint(1, 100), 101)) for _ in range(3)]
        sub, remap = cut_at(pres, points)
        assert (_answers(pres, *points)
                == _answers(sub, *map(remap, points))), points


def test_pickle_drops_the_compiled_graph():
    sp = replace(normalize(build("dual_carriageway")))  # a fresh instance
    text, data = repr(sp), pickle.dumps(sp)
    reach.compiled(sp)
    hash(sp)
    assert "_hash" in vars(sp) and "_cells" in vars(sp)
    assert repr(sp) == text and pickle.dumps(sp) == data
    copy = pickle.loads(data)
    assert "_hash" not in vars(copy) and "_cells" not in vars(copy)
    assert copy == sp
    x, y = V0, EdgePoint("x3", H)
    r, r2 = c_reachable(sp, x, y), c_reachable(copy, x, y)
    assert r.ok and r2.ok
    assert is_controlled(copy, r2.witness)


# ---------------------------------------------------------------------------
# Points inside one open segment

SEGMENT_MODELS = [
    ("rising", interval(K.DIRECTED)),
    ("falling", interval(K.custom(Family(fragments=(Fragment(-1),))))),
    ("open_windows", interval(OPEN_WINDOWS)),
    ("n_stop(5)", normalize(build("c_line_window", lo=0, hi=5)))]
SEGMENT_QUESTIONS = 30


def _in_one_segment(pres, rng, count):
    """count distinct points of edge e0 strictly inside one open segment
    between two of its cut values, sorted."""
    vals = cuts(pres, "e0")
    k = rng.randrange(len(vals) - 1)
    lo, hi = vals[k], vals[k + 1]
    ts = sorted(rng.sample(range(1, 1000), count))
    return [EdgePoint("e0", lo + (hi - lo) * F(t, 1000)) for t in ts]


@pytest.mark.parametrize("name, pres", SEGMENT_MODELS,
                         ids=[n for n, _ in SEGMENT_MODELS])
def test_points_sharing_a_segment_answer_as_the_cut_subspace(name, pres):
    """Two or three points of a question in one open segment answer as
    the subspace cut there, both ways along the edge, with p between x
    and y for ``unavoidable_point``."""
    rng = random.Random(zlib.crc32(name.encode()))
    for n in range(SEGMENT_QUESTIONS):
        if n % 2:
            x, p, y = _in_one_segment(pres, rng, 3)
        else:
            (x, y), p = (_in_one_segment(pres, rng, 2),
                         EdgePoint("e0", F(rng.randint(1, 100), 101)))
        if rng.random() < 0.5:
            x, y = y, x
        sub, remap = cut_at(pres, (x, y, p))
        assert (_answers(pres, x, y, p)
                == _answers(sub, *map(remap, (x, y, p)))), (x, y, p)


@pytest.mark.parametrize("name, pres", SEGMENT_MODELS,
                         ids=[n for n, _ in SEGMENT_MODELS])
def test_each_position_lies_in_its_cell(name, pres):
    """The parameter that a witness reads for each position of the
    compiled graph (a cut value, or the midpoint of an open segment) is
    a point of that position's cell."""
    g = reach.compiled(pres)
    for pos, c in enumerate(g.cell_at):
        assert g.cell(pos_point(pres, "e0", g.value(pos))) == c, pos


# ---------------------------------------------------------------------------
# The engine against the reachability oracle

ORACLE_MODELS = [(f"{name}{suffix}", pres) for name, sp in GRAPH_MODELS
                 for suffix, pres in (("", sp), ("/hat", normalize(hat(sp))))]


def _oracle_points(pres, rng):
    """Every vertex, four seeded interior points, and two more that share
    an open segment with one of them."""
    pts = [Vertex(v) for v in sorted(pres.vertices)]
    for _ in range(4):
        pts.append(EdgePoint(rng.choice(pres.edges).id,
                             F(rng.randint(1, 100), 101)))
    for q in rng.sample(pts[-4:], 2):
        vals = cuts(pres, q.edge)
        h = bisect.bisect(vals, q.t)
        pts.append(EdgePoint(q.edge, (q.t + vals[h]) / 2))
    return pts


def _agree_with_oracle(pres, pts):
    reached = brute_force_reach(pres, pts)
    for x in pts:
        for y in pts:
            assert c_reachable(pres, x, y).ok == ((x, y) in reached), (x, y)
    return len(reached)


@pytest.mark.parametrize("name, pres", ORACLE_MODELS,
                         ids=[n for n, _ in ORACLE_MODELS])
def test_reach_agrees_with_the_oracle(name, pres):
    rng = random.Random(zlib.crc32(name.encode()))
    _agree_with_oracle(pres, _oracle_points(pres, rng))


@pytest.mark.parametrize("name, base", CORPUS_GRAPHS,
                         ids=[n for n, _ in CORPUS_GRAPHS])
@pytest.mark.parametrize("field", ["absorbing", "emitting", "blocked",
                                   "excluded"])
def test_reach_agrees_with_the_oracle_at_a_constrained_point(name, base,
                                                             field):
    rng = random.Random(zlib.crc32(f"{name}/{field}/oracle".encode()))
    e = rng.choice(base.edges)
    point = pos_point(base, e.id, rng.choice((Z, F(1, 4), H, O)))
    pres = replace(base, **{field: frozenset({point})})
    _agree_with_oracle(pres, _oracle_points(pres, rng) + [point])


# ---------------------------------------------------------------------------
# One cut for the three existence checks

EXISTENCE_MODELS = [(f"{name}{suffix}", pres) for name, sp in GRAPH_MODELS
                    for suffix, pres in (
                        ("", sp), ("/hat", normalize(hat(sp))),
                        ("/flexible_part", normalize(flexible_part(sp))))]
# SHA-256 of the triples below, written when ``exists_c_through``,
# ``exists_c_from`` and ``exists_c_to`` each cut and searched on their own.
EXISTENCE_DIGEST = ("411b86d627600a2bb0735283291c40ba"
                    "029e35392cb80108bcea1c246fd77495")


def test_existence_triples_are_unchanged():
    lines = []
    for name, pres in EXISTENCE_MODELS:
        rng = random.Random(zlib.crc32(f"{name}/existence".encode()))
        pts = [Vertex(v) for v in sorted(pres.vertices)]
        for e in pres.edges:
            pts += [pos_point(pres, e.id, t) for t in cuts(pres, e.id)[1:-1]]
            pts += [EdgePoint(e.id, F(rng.randint(1, 100), 101))
                    for _ in range(2)]
        for x in pts:
            triple = reach.existence(pres, x)
            assert triple == (exists_c_through(pres, x),
                              exists_c_from(pres, x), exists_c_to(pres, x))
            lines.append(f"{name} {x!r} {triple}")
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == EXISTENCE_DIGEST)


# ---------------------------------------------------------------------------
# Witnesses are built when read, and read the same as when built eagerly

# SHA-256 of the lines below, written when every answer built its witness.
WITNESS_DIGEST = ("8200bda224a69e94f3086f96c6804103"
                  "270cf49fa1bba1e40aceb1a46b3dc475")


def test_read_witnesses_are_unchanged():
    """The ``repr`` of every read witness, and of every loop, at the
    seeded points of each oracle model; each one parses."""
    lines = []
    for name, pres in ORACLE_MODELS:
        rng = random.Random(zlib.crc32(f"{name}/witness".encode()))
        pts = _oracle_points(pres, rng)
        for x in pts:
            loop = reach._graph_loop(pres, x)
            lines.append(f"{name} {x!r} loop {loop.ok} {loop.witness!r}")
            for y in pts:
                r = c_reachable(pres, x, y)
                if r.witness is not None:
                    assert is_controlled(pres, r.witness), (x, y)
                lines.append(f"{name} {x!r} {y!r} {r.ok} {r.witness!r}")
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == WITNESS_DIGEST)


# ---------------------------------------------------------------------------
# Endpoint filters are decided in the order a transition passes its cells

def test_a_trace_passing_its_absorbing_end_is_no_move():
    """The rigid trace 1 -> 1/4 -> 1/2 passes 1/2 on its first step, so
    with 1/2 absorbing it moves nowhere, though it ends there."""
    q = F(1, 4)
    pres = replace(interval(K.custom(Family(rigid=(RigidTrace((
        TraceStep(None, O, q), TraceStep(None, q, H))),)))),
        absorbing=frozenset({EdgePoint("e0", H)}))
    half = EdgePoint("e0", H)
    r = c_reachable(pres, V1, half)
    assert not r.ok and r.witness is None
    assert (V1, half) not in brute_force_reach(pres, [V0, V1, half])


def test_a_loop_back_to_its_emitting_start_is_no_move():
    """A ``directed`` loop at an emitting vertex returns to it after
    moving, so no nontrivial path ends there and there is no loop."""
    pres = GraphPresentation(frozenset({"v0"}),
                             (Edge("e0", "v0", "v0", K.DIRECTED),),
                             emitting=frozenset({V0}))
    half = EdgePoint("e0", H)
    assert not classify_point(pres, V0).has_nontrivial_path_ending
    assert not reach._graph_loop(pres, V0)
    assert not c_reachable(pres, half, V0)
    r = c_reachable(pres, V0, half)
    assert r and is_controlled(pres, r.witness)
    assert brute_force_reach(pres, [V0, half]) == {
        (V0, V0), (half, half), (V0, half)}


# ---------------------------------------------------------------------------
# Answers from the closure: no cut and no search unless a witness is read

SAME_SEGMENT_MODELS = [
    ("window", interval(K.DIRECTED), (True, False)),
    ("cycle", GraphPresentation(frozenset({"v0"}),
                                (Edge("e0", "v0", "v0", K.DIRECTED),)),
     (True, True)),
    ("neither", interval(K.ONE_JUMP), (False, False))]


@pytest.mark.parametrize("name, pres, expect", SAME_SEGMENT_MODELS,
                         ids=[n for n, _, _ in SAME_SEGMENT_MODELS])
def test_two_points_of_one_segment_meet_the_oracle(name, pres, expect):
    """Each branch of the rule for two points of one open segment: a
    window of their direction holds it, its cell lies on a cycle, or
    neither.  ``expect`` is (up, down) along the edge."""
    lo, hi = EdgePoint("e0", F(1, 3)), EdgePoint("e0", F(2, 3))
    pts = [Vertex(v) for v in sorted(pres.vertices)] + [lo, hi]
    reached = brute_force_reach(pres, pts)
    assert ((lo, hi) in reached, (hi, lo) in reached) == expect
    for x in pts:
        for y in pts:
            r = c_reachable(pres, x, y)
            assert r.ok == ((x, y) in reached), (x, y)
            if r.ok and x != y:
                assert is_controlled(pres, r.witness), (x, y)


def test_two_points_of_one_segment_take_the_shortest_way_round():
    """On a ``directed`` loop with a flexible point at 1/4, 2/3 reaches
    1/3 only round the loop: up to v0 and on to 1/3, not by way of 1/4,
    which is one move longer."""
    pres = GraphPresentation(frozenset({"v0"}),
                             (Edge("e0", "v0", "v0", K.DIRECTED),),
                             flexible=frozenset({EdgePoint("e0", F(1, 4))}))
    x, y = EdgePoint("e0", F(2, 3)), EdgePoint("e0", F(1, 3))
    w = c_reachable(pres, x, y).witness
    assert [seg for run in w.runs() for seg in run.segs] == [
        Seg("e0", F(2, 3), O), Seg("e0", Z, F(1, 3))]
    assert is_controlled(pres, w)


def _counting(monkeypatch, names=("_search", "_witness")):
    """Count the calls of the named functions of ``reach``."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(reach, name, counted(name, getattr(reach, name)))
    return calls


def test_an_ok_answer_cuts_and_searches_nothing(monkeypatch):
    pres = _directed_chain(150)
    rng = random.Random(zlib.crc32(b"closure/ok"))
    c_reachable(pres, V0, Vertex("v150"))  # compile before counting
    calls = _counting(monkeypatch)
    oks = [c_reachable(pres, _fresh_point(pres, rng),
                       _fresh_point(pres, rng)).ok for _ in range(100)]
    assert calls == {"_search": 0, "_witness": 0}
    assert 0 < sum(oks) < 100


def test_a_witness_is_built_once_when_read(monkeypatch):
    pres = _directed_chain(150)
    x, y = EdgePoint("e3", F(1, 7)), EdgePoint("e140", F(5, 7))
    calls = _counting(monkeypatch)
    r = c_reachable(pres, x, y)
    assert r and calls == {"_search": 0, "_witness": 0}
    w = r.witness
    assert calls == {"_search": 1, "_witness": 1}
    assert r.witness is w and is_controlled(pres, w)
    assert r == c_reachable(pres, x, y) and repr(r).startswith(
        "ReachResult(ok=True, witness=CanonicalPath(")
    assert calls["_witness"] == 2
    with pytest.raises(AttributeError):
        r.ok = False
    assert not c_reachable(pres, y, x) and calls["_witness"] == 2


def test_pairs_in_mode_c_are_read_from_the_closure(monkeypatch):
    sp = _directed_chain(12)
    monkeypatch.setattr(reach, "_search", None)  # any search would fail
    assert len(reach_relation(sp).pairs()) == 25 * 26 // 2


COST_MODELS = [("directed(150)", _directed_chain(150)),
               ("n_stop(64)", normalize(build("c_line_window", lo=0, hi=64)))]


@pytest.mark.parametrize("name, pres", COST_MODELS,
                         ids=[n for n, _ in COST_MODELS])
def test_classify_and_pairs_cut_and_search_nothing(monkeypatch, name, pres):
    """Classification reads both existence triples, and ``pairs()`` in
    both modes its relation, from closures of the one compiled graph."""
    calls = {"search": 0, "flexible_part": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(reach, "_search", counted("search", reach._search))
    for module in (construct, classify):
        monkeypatch.setattr(module, "flexible_part",
                            counted("flexible_part", module.flexible_part))
    rng = random.Random(zlib.crc32(f"{name}/cost".encode()))
    for _ in range(100):
        classify_point(pres, _fresh_point(pres, rng))
    for mode in ("c", "d"):
        assert reach_relation(pres, mode).pairs()
    assert calls == {"search": 0, "flexible_part": 0}


def test_a_directed_chain_is_its_own_flexible_closure():
    g = reach.compiled(_directed_chain(150))
    assert all(g.flex) and g.closure(flexible=True) is g.closure()


def test_overlapping_windows_give_each_transition_once():
    """``OPEN_WINDOWS`` has two rising windows that overlap on (1/4, 1/2);
    each pair of positions in both is one transition."""
    g = reach.compiled(normalize(interval(OPEN_WINDOWS)))
    assert len(g) == len(set(zip(g.src, g.dst, g.cover))) == 45


def test_a_pair_is_flexible_when_one_of_its_windows_makes_it_so():
    """A forbidden start at 1/2 makes the runs of the first window across
    it not flexible; the second window gives the same pairs flexibly."""
    marked = Fragment(1, start_not=frozenset({H}))
    alone = reach.compiled(interval(K.custom(Family(fragments=(marked,)))))
    assert [alone.cover[k] for k in range(len(alone)) if alone.flex[k]] == [
        ((0, 1),), ((0, 2),), ((1, 2),), ((3, 4),)]
    assert alone.closure(flexible=True) is not alone.closure()
    both = reach.compiled(interval(K.custom(Family(
        fragments=(marked, Fragment(1))))))
    positions = len(both.cell_at)
    assert len(both) == positions * (positions - 1) // 2 and all(both.flex)


def test_unavoidable_point_asks_the_closure_first(monkeypatch):
    pres = _directed_chain(20)
    x, y = EdgePoint("e12", H), EdgePoint("e3", H)
    calls = _counting(monkeypatch)
    with pytest.raises(ModelError, match="y is not reachable from x"):
        unavoidable_point(pres, x, y, Vertex("v5"))
    assert calls == {"_search": 0, "_witness": 0}
    assert unavoidable_point(pres, y, x, EdgePoint("e8", H))
    assert not unavoidable_point(pres, y, x, EdgePoint("e15", H))
    assert calls == {"_search": 0, "_witness": 0}


def test_unavoidable_point_searches_only_inside(monkeypatch):
    """100 fresh triples on a 150-edge chain, x, y and p on three edges:
    no breadth-first search and no witness, and no search at all when p
    lies outside [x, y], where the closure answers."""
    pres = _directed_chain(150)
    rng = random.Random(zlib.crc32(b"unavoidable/cost"))
    c_reachable(pres, V0, Vertex("v150"))  # compile before counting
    calls = _counting(monkeypatch, ("_search", "_witness", "_avoiding"))
    inside = 0
    for _ in range(100):
        i, j, k = rng.sample(range(150), 3)
        i, j = min(i, j), max(i, j)
        x, y, p = (EdgePoint(f"e{n}", F(rng.randint(1, 10**6 - 1), 10**6))
                   for n in (i, j, k))
        searched = calls["_avoiding"]
        assert unavoidable_point(pres, x, y, p) == (i < k < j)
        if i < k < j:
            inside += 1
        else:
            assert calls["_avoiding"] == searched, (x, y, p)
    assert 0 < inside < 100
    assert calls["_search"] == calls["_witness"] == 0


# ---------------------------------------------------------------------------
# Classification and relations read the same from the closure

def _filtered(name, base):
    """Each endpoint filter (and exclusion) at each vertex of base."""
    return [(f"{name}/{field}@{v}",
             replace(base, **{field: frozenset({Vertex(v)})}))
            for field in ("absorbing", "emitting", "blocked", "excluded")
            for v in sorted(base.vertices)]


CLOSURE_MODELS = [(f"{name}{suffix}", pres) for name, sp in GRAPH_MODELS
                  for suffix, pres in (("", sp), ("/hat", normalize(hat(sp))))
                  ] + [m for name, sp in CORPUS_GRAPHS
                       for m in _filtered(name, sp)]
PRODUCT_MODELS = [(f"{name}{suffix}", pres) for name in names()
                  for sp in [normalize(build(name))]
                  if not isinstance(sp, GraphPresentation)
                  for suffix, pres in (("", sp), ("/hat", normalize(hat(sp))))]


def _graph_points(pres, rng, fresh=2):
    pts = [Vertex(v) for v in sorted(pres.vertices)]
    for e in pres.edges:
        pts += [pos_point(pres, e.id, t) for t in cuts(pres, e.id)[1:-1]]
        pts += [EdgePoint(e.id, F(rng.randint(1, 100), 101))
                for _ in range(fresh)]
    return pts


def _product_points(pres, rng, count=30):
    if isinstance(pres, GraphPresentation):
        return _graph_points(pres, rng, fresh=1)
    left = _product_points(pres.left, rng)
    right = _product_points(pres.right, rng)
    return [PTuple((rng.choice(left), rng.choice(right)))
            for _ in range(count)]


# SHA-256 of the classifications below, written when ``classify_point``
# cut the space and its flexible part and searched each.
CLASSIFY_DIGEST = ("f8ab368a3572d00a77e392e7a145c90d"
                   "665907e995c2d79c43b2bb8ff0e4a145")


def test_classifications_are_unchanged():
    lines = []
    for name, pres in CLOSURE_MODELS + PRODUCT_MODELS:
        rng = random.Random(zlib.crc32(f"{name}/classify".encode()))
        for x in _product_points(pres, rng):
            lines.append(f"{name} {x!r} {classify_point(pres, x)!r}")
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == CLASSIFY_DIGEST)


# SHA-256 of the lines below, written when each factor's witness was
# searched on its graph cut at the question's points.
PRODUCT_WITNESS_DIGEST = ("1073197405c9d3ba0432a22921048323"
                          "a80e1443178c3b173c2221c889e6f7f8")


def test_product_witnesses_are_unchanged():
    """The ``repr`` of every read ``c_reachable`` witness between seeded
    points of the product corpus models and their hats; each one parses."""
    lines = []
    for name, pres in PRODUCT_MODELS:
        rng = random.Random(zlib.crc32(f"{name}/product witness".encode()))
        pts = _product_points(pres, rng, count=20)
        for x in pts:
            for y in pts:
                r = c_reachable(pres, x, y)
                if r.witness is not None:
                    assert is_controlled(pres, r.witness), (x, y)
                lines.append(f"{name} {x!r} {y!r} {r.ok} {r.witness!r}")
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == PRODUCT_WITNESS_DIGEST)


# SHA-256 of the relations below, written when the hat of a filtered
# space first dropped the sub-runs of instances that its filters kill.
PAIRS_DIGEST = ("7bc0464f8613b6f19cf227cf0aeceb9c"
                "36bea9f07e3a737607d8d05e87265e84")


def test_pairs_are_unchanged():
    lines = [f"{name} {mode} {reach_relation(pres, mode).pairs()!r}"
             for name, pres in CLOSURE_MODELS for mode in ("c", "d")]
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == PAIRS_DIGEST)


# SHA-256 of the answers below, written when the hat of a filtered space
# first dropped the sub-runs of instances that its filters kill (mode
# ``d``).
UNAVOIDABLE_DIGEST = ("352392b418c87d15e9effdcaab6e0e74"
                      "289581c7295fe25c01a6aee0317887c9")


def _unavoidable_triples(pres, rng, count=40):
    """Seeded (x, y, p) over the points of pres; in two of three, p or y
    shares an open segment with x."""
    pts = _graph_points(pres, rng, fresh=1)
    out = []
    for n in range(count):
        x, y, p = (rng.choice(pts) for _ in range(3))
        if n % 3 == 1 and isinstance(x, EdgePoint):
            p = after(pres, x)
        elif n % 3 == 2 and isinstance(x, EdgePoint):
            y = after(pres, x)
        out.append((x, y, p))
    return out


def _segment_triples(pres, rng, count=60):
    """Seeded (x, y, p) with three, or two, of them in one open segment,
    in every order; the odd one out is a vertex or a fresh point."""
    out = []
    for n in range(count):
        a, b, c = _in_one_segment(pres, rng, 3)
        if n % 4 == 0:
            out.append(tuple(rng.sample((a, b, c), 3)))
            continue
        other = rng.choice([*map(Vertex, sorted(pres.vertices)),
                            EdgePoint("e0", F(rng.randint(1, 100), 101))])
        a, b = rng.sample((a, b), 2)
        out.append((a, b, other) if n % 4 == 1 else
                   (a, other, b) if n % 4 == 2 else (other, a, b))
    return out


def _unavoidable_line(name, pres, mode, x, y, p):
    try:
        answer = unavoidable_point(pres, x, y, p, mode)
    except ModelError as e:
        answer = f"{type(e).__name__}: {e}"
    return f"{name} {mode} {x!r} {y!r} {p!r} {answer}"


def test_unavoidable_points_are_unchanged():
    """Answers and errors at seeded triples, in both modes, on the corpus
    graphs, their hats, each filter and exclusion at each vertex, and
    the one-edge models with points sharing a segment."""
    lines = []
    for name, pres in CLOSURE_MODELS:
        rng = random.Random(zlib.crc32(f"{name}/unavoidable".encode()))
        triples = _unavoidable_triples(pres, rng)
        lines += [_unavoidable_line(name, pres, mode, *t)
                  for mode in ("c", "d") for t in triples]
    for name, pres in SEGMENT_MODELS:
        rng = random.Random(zlib.crc32(f"{name}/unavoidable".encode()))
        triples = _segment_triples(pres, rng)
        lines += [_unavoidable_line(name, pres, mode, *t)
                  for mode in ("c", "d") for t in triples]
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == UNAVOIDABLE_DIGEST)


# ---------------------------------------------------------------------------
# Float parameters, and warm questions without Fraction arithmetic

FLOATS = (0.1, 0.125, 0.25, 1 / 3, 0.5, 0.7, 0.75)


def _exact(p):
    return EdgePoint(p.edge, F(p.t))


def _float_answers(pres, x, y, p, b):
    try:
        unavoidable = unavoidable_point(pres, x, y, p)
    except ModelError:  # y is not reachable from x
        unavoidable = None
    run = assemble(x, [Seg(x.edge, x.t, b.t)], b)
    return c_reachable(pres, x, y).ok, unavoidable, is_controlled(pres, run)


@pytest.mark.parametrize("name, pres", GRAPH_MODELS,
                         ids=[n for n, _ in GRAPH_MODELS])
def test_float_parameters_answer_as_their_fractions(name, pres):
    """``EdgePoint("e0", 0.3)`` is the point at the exact value of the
    float: reach answers, unavoidable points and membership are the same
    as at ``Fraction(0.3)``."""
    rng = random.Random(zlib.crc32(f"{name}/floats".encode()))
    points = [EdgePoint(e.id, t) for e in pres.edges for t in FLOATS]
    for _ in range(40):
        x, y, p = rng.sample(points, 3)
        b = EdgePoint(x.edge, rng.choice([t for t in FLOATS if t != x.t]))
        assert (_float_answers(pres, x, y, p, b)
                == _float_answers(pres, *map(_exact, (x, y, p, b)))), (x, y, p)


def _counting_fraction_work(monkeypatch) -> list:
    """Make every comparison and hash of a Fraction append its name to
    the list returned."""
    calls = []
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__"):
        def counted(*args, _name=name, _method=getattr(F, name)):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(F, name, counted)
    return calls


def _fresh_t(rng):
    return F(rng.randint(1, 10**6 - 1), 10**6)


def _chain_questions(pres, rng):
    """On a ``directed`` chain: x, p and y on three edges, x before y."""
    for _ in range(20):
        i, j, k = sorted(rng.sample(range(len(pres.edges)), 3))
        x, y, p = (EdgePoint(f"e{n}", _fresh_t(rng)) for n in (i, k, j))
        yield c_reachable, (pres, x, y)
        yield d_reachable, (pres, x, y)
        yield unavoidable_point, (pres, x, y, p)


def _n_stop_questions(pres, rng):
    """On ``n_stop(n)`` from v0 to v<n>: anchors x below y, and p on an
    anchor between them or inside the segment above it.  The hat is one
    ``directed`` edge, so d-questions go from and to its vertices."""
    n = pres.edges[0].kind.n
    for _ in range(20):
        a, b, c = sorted(rng.sample(range(1, n), 3))
        x, y = EdgePoint("e0", F(a, n)), EdgePoint("e0", F(c, n))
        p = EdgePoint("e0", F(b, n) + F(rng.randrange(10**6), n * 10**6))
        yield c_reachable, (pres, x, y)
        yield unavoidable_point, (pres, x, y, p)
        yield d_reachable, (pres, Vertex("v0"), p)
        yield d_reachable, (pres, p, Vertex(f"v{n}"))


@pytest.mark.parametrize("name, pres, questions", [
    ("directed(150)", normalize(_directed_chain(150)), _chain_questions),
    ("n_stop(64)", normalize(build("c_line_window", lo=0, hi=64)),
     _n_stop_questions)])
def test_warm_questions_make_no_fraction_comparison(monkeypatch, name, pres,
                                                    questions):
    """Once the graphs are compiled, reach questions at fresh points in
    distinct cells rank each point with integers and test cells, not
    points: no Fraction is compared or hashed."""
    rng = random.Random(zlib.crc32(f"{name}/warm".encode()))
    for ask, args in questions(pres, rng):  # compiles graphs and closures
        ask(*args)
    asks = list(questions(pres, rng))  # fresh points, built beforehand
    calls = _counting_fraction_work(monkeypatch)
    for ask, args in asks:
        ask(*args)
    assert calls == []
