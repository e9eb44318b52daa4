"""Laws of the constructions on a one-edge interval of every kind, and
on products of two such intervals and of the corpus products.

Seeded random paths (``zlib.crc32`` of the case name, so a failure
replays) check that a space sits inside its generated d-space, that its
flexible part holds exactly its flexible paths, that it contains its
reversible part, which keeps its trivial loops, and sits inside its
reversible closure, and that
reversing a path maps it onto the opposite space, and that the trivial
loops at the ends of every generator and of every controlled path are
controlled, in the space and in its subspaces.  ``is_finer`` must place
a space below its hat and its reversible closure and above its flexible
and reversible parts.
Cutting the edge at 1/3 into two touching subspace intervals keeps
exactly the controlled paths; quotients at an interior anchor cut the edge there,
and their membership must agree with the brute-force oracle.  On
products, nested ones included, the hat is idempotent, holds the
product and is closed under restriction, a path is controlled exactly
when each projection is, and opposite is an involution.
"""

import itertools
import random
import zlib
from fractions import Fraction as F

import pytest

from cspaces import kinds as K
from cspaces.classify import is_flexible_path
from cspaces.construct import (check_cmap, exclude_endpoints, flexible_part,
                               hat, is_finer, opposite, product,
                               quotient_identify, reversible_closure,
                               reversible_part, subspace)
from cspaces.corpus import build
from cspaces.kinds import LOOPS, Family, Fragment
from cspaces.membership import is_controlled, parse_controlled
from cspaces.model import (PAUSE, EdgePoint, Pause, Position, RigidTrace, Run,
                           Seg, TraceStep, UnsupportedConstruction, Vertex,
                           assemble, reverse_path)
from cspaces.presentation import (bound_rigid, flexible_point, normalize,
                                  pos_point, project, split_path, trace_end,
                                  trace_path, trace_start)

from helpers import OPEN_WINDOWS, H, identity, interval
from oracle import brute_force_controlled
from sampling import random_graph_path, random_product_path

KINDS = {name: K.kind(name) for name in (
    "natural", "directed", "one_jump", "delayed_minus", "delayed_plus",
    "reversible_one_jump", "siphon", "siphon_osc", "still", "discrete_c")}
KINDS["n_stop3"] = K.n_stop(3)
KINDS["open_windows"] = OPEN_WINDOWS
# a rigid trace from 1/4 to 3/4 and no flexible position
KINDS["quarter_jump"] = K.custom(Family(rigid=(
    RigidTrace((TraceStep(None, F(1, 4), F(3, 4)),)),)))
PATHS = 150
DEPTH = 5


def paths(case: str, space, grid: int = 8):
    rng = random.Random(zlib.crc32(case.encode()))
    norm = normalize(space)
    return [random_graph_path(norm, rng, grid=grid) for _ in range(PATHS)]


def cut_at(space, t):
    """The interval cut at t: the subspace on both touching halves."""
    return subspace(space, [Vertex("v0"), Vertex("v1"),
                            ("e0", F(0), t), ("e0", t, F(1))])


THIRD = F(1, 3)
# subspace regions of the interval: the rigid trace 1/4 -> 3/4 of
# quarter_jump leaves each of them
REGIONS = [(F(0), H), (F(1, 8), F(5, 8)), (THIRD, F(1))]
LEFT, RIGHT, MID = "e0[0/1..1/3]", "e0[1/3..1/1]", Vertex("e0@1_3")


def on_halves(p):
    """A path of the interval, re-expressed on its halves cut at 1/3."""
    def at(x):
        t = x.t if isinstance(x, EdgePoint) else F(x.name == "v1")
        if t == THIRD:
            return MID
        if t in (0, 1):
            return x
        return EdgePoint(LEFT, t * 3) if t < THIRD \
            else EdgePoint(RIGHT, (t - THIRD) * F(3, 2))

    def pieces(seg):
        ends = [seg.a, THIRD, seg.b] if seg.lo < THIRD < seg.hi \
            else [seg.a, seg.b]
        for a, b in zip(ends, ends[1:]):
            if max(a, b) <= THIRD:
                yield Seg(LEFT, a * 3, b * 3)
            else:
                yield Seg(RIGHT, (a - THIRD) * F(3, 2), (b - THIRD) * F(3, 2))

    atoms = []
    for item in p.items:
        if isinstance(item, Pause):
            atoms.append(PAUSE)
        else:
            atoms.extend(piece for seg in item.segs for piece in pieces(seg))
    return assemble(at(p.start), atoms, at(p.end))


def _cuts(p):
    """Run boundaries and segment midpoints of a path (an edge parameter
    on a graph segment, a traversal fraction on a product segment)."""
    out = [Position(k) for k in range(1, len(p.items))]
    out += [Position(k, si, (seg.a + seg.b) / 2 if isinstance(seg, Seg)
                     else F(1, 2))
            for k, item in enumerate(p.items) if isinstance(item, Run)
            for si, seg in enumerate(item.segs)]
    return out


def assert_restriction_closed(space, p):
    """Both portions of the path p of `space` at each of its cuts are
    paths of `space`."""
    for pos in _cuts(p):
        for half in split_path(space, p, pos):
            assert is_controlled(space, half), (p, pos)


@pytest.mark.parametrize("name", sorted(KINDS))
class TestLaws:
    def test_space_inside_its_generated_d_space(self, name):
        sp = interval(KINDS[name])
        h = hat(sp)
        for p in paths(name + "/hat", sp):
            if is_controlled(sp, p):
                assert is_controlled(h, p), p

    def test_generated_d_space_is_idempotent_and_restriction_closed(self, name):
        h = hat(interval(KINDS[name]))
        assert h.generators == ()
        assert normalize(hat(h)) == h
        for p in paths(name + "/restrict", h):
            if is_controlled(h, p):
                assert_restriction_closed(h, p)

    def test_flexible_part_holds_the_flexible_paths(self, name):
        sp = interval(KINDS[name])
        fl = flexible_part(sp)
        for p in paths(name + "/fl", sp):
            flexible = is_controlled(sp, p) and is_flexible_path(sp, p)
            assert is_controlled(fl, p) == flexible, p

    def test_reversible_part_and_closure_bracket_the_space(self, name):
        sp = interval(KINDS[name])
        rp, rc = reversible_part(sp), reversible_closure(sp)
        for p in paths(name + "/rev", sp):
            inside = is_controlled(sp, p)
            if is_controlled(rp, p):
                assert inside, p
            if inside:
                assert is_controlled(rc, p), p

    def test_reversible_part_keeps_the_trivial_loops(self, name):
        # a constant path is its own reverse
        sp = interval(KINDS[name])
        rp = reversible_part(sp)
        qs = {pos_point(sp, "e0", F(k, 8)) for k in range(9)}
        qs.update(x for tr in bound_rigid(sp)
                  for x in (trace_start(sp, tr), trace_end(sp, tr)))
        qs.update(x for p in paths(name + "/loops", sp)
                  for x in (p.start, p.end))
        lost = {q for q in qs
                if flexible_point(sp, q) and not flexible_point(rp, q)}
        assert not lost

    @pytest.mark.parametrize("lo, hi", REGIONS)
    def test_subspace_keeps_the_trivial_loops(self, name, lo, hi):
        # a constant path in the region is a path of the subspace
        sp = interval(KINDS[name])
        sub = subspace(sp, [("e0", lo, hi)])
        (piece,) = sub.edges
        ts = {F(k, 24) for k in range(25)}
        ts.update(x for tr in K.kind_generators(KINDS[name]).rigid
                  for x in (tr.steps[0].a, tr.steps[-1].b))
        lost = [t for t in sorted(ts) if lo <= t <= hi
                and flexible_point(sp, pos_point(sp, "e0", t))
                and not flexible_point(
                    sub, pos_point(sub, piece.id, (t - lo) / (hi - lo)))]
        assert lost == []

    def test_subspace_keeps_the_trivial_loop_at_an_isolated_vertex(self, name):
        # v1 is kept, but no kept edge reaches it
        sp = interval(KINDS[name])
        sub = subspace(sp, [Vertex("v1"), ("e0", F(0), H)])
        v1 = Vertex("v1")
        assert flexible_point(normalize(sub), v1) == flexible_point(sp, v1)

    def test_reversal_maps_onto_the_opposite(self, name):
        sp = interval(KINDS[name])
        op = opposite(sp)
        for p in paths(name + "/op", sp):
            assert is_controlled(sp, p) == is_controlled(op, reverse_path(p)), p
        assert normalize(opposite(op)) == sp

    def test_trivial_loops_at_generator_ends_are_controlled(self, name):
        g = interval(KINDS[name])
        for tr in bound_rigid(g):
            assert flexible_point(g, trace_start(g, tr)), tr
            assert flexible_point(g, trace_end(g, tr)), tr
        for p in paths(name + "/ends", g):
            if is_controlled(g, p):
                assert flexible_point(g, p.start), p
                assert flexible_point(g, p.end), p

    def test_finer_than_its_constructions(self, name):
        sp = interval(KINDS[name])
        assert check_cmap(identity(sp), sp, sp) == (True, [])
        for fine, coarse in ((sp, sp), (sp, hat(sp)), (flexible_part(sp), sp),
                             (reversible_part(sp), sp),
                             (sp, reversible_closure(sp))):
            assert is_finer(fine, coarse), (fine, coarse)

    def test_cut_at_a_third_keeps_the_controlled_paths(self, name):
        sp = interval(KINDS[name])
        cut = cut_at(sp, THIRD)
        whole = [trace_path(sp, tr) for tr in bound_rigid(sp)]
        for p in paths(name + "/cut", sp, grid=12) + whole:
            assert is_controlled(cut, on_halves(p)) == is_controlled(sp, p), p

    def test_quotient_at_anchor_agrees_with_oracle(self, name):
        sp = interval(KINDS[name])
        anchor = EdgePoint("e0", F(1, 3))
        q = normalize(quotient_identify(sp, [[Vertex("v0"), anchor]]))
        assert len(q.edges) == 2
        compared = 0
        for p in paths(name + "/quotient", q):
            out = parse_controlled(q, p)
            if out.controlled and out.count > DEPTH:
                continue  # beyond the oracle's horizon
            assert out.controlled == brute_force_controlled(q, p, depth=DEPTH), p
            compared += 1
        assert compared > PATHS // 2


def test_flexible_part_cuts_fragments_where_no_portion_may_end():
    # the rising window (1/4, 1] may not end at 1/2, and [0, 1/2) never
    # reaches it: the portion 3/8 -> 1/2 of the first run is not controlled
    sp = interval(OPEN_WINDOWS)
    at = {k: EdgePoint("e0", F(k, 8)) for k in range(1, 8)}
    p = assemble(at[3], [Seg("e0", F(3, 8), F(5, 8)), PAUSE,
                         Seg("e0", F(5, 8), F(1, 4))], at[2])
    assert is_controlled(sp, p) and not is_flexible_path(sp, p)
    assert not is_controlled(flexible_part(sp), p)
    # a run that stops short of 1/2 stays flexible
    q = assemble(at[3], [Seg("e0", F(3, 8), F(7, 16))],
                 EdgePoint("e0", F(7, 16)))
    assert is_flexible_path(sp, q) and is_controlled(flexible_part(sp), q)


def test_fragment_run_ends_are_flexible_points():
    # 3/8 -> 5/8 is a run of the window (1/4, 1], so the trivial loops at
    # its ends are controlled, and excluding 3/8 loses controlled paths
    sp = interval(OPEN_WINDOWS)
    a, b = EdgePoint("e0", F(3, 8)), EdgePoint("e0", F(5, 8))
    assert is_controlled(sp, assemble(a, [Seg("e0", F(3, 8), F(5, 8))], b))
    assert flexible_point(sp, a) and flexible_point(sp, b)
    assert not is_finer(sp, exclude_endpoints(sp, [a]))


# Products: every pair of the interval kinds above, and the corpus products.
PRODUCTS = {f"{a}*{b}": product(interval(KINDS[a]), interval(KINDS[b]))
            for a, b in itertools.combinations_with_replacement(sorted(KINDS), 2)}
PRODUCTS.update((name, build(name)) for name in ("c_square", "hybrid_square"))
PRODUCTS["c_torus2"] = build("c_torus", n=2)
PRODUCTS["c_torus3"] = build("c_torus", n=3)
PRODUCTS["c_square*two_jump"] = product(build("c_square"), build("two_jump"))
PRODUCT_PATHS = 40


def product_paths(case: str, space):
    rng = random.Random(zlib.crc32(case.encode()))
    norm = normalize(space)
    return [random_product_path(norm, rng) for _ in range(PRODUCT_PATHS)]


@pytest.mark.parametrize("name", sorted(PRODUCTS))
class TestProductLaws:
    def test_product_inside_its_idempotent_restriction_closed_hat(self, name):
        sp = PRODUCTS[name]
        h = normalize(hat(sp))
        assert normalize(hat(h)) == h
        for p in product_paths(name + "/hat", sp):
            if is_controlled(sp, p):
                assert is_controlled(h, p), p
            if is_controlled(h, p):
                assert_restriction_closed(h, p)

    def test_controlled_iff_each_projection_is(self, name):
        for space in (PRODUCTS[name], hat(PRODUCTS[name])):
            norm = normalize(space)
            for p in product_paths(name + "/projection", space):
                each = all(is_controlled(f, project(p, norm, i))
                           for i, f in enumerate((norm.left, norm.right)))
                assert is_controlled(norm, p) == each, p

    def test_opposite_is_an_involution(self, name):
        sp = PRODUCTS[name]
        op = opposite(sp)
        assert normalize(opposite(op)) == normalize(sp)
        for p in product_paths(name + "/op", sp):
            assert is_controlled(sp, p) == is_controlled(op, reverse_path(p)), p


def test_n_stop_splits_into_two_n_stops():
    g = cut_at(interval(K.n_stop(4)), H)
    assert [e.kind for e in g.edges] == [K.n_stop(2), K.n_stop(2)]
    g = cut_at(interval(K.n_stop(4)), F(1, 4))
    assert [e.kind for e in g.edges] == [K.ONE_JUMP, K.n_stop(3)]


def test_split_refuses_a_forbidden_instance_start():
    kind = K.custom(Family(fragments=(Fragment(1, start_not=frozenset({H})),
                                      LOOPS)))
    with pytest.raises(UnsupportedConstruction):
        cut_at(interval(kind), H)
    g = cut_at(interval(kind), F(1, 3))
    assert len(g.edges) == 2


# kind of the rewritten edge: hat, flexible part, reversible part and
# closure, opposite (named kinds keep their names where a named kind
# generates exactly the rewritten family)
KIND_TABLE = {
    "natural": ("natural", "natural", "natural", "natural", "natural"),
    "directed": ("directed", "directed", "still", "natural", "custom"),
    "one_jump": ("directed", "discrete_c", "discrete_c",
                 "reversible_one_jump", "custom"),
    "delayed_minus": ("directed", "discrete_c", "discrete_c", "custom",
                      "custom"),
    "delayed_plus": ("directed", "discrete_c", "discrete_c", "custom",
                     "custom"),
    "reversible_one_jump": ("natural", "discrete_c", "reversible_one_jump",
                            "reversible_one_jump", "reversible_one_jump"),
    "siphon": ("natural", "directed", "custom", "natural", "custom"),
    "siphon_osc": ("natural", "custom", "custom", "natural", "custom"),
    "still": ("still", "still", "still", "still", "still"),
    "discrete_c": ("still", "discrete_c", "discrete_c", "discrete_c",
                   "discrete_c"),
    "n_stop3": ("directed", "discrete_c", "discrete_c", "custom", "custom"),
    "open_windows": ("custom",) * 5,
}


@pytest.mark.parametrize("name", sorted(KIND_TABLE))
def test_constructions_name_the_rewritten_kind(name):
    sp = interval(KINDS[name])
    got = tuple(normalize(c(sp)).edges[0].kind.name for c in (
        hat, flexible_part, reversible_part, reversible_closure, opposite))
    assert got == KIND_TABLE[name]
