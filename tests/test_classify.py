"""Point and path classification: frozen expected values per model."""

import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from cspaces import kinds as K
from cspaces import presentation, reach

from cspaces.classify import (classify_point, is_flexible_path,
                              is_flexible_point, is_rigid_path,
                              is_rigid_space, is_splittable)
from cspaces.construct import exclude_endpoints
from cspaces.corpus import build
from cspaces.membership import is_controlled
from cspaces.model import (PAUSE, EdgePoint, ModelError, Position, ProdSeg,
                           PTuple, Seg, Vertex, assemble)
from cspaces.presentation import Edge, GraphPresentation, Product, split_path

from helpers import Z, O, H

V0, V1 = Vertex("v0"), Vertex("v1")


def flags(space, p):
    c = classify_point(space, p)
    return (c.flexible, c.critical, c.future_critical, c.past_critical)


class TestOneJumpInterval:
    sp = build("c_interval")

    def test_bottom_is_flexible_critical_future(self):
        assert flags(self.sp, V0) == (True, True, True, False)

    def test_interior_is_critical_not_flexible(self):
        assert flags(self.sp, EdgePoint("e0", H)) == (False, True, False, False)
        assert flags(self.sp, EdgePoint("e0", F(1, 3))) == (False, True, False, False)

    def test_top_is_flexible_critical_past(self):
        assert flags(self.sp, V1) == (True, True, False, True)

    def test_rigid_space(self):
        assert is_rigid_space(self.sp)

    def test_full_run_is_rigid_path(self):
        p = assemble(V0, [Seg("e0", Z, O)], V1)
        assert is_rigid_path(self.sp, p)
        assert not is_flexible_path(self.sp, p)

    def test_run_with_pause_still_rigid(self):
        # the trailing pause half is constant, so no split into two
        # nonconstant controlled portions exists
        p = assemble(V0, [Seg("e0", Z, O), PAUSE], V1)
        assert is_rigid_path(self.sp, p)
        assert is_splittable(self.sp, p, Position(1))


class TestNaturalInterval:
    sp = build("natural_interval")

    def test_everything_flexible_nothing_critical(self):
        for p in (V0, V1, EdgePoint("e0", H)):
            fl, cr, fc, pc = flags(self.sp, p)
            assert fl and not cr and not fc and not pc

    def test_paths_flexible_not_rigid_space(self):
        p = assemble(V0, [Seg("e0", Z, O)], V1)
        assert is_flexible_path(self.sp, p)
        assert not is_rigid_space(self.sp)

    def test_rigid_path_rejects_flexible_path(self):
        p = assemble(V0, [Seg("e0", Z, O)], V1)
        assert not is_rigid_path(self.sp, p)


class TestLineWindow:
    sp = build("c_line_window")

    def test_all_points_critical(self):
        for t in (F(1, 6), F(1, 3), H, F(2, 3)):
            assert flags(self.sp, EdgePoint("e0", t))[1]
        assert flags(self.sp, Vertex("v0"))[1]
        assert flags(self.sp, Vertex("v3"))[1]

    def test_interior_anchors_bilaterally_critical(self):
        for t in (F(1, 3), F(2, 3)):
            assert flags(self.sp, EdgePoint("e0", t)) == (True, True, True, True)

    def test_window_ends_one_sided(self):
        assert flags(self.sp, Vertex("v0")) == (True, True, True, False)
        assert flags(self.sp, Vertex("v3")) == (True, True, False, True)

    def test_off_anchor_points_not_flexible(self):
        assert flags(self.sp, EdgePoint("e0", F(1, 6)))[0] is False

    def test_unit_jump_is_rigid(self):
        p = assemble(EdgePoint("e0", F(1, 3)), [Seg("e0", F(1, 3), F(2, 3))],
                     EdgePoint("e0", F(2, 3)))
        assert is_rigid_path(self.sp, p)

    def test_two_jump_chain_not_rigid(self):
        p = assemble(Vertex("v0"), [Seg("e0", Z, F(2, 3))],
                     EdgePoint("e0", F(2, 3)))
        assert not is_rigid_path(self.sp, p)
        assert is_splittable(self.sp, p, Position(0, 0, F(1, 3)))


class TestMixedWindow:
    sp = build("window_2_3e")

    def test_jump_base_future_critical_flexible(self):
        assert flags(self.sp, V1) == (True, False, True, False)

    def test_jump_interior_critical_not_flexible(self):
        assert flags(self.sp, EdgePoint("e1", H)) == (False, True, False, False)

    def test_jump_top_past_critical_flexible(self):
        assert flags(self.sp, Vertex("v2")) == (True, False, False, True)

    def test_directed_stretch_not_critical(self):
        fl, cr, fc, pc = flags(self.sp, EdgePoint("e0", H))
        assert fl and not cr and not fc and not pc


class TestCircles:
    def test_base_circle_all_points_critical(self):
        sp = build("c_circle")
        assert flags(sp, V0) == (True, True, True, True)
        assert flags(sp, EdgePoint("e0", H)) == (False, True, False, False)
        assert is_rigid_space(sp)

    def test_stop_circle_rigid(self):
        sp = build("n_stop_circle")
        assert is_rigid_space(sp)
        assert flags(sp, EdgePoint("e0", F(1, 3))) == (True, True, True, True)


class TestSiphons:
    def test_siphon_top_future_critical_only(self):
        sp = build("siphon")
        assert flags(sp, V1) == (True, False, True, False)
        assert flags(sp, V0) == (True, False, False, True)
        assert flags(sp, EdgePoint("e0", H)) == (True, False, False, False)

    def test_siphon_no_bilaterally_critical_point(self):
        sp = build("siphon")
        for p in (V0, V1, EdgePoint("e0", F(1, 4)), EdgePoint("e0", H),
                  EdgePoint("e0", F(3, 4))):
            fl, cr, fc, pc = flags(sp, p)
            assert not (fc and pc)

    def test_osc_top_future_critical_bottom_not_past(self):
        sp = build("siphon_osc")
        assert flags(sp, V1) == (True, False, True, False)
        assert flags(sp, V0)[3] is False


class TestExcludedSiphon:
    sp = exclude_endpoints(build("siphon"), [V1])

    def test_excluded_point_critical_not_flexible(self):
        fl, cr, fc, pc = flags(self.sp, V1)
        assert not fl and cr


class TestProducts:
    sp = build("c_square")

    def test_corners_are_the_only_flexible_points(self):
        pts = [V0, V1, EdgePoint("e0", H)]
        flex = [(a, b) for a in pts for b in pts
                if is_flexible_point(self.sp, PTuple((a, b)))]
        assert flex == [(a, b) for a in (V0, V1) for b in (V0, V1)]

    def test_interior_point_critical(self):
        p = PTuple((EdgePoint("e0", H), EdgePoint("e0", H)))
        assert flags(self.sp, p) == (False, True, False, False)

    def test_mixed_point_critical(self):
        p = PTuple((V0, EdgePoint("e0", H)))
        assert flags(self.sp, p) == (False, True, False, False)

    def test_origin_future_critical(self):
        p = PTuple((V0, V0))
        assert flags(self.sp, p) == (True, True, True, False)

    def test_hybrid_square_axis_points(self):
        hy = build("hybrid_square")
        # one-jump coordinate parked at 0, directed coordinate free
        p = PTuple((V0, EdgePoint("e0", H)))
        fl, cr, fc, pc = flags(hy, p)
        assert fl and not cr

    def test_diagonal_staircase_flexible_in_directed_square(self):
        dsq = build("hybrid_square")
        stair = assemble(
            PTuple((V0, V0)),
            [ProdSeg((Seg("e0", Z, O), V0)), ProdSeg((V1, Seg("e0", Z, O)))],
            PTuple((V1, V1)))
        assert is_flexible_path(dsq, stair) is False  # jump coordinate rigid


def _interval(edge, kind) -> GraphPresentation:
    """The interval edge- -edge-> edge+ carrying one kind."""
    return GraphPresentation(frozenset({edge + "-", edge + "+"}),
                             (Edge(edge, edge + "-", edge + "+", kind),))


def _at(edge, t):
    return (Vertex(edge + "-") if t == Z else Vertex(edge + "+") if t == O
            else EdgePoint(edge, t))


# Products with an n_stop factor, as trees of (edge, kind, stops) leaves:
# a coordinate rests at or moves between its stops.  Every cut value of
# these edges is a multiple of 1/N.
N = 12
QUARTERS = tuple(F(k, 4) for k in range(5))
LEAVES = {
    "stop2": ("e0", K.n_stop(2), (Z, H, O)),
    "stop3": ("e0", K.n_stop(3), tuple(F(k, 3) for k in range(4))),
    "natural": ("f0", K.NATURAL, QUARTERS),
    "directed": ("f0", K.DIRECTED, QUARTERS),
    "one_jump": ("f0", K.ONE_JUMP, (Z, O)),
    "stop4": ("f0", K.n_stop(4), QUARTERS),
    "natural_g": ("g0", K.NATURAL, QUARTERS),
}
TREES = [("stop3", "natural"), ("stop2", "directed"), ("stop3", "one_jump"),
         ("stop2", "stop4"), (("stop3", "natural"), "natural_g")]


def _space(tree):
    if isinstance(tree, str):
        edge, kind, _ = LEAVES[tree]
        return _interval(edge, kind)
    return Product(_space(tree[0]), _space(tree[1]))


def _start(tree, rng):
    """A random point: each coordinate at one of its stops."""
    if isinstance(tree, str):
        edge, _, stops = LEAVES[tree]
        return _at(edge, rng.choice(stops))
    return PTuple((_start(tree[0], rng), _start(tree[1], rng)))


def _move(tree, x, rng):
    """(motion or resting point, next point): each coordinate rests or
    moves straight to another of its stops, all of them together."""
    if isinstance(tree, str):
        edge, _, stops = LEAVES[tree]
        t = Z if x == Vertex(edge + "-") else O if x == Vertex(edge + "+") \
            else x.t
        if rng.random() < 0.3:
            return x, x
        b = rng.choice([u for u in stops if u != t])
        return Seg(edge, t, b), _at(edge, b)
    parts = [_move(sub, xi, rng) for sub, xi in zip(tree, x.parts)]
    y = PTuple(tuple(p for _, p in parts))
    if y == x:
        return x, x
    return ProdSeg(tuple(m for m, _ in parts)), y


def _random_path(tree, rng):
    start = cur = _start(tree, rng)
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.2:
            atoms.append(PAUSE)
        motion, nxt = _move(tree, cur, rng)
        if nxt != cur:
            atoms.append(motion)
            cur = nxt
    return assemble(start, atoms, cur)


def _crossings(seg) -> set:
    """Traversal fractions strictly inside a product segment where some
    coordinate is at a multiple of 1/N."""
    out = set()
    for part in seg.parts:
        if isinstance(part, ProdSeg):
            out |= _crossings(part)
        elif isinstance(part, Seg):
            out.update((F(k, N) - part.a) / (part.b - part.a)
                       for k in range(1, N)
                       if min(part.a, part.b) < F(k, N) < max(part.a, part.b))
    return out


def _exact_cuts(path):
    """Every cut of a product path up to cuts that answer alike: the item
    and segment boundaries, each fraction where a coordinate crosses a
    multiple of 1/N, and the midpoints between those."""
    cuts = [Position(k) for k in range(1, len(path.items))]
    for k, item in enumerate(path.items):
        if item is PAUSE:
            continue
        for si, seg in enumerate(item.segs):
            if si:
                cuts.append(Position(k, si, Z))
            lams = sorted(_crossings(seg) | {Z, O})
            inner = lams[1:-1] + [(a + b) / 2 for a, b in zip(lams, lams[1:])]
            cuts.extend(Position(k, si, lam) for lam in inner)
    return cuts


def _splits(space, path) -> bool:
    """Does some cut split the path into two nonconstant controlled parts?"""
    for cut in _exact_cuts(path):
        left, right = split_path(space, path, cut)
        if not (left.is_trivial() or right.is_trivial()) \
                and is_controlled(space, left) and is_controlled(space, right):
            return True
    return False


class TestRigidProductPaths:
    def test_a_cut_inside_a_product_segment_splits_it(self):
        # e0 jumps 0 -> 1/3 -> 2/3 -> 1 while f0 runs 0 -> 1 alongside
        sp = _space(("stop3", "natural"))
        p = assemble(PTuple((_at("e0", Z), _at("f0", Z))),
                     [ProdSeg((Seg("e0", Z, O), Seg("f0", Z, O)))],
                     PTuple((_at("e0", O), _at("f0", O))))
        assert is_controlled(sp, p)
        assert is_splittable(sp, p, Position(0, 0, F(1, 3)))
        assert not is_rigid_path(sp, p)

    @pytest.mark.parametrize("tree", TREES, ids=str)
    def test_rigid_paths_match_an_exact_cut_search(self, tree):
        sp = _space(tree)
        rng = random.Random(f"rigid {tree}")
        checked = rigid = 0
        for _ in range(200):
            p = _random_path(tree, rng)
            if p.is_trivial() or not is_controlled(sp, p):
                continue
            checked += 1
            expect = not _splits(sp, p)
            rigid += expect
            assert is_rigid_path(sp, p) == expect, p
        assert checked >= 20 and 0 < rigid < checked


def test_a_classified_presentation_dies_with_its_last_reference():
    """Its flexible part is kept on it, not in a module cache."""
    sp = GraphPresentation(frozenset({"a", "b"}),
                           (Edge("weak", "a", "b", K.n_stop(3)),),
                           flexible=frozenset({EdgePoint("weak", F(1, 7))}))
    assert classify_point(sp, EdgePoint("weak", H)).has_nontrivial_path_through
    third = EdgePoint("weak", F(1, 3))
    assert not is_flexible_path(sp, assemble(Vertex("a"), [Seg("weak", Z, F(1, 3))],
                                             third))
    for cache in (presentation.edge_map, presentation.family,
                  presentation.cuts, presentation.bound_rigid,
                  presentation.closed_traces, presentation.normalize,
                  reach.transitions):
        cache.cache_clear()
    ref = weakref.ref(sp)
    del sp
    gc.collect()
    assert ref() is None


class TestRigidPathErrors:
    def test_uncontrolled_path_raises(self):
        p = assemble(V0, [Seg("e0", Z, H)], EdgePoint("e0", H))
        with pytest.raises(ModelError):
            is_rigid_path(build("c_interval"), p)

    def test_trivial_path_raises(self):
        with pytest.raises(ModelError):
            is_rigid_path(build("c_interval"), assemble(V0, [], V0))
