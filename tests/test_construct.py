"""Space constructions: hat, flexible part, opposite, reversible
closure/part, reshaping comparison, controlled maps."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from cspaces import kinds as K
from cspaces.classify import is_flexible_path
from cspaces.construct import (EdgeImage, check_cmap, cmap, exclude_endpoints,
                               flexible_part, functor_D, functor_Dc,
                               functor_Dprime, hat, is_finer, map_path,
                               map_point, opposite, product,
                               quotient_identify, reversible_closure,
                               reversible_part, subspace, sum_space)
from cspaces.corpus import build
from cspaces.kinds import Family, Fragment
from cspaces.membership import is_controlled
from cspaces.model import (PAUSE, EdgePoint, ModelError, ProdSeg, PTuple,
                           RigidTrace, Seg, TraceStep, UnsupportedConstruction,
                           Vertex, assemble, reverse_path)
from cspaces.presentation import (Edge, GraphPresentation, ProductN,
                                  Subspace, normalize, validate)
from cspaces.reach import c_reachable, d_reachable

from helpers import Z, O, H, identity, interval

V0, V1 = Vertex("v0"), Vertex("v1")
UP = assemble(V0, [Seg("e0", Z, O)], V1)
DOWN = assemble(V1, [Seg("e0", O, Z)], V0)
HALF_UP = assemble(V0, [Seg("e0", Z, H)], EdgePoint("e0", H))


def kinds(sp):
    return {e.id: e.kind.name for e in normalize(sp).edges}


class TestHat:
    def test_hat_kind_table(self):
        assert kinds(hat(build("c_interval"))) == {"e0": "directed"}
        assert kinds(hat(build("delayed_minus"))) == {"e0": "directed"}
        assert kinds(hat(build("delayed_plus"))) == {"e0": "directed"}
        assert kinds(hat(build("c_line_window"))) == {"e0": "directed"}
        assert kinds(hat(build("reversible_one_jump"))) == {"e0": "natural"}
        assert kinds(hat(build("siphon"))) == {"e0": "natural"}
        assert kinds(hat(build("siphon_osc"))) == {"e0": "natural"}
        assert kinds(hat(build("natural_interval"))) == {"e0": "natural"}

    def test_hat_accepts_restrictions(self):
        h = hat(build("c_interval"))
        assert is_controlled(h, HALF_UP)
        assert not is_controlled(h, DOWN)

    def test_hat_of_product_is_product_of_hats(self):
        ci, cj = build("c_interval"), build("two_jump")
        h = normalize(hat(product(ci, cj)))
        assert h == normalize(product(hat(ci), hat(cj)))
        assert h == ProductN(hat(ci), hat(cj))

    def test_hat_of_nested_product(self):
        ci, cj = build("c_interval"), build("two_jump")
        sp = product(product(ci, ci), cj)
        h = hat(sp)
        assert normalize(h) == normalize(
            product(product(hat(ci), hat(ci)), hat(cj)))
        m = EdgePoint("e0", H)
        start, mid = PTuple((PTuple((V0, V0)), V0)), PTuple((PTuple((m, m)), m))
        halves = assemble(start, [ProdSeg((ProdSeg((Seg("e0", Z, H),
                                                    Seg("e0", Z, H))),
                                           Seg("e0", Z, H)))], mid)
        assert is_controlled(h, halves)
        assert not is_controlled(sp, halves)
        # the factor ci x ci waits at (m, m) while two_jump's jump runs
        end = PTuple((PTuple((m, m)), Vertex("vm")))
        assert d_reachable(sp, mid, end).ok
        assert not c_reachable(sp, mid, end).ok

    def test_hat_clears_excluded(self):
        sp = exclude_endpoints(build("siphon"), [V1])
        assert is_controlled(hat(sp), UP)


class TestFlexiblePart:
    def test_flexible_part_kind_table(self):
        assert kinds(flexible_part(build("c_interval"))) == {"e0": "discrete_c"}
        assert kinds(flexible_part(build("c_line_window"))) == {"e0": "discrete_c"}
        assert kinds(flexible_part(build("siphon"))) == {"e0": "directed"}
        assert kinds(flexible_part(build("siphon_osc"))) == {"e0": "custom"}
        assert kinds(flexible_part(build("natural_interval"))) == {"e0": "natural"}

    def test_flexible_part_of_jump_keeps_endpoints_only(self):
        fl = flexible_part(build("c_interval"))
        assert is_controlled(fl, assemble(V0, [], V0))
        assert is_controlled(fl, assemble(V1, [], V1))
        assert not is_controlled(fl, UP)
        m = EdgePoint("e0", H)
        assert not is_controlled(fl, assemble(m, [], m))

    def test_flexible_part_of_line_window_is_discrete_anchor_set(self):
        fl = normalize(flexible_part(build("c_line_window")))
        assert set(fl.flexible) == {Vertex("v0"), Vertex("v3"),
                                    EdgePoint("e0", F(1, 3)),
                                    EdgePoint("e0", F(2, 3))}

    def test_flexible_part_of_oscillating_siphon_runs_through_the_top(self):
        # the top of siphon_osc is not absorbing: a flexible rise may go on
        g = GraphPresentation(
            frozenset({"v0", "v1", "v2"}),
            (Edge("e0", "v0", "v1", K.SIPHON_OSC),
             Edge("e1", "v1", "v2", K.NATURAL)))
        p = assemble(V0, [Seg("e0", Z, O), Seg("e1", Z, H)], EdgePoint("e1", H))
        assert is_controlled(g, p) and is_flexible_path(g, p)
        assert is_controlled(flexible_part(g), p)

    def test_flexible_part_keeps_rigid_trace_ends_flexible(self):
        q1, q3 = EdgePoint("e0", F(1, 4)), EdgePoint("e0", F(3, 4))
        jump = RigidTrace((TraceStep("e0", F(1, 4), F(3, 4)),))
        fl = flexible_part(GraphPresentation(
            frozenset({"v0", "v1"}),
            (Edge("e0", "v0", "v1", K.custom(Family(rigid=(jump,)))),)))
        assert is_controlled(fl, assemble(q1, [], q1))
        assert is_controlled(fl, assemble(q3, [], q3))
        assert not is_controlled(fl, assemble(V0, [], V0))
        assert not is_controlled(fl, assemble(q1, [Seg("e0", F(1, 4), F(3, 4))], q3))

    def test_flexible_part_of_siphon_keeps_rises_only(self):
        fl = flexible_part(build("siphon"))
        assert is_controlled(fl, HALF_UP)
        assert not is_controlled(fl, DOWN)


class TestOpposite:
    def test_opposite_swaps_membership_with_reversal(self):
        for name in ("c_interval", "d_interval", "siphon", "delayed_minus"):
            sp, op = build(name), opposite(build(name))
            for p in (UP, DOWN, HALF_UP):
                assert is_controlled(op, p) == is_controlled(sp, reverse_path(p))

    def test_opposite_involution_membership(self):
        for name in ("c_interval", "d_interval", "siphon", "siphon_osc"):
            sp, opop = build(name), opposite(opposite(build(name)))
            for p in (UP, DOWN, HALF_UP):
                assert is_controlled(sp, p) == is_controlled(opop, p)

    def test_delayed_reverse_isomorphism(self):
        # pause-before-jump space == coordinate flip of the opposite of the
        # pause-after-jump space
        minus, op_plus = build("delayed_minus"), opposite(build("delayed_plus"))

        def flip_pt(p):
            if isinstance(p, Vertex):
                return V1 if p == V0 else V0
            return EdgePoint(p.edge, O - p.t)

        def flip(path):
            atoms = []
            for item in path.items:
                if not hasattr(item, "segs"):
                    atoms.append(PAUSE)
                    continue
                for s in item.segs:
                    atoms.append(Seg(s.edge, O - s.a, O - s.b))
            return assemble(flip_pt(path.start), atoms, flip_pt(path.end))

        cases = [
            assemble(V0, [PAUSE, Seg("e0", Z, O)], V1),
            assemble(V0, [Seg("e0", Z, O), PAUSE], V1),
            assemble(V0, [Seg("e0", Z, O)], V1),
            assemble(V0, [PAUSE, Seg("e0", Z, O), PAUSE], V1),
            DOWN, HALF_UP,
        ]
        for p in cases:
            assert is_controlled(minus, p) == is_controlled(op_plus, flip(p))


class TestReversibleClosure:
    def test_closure_kind_table(self):
        assert kinds(reversible_closure(build("c_interval"))) == {"e0": "reversible_one_jump"}
        assert kinds(reversible_closure(build("d_interval"))) == {"e0": "natural"}
        assert kinds(reversible_closure(build("siphon"))) == {"e0": "natural"}
        assert kinds(reversible_closure(build("c_line_window"))) == {"e0": "n_stop"}
        assert kinds(reversible_closure(build("delayed_minus"))) == {"e0": "delayed_minus"}

    def test_closure_of_delayed_adds_reversed_generator(self):
        rc = reversible_closure(build("delayed_minus"))
        # the reversed jump carries its pause on the other side
        assert not is_controlled(rc, DOWN)
        assert not is_controlled(rc, assemble(V1, [PAUSE, Seg("e0", O, Z)], V0))
        assert is_controlled(rc, assemble(V1, [Seg("e0", O, Z), PAUSE], V0))

    def test_closure_contains_original(self):
        rc = reversible_closure(build("c_interval"))
        assert is_controlled(rc, UP) and is_controlled(rc, DOWN)
        assert not is_controlled(rc, HALF_UP)

    def test_closure_unsupported_on_products(self):
        with pytest.raises(UnsupportedConstruction):
            reversible_closure(build("c_square"))


class TestReversiblePart:
    def test_part_kind_table(self):
        assert kinds(reversible_part(build("c_interval"))) == {"e0": "discrete_c"}
        assert kinds(reversible_part(build("d_interval"))) == {"e0": "still"}
        assert kinds(reversible_part(build("natural_interval"))) == {"e0": "natural"}
        assert kinds(reversible_part(build("reversible_one_jump"))) == {"e0": "reversible_one_jump"}

    def test_part_of_siphon_keeps_full_sweeps_only(self):
        rp = reversible_part(build("siphon"))
        assert is_controlled(rp, UP)
        assert is_controlled(rp, DOWN)
        assert not is_controlled(rp, HALF_UP)

    def test_part_of_oscillating_siphon_keeps_interior_swings(self):
        rp = reversible_part(build("siphon_osc"))
        lo, hi = EdgePoint("e0", F(3, 10)), EdgePoint("e0", F(9, 10))
        assert is_controlled(rp, assemble(hi, [Seg("e0", F(9, 10), F(3, 10))], lo))
        assert is_controlled(rp, assemble(lo, [Seg("e0", F(3, 10), F(9, 10))], hi))
        # fall from the very top is irreversible (rises may not end at 1)
        assert not is_controlled(
            rp, assemble(V1, [Seg("e0", O, F(3, 10))], lo))
        assert is_controlled(rp, DOWN)


class TestDFunctors:
    def test_kind_table(self):
        g = build("c_interval")
        assert kinds(functor_D(g)) == {"e0": "still"}
        assert kinds(functor_Dprime(g)) == {"e0": "natural"}
        assert kinds(functor_Dc(g)) == {"e0": "discrete_c"}

    def test_membership_ordering(self):
        g = build("c_interval")
        wiggle = assemble(V0, [Seg("e0", Z, H), Seg("e0", H, F(1, 4))],
                          EdgePoint("e0", F(1, 4)))
        assert not is_controlled(functor_D(g), wiggle)       # still: pauses only
        assert is_controlled(functor_Dprime(g), wiggle)      # everything
        assert not is_controlled(functor_Dc(g), assemble(V0, [], V0)
                                 ) is False or True
        # D keeps trivial loops everywhere
        m = EdgePoint("e0", H)
        assert is_controlled(functor_D(g), assemble(m, [], m))
        assert not is_controlled(functor_Dc(g), assemble(m, [], m))


class TestFiner:
    def test_frozen_comparisons(self):
        assert is_finer(build("delayed_minus"), build("c_interval"))
        assert not is_finer(build("c_interval"), build("delayed_minus"))
        assert is_finer(build("c_interval"), build("d_interval"))
        assert is_finer(build("d_interval"), build("natural_interval"))
        assert not is_finer(build("natural_interval"), build("d_interval"))

    def test_different_support_rejected(self):
        with pytest.raises(ModelError):
            is_finer(build("c_interval"), build("two_jump"))

    def test_hat_is_coarser(self):
        for name in ("c_interval", "siphon", "delayed_minus", "c_line_window"):
            sp = build(name)
            assert is_finer(sp, hat(sp))

    def test_trivial_loops_at_rigid_trace_ends_must_stay_controlled(self):
        # the jump 1/4 -> 3/4 runs in the rising window, and so do the
        # trivial loops at its ends, unless the coarse space excludes one
        jump = interval(K.custom(Family(rigid=(
            RigidTrace((TraceStep("e0", F(1, 4), F(3, 4)),)),))))
        window = interval(K.custom(Family(fragments=(Fragment(1),))))
        assert is_finer(jump, window)
        coarse = exclude_endpoints(window, [EdgePoint("e0", F(1, 4))])
        assert not is_finer(jump, coarse)
        ok, failures = check_cmap(identity(jump), jump, coarse)
        assert not ok and "maps to a rigid point" in failures[0]

    def test_a_window_is_finer_than_its_two_halves(self):
        # 0 -> 1 is a run of [0, 1/2] followed by a run of [1/2, 1]
        whole = interval(K.custom(Family(fragments=(Fragment(1),))))
        halves = interval(K.custom(Family(fragments=(
            Fragment(1, Z, H), Fragment(1, H, O)))))
        assert is_finer(whole, halves) and is_finer(halves, whole)

    def test_points_that_only_the_coarse_space_cuts_are_compared(self):
        # 1/2 is a cut value of the coarse space alone, where no path may end
        sp = build("natural_interval")
        assert not is_finer(sp, exclude_endpoints(sp, [EdgePoint("e0", H)]))

    def test_runs_inside_one_gap_between_cut_values_are_compared(self):
        # the window (1/4, 1/2) is open at both cut values, so all of its
        # runs start and end strictly between them
        gap = interval(K.custom(Family(fragments=(
            Fragment(1, F(1, 4), H, lo_open=True, hi_open=True),))))
        assert not is_finer(gap, interval(K.STILL))
        assert is_finer(gap, interval(K.DIRECTED))


class TestBasicConstructors:
    def test_sum_disjoint_union(self):
        a = build("c_interval")
        b = normalize(build("two_jump"))
        with pytest.raises(ModelError):
            sum_space(a, build("c_interval"))  # name clash
        s = sum_space(a, _rename(b))
        assert len(normalize(s).edges) == 3

    def test_quotient_identifies_vertices(self):
        q = quotient_identify(build("c_interval"), [[V0, V1]])
        nq = normalize(q)
        e = nq.edges[0]
        assert e.src == e.dst == "v0"
        loop = assemble(V0, [Seg(e.id, Z, O)], V0)
        assert is_controlled(q, loop)

    def test_subspace_clips_edge_and_renames(self):
        sub = subspace(build("natural_interval"), [("e0", Z, H)])
        nsub = normalize(sub)
        (e,) = nsub.edges
        assert e.src == "v0" and e.id != "e0"
        clipped = assemble(V0, [Seg(e.id, Z, O)], Vertex(e.dst))
        assert is_controlled(sub, clipped)

    def test_subspace_names_the_clipped_kind(self):
        def clipped_kind(name, lo, hi):
            (kind,) = kinds(subspace(build(name), [("e0", lo, hi)])).values()
            return kind
        assert clipped_kind("d_interval", Z, H) == "directed"
        assert clipped_kind("natural_interval", H, O) == "natural"
        # a clipped rigid jump leaves no named kind behind
        assert clipped_kind("c_interval", Z, H) == "custom"

    def test_touching_halves_keep_the_full_jump(self):
        sub = subspace(build("c_interval"), [V0, V1, ("e0", Z, H), ("e0", H, O)])
        mid = Vertex("e0@1_2")
        up = assemble(V0, [Seg("e0[0/1..1/2]", Z, O),
                           Seg("e0[1/2..1/1]", Z, O)], V1)
        assert is_controlled(sub, up)
        assert not is_controlled(sub, assemble(V0, [Seg("e0[0/1..1/2]", Z, O)],
                                               mid))

    def test_crossing_square_cut_on_a_diagonal_keeps_both_diagonals(self):
        sq = build("crossing_square")
        region = [Vertex(v) for v in sq.vertices] + [
            ("d0", Z, H), ("d0", H, O),
            ("d1", Z, O), ("d2", Z, O), ("d3", Z, O)]
        sub = subspace(sq, region)
        assert len(sub.generators) == 2
        diagonal = assemble(Vertex("c00"), [
            Seg("d0[0/1..1/2]", Z, O), Seg("d0[1/2..1/1]", Z, O),
            Seg("d1", Z, O)], Vertex("c11"))
        assert is_controlled(sub, diagonal)
        assert is_controlled(sub, assemble(Vertex("c01"), [
            Seg("d2", Z, O), Seg("d3", Z, O)], Vertex("c10")))

    def test_quotient_at_two_anchors_of_one_edge(self):
        third, two_thirds = F(1, 3), F(2, 3)
        q = quotient_identify(build("natural_interval"), [
            [V0, EdgePoint("e0", third)], [V1, EdgePoint("e0", two_thirds)]])
        # each class is named after its least member
        a, b = "e0@1_3", "e0@2_3"
        assert q.vertices == {a, b}
        assert {(e.id, e.src, e.dst) for e in q.edges} == {
            ("e0[0/1..1/3]", a, a), ("e0[1/3..2/3]", a, b),
            ("e0[2/3..1/1]", b, b)}
        assert is_controlled(q, assemble(Vertex(a), [Seg("e0[1/3..2/3]", Z, O)],
                                         Vertex(b)))

    def test_validate_reports_bad_regions(self):
        base = build("c_interval")
        for region, message in (
                ([("e9", Z, O)], "unknown edge 'e9'"),
                ([Vertex("v9")], "unknown vertex 'v9'"),
                ([("e0", H, Z)], "0 <= lo < hi <= 1"),
                ([("e0", Z, H), ("e0", F(1, 4), O)], "overlapping")):
            report = validate(Subspace(base, tuple(region)))
            assert len(report) == 1 and message in report[0], region
            with pytest.raises(ModelError, match=message):
                normalize(Subspace(base, tuple(region)))
        assert validate(Subspace(base, ((("e0", Z, H), ("e0", H, O))))) == []

    def test_subspace_of_the_hat_keeps_the_runs_of_a_diagonal(self):
        # the hat turns the diagonal c00 -> m -> c11 into rising windows
        # of its edges, so its part on the region stays a controlled path
        sub = normalize(subspace(hat(build("crossing_square")),
                                 [Vertex("c00"), ("d0", Z, H)]))
        assert sub.edges[0].kind == K.DIRECTED
        assert sub.generators == ()
        assert is_controlled(sub, assemble(
            Vertex("c00"), [Seg("d0[0/1..1/2]", Z, O)], Vertex("d0@1_2")))

    def test_exclude_endpoints_blocks_stopping(self):
        sp = exclude_endpoints(build("siphon"), [V1])
        assert not is_controlled(sp, UP)
        pass_thru = assemble(EdgePoint("e0", H),
                             [Seg("e0", H, O), Seg("e0", O, Z)], V0)
        assert is_controlled(sp, pass_thru)


def _rename(pres):
    from cspaces.presentation import Edge, GraphPresentation
    return GraphPresentation(
        vertices=frozenset("b" + v for v in pres.vertices),
        edges=tuple(Edge("b" + e.id, "b" + e.src, "b" + e.dst, e.kind)
                    for e in pres.edges),
        generators=pres.generators, flexible=pres.flexible,
        excluded=pres.excluded, absorbing=pres.absorbing,
        emitting=pres.emitting, blocked=pres.blocked)


class TestControlledMaps:
    def test_identity_map_checks(self):
        sp = build("c_interval")
        f = cmap({"v0": "v0", "v1": "v1"},
                 {"e0": EdgeImage(((Z, O, TraceStep("e0", Z, O)),))})
        ok, failures = check_cmap(f, sp, sp)
        assert ok and not failures

    def test_the_target_point_constraints_are_read(self):
        sp = build("d_interval")
        mid = frozenset({EdgePoint("e0", H)})
        for field in ("blocked", "absorbing", "emitting"):
            # the rise 0 -> 1 passes 1/2, where the target forbids it
            ok, failures = check_cmap(identity(sp), sp,
                                      replace(sp, **{field: mid}))
            assert not ok and failures, field
            # a source with the same constraint has no such path
            same = replace(sp, **{field: mid})
            assert check_cmap(identity(same), same, same) == (True, []), field

    def test_identity_of_the_oscillating_siphon_is_controlled(self):
        # its falling window may not start at 1, and no run does
        sp = build("siphon_osc")
        assert check_cmap(identity(sp), sp, sp) == (True, [])

    def test_collapse_to_coarser_space_checks(self):
        fine, coarse = build("delayed_minus"), build("c_interval")
        f = cmap({"v0": "v0", "v1": "v1"},
                 {"e0": EdgeImage(((Z, O, TraceStep("e0", Z, O)),))})
        ok, failures = check_cmap(f, fine, coarse)
        assert ok and not failures
        # the reverse direction is not controlled-preserving
        ok2, failures2 = check_cmap(f, coarse, fine)
        assert not ok2 and failures2

    def test_map_path_transports_runs(self):
        sp = build("c_interval")
        f = cmap({"v0": "v1", "v1": "v0"},
                 {"e0": EdgeImage(((Z, O, TraceStep("e0", O, Z)),))})
        q = map_path(f, sp, sp, UP)
        assert q.start == V1 and q.end == V0
        assert map_point(f, sp, sp, EdgePoint("e0", F(1, 4))) == \
            EdgePoint("e0", F(3, 4))
