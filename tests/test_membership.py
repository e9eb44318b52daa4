"""Membership engine: frozen expected values for every interval kind and
the multi-edge models."""

import gc
import hashlib
import pickle
import random
import weakref
import zlib
from dataclasses import replace
from fractions import Fraction as F

import pytest

from cspaces import jsonio
from cspaces import kinds as K
from cspaces import membership, presentation, reach
from cspaces.classify import is_flexible_path, is_rigid_path, is_splittable
from cspaces.corpus import build, names
from cspaces.construct import exclude_endpoints, hat
from cspaces.kinds import Fragment
from cspaces.membership import (check_path_geometry, is_controlled,
                                parse_controlled)
from cspaces.model import (PAUSE, CanonicalPath, EdgePoint, ModelError,
                           Position, ProdSeg, PTuple, RigidTrace, Run, Seg,
                           Track, TraceStep, Vertex, assemble)
from cspaces.presentation import (Edge, GraphPresentation, canonicalize, cuts,
                                  family, pos_point)
from cspaces.reach import c_reachable

from helpers import OPEN_WINDOWS, Z, O, H, interval
from oracle import brute_force_controlled, brute_force_reach
from sampling import random_graph_path, random_product_path
from spaces import random_space


def path(*atoms, start, end):
    return assemble(start, list(atoms), end)


V0, V1 = Vertex("v0"), Vertex("v1")
FULL_UP = path(Seg("e0", Z, O), start=V0, end=V1)
FULL_DOWN = path(Seg("e0", O, Z), start=V1, end=V0)
HALF_UP = path(Seg("e0", Z, H), start=V0, end=EdgePoint("e0", H))
MID_PAUSE_UP = path(Seg("e0", Z, H), PAUSE, Seg("e0", H, O), start=V0, end=V1)


class TestOneJumpInterval:
    sp = build("c_interval")

    def test_full_run_controlled(self):
        assert is_controlled(self.sp, FULL_UP)

    def test_half_run_rejected(self):
        assert not is_controlled(self.sp, HALF_UP)

    def test_mid_pause_run_controlled(self):
        assert is_controlled(self.sp, MID_PAUSE_UP)

    def test_reversed_run_rejected(self):
        assert not is_controlled(self.sp, FULL_DOWN)

    def test_trivial_loop_at_endpoint_controlled(self):
        assert is_controlled(self.sp, path(start=V0, end=V0))

    def test_trivial_loop_at_interior_rejected(self):
        m = EdgePoint("e0", H)
        assert not is_controlled(self.sp, path(start=m, end=m))

    def test_double_jump_via_end_pause(self):
        # up, pause at the top is fine, but coming back down is not
        p = path(Seg("e0", Z, O), PAUSE, Seg("e0", O, Z), start=V0, end=V0)
        assert not is_controlled(self.sp, p)


class TestNaturalInterval:
    sp = build("natural_interval")

    def test_anything_controlled(self):
        for p in (FULL_UP, FULL_DOWN, HALF_UP, MID_PAUSE_UP):
            assert is_controlled(self.sp, p)

    def test_wiggle_controlled(self):
        p = path(Seg("e0", Z, H), Seg("e0", H, F(1, 4)),
                 Seg("e0", F(1, 4), O), start=V0, end=V1)
        assert is_controlled(self.sp, p)


class TestDirectedInterval:
    sp = build("d_interval")

    def test_increasing_controlled(self):
        for p in (FULL_UP, HALF_UP, MID_PAUSE_UP):
            assert is_controlled(self.sp, p)

    def test_decreasing_rejected(self):
        assert not is_controlled(self.sp, FULL_DOWN)

    def test_interior_increasing_controlled(self):
        p = path(Seg("e0", F(1, 4), F(3, 4)),
                 start=EdgePoint("e0", F(1, 4)), end=EdgePoint("e0", F(3, 4)))
        assert is_controlled(self.sp, p)


class TestDelayedIntervals:
    minus = build("delayed_minus")
    plus = build("delayed_plus")

    def test_undelayed_run_rejected(self):
        assert not is_controlled(self.minus, FULL_UP)
        assert not is_controlled(self.plus, FULL_UP)

    def test_start_pause_accepted_by_minus_only(self):
        p = path(PAUSE, Seg("e0", Z, O), start=V0, end=V1)
        assert is_controlled(self.minus, p)
        assert not is_controlled(self.plus, p)

    def test_end_pause_accepted_by_plus_only(self):
        p = path(Seg("e0", Z, O), PAUSE, start=V0, end=V1)
        assert is_controlled(self.plus, p)
        assert not is_controlled(self.minus, p)


class TestReversibleOneJump:
    sp = build("reversible_one_jump")

    def test_both_full_runs_controlled(self):
        assert is_controlled(self.sp, FULL_UP)
        assert is_controlled(self.sp, FULL_DOWN)

    def test_half_runs_rejected(self):
        assert not is_controlled(self.sp, HALF_UP)
        assert not is_controlled(self.sp, path(Seg("e0", O, H),
                                               start=V1, end=EdgePoint("e0", H)))

    def test_round_trip_controlled(self):
        p = path(Seg("e0", Z, O), Seg("e0", O, Z), start=V0, end=V0)
        assert is_controlled(self.sp, p)


class TestSiphon:
    sp = build("siphon")

    def test_partial_rise_controlled(self):
        assert is_controlled(self.sp, HALF_UP)

    def test_full_fall_controlled(self):
        assert is_controlled(self.sp, FULL_DOWN)

    def test_partial_fall_rejected(self):
        p = path(Seg("e0", O, H), start=V1, end=EdgePoint("e0", H))
        assert not is_controlled(self.sp, p)

    def test_rise_then_full_fall_controlled(self):
        p = path(Seg("e0", Z, O), Seg("e0", O, Z), start=V0, end=V0)
        assert is_controlled(self.sp, p)

    def test_rise_then_partial_fall_rejected(self):
        p = path(Seg("e0", Z, O), Seg("e0", O, H),
                 start=V0, end=EdgePoint("e0", H))
        assert not is_controlled(self.sp, p)


class TestSiphonOsc:
    sp = build("siphon_osc")

    def test_partial_fall_from_below_top_controlled(self):
        p = path(Seg("e0", F(9, 10), F(3, 10)),
                 start=EdgePoint("e0", F(9, 10)), end=EdgePoint("e0", F(3, 10)))
        assert is_controlled(self.sp, p)

    def test_partial_fall_from_top_rejected(self):
        p = path(Seg("e0", O, F(3, 10)),
                 start=V1, end=EdgePoint("e0", F(3, 10)))
        assert not is_controlled(self.sp, p)

    def test_full_fall_from_top_controlled(self):
        assert is_controlled(self.sp, FULL_DOWN)


class TestTwoJump:
    """Two one-jump edges glued at a middle anchor: accepted monotone
    images are exactly the low half, the high half, or the whole."""
    sp = build("two_jump")

    def test_full_double_jump(self):
        p = path(Seg("e0", Z, O), Seg("e1", Z, O),
                 start=V0, end=V1)
        assert is_controlled(self.sp, p)
        out = parse_controlled(self.sp, p)
        assert out.count == 2 and len(out.instances) == 2

    def test_single_halves(self):
        assert is_controlled(self.sp, path(Seg("e0", Z, O),
                                           start=V0, end=Vertex("vm")))
        assert is_controlled(self.sp, path(Seg("e1", Z, O),
                                           start=Vertex("vm"), end=V1))

    def test_partial_images_rejected(self):
        # image [0, 3/4] in chain coordinates: full low jump + half high jump
        p = path(Seg("e0", Z, O), Seg("e1", Z, H),
                 start=V0, end=EdgePoint("e1", H))
        assert not is_controlled(self.sp, p)
        assert not is_controlled(self.sp, path(Seg("e0", H, O),
                                               start=EdgePoint("e0", H),
                                               end=Vertex("vm")))


class TestWindowWithMixedKinds:
    """Directed / one-jump / directed chain: crossing the jump edge needs
    the full unit sweep."""
    sp = build("window_2_3e")

    def test_short_crossing_rejected(self):
        # image [1/2, 3/2]: enters the jump edge but stops halfway
        p = path(Seg("e0", H, O), Seg("e1", Z, H),
                 start=EdgePoint("e0", H), end=EdgePoint("e1", H))
        assert not is_controlled(self.sp, p)

    def test_long_crossing_accepted(self):
        # image [1/2, 5/2]: full sweep of the jump edge
        p = path(Seg("e0", H, O), Seg("e1", Z, O), Seg("e2", Z, H),
                 start=EdgePoint("e0", H), end=EdgePoint("e2", H))
        assert is_controlled(self.sp, p)


class TestLineWindow:
    """Integer-anchored window of the controlled line: runs are chains of
    unit jumps between consecutive anchors."""
    sp = build("c_line_window")  # three unit jumps on one edge

    def test_unit_jump_controlled(self):
        p = path(Seg("e0", F(1, 3), F(2, 3)),
                 start=EdgePoint("e0", F(1, 3)), end=EdgePoint("e0", F(2, 3)))
        assert is_controlled(self.sp, p)

    def test_half_jump_rejected(self):
        p = path(Seg("e0", F(1, 3), H),
                 start=EdgePoint("e0", F(1, 3)), end=EdgePoint("e0", H))
        assert not is_controlled(self.sp, p)

    def test_off_anchor_jump_rejected(self):
        p = path(Seg("e0", F(1, 6), H),
                 start=EdgePoint("e0", F(1, 6)), end=EdgePoint("e0", H))
        assert not is_controlled(self.sp, p)

    def test_multi_jump_chain_controlled(self):
        p = path(Seg("e0", Z, O), start=V0, end=Vertex("v3"))
        out = parse_controlled(self.sp, p)
        assert out.controlled and out.count == 3


class TestExcludedEndpoint:
    sp = exclude_endpoints(build("siphon"), [V1])

    def test_run_ending_at_excluded_point_rejected(self):
        assert not is_controlled(self.sp, FULL_UP)

    def test_pass_through_jump_accepted(self):
        p = path(Seg("e0", H, O), Seg("e0", O, Z),
                 start=EdgePoint("e0", H), end=V0)
        assert is_controlled(self.sp, p)

    def test_run_starting_at_excluded_point_rejected(self):
        assert not is_controlled(self.sp, FULL_DOWN)


def _filtered(kind=K.DIRECTED, **filters):
    """The chain v0 -e0-> v1 -e1-> v2 of one kind, with filter points."""
    return GraphPresentation(
        frozenset({"v0", "v1", "v2"}),
        (Edge("e0", "v0", "v1", kind), Edge("e1", "v1", "v2", kind)),
        **{k: frozenset(v) for k, v in filters.items()})


class TestFilters:
    """The edge cases of the in-order filter rule.  The expected answers
    come from the oracles, which share no code with the engine, and
    ``c_reachable`` between the path's ends must agree with them too."""

    def _parse(self, pres, p, expected: bool):
        assert brute_force_controlled(pres, p) is expected
        out = parse_controlled(pres, p)
        assert out.controlled is expected
        ends = (p.start, p.end)
        reaches = ends in brute_force_reach(pres, list(ends))
        assert reaches is expected and c_reachable(pres, *ends).ok is reaches
        return out

    def test_ending_at_an_absorbing_point_then_pausing(self):
        p = path(Seg("e0", Z, O), PAUSE, start=V0, end=V1)
        self._parse(_filtered(absorbing={V1}), p, True)

    def test_pausing_at_an_emitting_start_then_moving(self):
        p = path(PAUSE, Seg("e0", Z, O), start=V0, end=V1)
        self._parse(_filtered(emitting={V0}), p, True)

    def test_passing_an_absorbing_vertex_of_two_edges(self):
        p = path(Seg("e0", Z, O), Seg("e1", Z, O), start=V0, end=Vertex("v2"))
        out = self._parse(_filtered(absorbing={V1}), p, False)
        assert out.fail_at == V1

    def test_touching_a_blocked_interior_cut_value(self):
        p = path(Seg("e0", Z, O), start=V0, end=V1)
        out = self._parse(_filtered(blocked={EdgePoint("e0", H)}), p, False)
        # no instance reaches 1/2, so the longest parsed prefix is empty
        assert out.fail_at == V0


@pytest.mark.parametrize("field, point", [
    ("absorbing", EdgePoint("zz", H)), ("blocked", Vertex("q")),
    ("emitting", Vertex("q")), ("excluded", EdgePoint("zz", H))])
def test_a_filter_point_outside_the_support_is_an_error(field, point):
    """Every engine refuses a filter or excluded point that the space does
    not hold, with the message ``validate`` gives, instead of ignoring it."""
    pres = replace(build("d_interval"), **{field: frozenset({point})})
    message = f"{field} point {point!r} outside support"
    assert presentation.validate(pres) == [message]
    for ask in (lambda: is_controlled(pres, FULL_UP),
                lambda: c_reachable(pres, V0, V1)):
        with pytest.raises(ModelError) as err:
            ask()
        assert str(err.value) == message


class TestTrackInput:
    def test_track_canonicalized_and_parsed(self):
        tr = Track(((F(0), V0), (F(1, 2), EdgePoint("e0", H)), (F(1), V1)))
        assert is_controlled(build("c_interval"), tr)
        assert is_controlled(build("d_interval"), tr)

    def test_track_with_dwell_is_a_pause(self):
        tr = Track(((F(0), V0), (F(1), V1)))
        sp = build("delayed_plus")
        assert not is_controlled(sp, tr)
        dw = Track(((F(0), V0), (F(1, 2), V1), (F(1), V1)))
        assert is_controlled(sp, dw)


class TestParseOutcome:
    def test_uncontrolled_reports_failure_position(self):
        out = parse_controlled(build("c_interval"), HALF_UP)
        assert not out.controlled
        assert out.count is None
        assert out.fail_at is not None

    def test_instance_count_reflects_ambiguity(self):
        # a natural edge admits a single fragment covering; count is finite
        out = parse_controlled(build("natural_interval"), FULL_UP)
        assert out.controlled and out.count >= 1


class TestGrowthCounts:
    """The parse's work, pinned by call counts rather than clock times."""

    def test_n_stop_sweep_scans_no_fragment_stretch(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(Fragment, "admits", counting("admits", Fragment.admits))
        monkeypatch.setattr(membership, "_window_ok",
                            counting("_window_ok", membership._window_ok))
        # the ranked window check is counted: a directed edge calls it
        assert is_controlled(build("d_interval"), FULL_UP)
        assert "_window_ok" in calls
        calls.clear()
        sp = build("c_line_window", lo=0, hi=256)
        out = parse_controlled(sp, path(Seg("e0", Z, O), start=V0, end=Vertex("v256")))
        assert out.controlled and out.count == 256
        assert calls == []


CUTS = 24


def _cut_edge(kind):
    """One edge of `kind`, cut at every k/CUTS by flexible-point overrides."""
    return GraphPresentation(
        frozenset({"v0", "v1"}), (Edge("e0", "v0", "v1", kind),),
        flexible=frozenset(EdgePoint("e0", F(k, CUTS)) for k in range(1, CUTS)))


def _walk(pres, *stops):
    """Monotone runs on e0 through the given positions; a repeat is a pause."""
    stops = [F(x) for x in stops]
    atoms = [PAUSE if a == b else Seg("e0", a, b) for a, b in zip(stops, stops[1:])]
    return assemble(pos_point(pres, "e0", stops[0]), atoms,
                    pos_point(pres, "e0", stops[-1]))


@pytest.mark.parametrize("kind, stops, controlled, count", [
    (K.NATURAL, ("0", "1"), True, 1),
    (K.NATURAL, ("0", "3/4", "1/4", "1"), True, 3),
    (K.NATURAL, ("1/8", "1/2", "1/2", "7/8"), True, 2),
    (K.NATURAL, ("1", "0", "1", "0"), True, 3),
    (K.SIPHON_OSC, ("1", "1/4"), False, None),
    (K.SIPHON_OSC, ("3/4", "0"), True, 1),
    (K.SIPHON_OSC, ("0", "1", "0"), True, 2),
    (K.SIPHON_OSC, ("0", "1", "1/8"), False, None),
    (K.SIPHON_OSC, ("1/2", "1", "0", "1/3"), True, 3),
    (K.SIPHON_OSC, ("1", "1", "1/4"), False, None),
    (OPEN_WINDOWS, ("0", "3/4"), True, 2),
    (OPEN_WINDOWS, ("0", "1/2"), False, None),
    (OPEN_WINDOWS, ("0", "1"), False, None),
    (OPEN_WINDOWS, ("1/3", "7/8"), True, 1),
    (OPEN_WINDOWS, ("1/4", "3/4"), True, 2),
    (OPEN_WINDOWS, ("0", "1/3"), True, 1),
    (OPEN_WINDOWS, ("1/8", "5/8", "5/8", "15/16"), True, 3),
    (OPEN_WINDOWS, ("5/8", "1/4"), True, 1),
    (OPEN_WINDOWS, ("5/8", "1/8"), False, None),
    (OPEN_WINDOWS, ("3/4", "1/2"), False, None),
    (OPEN_WINDOWS, ("1/8", "2/3", "1/3"), True, 3),
])
def test_long_fragment_stretches(kind, stops, controlled, count):
    """Stretches of up to CUTS tokens on fragment edges: start_not on
    siphon_osc's fall; open window ends, end_not and a falling window on
    the custom family."""
    sp = _cut_edge(kind)
    p = _walk(sp, *stops)
    out = parse_controlled(sp, p)
    assert (out.controlled, out.count) == (controlled, count)
    assert brute_force_controlled(sp, p) == controlled


class TestOverlapCut:
    """Two rising windows [0, ½) and (¼, 1] join only strictly inside
    (¼, ½), where neither window ends: the parse needs a cut there."""
    sp = interval(OPEN_WINDOWS)

    def test_run_across_the_overlap_is_controlled(self):
        p = _walk(self.sp, "1/4", "5/8")
        out = parse_controlled(self.sp, p)
        assert (out.controlled, out.count) == (True, 2)
        assert brute_force_controlled(self.sp, p)

    def test_one_cut_inside_the_overlap(self):
        assert [c for c in cuts(self.sp, "e0") if F(1, 4) < c < H] == [F(3, 8)]

    def test_single_window_edges_get_no_extra_cut(self):
        for kind in (K.DIRECTED, K.NATURAL, K.SIPHON_OSC, K.n_stop(3)):
            sp = interval(kind)
            fam = family(sp, "e0")
            ends = {Z, O} | {v for f in fam.fragments for v in (f.lo, f.hi)}
            ends |= {v for tr in fam.rigid for s in tr.steps for v in (s.a, s.b)}
            assert set(cuts(sp, "e0")) == ends


def _chain(n):
    """v0 -e0-> v1 -> ... -> vn, every edge a one_jump."""
    return GraphPresentation(
        frozenset(f"v{k}" for k in range(n + 1)),
        tuple(Edge(f"e{k}", f"v{k}", f"v{k + 1}", K.ONE_JUMP) for k in range(n)))


class TestRankedParse:
    """Tokens carry integer ranks among their edge's cut values, ra and rb
    at places 4 and 5 of (edge, d, a, b, ra, rb, entry): the cut at index
    i has rank 2i, a point between cuts i and i + 1 rank 2i + 1."""

    def test_loop_stretch_breaks_at_the_vertex(self):
        # 1/2 -> 1 and 0 -> 1/2 rise on one loop edge but do not chain:
        # rank 2 (the end 1) meets rank 0 (the start 0)
        sp = build("d_circle")
        m = EdgePoint("e0", H)
        p = path(Seg("e0", H, O), Seg("e0", Z, H), start=m, end=m)
        assert [t[4:6] for t in membership.explode(sp, p)] == [(1, 2), (0, 1)]
        out = parse_controlled(sp, p)
        assert (out.controlled, out.count) == (True, 2)

    def test_pause_off_the_cuts_inside_a_jump(self):
        third = EdgePoint("e0", F(1, 3))
        p = path(Seg("e0", Z, F(1, 3)), PAUSE, Seg("e0", F(1, 3), O),
                 start=V0, end=V1)
        out = parse_controlled(build("c_interval"), p)
        assert (out.controlled, out.count) == (True, 1)
        assert not is_controlled(build("c_interval"),
                                 path(Seg("e0", Z, F(1, 3)), start=V0, end=third))

    def test_token_counts_of_a_chain_and_a_sweep(self):
        chain = _chain(40)
        run = path(*(Seg(f"e{k}", Z, O) for k in range(40)), start=V0,
                   end=Vertex("v40"))
        toks = membership.explode(chain, run)
        assert len(toks) == 40
        assert {t[4:6] for t in toks} == {(0, 2)}
        sweep = build("c_line_window", lo=0, hi=16)
        down = path(Seg("e0", O, F(1, 32)), start=Vertex("v16"),
                    end=EdgePoint("e0", F(1, 32)))
        toks = membership.explode(sweep, down)
        assert len(toks) == 16
        assert (*toks[0][4:6], *toks[-1][4:6]) == (32, 30, 2, 1)

    def test_pickle_drops_the_parse_index(self):
        sp = build("c_line_window", lo=0, hi=8)
        p = path(Seg("e0", F(1, 16), O), start=EdgePoint("e0", F(1, 16)),
                 end=Vertex("v8"))
        before = membership.graph_parse(sp, p)
        assert "_parse_index" in sp.__dict__
        back = pickle.loads(pickle.dumps(sp))
        assert back == sp and "_parse_index" not in back.__dict__
        assert membership.graph_parse(back, p) == before
        assert "_parse_index" in back.__dict__

    def test_the_parse_index_dies_with_its_presentation(self):
        sp = _chain(3)
        out = membership.graph_parse(sp, path(Seg("e0", Z, O), start=V0, end=V1))
        assert out.controlled
        index = weakref.ref(membership.parse_index(sp))
        # the lookup caches of the presentation module hold sp as a key
        for cache in (presentation.edge_map, presentation.family,
                      presentation.cuts):
            cache.cache_clear()
        del sp
        gc.collect()
        assert index() is None

    def test_a_chain_is_indexed_in_one_pass(self, monkeypatch):
        """A 400-edge one_jump chain: the index looks up the family and the
        cut values of its one shared entry once, keeps no trace list per
        edge (it has no generators), and a full run's tokens take no
        presentation lookup per segment."""
        chain = _chain(400)
        run = path(*(Seg(f"e{k}", Z, O) for k in range(400)), start=V0,
                   end=Vertex("v400"))
        calls = []
        for name in ("edge_map", "edge_of", "family", "cuts", "pos_point",
                     "own_cut_values"):
            if hasattr(membership, name):
                def counting(*args, name=name, real=getattr(membership, name)):
                    calls.append(name)
                    return real(*args)
                monkeypatch.setattr(membership, name, counting)
        index = membership.parse_index(chain)
        assert sorted(calls) == ["cuts", "family", "own_cut_values"]
        assert len(index.edges) == 400 and len(index.shared) == 1
        del calls[:]
        toks = membership.explode(chain, run)
        assert len(toks) == 400 and len(calls) <= 1
        assert index.rigid == {}
        assert parse_controlled(chain, run).count == 400

    def test_an_edges_own_trace_wins_a_tie_with_a_generator(self):
        # the parse tries an edge's own traces before the presentation's
        # generators, so of two instances over the same tokens it keeps
        # the own one, whose step names no edge
        sp = replace(build("c_interval"),
                     generators=(RigidTrace((TraceStep("e0", Z, O),)),))
        out = parse_controlled(sp, FULL_UP)
        ((kind, edge, tr),) = out.instances
        assert (out.count, kind, edge) == (1, "rigid", "e0")
        assert tr.steps[0].edge is None

    def test_edges_of_one_kind_and_cuts_share_an_entry(self):
        # a flexible point on e2 gives that edge cut values of its own
        chain = replace(_chain(5), flexible=frozenset({EdgePoint("e2", H)}))
        toks = membership.explode(
            chain, path(*(Seg(f"e{k}", Z, O) for k in range(5)), start=V0,
                        end=Vertex("v5")))
        assert len(toks) == 6
        index = membership.parse_index(chain)
        assert len(index.edges) == 5 and len(index.shared) == 2
        assert index.edges["e2"][0].cuts == cuts(chain, "e2") == (Z, H, O)
        assert index.edges["e4"][0].cuts == cuts(chain, "e4") == (Z, O)


class TestPathGeometry:
    def test_run_across_the_vertex_of_a_loop_edge(self):
        m = EdgePoint("e0", H)
        check_path_geometry(build("d_circle"),
                            path(Seg("e0", H, O), Seg("e0", Z, H), start=m, end=m))

    def test_jump_on_one_edge_breaks_the_path(self):
        p = path(Seg("e0", Z, F(3, 10)), Seg("e0", H, O), start=V0, end=V1)
        with pytest.raises(ModelError, match="path breaks"):
            check_path_geometry(build("natural_interval"), p)

    BREAK = ("path breaks at EdgePoint(edge='e0', t=Fraction(3, 10)) -> "
             "EdgePoint(edge='e0', t=Fraction(1, 2))")
    MALFORMED = {
        "unknown edge": (path(Seg("x9", Z, O), start=V0, end=V1),
                         "unknown edge 'x9'"),
        "break in a run": (path(Seg("e0", Z, F(3, 10)), Seg("e0", H, O),
                                start=V0, end=V1), BREAK),
        "break across a pause": (path(Seg("e0", Z, F(3, 10)), PAUSE,
                                      Seg("e0", H, O), start=V0, end=V1), BREAK),
        "end mismatch": (path(Seg("e0", Z, H), start=V0, end=V1),
                         "path end point mismatch"),
        "constant path": (path(PAUSE, start=V0, end=V1),
                          "path end point mismatch"),
        "product segment": (path(ProdSeg((Seg("e0", Z, O), V0)), start=V0,
                                 end=V1), "product segment in a graph path"),
    }
    CALLS = {
        "check_path_geometry": check_path_geometry,
        "is_controlled": is_controlled,
        "parse_controlled": parse_controlled,
        "is_rigid_path": is_rigid_path,
        "is_splittable": lambda sp, p: is_splittable(sp, p, Position(0)),
        "is_flexible_path": is_flexible_path,
        "path_from_json": lambda sp, p: jsonio.path_from_json(
            jsonio.path_to_json(p), sp),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_paths_raise_one_message_everywhere(self, case, call):
        # the tokenizer checks graph geometry; every entry point reports the
        # first fault along the path, and a broken constant path its ends
        p, message = self.MALFORMED[case]
        with pytest.raises(ModelError) as err:
            self.CALLS[call](build("natural_interval"), p)
        assert str(err.value) == message

    # on products the message names whole product points: where the path
    # was and where the faulty segment starts
    E = EdgePoint("e0", H)
    SQUARE_BREAK = "path breaks at PTuple(parts=({})) -> PTuple(parts=({}))"
    PRODUCT_MALFORMED = {
        "resting coordinate elsewhere": ("c_square", path(
            ProdSeg((Seg("e0", Z, O), V0)), ProdSeg((V0, Seg("e0", Z, O))),
            start=PTuple((V0, V0)), end=PTuple((V1, V1))), SQUARE_BREAK.format(
                f"{V1!r}, {V0!r}", f"{V0!r}, {V0!r}")),
        "moving coordinate starts elsewhere": ("c_square", path(
            ProdSeg((Seg("e0", Z, H), V0)), PAUSE,
            ProdSeg((Seg("e0", Z, O), Seg("e0", Z, O))),
            start=PTuple((V0, V0)), end=PTuple((V1, V1))), SQUARE_BREAK.format(
                f"{E!r}, {V0!r}", f"{V0!r}, {V0!r}")),
        "end mismatch": ("c_square", path(
            ProdSeg((Seg("e0", Z, O), V0)), start=PTuple((V0, V0)),
            end=PTuple((V1, V1))), "path end point mismatch"),
        "graph segment": ("c_square", path(
            Seg("e0", Z, O), start=PTuple((V0, V0)), end=PTuple((V1, V0))),
            "graph segment in a product path"),
        "nested resting coordinate elsewhere": ("c_torus", path(
            ProdSeg((ProdSeg((Seg("e0", Z, H), V0)), V0)),
            ProdSeg((PTuple((V0, E)), Seg("e0", Z, O))),
            start=PTuple((PTuple((V0, V0)), V0)),
            end=PTuple((PTuple((E, V0)), V0))), SQUARE_BREAK.format(
                f"PTuple(parts=({E!r}, {V0!r})), {V0!r}",
                f"PTuple(parts=({V0!r}, {E!r})), {V0!r}")),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("case", PRODUCT_MALFORMED)
    def test_malformed_product_paths_raise_one_message_everywhere(self, case,
                                                                   call):
        name, p, message = self.PRODUCT_MALFORMED[case]
        sp = build(name, n=3) if name == "c_torus" else build(name)
        with pytest.raises(ModelError) as err:
            self.CALLS[call](sp, p)
        assert str(err.value) == message


class TestCanonicalMark:
    """assemble marks its paths, and canonicalize hands those back as they
    are; other paths are assembled again."""

    sp = build("c_interval")

    def test_an_assembled_path_is_its_own_canonical_form(self):
        assert canonicalize(MID_PAUSE_UP, self.sp) is MID_PAUSE_UP

    @pytest.mark.parametrize("items", [
        (Run((Seg("e0", Z, H),)), PAUSE, PAUSE, Run((Seg("e0", H, O),))),
        (Run((Seg("e0", Z, H),)), Run((Seg("e0", H, O),))),
    ], ids=["adjacent pauses", "mergeable runs"])
    def test_a_hand_built_path_parses_like_its_assembled_form(self, items):
        hand = CanonicalPath(V0, items, V1)
        atoms = [a for it in items for a in (it.segs if isinstance(it, Run)
                                             else (it,))]
        assembled = assemble(V0, atoms, V1)
        assert hand != assembled
        assert canonicalize(hand, self.sp) == assembled
        assert parse_controlled(self.sp, hand) == parse_controlled(self.sp,
                                                                   assembled)

    def test_replace_drops_the_mark(self):
        copy = replace(MID_PAUSE_UP)
        assert copy == MID_PAUSE_UP and "_canonical" not in vars(copy)
        again = canonicalize(copy, self.sp)
        assert again == copy and again is not copy
        assert "_canonical" in vars(again)

    def test_pickle_keeps_equality(self):
        back = pickle.loads(pickle.dumps(MID_PAUSE_UP))
        assert back == MID_PAUSE_UP and hash(back) == hash(MID_PAUSE_UP)
        assert canonicalize(back, self.sp) == MID_PAUSE_UP
        assert parse_controlled(self.sp, back) == parse_controlled(
            self.sp, MID_PAUSE_UP)


# ---------------------------------------------------------------------------
# Parse outcomes are unchanged

def _bound_runs(pres):
    """Each rigid trace of pres, bound to its edge, as its standard path,
    without its dwell pauses and with a pause at every boundary; and each
    edge's full runs both ways with a pause halfway."""
    for tr in presentation.bound_rigid(pres):
        steps = [Seg(s.edge, s.a, s.b) for s in tr.steps]
        start = presentation.trace_start(pres, tr)
        end = presentation.trace_end(pres, tr)
        yield presentation.trace_path(pres, tr)
        yield assemble(start, steps, end)
        yield assemble(start, [PAUSE] + [a for s in steps for a in (s, PAUSE)],
                       end)
    for e in pres.edges:
        ends = (Vertex(e.src), Vertex(e.dst))
        for (a, b), (p, q) in (((Z, O), ends), ((O, Z), ends[::-1])):
            yield assemble(p, [Seg(e.id, a, H), PAUSE, Seg(e.id, H, b)], q)


def _sampled_paths(norm, rng, count):
    if isinstance(norm, presentation.ProductN):
        return [random_product_path(norm, rng, max_atoms=4)
                for _ in range(count)]
    return ([random_graph_path(norm, rng, max_atoms=4) for _ in range(count)]
            + list(_bound_runs(norm)))


def _parse_spaces():
    for name in names():
        sp = build(name)
        yield name, sp, 24
        yield f"{name}/hat", hat(sp), 24
    for seed in range(300):
        yield f"spaces/{seed}", random_space(random.Random(f"spaces/{seed}")), 6


# SHA-256 of the outcomes below, written when ``normalize`` first
# compiled the absorbing, emitting and blocked points into the families:
# paths are sampled from the normal forms, and a path that a filter
# refuses fails at the end of its longest parsed prefix.
PARSE_DIGEST = ("53a67d2bb391c453c527a507ce2a3521"
                "b086ffdbf6c0bb4c13fb6e9296bc083e")


def test_parse_outcomes_are_unchanged():
    """``parse_controlled`` on seeded paths of every corpus model, its hat
    and the generated spaces: sampled paths, with pauses, and every rigid
    trace run with and without its dwell pauses."""
    lines = []
    for name, sp, count in _parse_spaces():
        norm = presentation.normalize(sp)
        rng = random.Random(zlib.crc32(f"{name}/parse".encode()))
        for k, p in enumerate(_sampled_paths(norm, rng, count)):
            out = parse_controlled(norm, p)
            outcome = (out.controlled, out.count, out.instances, out.fail_at)
            lines.append(f"{name} {k} {outcome!r}")
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == PARSE_DIGEST), len(lines)


# ---------------------------------------------------------------------------
# The integer rank against ranks found by sorting Fractions

def _graph_parts(space):
    """The graph presentations of a space's normal form."""
    norm = presentation.normalize(space)
    if isinstance(norm, GraphPresentation):
        yield norm
    else:
        for factor in (norm.left, norm.right):
            yield from _graph_parts(factor)


def _rank_spaces():
    for name in names():
        sp = build(name)
        for suffix, space in (("", sp), ("/hat", hat(sp))):
            for k, pres in enumerate(_graph_parts(space)):
                yield f"{name}{suffix}/{k}", pres
    for seed in range(300):
        yield f"spaces/{seed}", random_space(random.Random(f"spaces/{seed}"))


def _sorted_rank(cs: tuple, v) -> int:
    """The rank of v among the cut values cs: twice its place among them
    when it is one, and one less than that when it lies between two."""
    merged = sorted([*cs, v])
    return 2 * merged.index(v) - (v not in cs)


def test_rank_of_agrees_with_sorting():
    """At every cut value, every segment midpoint and random rationals
    with denominators up to 10**9, ``rank_of`` gives the rank that
    sorting finds, for every entry of every parse index, and the cell
    graph puts an inner point in the cell at that rank."""
    checked = 0
    for name, pres in _rank_spaces():
        rng = random.Random(zlib.crc32(f"{name}/rank".encode()))
        g = reach.compiled(pres)
        index = membership.parse_index(g.pres)
        edge_of = {ent: e for e, (ent, _, _) in index.edges.items()}
        for ent in index.shared.values():
            cs, e = ent.cuts, edge_of[ent]
            values = [*cs, *((a + b) / 2 for a, b in zip(cs, cs[1:]))]
            for _ in range(16):
                q = rng.randint(1, 10 ** 9)
                values.append(F(rng.randint(0, q), q))
            for v in values:
                r = _sorted_rank(cs, v)
                assert membership.rank_of(ent, v) == r, (name, cs, v)
                if 0 < v < 1:
                    assert g.cell(EdgePoint(e, v)) == \
                        g.cell_at[g.offset[g.index[e]] + r], (name, e, v)
                checked += 1
    assert checked > 10 ** 4
