"""Membership engine: frozen expected values for every interval kind and
the multi-edge models."""

from fractions import Fraction as F

import pytest

from cspaces import kinds as K
from cspaces import membership
from cspaces.corpus import build
from cspaces.construct import exclude_endpoints
from cspaces.kinds import Fragment
from cspaces.membership import (brute_force_controlled, is_controlled,
                                parse_controlled)
from cspaces.model import PAUSE, EdgePoint, Seg, Track, Vertex, assemble
from cspaces.presentation import (Edge, GraphPresentation, cuts, family,
                                  pos_point)

from helpers import OPEN_WINDOWS, Z, O, H, interval


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

        monkeypatch.setattr(membership, "fragment_span_ok",
                            counting("fragment_span_ok", membership.fragment_span_ok))
        monkeypatch.setattr(Fragment, "admits", counting("admits", Fragment.admits))
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
