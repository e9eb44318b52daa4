"""Model corpus: every builder produces a valid model with the documented
shape, and the hysteresis narratives behave as described."""

from fractions import Fraction as F

import pytest

from cspaces.corpus import build, names
from cspaces.membership import is_controlled
from cspaces.model import (PAUSE, EdgePoint, ModelError, ProdSeg, PTuple,
                           Pause, Seg, Vertex, assemble, reverse_path)
from cspaces.presentation import GraphPresentation, ProductN, normalize, validate

from helpers import Z, O, H


def test_catalogue_is_complete():
    assert set(names()) == {
        "natural_interval", "d_interval", "c_interval", "two_jump",
        "delayed_minus", "delayed_plus", "reversible_one_jump",
        "c_line_window", "window_2_3e", "d_circle", "c_circle",
        "n_stop_circle", "c_square", "hybrid_square", "crossing_square",
        "c_torus", "hysteron", "dual_controller", "two_controller",
        "siphon", "siphon_osc", "dual_carriageway",
    }


@pytest.mark.parametrize("name", names())
def test_every_model_builds_and_validates(name):
    sp = build(name)
    assert validate(sp) == []


def test_unknown_name_rejected():
    with pytest.raises(ModelError):
        build("no_such_model")


def test_unknown_param_rejected():
    with pytest.raises(ModelError):
        build("c_interval", n=3)


class TestParametrizedBuilders:
    def test_n_stop_circle_param(self):
        sp = normalize(build("n_stop_circle", n=5))
        assert sp.edges[0].kind.n == 5

    def test_line_window_params(self):
        sp = normalize(build("c_line_window", lo=-1, hi=2))
        assert sp.edges[0].kind.n == 3

    def test_line_window_bad_params(self):
        with pytest.raises(ModelError):
            build("c_line_window", lo=2, hi=2)

    def test_hysteron_threshold_order_enforced(self):
        with pytest.raises(ModelError):
            build("hysteron", t1=3, t0=2, t2=1)

    def test_dual_controller_threshold_order_enforced(self):
        with pytest.raises(ModelError):
            build("dual_controller", t1=0, u1=3, u2=1, t2=4)

    def test_torus_is_nested_product(self):
        t = normalize(build("c_torus", n=2))
        assert isinstance(t, ProductN)


class TestQuotientModels:
    def test_c_circle_is_loop(self):
        sp = normalize(build("c_circle"))
        (e,) = sp.edges
        assert e.src == e.dst

    def test_dual_carriageway_shares_junctions(self):
        sp = normalize(build("dual_carriageway"))
        assert isinstance(sp, GraphPresentation)
        ids = {e.id: (e.src, e.dst) for e in sp.edges}
        assert ids["x2"] == ("v1", "v2")
        assert ids["x3"] == ("v2", "v1")


HYSTERON_NARRATIVE = assemble(Vertex("off_lo"), [
    Seg("off0", Z, O), Seg("off1", Z, O),  # rise along the off branch
    Seg("up", Z, O),                        # switch on at the high threshold
    Seg("on1", Z, O),                       # keep rising
    Seg("on1", O, Z), Seg("on0", O, Z),     # fall along the on branch
    Seg("down", Z, O),                      # switch off at the low threshold
    Seg("off0", O, Z),                      # fall back to the start
], Vertex("off_lo"))


class TestHysteron:
    sp = build("hysteron")

    def test_narrative_loop_controlled(self):
        assert is_controlled(self.sp, HYSTERON_NARRATIVE)

    def test_reversed_narrative_rejected(self):
        assert not is_controlled(self.sp, reverse_path(HYSTERON_NARRATIVE))

    def test_partial_switch_rejected(self):
        p = assemble(Vertex("off_t2"), [Seg("up", Z, H)], EdgePoint("up", H))
        assert not is_controlled(self.sp, p)

    def test_branch_motion_free(self):
        p = assemble(Vertex("off_lo"),
                     [Seg("off0", Z, H), Seg("off0", H, F(1, 4))],
                     EdgePoint("off0", F(1, 4)))
        assert is_controlled(self.sp, p)


class TestTwoController:
    sp = build("two_controller")

    def _staged(self, path, parked, first):
        atoms = []
        for item in path.items:
            if isinstance(item, Pause):
                atoms.append(PAUSE)
                continue
            for seg in item.segs:
                atoms.append(ProdSeg((seg, parked)) if first
                             else ProdSeg((parked, seg)))
        return atoms

    def test_staged_narrative_controlled(self):
        parked = Vertex("off_lo")
        p0 = PTuple((parked, parked))
        atoms = (self._staged(HYSTERON_NARRATIVE, parked, True) + [PAUSE]
                 + self._staged(HYSTERON_NARRATIVE, parked, False))
        big = assemble(p0, atoms, p0)
        assert is_controlled(self.sp, big)
        assert not is_controlled(self.sp, reverse_path(big))


class TestDualController:
    sp = build("dual_controller")

    def test_heating_cycle_controlled(self):
        norm = normalize(self.sp)
        ids = {e.id: (e.src, e.dst) for e in norm.edges}
        # cross the heater's on-jump and come back through its off-jump
        on_src = ids["heat_on"][0]
        p = assemble(Vertex(on_src), [Seg("heat_on", Z, O)],
                     Vertex(ids["heat_on"][1]))
        assert is_controlled(self.sp, p)
        assert not is_controlled(self.sp, reverse_path(p))


class TestCJRealization:
    """Monotone increasing paths of the two-jump interval are accepted
    exactly when their image is the low half, the high half or the whole."""
    sp = build("two_jump")

    def _image_path(self, lo, hi):
        # chain coordinates over [0,1]: e0 covers [0,1/2], e1 covers [1/2,1]
        def locate(x):
            if x <= F(1, 2):
                t = 2 * x
                if t == 0:
                    return Vertex("v0"), ("e0", F(0))
                if t == 1:
                    return Vertex("vm"), ("e0", F(1))
                return EdgePoint("e0", t), ("e0", t)
            t = 2 * x - 1
            if t == 1:
                return Vertex("v1"), ("e1", F(1))
            return EdgePoint("e1", t), ("e1", t)

        start, (e_lo, t_lo) = locate(lo)
        end, (e_hi, t_hi) = locate(hi)
        atoms = []
        if e_lo == e_hi:
            atoms.append(Seg(e_lo, t_lo, t_hi))
        else:
            if t_lo < 1:
                atoms.append(Seg("e0", t_lo, F(1)))
            if t_hi > 0:
                atoms.append(Seg("e1", F(0), t_hi))
        return assemble(start, atoms, end)

    def test_accepted_images(self):
        grid = [F(k, 8) for k in range(9)]
        accepted = {(F(0), F(1, 2)), (F(1, 2), F(1)), (F(0), F(1))}
        for lo in grid:
            for hi in grid:
                if lo >= hi:
                    continue
                p = self._image_path(lo, hi)
                assert is_controlled(self.sp, p) == ((lo, hi) in accepted), \
                    (lo, hi)
