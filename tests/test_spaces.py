"""Checks on seeded generated presentations (``spaces.random_space``):
the flexible transitions of the compiled graph against the flexible
part, whole relations against each question, and reach and
unavoidable-point answers against the oracles, with every witness read
on the way."""

import random
from fractions import Fraction as F

import pytest

from cspaces import reach
from cspaces.construct import flexible_part, hat
from cspaces.membership import is_controlled
from cspaces.model import EdgePoint, ModelError, Vertex
from cspaces.presentation import cuts, normalize, pos_point
from cspaces.reach import (c_reachable, d_reachable, reach_relation,
                           unavoidable_point)

from helpers import after
from oracle import brute_force_reach, brute_force_unavoidable
from spaces import random_space

SEEDS = range(300)
BATCHES = 6


def _spaces(batch):
    for seed in SEEDS[batch::BATCHES]:
        rng = random.Random(f"spaces/{seed}")
        yield seed, normalize(random_space(rng)), rng


def _points(pres, rng, fresh=1):
    pts = [Vertex(v) for v in sorted(pres.vertices)]
    for e in pres.edges:
        pts += [pos_point(pres, e.id, t) for t in cuts(pres, e.id)[1:-1]]
        pts += [EdgePoint(e.id, F(rng.randint(1, 100), 101))
                for _ in range(fresh)]
    return pts


@pytest.mark.parametrize("batch", range(BATCHES))
def test_the_flexible_mask_answers_as_the_flexible_part(batch):
    for seed, sp, rng in _spaces(batch):
        fl = normalize(flexible_part(sp))
        for x in _points(sp, rng):
            assert (reach.existence(sp, x, flexible=True)
                    == reach.existence(fl, x)), (seed, x)


def _flexible_reach(sp, x, y) -> bool:
    """x reaches y along flexible transitions, by the rule of
    ``reach._reaches``."""
    g = reach.compiled(sp)
    clo, cx, cy = g.closure(flexible=True), g.cell(x), g.cell(y)
    if cx != cy:
        return clo.reaches(cx, cy)
    return clo.reaches(cx, cx) or g.held(cx, 1 if y.t > x.t else -1)


@pytest.mark.parametrize("batch", range(BATCHES))
def test_the_flexible_closure_reaches_as_the_flexible_part(batch):
    for seed, sp, rng in _spaces(batch):
        fl = normalize(flexible_part(sp))
        pts = [x for x in _points(sp, rng, fresh=2)
               if x not in sp.excluded | sp.blocked]
        for x in rng.sample(pts, min(6, len(pts))):
            for y in pts:
                if x != y:
                    assert (_flexible_reach(sp, x, y)
                            == c_reachable(fl, x, y).ok), (seed, x, y)


@pytest.mark.parametrize("batch", range(BATCHES))
def test_pairs_agree_with_each_question(batch):
    for seed, sp, _ in _spaces(batch):
        for mode, ask in (("c", c_reachable), ("d", d_reachable)):
            rel = reach_relation(sp, mode)
            nodes = rel.nodes()
            assert rel.pairs() == tuple(
                (x, y) for x in nodes for y in nodes
                if ask(sp, x, y).ok), (seed, mode)


def _witnesses_parse(pres, pts) -> None:
    """Each read ``c_reachable`` witness between pts, and each loop at one
    of them, runs from x to y and is a controlled path of pres."""
    for x in pts:
        found = [(y, c_reachable(pres, x, y).witness) for y in pts]
        found.append((x, reach._graph_loop(pres, x).witness))
        for y, w in found:
            if w is not None:
                assert (w.start, w.end) == (x, y), (x, y, w)
                assert is_controlled(pres, w), (x, y, w)


@pytest.mark.parametrize("batch", range(BATCHES))
def test_reach_agrees_with_the_oracle(batch):
    for seed, sp, rng in _spaces(batch):
        pts = _points(sp, rng)
        pts = rng.sample(pts, min(5, len(pts)))
        reached = brute_force_reach(sp, pts)
        for x in pts:
            for y in pts:
                assert (c_reachable(sp, x, y).ok
                        == ((x, y) in reached)), (seed, x, y)
        for pres in (sp, normalize(hat(sp))):
            _witnesses_parse(pres, pts)


def _triples(pres, rng, count=8):
    """Seeded (x, y, p).  In half of them y is reachable from x (by the
    oracle) and, in one of those two, p shares an open segment with x.
    In the other half, y does, or all three share one."""
    pts = _points(pres, rng)
    reached = brute_force_reach(pres, pts)
    pairs = [(x, y) for x in pts for y in pts if x != y and (x, y) in reached]
    for n in range(count):
        x, y, p = (rng.choice(pts) for _ in range(3))
        if n % 4 < 2 and pairs:
            x, y = rng.choice(pairs)
        if n % 4 and isinstance(x, EdgePoint):
            near = after(pres, x)
            if n % 4 == 1:
                p = near
            elif n % 4 == 2:
                y = near
            else:
                x, y, p = rng.sample((x, near, after(pres, near)), 3)
        yield x, y, p


@pytest.mark.parametrize("batch", range(BATCHES))
def test_unavoidable_points_agree_with_the_oracle(batch):
    for seed, sp, rng in _spaces(batch):
        for x, y, p in _triples(sp, rng):
            try:
                got = unavoidable_point(sp, x, y, p)
            except ModelError:  # y is not reachable from x
                got = None
            if x == y:
                want = p == x
            elif (x, y) not in brute_force_reach(sp, [x, y, p]):
                want = None
            else:
                want = brute_force_unavoidable(sp, x, y, p)
            assert got == want, (seed, x, y, p)
