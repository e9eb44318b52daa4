"""Checks on seeded generated presentations (``spaces.random_space``):
the laws of the constructions on sampled paths, and as equalities of
normal forms (on the corpus and on products too), the flexible transitions
of the compiled graph against the flexible part, whole relations against
each question, and membership, reach and unavoidable-point answers
against the oracles, with every witness read on the way."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from cspaces import kinds as K
from cspaces import reach
from cspaces.construct import (flexible_part, hat, opposite, product,
                               reversible_closure, reversible_part)
from cspaces.corpus import build, names
from cspaces.membership import is_controlled, parse_controlled
from cspaces.model import (EdgePoint, ModelError, Position, Run, Vertex,
                           assemble, reverse_path)
from cspaces.presentation import (ProductN, cuts, normalize, pos_point,
                                  split_path)
from cspaces.reach import (c_reachable, d_reachable, reach_relation,
                           unavoidable_point)

from helpers import after
from oracle import (brute_force_controlled, brute_force_reach,
                    brute_force_unavoidable)
from sampling import random_graph_path
from spaces import random_space

SEEDS = range(300)
BATCHES = 6


def _spaces(batch, normal=True):
    """(seed, space, rng): the normal form of each seeded space, or with
    `normal` false the space as drawn, whose absorbing, emitting and
    blocked points the oracles read for themselves."""
    for seed in SEEDS[batch::BATCHES]:
        rng = random.Random(f"spaces/{seed}")
        sp = random_space(rng)
        yield seed, normalize(sp) if normal else sp, rng


def _points(pres, rng, fresh=1):
    pts = [Vertex(v) for v in sorted(pres.vertices)]
    for e in pres.edges:
        pts += [pos_point(pres, e.id, t) for t in cuts(pres, e.id)[1:-1]]
        pts += [EdgePoint(e.id, F(rng.randint(1, 100), 101))
                for _ in range(fresh)]
    return pts


def _halves(sp, p):
    """Both portions of p at each run boundary, and inside each segment at
    the cut values of its edge and one point between each two.  A portion
    of p fails only at one of its ends, and nothing changes between two
    cut values, so p is flexible exactly when every half is controlled."""
    for k, item in enumerate(p.items):
        if k:
            yield from split_path(sp, p, Position(k))
        for si, seg in enumerate(item.segs if isinstance(item, Run) else ()):
            ts = sorted({seg.a, seg.b, *(x for x in cuts(sp, seg.edge)
                                         if seg.lo < x < seg.hi)})
            for t in ts[1:-1] + [(a + b) / 2 for a, b in zip(ts, ts[1:])]:
                yield from split_path(sp, p, Position(k, si, t))


@pytest.mark.parametrize("batch", range(BATCHES))
def test_the_constructions_keep_their_laws(batch):
    """On 10 sampled paths of each space X: X sits inside its hat and its
    reversible closure, the closure holds a path exactly when it holds
    its reverse, reversal maps X onto its opposite, the flexible
    part holds exactly the flexible paths, and the reversible part sits
    inside X, holds the reverse of each of its paths and keeps every
    trivial loop of X."""
    for seed, sp, rng in _spaces(batch):
        h, op, fl, rc, rp = (normalize(c(sp)) for c in (
            hat, opposite, flexible_part, reversible_closure, reversible_part))
        for _ in range(10):
            p = random_graph_path(sp, rng)
            inside = is_controlled(sp, p)
            assert is_controlled(op, reverse_path(p)) == inside, (seed, p)
            assert is_controlled(fl, p) == (inside and all(
                is_controlled(sp, q) for q in _halves(sp, p))), (seed, p)
            if inside:
                assert is_controlled(h, p) and is_controlled(rc, p), (seed, p)
            assert (is_controlled(rc, reverse_path(p))
                    == is_controlled(rc, p)), (seed, p)
            if is_controlled(rp, p):
                assert inside and is_controlled(rp, reverse_path(p)), (seed, p)
        for x in _points(sp, rng):
            loop = assemble(x, [], x)
            assert is_controlled(rp, loop) or not is_controlled(sp, loop), (
                seed, x)


def _named(sp):
    """The normal form of sp with every kind named by ``kind_of``."""
    if isinstance(sp, ProductN):
        return ProductN(_named(sp.left), _named(sp.right))
    return replace(sp, edges=tuple(
        replace(e, kind=K.kind_of(K.kind_generators(e.kind)))
        for e in sp.edges))


def _broken_laws(sp, constructions) -> list:
    """The constructions that are not idempotent on sp, and "opposite"
    when the opposite of its opposite is not sp with its kinds named."""
    bad = [c.__name__ for c in constructions
           if normalize(c(c(sp))) != normalize(c(sp))]
    if normalize(opposite(opposite(sp))) != _named(sp):
        bad.append("opposite")
    return bad


@pytest.mark.parametrize("batch", range(BATCHES))
def test_the_constructions_keep_their_laws_as_equalities(batch):
    """Hat, flexible part, reversible closure and reversible part are
    idempotent, and opposite is an involution up to naming the kinds, as
    equalities of normal forms on the generated spaces and the corpus
    graphs.  Hat, flexible part and opposite keep them on the product of
    each generated space with the next one, and on the corpus products."""
    graph = (hat, flexible_part, reversible_closure, reversible_part)
    for seed, sp, _ in _spaces(batch):
        nxt = random_space(random.Random(f"spaces/{(seed + 1) % len(SEEDS)}"))
        assert not _broken_laws(sp, graph), seed
        assert not _broken_laws(normalize(product(sp, nxt)), graph[:2]), seed
    for name in names()[batch::BATCHES]:
        sp = normalize(build(name))
        assert not _broken_laws(
            sp, graph[:2] if isinstance(sp, ProductN) else graph), name


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


ORACLE_DEPTH = 5


@pytest.mark.parametrize("batch", range(BATCHES))
def test_membership_agrees_with_the_oracle(batch):
    """``is_controlled``, read from the parse, against
    ``brute_force_controlled`` on seeded paths of each space as drawn
    and of its hat; a parse longer than the oracle's depth is beyond its
    horizon."""
    for seed, sp, rng in _spaces(batch, normal=False):
        for pres in (sp, normalize(hat(sp))):
            for _ in range(4):
                p = random_graph_path(pres, rng)
                out = parse_controlled(pres, p)
                if out.controlled and out.count > ORACLE_DEPTH:
                    continue
                assert (out.controlled == brute_force_controlled(
                    pres, p, depth=ORACLE_DEPTH)), (seed, pres == sp, p)


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
    for seed, sp, rng in _spaces(batch, normal=False):
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
    for seed, sp, rng in _spaces(batch, normal=False):
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
