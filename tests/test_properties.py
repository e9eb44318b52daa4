"""Randomized property suites, seed-fixed, >= 500 cases each:
axiom closure, opposite involution, hat idempotence and
restriction-closedness, product projection law, reach preorder laws,
finer reflexivity and transitivity."""

import random
import zlib

from cspaces.construct import (functor_Dc, functor_Dprime, hat, is_finer,
                               opposite)
from cspaces.corpus import build, names
from cspaces.membership import is_controlled
from cspaces.model import Position, Seg, assemble, concat, reverse_path
from cspaces.presentation import (GraphPresentation, insert_pause, normalize,
                                  split_path)
from cspaces.reach import reach_relation
from cspaces.sampling import random_graph_path, random_product_path

SEED = 20260826

GRAPH_MODELS = [n for n in names()
                if isinstance(normalize(build(n)), GraphPresentation)]


def graph_cases(per_model, seed_salt=0):
    """Yield (space, random path) pairs across all graph models."""
    for name in GRAPH_MODELS:
        sp = normalize(build(name))
        # crc32, unlike hash(), is not salted per process: a failure replays
        rng = random.Random(SEED + seed_salt
                            + zlib.crc32(name.encode()) % 10 ** 6)
        for _ in range(per_model):
            yield sp, random_graph_path(sp, rng)


def controlled_cases(per_model, seed_salt=0):
    for sp, p in graph_cases(per_model * 8, seed_salt):
        if not p.is_trivial() and is_controlled(sp, p):
            yield sp, p


def _positions(path):
    """All item-boundary positions plus run-interior seg midpoints."""
    out = [Position(k) for k in range(len(path.items) + 1)]
    for k, item in enumerate(path.items):
        if hasattr(item, "segs"):
            for si, seg in enumerate(item.segs):
                if isinstance(seg, Seg):
                    out.append(Position(k, si, (seg.a + seg.b) / 2))
    return out


class TestAxiomClosure:
    def test_trivial_loops_at_endpoints_controlled(self):
        n = 0
        for sp, p in controlled_cases(30):
            for q in (p.start, p.end):
                assert is_controlled(sp, assemble(q, [], q)), (sp, p, q)
                n += 1
            if n >= 1000:
                break
        assert n >= 500

    def test_pause_insertion_preserves_membership(self):
        rng = random.Random(SEED)
        n = 0
        for sp, p in controlled_cases(30, seed_salt=1):
            pos = rng.choice(_positions(p))
            q = insert_pause(sp, p, pos)
            assert is_controlled(sp, q), (sp, p, pos)
            n += 1
            if n >= 600:
                break
        assert n >= 500

    def test_concatenation_of_controlled_paths_controlled(self):
        by_space = {}
        for sp, p in controlled_cases(40, seed_salt=2):
            by_space.setdefault(id(sp), (sp, []))[1].append(p)
        n = 0
        for sp, paths in by_space.values():
            by_start = {}
            for p in paths:
                by_start.setdefault(p.start, []).append(p)
            for p in paths:
                for q in by_start.get(p.end, ())[:4]:
                    assert is_controlled(sp, concat(p, q)), (sp, p, q)
                    n += 1
        assert n >= 500


class TestOppositeInvolution:
    def test_membership_under_double_opposite_and_reversal(self):
        ops = {name: normalize(opposite(build(name))) for name in GRAPH_MODELS}
        opops = {name: normalize(opposite(opposite(build(name))))
                 for name in GRAPH_MODELS}
        n = 0
        for name in GRAPH_MODELS:
            sp = normalize(build(name))
            rng = random.Random(SEED + 3)
            for _ in range(35):
                p = random_graph_path(sp, rng)
                ours = is_controlled(sp, p)
                assert is_controlled(opops[name], p) == ours
                assert is_controlled(ops[name], reverse_path(p)) == ours
                n += 1
        assert n >= 500


class TestHatLaws:
    def test_idempotent_membership(self):
        n = 0
        for name in GRAPH_MODELS:
            h = normalize(hat(build(name)))
            hh = normalize(hat(h))
            assert h.generators == (), name
            rng = random.Random(SEED + 4)
            for _ in range(35):
                p = random_graph_path(h, rng)
                assert is_controlled(hh, p) == is_controlled(h, p)
                n += 1
        assert n >= 500

    def test_restriction_closed(self):
        rng = random.Random(SEED + 5)
        n = 0
        for name in GRAPH_MODELS:
            sp = normalize(build(name))
            h = normalize(hat(sp))
            local = 0
            for _ in range(400):
                p = random_graph_path(sp, rng)
                if p.is_trivial() or not is_controlled(h, p):
                    continue
                pos = rng.choice(_positions(p))
                for half in split_path(h, p, pos):
                    if not half.is_trivial():
                        assert is_controlled(h, half), (name, p, pos)
                        n += 1
                        local += 1
                if local >= 40:
                    break
        assert n >= 500

    def test_original_membership_implies_hat_membership(self):
        n = 0
        for sp, p in controlled_cases(30, seed_salt=6):
            assert is_controlled(hat(sp), p)
            n += 1
            if n >= 600:
                break
        assert n >= 500


class TestProductProjectionLaw:
    def test_square_membership_matches_predicate(self):
        from helpers import positive_product_path, square_predicate
        sp = normalize(build("c_square"))
        rng = random.Random(SEED + 7)
        hits = {True: 0, False: 0}
        for k in range(600):
            p = (positive_product_path(rng) if k % 3 == 0
                 else random_product_path(sp, rng))
            got = is_controlled(sp, p)
            assert got == square_predicate(p), p
            hits[got] += 1
        assert hits[True] >= 100 and hits[False] >= 100

    def test_hybrid_membership_matches_predicate(self):
        from helpers import hybrid_predicate, positive_product_path
        sp = normalize(build("hybrid_square"))
        rng = random.Random(SEED + 8)
        hits = {True: 0, False: 0}
        for k in range(600):
            p = (positive_product_path(rng, second_directed=True)
                 if k % 3 == 0 else random_product_path(sp, rng))
            got = is_controlled(sp, p)
            assert got == hybrid_predicate(p), p
            hits[got] += 1
        assert hits[True] >= 100 and hits[False] >= 100


class TestReachPreorder:
    def test_reflexive_transitive_and_c_below_d(self):
        checked = 0
        for name in GRAPH_MODELS:
            sp = build(name)
            rc = reach_relation(sp, "c")
            rd = reach_relation(sp, "d")
            nodes = rc.nodes()
            pc, pd = set(rc.pairs()), set(rd.pairs())
            assert pc <= pd
            for x in nodes:
                assert (x, x) in pc
                checked += 1
            succ = {}
            for a, b in pc:
                succ.setdefault(a, set()).add(b)
            for a, b in pc:
                for c in succ.get(b, ()):
                    assert (a, c) in pc, (name, a, b, c)
                    checked += 1
        assert checked >= 500


class TestFinerLaws:
    def test_reflexive(self):
        for name in GRAPH_MODELS:
            assert is_finer(build(name), build(name)), name

    def test_chain_through_functors(self):
        # discrete refinement <= original <= everything-allowed, and the
        # composite holds: a three-element chain per model
        for name in GRAPH_MODELS:
            sp = build(name)
            lo, hi = functor_Dc(sp), functor_Dprime(sp)
            assert is_finer(lo, sp), name
            assert is_finer(sp, hi), name
            assert is_finer(lo, hi), name

    def test_finer_implies_membership_containment(self):
        # spot-check the meaning of the comparison on sampled paths
        pairs = [("delayed_minus", "c_interval"),
                 ("c_interval", "d_interval"),
                 ("d_interval", "natural_interval")]
        n = 0
        for fine_name, coarse_name in pairs:
            fine, coarse = build(fine_name), build(coarse_name)
            assert is_finer(fine, coarse)
            nf = normalize(fine)
            rng = random.Random(SEED + 9)
            for _ in range(200):
                p = random_graph_path(nf, rng)
                if is_controlled(fine, p):
                    assert is_controlled(coarse, p), (fine_name, p)
                n += 1
        assert n >= 500
