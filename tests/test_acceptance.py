"""Acceptance gate: one test (and one printed pass/fail line) per
criterion.  1a-1p freeze documented facts; 2 runs the property suites;
3 runs the oracle-equivalence suite; 4 checks that the hat of a product
is the product of the hats."""

import random
from fractions import Fraction as F

from cspaces.classify import (classify_point, is_flexible_point,
                              is_rigid_path, is_rigid_space)
from cspaces.construct import (exclude_endpoints, flexible_part, hat,
                               is_finer, opposite, product)
from cspaces.corpus import build
from cspaces.membership import is_controlled
from cspaces.model import (PAUSE, EdgePoint, Pause, ProdSeg, PTuple, Seg,
                           Vertex, assemble, reverse_path)
from cspaces.presentation import normalize
from cspaces.reach import c_reachable, d_reachable, unavoidable_point

from helpers import Z, O, H, hybrid_predicate, square_predicate
from sampling import random_graph_path, random_product_path

V0, V1 = Vertex("v0"), Vertex("v1")
SEED = 424242


def criterion(cid, desc):
    def deco(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] {cid}: {desc}")
                raise
            print(f"[PASS] {cid}: {desc}")
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


def kinds(sp):
    return {e.id: e.kind.name for e in normalize(sp).edges}


def flags(sp, p):
    c = classify_point(sp, p)
    return (c.flexible, c.critical, c.future_critical, c.past_critical)


@criterion("1a", "one-jump interval: full run, half run, mid-pause run")
def test_1a_jump_interval_membership():
    sp = build("c_interval")
    assert is_controlled(sp, assemble(V0, [Seg("e0", Z, O)], V1))
    assert not is_controlled(sp, assemble(V0, [Seg("e0", Z, H)],
                                          EdgePoint("e0", H)))
    assert is_controlled(sp, assemble(
        V0, [Seg("e0", Z, H), PAUSE, Seg("e0", H, O)], V1))


@criterion("1b", "one-jump interval criticality")
def test_1b_jump_interval_criticality():
    sp = build("c_interval")
    for t in (F(1, 4), H, F(3, 4)):
        assert flags(sp, EdgePoint("e0", t))[1]          # interior critical
    fl0, _, fc0, _ = flags(sp, V0)
    assert fl0 and fc0                                    # 0: future-critical flexible
    fl1, _, _, pc1 = flags(sp, V1)
    assert fl1 and pc1                                    # 1: past-critical flexible


@criterion("1c", "line window: unit-jump rigidity, criticality, hat, "
                 "flexible part")
def test_1c_line_window():
    sp = build("c_line_window")
    jump = assemble(EdgePoint("e0", F(1, 3)), [Seg("e0", F(1, 3), F(2, 3))],
                    EdgePoint("e0", F(2, 3)))
    assert is_rigid_path(sp, jump)
    double = assemble(Vertex("v0"), [Seg("e0", Z, F(2, 3))],
                      EdgePoint("e0", F(2, 3)))
    assert not is_rigid_path(sp, double)
    for t in (F(1, 6), F(1, 3), H, F(2, 3)):
        assert flags(sp, EdgePoint("e0", t))[1]
    for t in (F(1, 3), F(2, 3)):                          # interior integers
        assert flags(sp, EdgePoint("e0", t))[2:] == (True, True)
    assert kinds(hat(sp)) == {"e0": "directed"}
    fl = normalize(flexible_part(sp))
    assert kinds(fl) == {"e0": "discrete_c"}
    assert set(fl.flexible) == {Vertex("v0"), Vertex("v3"),
                                EdgePoint("e0", F(1, 3)),
                                EdgePoint("e0", F(2, 3))}


@criterion("1d", "mixed window: crossing membership and criticality")
def test_1d_mixed_window():
    sp = build("window_2_3e")
    short = assemble(EdgePoint("e0", H), [Seg("e0", H, O), Seg("e1", Z, H)],
                     EdgePoint("e1", H))
    assert not is_controlled(sp, short)
    long = assemble(EdgePoint("e0", H),
                    [Seg("e0", H, O), Seg("e1", Z, O), Seg("e2", Z, H)],
                    EdgePoint("e2", H))
    assert is_controlled(sp, long)
    assert flags(sp, V1)[2]                               # 1 future-critical
    fl, cr, _, _ = flags(sp, EdgePoint("e1", H))
    assert cr and not fl                                  # ]1,2[ critical non-flexible
    assert flags(sp, Vertex("v2"))[3]                     # 2 past-critical


@criterion("1e", "two-jump interval: accepted monotone images")
def test_1e_two_jump_images():
    sp = build("two_jump")
    accepted = {(F(0), F(1, 2)), (F(1, 2), F(1)), (F(0), F(1))}

    def locate(x):
        if x <= H:
            t = 2 * x
            return (V0 if t == 0 else Vertex("vm") if t == 1
                    else EdgePoint("e0", t)), ("e0", t)
        t = 2 * x - 1
        return (V1 if t == 1 else EdgePoint("e1", t)), ("e1", t)

    grid = [F(k, 8) for k in range(9)]
    for lo in grid:
        for hi in grid:
            if lo >= hi:
                continue
            start, (e_lo, t_lo) = locate(lo)
            end, (e_hi, t_hi) = locate(hi)
            atoms = ([Seg(e_lo, t_lo, t_hi)] if e_lo == e_hi else
                     ([Seg("e0", t_lo, O)] if t_lo < 1 else [])
                     + ([Seg("e1", Z, t_hi)] if t_hi > 0 else []))
            p = assemble(start, atoms, end)
            assert is_controlled(sp, p) == ((lo, hi) in accepted), (lo, hi)


@criterion("1f", "delayed jump: pause requirement, comparison, "
                 "reverse isomorphism")
def test_1f_delayed():
    minus = build("delayed_minus")
    assert not is_controlled(minus, assemble(V0, [Seg("e0", Z, O)], V1))
    assert is_controlled(minus, assemble(V0, [PAUSE, Seg("e0", Z, O)], V1))
    assert is_finer(minus, build("c_interval"))
    op_plus = opposite(build("delayed_plus"))

    def flip(path):
        def fp(p):
            return (V1 if p == V0 else V0) if isinstance(p, Vertex) \
                else EdgePoint(p.edge, O - p.t)
        atoms = []
        for item in path.items:
            if isinstance(item, Pause):
                atoms.append(PAUSE)
                continue
            for s in item.segs:
                atoms.append(Seg(s.edge, O - s.a, O - s.b))
        return assemble(fp(path.start), atoms, fp(path.end))

    rng = random.Random(SEED)
    nm = normalize(minus)
    for _ in range(200):
        p = random_graph_path(nm, rng)
        assert is_controlled(minus, p) == is_controlled(op_plus, flip(p))


@criterion("1g", "reversible jump: both full runs, no half runs, hat")
def test_1g_reversible_jump():
    sp = build("reversible_one_jump")
    assert is_controlled(sp, assemble(V0, [Seg("e0", Z, O)], V1))
    assert is_controlled(sp, assemble(V1, [Seg("e0", O, Z)], V0))
    assert not is_controlled(sp, assemble(V0, [Seg("e0", Z, H)],
                                          EdgePoint("e0", H)))
    assert kinds(hat(sp)) == {"e0": "natural"}


@criterion("1h", "base circle: loops only, criticality, rigidity, "
                 "all-pairs d-reach")
def test_1h_circle():
    sp = normalize(build("c_circle"))
    rng = random.Random(SEED + 1)
    for _ in range(400):
        p = random_graph_path(sp, rng)
        if p.is_trivial():
            want = p.start == V0
        else:
            cur = Z
            want = p.start == V0 and p.end == V0
            for item in p.items:
                if isinstance(item, Pause):
                    continue
                for s in item.segs:
                    if cur == O:
                        cur = Z
                    if s.a != cur or s.b <= s.a:
                        want = False
                    cur = s.b
            want = want and cur in (Z, O)
        assert is_controlled(sp, p) == want, p
    assert flags(sp, V0) == (True, True, True, True)
    assert flags(sp, EdgePoint("e0", H))[:2] == (False, True)
    assert is_rigid_space(sp)
    pts = [V0, EdgePoint("e0", F(1, 4)), EdgePoint("e0", F(3, 4))]
    assert all(d_reachable(sp, a, b) for a in pts for b in pts)


@criterion("1i", "three-stop circle: generator length and rigidity")
def test_1i_stop_circle():
    from cspaces.presentation import family
    sp = normalize(build("n_stop_circle", n=3))
    fam = family(sp, "e0")
    spans = sorted((tr.steps[0].a, tr.steps[-1].b) for tr in fam.rigid)
    assert spans == [(Z, F(1, 3)), (F(1, 3), F(2, 3)), (F(2, 3), O)]
    assert is_rigid_space(sp)


@criterion("1j", "jump square: predicate agreement, four flexible points")
def test_1j_square():
    sp = normalize(build("c_square"))
    from helpers import positive_product_path
    rng = random.Random(SEED + 2)
    hits = {True: 0, False: 0}
    for k in range(200):
        p = (positive_product_path(rng) if k % 3 == 0
             else random_product_path(sp, rng))
        got = is_controlled(sp, p)
        assert got == square_predicate(p), p
        hits[got] += 1
    assert hits[True] >= 20 and hits[False] >= 20
    pts = [V0, V1, EdgePoint("e0", F(1, 3)), EdgePoint("e0", H)]
    flex = [(a, b) for a in pts for b in pts
            if is_flexible_point(sp, PTuple((a, b)))]
    assert flex == [(a, b) for a in (V0, V1) for b in (V0, V1)]


@criterion("1k", "hybrid square: predicate agreement")
def test_1k_hybrid_square():
    sp = normalize(build("hybrid_square"))
    from helpers import positive_product_path
    rng = random.Random(SEED + 3)
    hits = {True: 0, False: 0}
    for k in range(200):
        p = (positive_product_path(rng, second_directed=True)
             if k % 3 == 0 else random_product_path(sp, rng))
        got = is_controlled(sp, p)
        assert got == hybrid_predicate(p), p
        hits[got] += 1
    assert hits[True] >= 20 and hits[False] >= 20


@criterion("1l", "crossing square: c-reach false, d-reach true")
def test_1l_crossing_square():
    sp = build("crossing_square")
    p1, p2 = EdgePoint("d0", H), EdgePoint("d3", H)
    assert not c_reachable(sp, p1, p2)
    r = d_reachable(sp, p1, p2)
    assert r and is_controlled(hat(sp), r.witness)


@criterion("1m", "siphons: criticality, flexible part, hat, "
                 "partial-fall membership")
def test_1m_siphons():
    sp = build("siphon")
    assert flags(sp, V1)[2] and not flags(sp, V1)[3]     # 1 future-critical
    assert flags(sp, V0)[3] and not flags(sp, V0)[2]     # 0 past-critical
    for p in (V0, V1, EdgePoint("e0", F(1, 4)), EdgePoint("e0", H)):
        fc, pc = flags(sp, p)[2:]
        assert not (fc and pc)                            # no bilateral point
    assert kinds(flexible_part(sp)) == {"e0": "directed"}
    assert kinds(hat(sp)) == {"e0": "natural"}
    so = build("siphon_osc")
    assert flags(so, V1)[2]
    assert not flags(so, V0)[3]
    fall = assemble(EdgePoint("e0", F(9, 10)),
                    [Seg("e0", F(9, 10), F(3, 10))], EdgePoint("e0", F(3, 10)))
    assert is_controlled(so, fall)
    from_top = assemble(V1, [Seg("e0", O, F(3, 10))], EdgePoint("e0", F(3, 10)))
    assert not is_controlled(so, from_top)


@criterion("1n", "hysteresis narratives controlled, reversals rejected")
def test_1n_hysteresis_narratives():
    from test_corpus import HYSTERON_NARRATIVE
    hy = build("hysteron")
    assert is_controlled(hy, HYSTERON_NARRATIVE)
    assert not is_controlled(hy, reverse_path(HYSTERON_NARRATIVE))
    tc = build("two_controller")
    parked = Vertex("off_lo")
    atoms = []
    for second in (False, True):
        for item in HYSTERON_NARRATIVE.items:
            if isinstance(item, Pause):
                atoms.append(PAUSE)
                continue
            for seg in item.segs:
                atoms.append(ProdSeg((parked, seg)) if second
                             else ProdSeg((seg, parked)))
        atoms.append(PAUSE)
    p0 = PTuple((parked, parked))
    big = assemble(p0, atoms, p0)
    assert is_controlled(tc, big)
    assert not is_controlled(tc, reverse_path(big))


@criterion("1o", "dual carriageway: second junction unavoidable")
def test_1o_dual_carriageway():
    sp = build("dual_carriageway")
    assert unavoidable_point(sp, V0, EdgePoint("x3", H), Vertex("v2"))


@criterion("1p", "excluded-endpoint siphon: stopping vs passing through")
def test_1p_excluded_siphon():
    sp = exclude_endpoints(build("siphon"), [V1])
    assert not is_controlled(sp, assemble(V0, [Seg("e0", Z, O)], V1))
    pass_thru = assemble(EdgePoint("e0", H),
                         [Seg("e0", H, O), Seg("e0", O, Z)], V0)
    assert is_controlled(sp, pass_thru)
    fl, cr, _, _ = flags(sp, V1)
    assert cr and not fl


@criterion("2", "property suites: axioms, involution, hat laws, products, "
                "preorders, comparison")
def test_2_property_suites():
    import test_properties as props
    props.TestAxiomClosure().test_trivial_loops_at_endpoints_controlled()
    props.TestAxiomClosure().test_pause_insertion_preserves_membership()
    props.TestAxiomClosure().test_concatenation_of_controlled_paths_controlled()
    props.TestOppositeInvolution().test_membership_under_double_opposite_and_reversal()
    props.TestHatLaws().test_idempotent_membership()
    props.TestHatLaws().test_restriction_closed()
    props.TestProductProjectionLaw().test_square_membership_matches_predicate()
    props.TestProductProjectionLaw().test_hybrid_membership_matches_predicate()
    props.TestReachPreorder().test_reflexive_transitive_and_c_below_d()
    props.TestFinerLaws().test_reflexive()
    props.TestFinerLaws().test_chain_through_functors()


@criterion("3", "oracle equivalence on every graph model, 500 paths each")
def test_3_oracle_equivalence():
    import test_oracle as oracle
    for name in oracle.GRAPH_MODELS:
        oracle.test_engine_agrees_with_brute_force(name)


@criterion("4", "hat of a product is the product of hats")
def test_4_hat_of_product_is_product_of_hats():
    ci, cj = build("c_interval"), build("two_jump")
    diag = assemble(
        PTuple((V0, V0)),
        [ProdSeg((Seg("e0", Z, H), Seg("e0", Z, O))),
         ProdSeg((Seg("e0", H, O), Seg("e1", Z, O)))],
        PTuple((V1, V1)))
    # each projection of diag is controlled, so diag lies in the product
    # and, since a space sits inside its hat, in the hat of the product
    assert is_controlled(product(ci, cj), diag)
    assert is_controlled(hat(product(ci, cj)), diag)
    assert normalize(hat(product(ci, cj))) == \
        normalize(product(hat(ci), hat(cj)))
