"""A family belongs to its kind: ``kind_of`` names a family up to the
order of its traces and fragments, and a family's traces name no edge."""

import pickle
from fractions import Fraction as F

import pytest

from cspaces import kinds as K
from cspaces.jsonio import space_from_json
from cspaces.kinds import Family, Fragment
from cspaces.membership import parse_controlled
from cspaces.model import ModelError, RigidTrace, TraceStep, Vertex
from cspaces.reach import c_reachable

from helpers import DETOUR, SHARED, SHARED_RUN, Z, O, H

NAMED = [K.NATURAL, K.DIRECTED, K.ONE_JUMP, K.DELAYED_MINUS, K.DELAYED_PLUS,
         K.REVERSIBLE_ONE_JUMP, K.SIPHON, K.SIPHON_OSC, K.STILL, K.DISCRETE_C]
KINDS = NAMED + [K.n_stop(n) for n in range(1, 7)]


def _id(k):
    return f"{k.name}{k.n or ''}"


@pytest.mark.parametrize("k", KINDS, ids=_id)
def test_kind_of_names_the_family_of_a_kind(k):
    # n_stop(1) generates what one_jump does
    expect = K.ONE_JUMP if k == K.n_stop(1) else k
    assert K.kind_of(K.kind_generators(k)) == expect


@pytest.mark.parametrize("k", KINDS, ids=_id)
def test_kind_of_ignores_the_order_of_traces_and_fragments(k):
    fam = K.kind_generators(k)
    shuffled = Family(fam.rigid[1::2] + fam.rigid[::2],
                      fam.fragments[::-1])
    assert K.kind_of(shuffled) == K.kind_of(fam)


@pytest.mark.parametrize("k", KINDS, ids=_id)
def test_a_family_names_no_edge(k):
    assert all(s.edge is None for tr in K.kind_generators(k).rigid
               for s in tr.steps)


def _jump(a, b):
    return RigidTrace((TraceStep(None, a, b),))


@pytest.mark.parametrize("fam", [
    Family(fragments=(Fragment(1, Z, H),)),
    Family(rigid=(_jump(Z, O), _jump(Z, O))),  # a trace twice
    Family(rigid=(_jump(Z, F(1, 3)), _jump(F(1, 3), F(2, 3)))),  # n_stop(3) cut short
    Family(rigid=(_jump(Z, H), _jump(H, O)), fragments=(K.LOOPS,)),
    DETOUR.family,
], ids=["window", "twice", "short", "stops_and_loops", "detour"])
def test_an_unnamed_family_is_custom(fam):
    assert K.kind_of(fam) == K.custom(fam)


def test_a_family_step_that_names_an_edge_is_rejected():
    with pytest.raises(ModelError, match="rigid\\[0\\].steps\\[0\\] names "
                                         "edge 'e0'"):
        Family(rigid=(RigidTrace((TraceStep("e0", Z, O),)),))


class TestSharedCustomKind:
    """One custom kind on two edges: each edge parses the same trace, and
    the parse and the witnesses put it on the edge they run along."""

    def test_each_edge_parses_the_trace(self):
        out = parse_controlled(SHARED, SHARED_RUN)
        (trace,) = DETOUR.family.rigid
        assert out.controlled and out.count == 2
        assert out.instances == (("rigid", "e0", trace), ("rigid", "e1", trace))

    def test_a_witness_runs_along_both_edges(self):
        res = c_reachable(SHARED, Vertex("v0"), Vertex("v2"))
        assert res.ok and parse_controlled(SHARED, res.witness).controlled
        assert [s.edge for r in res.witness.runs() for s in r.segs] == \
            ["e0"] * 3 + ["e1"] * 3


def test_rigid_ends_are_kept_on_the_family_outside_its_fields():
    fam = K.kind_generators(K.n_stop(64))
    text, twin = repr(fam), Family(fam.rigid, fam.fragments)
    assert fam.instance_end(F(1, 64)) and not fam.instance_end(F(1, 128))
    assert fam.rigid_ends == frozenset(F(k, 64) for k in range(65))
    assert "rigid_ends" in vars(fam) and "rigid_ends" not in vars(twin)
    assert fam == twin and hash(fam) == hash(twin) and repr(fam) == text
    assert twin.rigid_ends is twin.rigid_ends  # built once


def test_a_kind_keeps_its_family_and_hash_outside_its_fields():
    """An ``n_stop`` kind expands into its family once; the family and
    the hash live on the instance, and ``==``, ``repr`` and pickles do
    not see them."""
    k = K.n_stop(64)
    text = repr(k)
    assert K.kind_generators(k) is K.kind_generators(k)
    assert hash(k) == hash(K.n_stop(64)) and "_hash" in vars(k)
    assert k == K.n_stop(64) and repr(k) == text
    back = pickle.loads(pickle.dumps(k))
    assert "_family" not in vars(back) and "_hash" not in vars(back)
    assert back == k and hash(back) == hash(k)
    assert K.kind_generators(back) == K.kind_generators(k)


def _chain_doc(kinds):
    return {"graph": {
        "vertices": [f"v{i}" for i in range(len(kinds) + 1)],
        "edges": [{"id": f"e{i}", "from": f"v{i}", "to": f"v{i + 1}",
                   "kind": k} for i, k in enumerate(kinds)]}}


def test_a_named_kind_of_fixed_arity_is_one_shared_instance():
    """``kind(name)`` gives the module's constant, so two chains read from
    JSON share one instance, one hash and one family per kind, while
    ``n_stop(n)`` and ``custom`` build new ones."""
    assert K.kind("directed") is K.DIRECTED
    assert all(K.kind(k.name) is k for k in NAMED)
    doc = _chain_doc(["directed", "one_jump", "directed", "siphon"])
    a, b = space_from_json(doc), space_from_json(doc)
    kinds = {id(e.kind) for sp in (a, b) for e in sp.edges}
    assert kinds == {id(K.DIRECTED), id(K.ONE_JUMP), id(K.SIPHON)}
    assert K.n_stop(3) == K.n_stop(3) and K.n_stop(3) is not K.n_stop(3)
    fam = K.kind_generators(K.DIRECTED)
    assert K.custom(fam) is not K.custom(fam)
