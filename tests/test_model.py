"""Path data model: canonical form, reversal, concatenation, tracks;
hashing of graph presentations."""

import os
import pickle
import random
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest

import cspaces
from cspaces import kinds as K
from cspaces.model import (PAUSE, EdgePoint, ModelError, ProdSeg, PTuple, Run,
                           Seg, Track, Vertex, assemble, concat, rat, rat_str,
                           reverse_path)
from cspaces.presentation import Edge, GraphPresentation


def test_rat_parses_strings_ints_fractions():
    assert rat("1/2") == F(1, 2)
    assert rat(1) == F(1)
    assert rat(F(3, 4)) == F(3, 4)
    assert rat_str(F(1, 2)) == "1/2"
    assert rat_str(F(2)) == "2/1"


def test_seg_validation():
    with pytest.raises(ModelError):
        Seg("e0", F(1, 2), F(1, 2))
    with pytest.raises(ModelError):
        Seg("e0", F(0), F(2))
    s = Seg("e0", F(1), F(0))
    assert s.dir == -1 and s.lo == 0 and s.hi == 1
    assert s.reversed() == Seg("e0", F(0), F(1))


def test_edge_point_interior_only():
    with pytest.raises(ModelError):
        EdgePoint("e0", F(0))
    with pytest.raises(ModelError):
        EdgePoint("e0", F(1))
    EdgePoint("e0", F(1, 3))


def test_assemble_merges_contiguous_monotone_segs():
    p = assemble(Vertex("v0"),
                 [Seg("e0", F(0), F(1, 2)), Seg("e0", F(1, 2), F(1))],
                 Vertex("v1"))
    assert len(p.items) == 1
    assert p.items[0].segs == (Seg("e0", F(0), F(1)),)


def test_assemble_breaks_run_at_direction_reversal():
    p = assemble(Vertex("v0"),
                 [Seg("e0", F(0), F(1)), Seg("e0", F(1), F(1, 2))],
                 EdgePoint("e0", F(1, 2)))
    assert len(p.items) == 2
    assert all(len(i.segs) == 1 for i in p.items)


def test_assemble_collapses_repeated_pauses():
    p = assemble(Vertex("v0"),
                 [PAUSE, PAUSE, Seg("e0", F(0), F(1)), PAUSE],
                 Vertex("v1"))
    kinds = [type(i).__name__ for i in p.items]
    assert kinds == ["Pause", "Run", "Pause"]


VALUES = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


def _motion(rng, product: bool):
    """A random Seg, or a ProdSeg whose parts move or rest, some nested."""
    if not product:
        a, b = rng.sample(VALUES, 2)
        return Seg(rng.choice(("e0", "e1")), a, b)
    parts = [_motion(rng, rng.random() < 0.1) if rng.random() < 0.7
             else Vertex("v0") for _ in range(2)]
    if not any(isinstance(p, (Seg, ProdSeg)) for p in parts):
        parts[0] = _motion(rng, False)
    return ProdSeg(tuple(parts))


def _halves(m, lam):
    """Motion m cut at the fraction lam of its traversal: two pieces that
    continue one affine motion."""
    if isinstance(m, Seg):
        mid = m.a + (m.b - m.a) * lam
        return Seg(m.edge, m.a, mid), Seg(m.edge, mid, m.b)
    parts = [_halves(p, lam) if isinstance(p, (Seg, ProdSeg)) else (p, p)
             for p in m.parts]
    return ProdSeg(tuple(p[0] for p in parts)), ProdSeg(tuple(p[1] for p in parts))


def _random_atoms(rng, product: bool) -> list:
    """Pauses and motions, with mergeable halves, reversals and runs."""
    atoms = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.25:
            atoms.append(PAUSE)
            continue
        m = _motion(rng, product)
        pieces = list(_halves(m, rng.choice(VALUES[1:4]))) if rng.random() < 0.5 \
            else [m]
        if rng.random() < 0.2:
            pieces.append(m.reversed())
        if rng.random() < 0.3:
            pieces = [Run(tuple(pieces))]
        atoms.extend(pieces)
    return atoms


@pytest.mark.parametrize("product", [False, True], ids=["graph", "product"])
def test_assemble_is_idempotent(product):
    # canonicalize hands back the paths that assemble built, so assembling
    # a canonical path again must change nothing
    rng = random.Random(1505 + product)
    for _ in range(3000):
        p = assemble(Vertex("v0"), _random_atoms(rng, product), Vertex("v0"))
        assert assemble(p.start, list(p.items), p.end) == p
        flat = [a for it in p.items
                for a in (it.segs if isinstance(it, Run) else (it,))]
        assert assemble(p.start, flat, p.end) == p


def test_reverse_path_involution():
    p = assemble(Vertex("v0"),
                 [Seg("e0", F(0), F(1, 2)), PAUSE, Seg("e0", F(1, 2), F(1))],
                 Vertex("v1"))
    q = reverse_path(p)
    assert q.start == p.end and q.end == p.start
    assert reverse_path(q) == p


def test_concat_requires_matching_endpoints():
    a = assemble(Vertex("v0"), [Seg("e0", F(0), F(1, 2))],
                 EdgePoint("e0", F(1, 2)))
    b = assemble(EdgePoint("e0", F(1, 2)), [Seg("e0", F(1, 2), F(1))],
                 Vertex("v1"))
    c = concat(a, b)
    assert c.start == Vertex("v0") and c.end == Vertex("v1")
    with pytest.raises(ModelError):
        concat(b, a)


def test_track_times_strictly_increase():
    with pytest.raises(ModelError):
        Track(((F(0), Vertex("v0")), (F(0), Vertex("v1"))))


def test_prodseg_needs_motion():
    with pytest.raises(ModelError):
        ProdSeg((Vertex("v0"), Vertex("v1")))
    ps = ProdSeg((Seg("e0", F(0), F(1)), Vertex("v0")))
    assert ps.reversed().parts[0] == Seg("e0", F(1), F(0))


def test_ptuple_is_binary():
    with pytest.raises(ModelError):
        PTuple((Vertex("a"),))
    p = PTuple((Vertex("a"), PTuple((Vertex("b"), Vertex("c")))))
    assert p.parts[1].parts[0] == Vertex("b")


def _one_jump_chain(n):
    return GraphPresentation(
        frozenset(f"v{i}" for i in range(n + 1)),
        tuple(Edge(f"e{i}", f"v{i}", f"v{i + 1}", K.ONE_JUMP) for i in range(n)))


def test_presentation_hash_is_computed_once(monkeypatch):
    calls = []
    edge_hash = Edge.__hash__

    def counting(self):
        calls.append(self.id)
        return edge_hash(self)

    monkeypatch.setattr(Edge, "__hash__", counting)
    g = _one_jump_chain(5)
    first = hash(g)
    assert len(calls) == 5
    assert hash(g) == first
    assert len(calls) == 5


def test_stored_hash_stays_out_of_fields_eq_repr_and_replace():
    g1, g2 = _one_jump_chain(3), _one_jump_chain(3)
    hash(g1)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert [f.name for f in fields(g1)] == [
        "vertices", "edges", "generators", "flexible", "excluded", "absorbing",
        "emitting", "blocked"]
    assert repr(g1) == repr(g2)
    stop = frozenset({Vertex("v0")})
    g3 = replace(g1, excluded=stop)
    assert g3 != g1
    assert hash(g3) == hash(GraphPresentation(g1.vertices, g1.edges, excluded=stop))
    assert replace(g1) == g1 and hash(replace(g1)) == hash(g1)


def test_pickled_presentation_rehashes_in_another_process():
    # string hashes are salted per process, so the stored hash must not travel
    g = _one_jump_chain(3)
    hash(g)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cspaces.__file__)))
    other_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=other_seed)
    code = ("import pickle, sys\n"
            "from dataclasses import replace\n"
            "g = pickle.loads(sys.stdin.buffer.read())\n"
            "print(hash(g) == hash(replace(g)), g in {replace(g)})")
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(g),
                         env=env, capture_output=True, check=True, timeout=60)
    assert out.stdout.split() == [b"True", b"True"]
