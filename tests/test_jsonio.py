"""JSON serialization: round trips for points, paths and spaces."""

import random
import zlib
from fractions import Fraction as F

import pytest

from cspaces import kinds as K
from cspaces.construct import hat, reversible_part, subspace
from cspaces.corpus import build, names
from cspaces.jsonio import (dumps, path_from_json, path_to_json,
                            point_from_str, point_to_str, space_from_json,
                            space_to_json)
from cspaces.membership import is_controlled
from cspaces.model import (PAUSE, EdgePoint, ModelError, PTuple, Seg, Vertex,
                           assemble)
from cspaces.presentation import (Edge, ExcludeEndpoints, GraphPresentation,
                                  Opposite, Product, Quotient, Subspace, Sum,
                                  flexible_point, normalize, pos_point,
                                  validate)

from helpers import OPEN_WINDOWS, Z, O, H, interval
from sampling import random_graph_path, random_product_path


class TestPoints:
    def test_vertex_round_trip(self):
        assert point_to_str(Vertex("v0")) == "v:v0"
        assert point_from_str("v:v0") == Vertex("v0")

    def test_edge_point_round_trip(self):
        p = EdgePoint("e0", F(1, 2))
        assert point_to_str(p) == "e0@1/2"
        assert point_from_str("e0@1/2") == p

    def test_edge_extreme_resolves_to_vertex_with_space(self):
        sp = build("c_interval")
        assert point_from_str("e0@0/1", sp) == Vertex("v0")
        assert point_from_str("e0@1/1", sp) == Vertex("v1")

    def test_pair_round_trip(self):
        p = PTuple((Vertex("v0"), EdgePoint("e0", F(1, 3))))
        s = point_to_str(p)
        assert s == "(v:v0;e0@1/3)"
        assert point_from_str(s) == p

    def test_nested_pair_round_trip(self):
        p = PTuple((Vertex("a"), PTuple((Vertex("b"), Vertex("c")))))
        assert point_from_str(point_to_str(p)) == p

    def test_malformed_point_rejected(self):
        with pytest.raises(ModelError):
            point_from_str("nonsense")


class TestPaths:
    sp = build("c_interval")

    def test_item_path_round_trip(self):
        p = assemble(Vertex("v0"),
                     [Seg("e0", Z, H), PAUSE, Seg("e0", H, O)],
                     Vertex("v1"))
        d = path_to_json(p)
        assert path_from_json(d, self.sp) == p

    def test_track_input_form(self):
        d = {"track": [{"t": "0/1", "at": "v:v0"},
                       {"t": "1/1", "at": "v:v1"}]}
        p = path_from_json(d, self.sp)
        assert p.start == Vertex("v0") and p.end == Vertex("v1")
        assert is_controlled(self.sp, p)

    def test_geometry_checked_on_input(self):
        d = {"start": "v:v1",
             "items": [{"run": [{"edge": "e0", "from": "0/1", "to": "1/1"}]}]}
        with pytest.raises(ModelError):
            path_from_json(d, self.sp)

    def test_random_path_round_trips(self):
        rng = random.Random(20260826)
        for name in ("c_interval", "two_jump", "dual_carriageway"):
            sp = normalize(build(name))
            for _ in range(25):
                p = random_graph_path(sp, rng)
                assert path_from_json(path_to_json(p), sp) == p


class TestSpaces:
    @pytest.mark.parametrize("name", sorted(names()))
    def test_corpus_round_trip_preserves_membership(self, name):
        sp = build(name)
        back = space_from_json(space_to_json(sp))
        norm = normalize(sp)
        if not isinstance(norm, GraphPresentation):
            # expression round trip: compare normal forms via sampling below
            assert normalize(back) == norm
            return
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        for _ in range(30):
            p = random_graph_path(norm, rng)
            assert is_controlled(back, p) == is_controlled(sp, p)

    def test_deterministic_output(self):
        a = dumps(space_to_json(build("hysteron")))
        b = dumps(space_to_json(build("hysteron")))
        assert a == b
        assert a.endswith("\n")

    def test_bad_document_rejected(self):
        with pytest.raises(ModelError):
            space_from_json({"neither": {}})

    # a graph whose names no corpus model uses, for sums
    SUMMAND = GraphPresentation(frozenset({"w0", "w1"}),
                                (Edge("f0", "w0", "w1", K.NATURAL),))

    def _expression_docs(self, sp):
        """(op, document, the space it was written from) for each
        expression op that applies to sp: all of them on a graph, and
        product, opposite and hat on a product."""
        doc = space_to_json(sp)
        out = [("product", {"args": [doc, doc]}, Product(sp, sp)),
               ("opposite", {"args": [doc]}, Opposite(sp)),
               ("hat", {"args": [doc]}, hat(sp))]
        norm = normalize(sp)
        if isinstance(norm, GraphPresentation):
            assert not norm.vertices & self.SUMMAND.vertices
            a, b = sorted(norm.vertices)[0], sorted(norm.vertices)[-1]
            e = norm.edges[0]
            out += [
                ("sum", {"args": [doc, space_to_json(self.SUMMAND)]},
                 Sum(sp, self.SUMMAND)),
                ("quotient", {"args": [doc], "classes": [[f"v:{a}", f"v:{b}"]]},
                 Quotient(sp, (frozenset({Vertex(a), Vertex(b)}),))),
                ("subspace", {"args": [doc], "region": [[e.id, "0", "1/2"]]},
                 Subspace(sp, ((e.id, Z, H),))),
                ("exclude", {"args": [doc], "points": [f"v:{a}"]},
                 ExcludeEndpoints(sp, frozenset({Vertex(a)})))]
        return [(op, {"expr": {"op": op, **d}}, written)
                for op, d, written in out]

    @pytest.mark.parametrize("name", sorted(names()))
    def test_every_expression_op_reads_as_the_space_it_was_written_from(
            self, name):
        """Each op's document reads to a space that answers membership
        like the expression it was written from, on paths sampled from
        that expression's normal form."""
        rng = random.Random(zlib.crc32(f"ops/{name}".encode()))
        ops = set()
        for op, doc, written in self._expression_docs(build(name)):
            read, norm = space_from_json(doc), normalize(written)
            sample = (random_graph_path if isinstance(norm, GraphPresentation)
                      else random_product_path)
            for _ in range(12):
                p = sample(norm, rng)
                assert is_controlled(read, p) == is_controlled(written, p), \
                    (op, p)
            ops.add(op)
        graph = isinstance(normalize(build(name)), GraphPresentation)
        assert len(ops) == (7 if graph else 3)


EDGE = {"id": "e0", "from": "v0", "to": "v1", "kind": "directed"}


def _graph_doc(**graph):
    return {"graph": {"vertices": ["v0", "v1"], "edges": [EDGE], **graph}}


def _custom_doc(**family):
    """The interval whose edge carries the custom family `family`."""
    return _graph_doc(edges=[dict(EDGE, kind="custom",
                                  params={"family": family})])


def _family(doc):
    (edge,) = space_from_json(doc).edges
    return edge.kind.family


class TestDocumentErrors:
    """A document that lacks a key or has a field of the wrong JSON type
    is a ModelError that names the field."""

    @pytest.mark.parametrize("doc, words", [
        ([], "space must be an object"),
        ({}, "space needs a 'graph' or 'expr' key"),
        ({"graph": {"edges": [{"id": "e0", "from": "v0", "to": "v1"}]}},
         "space.graph.edges[0] has no 'kind' key"),
        (_graph_doc(vertices="v0"), "space.graph.vertices must be an array"),
        (_graph_doc(generators=[{"steps": [{"edge": "e0", "from": "0/1"}]}]),
         "space.graph.generators[0].steps[0] has no 'to' key"),
        (_graph_doc(flexible=[{"at": "e0@1/2"}]),
         "space.graph.flexible[0] must be a string"),
        ({"graph": {"edges": [dict(EDGE, kind="custom", params={
            "family": {"fragments": [{"dir": 1, "lo": "a/b"}]}})]}},
         "space.graph.edges[0].params.family.fragments[0].lo: bad rational"),
        (_custom_doc(fragments=[{"dir": 2}]),
         "space.graph.edges[0].params.family.fragments[0]: fragment "
         "direction 2 is not -1, 0 or 1"),
        (_custom_doc(fragments=[{"dir": 1, "hi": "2/1"}]),
         "space.graph.edges[0].params.family.fragments[0]: fragment window "
         "[0, 2] is not inside [0,1]"),
        (_custom_doc(fragments=[{"dir": -1, "lo": "3/4", "hi": "1/4"}]),
         "space.graph.edges[0].params.family.fragments[0]: fragment window "
         "[3/4, 1/4] is not inside [0,1] with lo <= hi"),
        (_custom_doc(rigid=[{"steps": [
            {"edge": "e1", "from": "0/1", "to": "1/1"}]}]),
         "space.graph.edges[0].params.family.rigid[0].steps[0] is on edge "
         "'e1', not on 'e0'"),
        ({"expr": {"op": "sum", "args": [_graph_doc()]}},
         "space.expr.args must hold 2"),
        ({"expr": {"args": []}}, "space.expr has no 'op' key"),
    ])
    def test_space_errors_name_the_field(self, doc, words):
        with pytest.raises(ModelError) as err:
            space_from_json(doc)
        assert words in str(err.value)

    @pytest.mark.parametrize("doc, words", [
        ({"start": 0}, "path.start must be a string"),
        ({"start": "v:v0", "items": [{"run": [{"edge": "e0", "to": "1/1"}]}]},
         "path.items[0].run[0] has no 'from' key"),
        ({"track": [{"at": "v:v0"}]}, "path.track[0] has no 't' key"),
    ])
    def test_path_errors_name_the_field(self, doc, words):
        with pytest.raises(ModelError) as err:
            path_from_json(doc, build("c_interval"))
        assert words in str(err.value)

    def test_endpoint_on_an_unknown_edge(self):
        with pytest.raises(ModelError, match="unknown edge 'e9'"):
            point_from_str("e9@1/1", build("c_interval"))


class TestLoopWindows:
    """A custom family states its trivial loops as "flexible": "all", as a
    list of positions, or as fragments of "dir": 0."""

    def test_flexible_all_reads_to_the_named_family(self):
        doc = _custom_doc(fragments=[{"dir": 1}], flexible="all")
        assert _family(doc) == K.kind_generators(K.DIRECTED)
        family = space_to_json(space_from_json(doc))["graph"]["edges"][0][
            "params"]["family"]
        assert family["flexible"] == "all"
        assert [f["dir"] for f in family["fragments"]] == [1]

    def test_flexible_positions_read_to_point_windows(self):
        doc = _custom_doc(flexible=["0/1"])
        clipped = subspace(interval(K.ONE_JUMP), [("e0", Z, H)])
        assert _family(doc) == clipped.edges[0].kind.family
        doc = _custom_doc(rigid=[{"steps": _steps(("e0", "1/4", "3/4"))}],
                          flexible=["1/2", "0/1"])
        sp = space_from_json(doc)
        flexible = {k for k in range(9)
                    if flexible_point(sp, pos_point(sp, "e0", F(k, 8)))}
        assert flexible == {0, 2, 4, 6}
        family = space_to_json(sp)["graph"]["edges"][0]["params"]["family"]
        assert family["flexible"] == ["0/1", "1/2"]
        assert family["fragments"] == []

    def test_reversible_part_keeps_a_loop_window(self):
        rp = reversible_part(interval(OPEN_WINDOWS))
        (edge,) = rp.edges
        assert any(f.dir == 0 and f.lo < f.hi and f != K.LOOPS
                   for f in edge.kind.family.fragments)
        doc = space_to_json(rp)
        assert any(f["dir"] == 0 for f in
                   doc["graph"]["edges"][0]["params"]["family"]["fragments"])
        back = space_from_json(doc)
        assert normalize(back) == rp
        for k in range(17):
            t = F(k, 16)
            assert flexible_point(back, pos_point(back, "e0", t)) == (t < O), t


def test_validate_names_a_custom_step_outside_the_edge():
    sp = space_from_json(_custom_doc(
        rigid=[{"steps": _steps(("e0", "1/2", "3/2"))}]))
    assert validate(sp) == [
        "custom family of 'e0': step parameter 3/2 outside [0,1]"]


def _steps(*steps):
    return [{"edge": e, "from": a, "to": b} for e, a, b in steps]


# hat(build("crossing_square")) as written by the version whose hat kept
# its generators as restriction-closed traces ("closed": true)
CLOSED_HAT = {"graph": {
    "vertices": ["c00", "c01", "c10", "c11", "m"],
    "edges": [{"id": "d0", "from": "c00", "to": "m", "kind": "still"},
              {"id": "d1", "from": "m", "to": "c11", "kind": "still"},
              {"id": "d2", "from": "c01", "to": "m", "kind": "still"},
              {"id": "d3", "from": "m", "to": "c10", "kind": "still"}],
    "generators": [
        {"steps": _steps(("d0", "0/1", "1/1"), ("d1", "0/1", "1/1")),
         "pauses": [], "closed": True},
        {"steps": _steps(("d2", "0/1", "1/1"), ("d3", "0/1", "1/1")),
         "pauses": [], "closed": True}],
    "flexible": [], "excluded": [], "absorbing": [], "emitting": [],
    "blocked": []}}


class TestClosedGenerators:
    """A closed generator of an older document is read as one window per
    step on the step's edge."""

    def test_closed_hat_document_controls_the_paths_of_the_hat(self):
        sp = space_from_json(CLOSED_HAT)
        h = hat(build("crossing_square"))
        assert normalize(sp) == normalize(h)
        rng = random.Random(zlib.crc32(b"closed-hat"))
        for _ in range(200):
            p = random_graph_path(normalize(h), rng)
            assert is_controlled(sp, p) == is_controlled(h, p), p

    def test_reversible_part_keeps_no_fall_the_space_lacks(self):
        # a closed rise on a reversible_one_jump edge: its sub-runs rise,
        # and only the whole fall 1 -> 0 is controlled
        sp = space_from_json(_graph_doc(
            edges=[dict(EDGE, kind="reversible_one_jump")],
            generators=[{"steps": _steps(("e0", "0/1", "1/1")),
                         "closed": True}]))
        fall = assemble(Vertex("v1"), [Seg("e0", O, H)], EdgePoint("e0", H))
        assert is_controlled(sp, assemble(EdgePoint("e0", H),
                                          [Seg("e0", H, O)], Vertex("v1")))
        assert not is_controlled(sp, fall)
        assert not is_controlled(reversible_part(sp), fall)
