"""Command-line interface: subcommands, JSON output, exit codes."""

import json
from fractions import Fraction

import pytest

from cspaces.cli import main
from cspaces.corpus import build
from cspaces.membership import is_controlled
from cspaces.model import ModelError, Seg, Vertex, assemble


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture()
def space_file(tmp_path, capsys):
    def make(name, *params):
        f = tmp_path / f"{name}.json"
        args = ["build", "--corpus", name, "-o", str(f)]
        for p in params:
            args += ["--param", p]
        code, _ = run_cli(capsys, *args)
        assert code == 0
        return str(f)
    return make


def test_build_and_validate(space_file, capsys):
    f = space_file("c_interval")
    code, doc = run_cli(capsys, "validate", "--space", f)
    assert code == 0 and doc["valid"] is True


def test_build_with_params(space_file, capsys):
    f = space_file("n_stop_circle", "n=4")
    doc = json.load(open(f))
    assert doc["graph"]["edges"][0]["params"] == {"n": 4}


def test_build_unknown_corpus_fails(capsys):
    code, doc = run_cli(capsys, "build", "--corpus", "nope", "-o", "/dev/null")
    assert code == 2 and doc["error"]["type"] == "input"


def test_check_path(space_file, tmp_path, capsys):
    f = space_file("c_interval")
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({
        "start": "v:v0",
        "items": [{"run": [{"edge": "e0", "from": "0/1", "to": "1/1"}]}]}))
    code, doc = run_cli(capsys, "check-path", "--space", f, "--path", str(pf))
    assert code == 0
    assert doc["controlled"] is True
    assert doc["decomposition"]

    pf.write_text(json.dumps({
        "start": "v:v0",
        "items": [{"run": [{"edge": "e0", "from": "0/1", "to": "1/2"}]}]}))
    code, doc = run_cli(capsys, "check-path", "--space", f, "--path", str(pf))
    assert code == 0 and doc["controlled"] is False


def test_classify(space_file, capsys):
    f = space_file("c_interval")
    code, doc = run_cli(capsys, "classify", "--space", f, "--point", "e0@1/2")
    assert code == 0
    assert doc["flexible"] is False
    assert doc["critical"] is True
    assert doc["future_critical"] is False
    assert doc["past_critical"] is False

    code, doc = run_cli(capsys, "classify", "--space", f, "--point", "v:v0")
    assert doc["flexible"] is True and doc["future_critical"] is True


def test_reach_with_via(space_file, capsys):
    f = space_file("dual_carriageway")
    code, doc = run_cli(capsys, "reach", "--space", f, "--from", "v:v0",
                        "--to", "x3@1/2", "--mode", "d", "--via", "v:v2")
    assert code == 0
    assert doc["reachable"] is True
    assert doc["via_unavoidable"] is True
    assert doc["witness"]


def test_reach_c_mode_negative(space_file, capsys):
    f = space_file("c_interval")
    code, doc = run_cli(capsys, "reach", "--space", f, "--from", "v:v1",
                        "--to", "v:v0", "--mode", "c")
    assert code == 0 and doc["reachable"] is False


def test_transform_hat(space_file, tmp_path, capsys):
    f = space_file("c_interval")
    out = tmp_path / "hat.json"
    code, doc = run_cli(capsys, "transform", "--space", f, "--op", "hat",
                        "-o", str(out))
    assert code == 0
    assert json.load(open(out))["graph"]["edges"][0]["kind"] == "directed"


def test_transform_exclude(space_file, tmp_path, capsys):
    f = space_file("siphon")
    out = tmp_path / "ex.json"
    code, _ = run_cli(capsys, "transform", "--space", f, "--op",
                      "exclude:v:v1", "-o", str(out))
    assert code == 0
    assert json.load(open(out))["graph"]["excluded"] == ["v:v1"]


def test_transform_unsupported_exits_3(space_file, tmp_path, capsys):
    f = space_file("c_square")
    code, doc = run_cli(capsys, "transform", "--space", f, "--op",
                        "reversible-closure", "-o", str(tmp_path / "x.json"))
    assert code == 3 and doc["error"]["type"] == "unsupported"


def test_product_and_quotient(space_file, tmp_path, capsys):
    f = space_file("c_interval")
    prod = tmp_path / "prod.json"
    code, _ = run_cli(capsys, "product", f, f, "-o", str(prod))
    assert code == 0
    assert json.load(open(prod))["expr"]["op"] == "product"

    quot = tmp_path / "quot.json"
    code, _ = run_cli(capsys, "quotient", "--space", f, "--identify",
                      "v:v0=v:v1", "-o", str(quot))
    assert code == 0
    doc = json.load(open(quot))
    (edge,) = doc["graph"]["edges"]
    assert edge["from"] == edge["to"]


def test_malformed_json_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text("{nope")
    code, doc = run_cli(capsys, "validate", "--space", str(f))
    assert code == 2 and "error" in doc


def test_edge_without_id_names_the_key(tmp_path, capsys):
    f = tmp_path / "noid.json"
    f.write_text(json.dumps({"graph": {
        "vertices": ["v0", "v1"],
        "edges": [{"from": "v0", "to": "v1", "kind": "directed"}]}}))
    code, doc = run_cli(capsys, "validate", "--space", str(f))
    assert code == 2
    assert doc["error"]["type"] == "input"
    assert "'id'" in doc["error"]["message"]
    assert "edges[0]" in doc["error"]["message"]


def test_ill_typed_field_names_the_field(tmp_path, capsys):
    f = tmp_path / "badn.json"
    f.write_text(json.dumps({"graph": {
        "vertices": ["v0", "v1"],
        "edges": [{"id": "e0", "from": "v0", "to": "v1", "kind": "n_stop",
                   "params": {"n": "three"}}]}}))
    code, doc = run_cli(capsys, "validate", "--space", str(f))
    assert code == 2
    assert "params.n must be an integer" in doc["error"]["message"]


def test_internal_key_error_is_not_an_input_error(space_file, monkeypatch,
                                                  capsys):
    import cspaces.cli as cli
    f = space_file("c_interval")

    def broken(space):
        raise KeyError("x0")

    monkeypatch.setattr(cli, "validate", broken)
    with pytest.raises(KeyError):
        main(["validate", "--space", f])


def test_quotient_at_a_point_of_an_unknown_edge_exits_2(space_file, capsys):
    f = space_file("c_interval")
    code, doc = run_cli(capsys, "quotient", "--space", f,
                        "--identify", "e9@1/2=v:v0")
    assert code == 2 and "unknown edge 'e9'" in doc["error"]["message"]


@pytest.mark.parametrize("doc", [
    {"start": "v:v0",
     "items": [{"run": [{"edge": "e9", "from": "0/1", "to": "1/1"}]}]},
    {"track": [{"t": "0", "at": "e9@1/4"}, {"t": "1", "at": "v:v1"}]},
], ids=("run", "track"))
def test_path_on_an_unknown_edge_exits_2(space_file, tmp_path, capsys, doc):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "check-path", "--space",
                        space_file("c_interval"), "--path", str(pf))
    assert code == 2 and "unknown edge 'e9'" in out["error"]["message"]


def test_closed_generator_step_on_an_unknown_edge_exits_2(tmp_path, capsys):
    sf = tmp_path / "s.json"
    sf.write_text(json.dumps({"graph": {
        "vertices": ["v0", "v1"],
        "edges": [{"id": "e0", "from": "v0", "to": "v1", "kind": "still"}],
        "generators": [{"closed": True, "steps": [
            {"edge": "e9", "from": "0/1", "to": "1/1"}]}]}}))
    code, out = run_cli(capsys, "transform", "--space", str(sf), "--op", "hat")
    assert code == 2
    assert out["error"]["message"] == (
        "space.graph.generators[0].steps[0]: unknown edge 'e9'")


def test_controlled_path_on_an_unknown_edge_names_it():
    up = assemble(Vertex("v0"), [Seg("e9", Fraction(0), Fraction(1))],
                  Vertex("v1"))
    with pytest.raises(ModelError, match="unknown edge 'e9'"):
        is_controlled(build("c_interval"), up)


def test_quotient_at_two_anchors_of_one_edge(space_file, tmp_path, capsys):
    f = space_file("natural_interval")
    code, doc = run_cli(capsys, "quotient", "--space", f, "--identify",
                        "v:v0=e0@1/3;v:v1=e0@2/3",
                        "-o", str(tmp_path / "q.json"))
    assert code == 0
    assert sorted(e["id"] for e in doc["graph"]["edges"]) == [
        "e0[0/1..1/3]", "e0[1/3..2/3]", "e0[2/3..1/1]"]


def test_validate_reports_a_region_on_an_unknown_edge(space_file, tmp_path,
                                                      capsys):
    f = tmp_path / "sub.json"
    f.write_text(json.dumps({"expr": {
        "op": "subspace", "args": [json.load(open(space_file("c_interval")))],
        "region": [["e9", "0/1", "1/2"]]}}))
    code, doc = run_cli(capsys, "validate", "--space", str(f))
    assert code == 0 and doc["valid"] is False
    assert any("unknown edge 'e9'" in v for v in doc["violations"])
