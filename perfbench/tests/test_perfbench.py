"""Tests of the benchmark itself: its rules, its checks and its plans.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

import rules
import speed
import worker
import workloads as W

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
Z, O, H = F(0), F(1), F(1, 2)
P = ("pause",)


def mv(k, a, b):
    return ("move", k, F(a), F(b))


# ---------------------------------------------------------------------------
# Closed-form rules against hand-worked cases

@pytest.mark.parametrize("atoms, ok, count", [
    ([mv(0, 0, 1), mv(1, 0, 1)], True, 2),
    ([mv(0, 0, H), P, mv(0, H, 1)], True, 1),     # a pause mid-jump is a reparametrisation
    ([mv(0, 0, 1), mv(1, 0, H)], False, None),    # stops inside a jump
    ([mv(0, H, 1)], False, None),                 # starts inside a jump
    ([mv(0, 0, 1), mv(0, 1, H)], False, None),    # steps back
])
def test_one_jump_chain_rule(atoms, ok, count):
    assert rules.one_jump_chain_controlled(atoms) is ok
    if ok:
        assert rules.one_jump_chain_count(atoms) == count


@pytest.mark.parametrize("n, start, atoms, ok, count", [
    (4, Z, [mv(0, 0, H)], True, 2),               # 0 -> 2/4
    (4, F(1, 4), [mv(0, F(1, 4), F(1, 3)), P, mv(0, F(1, 3), F(3, 4))], True, 2),
    (4, Z, [mv(0, 0, F(1, 3))], False, None),     # ends between anchors
    (4, F(1, 3), [mv(0, F(1, 3), 1)], False, None),
    (4, O, [mv(0, 1, H)], False, None),           # falls
])
def test_n_stop_rule(n, start, atoms, ok, count):
    assert rules.n_stop_controlled(n, start, atoms) is ok
    if ok:
        assert rules.n_stop_count(n, start, atoms) == count


@pytest.mark.parametrize("kind, atoms, ok", [
    ("directed", [mv(0, 0, H), P, mv(0, H, F(3, 4))], True),
    ("directed", [mv(0, 0, 1), mv(0, 1, H)], False),
    ("siphon", [mv(0, 0, 1), mv(0, 1, 0), P, mv(0, 0, H)], True),
    ("siphon", [mv(0, 0, 1), mv(0, 1, H)], False),
    ("siphon", [mv(0, 0, 1), mv(0, 1, H), P, mv(0, H, 0)], True),
    ("delayed_minus", [P, mv(0, 0, 1)], True),
    ("delayed_minus", [mv(0, 0, 1), P], False),
    ("delayed_plus", [mv(0, 0, 1), P], True),
    ("delayed_plus", [P, mv(0, 0, 1)], False),
    ("delayed_plus", [mv(0, 0, H), P], False),
])
def test_mixed_chain_rule(kind, atoms, ok):
    assert rules.mixed_chain_controlled([kind], atoms) is ok


def test_mixed_chain_dwell_at_a_shared_vertex():
    # one dwell at v1 serves the delayed_plus jump before it and the
    # delayed_minus jump after it
    atoms = [mv(0, 0, 1), P, mv(1, 0, 1)]
    assert rules.mixed_chain_controlled(["delayed_plus", "delayed_minus"], atoms)
    assert not rules.mixed_chain_controlled(["delayed_plus", "delayed_minus"],
                                            [mv(0, 0, 1), mv(1, 0, 1)])


def pm(m0, m1):
    return ("pmove", m0 and (F(m0[0]), F(m0[1])), m1 and (F(m1[0]), F(m1[1])))


# the roadmap's product-hat example: left 0 -> 1/2 while right 0 -> 1, then left 1/2 -> 1
DIAGONAL = [pm((0, H), (0, 1)), pm((H, 1), None)]


def test_product_rules():
    jj = ("jump", "jump")
    assert rules.product_controlled(jj, (Z, Z), DIAGONAL)
    assert rules.product_controlled(jj, (O, Z), [pm(None, (0, 1))])   # park at 1
    assert not rules.product_controlled(jj, (Z, Z), [pm((0, H), None)])
    assert not rules.product_controlled(jj, (H, Z), [pm(None, (0, 1))])
    assert rules.product_controlled(("jump", "directed"), (Z, F(1, 4)),
                                    [pm(None, (F(1, 4), H))])
    loops = [pm((0, H), None), pm((H, 1), None), pm((0, 1), (0, 1))]
    assert rules.product_controlled(("loop", "loop"), (Z, Z), loops)
    assert not rules.product_controlled(("loop", "loop"), (Z, Z), [pm((0, H), None)])


def test_hat_product_rule():
    jj = ("jump", "jump")
    assert rules.hat_product_controlled(jj, (Z, Z), DIAGONAL[:1])
    assert rules.hat_product_controlled(jj, (H, Z), [pm((H, F(3, 4)), (0, H))])
    assert not rules.hat_product_controlled(jj, (H, Z), [pm((H, F(1, 4)), None)])
    assert rules.hat_product_controlled(("loop", "loop"), (H, Z),
                                        [pm((H, 1), None), pm((0, H), None)])


def test_reach_and_classification_rules():
    assert rules.chain_reachable(F(3, 2), F(7, 3)) and not rules.chain_reachable(2, 1)
    assert rules.chain_unavoidable(1, 3, 2) and not rules.chain_unavoidable(1, 3, 4)
    assert rules.n_stop_reachable(4, F(1, 4), F(3, 4))
    assert not rules.n_stop_reachable(4, F(1, 3), F(3, 4))
    anchor = rules.n_stop_classification(4, F(1, 4))
    assert anchor["flexible"] and anchor["future_critical"] and anchor["past_critical"]
    inside = rules.n_stop_classification(4, F(1, 3))
    assert not inside["flexible"] and inside["critical"]
    assert not inside["has_nontrivial_path_starting"]
    base = rules.torus_classification(Z, Z)
    assert base["flexible"] and all(base.values())
    off = {"flexible": False, "critical": True, "future_critical": False,
           "past_critical": False, "has_nontrivial_path_through": True,
           "has_nontrivial_path_starting": False, "has_nontrivial_path_ending": False}
    for point in ((Z, F(1, 3)), (F(2, 5), Z), (F(1, 7), F(5, 6))):
        assert rules.torus_classification(*point) == off
    d0, d2, d3 = (("a", H), ("b", H), ("b", O + H))
    assert rules.crossing_d_reachable(d0, d3)             # README: d0@1/2 to d3@1/2
    assert not rules.crossing_d_reachable(d0, d2)
    assert not rules.crossing_c_reachable(d0, d3)
    assert rules.crossing_c_reachable(("a", Z), ("a", 2 * O))
    # README: every route east from v0 to x3@1/2 passes the second junction v2
    assert rules.dual_unavoidable(Z, H, "v2")
    assert not rules.dual_unavoidable(F(1, 3), H, ("x3", F(2, 3)))
    assert not rules.dual_unavoidable(F(1, 3), H, ("x4", F(1, 3)))


# ---------------------------------------------------------------------------
# Checks catch wrong answers

def run_worker(capsys, workload, ops):
    assert worker.main(["--workload", workload, "--seed", "3", "--ops", str(ops),
                        "--workdir", "unused"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_answers_raise_the_failure_count(capsys, monkeypatch):
    import cspaces
    honest = run_worker(capsys, "queries", 22)
    assert honest["failed"] == honest["unexplained"] == 0
    real = cspaces.c_reachable

    class Flipped:
        def __init__(self, res):
            self.ok = not res.ok

    monkeypatch.setattr(cspaces, "c_reachable", lambda *a: Flipped(real(*a)))
    broken = run_worker(capsys, "queries", 22)
    assert broken["attempted"] == honest["attempted"]
    assert broken["failed"] == broken["unexplained"] > 0


def test_same_seed_same_answers(capsys):
    # 72 paths operations include two rounds of the hat products, the
    # second with diagonal moves, where the product-hat defect shows.
    first = run_worker(capsys, "paths", 72)
    second = run_worker(capsys, "paths", 72)
    assert first["attempted"] == second["attempted"] == 72
    for key in ("failed", "known_defect", "unexplained"):
        assert first[key] == second[key]
    assert first["cut"] is None


def test_default_run_length_follows_seconds():
    assert worker.planned_ops("paths", 25) == 25 * worker.OPS_PER_SECOND["paths"]
    assert worker.planned_ops("cli", 1) == worker.MIN_OPS["cli"]


def test_speed_scale_maps_a_slow_machine_to_the_reference():
    # kernel calls twice as slow as the reference: times are halved
    slow = [2 * speed.REFERENCE_S] * 3
    assert speed.scale(slow) == pytest.approx(0.5)
    assert len(speed.samples(2)) == 2


def test_known_defect_counts_as_a_failure():
    lib = worker.Library.__new__(worker.Library)
    spec = ("is_controlled", "hat:c_square", None, (Z, Z), tuple(DIAGONAL[:1]))
    ok, known = lib.judge(spec, False, True)
    assert not ok and known
    outcome = worker.Outcome()
    outcome.record(spec, ok, known)
    assert (outcome.failed, outcome.unexplained) == (1, 0)
    assert lib.judge(spec, True, False) == (False, False)


def test_cli_check_rejects_a_wrong_document():
    setup = W.cli_setup(0)
    docs = W.cli_documents(0, setup)
    for spec in itertools.islice(W.cli_plan(0, setup), 16):
        expected = W.cli_expected(spec, setup, docs)
        if spec[0] == "reach":
            good = dict(expected, witness={} if expected["reachable"] else None)
            assert W.cli_matches(spec, expected, good)
            bad = dict(good, reachable=not expected["reachable"])
        elif spec[0] == "check-path":
            good = dict(expected, fail_at=None if expected["controlled"] else "v:v0")
            assert W.cli_matches(spec, expected, good)
            bad = dict(good, controlled=not expected["controlled"])
        else:
            assert W.cli_matches(spec, expected, expected)
            bad = {"error": "x"}
        assert not W.cli_matches(spec, expected, bad)


# ---------------------------------------------------------------------------
# Plans are reproducible from the seed

@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_operations(workload):
    def ops(seed):
        setup = getattr(W, f"{workload}_setup")(seed)
        return setup, list(itertools.islice(getattr(W, f"{workload}_plan")(seed, setup), 200))
    assert ops(7) == ops(7)
    assert ops(7) != ops(8)
    if workload == "cli":
        assert W.cli_documents(7, W.cli_setup(7)) == W.cli_documents(7, W.cli_setup(7))


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_different_seeds_same_metric_names(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for seed in (1, 2):
        out = bench(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.5", "--trace", "0", "--ops", "5"])
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_traced_run_reports_every_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = bench(["--workload", "queries", "--seed", "1", "--seconds", "0.5",
                 "--trace", "1", "--ops", "5"])
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert metrics["reach.transitions.calls"]["value"] > 0


def test_set_up_spans_stay_out_of_per_operation_metrics():
    # The paths set-up builds the hats of its products; its operations
    # build none, so construct.hat has no per-operation time, while the
    # set-up's corpus.build calls are still timed.
    out = bench(["--workload", "paths", "--seed", "1", "--seconds", "0.5",
                 "--trace", "1", "--ops", "5"])
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["construct.hat.self_ms"]["value"] == 0
    assert metrics["corpus.build.self_ms"]["value"] > 0
    assert metrics["membership.tokens"]["value"] > 0


def test_a_run_cut_by_the_wall_clock_cap_is_not_correct():
    # A wall-clock cap of 2.5 x 0.2 s cannot fit 10^6 operations.
    out = bench(["--workload", "queries", "--seed", "1", "--seconds", "0.2",
                 "--trace", "0", "--ops", "1000000"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and not result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = bench(["--workload", "paths", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
