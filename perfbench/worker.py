"""One workload process: set up, then issue operations in a closed loop.

Run by ``run.py`` in a fresh interpreter, so the engine's module caches
start empty.  After set-up it prints ``READY <cpu seconds so far>``; with
``--setup-only`` it stops there.  It then issues the first ``--ops``
operations of the seed's plan one at a time, each after the previous
one returned, checks each answer against ``workloads``' expected answer,
and prints one JSON line of raw results.

A run makes a fixed number of operations rather than stopping on the
clock.  ``--ops`` defaults to ``planned_ops``: ``OPS_PER_SECOND`` times
``--seconds``, a rate measured on a shared 2-vCPU virtual machine, so a
run measures about ``--seconds`` there, and at least ``MIN_OPS``.  The
same seed and ``--seconds`` thus give the same operations, the same
answers and the same failure count on every run, however fast the
machine is that minute; and peak memory, read at the end, compares the
same work across commits: the engine's caches grow with every query, so
with a clock-bound run a faster engine would read as a larger one.

Times are CPU time: ``time.process_time`` around a library call, and the
child's user plus system time for a CLI call.  The engine is
single-threaded and does no I/O, so on an unshared core this equals the
wall-clock latency; on a shared virtual machine it leaves out the time
the hypervisor gave the core to someone else, which otherwise drifts by
a fifth from one minute to the next.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import rules
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_CAP = 2_000_000  # stop a traced run at an operation boundary past this
WALL_CAP = 2.5  # give up on a run after this many times --seconds of wall time
# Operations per CPU-second of each workload on a shared 2-vCPU virtual
# machine; a run makes this many times --seconds operations by default.
OPS_PER_SECOND = {"paths": 21, "queries": 24, "cli": 5.3}
# Operations every run makes at least, so op_p90_ms rests on enough samples.
MIN_OPS = {"paths": 400, "queries": 400, "cli": 100}


def planned_ops(workload, seconds):
    """Operations a run of ``seconds`` makes by default."""
    return max(MIN_OPS[workload], round(OPS_PER_SECOND[workload] * seconds))


class Outcome:
    """Tally of answers: a wrong answer or an exception is a failure.

    Mismatches of the documented product-hat defect (a path of the hat of
    a product that the rule accepts and the engine rejects) still count
    as failures; they are tallied apart so that ``correct`` reports only
    mismatches nobody has explained."""

    def __init__(self):
        self.attempted = self.failed = self.known = self.unexplained = 0
        self.notes = []

    def record(self, spec, ok, known=False, note=None):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if known:
            self.known += 1
            return
        self.unexplained += 1
        if len(self.notes) < 5:
            self.notes.append(f"{spec!r}: {note}")


# ---------------------------------------------------------------------------
# Library workloads

def chain(n, kinds):
    """Graph presentation of an n-edge chain v0 -e0-> v1 ... of the given
    kind, or of kinds[k] on edge k."""
    from cspaces import kinds as K
    from cspaces.presentation import Edge, GraphPresentation
    if isinstance(kinds, str):
        kinds = [kinds] * n
    return GraphPresentation(
        vertices=frozenset(f"v{i}" for i in range(n + 1)),
        edges=tuple(Edge(f"e{i}", f"v{i}", f"v{i + 1}", K.kind(kinds[i]))
                    for i in range(n)))


class Library:
    """Builds a library workload's spaces and turns specs into calls."""

    def __init__(self, workload, setup):
        import cspaces as C
        self.C = C
        self.workload = workload
        self.setup = setup
        if workload == "paths":
            self.spaces = {
                "one_jump": [chain(n, "one_jump") for n in setup["one_jump"]],
                "n_stop": [C.build("c_line_window", lo=0, hi=n)
                           for n in setup["n_stop"]],
                "mixed": [chain(len(k), k) for k in setup["mixed"]],
            }
            for name in W.PRODUCTS:
                space = C.build("c_torus", n=2) if name == "c_torus2" else C.build(name)
                self.spaces[name] = space
                self.spaces["hat:" + name] = C.hat(space)
        else:
            self.spaces = {
                "directed": [chain(n, "directed") for n in setup["directed"]],
                "n_stop": [C.build("c_line_window", lo=0, hi=n)
                           for n in setup["n_stop"]],
                "pairs": [chain(n, "directed") for n in setup["pairs"]],
                "dual": C.build("dual_carriageway"),
                "crossing": C.build("crossing_square"),
                "torus": C.build("c_torus", n=2),
            }

    # -- points and paths ----------------------------------------------------

    def chain_point(self, k, t=None):
        """Point at edge k, parameter t, or at global position k when t is
        None."""
        C = self.C
        if t is None:
            k, t = divmod(k, 1)
            k = int(k)
        if t == 0:
            return C.Vertex(f"v{k}")
        if t == 1:
            return C.Vertex(f"v{k + 1}")
        return C.EdgePoint(f"e{k}", t)

    def n_stop_point(self, n, t):
        C = self.C
        if t in (0, 1):
            return C.Vertex(f"v{int(t) * n}")
        return C.EdgePoint("e0", t)

    def factor_point(self, factor, t):
        C = self.C
        if t == 0 or (t == 1 and factor == "loop"):
            return C.Vertex("v0")
        if t == 1:
            return C.Vertex("v1")
        return C.EdgePoint("e0", t)

    def graph_path(self, start, atoms, point):
        C = self.C
        out, end = [], start
        for atom in atoms:
            if atom[0] == "pause":
                out.append(C.PAUSE)
            else:
                _, k, a, b = atom
                out.append(C.Seg(f"e{k}", a, b))
                end = (k, b)
        return C.assemble(point(*start), out, point(*end))

    def product_path(self, factors, start, atoms):
        C = self.C
        cur = list(start)
        out = []
        for atom in atoms:
            if atom[0] == "pause":
                out.append(C.PAUSE)
                continue
            parts = []
            for i, move in enumerate(atom[1:]):
                if move is None:
                    parts.append(self.factor_point(factors[i], cur[i]))
                else:
                    parts.append(C.Seg("e0", move[0], move[1]))
            out.append(C.ProdSeg(tuple(parts)))
            for i, move in enumerate(atom[1:]):
                if move is not None:
                    cur[i] = move[1]
        pt = self.factor_point
        return C.assemble(C.PTuple((pt(factors[0], start[0]), pt(factors[1], start[1]))),
                          out,
                          C.PTuple((pt(factors[0], cur[0]), pt(factors[1], cur[1]))))

    # -- calls ---------------------------------------------------------------

    def bind(self, spec):
        """(function, args) of one operation."""
        C = self.C
        call, family = spec[0], spec[1]
        if self.workload == "paths":
            i, start, atoms = spec[2], spec[3], spec[4]
            if family == "one_jump":
                space = self.spaces["one_jump"][i]
                path = self.graph_path(start, atoms, self.chain_point)
            elif family == "n_stop":
                space = self.spaces["n_stop"][i]
                n = self.setup["n_stop"][i]
                path = self.graph_path((0, start), atoms,
                                       lambda _k, t: self.n_stop_point(n, t))
            elif family == "mixed":
                space = self.spaces["mixed"][i]
                path = self.graph_path(start, atoms, self.chain_point)
            else:
                space = self.spaces[family]
                path = self.product_path(W.PRODUCTS[family.rpartition(":")[2]],
                                         start, atoms)
            if call == "is_splittable":
                seg, t = spec[5]
                return C.is_splittable, (space, path, C.Position(0, seg, t))
            return getattr(C, call), (space, path)
        if family == "pairs":
            space = self.spaces["pairs"][spec[2]]
            return (lambda s: C.reach_relation(s).pairs()), (space,)
        if family == "directed":
            space = self.spaces["directed"][spec[2]]
            pts = [self.chain_point(x) for x in spec[3:]]
        elif family == "n_stop":
            space = self.spaces["n_stop"][spec[2]]
            n = self.setup["n_stop"][spec[2]]
            pts = [self.n_stop_point(n, x) for x in spec[3:]]
        elif family == "dual":
            space = self.spaces["dual"]
            if call == "unavoidable_point":
                p = spec[5]
                p = C.Vertex(p) if isinstance(p, str) else C.EdgePoint(*p)
                pts = [C.EdgePoint("x1", spec[3]), C.EdgePoint("x3", spec[4]), p]
            else:
                pts = [C.EdgePoint(*p) for p in spec[3:]]
        elif family == "crossing":
            space = self.spaces["crossing"]
            pts = [self.crossing_point(p) for p in spec[3:]]
        else:
            space = self.spaces["torus"]
            pts = [C.PTuple(tuple(self.factor_point("loop", t) for t in p))
                   for p in spec[3:]]
        return getattr(C, call), (space, *pts)

    def crossing_point(self, p):
        C = self.C
        for name, at in rules.CROSSING_POINTS.items():
            if at == p:
                return C.Vertex(name)
        branch, height = p
        for edge, (b, base) in rules.CROSSING_EDGES.items():
            if b == branch and base < height < base + 1:
                return C.EdgePoint(edge, height - base)
        raise ValueError(f"no crossing-square point at {p!r}")

    def judge(self, spec, result, expected):
        """(ok, known_defect) for one answer."""
        call = spec[0]
        if call == "parse_controlled":
            got = (result.controlled, result.count if result.controlled else None)
        elif call in ("c_reachable", "d_reachable"):
            got = result.ok
        elif call == "classify_point":
            got = {k: getattr(result, k) for k in expected}
        elif call == "pairs":
            ordered = all(self.chain_pos(x) <= self.chain_pos(y) for x, y in result)
            return ordered and len(result) == expected, False
        else:
            got = result
        ok = got == expected
        known = (not ok and spec[1].startswith("hat:") and expected is True)
        return ok, known

    def chain_pos(self, p):
        if isinstance(p, self.C.Vertex):
            return Fraction(int(p.name[1:]))
        return int(p.edge[1:]) + p.t


def run_library(args, outcome, latencies, recorder):
    if recorder is not None:
        recorder.install()
    setup = getattr(W, f"{args.workload}_setup")(args.seed)
    lib = Library(args.workload, setup)
    if recorder is not None:
        recorder.end_setup()
    ready()
    if args.setup_only:
        return None
    expected_of = getattr(W, f"{args.workload}_expected")
    plan = getattr(W, f"{args.workload}_plan")(args.seed, setup)
    wall_cap = time.perf_counter() + WALL_CAP * args.seconds
    for spec in itertools.islice(plan, args.ops):
        if stop(args, wall_cap, recorder):
            break
        pulse(args, latencies)
        if recorder is not None:
            recorder.on = False
        fn, call_args = lib.bind(spec)
        expected = expected_of(spec, setup)
        if recorder is not None:
            recorder.on = True
        t0 = time.process_time()
        try:
            result = fn(*call_args)
        except Exception as exc:  # an engine error is a failed operation
            latencies.append(time.process_time() - t0)
            outcome.record(spec, False, note=f"{type(exc).__name__}: {exc}")
            continue
        latencies.append(time.process_time() - t0)
        if recorder is not None:
            recorder.on = False
        ok, known = lib.judge(spec, result, expected)
        outcome.record(spec, ok, known,
                       note=None if ok else f"got {result!r}, expected {expected!r}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# CLI workload

def run_cli(args, outcome, latencies, span_files):
    import compileall
    # An installed package has its bytecode cache; build it before timing.
    compileall.compile_dir(os.path.join(SRC, "cspaces"), quiet=1)
    setup = W.cli_setup(args.seed)
    docs = W.cli_documents(args.seed, setup)
    os.makedirs(args.workdir, exist_ok=True)
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(args.workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc[0] if isinstance(doc, tuple) else doc, fh)
    ready()
    if args.setup_only:
        return None
    env = dict(os.environ, PYTHONPATH=SRC)
    plan = W.cli_plan(args.seed, setup)
    wall_cap = time.perf_counter() + WALL_CAP * args.seconds
    peak = 0
    for i, spec in enumerate(itertools.islice(plan, args.ops)):
        if stop(args, wall_cap, None):
            break
        pulse(args, latencies)
        argv = W.cli_argv(spec, paths.__getitem__)
        expected = W.cli_expected(spec, setup, docs)
        if args.trace:
            span_file = f"{args.trace}.{i}"
            cmd = [sys.executable, os.path.join(HERE, "cli_launch.py"), span_file]
        else:
            cmd = [sys.executable, "-m", "cspaces.cli"]
        proc = subprocess.Popen(cmd + argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        latencies.append(usage.ru_utime + usage.ru_stime)
        peak = max(peak, usage.ru_maxrss)
        if args.trace:
            span_files.append(span_file)
        if proc.returncode != 0:
            outcome.record(spec, False, note=f"exit {proc.returncode}: {out[-300:]!r}")
            continue
        try:
            doc = json.loads(out)
        except ValueError:
            outcome.record(spec, False, note=f"not JSON: {out[-300:]!r}")
            continue
        ok = W.cli_matches(spec, expected, doc)
        outcome.record(spec, ok,
                       note=None if ok else f"got {str(doc)[:300]}, expected {expected!r}")
    return peak


# ---------------------------------------------------------------------------

def ready():
    """Report set-up: CPU time from process start to the first operation."""
    sys.stdout.write(f"READY {time.process_time()!r}\n")
    sys.stdout.flush()


def pulse(args, latencies):
    """Every ``--tick`` seconds of operation time, print ``TICK`` and wait
    for a line on standard input, so that ``run.py`` can time its speed
    kernel (see ``speed.py``) between two operations, while this process
    is idle."""
    if not args.tick or not latencies:
        return
    args.since_tick += latencies[-1]
    if args.since_tick >= args.tick:
        args.since_tick = 0.0
        sys.stdout.write("TICK\n")
        sys.stdout.flush()
        sys.stdin.readline()


def stop(args, wall_cap, recorder):
    """Stop before the planned operations are done?  Records why in
    ``args.cut``: the wall-clock cap (the run is then too short to
    count) or, in a traced run, the span cap, which falls at the same
    operation on every run of a seed."""
    if recorder is not None and len(recorder) >= SPAN_CAP:
        args.cut = "spans"
    elif time.perf_counter() >= wall_cap:
        args.cut = "wall"
    return args.cut is not None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int,
                    help="operations to make (default: planned_ops)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tick", type=float, default=0.0,
                    help="seconds of operation time between TICK pauses (0: none)")
    ap.add_argument("--trace", help="record spans into files with this prefix")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    if args.ops is None:
        args.ops = planned_ops(args.workload, args.seconds)
    args.cut = None
    args.since_tick = 0.0
    sys.path.insert(0, SRC)
    outcome, latencies, span_files = Outcome(), [], []
    if args.workload == "cli":
        peak_kib = run_cli(args, outcome, latencies, span_files)
    else:
        recorder = None
        if args.trace:
            from spans import Recorder
            recorder = Recorder()
        peak_kib = run_library(args, outcome, latencies, recorder)
        if recorder is not None and not args.setup_only:
            recorder.dump(args.trace, {})
            span_files.append(args.trace)
    if args.setup_only:
        return 0
    for note in outcome.notes:
        print(f"mismatch: {note}", file=sys.stderr)
    print(json.dumps({
        "attempted": outcome.attempted, "failed": outcome.failed,
        "known_defect": outcome.known, "unexplained": outcome.unexplained,
        "ops": args.ops, "cut": args.cut, "latencies": latencies,
        "peak_rss_kib": peak_kib,
        "span_files": span_files}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
