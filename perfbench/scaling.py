"""Scaling report: how query cost grows with input size.

    python3 perfbench/scaling.py

Run from the repository root.  Regenerates the baseline table of the
roadmap as a markdown table.  Each row runs in a fresh interpreter: the
first call is timed in wall-clock time (cold caches, as in a new
session), then the call is repeated with spans on to count tokens
(``explode``) and cell transitions (``transitions``).  The last column
is the growth exponent log(t2/t1) / log(n2/n1) against the previous
size.  The report is informational; it is not a gated metric.  A full
report takes about a minute and a half on a 2-core machine.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

from worker import chain

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

ROWS = [
    ("is_controlled, full run along a one_jump chain", "one_jump", (50, 200, 800)),
    ("is_controlled, full sweep of one n_stop(n) edge", "n_stop_sweep", (16, 64, 256)),
    ("c_reachable, interior points of n_stop(n)", "n_stop_reach", (64, 256)),
    ("classify_point, on n_stop(n)", "n_stop_classify", (64, 256)),
    ("c_reachable, along a directed chain", "directed_reach", (80, 200)),
    ("reach_relation(...).pairs(), directed chain", "pairs", (8, 16, 32)),
]


def _query(name, n):
    """(function, args) of one row at size n."""
    from fractions import Fraction as F

    import cspaces as C
    if name == "one_jump":
        path = C.assemble(C.Vertex("v0"), [C.Seg(f"e{i}", F(0), F(1)) for i in range(n)],
                          C.Vertex(f"v{n}"))
        return C.is_controlled, (chain(n, "one_jump"), path)
    if name.startswith("n_stop"):
        space = C.build("c_line_window", lo=0, hi=n)
        if name == "n_stop_sweep":
            path = C.assemble(C.Vertex("v0"), [C.Seg("e0", F(0), F(1))], C.Vertex(f"v{n}"))
            return C.is_controlled, (space, path)
        x = C.EdgePoint("e0", F(1, 2 * n))
        if name == "n_stop_classify":
            return C.classify_point, (space, x)
        return C.c_reachable, (space, x, C.EdgePoint("e0", 1 - F(1, 2 * n)))
    if name == "directed_reach":
        return C.c_reachable, (chain(n, "directed"), C.EdgePoint("e0", F(1, 3)),
                               C.EdgePoint(f"e{n - 1}", F(2, 3)))
    return (lambda space: C.reach_relation(space).pairs()), (chain(n, "directed"),)


def measure(name, n):
    """Run in a fresh interpreter: time one call, then count its work."""
    sys.path.insert(0, SRC)
    from spans import Recorder
    fn, args = _query(name, n)
    t0 = time.perf_counter()
    fn(*args)
    seconds = time.perf_counter() - t0
    recorder = Recorder()
    recorder.install()
    fn, args = _query(name, n)
    fn(*args)
    return {"seconds": seconds, **recorder.counts}


def main():
    if len(sys.argv) == 3:
        print(json.dumps(measure(sys.argv[1], int(sys.argv[2]))))
        return 0
    print("| query | n | time (ms) | tokens | transitions | growth exponent |")
    print("|---|---|---|---|---|---|")
    for label, name, sizes in ROWS:
        prev = None
        for n in sizes:
            out = subprocess.run([sys.executable, __file__, name, str(n)],
                                 capture_output=True, text=True, check=True)
            row = json.loads(out.stdout)
            t = row["seconds"]
            growth = (f"{math.log(t / prev[1]) / math.log(n / prev[0]):.2f}"
                      if prev else "")
            print(f"| {label} | {n} | {1000 * t:.1f} | {row['membership.tokens']} "
                  f"| {row['reach.transitions.count']} | {growth} |", flush=True)
            prev = (n, t)
    return 0


if __name__ == "__main__":
    sys.exit(main())
