"""cspaces benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload {paths,queries,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Every run starts fresh interpreters, so
the engine's module caches start empty as in a new user session.  Load
comes from one closed-loop client: one operation at a time, each issued
after the previous one returned, no threads; for ``cli`` one child
process at a time.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
over nine fresh processes of the time from process start to the first
timed operation: four set up before the worker, the worker itself, and
four after it, so that the samples spread over the run and a slow
minute of a shared machine moves only some of them.  All times
are CPU time of the process doing the work (see ``worker.py`` for why),
scaled to a reference machine speed that ``speed.py`` measures in this
process before the worker starts and, while the worker waits, after
every ``TICK_S`` of its operation time; the unscaled figures and the
scale go to standard error.

A run makes a fixed number of operations, ``worker.planned_ops``: about
``--seconds`` of them on a shared 2-vCPU virtual machine, and at least
``worker.MIN_OPS``.  So the same seed gives the same operations, answers
and failure count on every run, and ``peak_rss_mb``, read at the end,
compares the same work from run to run.

``--trace 1`` runs the workload once with spans recorded around the
engine's public functions (see ``spans.py``), then once untraced for
the same operations, and prints the per-layer metrics and the tracing
overhead.  End-to-end metrics never come from a traced run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts wrong
answers and errors; ``correct`` is false when any of them is not the
documented product-hat defect (see ``worker.Outcome``), or when the run
stopped at its wall-clock cap before making its planned operations.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import speed
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 4  # set-up-only processes before the worker, and again after it
TICK_S = 0.25  # operation CPU seconds between two timings of the speed kernel
TICK_SAMPLES = 2  # kernel calls timed at each of them
END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MiB", "ok_ratio": "ratio"}


def worker(args, workdir, *extra):
    """Start a worker process; returns (process, its set-up CPU seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir, *extra]
    if args.ops is not None and "--ops" not in extra:
        cmd += ["--ops", str(args.ops)]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            cwd=ROOT, text=True)
    word, _, setup = proc.stdout.readline().partition(" ")
    if word != "READY":
        finish(proc)
        raise RuntimeError("worker did not start")
    return proc, float(setup)


def finish(proc, kernel=None):
    """Wait for a worker and return its result line, if it printed one.

    At each ``TICK`` the worker pauses; time the speed kernel into the
    list ``kernel`` and let it go on."""
    lines = []
    for line in proc.stdout:
        if line == "TICK\n" and kernel is not None:
            kernel += speed.samples(TICK_SAMPLES)
            proc.stdin.write("\n")
            proc.stdin.flush()
        else:
            lines.append(line)
    proc.stdin.close()
    proc.stdout.close()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1]) if lines else None


def end_to_end(args, workdir):
    def setup_only(i):
        proc, setup = worker(args, f"{workdir}/setup{i}", "--setup-only")
        finish(proc)
        return setup

    setups = [setup_only(i) for i in range(SETUP_SAMPLES)]
    kernel = speed.samples()
    proc, setup = worker(args, f"{workdir}/run", "--tick", str(TICK_S))
    setups.append(setup)
    res = finish(proc, kernel)
    setups += [setup_only(SETUP_SAMPLES + i) for i in range(SETUP_SAMPLES)]
    lat = res["latencies"]
    times = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[-1],
    }
    scale = speed.scale(kernel)
    print(f"unscaled: {json.dumps(times)}; speed scale {scale!r}", file=sys.stderr)
    metrics = {k: v / scale if k == "ops_per_s" else v * scale for k, v in times.items()}
    metrics["peak_rss_mb"] = res["peak_rss_kib"] / 1024
    metrics["ok_ratio"] = 1 - res["failed"] / res["attempted"]
    return res, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(args, workdir):
    import spans
    prefix = os.path.join(workdir, "spans")
    os.makedirs(workdir, exist_ok=True)
    proc, _ = worker(args, f"{workdir}/traced", "--trace", prefix)
    traced = finish(proc)
    n = traced["attempted"]
    proc, _ = worker(args, f"{workdir}/plain", "--ops", str(n))
    plain = finish(proc)
    overhead = 1000 * (sum(traced["latencies"]) - sum(plain["latencies"])) / max(n, 1)
    cli_calls = []
    if args.workload == "cli":
        for lat, path in zip(traced["latencies"], traced["span_files"]):
            header, _ = spans.load(path)
            cli_calls.append((lat, header["in_process_s"], header["import_s"]))
    values = spans.analyse(traced["span_files"], n, overhead, cli_calls)
    units = spans.metric_units()
    metrics = {k: {"value": values[k], "unit": units[k][0]} for k in units}
    print(f"traced run: {n} operations; untraced replay "
          f"{sum(plain['latencies']):.3f} s, traced {sum(traced['latencies']):.3f} s",
          file=sys.stderr)
    return traced, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int,
                    help="operations a run makes (default: worker.planned_ops)")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "cspaces")):
        print("error: run from a cspaces checkout (src/cspaces not found)",
              file=sys.stderr)
        return 2
    # One core for this process and every process it starts: they never
    # run at once, and the speed kernel then times the core the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.trace:
            res, metrics = per_layer(args, workdir)
        else:
            res, metrics = end_to_end(args, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if res["known_defect"]:
        print(f"{res['known_defect']} of {res['attempted']} answers hit the "
              "known product-hat defect (hat of a product rejects a restriction "
              "of a controlled path)", file=sys.stderr)
    short = res["cut"] == "wall"
    if short:
        print(f"stopped at the wall-clock cap after {res['attempted']} of "
              f"{res['ops']} operations", file=sys.stderr)
    print(json.dumps({"correct": res["unexplained"] == 0 and not short,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
