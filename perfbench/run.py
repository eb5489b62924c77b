#!/usr/bin/env python3
"""Benchmark of the mixed-cell-height legalizer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        Build from source (dune), write the workload's inputs, measure for
        S seconds and print one JSON result as the last line of stdout.
    python3 perfbench/run.py manifest
        Write BENCHMARK.json (workloads, metrics, bounds) at the repo root.
    python3 perfbench/run.py sweep --workload W --seeds 1-10 --out FILE
        Run once per seed and append the results to FILE (a JSON list).
    python3 perfbench/run.py compare OLD NEW
        Per workload and metric: both sides' median and quartiles, and
        whether they agree within the metric's bound (WORSE if the new
        median is worse by more, UNRESOLVED if either side's spread is
        wider than the bound).

Run from the root of the repository. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
CLI = os.path.join(BUILD_DIR, "default", "bin", "legalize_cli.exe")
RUN_LIMIT_S = 170  # a run must end within 180 s once built

MANIFEST = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 20,
    "workloads": [
        {"name": "table1",
         "why": "16 compact ICCAD-2017-like dies, fences and routability on, one thread: "
                "the MGL kernel does most of the work"},
        {"name": "wide",
         "why": "two designs tiled 10x side by side on 2 shards x 2 threads: window build "
                "on wide rows, sharding, and matching on large groups"},
        {"name": "serve",
         "why": "the socket server with WAL and snapshots, two closed-loop connections "
                "of 90% single-cell eco / 10% query on ~2k-cell designs"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "cells_per_s", "unit": "cells/s", "better": "higher", "bound": 0.25},
        {"name": "muts_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "score_eq10", "unit": "score", "better": "lower", "bound": 0.10},
        {"name": "max_disp_rows", "unit": "rows", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.08},
        {"name": "mut_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "mut_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "query_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "mgl.s", "unit": "s", "better": "lower"},
        {"name": "mgl.us_per_cell", "unit": "us/cell", "better": "lower"},
        {"name": "mgl.windows_built", "unit": "count", "better": "lower"},
        {"name": "mgl.cuts_evaluated", "unit": "count", "better": "lower"},
        {"name": "mgl.cuts_pruned", "unit": "count", "better": "higher"},
        {"name": "mgl.prune_ratio", "unit": "ratio", "better": "higher"},
        {"name": "mgl.window_growths", "unit": "count", "better": "lower"},
        {"name": "mgl.fallbacks", "unit": "count", "better": "lower"},
        {"name": "mgl.rounds", "unit": "count", "better": "lower"},
        {"name": "shard.interior", "unit": "cells", "better": "higher"},
        {"name": "shard.boundary", "unit": "cells", "better": "lower"},
        {"name": "shard.deferred", "unit": "cells", "better": "lower"},
        {"name": "matching.s", "unit": "s", "better": "lower"},
        {"name": "matching.groups", "unit": "count", "better": "lower"},
        {"name": "matching.cells_moved", "unit": "cells", "better": "lower"},
        {"name": "row_order.s", "unit": "s", "better": "lower"},
        {"name": "row_order.arcs", "unit": "count", "better": "lower"},
        {"name": "parse.s", "unit": "s", "better": "lower"},
        {"name": "gc.minor_mwords", "unit": "Mwords", "better": "lower"},
        {"name": "gc.major_collections", "unit": "count", "better": "lower"},
        {"name": "decode.us", "unit": "us", "better": "lower"},
        {"name": "engine.eco_ms", "unit": "ms", "better": "lower"},
        {"name": "engine.query_ms", "unit": "ms", "better": "lower"},
        {"name": "query.legality_ms", "unit": "ms", "better": "lower"},
        {"name": "query.score_ms", "unit": "ms", "better": "lower"},
        {"name": "query.congest_ms", "unit": "ms", "better": "lower"},
        {"name": "query.windows_ms", "unit": "ms", "better": "lower"},
        {"name": "encode.us", "unit": "us", "better": "lower"},
        {"name": "wal.append_us", "unit": "us", "better": "lower"},
        {"name": "wal.bytes", "unit": "B/record", "better": "lower"},
        {"name": "wal.fsyncs", "unit": "1/record", "better": "lower"},
        {"name": "snapshot.ms", "unit": "ms", "better": "lower"},
        {"name": "loop.queue_wait_ms", "unit": "ms", "better": "lower"},
        {"name": "eco.cuts_evaluated", "unit": "count", "better": "lower"},
        {"name": "eco.cells_touched", "unit": "cells", "better": "lower"},
        {"name": "trace.coverage", "unit": "ratio", "better": "higher"},
        {"name": "trace.overhead", "unit": "ratio", "better": "lower"},
    ],
}

WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_child(argv, deadline):
    """Run argv in its own process group; kill the whole group (the
    serve workload's server included) if it outlives the deadline."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out" % argv[1])
    finally:
        try:  # a server left behind by a crashed run
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(argv[:2]), proc.returncode))
    return out


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    if not os.path.exists("dune-project"):
        fail("run from the repository root (no dune-project here)")
    r = subprocess.run([dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
                        "--profile", "release", "./perfbench/perfbench.exe",
                        "./bin/legalize_cli.exe"], stdout=sys.stderr, timeout=850)
    if r.returncode != 0:
        fail("build failed")


def bench(workload, seed, seconds, trace):
    """One measured run; returns the result object."""
    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.abspath(os.path.join(WORK_DIR, "%s-%d-%d" % (workload, seed, os.getpid())))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.abspath(os.path.join(WORK_DIR, "spans-%s-%d.json" % (workload, seed)))
    exe = os.path.abspath(EXE)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", work]
        run_child([exe, "prepare"] + common, deadline)
        out = run_child([exe, "run"] + common + [
            "--seconds", str(seconds), "--trace", str(trace),
            "--cli", os.path.abspath(CLI), "--spans", spans], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw = json.loads(out.strip().splitlines()[-1])
    expected = MANIFEST["per_layer" if trace else "end_to_end"]
    values = raw["values"]
    names = [m["name"] for m in expected]
    if sorted(values) != sorted(names):
        fail("metric set mismatch: missing %s, unexpected %s"
             % (sorted(set(names) - set(values)), sorted(set(values) - set(names))))
    correct = bool(raw["correct"])
    for m in expected:
        v = values[m["name"]]
        if v is None or not math.isfinite(v) or (not trace and v <= 0):
            print("perfbench: %s = %r is not a measurement" % (m["name"], v), file=sys.stderr)
            correct = False
    return {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in expected if values[m["name"]] is not None}}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def sweep(args):
    runs = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            runs = json.load(f)
    for seed in parse_seeds(args.seeds):
        res = bench(args.workload, seed, args.seconds, args.trace)
        runs.append({"workload": args.workload, "seed": seed, "trace": args.trace, "result": res})
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
        print(json.dumps({"workload": args.workload, "seed": seed,
                          "metrics": {k: v["value"] for k, v in res["metrics"].items()}}))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    def load(path):
        with open(path) as f:
            return [r for r in json.load(f) if r["trace"] == 0]
    old, new = load(args.old), load(args.new)
    faults, worse, unresolved = 0, [], []
    print("%-8s %-14s %6s %12s %12s %12s %7s %12s %12s %12s %7s %8s  %s" % (
        "workload", "metric", "bound", "old_q1", "old_med", "old_q3", "spread",
        "new_q1", "new_med", "new_q3", "spread", "change", "verdict"))
    for w in WORKLOADS:
        o = [r["result"] for r in old if r["workload"] == w]
        n = [r["result"] for r in new if r["workload"] == w]
        if not o or not n:
            continue
        share = lambda rs: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
        fo, fn = share(o), share(n)
        if fo[0] * fn[1] != fn[0] * fo[1]:
            faults += 1
            print("%-8s failed share differs: %d/%d vs %d/%d" % (w, fo[0], fo[1], fn[0], fn[1]))
        if not all(r["correct"] for r in o + n):
            faults += 1
            print("%-8s has runs with failed output checks" % w)
        for m in MANIFEST["end_to_end"]:
            qo = quartiles([r["metrics"][m["name"]]["value"] for r in o])
            qn = quartiles([r["metrics"][m["name"]]["value"] for r in n])
            so, sn = (qo[2] - qo[0]) / qo[1], (qn[2] - qn[0]) / qn[1]
            change = qn[1] / qo[1] - 1
            # A spread wider than the bound leaves the comparison
            # unresolved: the bound is finer than the runs can show.
            if max(so, sn) > m["bound"]:
                verdict = "UNRESOLVED"
                unresolved.append("%s/%s" % (w, m["name"]))
            elif (change if m["better"] == "lower" else -change) > m["bound"]:
                verdict = "WORSE"
                worse.append("%s/%s" % (w, m["name"]))
            else:
                verdict = "agree"
            print("%-8s %-14s %6.2f %12.5g %12.5g %12.5g %7.3f %12.5g %12.5g %12.5g %7.3f %+8.3f  %s" % (
                w, m["name"], m["bound"], qo[0], qo[1], qo[2], so, qn[0], qn[1], qn[2], sn,
                change, verdict))
    if not (faults or worse or unresolved):
        print("all agree within bounds")
        sys.exit(0)
    print("worse: %s; unresolved: %s; run faults: %d"
          % (", ".join(worse) or "none", ", ".join(unresolved) or "none", faults))
    sys.exit(1)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "manifest":
        with open("BENCHMARK.json", "w") as f:
            json.dump(MANIFEST, f, indent=2)
            f.write("\n")
        return
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        compare(p.parse_args(sys.argv[2:]))
        return
    if len(sys.argv) > 1 and sys.argv[1] == "sweep":
        p = argparse.ArgumentParser(prog="run.py sweep")
        p.add_argument("--workload", choices=WORKLOADS, required=True)
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--seconds", type=int, default=MANIFEST["run_seconds"])
        p.add_argument("--trace", type=int, choices=[0, 1], default=0)
        p.add_argument("--out", required=True)
        sweep(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=MANIFEST["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    print(json.dumps(bench(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
