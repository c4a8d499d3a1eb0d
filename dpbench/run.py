"""dpkit benchmark: one workload, one seed, one JSON result line.

    python3 dpbench/run.py --workload marginals --seed 1 --seconds 30 --trace 0

Run from the repository root (the directory holding ``src/dpkit``). The
parent process generates the seeded inputs and references, times
``setup_s`` in fresh interpreters, then starts ``worker.py``, which imports
dpkit from ``src/`` and runs whole rounds of the workload for about
``--seconds``. The last line on stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``). Diagnostics go to stderr. See README.md for the
workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".dpbench")
# setup_s is the median of fresh interpreters timed before and after the
# worker, so the samples span the whole run rather than one moment of it.
SETUP_BEFORE, SETUP_AFTER = 3, 4
WORKER_TIMEOUT_S = 150

# A fresh interpreter imports dpkit and builds the CLI parser: the fixed cost
# every ``dpkit`` command pays before it reads input.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import dpkit, dpkit.cli
dpkit.cli.build_parser()
print(time.perf_counter() - t0)
"""


def time_setup(repeats: int) -> list[float]:
    """Seconds each of ``repeats`` fresh interpreters spends in SETUP_CODE."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout
        times.append(float(out.split()[-1]))
    return times


def run_worker(workload, workdir, seconds, spans) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--dir", workdir, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(workload, res, setup_s) -> None:
    """Human-readable figures on stderr (latency tail, per-round growth)."""
    lat = sorted(res["latencies"])
    n = len(lat)

    def pct(q):
        return 1000.0 * lat[min(n - 1, int(q * n))]
    print(f"{workload}: {res['rounds']} round(s), {n} ops, "
          f"{res['failed']} failed; op latency p50 {pct(0.5):.2f} ms, "
          f"p90 {pct(0.9):.2f} ms, p99 {pct(0.99):.2f} ms, "
          f"max {1000 * lat[-1]:.2f} ms", file=sys.stderr)
    by_name = {}
    for name, dt in zip(res["names"], res["latencies"]):
        by_name.setdefault(name, []).append(dt)
    print("  median ms: " + ", ".join(
        f"{name} {1000 * statistics.median(v):.1f}"
        for name, v in by_name.items()), file=sys.stderr)
    print("  round walls s: " + " ".join(
        f"{w:.3f}" for w in res["round_walls"]), file=sys.stderr)
    per_round = n // res["rounds"]
    if per_round >= 200:
        first = res["latencies"][:per_round // 10]
        last = res["latencies"][per_round - per_round // 10:per_round]
        print(f"  first/last tenth of round 1: "
              f"{1000 * statistics.fmean(first):.2f} / "
              f"{1000 * statistics.fmean(last):.2f} ms mean", file=sys.stderr)
    if setup_s is not None:
        print(f"  setup_s {setup_s:.4f}", file=sys.stderr)
    for problem in res["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description="dpkit benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dpkit", "__init__.py")):
        print("dpbench: src/dpkit not found; run from a dpkit checkout",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    spans = None
    if args.trace:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        spans = os.path.join(WORK, "traces",
                             f"{args.workload}-seed{args.seed}.jsonl")
    try:
        t0 = time.perf_counter()
        workloads.generate(args.workload, workdir, args.seed)
        print(f"inputs generated in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
        setup = []
        if not args.trace:
            time_setup(1)  # warms the file cache, writes the bytecode cache
            setup += time_setup(SETUP_BEFORE)
        res = run_worker(args.workload, workdir, args.seconds, spans)
        if not args.trace:
            setup += time_setup(SETUP_AFTER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(setup) if setup else None
    describe(args.workload, res, setup_s)

    if args.trace:
        from tracer import PER_LAYER, report
        report(res["layers"])
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # Median round: the shared machine switches between a fast and a
            # slow speed every few seconds. The fastest round depends on
            # whether a run met a fast spell at all; the median round on how
            # long it spent in one, which varies less between runs.
            "wall_s": {"value": statistics.median(res["round_walls"]),
                       "unit": "s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(
                res["latencies"]), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
