"""Worker process: imports dpkit, runs whole rounds of one workload for
about ``--seconds`` and prints one JSON line with latencies, failures, peak
memory and, with ``--spans``, the per-layer metrics of a traced run.

Started by ``run.py``; the run directory must already hold the generated
inputs. Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import workloads
from checks import CheckError


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", default=None,
                        help="trace: write spans here (JSON lines)")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import dpkit  # noqa: E402  (the source tree under test)
    import dpkit.cli  # noqa: E402,F401  (not imported by the package)

    workload = workloads.build(args.workload, args.dir, dpkit)
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(dpkit)

    def span(name):
        return tracer.operation(name) if tracer else nullcontext()

    def quiet():
        return tracer.paused() if tracer else nullcontext()

    latencies, names, round_walls, problems = [], [], [], []
    attempted = failed = 0
    # Whole rounds only, and none that would end past the deadline (judged
    # by the last round's length, checks included), so a run measures close
    # to --seconds whatever the round length; there is always one round.
    deadline = time.perf_counter() + args.seconds
    round_s = 0.0
    while not round_walls or time.perf_counter() + round_s <= deadline:
        round_start = time.perf_counter()
        wall = 0.0
        for op in workload.round():
            attempted += 1
            error = None
            t0 = time.perf_counter()
            with span(op.name):
                try:
                    output = op.run()
                except Exception as exc:  # an operation that raises fails
                    error = f"{op.name}: raised {exc!r}"
            dt = time.perf_counter() - t0
            latencies.append(dt)
            names.append(op.name)
            wall += dt
            if error is None:
                with quiet():
                    try:
                        op.check(output)
                    except CheckError as exc:
                        error = str(exc)
                    except Exception as exc:  # malformed output
                        error = f"{op.name}: check raised {exc!r}"
            if error is not None:
                failed += 1
                problems.append(error)
            elif op.may_refuse and output[0] == 4:
                failed += 1  # the named exact-cap refusal
        round_walls.append(wall)
        with quiet():
            try:
                workload.end_round()
            except CheckError as exc:
                problems.append(str(exc))
            except Exception as exc:  # malformed ledger or report
                problems.append(f"end of round: raised {exc!r}")
        round_s = time.perf_counter() - round_start
        if len(round_walls) == 1:
            # Later rounds repeat the same operations, yet what they add to
            # the peak differs from run to run (on fit-models, now and then
            # one more 8 MB kernel feature matrix after several rounds), so
            # the peak is taken after the first round.
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"attempted": attempted, "failed": failed,
              "problems": problems[:20], "rounds": len(round_walls),
              "round_walls": round_walls, "latencies": latencies,
              "names": names,
              "peak_rss_kb": peak_kb}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(args.spans)
        result["layers"] = tracer.metrics(len(round_walls),
                                          statistics.median(round_walls))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
