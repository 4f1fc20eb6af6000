"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure-grids --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer metrics of a traced run and
writes its spans to ``.bench_build/perfbench/trace-<workload>-<seed>.json``.
``--smoke`` runs the quick size of the workload (seconds, same checks).
The last line of standard output is the result object; the line
before it (``# meta {...}``) records the host and the program's
revision.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from common import BUILD, Context, host_metadata, prepare_environment, \
    require_program

WORKLOADS = ("figure-grids", "auto-scaling", "service-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the quick size of the workload")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    require_program()
    # Terminated early, still stop the processes this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    workdir = BUILD / "perfbench" / f"{args.workload}-{os.getpid()}"
    prepare_environment(workdir)
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  smoke=args.smoke, workdir=workdir)
    ctx.meta = host_metadata(args.workload, args.seed)
    print("# meta " + json.dumps(ctx.meta, sort_keys=True), flush=True)
    try:
        if args.workload == "figure-grids":
            import figure_grids as module
        elif args.workload == "auto-scaling":
            import auto_scaling as module
        else:
            import service_mix as module
        result = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in result["problems"]:
        print(f"# check failed: {problem}", flush=True)
    tracer = result.get("tracer")
    if tracer is not None:
        path = BUILD / "perfbench" / \
            f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(path, {**ctx.meta, "window": result["window"]})
        print(f"# spans written to {path.relative_to(BUILD.parent)}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
