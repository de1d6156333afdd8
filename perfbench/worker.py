"""One measured unit of a workload, in a fresh interpreter.

Started by run.py; prints one JSON object as its last line.  Modes:
  probe     import and set up, then report the set-up time and exit
  plain     run one unit untraced
  traced    run one unit with per-layer tracing installed

Set-up time runs from the moment the parent started this process
(`--spawned-at`, a time.monotonic() reading, which is system-wide on Linux)
to the first timed call.
"""

import argparse
import json
import os
import resource
import sys
import time

import tracing
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "plain", "traced"))
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--src", required=True, help="source directory the package must load from")
    args = ap.parse_args(argv)

    package, modules = tracing.load_package()
    here = os.path.realpath(package.__file__)
    if not here.startswith(os.path.realpath(args.src) + os.sep):
        print(f"shifted_crystal loaded from {here}, not from {args.src}", file=sys.stderr)
        return 2
    expected = workloads.load_expected()
    run_unit = workloads.WORKLOADS[args.workload]
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.mode == "probe":
        print(json.dumps(out))
        return 0

    if args.mode == "traced":
        with tracing.Tracer(modules) as tracer:
            unit = run_unit(package, args.seed)
    else:
        tracer = None
        unit = run_unit(package, args.seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = workloads.check_unit(package, args.workload, args.seed,
                                    unit["answer"], expected)
    census = tracing.cache_census(modules)
    out.update({
        "result_s": unit["result_s"],
        "phases": unit["phases"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": unit["attempted"],
        "failed": min(len(failures), unit["attempted"]),
        "failures": failures[:10],
        "caches": census,
    })
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, census)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
