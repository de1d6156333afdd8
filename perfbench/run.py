"""The shifted_crystal benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is loaded from its
`src/`, nothing is installed.  One client, closed loop: each unit runs in a
fresh interpreter (worker.py) so module caches start cold, as for a CLI
call, and the next unit starts only after the previous one has ended.

--trace 0 repeats units while the next one is expected to end within
--seconds (at least one), runs set-up probes before and after them, and
prints the end-to-end metrics as medians over units.  --trace 1 runs one untraced and one traced
unit and prints the per-layer metrics, the untraced unit's phase timings,
and the tracing overhead (traced minus untraced wall time of the unit).

Answers are checked outside the timed regions; the last line of output is
{"correct", "attempted", "failed", "metrics"}.  The lines before it give the
environment and every unit's phases, failures and cache census.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 10
RUN_LIMIT_S = 170  # every run must end within 180 s

# Phase timings of the untraced unit, reported with the per-layer metrics
# because each exists on one workload only; zero on the others.
PHASE_UNITS = {
    "verdict_s": "s",
    "build_s": "s",
    "cactus_s": "s",
    "enumerate_s": "s",
    "query_p50_ms": "ms",
    "query_p999_ms": "ms",
    "queries_per_s": "1/s",
    "warm_queries_per_s": "1/s",
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run worker.py once and return its JSON report.

    A worker that crashes, times out or prints no report yields a report
    with `error` set, which the caller counts as a failed unit.
    """
    # A fixed hash seed keeps set and dict order, and so the work done, the
    # same from run to run.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--src", SRC]
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    timeout = max(1.0, deadline - spawned_at)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} unit exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError("no report")
        report = json.loads(lines[-1])
    except ValueError:
        return {"error": f"{mode} unit exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    report["wall_s"] = time.monotonic() - spawned_at
    return report


def tally(units) -> tuple:
    """(attempted, failed) over unit reports; a unit with an error counts
    as one attempted, failed operation."""
    attempted = failed = 0
    for unit in units:
        if "error" in unit:
            attempted += 1
            failed += 1
        else:
            attempted += unit["attempted"]
            failed += unit["failed"]
    return attempted, failed


def measure(workload: str, seed: int, seconds: int, deadline: float):
    """End-to-end metrics: medians over as many units as fit in `seconds`."""
    # Half the set-up probes run before the units and half after, so that
    # set-up is sampled across the run's span rather than at one moment.
    probes = [spawn(workload, seed, "probe", deadline) for _ in range(SETUP_PROBES // 2)]
    units = []
    start = time.monotonic()
    while True:
        unit = spawn(workload, seed, "plain", deadline)
        units.append(unit)
        if "error" in unit:
            break
        elapsed = time.monotonic() - start
        if elapsed + unit["wall_s"] > seconds or time.monotonic() + unit["wall_s"] > deadline:
            break
    if time.monotonic() + 10 < deadline:
        probes += [spawn(workload, seed, "probe", deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    return summarize(probes, units), probes + units


def summarize(probes, units) -> dict:
    """Medians over the units that reported; empty if none did."""
    good = [u for u in units if "error" not in u]
    if not good:
        return {}
    setups = [r["setup_s"] for r in probes + good if "error" not in r]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in good), "MB"),
        "result_s": (statistics.median(u["result_s"] for u in good), "s"),
    }


def trace(workload: str, seed: int, deadline: float):
    """Per-layer metrics from one traced unit, beside one untraced unit."""
    plain = spawn(workload, seed, "plain", deadline)
    traced = spawn(workload, seed, "traced", deadline)
    units = [plain, traced]
    if "error" in plain or "error" in traced:
        return {}, units
    metrics = dict(traced["layers"])
    for name, unit in PHASE_UNITS.items():
        metrics[f"phase.{name}"] = (plain["phases"].get(name, 0.0), unit)
    overhead = traced["result_s"] - plain["result_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / plain["result_s"], "ratio")
    return metrics, units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "shifted_crystal", "__init__.py")):
        print(f"no package source at {SRC}/shifted_crystal; run from a source checkout",
              file=sys.stderr)
        return 2

    print(json.dumps({
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }))
    if args.trace:
        metrics, units = trace(args.workload, args.seed, deadline)
    else:
        metrics, units = measure(args.workload, args.seed, args.seconds, deadline)
    for unit in units:
        print(json.dumps(unit))
    attempted, failed = tally(u for u in units if "attempted" in u or "error" in u)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
