"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \
        [--workload NAME --pairs K --seed S] ... [--seconds 35]

DIR is a source checkout holding `perfbench/` and `src/`.  Each pair runs
`perfbench/run.py --trace 0` once in each checkout with the same seed; the
side that runs first alternates from pair to pair, so drift in machine
speed falls on both sides alike.  `--workload`, `--pairs` and `--seed`
repeat together, one triple per workload; pair k of a workload uses seed
S + k.

The file records, per checkout, the git HEAD that run.py reports and a
SHA-256 over the files under its `src/` (which names the measured code also
in a checkout with uncommitted edits); the Python version and nproc; and
per workload the seeds, every pair's `result_s`, `peak_rss_mb`, `setup_s`
and `failed`, and per metric the median, quartiles and IQR of each side
and the number of pairs the change won (lower is better for all three).
Standard library only.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

METRICS = ("result_s", "peak_rss_mb", "setup_s")


def src_digest(checkout: str) -> str:
    """SHA-256 over the relative paths and bytes of the .py files in src/."""
    digest = hashlib.sha256()
    src = os.path.join(checkout, "src")
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One `run.py --trace 0` run: its environment line and its metrics."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env, result = json.loads(lines[0]), json.loads(lines[-1])
    row = {name: result["metrics"][name]["value"] for name in METRICS}
    row["failed"] = result["failed"]
    row["attempted"] = result["attempted"]
    return {"env": env, "row": row}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs) -> dict:
    out = {}
    for name in METRICS:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        out[name] = {
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", action="append", type=int, required=True)
    ap.add_argument("--seed", action="append", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=35)
    args = ap.parse_args(argv)
    if not len(args.workload) == len(args.pairs) == len(args.seed):
        ap.error("give --workload, --pairs and --seed once per workload")

    sides = {"parent": args.parent, "change": args.change}
    record = {
        "checkouts": {side: {"src_sha256": src_digest(path)} for side, path in sides.items()},
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload, count, first_seed in zip(args.workload, args.pairs, args.seed):
        pairs = []
        for k in range(count):
            seed = first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = run_once(sides[side], workload, seed, args.seconds)
                pair[side] = run["row"]
                record["checkouts"][side]["git_sha"] = run["env"]["git_sha"]
                record["python"] = run["env"]["python"]
                record["nproc"] = run["env"]["nproc"]
            pairs.append(pair)
            print(json.dumps({"workload": workload, **pair}), flush=True)
        record["workloads"][workload] = {
            "seeds": [p["seed"] for p in pairs],
            "pairs": pairs,
            "summary": summarize(pairs),
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
