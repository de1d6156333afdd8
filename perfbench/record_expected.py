"""Regenerate expected.json, the committed answers the checkers compare.

    PYTHONPATH=src python3 perfbench/record_expected.py

Run it only when a change is meant to alter an answer; the point of the
file is that optimisations leave every answer byte-identical.
"""

import json
import sys

import tracing
import workloads

DIGEST_SEEDS = range(32)


def main() -> int:
    sc, _ = tracing.load_package()
    verdict = workloads.run_verify_all(sc, 0)["answer"]
    graph, report = workloads.run_graph_cactus(sc, 0)["answer"]
    shape = sc.SkewShape.parse(workloads.QUERY_SHAPE)
    tableaux = sc.enumerate_tableaux(shape, workloads.QUERY_N)
    digests = {}
    for seed in DIGEST_SEEDS:
        plan = workloads.query_plan(len(tableaux), seed)
        queries = workloads.plan_queries(sc, tableaux, plan)
        digests[str(seed)] = workloads.answers_digest(fn(*args) for _, fn, args in queries)
        print(f"seed {seed}: {digests[str(seed)]}", file=sys.stderr)
    expected = {
        "verify-all": workloads.verdict_counts(verdict),
        "graph-cactus": workloads.graph_facts(sc, graph, report),
        "point-queries": {"tableaux": len(tableaux), "digests": digests},
    }
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
