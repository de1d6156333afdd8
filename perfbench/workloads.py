"""The benchmark's workloads: inputs from a seed, one timed unit each, and
the checkers that judge the answers outside the timed region.

A unit is the work one user waits for: a verdict of `verify all`, a crystal
graph with its cactus check, or a fixed plan of single calls on tableaux.
Each unit returns its phase timings, the answers, and a list of failures;
a failure is counted, never raised, so one wrong answer cannot hide others.
"""

import hashlib
import json
import math
import os
import random
from time import perf_counter

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# Why each workload is in the benchmark, and which open ROADMAP item should
# move it (or leave it flat).
WHY = {
    "verify-all": "the acceptance battery `verify all --seed S`; ~90% jdt.rectify, "
                  "so the flat slide engine (ROADMAP 2) moves it and graph-side work does not",
    "graph-cactus": "build_graph plus verify_cactus on a skew shape with 10 components; "
                    "unprimed operators (ROADMAP 3) move the build, cactus-from-graph (4) the check",
    "point-queries": "single calls on distinct tableaux of a 340k enumeration, cold then warm; "
                     "the sigma tail moves with ROADMAP 3, and 4 leaves it flat",
}

GRAPH_SHAPE, GRAPH_N = "6,4,1/3,1", 4
QUERY_SHAPE, QUERY_N = "7,5,3,1/4,2", 5
QUERY_TABLEAUX = 1500  # distinct tableaux per plan, eight calls each
QUERY_KINDS = ("rectify", "F", "E", "F'", "E'", "sigma", "reversal", "eta")


def load_expected(path=EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# verify-all

def run_verify_all(sc, seed: int) -> dict:
    """One `verify all` battery; the verdict is the report's `ok`."""
    start = perf_counter()
    try:
        report = sc.verify.run_all(seed)
    except Exception as exc:  # counted as a failed verdict, not raised
        report = exc
    verdict_s = perf_counter() - start
    return {"phases": {"verdict_s": verdict_s}, "result_s": verdict_s,
            "attempted": 1, "answer": report}


def verdict_counts(report: dict) -> dict:
    """The fixed counts of a `run_all` report that the checker compares."""
    by_suite = {}
    for sub in report["reports"]:
        by_suite.setdefault(sub["suite"], []).append(sub)
    knuth = by_suite["knuth"][0]
    return {
        "cactus_vertices": [s["graph"]["vertices"] for s in by_suite["cactus"]],
        "braid_witness": by_suite["braid-witness"][0]["ok"],
        "words": knuth["words"],
        "classes": knuth["classes"],
        "shapes": knuth["shapes"],
        "tableaux": knuth["tableaux"],
        "symmetry_checked": by_suite["symmetry"][0]["checked"],
        "structure_graphs": by_suite["structure"][0]["graphs"],
    }


def check_verdict(report, expected: dict) -> list:
    """Failures of one verdict: not ok, or any fixed count differs."""
    if isinstance(report, Exception):
        return [f"run_all raised {type(report).__name__}: {report}"]
    failures = []
    if report.get("ok") is not True:
        failures.append("verdict is not ok")
    try:
        counts = verdict_counts(report)
    except (KeyError, IndexError, TypeError) as exc:
        return failures + [f"report lacks a counted field: {exc!r}"]
    for key, want in expected.items():
        if counts.get(key) != want:
            failures.append(f"{key}: got {counts.get(key)!r}, expected {want!r}")
    return failures


# ---------------------------------------------------------------------------
# graph-cactus

def run_graph_cactus(sc, seed: int) -> dict:
    """Build B((6,4,1)/(3,1),4), then check the cactus relations on it.

    The shape fixes the input; the seed is accepted and does not change it.
    """
    shape = sc.SkewShape.parse(GRAPH_SHAPE)
    phases = {"build_s": 0.0, "cactus_s": 0.0}
    start = perf_counter()
    try:
        graph = sc.build_graph(shape, GRAPH_N)
        phases["build_s"] = perf_counter() - start
        start = perf_counter()
        report = sc.verify_cactus(graph)
        phases["cactus_s"] = perf_counter() - start
        answer = (graph, report)
    except Exception as exc:  # counted as a failed unit, not raised
        answer = exc
    return {"phases": phases, "result_s": phases["build_s"] + phases["cactus_s"],
            "attempted": 1, "answer": answer}


def graph_facts(sc, graph, report) -> dict:
    """Counts and export digest of a graph and its cactus report."""
    return {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "components": len(graph.components),
        "export_sha256": _sha256(sc.export_json(graph)),
        "cactus_checked": dict(report["checked"]),
        "cactus_violations": len(report["violations"]),
        "cactus_ok": report["ok"],
    }


def check_graph(sc, answer, expected: dict) -> list:
    """Failures of one graph-cactus unit against the committed facts."""
    if isinstance(answer, Exception):
        return [f"graph-cactus raised {type(answer).__name__}: {answer}"]
    facts = graph_facts(sc, *answer)
    return [f"{key}: got {facts.get(key)!r}, expected {want!r}"
            for key, want in expected.items() if facts.get(key) != want]


# ---------------------------------------------------------------------------
# point-queries

def query_plan(count: int, seed: int, size: int = QUERY_TABLEAUX) -> list:
    """Seeded (index, i, p, q) picks: distinct tableau indices below count."""
    rng = random.Random(seed)
    plan = []
    for index in rng.sample(range(count), min(size, count)):
        i = rng.randint(1, QUERY_N - 1)
        p = rng.randint(1, QUERY_N - 1)
        q = rng.randint(p + 1, QUERY_N)
        plan.append((index, i, p, q))
    return plan


def plan_queries(sc, tableaux, plan) -> list:
    """The eight single calls per planned tableau, as (kind, fn, args).

    Functions are looked up on the package at call time so that a tracer
    patched in before this call sees them.
    """
    n = QUERY_N
    queries = []
    for index, i, p, q in plan:
        T = tableaux[index]
        queries += [
            ("rectify", sc.rectify, (T,)),
            ("F", sc.unprimed_lower, (T, i, n)),
            ("E", sc.unprimed_raise, (T, i, n)),
            ("F'", sc.primed_lower_tableau, (T, i, n)),
            ("E'", sc.primed_raise_tableau, (T, i, n)),
            ("sigma", sc.sigma, (T, i, n)),
            ("reversal", sc.reversal, (T, n)),
            ("eta", sc.eta_interval, (T, p, q, n)),
        ]
    return queries


def _timed_pass(queries):
    latencies, answers = [], []
    start = perf_counter()
    for _, fn, args in queries:
        t = perf_counter()
        try:
            answer = fn(*args)
        except Exception as exc:  # judged by the checker, not raised
            answer = exc
        latencies.append(perf_counter() - t)
        answers.append(answer)
    return perf_counter() - start, latencies, answers


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def run_point_queries(sc, seed: int, plan_size=QUERY_TABLEAUX) -> dict:
    """Enumerate B((7,5,3,1)/(4,2),5), then a cold and a warm pass of calls."""
    shape = sc.SkewShape.parse(QUERY_SHAPE)
    start = perf_counter()
    tableaux = sc.enumerate_tableaux(shape, QUERY_N)
    enumerate_s = perf_counter() - start
    queries = plan_queries(sc, tableaux, query_plan(len(tableaux), seed, plan_size))
    cold_s, latencies, cold = _timed_pass(queries)
    warm_s, _, warm = _timed_pass(queries)
    phases = {
        "enumerate_s": enumerate_s,
        "query_p50_ms": percentile(latencies, 0.5) * 1e3,
        "query_p999_ms": percentile(latencies, 0.999) * 1e3,
        "queries_per_s": len(queries) / cold_s,
        "warm_queries_per_s": len(queries) / warm_s,
    }
    return {"phases": phases, "result_s": enumerate_s + cold_s + warm_s,
            "attempted": 2 * len(queries), "answer": (len(tableaux), queries, cold, warm)}


def _weight_law(kind, T, args, n):
    """The weight an answer of this kind must have, from T's weight."""
    wt = list(T.weight(n))
    if kind in ("F", "F'", "E", "E'"):
        i = args[1]
        step = 1 if kind in ("F", "F'") else -1
        wt[i - 1] -= step
        wt[i] += step
    elif kind == "sigma":
        i = args[1]
        wt[i - 1], wt[i] = wt[i], wt[i - 1]
    elif kind == "reversal":
        wt.reverse()
    elif kind == "eta":
        p, q = args[1], args[2]
        wt[p - 1:q] = reversed(wt[p - 1:q])
    return tuple(wt)


def check_answer(kind: str, args, answer, n: int = QUERY_N):
    """None when the answer obeys its operator's laws, else the reason.

    Lowering and raising operators may be undefined (None); every defined
    answer must be a valid tableau with the operator's shape and weight.
    """
    if isinstance(answer, Exception):
        return f"raised {type(answer).__name__}: {answer}"
    try:
        return _judge(kind, args, answer, n)
    except (AttributeError, TypeError, ValueError) as exc:
        return f"malformed answer: {exc!r}"


def _judge(kind, args, answer, n):
    T = args[0]
    if kind == "rectify":
        R, record = answer
        if not R.shape.is_straight or R.size != T.size:
            return "rectification is not a straight shape of the same size"
        if len(record) != T.shape.inner.size:
            return "slide record length differs from the inner shape size"
        got, want = R.weight(n), T.weight(n)
    else:
        if answer is None:
            return None if kind in ("F", "E", "F'", "E'") else "undefined answer"
        if answer.shape != T.shape:
            return "shape changed"
        R, got, want = answer, answer.weight(n), _weight_law(kind, T, args, n)
    if got != want:
        return f"weight {got} breaks the law, expected {want}"
    try:
        R.check()
    except ValueError as exc:
        return f"answer is not a canonical semistandard tableau: {exc}"
    return None


def _answer_text(answer) -> str:
    if isinstance(answer, tuple):
        R, record = answer
        return f"{R.shape}|{R}|{record.to_json_obj()}"
    if answer is None or isinstance(answer, Exception):
        return repr(answer)
    return f"{answer.shape}|{answer}"


def answers_digest(answers) -> str:
    return _sha256("\n".join(_answer_text(a) for a in answers))


def check_queries(answer, expected: dict, seed: int) -> list:
    """Failures of one point-queries unit: a wrong enumeration count, each
    lawless answer, each warm answer that differs from a lawful cold one,
    and a digest mismatch when the seed has a committed digest."""
    count, queries, cold, warm = answer
    failures = []
    if count != expected["tableaux"]:
        failures.append(f"enumerated {count} tableaux, expected {expected['tableaux']}")
    for (kind, _, args), a, b in zip(queries, cold, warm):
        cold_reason = check_answer(kind, args, a)
        if cold_reason is not None:
            failures.append(f"cold {kind}{args[1:]}: {cold_reason}")
        reason = check_answer(kind, args, b)
        if reason is None and cold_reason is None and a != b:
            reason = "differs from the cold answer"
        if reason is not None:
            failures.append(f"warm {kind}{args[1:]}: {reason}")
    want = expected["digests"].get(str(seed))
    if want is not None and answers_digest(cold) != want:
        failures.append(f"answers digest differs from the committed one for seed {seed}")
    return failures


# ---------------------------------------------------------------------------

WORKLOADS = {
    "verify-all": run_verify_all,
    "graph-cactus": run_graph_cactus,
    "point-queries": run_point_queries,
}


def check_unit(sc, workload: str, seed: int, answer, expected: dict) -> list:
    """Route a unit's answer to its workload's checker."""
    if workload == "verify-all":
        return check_verdict(answer, expected["verify-all"])
    if workload == "graph-cactus":
        return check_graph(sc, answer, expected["graph-cactus"])
    return check_queries(answer, expected["point-queries"], seed)
