"""Tests of the benchmark harness itself, at tiny scope.

Each workload's checker is fed a deliberately wrong answer and must count
it as failed; the tracer must restore every patched name; the metric names
the runner prints must be the ones BENCHMARK.json declares.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import os

import pytest

import shifted_crystal as sc
from shifted_crystal import verify

import run
import tracing
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
N = workloads.QUERY_N


# ---------------------------------------------------------------------------
# verify-all

def _tiny_verdict():
    reports = [verify.run_cactus("2,1", 3)]
    reports.append({"suite": "braid-witness", "ok": True, "summary": ""})
    reports.append(verify.run_knuth(max_len=2, values=2, bound="2,1", n_max=2, orders=2))
    reports.append(verify.run_symmetry("2,1"))
    reports.append(verify.run_structure("2,1", 2, extra=()))
    return {"suite": "all", "reports": reports, "ok": all(r["ok"] for r in reports)}


def test_verdict_checker_counts_wrong_answers():
    report = _tiny_verdict()
    expected = workloads.verdict_counts(report)
    assert workloads.check_verdict(report, expected) == []

    wrong_count = copy.deepcopy(report)
    wrong_count["reports"][2]["classes"] += 1
    assert len(workloads.check_verdict(wrong_count, expected)) == 1

    not_ok = copy.deepcopy(report)
    not_ok["ok"] = False
    not_ok["reports"][1]["ok"] = False
    assert len(workloads.check_verdict(not_ok, expected)) == 2

    assert len(workloads.check_verdict(RuntimeError("boom"), expected)) == 1
    assert len(workloads.check_verdict({"ok": True, "reports": []}, expected)) == 1


# ---------------------------------------------------------------------------
# graph-cactus

def test_graph_checker_counts_wrong_answers():
    graph = sc.build_graph(sc.SkewShape.parse("2,1"), 3)
    report = sc.verify_cactus(graph)
    expected = workloads.graph_facts(sc, graph, report)
    assert workloads.check_graph(sc, (graph, report), expected) == []

    missing_edge = sc.CrystalGraph(graph.shape, graph.n, graph.vertices, graph.edges[1:])
    failures = workloads.check_graph(sc, (missing_edge, report), expected)
    assert {f.split(":")[0] for f in failures} >= {"edges", "export_sha256"}

    dirty = copy.deepcopy(report)
    dirty["ok"] = False
    dirty["violations"].append({"relation": 1, "witness": 0})
    assert len(workloads.check_graph(sc, (graph, dirty), expected)) == 2

    assert len(workloads.check_graph(sc, ValueError("cap"), expected)) == 1


# ---------------------------------------------------------------------------
# point-queries

def _tiny_queries():
    tableaux = sc.enumerate_tableaux(sc.SkewShape.parse("3,1/1"), workloads.QUERY_N)
    plan = [(k, 1 + k % (N - 1), 1 + k % 3, N) for k in range(0, len(tableaux), 7)]
    queries = workloads.plan_queries(sc, tableaux, plan)
    answers = [fn(*args) for _, fn, args in queries]
    return len(tableaux), queries, answers


def test_every_real_answer_obeys_its_law():
    _, queries, answers = _tiny_queries()
    for (kind, _, args), answer in zip(queries, answers):
        assert workloads.check_answer(kind, args, answer) is None, kind


@pytest.mark.parametrize("kind", workloads.QUERY_KINDS)
def test_query_checker_rejects_a_wrong_answer(kind):
    _, queries, answers = _tiny_queries()
    for (k, _, args), answer in zip(queries, answers):
        if k != kind:
            continue
        T = args[0]
        if kind == "rectify":
            if T.shape.is_straight:
                continue
            wrong = (T, answer[1])  # not rectified
        elif T.weight(N) == workloads._weight_law(kind, T, args, N):
            continue  # the identity would be lawful here
        else:
            wrong = T  # same shape, weight left unchanged
        assert workloads.check_answer(kind, args, wrong) is not None
        assert workloads.check_answer(kind, args, RuntimeError("x")) is not None
        assert workloads.check_answer(kind, args, "not a tableau") is not None
        return
    pytest.fail(f"no tiny case can expose a wrong {kind} answer")


def test_query_unit_counts_each_failure():
    count, queries, answers = _tiny_queries()
    expected = {"tableaux": count, "digests": {"7": workloads.answers_digest(answers)}}
    good = (count, queries, answers, list(answers))
    assert workloads.check_queries(good, expected, seed=7) == []
    assert workloads.check_queries(good, expected, seed=8) == []  # no committed digest

    sigma_at = next(k for k, (kind, _, args) in enumerate(queries) if kind == "sigma"
                    and args[0].weight(N) != workloads._weight_law(kind, args[0], args, N))
    warm = list(answers)
    warm[sigma_at] = queries[sigma_at][2][0]
    assert len(workloads.check_queries((count, queries, answers, warm), expected, 7)) == 1

    cold = list(answers)
    cold[sigma_at] = queries[sigma_at][2][0]
    # a lawless cold answer, and the cold digest no longer matches; the
    # lawful warm answer is not compared with a lawless cold one
    assert len(workloads.check_queries((count, queries, cold, list(answers)), expected, 7)) == 2
    assert len(workloads.check_queries((count + 1, queries, answers, answers), expected, 7)) == 1


def test_point_queries_unit_at_tiny_scope(monkeypatch):
    monkeypatch.setattr(workloads, "QUERY_SHAPE", "3,1/1")
    unit = workloads.run_point_queries(sc, seed=3, plan_size=4)
    count, queries, cold, warm = unit["answer"]
    assert unit["attempted"] == 2 * len(queries) == 64
    expected = {"tableaux": count, "digests": {}}
    assert workloads.check_queries(unit["answer"], expected, 3) == []
    assert unit["phases"]["query_p999_ms"] >= unit["phases"]["query_p50_ms"] > 0


# ---------------------------------------------------------------------------
# runner and tracer

def test_runner_counts_a_crashed_unit_as_failed():
    units = [{"attempted": 10, "failed": 0}, {"error": "exited 1"}]
    assert run.tally(units) == (11, 1)
    assert run.summarize([], [{"error": "exited 1"}]) == {}


def test_tracer_patches_every_binding_and_restores_them():
    _, modules = tracing.load_package()
    jdt, graph = sc.jdt, sc.graph
    originals = (sc.rectify, sc.operators.rectify, sc.involutions.rectify, graph.unprimed_lower)
    with tracing.Tracer(modules) as tracer:
        assert sc.operators.rectify is sc.involutions.rectify is sc.rectify is not originals[0]
        g = sc.build_graph(sc.SkewShape.parse("2,1/1"), 3)
        sc.verify_cactus(g)
    assert (sc.rectify, sc.operators.rectify, sc.involutions.rectify,
            graph.unprimed_lower) == originals
    assert jdt.rectify is originals[0]
    calls, total, self_s = tracer.stats["jdt.rectify"]
    assert calls > 0 and 0 <= self_s <= total
    assert tracer.calls("graph.build_graph") == 1
    assert tracer.counts["edges"] == len(g.edges)
    assert tracer.counts["shapes_built"] > 0 and tracer.counts["tableaux_built"] > 0


def test_printed_metric_names_match_benchmark_json():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    _, modules = tracing.load_package()
    with tracing.Tracer(modules) as tracer:
        pass
    layers = dict(tracing.layer_metrics(tracer, tracing.cache_census(modules)))
    layers.update({f"phase.{n}": (0, u) for n, u in run.PHASE_UNITS.items()})
    layers.update({"trace.overhead_s": (0, "s"), "trace.overhead_ratio": (0, "ratio")})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}
    unit = {"setup_s": 0.1, "peak_rss_mb": 1.0, "result_s": 1.0}
    e2e = run.summarize([], [unit])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: u for name, (_, u) in e2e.items()}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
