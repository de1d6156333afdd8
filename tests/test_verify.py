"""Verification suite runners at reduced desk scope."""

import time

import pytest

from shifted_crystal import SkewShape, build_graph, verify
from shifted_crystal.core import InvariantError
from shifted_crystal.verify import (
    _structure_issues,
    run_braid,
    run_cactus,
    run_knuth,
    run_structure,
    run_symmetry,
)


def test_run_cactus_small():
    rep = run_cactus("2,1", 3)
    assert rep["ok"]
    assert "no violations" in rep["summary"]


def test_run_braid_finds_the_witness():
    rep = run_braid("5,3,1", 3)
    assert not rep["ok"]
    hits = [
        v for v in rep["violations"]
        if v["witness_word"] == "3 2 2 3' 1 1 1 1 3'"
        and v["sigma_iji"] == "3 2 3' 3 1 1 1 2 3"
        and v["sigma_jij"] == "3 2 3' 3 1 1 1 2' 3'"
    ]
    assert hits


def test_run_braid_clean_on_tiny_graph():
    rep = run_braid("2,1", 3)
    assert rep["ok"]


def test_run_knuth_small_scope():
    rep = run_knuth(max_len=4, values=2, bound="3,1", n_max=2, orders=10, seed=1)
    assert rep["ok"]
    assert rep["words"] > 50 and rep["classes"] > 5


def test_run_symmetry_small_scope():
    rep = run_symmetry(bound="3,2,1")
    assert rep["ok"] and rep["checked"] > 20


def test_run_structure_small_scope():
    rep = run_structure(bound="3,1", n=2, extra=(("2,1", 3),))
    assert rep["ok"] and rep["graphs"] > 5


def test_structure_reports_invariant_errors_and_raises_the_rest(monkeypatch):
    g = build_graph(SkewShape.parse("2,1"), 3)

    def broken(exc):
        def classify(T, i, n):
            raise exc
        return classify

    monkeypatch.setattr(verify, "classify_string", broken(InvariantError("bad string")))
    issues = _structure_issues(g)
    assert issues and {i["kind"] for i in issues} == {"string_arrangement"}
    assert issues[0]["error"] == "bad string"
    # a programming error is not a violation found
    monkeypatch.setattr(verify, "classify_string", broken(TypeError("a bug")))
    with pytest.raises(TypeError):
        _structure_issues(g)


def test_graph_suites_at_scale_within_budget():
    """Cactus and braid on B((5,3,1),5) together in under 5 s (7.3 s before
    the operators were keyed on subwords, 2.4 s after, on a 2-core host)."""
    start = time.perf_counter()
    cactus = run_cactus("5,3,1", 5)
    braid = run_braid("5,3,1", 5)
    elapsed = time.perf_counter() - start
    assert cactus["graph"]["vertices"] == 4560 and cactus["ok"]
    assert braid["graph"]["vertices"] == 4560 and len(braid["violations"]) == 3930
    assert elapsed < 5.0, f"cactus + braid on B((5,3,1),5) took {elapsed:.2f} s"
