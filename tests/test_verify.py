"""Verification suite runners at reduced desk scope."""

import random
import time

import pytest

from shifted_crystal import (
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    build_graph,
    enumerate_tableaux,
    jdt,
    rectify,
    sigma,
    strict_partitions_inside,
    verify,
)
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


def test_run_braid_matches_the_per_tableau_composition():
    n = 3
    g = build_graph(SkewShape.parse("5,3,1"), n)
    want = []
    for vid, T in enumerate(g.vertices):
        a = sigma(sigma(sigma(T, 1, n), 2, n), 1, n)
        b = sigma(sigma(sigma(T, 2, n), 1, n), 2, n)
        if a != b:
            want.append({"witness": vid, "witness_word": str(T.reading_word(n)),
                         "i": 1, "j": 2, "sigma_iji": str(a.reading_word(n)),
                         "sigma_jij": str(b.reading_word(n))})
    assert want and run_braid("5,3,1", n)["violations"] == want


def test_run_braid_raises_when_sigma_leaves_the_graph(monkeypatch):
    outside = ShiftedTableau.parse("1", "1")
    monkeypatch.setattr(verify, "sigma", lambda T, i, n: outside)
    with pytest.raises(InvariantError, match="sigma_1 of .* is not a vertex"):
        run_braid("2,1", 3)


def test_run_knuth_small_scope():
    rep = run_knuth(max_len=4, values=2, bound="3,1", n_max=2, orders=10, seed=1)
    assert rep["ok"]
    assert rep["words"] > 50 and rep["classes"] > 5


def test_run_knuth_reports_what_it_checked():
    rep = run_knuth(max_len=3, values=2, bound="3,1", n_max=2, orders=4, seed=1)
    checked = rep["checked"]
    assert checked["words"] == rep["words"] and checked["tableaux"] == rep["tableaux"]
    assert checked["orders"] == 4
    # every order, the row order too, runs one slide per inner cell
    inner = sum(T.shape.inner.size
                for lam in strict_partitions_inside(StrictPartition((3, 1)))
                for mu in strict_partitions_inside(lam)
                for n in (1, 2)
                for T in enumerate_tableaux(SkewShape(lam, mu), n))
    assert checked["slides"]["orders"] == 5 * inner
    assert checked["slides"]["words"] > 0
    assert set(rep["seconds"]) == {"words", "orders"}


def _swap_top_numbers_away_from_the_first_corner(monkeypatch):
    """Break slide-order independence without breaking validity.

    A slide that does not start at the first inner corner swaps the cells of
    the two largest standard numbers, when they are not neighbours and their
    letters are distinct values, each its own value block.  The result is a
    different standard filling that still de-standardizes to a tableau.
    """
    real = jdt._SlideState.slide_inner_unchecked

    def slide(self, corner):
        away = corner != jdt._inner_corners(self.inner)[0]
        end = real(self, corner)
        vals, N = self.values, len(self.values)
        if away and N >= 3 and vals[N - 3] < vals[N - 2] < vals[N - 1]:
            cell = {num: c for c, num in self.entries.items()}
            a, b = cell[N - 1], cell[N]
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) > 1:
                self.entries[a], self.entries[b] = N, N - 1
        return end

    monkeypatch.setattr(jdt._SlideState, "slide_inner_unchecked", slide)


def test_run_knuth_reports_order_dependence(monkeypatch):
    _swap_top_numbers_away_from_the_first_corner(monkeypatch)
    rep = run_knuth(max_len=2, values=2, bound="4,3", n_max=3, orders=5, seed=1)
    assert not rep["ok"]
    hit = {"kind": "order_dependent", "shape": "4,3/3,1", "n": 3, "tableau": "2 / 1 3"}
    assert hit in rep["violations"]
    assert {v["kind"] for v in rep["violations"]} == {"order_dependent"}


def test_order_dependent_returns_the_differing_tableau(monkeypatch):
    T = ShiftedTableau.parse("4,3/3,1", "2 / 1 3")
    _swap_top_numbers_away_from_the_first_corner(monkeypatch)
    witness, _ = jdt.order_dependent(T, random.Random(1), 20)
    assert isinstance(witness, ShiftedTableau)
    assert witness != rectify(T)[0]


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
