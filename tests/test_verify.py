"""Verification suite runners at reduced desk scope, and jdt.order_dependent's
tree of corner choices against the copy-per-order loop it replaced."""

import itertools
import random
import time

import pytest

from shifted_crystal import (
    CrystalGraph,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    build_graph,
    enumerate_tableaux,
    graph,
    jdt,
    rectify,
    sigma,
    strict_partitions_inside,
    verify,
    yamanouchi,
)
from shifted_crystal.core import InvariantError, Word, canonicalize_codes
from shifted_crystal.operators import StringDescriptor
from shifted_crystal.verify import (
    _canonical_words,
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


def test_run_braid_over_the_cap_names_the_setting(monkeypatch):
    with pytest.raises(ValueError, match="more than 10 vertices; raise max_vertices to override"):
        run_braid("5,3,1", 3, max_vertices=10)
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", "10")
    with pytest.raises(ValueError, match="raise SHIFTED_CRYSTAL_MAX_VERTICES to override"):
        run_braid("5,3,1", 3)


def test_suites_leave_the_edge_tuple_underived(monkeypatch):
    g = build_graph(SkewShape.parse("3,1"), 3)
    assert graph.verify_cactus(g)["graph"]["edges"] == graph._edge_count(g) > 0
    assert _structure_issues(g) == []
    assert "edges" not in g.__dict__
    graphs = []

    def kept(build):
        def wrapped(*args):
            graphs.append(build(*args))
            return graphs[-1]
        return wrapped

    monkeypatch.setattr(verify, "build_graph", kept(verify.build_graph))
    monkeypatch.setattr(verify, "vertex_graph", kept(verify.vertex_graph))
    assert run_cactus("2,1", 3)["ok"]
    assert run_structure(bound="2,1", n=2, extra=())["ok"]
    assert not run_braid("5,3,1", 3)["ok"]
    assert len(graphs) > 2 and all("edges" not in h.__dict__ for h in graphs)
    # the braid search runs on the vertices alone
    assert graph._edge_count(graphs[-1]) == 0


def test_run_braid_raises_when_sigma_leaves_the_graph(monkeypatch):
    # an all-primed word is never canonical, so never a vertex's word
    # the sigma lookup is graph.target_ids, which reads graph._colour_one
    real = graph._colour_one
    monkeypatch.setattr(graph, "_colour_one",
                        lambda sub: real(sub)._replace(sigma=(1,) * len(sub)))
    with pytest.raises(InvariantError, match="sigma_1 of .* is not a vertex"):
        run_braid("2,1", 3)
    monkeypatch.setattr(graph, "_colour_one", lambda sub: real(sub)._replace(sigma=None))
    with pytest.raises(InvariantError, match="sigma_1 fell off the crystal"):
        run_braid("2,1", 3)


def test_canonical_words_match_every_code_tuple_canonicalized():
    for max_len in range(7):
        for values in range(4):
            alphabet = range(1, 2 * values + 1)
            words = {canonicalize_codes(codes)
                     for L in range(max_len + 1)
                     for codes in itertools.product(alphabet, repeat=L)}
            want = [Word(c, values) for c in sorted(words, key=lambda c: (len(c), c))]
            assert _canonical_words(max_len, values) == want, (max_len, values)


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
    real = jdt._SlideState.slide_in

    def slide(self, i):
        away = i + 1 != jdt._inner_corners(self.inner)[0][0]
        end = real(self, i)
        vals, N = self.values, len(self.values)
        if away and N >= 3 and vals[N - 3] < vals[N - 2] < vals[N - 1]:
            # rows[r][k] is cell (r + 1, r + 1 + k)
            cell = {num: (r, k) for r, row in enumerate(self.rows) for k, num in enumerate(row)}
            (ra, ka), (rb, kb) = cell[N - 1], cell[N]
            if abs(ra - rb) + abs(ra + ka - rb - kb) > 1:
                self.rows[ra][ka], self.rows[rb][kb] = N, N - 1
        return end

    monkeypatch.setattr(jdt._SlideState, "slide_in", slide)


def test_run_knuth_reports_order_dependence(monkeypatch):
    _swap_top_numbers_away_from_the_first_corner(monkeypatch)
    rep = run_knuth(max_len=2, values=2, bound="4,3", n_max=3, orders=5, seed=1)
    assert not rep["ok"]
    hit = {"kind": "order_dependent", "shape": "4,3/3,1", "n": 3, "tableau": "2 / 1 3"}
    assert hit in rep["violations"]
    assert {v["kind"] for v in rep["violations"]} == {"order_dependent"}


# the words "", "1", "1 1'" and "1 1" over [1]', and the three tableaux over
# [1]' on the shapes inside (1)
_TINY_KNUTH = dict(max_len=2, values=1, bound="1", n_max=1, orders=1)


def test_run_knuth_reports_an_escaped_neighbour(monkeypatch):
    real = verify.knuth_neighbors
    monkeypatch.setattr(verify, "knuth_neighbors", lambda w: real(w) | {Word.parse("3")}
                        if w.codes == (2,) else real(w))
    rep = run_knuth(**_TINY_KNUTH)
    assert rep["violations"] == [{"kind": "escaped", "word": "1", "to": "3"}]
    assert not rep["ok"]


def test_run_knuth_reports_rectifications_that_split_or_join_classes(monkeypatch):
    # "1 1'" is made to rectify like "1": its class, with "1 1", then has
    # two rectifications, and that rectification two classes
    real = verify.rectify
    monkeypatch.setattr(verify, "rectify", lambda T: (yamanouchi((1,)), real(T)[1])
                        if T.word_codes == (2, 1) else real(T))
    rep = run_knuth(**_TINY_KNUTH)
    assert rep["violations"] == [{"kind": "rect_two_classes", "word": "1 1'"},
                                 {"kind": "class_two_rects", "word": "1 1"}]
    assert not rep["ok"]


def test_order_dependent_returns_the_differing_tableau(monkeypatch):
    T = ShiftedTableau.parse("4,3/3,1", "2 / 1 3")
    _swap_top_numbers_away_from_the_first_corner(monkeypatch)
    witness, _ = jdt.order_dependent(T, random.Random(1), 20)
    assert isinstance(witness, ShiftedTableau)
    assert witness != rectify(T)[0]


def _copy_per_order(T, rng, orders):
    """order_dependent before the tree: every order rectifies its own copy of
    the start state.  Also returns the distinct prefixes of the corner rows
    the orders chose."""
    start = jdt._SlideState(T)
    base = jdt._rectify_state(start.copy())
    base_tableau = base.finish()
    slides = len(base.steps)
    prefixes = set()
    for _ in range(orders):
        state = jdt._rectify_state(start.copy(), rng)
        slides += len(state.steps)
        rows = tuple(r - 1 for _, (r, _), _ in state.steps)
        prefixes.update(rows[:k] for k in range(1, len(rows) + 1))
        if state.rows == base.rows:
            continue
        other = state.finish()
        if other != base_tableau:
            return (other, slides), prefixes
    return (None, slides), prefixes


@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "order-dependent"])
@pytest.mark.parametrize("seed", [0, 7])
def test_order_tree_matches_the_copy_per_order_loop(monkeypatch, seed, faulty):
    """Criterion 9's scope: every tableau inside (4,3,2,1) with n <= 3, 50
    orders.  Same witness, slides and random draws as the loop, with sound
    slides and with order-dependent ones, and one slide_in per distinct
    choice prefix plus the row-order path."""
    if faulty:
        _swap_top_numbers_away_from_the_first_corner(monkeypatch)
    slide_in, slid = jdt._SlideState.slide_in, [0]

    def counted(self, i):
        slid[0] += 1
        return slide_in(self, i)

    monkeypatch.setattr(jdt._SlideState, "slide_in", counted)
    rng_tree, rng_loop = random.Random(seed), random.Random(seed)
    witnesses = 0
    for lam in strict_partitions_inside(StrictPartition((4, 3, 2, 1))):
        for mu in strict_partitions_inside(lam):
            for n in (1, 2, 3):
                for T in enumerate_tableaux(SkewShape(lam, mu), n):
                    want, prefixes = _copy_per_order(T, rng_loop, 50)
                    slid[0] = 0
                    got = jdt.order_dependent(T, rng_tree, 50)
                    assert got == want, str(T)
                    assert rng_tree.getstate() == rng_loop.getstate(), str(T)
                    assert slid[0] == T.shape.inner.size + len(prefixes), str(T)
                    witnesses += want[0] is not None
    assert (witnesses > 0) == faulty


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


def test_structure_classifies_each_string_once(monkeypatch):
    g = build_graph(SkewShape.parse("2,1"), 3)
    strings = [(i, comp) for i in range(1, g.n) for comp in g.components_in((i,))]
    assert len(strings) < len(g.vertices) * (g.n - 1)

    def broken(T, i, n):
        raise InvariantError("bad string")

    monkeypatch.setattr(verify, "classify_string", broken)
    issues = _structure_issues(g)
    assert [(x["color"], x["tableau"]) for x in issues] == [
        (i, str(g.vertices[comp.vertex_ids[0]])) for i, comp in strings]
    # a string that misses members of its component is reported once too
    monkeypatch.setattr(verify, "classify_string",
                        lambda T, i, n: StringDescriptor(i, "collapsed", [[T]]))
    issues = _structure_issues(g)
    assert {x["kind"] for x in issues} == {"string_members"}
    assert len(issues) == sum(1 for _, comp in strings if len(comp) > 1)


def _structure_with_edges(monkeypatch, edges):
    """run_structure inside (2) at n = 2, with B((2),2)'s edges replaced:
    its vertices are 0 = "1 1", 1 = "1 2" and 2 = "2 2"."""
    real = verify.build_graph

    def build(shape, n):
        g = real(shape, n)
        return CrystalGraph(g.shape, n, g.vertices, edges) if shape == SkewShape((2,)) else g

    monkeypatch.setattr(verify, "build_graph", build)
    return run_structure(bound="2", n=2, extra=())


def test_run_structure_reports_two_highest_elements(monkeypatch):
    # 0 and 1 both lower to 2: one component with two highest elements,
    # reported once and not asked for its highest element
    rep = _structure_with_edges(monkeypatch, [(0, 2, 1, False), (1, 2, 1, True)])
    assert rep["violations"] == [{"kind": "extremal_count", "shape": "2/", "n": 2,
                                  "highest": 2, "lowest": 1}]
    assert not rep["ok"]


def test_run_structure_reports_a_disconnected_straight_graph(monkeypatch):
    rep = _structure_with_edges(monkeypatch, [(1, 2, 1, False), (1, 2, 1, True)])
    string = {"kind": "string_members", "shape": "2/", "n": 2, "color": 1, "members": 3}
    assert rep["violations"] == [
        {**string, "tableau": "1 1", "component": 1},
        {**string, "tableau": "1 2", "component": 2},
        {"kind": "disconnected_straight", "shape": "2/", "n": 2, "components": 2},
    ]
    assert not rep["ok"]


def test_run_structure_reports_a_highest_element_off_yamanouchi(monkeypatch):
    real = verify.yamanouchi
    monkeypatch.setattr(verify, "yamanouchi",
                        lambda nu: real((1,)) if nu == (2,) else real(nu))
    rep = run_structure(bound="2", n=2, extra=())
    assert rep["violations"] == [{"kind": "highest_not_yamanouchi", "shape": "2/", "n": 2}]
    assert not rep["ok"]


def test_failing_reports_keep_the_contract(monkeypatch):
    """One failing run per suite: "violations", "ok" and "summary" close the
    report, and the summary ends in the suite's failure text."""
    reports = []
    with monkeypatch.context() as m:
        _swap_top_numbers_away_from_the_first_corner(m)
        reports.append(run_knuth(max_len=2, values=2, bound="4,3", n_max=3, orders=5, seed=1))
    with monkeypatch.context() as m:
        real, calls = verify.lrs_count, itertools.count()
        # the first coefficient reads one more than its mirror
        m.setattr(verify, "lrs_count", lambda lam, mu, nu: real(lam, mu, nu) + (next(calls) == 0))
        reports.append(run_symmetry(bound="2,1"))
    with monkeypatch.context() as m:
        def broken(T, i, n):
            raise InvariantError("bad string")
        m.setattr(verify, "classify_string", broken)
        reports.append(run_structure(bound="2,1", n=2, extra=()))
    reports.append(run_braid("5,3,1", 3))
    assert [(list(r), r["summary"], len(r["violations"]), r["ok"]) for r in reports] == [
        (["suite", "words", "classes", "shapes", "tableaux", "checked", "seconds",
          "violations", "ok", "summary"],
         "knuth vs rectification on 9 words (6 classes) and slide-order invariance on "
         "1018 tableaux x 5 orders: 1 mismatches", 1, False),
        (["suite", "checked", "violations", "ok", "summary"],
         "LR symmetry on 11 coefficient pairs inside (2,1): 1 mismatches", 1, False),
        (["suite", "graphs", "violations", "ok", "summary"],
         "structure of 10 desk graphs: 10 issues", 10, False),
        (["suite", "graph", "checked", "violations", "ok", "summary"],
         "braid relations on B(5,3,1,3): fail at 46 vertices", 46, False),
    ]


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
