"""The acceptance battery: one test per criterion, at the stated scope.

Every check is exact (combinatorial data, no tolerances); the stated time
budgets are asserted as upper bounds.  The terminal summary prints one
PASS/FAIL line per criterion.
"""

import itertools
import time

from shifted_crystal import (
    IntervalPermutation,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    apply_program,
    build_graph,
    canonicalize,
    cactus_generators,
    enumerate_tableaux,
    eta,
    eta_interval,
    evacuate,
    interval_subgraph,
    is_highest,
    is_lowest,
    lrs_count,
    primed_lower_tableau,
    primed_raise_tableau,
    reversal,
    sigma,
    strict_partitions_inside,
    strict_partitions_of,
    unprimed_lower,
    unprimed_raise,
    verify_cactus,
    yamanouchi,
)
from shifted_crystal.verify import run_knuth, run_structure, run_symmetry

BOUND = StrictPartition.parse("4,3,2,1")
DESK_GRAPHS = (("2,1", 4), ("3,1", 3), ("3,2", 3))


def _elapsed(t0, budget):
    dt = time.time() - t0
    assert dt < budget, f"criterion exceeded its {budget}s budget ({dt:.1f}s)"


def _reduced_words(n):
    w0 = tuple(range(n, 0, -1))
    length = n * (n - 1) // 2
    words = []
    for seq in itertools.product(range(1, n), repeat=length):
        perm = list(range(1, n + 1))
        for i in seq:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        if tuple(perm) == w0:
            words.append(seq)
    return words


def test_criterion01_canonical_form_and_weight():
    """Canonical form and weight of the worked word and tableau."""
    t0 = time.time()
    w = canonicalize("1 2' 2' 1 1 2 3' 2' 2")
    assert str(w) == "1 2 2' 1 1 2 3 2' 2"
    T = ShiftedTableau.parse("6,4,2/3,1", "1 1 2' / 2 3' 3 / 3 3")
    assert str(T.reading_word()) == "3 3 2 3' 3 1 1 2'"
    assert T.weight(3) == (2, 2, 4)
    _elapsed(t0, 1.0)


def test_criterion02_evacuation_golden():
    """Evacuation of the worked straight tableau."""
    t0 = time.time()
    T = ShiftedTableau.parse("4,2", "1 1 2' 2 / 2 3")
    assert str(evacuate(T, 3)) == "1 2' 2 3 / 2 3"
    _elapsed(t0, 1.0)


def test_criterion03_braid_failure_golden():
    """The two reflection composites on the braid counterexample tableau."""
    t0 = time.time()
    T = ShiftedTableau.parse("5,3,1", "1 1 1 1 3' / 2 2 3' / 3")
    a = apply_program(T, "S1,S2,S1", 3)
    b = apply_program(T, "S2,S1,S2", 3)
    assert str(a.shape) == "5,3,1/" and str(b.shape) == "5,3,1/"
    assert str(a) == "1 1 1 2 3 / 2 3' 3 / 3"
    assert str(b) == "1 1 1 2' 3' / 2 3' 3 / 3"
    assert a != b
    _elapsed(t0, 10.0)


def test_criterion04_cactus_relations(graph_cache):
    """Zero cactus violations on the three desk graphs, plus the
    s_{1,3} s_{1,4} = s_{1,4} s_{2,4} identity pointwise."""
    t0 = time.time()
    for shape, n in DESK_GRAPHS:
        report = verify_cactus(graph_cache(shape, n))
        assert report["ok"], report["violations"][:3]
    g = graph_cache("2,1", 4)
    for T in g.vertices:
        lhs = eta_interval(eta_interval(T, 1, 4, 4), 1, 3, 4)
        rhs = eta_interval(eta_interval(T, 2, 4, 4), 1, 4, 4)
        assert lhs == rhs
    _elapsed(t0, 60.0)


def test_criterion05_sigma_properties(graph_cache):
    """Reflection involutivity, distant commutation, weight law, and
    preservation of components and strings on the desk graphs."""
    t0 = time.time()
    for shape, n in DESK_GRAPHS:
        g = graph_cache(shape, n)
        comp_of = {}
        for k, comp in enumerate(g.components):
            for vid in comp.vertex_ids:
                comp_of[vid] = k
        string_of = {}
        for i in range(1, n):
            sub = interval_subgraph(g, i, i + 1)
            for k, comp in enumerate(sub.components):
                for vid in comp.vertex_ids:
                    string_of[(vid, i)] = k
        for vid, T in enumerate(g.vertices):
            wt = T.weight(n)
            for i in range(1, n):
                out = sigma(T, i, n)
                oid = g.vertex_id(out)
                assert sigma(out, i, n) == T
                expect = list(wt)
                expect[i - 1], expect[i] = expect[i], expect[i - 1]
                assert list(out.weight(n)) == expect
                assert comp_of[oid] == comp_of[vid]
                assert string_of[(oid, i)] == string_of[(vid, i)]
                for j in range(i + 2, n):
                    assert sigma(sigma(T, j, n), i, n) == sigma(sigma(T, i, n), j, n)
    _elapsed(t0, 60.0)


def test_criterion06_sigma_is_interval_eta():
    """sigma_i equals the interval restriction of eta on straight crystals."""
    t0 = time.time()
    for nu in ((2, 1), (3, 1), (3, 2)):
        for T in enumerate_tableaux(SkewShape(StrictPartition(nu)), 3):
            for i in (1, 2):
                assert sigma(T, i, 3) == eta_interval(T, i, i + 1, 3)
    _elapsed(t0, 30.0)


def test_criterion07_long_element():
    """Every reduced word of the longest permutation sends each component's
    highest weight element to its lowest, which is the reversal."""
    t0 = time.time()
    words3 = _reduced_words(3)
    words4 = _reduced_words(4)
    assert len(words3) == 2 and len(words4) == 16
    for n, words in ((3, words3), (4, words4)):
        for lam in strict_partitions_inside(BOUND):
            for mu in strict_partitions_inside(lam):
                shape = SkewShape(lam, mu)
                for T in enumerate_tableaux(shape, n):
                    if not is_highest(T, n):
                        continue
                    low = reversal(T, n)
                    assert is_lowest(low, n)
                    for seq in words:
                        out = T
                        for i in seq:
                            out = sigma(out, i, n)
                        assert out == low, (str(shape), n, seq, str(T))
    _elapsed(t0, 120.0)


def test_criterion08_eta_axioms_and_interval_laws(graph_cache):
    """Defining axioms of eta and the interval intertwining laws on
    B((2,1),4); involutivity; highest maps to lowest."""
    t0 = time.time()
    g = graph_cache("2,1", 4)
    n = 4
    th_full = IntervalPermutation(1, n)
    for T in g.vertices:
        eT = eta(T, n)
        assert eta(eT, n) == T
        assert eT.weight(n) == th_full.on_weight(T.weight(n))
        for i in range(1, n):
            for raise_op, lower_op in (
                (primed_raise_tableau, primed_lower_tableau),
                (unprimed_raise, unprimed_lower),
            ):
                rhs = lower_op(T, n - i, n)
                assert raise_op(eT, i, n) == (None if rhs is None else eta(rhs, n))
                rhs = raise_op(T, n - i, n)
                assert lower_op(eT, i, n) == (None if rhs is None else eta(rhs, n))
        for (p, q) in cactus_generators(n):
            th = IntervalPermutation(p, q)
            out = eta_interval(T, p, q, n)
            assert out.weight(n) == th.on_weight(T.weight(n))
            for i in range(p, q):
                for raise_op, lower_op in (
                    (primed_raise_tableau, primed_lower_tableau),
                    (unprimed_raise, unprimed_lower),
                ):
                    rhs = lower_op(T, th.index(i), n)
                    assert raise_op(out, i, n) == (
                        None if rhs is None else eta_interval(rhs, p, q, n))
    comp = g.components[0]
    assert eta(g.vertices[comp.highest], n) == g.vertices[comp.lowest]
    _elapsed(t0, 30.0)


def test_criterion09_knuth_and_slide_invariance():
    """Knuth classes match rectification fibers on all words up to length 6
    over [3]'; rectification is slide-order independent on every skew
    tableau inside (4,3,2,1) for n up to 3, with 50 random orders."""
    t0 = time.time()
    report = run_knuth(max_len=6, values=3, bound="4,3,2,1", n_max=3,
                       orders=50, seed=20260811)
    assert report["ok"], report["violations"][:3]
    assert report["words"] == 9094 and report["classes"] == 255
    # the same work at every seed: one slide per inner cell, in every order
    assert report["checked"]["slides"] == {"words": 103135, "orders": 376227}
    _elapsed(t0, 300.0)


def test_criterion10_lr_symmetry_and_component_counts(graph_cache):
    """f^lam_{mu nu} equals its complement mirror everywhere inside
    (4,3,2,1), and component counts by highest weight reproduce it."""
    t0 = time.time()
    report = run_symmetry(bound="4,3,2,1")
    assert report["ok"], report["violations"][:3]
    assert list(report) == ["suite", "checked", "violations", "ok", "summary"]
    for lam in strict_partitions_inside(BOUND):
        for mu in strict_partitions_inside(lam):
            g = build_graph(SkewShape(lam, mu), 3)
            by_weight = {}
            for comp in g.components:
                assert len(comp.highest_ids) == 1
                wt = g.vertices[comp.highest].weight(3)
                by_weight[wt] = by_weight.get(wt, 0) + 1
            for nu in strict_partitions_of(lam.size - mu.size):
                if len(nu) > 3:
                    continue
                wt = tuple(nu.parts) + (0,) * (3 - len(nu))
                assert by_weight.get(wt, 0) == lrs_count(lam, mu, nu), (
                    str(lam), str(mu), str(nu))
    _elapsed(t0, 300.0)


def test_criterion11_structure(graph_cache):
    """Unique extremal elements per component, clean string arrangements,
    and connectivity of straight crystals with Yamanouchi highest weight."""
    t0 = time.time()
    report = run_structure(bound="4,3,2,1", n=3, extra=DESK_GRAPHS)
    assert report["ok"], report["violations"][:3]
    assert report["graphs"] == 129
    assert list(report) == ["suite", "graphs", "violations", "ok", "summary"]
    for shape, n in DESK_GRAPHS:
        g = graph_cache(shape, n)
        assert len(g.components) == 1
        assert g.vertices[g.components[0].highest] == yamanouchi(
            SkewShape.parse(shape).outer)
    _elapsed(t0, 120.0)
