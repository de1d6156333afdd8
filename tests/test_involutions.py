"""Star, evacuation, reversal, eta, and interval restrictions of eta."""

import pytest

from shifted_crystal import (
    IntervalPermutation,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    enumerate_tableaux,
    eta,
    eta_interval,
    evacuate,
    is_lrs,
    lrs_weight_counts,
    reversal,
    star,
    strict_partitions_inside,
    yamanouchi,
)

from oracles import knuth_equivalent


def test_interval_permutation():
    th = IntervalPermutation(2, 4)
    assert [th.index(i) for i in (1, 2, 3, 4)] == [1, 3, 2, 4]
    assert th.on_weight((5, 6, 7, 8)) == (5, 8, 7, 6)
    full = IntervalPermutation(1, 4)
    assert full.on_weight((1, 2, 3, 4)) == (4, 3, 2, 1)
    assert [full.index(i) for i in (1, 2, 3)] == [3, 2, 1]
    with pytest.raises(ValueError):
        IntervalPermutation(3, 3)


def test_star_derived_example():
    Y = yamanouchi((2, 1))
    S = star(Y, 2)
    assert str(S.shape) == "2,1/" and str(S) == "1 2' / 2"


def test_star_weight_reversal_and_shapes():
    for T in enumerate_tableaux(SkewShape.parse("2,1"), 2):
        S = star(T, 2)
        assert S.weight(2) == tuple(reversed(T.weight(2)))
        assert star(S, 2).shape == T.shape
    skew = ShiftedTableau.parse("3,1/1", "1 2' / 2")
    S = skew.restrict(1, 2)
    out = star(skew, 2)
    m = 3
    assert out.shape.outer == skew.shape.inner.complement(m)
    assert out.shape.inner == skew.shape.outer.complement(m)


def test_evacuate_golden():
    T = ShiftedTableau.parse("4,2", "1 1 2' 2 / 2 3")
    E = evacuate(T, 3)
    assert str(E) == "1 2' 2 3 / 2 3"
    assert evacuate(E, 3) == T
    one = ShiftedTableau.parse("1", "1")
    assert evacuate(one, 1) == one
    assert evacuate(yamanouchi((2, 1)), 2) == ShiftedTableau.parse("2,1", "1 2' / 2")
    with pytest.raises(ValueError):
        evacuate(ShiftedTableau.parse("2,1/1", "1 / 2"), 2)


def test_evacuate_involution_inside_4321():
    for nu in strict_partitions_inside(StrictPartition.parse("4,3,2,1")):
        shape = SkewShape(nu)
        for n in range(max(len(nu), 1), 5):
            for T in enumerate_tableaux(shape, n):
                E = evacuate(T, n)
                assert E.shape == T.shape
                assert E.weight(n) == tuple(reversed(T.weight(n)))
                assert evacuate(E, n) == T


def test_reversal_properties():
    for shape_text, n in [("2,1", 2), ("3,1", 3), ("3,1/1", 2), ("3,2/1", 3),
                          ("4,2/2", 2)]:
        shape = SkewShape.parse(shape_text)
        for T in enumerate_tableaux(shape, n):
            r = reversal(T, n)
            assert r.shape == T.shape
            assert reversal(r, n) == T
            assert r.weight(n) == tuple(reversed(T.weight(n)))
            assert knuth_equivalent(r.reading_word(n), star(T, n).reading_word(n))
            if shape.is_straight:
                assert r == evacuate(T, n)


def test_lrs_bijection_through_star_of_reversal():
    # T -> star(reversal(T)) maps LRS of shape lam/mu onto LRS of the
    # complement shape with the same weight; checked by counting both sides
    for lam_text, mu_text, n in [("3,1", "1", 2), ("3,2", "2", 2), ("4,2", "2", 2)]:
        lam = StrictPartition.parse(lam_text)
        mu = StrictPartition.parse(mu_text)
        m = lam.part(1)
        shape = SkewShape(lam, mu)
        mirror = SkewShape(mu.complement(m), lam.complement(m))
        for T in enumerate_tableaux(shape, n):
            if not is_lrs(T):
                continue
            out = star(reversal(T, n), n)
            assert out.shape == mirror
            assert is_lrs(out)
            assert out.weight(n) == T.weight(n)
        assert lrs_weight_counts(shape, n) == lrs_weight_counts(mirror, n)


def test_eta_highest_to_lowest_on_small_crystal():
    Y = yamanouchi((2, 1))
    assert eta(Y, 2) == ShiftedTableau.parse("2,1", "1 2' / 2")
    for T in enumerate_tableaux(SkewShape.parse("2,1"), 3):
        assert eta(eta(T, 3), 3) == T


def test_eta_interval_examples():
    n = 3
    for T in enumerate_tableaux(SkewShape.parse("2,1"), n):
        assert eta_interval(T, 1, n, n) == eta(T, n)
    n = 4
    for T in enumerate_tableaux(SkewShape.parse("2,1"), n):
        for p in range(1, n):
            for q in range(p + 1, n + 1):
                out = eta_interval(T, p, q, n)
                assert eta_interval(out, p, q, n) == T
                th = IntervalPermutation(p, q)
                assert out.weight(n) == th.on_weight(T.weight(n))
        # eta_{2,3} leaves the letters 1 and 4 in place
        out = eta_interval(T, 2, 3, n)
        assert out.restrict(1, 1) == T.restrict(1, 1)
        assert out.restrict(4, 4) == T.restrict(4, 4)
    with pytest.raises(ValueError):
        eta_interval(yamanouchi((2, 1)), 2, 2, 3)


def test_eta_interval_intertwining_on_second_graph():
    # the interval laws again, on B((3,1),3)
    from shifted_crystal import (
        primed_lower_tableau,
        primed_raise_tableau,
        unprimed_lower,
        unprimed_raise,
    )

    n = 3
    for T in enumerate_tableaux(SkewShape.parse("3,1"), n):
        for (p, q) in [(1, 2), (2, 3), (1, 3)]:
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
                    rhs = raise_op(T, th.index(i), n)
                    assert lower_op(out, i, n) == (
                        None if rhs is None else eta_interval(rhs, p, q, n))
