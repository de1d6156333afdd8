"""Star, evacuation, reversal, eta, and interval restrictions of eta."""

import pytest
from hypothesis import given, settings, strategies as st

from shifted_crystal import (
    EMPTY_TABLEAU,
    IntervalPermutation,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    enumerate_tableaux,
    eta,
    eta_interval,
    evacuate,
    involutions,
    is_lrs,
    jdt,
    lrs_weight_counts,
    rectify,
    reversal,
    star,
    strict_partitions_inside,
    yamanouchi,
)
from shifted_crystal.cli import main
from shifted_crystal.core import InvariantError, canonicalize_codes
from shifted_crystal.jdt import _word_tableau, strip_tableau

from oracles import knuth_equivalent, reversal_by_composition, star_by_cells


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


ORACLE_SHAPES = ("1", "2,1", "3,1", "3,2", "4,2,1",
                 "3,1/1", "3,2/1", "4,2/2", "4,2,1/2", "6,4,1/3,1")


def test_reversal_matches_the_composition_oracle():
    # one standard state against rectify, evacuate and unrectify, each on
    # its own tableau
    for shape_text in ORACLE_SHAPES:
        shape = SkewShape.parse(shape_text)
        for n in range(1, 5):
            for T in enumerate_tableaux(shape, n):
                assert reversal(T, n) == reversal_by_composition(T, n), (T, n)


def test_star_of_a_slide_state_is_star():
    # star reflects the standard form and de-standardizes; the oracle
    # reflects cells and complements letters
    for shape_text in ORACLE_SHAPES:
        shape = SkewShape.parse(shape_text)
        for n in range(1, 5):
            for T in enumerate_tableaux(shape, n):
                assert star(T, n) == star_by_cells(T, n), (T, n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 8), max_size=10), st.integers(0, 2))
def test_reversal_matches_the_composition_oracle_on_word_tableaux(codes, extra):
    # both word layouts of a random canonical word over [4]', at an alphabet
    # bound at or above its largest letter
    codes = canonicalize_codes(codes)
    n = max([(x + 1) // 2 for x in codes] + [1]) + extra
    for T in (strip_tableau(Word(codes, n)), _word_tableau(codes)):
        assert reversal(T, n) == reversal_by_composition(T, n), (T, n)


def test_reversal_of_a_straight_tableau_is_its_evacuation(monkeypatch):
    T = ShiftedTableau.parse("4,2", "1 1 2' 2 / 2 3")
    calls = []
    monkeypatch.setattr(involutions, "evacuate", lambda T, n: calls.append(T) or evacuate(T, n))
    assert reversal(T, 3) == evacuate(T, 3) and calls == [T]


def test_reversal_of_an_empty_skew_tableau_keeps_its_shape():
    for shape_text in ("2/2", "3,1/3,1"):
        T = ShiftedTableau(SkewShape.parse(shape_text), ())
        assert reversal(T, 2) == T == reversal_by_composition(T, 2)
    assert reversal(EMPTY_TABLEAU, 1) == EMPTY_TABLEAU


def test_reversal_refuses_values_above_n():
    T = ShiftedTableau.parse("3,1/1", "1 2 / 3")
    for fn in (reversal, reversal_by_composition):
        with pytest.raises(ValueError) as exc:
            fn(T, 2)
        assert str(exc.value) == "tableau uses values above n=2"


# ---------------------------------------------------------------------------
# guards: each fault the theory rules out is an InvariantError, reached here
# by injecting it

def _off_the_staircase(monkeypatch):
    # every complement keeps its largest part only
    real = jdt._complement
    monkeypatch.setattr(jdt, "_complement", lambda parts, m: real(parts, m)[:1])


def test_star_of_a_state_refuses_a_cell_off_the_complement_shape(monkeypatch):
    # 1 1 / 2 on (3, 1)/(1) rectifies to shape (2, 1), which stars into the
    # stair (2, 1), here cut to (2); cell (1, 1) goes to (2, 2)
    _off_the_staircase(monkeypatch)
    with pytest.raises(InvariantError) as exc:
        reversal(ShiftedTableau.parse("3,1/1", "1 1 / 2"), 2)
    assert str(exc.value) == "star sends cell (1, 1) off the complement shape"


def test_reversal_refuses_an_evacuation_that_changes_the_shape(monkeypatch):
    # 1 1 1 / 2 on (4, 1)/(1) rectifies to shape (3, 1); the second
    # rectification is skipped, so the shape stays starred: (3, 2, 1)/(2)
    real, calls = involutions._rectify_state, []
    monkeypatch.setattr(involutions, "_rectify_state",
                        lambda state: calls.append(state) or
                        (real(state) if len(calls) == 1 else state))
    with pytest.raises(InvariantError) as exc:
        reversal(ShiftedTableau.parse("4,1/1", "1 1 1 / 2"), 2)
    assert str(exc.value) == "evacuation changed the shape"


def test_reversal_refuses_a_replay_that_misses_its_start_cell(monkeypatch):
    # the first slide of the rectification is recorded as starting at (9, 9)
    T = ShiftedTableau.parse("3,1/1", "1 2' / 2")
    _, start, end = rectify(T)[1].steps[0]
    real = involutions._rectify_state

    def tampered(state):  # the second rectification's steps are not replayed
        real(state)
        if state.steps:
            state.steps[0] = ("inner", (9, 9), end)
        return state

    monkeypatch.setattr(involutions, "_rectify_state", tampered)
    with pytest.raises(InvariantError) as exc:
        reversal(T, 2)
    assert str(exc.value) == (f"record does not match tableau: outer slide from {end} "
                              f"ended at {start}, expected (9, 9)")


def test_reversal_command_exits_3_on_an_internal_error(monkeypatch, tmp_path, capsys):
    _off_the_staircase(monkeypatch)
    f = tmp_path / "t.txt"
    f.write_text("3,1/1\n1 1 / 2\n", encoding="utf-8")
    assert main(["reversal", "--tableau", str(f), "--n", "2"]) == 3
    assert capsys.readouterr() == (
        "", "internal error: star sends cell (1, 1) off the complement shape\n")


@pytest.mark.parametrize("parts, message", [
    ((3, 1), "star reflection does not fill the complement shape"),
    ((3,), "star sends cell (1, 1) off the complement shape"),
], ids=["size", "cell"])
def test_star_refuses_a_complement_it_does_not_fill(monkeypatch, parts, message):
    # star(Y((2, 1)), 2) has shape (2, 1): the empty inner part list
    # complements to the outer parts, here (3, 1), too large, or (3), of the
    # right size but with no cell (2, 2) for (1, 1) to go to
    monkeypatch.setattr(jdt, "_complement", lambda have, m: [] if have else list(parts))
    with pytest.raises(InvariantError) as exc:
        star(yamanouchi((2, 1)), 2)
    assert str(exc.value) == message


def test_evacuate_refuses_a_rectification_of_another_shape(monkeypatch):
    monkeypatch.setattr(involutions, "rectify", lambda T: (yamanouchi((1,)), None))
    with pytest.raises(InvariantError) as exc:
        evacuate(yamanouchi((2, 1)), 2)
    assert str(exc.value) == "evacuation changed the shape"


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
