"""Slides, records, rectification, Knuth moves, Yamanouchi, ballot tests."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from shifted_crystal import (
    ShiftedTableau,
    SlideRecord,
    SkewShape,
    StrictPartition,
    Word,
    enumerate_tableaux,
    inner_slide,
    is_lrs,
    knuth_neighbors,
    outer_slide,
    rectify,
    replay,
    strict_partitions_inside,
    unrectify,
    yamanouchi,
)
from shifted_crystal.core import canonicalize_codes, shared_shape
from shifted_crystal.jdt import addable_cells, inner_corners, strip_tableau

from oracles import knuth_equivalent


def test_inner_corners_and_addable():
    sh = SkewShape.parse("6,4,2/3,1")
    assert inner_corners(sh) == [(1, 3), (2, 2)]
    assert inner_corners(SkewShape.parse("3,1")) == []
    assert addable_cells(StrictPartition.parse("2")) == [(1, 3), (2, 2)]
    assert addable_cells(StrictPartition.parse("")) == [(1, 1)]


def test_outer_slide_starts_at_the_addable_cells_only():
    # every cell near the shape, against the listed addable cells
    for shape_text in ("", "1", "2", "2,1", "3,1", "4,2,1"):
        T = yamanouchi(StrictPartition.parse(shape_text))
        addable = addable_cells(T.shape.outer)
        for corner in [(r, c) for r in range(-1, 6) for c in range(-1, 8)]:
            if corner in addable:
                assert outer_slide(T, corner).shape.inner.size == 1
                continue
            with pytest.raises(ValueError) as exc:
                outer_slide(T, corner)
            assert str(exc.value) == f"{corner} cannot start an outer slide on {T.shape.outer}"


def test_single_slide_golden():
    T = ShiftedTableau.parse("2,1/1", "1 / 2")
    out = inner_slide(T, (1, 1))
    assert str(out.shape) == "2/" and str(out) == "1 2"
    # straight shape: no inner corner to start from
    with pytest.raises(ValueError):
        inner_slide(yamanouchi((2, 1)), (1, 1))


def test_slide_reversibility_at_matching_corners():
    rng = random.Random(7)
    for shape_text, n in [("3,1/1", 2), ("3,2/1", 3), ("4,2/2", 3)]:
        shape = SkewShape.parse(shape_text)
        for T in enumerate_tableaux(shape, n):
            corner = sorted(inner_corners(T.shape))[0]
            slid = inner_slide(T, corner)
            # the slide vacated exactly one outer cell
            gone = set(T.shape.cell_set) - set(slid.shape.cell_set) - {corner}
            vacated = (set(T.shape.cell_set) | {corner}) - set(slid.shape.cell_set)
            assert len(vacated) == 1
            back = outer_slide(slid, vacated.pop())
            assert back == T


def test_single_slides_preserve_knuth_class():
    for shape_text, n in [("3,1/1", 2), ("3,2/1", 2)]:
        shape = SkewShape.parse(shape_text)
        for T in enumerate_tableaux(shape, n):
            corner = sorted(inner_corners(T.shape))[0]
            out = inner_slide(T, corner)
            assert knuth_equivalent(T.reading_word(n), out.reading_word(n))


def test_rectify_golden_and_records():
    T = ShiftedTableau.parse("2,1/1", "1 / 2")
    R, rec = rectify(T)
    assert str(R) == "1 2" and R.weight(2) == (1, 1)
    assert len(rec) == 1
    assert unrectify(R, rec) == T
    again, rec2 = replay(T, rec)
    assert again == R and rec2 == rec

    straight = yamanouchi((3, 1))
    R2, rec2 = rectify(straight)
    assert R2 == straight and len(rec2) == 0
    assert unrectify(R2, rec2) == straight


def test_rectify_order_invariance_sample():
    rng = random.Random(11)
    for shape_text, n in [("3,1/1", 2), ("4,2/2", 3), ("4,3,1/3,1", 3)]:
        shape = SkewShape.parse(shape_text)
        for T in enumerate_tableaux(shape, n):
            base = rectify(T)[0]
            for _ in range(25):
                assert rectify(T, rng=rng)[0] == base


def test_unrectify_roundtrip_full_shape():
    for T in enumerate_tableaux(SkewShape.parse("3,1/1"), 2):
        R, rec = rectify(T)
        assert unrectify(R, rec) == T


def test_unrectify_mismatch_errors():
    T = ShiftedTableau.parse("2,1/1", "1 / 2")
    _, rec = rectify(T)
    # (2,2) is not addable to the shape (1), so the record cannot replay
    with pytest.raises(ValueError):
        unrectify(yamanouchi((1,)), rec)
    with pytest.raises(ValueError):
        unrectify(yamanouchi((2,)), rec.reversed())


def test_unrectify_reports_a_slide_that_ends_elsewhere():
    # the record's outer slide starts at (2, 2), an addable cell of 2/1 too,
    # but there the hole stops outside the inner cell, at (1, 2)
    _, rec = rectify(ShiftedTableau.parse("2,1/1", "1' / 1"))
    assert rec == SlideRecord([("inner", (1, 1), (2, 2))])
    with pytest.raises(ValueError) as exc:
        unrectify(ShiftedTableau.parse("2/1", "1"), rec)
    assert str(exc.value) == ("record does not match tableau: outer slide from (2, 2) "
                              "ended at (1, 2), expected (1, 1)")


def test_replay_checks_the_corners_it_is_given():
    T = ShiftedTableau.parse("2,1/1", "1 / 2")
    with pytest.raises(ValueError):
        replay(T, SlideRecord([("inner", (2, 2), (2, 2))]))
    with pytest.raises(ValueError):
        replay(T, SlideRecord([("outer", (3, 3), (3, 3))]))


def test_slide_results_share_their_shapes():
    straight, skew = {}, []
    for T in enumerate_tableaux(SkewShape.parse("4,2/2"), 3):
        R, rec = rectify(T)
        assert R.shape == SkewShape(R.shape.outer.parts)
        assert straight.setdefault(R.shape.outer.parts, R.shape) is R.shape
        skew.append(unrectify(R, rec).shape)
    assert len(straight) > 1 and all(sh is skew[0] for sh in skew)


def test_record_json_shape():
    T = ShiftedTableau.parse("2,1/1", "1 / 2")
    _, rec = rectify(T)
    assert rec.to_json_obj() == [["inner", 1, 1]]
    assert rec.reversed().steps[0][0] == "outer"


def test_strip_tableau_and_word_rectification():
    w = Word.parse("2 1 2'", n=2)
    S = strip_tableau(w)
    assert S.reading_word(2) == w
    S.check()
    assert str(rectify(strip_tableau(Word.parse("2 1", n=2)))[0].reading_word(2)) == "1 2"
    # runs 2 | 1 2' 3 3 | 1': one row each, the first run at the bottom,
    # each row right of every row below it
    S = strip_tableau(Word.parse("2 1 2' 3 3 1'", n=3))
    assert S.shape == SkewShape.parse("8,6,1/7,2")
    assert str(S) == "1' / 1 2' 3 3 / 2"
    assert strip_tableau(Word.parse("1 2 2 3", n=3)).shape == SkewShape.parse("4")
    assert strip_tableau(Word((), 3)).size == 0


def test_yamanouchi_golden_and_uniqueness():
    assert str(yamanouchi((2, 1))) == "1 1 / 2"
    assert yamanouchi(()).size == 0
    for nu in strict_partitions_inside(StrictPartition.parse("4,3,2,1")):
        if not nu:
            continue
        hits = [
            T for T in enumerate_tableaux(SkewShape(nu), len(nu))
            if T.weight(len(nu)) == tuple(nu.parts)
        ]
        assert hits == [yamanouchi(nu)]


def test_yamanouchi_builds_its_shape_through_shared_shape():
    assert yamanouchi((3, 1)).shape is shared_shape((3, 1), ())
    assert yamanouchi(StrictPartition((3, 1))).shape is shared_shape((3, 1), ())


def test_is_lrs_examples():
    assert is_lrs(yamanouchi((3, 2)))
    braid_tableau = ShiftedTableau.parse("5,3,1", "1 1 1 1 3' / 2 2 3' / 3")
    assert not is_lrs(braid_tableau)
    flags = [is_lrs(T) for T in enumerate_tableaux(SkewShape.parse("3,1/1"), 2)]
    assert sum(flags) == 2  # rect lands on Y_(3) and Y_(2,1), found by hand


def test_knuth_moves_golden():
    assert Word.parse("2 1") in knuth_neighbors(Word.parse("1 2"))
    assert Word.parse("1 2") in knuth_neighbors(Word.parse("2 1"))
    assert Word.parse("2 3 1") in knuth_neighbors(Word.parse("2 1 3"))
    assert Word.parse("1 1'") in knuth_neighbors(Word.parse("1 1"))
    assert Word.parse("1 1") in knuth_neighbors(Word.parse("1 1'"))


def test_knuth_equivalent_basics():
    w = Word.parse("1 2 2' 1", n=2)
    assert knuth_equivalent(w, w)
    assert knuth_equivalent(Word.parse("1 2", n=2), Word.parse("2 1", n=2))
    assert not knuth_equivalent(Word.parse("1 1", n=2), Word.parse("1 2", n=2))
    with pytest.raises(ValueError):
        knuth_equivalent(Word.parse("1 " * 9, n=1), Word.parse("1 " * 9, n=1))


def test_tableau_words_knuth_equivalent_to_rectification():
    for shape_text, n in [("3,1/1", 2), ("3,2/1", 2), ("4,2/2", 2)]:
        for T in enumerate_tableaux(SkewShape.parse(shape_text), n):
            R = rectify(T)[0]
            assert knuth_equivalent(T.reading_word(n), R.reading_word(n))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=5))
def test_knuth_moves_symmetric(codes):
    w = Word(canonicalize_codes(codes), 3)
    for u in knuth_neighbors(w):
        assert w in knuth_neighbors(u), (str(w), str(u))


def test_dual_equivalence_shapes_track():
    # replaying one member's slide order across its component keeps shapes equal
    from shifted_crystal import build_graph
    g = build_graph(SkewShape.parse("3,1/1"), 2)
    for comp in g.components:
        members = [g.vertices[v] for v in comp.vertex_ids]
        _, rec = rectify(members[0])
        shapes = {replay(T, rec)[0].shape for T in members}
        assert len(shapes) == 1
