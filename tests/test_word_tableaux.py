"""The word tableau of jdt.strip_tableau against the anti-diagonal strip it
replaced, jdt._word_tableau against strip_tableau, and jdt.order_dependent
against the build-every-order loop.

The anti-diagonal strip puts letter k of an N-letter word alone in row
N - k, with no two cells sharing a row or column; its inner shape has
N(N - 1) cells.  strip_tableau puts each row-fitting run in a row strictly
right of the rows below; _word_tableau lets the rows share columns.
Rectification and reversal must not see the difference.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from shifted_crystal import (
    EMPTY_TABLEAU,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    enumerate_tableaux,
    rectify,
    reversal,
    strict_partitions_inside,
)
from shifted_crystal.core import canonicalize_codes, shared_shape
from shifted_crystal.involutions import _reversed_subword
from shifted_crystal.jdt import _word_tableau, order_dependent, strip_tableau
from shifted_crystal.verify import _canonical_words


def anti_diagonal_strip(w: Word) -> ShiftedTableau:
    """One cell per letter on an anti-diagonal: the layout before rows."""
    N = len(w)
    if N == 0:
        return EMPTY_TABLEAU
    outer = tuple(2 * (N - r) + 1 for r in range(1, N + 1))
    inner = tuple(2 * (N - r) for r in range(1, N))
    return ShiftedTableau(shared_shape(outer, inner), w.codes)


def _assert_layouts_agree(w: Word):
    N = len(w)
    new, old = strip_tableau(w), anti_diagonal_strip(w)
    assert new.reading_word(w.n) == w
    new.check()
    assert new.shape.inner.size <= N * (N - 1)
    assert rectify(new)[0] == rectify(old)[0]
    assert reversal(new, w.n).reading_word(w.n) == reversal(old, w.n).reading_word(w.n)


def test_word_tableaux_match_the_strip_on_short_words():
    words = {canonicalize_codes(codes)
             for L in range(6) for codes in itertools.product(range(1, 7), repeat=L)}
    for codes in sorted(words):
        _assert_layouts_agree(Word(codes, 3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 10), max_size=12))
def test_word_tableaux_match_the_strip_on_random_words(codes):
    _assert_layouts_agree(Word(canonicalize_codes(codes), 5))


@pytest.mark.parametrize("max_len, values, count", [(7, 3, 50277), (5, 4, 5200)])
def test_word_tableau_matches_the_strip(max_len, values, count):
    words = _canonical_words(max_len, values)[1:]
    assert len(words) == count
    for w in words:
        T, S = _word_tableau(w.codes), strip_tableau(w)
        assert T.check().word_codes == w.codes
        assert T.shape.inner.size <= S.shape.inner.size
        assert rectify(T)[0] == rectify(S)[0]
        assert _reversed_subword(values, w.codes) == reversal(S, values).word_codes


def _first_differing_order(T, rng, orders):
    """Build every order's tableau and compare it: the loop order_dependent
    replaced."""
    base = rectify(T)[0]
    for _ in range(orders):
        other = rectify(T, rng=rng)[0]
        if other != base:
            return other
    return None


def test_order_dependent_matches_the_build_every_order_loop():
    shapes = [SkewShape(lam, mu)
              for lam in strict_partitions_inside(StrictPartition((4, 2, 1)))
              for mu in strict_partitions_inside(lam)]
    for shape in shapes:
        for T in enumerate_tableaux(shape, 3)[::7]:
            rng_a, rng_b = random.Random(str(T)), random.Random(str(T))
            witness, count = order_dependent(T, rng_a, 8)
            assert witness is None and _first_differing_order(T, rng_b, 8) is None
            assert rng_a.getstate() == rng_b.getstate()
            assert count == 9 * shape.inner.size
