"""Every colour-i operation and eta_{p,q}, keyed on the interval subword,
against the piece route they replaced.

The piece route (oracles.on_piece) cuts the letters [p, q]' out as a
tableau of their own, shifted down to start at 1, rectifies that piece,
looks the result up in its straight two-letter string (or reverses the
piece over [1, q - p + 1]'), unrectifies, and splices the letters back in
place.  The primed operators act on the whole reading word.  None of it
goes through the subword caches.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from shifted_crystal import (
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    enumerate_tableaux,
    eta_interval,
    lengths,
    primed_lower,
    primed_lower_tableau,
    primed_raise,
    primed_raise_tableau,
    rectify,
    reversal,
    sigma,
    strict_partitions_inside,
    unprimed_lower,
    unprimed_raise,
)
from shifted_crystal.operators import _place_facts

from oracles import on_piece, relabel, string_step


# ---------------------------------------------------------------------------
# the piece route

def _on_word(T, i, n, op):
    w = op(T.reading_word(n), i)
    return None if w is None else ShiftedTableau(T.shape, w.codes)


def _lengths_of_piece(T, i):
    R, _ = rectify(relabel(T.restrict(i, i + 1), 1 - i))
    return _place_facts(R)[3]


def _assert_matches_piece_route(T, n):
    for i in range(1, n):
        assert unprimed_lower(T, i, n) == on_piece(T, i, i + 1, n, string_step(0)), (T, i)
        assert unprimed_raise(T, i, n) == on_piece(T, i, i + 1, n, string_step(1)), (T, i)
        assert sigma(T, i, n) == on_piece(T, i, i + 1, n, string_step(2)), (T, i)
        assert primed_lower_tableau(T, i, n) == _on_word(T, i, n, primed_lower), (T, i)
        assert primed_raise_tableau(T, i, n) == _on_word(T, i, n, primed_raise), (T, i)
        assert lengths(T, i, n) == _lengths_of_piece(T, i), (T, i)
    for p in range(1, n):
        for q in range(p + 1, n + 1):
            want = on_piece(T, p, q, n, lambda piece: reversal(piece, q - p + 1))
            assert eta_interval(T, p, q, n) == want, (T, p, q)


# ---------------------------------------------------------------------------
# every tableau of the desk graphs

def test_desk_graphs_match_piece_route():
    cases = [(SkewShape.parse(text), n) for text, n in
             (("2,1", 4), ("3,1", 3), ("3,2", 3), ("5,3,1", 4))]
    for shape, n in cases:
        for T in enumerate_tableaux(shape, n):
            _assert_matches_piece_route(T, n)


def test_skew_shapes_inside_4321_match_piece_route():
    bound = StrictPartition.parse("4,3,2,1")
    for lam in strict_partitions_inside(bound):
        for mu in strict_partitions_inside(lam):
            for T in enumerate_tableaux(SkewShape(lam, mu), 3):
                _assert_matches_piece_route(T, 3)


# ---------------------------------------------------------------------------
# random skew tableaux

def _random_tableau(shape, n, rng, budget=5000):
    """A random tableau on the shape over [n]', by a depth-first search that
    tries letters in random order; None when the search runs out of budget
    or the shape has no tableau."""
    cells = shape.cells_reading
    below = {shape.north[k]: k for k in range(len(cells)) if shape.north[k] is not None}
    word = []
    steps = [budget]

    def fits(k, x):
        r, c = cells[k]
        west = shape.west[k]
        if west is not None and word[west] > x:
            return False
        if k in below and x > word[below[k]]:
            return False
        v = (x + 1) // 2
        placed = zip(cells, word)
        if x % 2:  # a primed letter: its value seen before, once per row
            return any((y + 1) // 2 == v for y in word) and \
                not any(y == x and rr == r for (rr, _), y in placed)
        return not any(y == x and cc == c for (_, cc), y in placed)

    def fill(k):
        if k == len(cells):
            return True
        letters = list(range(1, 2 * n + 1))
        rng.shuffle(letters)
        for x in letters:
            steps[0] -= 1
            if steps[0] < 0:
                return False
            if fits(k, x):
                word.append(x)
                if fill(k + 1):
                    return True
                word.pop()
        return False

    return ShiftedTableau(shape, word) if fill(0) else None


_OUTERS = [lam for lam in strict_partitions_inside(StrictPartition.parse("6,4,2,1"))
           if lam and lam.size <= 11]


@st.composite
def _skew_tableaux(draw):
    outer = draw(st.sampled_from(_OUTERS))
    # keep at least four cells, so that most cases hold several letters
    inners = [mu for mu in strict_partitions_inside(outer)
              if outer.size - mu.size >= min(4, outer.size)]
    inner = draw(st.sampled_from(inners))
    n = draw(st.integers(max(2, len(outer)), 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    T = _random_tableau(SkewShape(outer, inner), n, rng)
    assume(T is not None)
    return T, n


@settings(max_examples=300, deadline=None)
@given(_skew_tableaux())
def test_random_skew_tableaux_match_piece_route(case):
    T, n = case
    _assert_matches_piece_route(T, n)
