"""The per-row slide engine against the dict engine it replaced.

The oracle holds a standard tableau as a dict from cells to standardization
numbers and the outer and inner shapes as lists of parts, resized and
checked for strictness at every slide; rectification recomputes the inner
corners before every slide and picks the first or rng.choice of them.  Both
engines must give the same tableaux, the same slide records, the same
exceptions and the same random draws.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from shifted_crystal import (
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    enumerate_tableaux,
    inner_slide,
    outer_slide,
    rectify,
    replay,
    strict_partitions_inside,
    unrectify,
)
from shifted_crystal.core import (
    InvariantError,
    destandardize_codes,
    shared_shape,
    standardize_codes,
)
from shifted_crystal.jdt import SlideRecord, _SlideState, order_dependent

SEEDS = (0, 1, 7)


# ---------------------------------------------------------------------------
# the dict engine

def _inner_corners(mu):
    corners = []
    for r in range(1, len(mu) + 1):
        c = r + mu[r - 1] - 1
        below = mu[r] if r < len(mu) else 0
        if not (r + 1 <= c <= r + below):
            corners.append((r, c))
    return corners


def _addable_cells(parts):
    cells = []
    for r in range(1, len(parts) + 2):
        part = parts[r - 1] if r <= len(parts) else 0
        if r > 1 and parts[r - 2] <= part + 1:
            continue
        cells.append((r, r + part))
    return cells


def _resize_row(parts, r, step):
    if step > 0 and r == len(parts) + 1:
        parts.append(0)
    if not 1 <= r <= len(parts):
        raise InvariantError(f"a slide changed the missing row {r} of {parts}")
    parts[r - 1] += step
    if parts[-1] == 0:
        parts.pop()
    for k in (r - 2, r - 1):
        if 0 <= k < len(parts) - 1 and parts[k] <= parts[k + 1]:
            raise InvariantError(f"parts {parts} are no longer strict after a slide")


def _inner_slide_std(entries, r, c):
    while True:
        east = entries.get((r, c + 1))
        south = entries.get((r + 1, c))
        if east is None and south is None:
            return r, c
        if south is None or (east is not None and east < south):
            entries[(r, c)] = east
            del entries[(r, c + 1)]
            c += 1
        else:
            entries[(r, c)] = south
            del entries[(r + 1, c)]
            r += 1


def _outer_slide_std(entries, r, c):
    while True:
        west = entries.get((r, c - 1))
        north = entries.get((r - 1, c))
        if west is None and north is None:
            return r, c
        if north is None or (west is not None and west > north):
            entries[(r, c)] = west
            del entries[(r, c - 1)]
            c -= 1
        else:
            entries[(r, c)] = north
            del entries[(r - 1, c)]
            r -= 1


class _DictState:
    def __init__(self, T):
        std_word = standardize_codes(T.word_codes)
        self.entries = dict(zip(T.shape.cells_reading, std_word))
        self.values = [0] * len(std_word)
        for num, code in zip(std_word, T.word_codes):
            self.values[num - 1] = (code + 1) // 2
        self.outer = list(T.shape.outer.parts)
        self.inner = list(T.shape.inner.parts)
        self.steps = []

    def copy(self):
        twin = object.__new__(_DictState)
        twin.entries = dict(self.entries)
        twin.outer, twin.inner = list(self.outer), list(self.inner)
        twin.values, twin.steps = self.values, list(self.steps)
        return twin

    def slide_inner(self, corner):
        if corner not in _inner_corners(self.inner):
            raise ValueError(f"{corner} is not an inner corner")
        end = _inner_slide_std(self.entries, *corner)
        _resize_row(self.inner, corner[0], -1)
        _resize_row(self.outer, end[0], -1)
        self.steps.append(("inner", corner, end))
        return end

    def slide_outer(self, corner):
        if corner not in _addable_cells(self.outer):
            raise ValueError(f"{corner} cannot start an outer slide")
        end = _outer_slide_std(self.entries, *corner)
        _resize_row(self.outer, corner[0], 1)
        _resize_row(self.inner, end[0], 1)
        self.steps.append(("outer", corner, end))
        return end

    def finish(self):
        shape = shared_shape(tuple(self.outer), tuple(self.inner))
        positions = [0] * shape.size
        for k, cell in enumerate(shape.cells_reading):
            positions[self.entries[cell] - 1] = k
        codes = destandardize_codes(self.values, positions)
        if codes is None:
            raise InvariantError("no canonical prime split")
        return ShiftedTableau(shape, codes)


def _rectify_state(state, rng=None):
    while state.inner:
        corners = _inner_corners(state.inner)
        state.slide_inner(corners[0] if rng is None else rng.choice(corners))
    return state


def _rectify(T, rng=None):
    state = _rectify_state(_DictState(T), rng)
    return state.finish(), SlideRecord(state.steps)


def _order_dependent(T, rng, orders):
    start = _DictState(T)
    base = _rectify_state(start.copy())
    base_tableau = base.finish()
    slides = len(base.steps)
    for _ in range(orders):
        state = _rectify_state(start.copy(), rng)
        slides += len(state.steps)
        if state.outer == base.outer and state.entries == base.entries:
            continue
        other = state.finish()
        if other != base_tableau:
            return other, slides
    return None, slides


def _single(slide):
    def run(T, corner):
        state = _DictState(T)
        getattr(state, slide)(corner)
        return state.finish()
    return run


def _unrectify(S, record):
    state = _DictState(S)
    for _, corner, end in record.reversed().steps:
        assert state.slide_outer(corner) == end
    return state.finish()


def _replay(T, record):
    state = _DictState(T)
    for kind, corner, _ in record.steps:
        state.slide_inner(corner) if kind == "inner" else state.slide_outer(corner)
    return state.finish(), SlideRecord(state.steps)


# ---------------------------------------------------------------------------
# the comparison

def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (ValueError, InvariantError) as exc:
        return "raised", type(exc)


def _assert_engines_agree(T, cells):
    """Both engines on T: rectify in row order and in random orders,
    order_dependent, a single slide from each of the cells, and the round
    trips through the row-order record."""
    R, record = rectify(T)
    assert (R, record) == _rectify(T)
    for s in SEEDS:
        assert rectify(T, random.Random(s)) == _rectify(T, random.Random(s))
    assert order_dependent(T, random.Random(3), 4) == _order_dependent(T, random.Random(3), 4)
    for cell in cells:
        assert _outcome(inner_slide, T, cell) == _outcome(_single("slide_inner"), T, cell)
        assert _outcome(outer_slide, T, cell) == _outcome(_single("slide_outer"), T, cell)
    assert unrectify(R, record) == _unrectify(R, record) == T
    assert replay(T, record) == _replay(T, record) == (R, record)
    back = record.reversed()
    assert replay(R, back) == _replay(R, back)


def _slide_cells(shape):
    """Every inner corner and every addable cell of the shape."""
    return _inner_corners(shape.inner.parts) + _addable_cells(shape.outer.parts)


def _box(shape):
    """Every cell on or next to the shape: most start no slide."""
    rows, width = len(shape.outer) + 1, shape.outer.part(1) + 1
    return [(r, c) for r in range(rows + 1) for c in range(r - 1, r + width)]


def test_engines_agree_on_every_tableau_inside_4321():
    for lam in strict_partitions_inside(StrictPartition.parse("4,3,2,1")):
        for mu in strict_partitions_inside(lam):
            shape = SkewShape(lam, mu)
            cells = _slide_cells(shape)
            for n in (1, 2, 3):
                for k, T in enumerate(enumerate_tableaux(shape, n)):
                    # whether a cell may start a slide depends on the shape only
                    _assert_engines_agree(T, _box(shape) if k == 0 else cells)


def _random_tableau(shape, n, rng):
    """A random tableau on the shape over [n]', letter by letter in reading
    order; None at a dead end."""
    cells = shape.cells_reading
    south = {north: k for k, north in enumerate(shape.north) if north is not None}
    word = []
    for k, (r, c) in enumerate(cells):
        fits = []
        for x in range(1, 2 * n + 1):
            if shape.west[k] is not None and word[shape.west[k]] > x:
                continue
            if k in south and x > word[south[k]]:
                continue
            same = [cells[j] for j, y in enumerate(word) if y == x]
            if x % 2:  # primed: its value read before, and once per row
                if (x + 1) not in word or any(rr == r for rr, _ in same):
                    continue
            elif any(cc == c for _, cc in same):
                continue
            fits.append(x)
        if not fits:
            return None
        word.append(rng.choice(fits))
    try:
        return ShiftedTableau(shape, word)
    except ValueError:
        return None


_OUTERS = [lam for lam in strict_partitions_inside(StrictPartition.parse("6,4,2,1")) if lam]


@st.composite
def _skew_tableaux(draw):
    outer = draw(st.sampled_from(_OUTERS))
    inner = draw(st.sampled_from(list(strict_partitions_inside(outer))))
    n = draw(st.integers(1, 4))
    T = _random_tableau(SkewShape(outer, inner), n, random.Random(draw(st.integers(0, 2 ** 32))))
    assume(T is not None)
    return T


@settings(max_examples=150, deadline=None)
@given(_skew_tableaux())
def test_engines_agree_on_random_skew_tableaux_inside_6421(T):
    _assert_engines_agree(T, _box(T.shape))


# ---------------------------------------------------------------------------
# the checks every slide keeps

def _state(shape_text, filling):
    return _SlideState(ShiftedTableau.parse(shape_text, filling))


def test_a_corrupted_state_raises_on_its_next_slide():
    # inner parts no longer strict: the slide from row 1 would empty it
    state = _state("4,2/2,1", "1 2 / 2")
    state.inner[0] = 1
    with pytest.raises(InvariantError, match="inner parts"):
        state.slide_in(0)
    # outer parts no longer strict: the slide empties a row above another
    state = _state("2,1/1", "1 / 2")
    state.rows[0].pop()
    with pytest.raises(InvariantError, match="outer parts"):
        state.slide_in(0)
    # an entry lost from the middle of a row stops the hole inside it
    state = _state("4/2", "1 2")
    state.rows[0][2] = 0
    with pytest.raises(InvariantError, match="stopped inside row"):
        state.slide_in(0)
    # an outer slide whose hole cannot reach the inner shape
    state = _state("3,1/1", "1 2 / 2")
    state.rows[0][1] = 0
    with pytest.raises(InvariantError, match="stopped inside row"):
        state.slide_out(0)
    # an outer part grown past the row above
    state = _state("3,1/1", "1 2 / 2")
    state.rows[1].append(5)
    with pytest.raises(InvariantError, match="outer parts"):
        state.slide_out(1)
    # an entry lost from row 1: the outer slide's hole cannot go north, and
    # stays in row 2, whose inner part grows to row 1's
    state = _state("4,2/2,1", "1 1 / 2")
    state.rows[0][2] = 0
    with pytest.raises(InvariantError) as exc:
        state.slide_out(1)
    assert str(exc.value) == "inner parts [2, 2] lose strictness in a slide from (2, 4)"
    # finishing: three 1s in reading positions 0, 2, 1 have no canonical
    # prime split, and 2 before 1 in a row is not semistandard
    state = _state("3", "1 1 1")
    state.rows = [[1, 3, 2]]
    with pytest.raises(InvariantError) as exc:
        state.finish()
    assert str(exc.value) == "no canonical prime split for [1, 1, 1] at [0, 2, 1]"
    state = _state("2", "1 2")
    state.rows = [[2, 1]]
    with pytest.raises(InvariantError) as exc:
        state.finish()
    assert str(exc.value) == ("de-standardization is not semistandard: "
                              "row 1 decreasing at column 2")


def test_the_state_holds_entries_per_row():
    state = _state("4,2/2", "1 2 / 1 2")
    # reading word 1 2 1 2: standard numbers 1 3 2 4
    assert state.rows == [[0, 0, 2, 4], [1, 3]] and state.inner == [2]
    assert state.values == [1, 1, 2, 2]
