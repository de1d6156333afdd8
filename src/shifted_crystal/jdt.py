"""Shifted jeu de taquin with replayable slide records, plus Knuth moves.

Slides on semistandard tableaux are computed through standardization: the
tableau is standardized, slides are performed with the classical rules for
standard shifted tableaux (an inner hole swallows the smaller of its east
and south neighbours, an outer hole the larger of its west and north
neighbours), and the letters are de-standardized at the end.
De-standardization keeps each standardization number on its original value
and re-derives the primes of every value block as the unique split that
yields a canonical word (core.destandardize_codes); this is what produces
the prime-adjusting exceptional slides near the diagonal.

While a batch of slides runs, the outer and inner shapes are plain lists of
parts, updated in place and checked for strictness at every step; a
ShiftedTableau is built and checked once, when the batch finishes, on a
shape shared through core.shared_shape (slides land on few shapes).
Corners that come from the caller (inner_slide, outer_slide, replay,
unrectify) are checked before each slide; the corners rectify picks itself
come from the same inner-corner list, so they are not checked a second time.

A word is rectified on strip_tableau(w), a tableau with reading word w whose
rows are the maximal row-fitting runs of w; rectification depends only on
the reading word, so the layout changes the work and not the answer.
order_dependent, the Knuth suite's slide-order check, standardizes a
tableau once and compares each order's raw result (outer parts, standard
entries) with the row-order one; it builds a tableau for a random order
only on a mismatch.
"""

import random

from .core import (
    EMPTY_TABLEAU,
    InvariantError,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    canonicalize_codes,
    destandardize_codes,
    letter,
    letter_value,
    shared_shape,
    standardize_codes,
)

__all__ = [
    "SlideRecord",
    "inner_corners",
    "addable_cells",
    "inner_slide",
    "outer_slide",
    "rectify",
    "unrectify",
    "replay",
    "order_dependent",
    "strip_tableau",
    "rectify_word",
    "yamanouchi",
    "is_lrs",
    "knuth_neighbors",
    "knuth_equivalent",
]


# ---------------------------------------------------------------------------
# Slide records

class SlideRecord:
    """A replayable sequence of slides.

    Each step is (kind, start, end): kind is "inner" or "outer", start is
    the corner where the hole appears, end is where it comes to rest.
    Reversing a record turns inner steps into outer steps rooted at the
    recorded end cells, in reverse order.
    """

    __slots__ = ("steps",)

    def __init__(self, steps=()):
        object.__setattr__(self, "steps", tuple(steps))

    def __setattr__(self, name, value):
        raise AttributeError("SlideRecord is immutable")

    def reversed(self) -> "SlideRecord":
        flipped = []
        for kind, start, end in reversed(self.steps):
            flipped.append(("outer" if kind == "inner" else "inner", end, start))
        return SlideRecord(flipped)

    def to_json_obj(self):
        return [[kind, r, c] for kind, (r, c), _ in self.steps]

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        return isinstance(other, SlideRecord) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"SlideRecord({list(self.steps)!r})"


# ---------------------------------------------------------------------------
# Shape bookkeeping for slides, on strict partitions held as lists of parts

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


def inner_corners(shape: SkewShape):
    """Maximal cells of the inner shape: where an inner slide may start."""
    return _inner_corners(shape.inner.parts)


def addable_cells(outer: StrictPartition):
    """Cells that may be appended to a strict partition shape."""
    return _addable_cells(outer.parts)


def _resize_row(parts, r, step):
    """Add a cell to row r (step 1) or take one from it (step -1), in place.

    The parts must stay strictly decreasing.  A zero part can only be the
    last one, which is dropped, so strictness also keeps every part positive.
    """
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


# ---------------------------------------------------------------------------
# Standard slides (distinct entries; min fills inner holes, max outer ones)

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


class _SlideState:
    """Mutable standard tableau used while a batch of slides runs.

    entries maps each cell to its standardization number; values[m] is the
    letter value carried by number m + 1.
    """

    __slots__ = ("entries", "outer", "inner", "values", "steps")

    def __init__(self, T: ShiftedTableau):
        std_word = standardize_codes(T.word_codes)
        self.entries = dict(zip(T.shape.cells_reading, std_word))
        self.values = [0] * len(std_word)
        for num, code in zip(std_word, T.word_codes):
            self.values[num - 1] = (code + 1) // 2
        self.outer = list(T.shape.outer.parts)
        self.inner = list(T.shape.inner.parts)
        self.steps = []

    def copy(self) -> "_SlideState":
        """An independent state at the same point; values are shared."""
        twin = object.__new__(_SlideState)
        twin.entries = dict(self.entries)
        twin.outer = list(self.outer)
        twin.inner = list(self.inner)
        twin.values = self.values
        twin.steps = list(self.steps)
        return twin

    def slide_inner(self, corner):
        if corner not in _inner_corners(self.inner):
            shape = SkewShape(self.outer, self.inner)
            raise ValueError(f"{corner} is not an inner corner of {shape}")
        return self.slide_inner_unchecked(corner)

    def slide_inner_unchecked(self, corner):
        """slide_inner from a corner taken from _inner_corners(self.inner)."""
        end = _inner_slide_std(self.entries, *corner)
        _resize_row(self.inner, corner[0], -1)
        _resize_row(self.outer, end[0], -1)
        self.steps.append(("inner", corner, end))
        return end

    def slide_outer(self, corner):
        if corner not in _addable_cells(self.outer):
            outer = StrictPartition(self.outer)
            raise ValueError(f"{corner} cannot start an outer slide on {outer}")
        end = _outer_slide_std(self.entries, *corner)
        _resize_row(self.outer, corner[0], 1)
        _resize_row(self.inner, end[0], 1)
        self.steps.append(("outer", corner, end))
        return end

    def finish(self) -> ShiftedTableau:
        """De-standardize into a tableau on the final shape."""
        shape = shared_shape(tuple(self.outer), tuple(self.inner))
        positions = [0] * shape.size
        for k, cell in enumerate(shape.cells_reading):
            positions[self.entries[cell] - 1] = k
        codes = destandardize_codes(self.values, positions)
        if codes is None:
            raise InvariantError(f"no canonical prime split for {self.values} at {positions}")
        try:
            return ShiftedTableau(shape, codes)
        except ValueError as exc:
            raise InvariantError(f"de-standardization is not semistandard: {exc}") from exc


# ---------------------------------------------------------------------------
# Public slide operations

def inner_slide(T: ShiftedTableau, corner) -> ShiftedTableau:
    """One inner jeu de taquin slide starting at the given inner corner."""
    state = _SlideState(T)
    state.slide_inner(tuple(corner))
    return state.finish()


def outer_slide(T: ShiftedTableau, corner) -> ShiftedTableau:
    """One outer jeu de taquin slide starting at the given addable cell."""
    state = _SlideState(T)
    state.slide_outer(tuple(corner))
    return state.finish()


def rectify(T: ShiftedTableau, rng: random.Random = None):
    """Slide to a straight shape; returns (rectified tableau, record).

    The result does not depend on the corner order; when rng is given the
    corners are picked at random from it, otherwise deterministically.
    """
    state = _rectify_state(_SlideState(T), rng)
    return state.finish(), SlideRecord(state.steps)


def _rectify_state(state: _SlideState, rng: random.Random = None) -> _SlideState:
    """Run inner slides on state until its inner shape is empty."""
    while state.inner:
        corners = _inner_corners(state.inner)  # in row order, hence sorted
        corner = corners[0] if rng is None else rng.choice(corners)
        state.slide_inner_unchecked(corner)
    return state


def order_dependent(T: ShiftedTableau, rng: random.Random, orders: int):
    """Rectify T in row order and in `orders` random corner orders.

    Returns (witness, slides): witness is the first random-order
    rectification that differs from the row-order one as a tableau, or None,
    and slides counts the slides run.  T is standardized once and every
    order slides a copy of that state.  The row-order result is built and
    checked; a random-order result whose outer parts and standard entries
    equal the row-order ones would finish into the same tableau, so it is
    not built.  Any other result is built and compared as a tableau.
    """
    start = _SlideState(T)
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


def unrectify(S: ShiftedTableau, record: SlideRecord) -> ShiftedTableau:
    """Undo a rectification by replaying its record backwards."""
    if any(kind != "inner" for kind, _, _ in record.steps):
        raise ValueError("unrectify expects a record of inner slides")
    state = _SlideState(S)
    for kind, corner, end in record.reversed().steps:
        got = state.slide_outer(corner)
        if got != end:
            raise ValueError(
                f"record does not match tableau: outer slide from {corner} "
                f"ended at {got}, expected {end}"
            )
    return state.finish()


def replay(T: ShiftedTableau, record: SlideRecord):
    """Apply the record's slides, by kind and start corner, to a tableau.

    Returns (result, record-with-actual-end-cells); used both to check that
    records reproduce their targets and to transport slide sequences across
    dual equivalence classes.
    """
    state = _SlideState(T)
    for kind, corner, _ in record.steps:
        if kind == "inner":
            state.slide_inner(corner)
        else:
            state.slide_outer(corner)
    return state.finish(), SlideRecord(state.steps)


# ---------------------------------------------------------------------------
# Words as tableaux

def _row_runs(codes):
    """Split codes into maximal runs that fit in one row of a tableau:
    weakly increasing, with no primed code twice."""
    runs = [[codes[0]]]
    for x in codes[1:]:
        last = runs[-1][-1]
        if x < last or (x == last and x % 2):
            runs.append([x])
        else:
            runs[-1].append(x)
    return runs


def strip_tableau(w: Word) -> ShiftedTableau:
    """A checked tableau whose reading word is w, with few inner cells.

    Each maximal run of w that fits in one row (weakly increasing, no primed
    letter twice) becomes one row, the first run the bottom row, and each
    row lies strictly right of every row below it.  No column holds two
    cells, so every canonical word embeds.  With m runs, row r has
    (letters in the rows below) + (m - r) inner cells, against N(N - 1) on
    an anti-diagonal strip of N letters.  The layout does not change any
    answer taken from it: shifted jeu de taquin rectification depends only
    on the reading word (Worley; Sagan), and the coplactic operations
    carried back along the slides give the same reading word on every
    tableau with reading word w.
    """
    if not w.codes:
        return EMPTY_TABLEAU
    runs = _row_runs(w.codes)
    outer, inner = [], []
    below = 0
    for k, run in enumerate(runs):  # run k fills row m - k
        outer.append(below + k + len(run))
        inner.append(below + k)
        below += len(run)
    outer.reverse()
    inner.reverse()
    return ShiftedTableau(shared_shape(tuple(outer), tuple(inner[:-1])), w.codes)


def rectify_word(w: Word) -> Word:
    """Reading word of the rectification of any tableau with reading word w.

    Rectified on strip_tableau(w); any other tableau with the same reading
    word gives the same answer.
    """
    return rectify(strip_tableau(w))[0].reading_word(w.n)


# ---------------------------------------------------------------------------
# Yamanouchi and ballot tests

def yamanouchi(nu) -> ShiftedTableau:
    """The tableau of shape nu whose i-th row is filled with i."""
    nu = StrictPartition(nu)
    shape = SkewShape(nu)
    return ShiftedTableau(shape, [letter(r) for r, _ in shape.cells_reading])


def is_lrs(T: ShiftedTableau) -> bool:
    """True when T rectifies to a Yamanouchi tableau."""
    R = rectify(T)[0]
    return R == yamanouchi(R.shape.outer)


# ---------------------------------------------------------------------------
# Shifted Knuth moves

def _swap(codes, i, j):
    lst = list(codes)
    lst[i], lst[j] = lst[j], lst[i]
    return canonicalize_codes(lst)


def knuth_neighbors(w: Word) -> frozenset:
    """Words one Knuth move away from w.

    Triple moves compare letters through the standardization; the first-two
    moves swap the leading letters or toggle the prime of the second letter
    when it repeats the first value.  Outputs are canonicalized.
    """
    codes = w.codes
    L = len(codes)
    std = standardize_codes(codes)
    results = set()
    for j in range(L - 2):
        s0, s1, s2 = std[j], std[j + 1], std[j + 2]
        if min(s1, s2) < s0 < max(s1, s2):
            results.add(_swap(codes, j + 1, j + 2))
        if min(s0, s1) < s2 < max(s0, s1):
            results.add(_swap(codes, j, j + 1))
    if L >= 2:
        results.add(_swap(codes, 0, 1))
        if letter_value(codes[0]) == letter_value(codes[1]):
            toggled = list(codes)
            toggled[1] += 1 if toggled[1] % 2 else -1
            results.add(canonicalize_codes(toggled))
    results.discard(codes)
    return frozenset(Word(c, w.n) for c in results)


def knuth_equivalent(w: Word, v: Word, max_len: int = 8) -> bool:
    """Connectivity of w and v under the Knuth moves (bidirectional BFS)."""
    if len(w) > max_len or len(v) > max_len:
        raise ValueError(f"word length exceeds the Knuth search cap {max_len}")
    if w.n != v.n:
        v = v.with_n(w.n)
    if w == v:
        return True
    if len(w) != len(v) or w.weight() != v.weight():
        return False
    seen_a, seen_b = {w}, {v}
    front_a, front_b = {w}, {v}
    while front_a and front_b:
        if len(front_a) > len(front_b):
            seen_a, seen_b = seen_b, seen_a
            front_a, front_b = front_b, front_a
        nxt = set()
        for word in front_a:
            for u in knuth_neighbors(word):
                if u in seen_b:
                    return True
                if u not in seen_a:
                    seen_a.add(u)
                    nxt.add(u)
        front_a = nxt
    return False
