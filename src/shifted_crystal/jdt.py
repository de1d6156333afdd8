"""Shifted jeu de taquin with replayable slide records, plus Knuth moves.

Slides on semistandard tableaux run on the tableau's standard form
(core.standard_form: each standardization number's letter value and reading
position), each number placed in its cell through the shape's reading order.
The slides follow the classical rules for standard shifted tableaux (an inner
hole swallows the smaller of its east and south neighbours, an outer hole the
larger of its west and north neighbours).  At the end the numbers' new
reading positions and unchanged values are de-standardized
(core.destandardize_codes), which re-derives the primes of every value block
as the unique canonical split; this is what produces the prime-adjusting
exceptional slides near the diagonal.

While a batch of slides runs, the standard entries are held per row, 0 on
an inner cell, so a row's length is its outer part; the inner parts are a
list.  Each slide walks its hole by list index and checks that the parts it
changes stay strictly decreasing and that the hole stops at the end of its
row (inner) or just outside the inner shape (outer).  A ShiftedTableau is
built and checked once, when the batch finishes, on a shape shared through
core.shared_shape.  Corners from the caller (inner_slide, outer_slide,
replay, unrectify) are checked before each slide; rectify reads its corner
rows off the inner parts.

A word is rectified on a tableau with reading word w whose rows are the
maximal row-fitting runs of w; rectification depends only on the reading
word, so the layout changes the work and not the answer.  Two layouts
serve.  _word_tableau lets each row share columns with the row below, as
far left as the letters allow, and so has fewer inner cells; the colour
records (operators._colour_one) and the reversed subwords
(involutions._reversed_subword) rectify on it.  strip_tableau puts each row
strictly right of every row below; the Knuth suite keeps it, because its
report counts the slides it runs (103 135 at the default scope), and a
new layout would change that figure.
order_dependent, the Knuth suite's slide-order check, standardizes a
tableau once and walks its random orders on one tree of corner choices, so
orders that share a prefix of choices share the slides along it.  It
compares each distinct final state raw (outer parts, standard entries) with
the row-order one and builds a tableau only on a mismatch.  The slides it
reports are those of the orders checked, not those executed.
"""

import random

from .core import (
    EMPTY_TABLEAU,
    InvariantError,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    destandardize_codes,
    letter,
    letter_value,
    shared_shape,
    standard_form,
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
    "yamanouchi",
    "is_lrs",
    "knuth_neighbors",
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

def _corner_rows(mu):
    """The rows, counted from 0 and in order, whose last inner cell is an inner
    corner: the last one, and each whose part exceeds the next by two or more."""
    rows = [i for i in range(len(mu) - 1) if mu[i + 1] < mu[i] - 1]
    if mu:
        rows.append(len(mu) - 1)
    return rows


def _inner_corners(mu):
    return [(i + 1, i + mu[i]) for i in _corner_rows(mu)]


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


class _SlideState:
    """Mutable standard tableau used while a batch of slides runs.

    rows[r - 1][k] is the standardization number of cell (r, r + k), or 0 on
    an inner cell, so len(rows[r - 1]) is the outer part of row r; inner is
    the list of inner parts; values[m] is the letter value carried by number
    m + 1.  Numbers go between cells and reading positions through the
    shape's cells_reading.  slide_in and slide_out take a row counted from 0.
    """

    __slots__ = ("rows", "inner", "values", "steps")

    def __init__(self, T: ShiftedTableau):
        self.values, positions = standard_form(T.word_codes)
        self.inner = list(T.shape.inner.parts)
        self.rows = rows = [[0] * part for part in T.shape.outer.parts]
        cells = T.shape.cells_reading
        for num, k in enumerate(positions, start=1):
            r, c = cells[k]
            rows[r - 1][c - r] = num
        self.steps = []

    def copy(self) -> "_SlideState":
        """An independent state at the same point; values are shared."""
        twin = object.__new__(_SlideState)
        twin.rows = [row[:] for row in self.rows]
        twin.inner = self.inner[:]
        twin.values = self.values
        twin.steps = self.steps[:]
        return twin

    def slide_inner(self, corner):
        if corner not in _inner_corners(self.inner):
            shape = SkewShape([len(row) for row in self.rows], self.inner)
            raise ValueError(f"{corner} is not an inner corner of {shape}")
        return self.slide_in(corner[0] - 1)

    def slide_in(self, i):
        """Inner slide from the last inner cell of row i + 1; returns the end.

        The hole takes the smaller of its east and south neighbours until it
        has neither, and must then be the last cell of its row, which goes.
        """
        rows, inner = self.rows, self.inner
        k = inner[i] - 1
        start = (i + 1, i + 1 + k)
        if i + 1 < len(inner) and inner[i + 1] >= k:
            raise InvariantError(f"inner parts {inner} lose strictness in a slide from {start}")
        inner[i] = k
        if not k:
            inner.pop()
        row = rows[i]
        below = rows[i + 1] if i + 1 < len(rows) else ()
        while True:
            east = row[k + 1] if k + 1 < len(row) else 0
            south = below[k - 1] if 0 < k <= len(below) else 0
            if south and (not east or south < east):
                row[k] = south
                row, i, k = below, i + 1, k - 1
                below = rows[i + 1] if i + 1 < len(rows) else ()
            elif east:
                row[k] = east
                k += 1
            else:
                break
        end = (i + 1, i + 1 + k)
        if k != len(row) - 1:
            raise InvariantError(f"an inner slide from {start} stopped inside row {i + 1}")
        row.pop()
        if below and len(below) >= k:
            raise InvariantError(f"outer parts lose strictness in a slide from {start}")
        if not k:
            rows.pop()
        self.steps.append(("inner", start, end))
        return end

    def slide_outer(self, corner):
        outer = [len(row) for row in self.rows]
        if corner not in _addable_cells(outer):
            raise ValueError(f"{corner} cannot start an outer slide on {StrictPartition(outer)}")
        return self.slide_out(corner[0] - 1)

    def slide_out(self, i):
        """Outer slide into the cell after the end of row i + 1; returns the end.

        The hole takes the larger of its west and north neighbours until it
        has neither, and must then sit just outside the inner shape, which
        takes it.
        """
        rows, inner = self.rows, self.inner
        if i == len(rows):
            rows.append([])
        row = rows[i]
        k = len(row)
        start = (i + 1, i + 1 + k)
        if i and len(rows[i - 1]) <= k + 1:
            raise InvariantError(f"outer parts lose strictness in a slide from {start}")
        row.append(0)
        above = rows[i - 1] if i else ()
        while True:
            west = row[k - 1] if k else 0
            north = above[k + 1] if k + 1 < len(above) else 0
            if north and (not west or north > west):
                row[k] = north
                row, i, k = above, i - 1, k + 1
                above = rows[i - 1] if i else ()
            elif west:
                row[k] = west
                k -= 1
            else:
                break
        row[k] = 0
        end = (i + 1, i + 1 + k)
        if i > len(inner) or k != (inner[i] if i < len(inner) else 0):
            raise InvariantError(f"an outer slide from {start} stopped inside row {i + 1}")
        if i == len(inner):
            inner.append(0)
        inner[i] += 1
        if i and inner[i - 1] <= inner[i]:
            raise InvariantError(f"inner parts {inner} lose strictness in a slide from {start}")
        self.steps.append(("outer", start, end))
        return end

    def finish(self) -> ShiftedTableau:
        """De-standardize into a tableau on the final shape."""
        rows, inner = self.rows, self.inner
        shape = shared_shape(tuple(len(row) for row in rows), tuple(inner))
        positions = [0] * shape.size
        for k, (r, c) in enumerate(shape.cells_reading):
            positions[rows[r - 1][c - r] - 1] = k
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
    """Run inner slides on state until its inner shape is empty; the corner
    rows come in the order inner_corners lists the corners."""
    while state.inner:
        rows = _corner_rows(state.inner)
        state.slide_in(rows[0] if rng is None else rng.choice(rows))
    return state


def order_dependent(T: ShiftedTableau, rng: random.Random, orders: int):
    """Rectify T in row order and in `orders` random corner orders.

    Returns (witness, slides): witness is the first random-order
    rectification that differs from the row-order one as a tableau, or None;
    slides counts the slides of the orders checked (one per inner cell per
    order, the row order included), not the slides executed.  The orders
    draw their corner rows as rectify(T, rng) does and walk one tree of
    corner choices: a node holds the state its choices reach, its corner
    rows, its children by chosen row and whether it was compared.  Orders
    sharing a prefix share its states, and each node's state is slid once,
    on a copy of its parent's.  Each distinct final state is compared once: one
    whose outer parts and standard entries equal the row-order ones would
    finish into the same tableau, so only another is built and compared.
    """
    start = _SlideState(T)
    base = _rectify_state(start.copy())
    base_tableau = base.finish()
    per_order = len(base.steps)
    root = [start, _corner_rows(start.inner), {}, False]  # state, rows, children, compared
    for done in range(1, orders + 1):
        node = root
        while node[1]:
            i = rng.choice(node[1])
            child = node[2].get(i)
            if child is None:
                state = node[0].copy()
                state.slide_in(i)
                child = node[2][i] = [state, _corner_rows(state.inner), {}, False]
            node = child
        compared, node[3] = node[3], True
        if compared or node[0].rows == base.rows:
            continue
        other = node[0].finish()
        if other != base_tableau:
            return other, per_order * (done + 1)
    return None, per_order * (orders + 1)


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
    """A checked tableau whose reading word is w, with few inner cells: the
    Knuth suite's layout (module docstring).

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


def _fits_above(run, part, row, below, start):
    """True when run, as row `row` with inner part `part`, may sit on the
    row below it, which holds `below` from column `start`: it ends at or
    right of that row's end, and in each column they share its code is
    smaller, or equal and primed."""
    left = row + part
    end = start + len(below) - 1
    if left + len(run) - 1 < end:
        return False
    for c in range(max(left, start), end + 1):
        x, y = run[c - left], below[c - start]
        if x > y or (x == y and not x % 2):
            return False
    return True


def _word_tableau(codes) -> ShiftedTableau:
    """A checked tableau whose reading word is the canonical word codes, with
    fewer inner cells than strip_tableau.

    The rows are strip_tableau's runs (_row_runs), the first run the bottom
    row at inner part 0.  Each row above takes the least inner part that
    exceeds the part below when that is positive and fits on the row below
    (_fits_above), so rows overlap in columns where strip_tableau stacks
    them apart.  Rectification, and every coplactic operation carried back
    along it, depends only on the reading word (see strip_tableau).
    """
    if not codes:
        return EMPTY_TABLEAU
    runs = _row_runs(codes)
    m = len(runs)
    inner, start = [0], m  # run k fills row m - k from column m - k + inner[k]
    for k in range(1, m):
        part = inner[-1] + 1 if inner[-1] else 0
        while not _fits_above(runs[k], part, m - k, runs[k - 1], start):
            part += 1
        inner.append(part)
        start = m - k + part
    outer = tuple(part + len(run) for part, run in zip(reversed(inner), reversed(runs)))
    return ShiftedTableau(shared_shape(outer, tuple(p for p in reversed(inner) if p)), codes)


# ---------------------------------------------------------------------------
# Yamanouchi and ballot tests

def yamanouchi(nu) -> ShiftedTableau:
    """The tableau of shape nu whose i-th row is filled with i."""
    shape = shared_shape(StrictPartition(nu).parts, ())
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
    return tuple(lst)


def knuth_neighbors(w: Word) -> frozenset:
    """Words one Knuth move away from w.

    Triple moves compare letters through the standardization; the first-two
    moves swap the leading letters or toggle the prime of the second letter
    when it repeats the first value.  Each move gives raw codes, which are
    canonicalized once, as Words.
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
            results.add(tuple(toggled))
    neighbours = {Word(c, w.n) for c in results}
    neighbours.discard(w)
    return frozenset(neighbours)
