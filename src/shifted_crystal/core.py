"""Strict partitions, shifted skew shapes, primed words and shifted tableaux.

Cells are 1-based (row, column) pairs; row r of a shifted shape occupies
columns r .. r + outer_r - 1, so the leftmost possible cell of row r sits
on the main diagonal (r, r).  Letters come from the primed alphabet
1' < 1 < 2' < 2 < ... and are encoded as integers: 2v - 1 for a primed v,
2v for an unprimed v, so integer order coincides with alphabet order.

Words and tableaux are stored in canonical form (the first letter of each
value in reading order is unprimed); non-canonical fillings exist only
transiently inside operations and are normalized before they escape.

A tableau is stored once, as its shape plus its reading word; a shape maps
each of its cells to its index in reading order, so the letter in a cell is
one dictionary lookup away.  Tableaux, words and shapes hash on demand, as
few of them are ever hashed.  Jeu de taquin and the primed operators both
work on a word's standard form (standard_form): per standardization number,
its letter value and its reading position.  They edit that pair and rebuild
the word from it with destandardize_codes.

Shapes that the library builds itself come from shared_shape, a bounded
cache holding one SkewShape per (outer, inner) pair of part tuples; the
SkewShape constructor still builds a fresh one.  An enumeration stores its
reading words back to back in one buffer, bytes while every code fits in a
byte, and builds each tableau only when it is read (_Leaves); enumerations
are not cached.  One may be restricted to a content, which the
Littlewood-Richardson counts use, and build_graph and those counts stop it
at cap + 1 words.  The enumerator and ShiftedTableau.check test each letter
against the neighbours in its row and column only: rows and columns of a
shifted skew shape are contiguous and weakly increasing, so a second v' in
a row, or a second unprimed v in a column, would sit next to the first.

Operators on the letters [p, q]' see only the interval subword: those
letters in reading order, shifted down to [1, q - p + 1]'
(ShiftedTableau.interval_subword).  An answer, a word of the same length,
goes back into the same reading positions (write_subword), and
ShiftedTableau.with_interval_subword builds the checked tableau on the
unchanged shape.  A subword of a canonical word is canonical, since the
first letter of each value stays first.
"""

import functools

__all__ = [
    "InvariantError",
    "letter",
    "letter_value",
    "is_primed",
    "letter_str",
    "parse_letter",
    "StrictPartition",
    "SkewShape",
    "EMPTY_PARTITION",
    "EMPTY_SHAPE",
    "Word",
    "canonicalize",
    "canonicalize_codes",
    "standardize_codes",
    "prime_split",
    "ShiftedTableau",
    "EMPTY_TABLEAU",
    "enumerate_tableaux",
    "strict_partitions_of",
    "strict_partitions_inside",
]


class InvariantError(RuntimeError):
    """A structural fact the theory guarantees failed to hold in practice."""


class _Frozen:
    """Base of the immutable values: their fields are set once, through
    object.__setattr__, and no attribute may be set afterwards."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


# ---------------------------------------------------------------------------
# Letters

def letter(value: int, primed: bool = False) -> int:
    """Encode a primed-alphabet letter as an integer."""
    if value < 1:
        raise ValueError(f"letter value must be positive, got {value}")
    return 2 * value - 1 if primed else 2 * value


def letter_value(code: int) -> int:
    return (code + 1) // 2


def is_primed(code: int) -> bool:
    return code % 2 == 1


def letter_str(code: int) -> str:
    v = (code + 1) // 2
    return f"{v}'" if code % 2 else str(v)


def word_str(codes) -> str:
    """Letter codes printed as a word, e.g. "2 1 2'"; the codes are printed
    as given, so a vertex's word is printed without building a Word."""
    return " ".join(letter_str(x) for x in codes)


def parse_letter(token: str) -> int:
    token = token.strip()
    primed = token.endswith("'")
    if primed:
        token = token[:-1]
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"cannot parse letter {token!r}") from None
    return letter(value, primed)


# ---------------------------------------------------------------------------
# Strict partitions

def _stair_complement(parts, m) -> list:
    """The parts of {1..m} missing from parts, largest first: the complement
    of a strict partition in the stair (m, m-1, ..., 1), on lists."""
    present = set(parts)
    return [v for v in range(m, 0, -1) if v not in present]


@functools.total_ordering
class StrictPartition(_Frozen):
    """A strictly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, StrictPartition):
            parts = parts.parts
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for a, b in zip(parts, parts[1:]):
            if a <= b:
                raise ValueError(f"parts not strictly decreasing: {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def parse(cls, text: str) -> "StrictPartition":
        text = text.strip()
        if not text:
            return cls()
        parts = []
        for tok in text.split(","):
            try:
                parts.append(int(tok))
            except ValueError:
                raise ValueError(f"cannot parse part {tok.strip()!r} of {text!r}") from None
        return cls(parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def part(self, r: int) -> int:
        """The r-th part, 1-based, zero beyond the last row."""
        return self.parts[r - 1] if 1 <= r <= len(self.parts) else 0

    def contains(self, other: "StrictPartition") -> bool:
        other = StrictPartition(other)
        return len(other) <= len(self) and all(
            o <= s for o, s in zip(other.parts, self.parts)
        )

    def complement(self, m: int) -> "StrictPartition":
        """Complement inside the stair (m, m-1, ..., 1).

        Reflecting the unused cells of the stair through its anti-diagonal
        turns the complement into the strict partition whose part set is
        {1..m} minus the part set of self.
        """
        if self.parts and self.parts[0] > m:
            raise ValueError(f"{self} does not fit in the stair of width {m}")
        return StrictPartition(_stair_complement(self.parts, m))

    def __eq__(self, other):
        if isinstance(other, StrictPartition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __lt__(self, other):
        return self.parts < StrictPartition(other).parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def __repr__(self):
        return f"StrictPartition({self.parts})"


EMPTY_PARTITION = StrictPartition()


def strict_partitions_of(total: int):
    """All strict partitions of the given size, largest part first."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first - 1):
                yield (first,) + rest

    for parts in rec(total, total):
        yield StrictPartition(parts)


def strict_partitions_inside(bound) -> list:
    """All strict partitions contained in the given strict partition."""
    bound = StrictPartition(bound)

    def rec(r, cap):
        if r > len(bound):
            yield ()
            return
        yield ()
        for first in range(min(cap, bound.part(r)), 0, -1):
            for rest in rec(r + 1, first - 1):
                yield (first,) + rest

    return sorted({StrictPartition(p) for p in rec(1, bound.part(1))})


# ---------------------------------------------------------------------------
# Skew shifted shapes

class SkewShape(_Frozen):
    """A shifted skew shape outer/inner with precomputed cell data.

    cells_reading lists the cells in reading order (rows bottom to top, left
    to right); position maps each cell to its index in that list.  west,
    north and south give, per reading index, the reading index of the cell
    to the left, above and below, or None where that cell is not in the
    shape.
    """

    __slots__ = ("outer", "inner", "cells_reading", "position", "west", "north", "south")

    def __init__(self, outer, inner=EMPTY_PARTITION):
        outer = StrictPartition(outer)
        inner = StrictPartition(inner)
        if not outer.contains(inner):
            raise ValueError(f"inner shape {inner} not contained in outer {outer}")
        cells = []
        for r in range(len(outer), 0, -1):
            for c in range(r + inner.part(r), r + outer.part(r)):
                cells.append((r, c))
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        position = {cell: k for k, cell in enumerate(cells)}
        object.__setattr__(self, "cells_reading", tuple(cells))
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "west", tuple(position.get((r, c - 1)) for r, c in cells))
        object.__setattr__(self, "north", tuple(position.get((r - 1, c)) for r, c in cells))
        object.__setattr__(self, "south", tuple(position.get((r + 1, c)) for r, c in cells))

    @classmethod
    def parse(cls, text: str) -> "SkewShape":
        text = text.strip()
        if "/" in text:
            left, right = text.split("/", 1)
            return cls(StrictPartition.parse(left), StrictPartition.parse(right))
        return cls(StrictPartition.parse(text))

    @property
    def size(self) -> int:
        return len(self.cells_reading)

    @property
    def is_straight(self) -> bool:
        return not self.inner

    @property
    def cell_set(self):
        """The cells, as a read-only set view."""
        return self.position.keys()

    def row_span(self, r: int):
        """Columns (first, last) of the filled cells of row r; None if empty."""
        lo = r + self.inner.part(r)
        hi = r + self.outer.part(r) - 1
        return (lo, hi) if lo <= hi else None

    def __contains__(self, cell):
        return cell in self.position

    def __eq__(self, other):
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.outer.parts, self.inner.parts))

    def __str__(self):
        return f"{self.outer}/{self.inner}"

    def __repr__(self):
        return f"SkewShape({self.outer.parts}, {self.inner.parts})"


EMPTY_SHAPE = SkewShape(EMPTY_PARTITION)


@functools.lru_cache(maxsize=4096)
def shared_shape(outer_parts: tuple, inner_parts: tuple) -> SkewShape:
    """The SkewShape outer/inner, one shared object per pair of part tuples.

    Slides, restrictions and reflections land on few distinct shapes, so
    building each once saves its cell list and position map on every later
    call.  The cache is bounded; an evicted shape is rebuilt.
    """
    return SkewShape(outer_parts, inner_parts)


# ---------------------------------------------------------------------------
# Words

def canonicalize_codes(codes) -> tuple:
    """Unprime the leftmost letter of each value."""
    seen = set()
    out = []
    for x in codes:
        v = (x + 1) // 2
        if v not in seen:
            seen.add(v)
            x = 2 * v
        out.append(x)
    return tuple(out)


def _standard_order(codes) -> list:
    """Word positions by standardization number: letters from least to
    greatest, equal primed ones right to left, equal unprimed ones left to
    right (one integer key: the code, then the position, negated if primed)."""
    m = 2 * len(codes)
    return sorted(range(len(codes)), key=lambda j: codes[j] * m + (-j if codes[j] % 2 else j))


def standard_form(codes):
    """(values, positions): positions[m] is the word position of
    standardization number m + 1 and values[m] its letter value, the pair
    destandardize_codes inverts.  Both are fresh lists."""
    positions = _standard_order(codes)
    return [(codes[j] + 1) // 2 for j in positions], positions


def standardize_codes(codes) -> tuple:
    """Standardization numbers, 1-based, one per position (_standard_order)."""
    std = [0] * len(codes)
    for rank, j in enumerate(_standard_order(codes), start=1):
        std[j] = rank
    return tuple(std)


def prime_split(positions):
    """How many letters of an equal-value block are primed.

    positions lists, by standardization number, the word positions of the
    block.  A split into j primed then k - j unprimed letters is valid when
    the primed positions decrease, the unprimed ones increase, and the
    leftmost occurrence is unprimed: positions[:j + 1] strictly decrease and
    positions[j:] strictly increase.  So j is one less than the length of
    the longest strictly decreasing prefix, and it is valid exactly when the
    rest strictly increases.  Returns that j, or None when no split exists
    (the block cannot be realized canonically).
    """
    k = len(positions)
    j = 0
    while j + 1 < k and positions[j] > positions[j + 1]:
        j += 1
    t = j
    while t + 1 < k and positions[t] < positions[t + 1]:
        t += 1
    return j if t == k - 1 else None


def destandardize_codes(values, positions):
    """The canonical word with a given standardization and letter values.

    values[m] and positions[m] are the letter value and the word position
    of standardization number m + 1; values must be weakly increasing.
    Each block of equal values takes its unique prime split.  Returns the
    codes by word position, or None when some block has no canonical split.
    """
    codes = [0] * len(values)
    start = 0
    while start < len(values):
        v = values[start]
        end = start + 1
        while end < len(values) and values[end] == v:
            end += 1
        block = positions[start:end]
        j = prime_split(block)
        if j is None:
            return None
        for t, p in enumerate(block):
            codes[p] = 2 * v - 1 if t < j else 2 * v
        start = end
    return tuple(codes)


class Word(_Frozen):
    """A word over the primed alphabet, stored in canonical form."""

    __slots__ = ("codes", "n")

    def __init__(self, codes=(), n=None):
        codes = tuple(codes)
        if codes and min(codes) < 1:
            raise ValueError(f"letter codes must be at least 1, got {min(codes)}")
        codes = canonicalize_codes(codes)
        maxval = letter_value(max(codes, default=0))
        if n is None:
            n = maxval
        elif maxval > n:
            raise ValueError(f"letter value {maxval} out of range for n={n}")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "n", int(n))

    @classmethod
    def parse(cls, text: str, n=None) -> "Word":
        toks = text.split()
        return cls((parse_letter(t) for t in toks), n)

    def weight(self) -> tuple:
        counts = [0] * self.n
        for x in self.codes:
            counts[letter_value(x) - 1] += 1
        return tuple(counts)

    def standardize(self) -> tuple:
        return standardize_codes(self.codes)

    def with_n(self, n: int) -> "Word":
        return Word(self.codes, n)

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        return isinstance(other, Word) and self.codes == other.codes and self.n == other.n

    def __hash__(self):
        return hash((self.codes, self.n))

    def __str__(self):
        return word_str(self.codes)

    def __repr__(self):
        return f"Word({str(self)!r}, n={self.n})"


def canonicalize(letters, n=None) -> Word:
    """Canonical representative of a string of letters.

    Accepts a Word, an iterable of integer codes, or a whitespace separated
    string such as "1 2' 2".
    """
    if isinstance(letters, Word):
        return letters if n is None else letters.with_n(n)
    if isinstance(letters, str):
        return Word.parse(letters, n)
    return Word(letters, n)


def write_subword(word, p: int, q: int, sub) -> tuple:
    """word with its letters of value in [p, q], in reading order, replaced
    by the letters of sub shifted up by p - 1; the rest stay put.

    The inverse of ShiftedTableau.interval_subword on the positions it
    reads; sub must have one letter over [1, q - p + 1]' per position.
    """
    lo, hi, shift = 2 * p - 1, 2 * q, 2 * (p - 1)
    slots = [k for k, x in enumerate(word) if lo <= x <= hi]
    if len(slots) != len(sub) or not all(1 <= x <= hi - shift for x in sub):
        raise InvariantError(
            f"{sub} does not fit the {len(slots)} letters of [{p}, {q}] in {word}")
    out = list(word)
    for k, x in zip(slots, sub):
        out[k] = x + shift
    return tuple(out)


# ---------------------------------------------------------------------------
# Shifted tableaux

class ShiftedTableau(_Frozen):
    """A semistandard shifted skew tableau in canonical form.

    Stored as its shape and its reading word: word[k] fills the cell
    shape.cells_reading[k].
    """

    __slots__ = ("shape", "word_codes")

    def __init__(self, shape: SkewShape, word):
        word = tuple(word)
        if len(word) != shape.size:
            raise ValueError("word length does not match shape size")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "word_codes", word)
        self.check()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def parse(cls, shape_text: str, filling_text: str) -> "ShiftedTableau":
        shape = SkewShape.parse(shape_text)
        chunks = [chunk.strip() for chunk in filling_text.split("/")]
        if len(chunks) != len(shape.outer):
            raise ValueError(
                f"expected {len(shape.outer)} rows in filling, got {len(chunks)}"
            )
        word = []
        for r in range(len(chunks), 0, -1):
            toks = chunks[r - 1].split()
            span = shape.row_span(r)
            expected = 0 if span is None else span[1] - span[0] + 1
            if len(toks) != expected:
                raise ValueError(f"row {r} expects {expected} cells, got {len(toks)}")
            word.extend(parse_letter(tok) for tok in toks)
        return cls(shape, word)

    # -- invariants ----------------------------------------------------------

    def check(self):
        """Semistandard and canonical, else ValueError; each letter is
        compared with its west and north neighbours only (module docstring)."""
        word = self.word_codes
        shape = self.shape
        for (r, c), x, west, north in zip(shape.cells_reading, word, shape.west, shape.north):
            if x < 1:
                raise ValueError(f"bad letter code {x}")
            if west is not None and word[west] >= x:
                if word[west] > x:
                    raise ValueError(f"row {r} decreasing at column {c}")
                if x % 2:
                    raise ValueError(f"two {(x + 1) // 2}' in row {r}")
            if north is not None and word[north] >= x:
                if word[north] > x:
                    raise ValueError(f"column {c} decreasing at row {r}")
                if not x % 2:
                    raise ValueError(f"two unprimed {x // 2} in column {c}")
        if word != canonicalize_codes(word):
            raise ValueError("reading word is not in canonical form")
        return self

    # -- accessors -----------------------------------------------------------

    def entry(self, r: int, c: int):
        k = self.shape.position.get((r, c))
        return None if k is None else self.word_codes[k]

    def _row(self, r: int) -> tuple:
        """Letter codes of row r, left to right."""
        span = self.shape.row_span(r)
        if span is None:
            return ()
        start = self.shape.position[(r, span[0])]
        return self.word_codes[start:start + span[1] - span[0] + 1]

    def reading_word(self, n=None) -> Word:
        return Word(self.word_codes, n)

    def weight(self, n=None) -> tuple:
        """Letters of each value 1..n; n defaults to the largest value."""
        top = (max(self.word_codes, default=0) + 1) // 2
        if n is not None and top > n:
            raise ValueError(f"letter value {top} out of range for n={n}")
        counts = [0] * (top if n is None else n)
        for x in self.word_codes:
            counts[(x - 1) // 2] += 1
        return tuple(counts)

    @property
    def size(self) -> int:
        return self.shape.size

    def max_value(self) -> int:
        return max((letter_value(x) for x in self.word_codes), default=0)

    # -- interval restriction ------------------------------------------------

    def value_boundary(self, v: int) -> StrictPartition:
        """Outer boundary of the sub-shape holding letters of value <= v."""
        parts = []
        for r in range(1, len(self.shape.outer) + 1):
            last = self.shape.inner.part(r)
            for x in self._row(r):
                if letter_value(x) > v:
                    break
                last += 1
            parts.append(last)
        try:
            return StrictPartition(parts)
        except ValueError as exc:
            raise InvariantError(f"letters <= {v} do not form a shape: {exc}") from exc

    def restrict(self, p: int, q: int) -> "ShiftedTableau":
        """Sub-tableau on the letters with value in [p, q], re-canonicalized."""
        if p > q:
            return EMPTY_TABLEAU
        cells, codes = [], []
        for cell, x in zip(self.shape.cells_reading, self.word_codes):
            if p <= letter_value(x) <= q:
                cells.append(cell)
                codes.append(x)
        if not cells:
            return EMPTY_TABLEAU
        outer = self.value_boundary(q)
        inner = self.value_boundary(p - 1) if p > 1 else self.shape.inner
        shape = shared_shape(outer.parts, inner.parts)
        # both cell lists are in reading order, so equal lists mean equal sets
        if shape.cells_reading != tuple(cells):
            raise InvariantError("interval restriction does not match its boundary")
        return ShiftedTableau(shape, canonicalize_codes(codes))

    def interval_subword(self, p: int, q: int, n: int) -> tuple:
        """The letters of value in [p, q] in reading order, as codes shifted
        down to start at 1.

        Raises ValueError when the tableau holds a letter above n.
        """
        word = self.word_codes
        if word and max(word) > 2 * n:
            raise ValueError(f"tableau uses values above n={n}")
        lo, hi, shift = 2 * p - 1, 2 * q, 2 * (p - 1)
        return tuple(x - shift for x in word if lo <= x <= hi)

    def with_interval_subword(self, p: int, q: int, sub):
        """The tableau on the same shape with its [p, q] letters replaced by
        sub (write_subword); None passes through.

        A filling that is not semistandard and canonical is an
        InvariantError: the answers written back come from operators that
        must preserve both.
        """
        if sub is None:
            return None
        try:
            return ShiftedTableau(self.shape, write_subword(self.word_codes, p, q, sub))
        except ValueError as exc:
            raise InvariantError(
                f"writing {sub} back at [{p}, {q}] of {self} is not a tableau: {exc}") from exc

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, ShiftedTableau)
            and self.shape == other.shape
            and self.word_codes == other.word_codes
        )

    def __hash__(self):
        return hash((self.shape, self.word_codes))

    def __str__(self):
        return " / ".join(word_str(self._row(r))
                          for r in range(1, len(self.shape.outer) + 1))

    def __repr__(self):
        return f"ShiftedTableau({self.shape!r}, {str(self)!r})"


EMPTY_TABLEAU = ShiftedTableau(EMPTY_SHAPE, ())


# ---------------------------------------------------------------------------
# Enumeration

def _leaf(shape, word, new=object.__new__, set_shape=ShiftedTableau.shape.__set__,
          set_word=ShiftedTableau.word_codes.__set__):
    """ShiftedTableau(shape, word) unchecked, for fillings valid by construction."""
    T = new(ShiftedTableau)
    set_shape(T, shape)
    set_word(T, word)
    return T


class _Leaves(_Frozen):
    """The tableaux of one enumeration, as a read-only sequence: count
    words of width letters each, back to back in codes, each built into a
    tableau (_leaf) on access.  Slices are tuples, and it equals a tuple or
    another _Leaves holding equal tableaux in the same order."""

    __slots__ = ("shape", "codes", "width", "count")

    def __init__(self, shape, codes, width, count):
        for name, value in zip(self.__slots__, (shape, codes, width, count)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return self.count

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(self.count)[index]))
        k = index + self.count if index < 0 else index
        if not 0 <= k < self.count:
            raise IndexError(f"tableau index {index} out of range")
        start = k * self.width
        return _leaf(self.shape, tuple(self.codes[start:start + self.width]))

    def __iter__(self):
        shape, codes, w = self.shape, self.codes, self.width
        for k in range(self.count):
            yield _leaf(shape, tuple(codes[k * w:k * w + w]))

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Leaves)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"_Leaves({self.shape!r}, {self.count} tableaux)"


def _enumerate(shape: SkewShape, n: int, limit: int = None, content=None) -> _Leaves:
    """enumerate_tableaux(shape, n), or its first limit tableaux when limit
    (at least 1) is given: the search unwinds once it has that many.  Given
    content, n letter counts summing to the shape's size, only the tableaux
    of that weight, in the same order: a code's value, once full, is skipped.

    Code x fits when west <= x <= south (both read before it), a primed x
    differs from west and its value is already placed unprimed, and an
    unprimed x differs from south: exact, by the module docstring.  Each
    leaf's word goes onto one buffer (_Leaves), a bytearray while every
    code fits in a byte and a list above that; no tableau is built here.
    """
    if n < 0:
        raise ValueError("alphabet bound must be non-negative")
    shape = shared_shape(shape.outer.parts, shape.inner.parts)
    cells = shape.cells_reading
    if not cells:
        return _Leaves(shape, b"", 0, 1)
    # reading positions of the west and south neighbours, both read earlier
    west_of, below_of = shape.west, shape.south
    last, top = len(cells) - 1, 2 * n
    pack, words = (bytes, bytearray()) if top < 256 else (tuple, [])
    stop = None if limit is None else limit * len(cells)
    word = [0] * len(cells)
    placed = [0] * (top + 1)  # letters placed, by code: placed[2v] counts unprimed v

    def place(idx):
        west, below = west_of[idx], below_of[idx]
        w = word[west] if west is not None else 0
        s = word[below] if below is not None else 0
        prefix = pack(word[:last]) if idx == last else None
        for code in range(w or 1, (s or top) + 1):
            if code % 2:
                if code == w or not placed[code + 1]:
                    continue
            elif code == s:
                continue
            if content is not None:
                v = (code + 1) // 2
                if placed[2 * v - 1] + placed[2 * v] >= content[v - 1]:
                    continue
            if prefix is not None:
                words.extend(prefix)
                words.append(code)
                if len(words) == stop:
                    return False  # unwinds the whole search
            else:
                word[idx] = code
                placed[code] += 1
                if not place(idx + 1):
                    return False
                placed[code] -= 1
        return True

    place(0)
    return _Leaves(shape, words, len(cells), len(words) // len(cells))


def enumerate_tableaux(shape: SkewShape, n: int) -> _Leaves:
    """All canonical semistandard fillings of the shape over [n]'.

    Deterministic: sorted lexicographically by reading word.  The result is
    a read-only sequence that holds the reading words and builds each
    tableau on access; it equals the tuple of those tableaux.  Nothing is
    cached: each call enumerates afresh, and a tableau read twice is built
    twice.
    """
    return _enumerate(shape, n)

