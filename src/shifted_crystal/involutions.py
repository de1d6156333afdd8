"""The star operator, evacuation, reversal, and interval restrictions of them.

All of these need the alphabet bound n: star complements letter values in
[n]', and the interval form eta_{p,q} acts on the letters [p,q]' only.

eta_{p,q} is keyed on T's [p, q] subword (ShiftedTableau.interval_subword)
and on q - p + 1, the alphabet it is reversed over.  Like the colour-i
operators, reversal is coplactic and acts on the letters [p, q]' through
their reading word, so the shape drops out and the subword's word tableau
(jdt._word_tableau: one row per row-fitting run, with few inner cells)
stands in for T's own piece.  One bounded cache holds the reversed subword
per key, and the answer is written back into the same reading positions
(ShiftedTableau.with_interval_subword).
"""

import functools

from .core import (
    EMPTY_TABLEAU,
    InvariantError,
    ShiftedTableau,
    Word,
    canonicalize_codes,
    letter,
    letter_value,
    is_primed,
    shared_shape,
)
from .jdt import _word_tableau, rectify, unrectify

__all__ = [
    "IntervalPermutation",
    "star",
    "evacuate",
    "reversal",
    "eta",
    "eta_interval",
]


class IntervalPermutation:
    """Longest permutation of the operator indices [p, q-1].

    On indices it sends i to p + q - i - 1 inside [p, q-1] and fixes the
    rest; on weights it reverses the coordinates p..q.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if not 1 <= p < q:
            raise ValueError(f"need 1 <= p < q, got ({p}, {q})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("IntervalPermutation is immutable")

    def index(self, i: int) -> int:
        if self.p <= i <= self.q - 1:
            return self.p + self.q - i - 1
        return i

    def on_weight(self, wt) -> tuple:
        wt = tuple(wt)
        p, q = self.p, self.q
        return wt[: p - 1] + tuple(reversed(wt[p - 1 : q])) + wt[q:]

    def __repr__(self):
        return f"IntervalPermutation({self.p}, {self.q})"


def star(T: ShiftedTableau, n: int) -> ShiftedTableau:
    """Reflect T through the anti-diagonal of its stair and complement values.

    The stair is built from the first outer part; entries map by
    i -> (n - i + 1)' and i' -> n - i + 1, cells by
    (r, c) -> (m + 1 - c, m + 1 - r).  The result has shape
    inner^complement / outer^complement and reversed weight.
    """
    if T.size == 0:
        return EMPTY_TABLEAU
    if T.max_value() > n:
        raise ValueError(f"tableau uses values above n={n}")
    m = T.shape.outer.parts[0]
    shape = shared_shape(T.shape.inner.complement(m).parts, T.shape.outer.complement(m).parts)
    if shape.size != T.size:
        raise InvariantError("star reflection does not fill the complement shape")
    codes = [0] * shape.size
    for (r, c), x in zip(T.shape.cells_reading, T.word_codes):
        k = shape.position.get((m + 1 - c, m + 1 - r))
        if k is None:
            raise InvariantError("star reflection does not fill the complement shape")
        codes[k] = letter(n - letter_value(x) + 1, not is_primed(x))
    return ShiftedTableau(shape, canonicalize_codes(codes))


def evacuate(T: ShiftedTableau, n: int) -> ShiftedTableau:
    """Rectified star: a shape-preserving weight-reversing involution."""
    if not T.shape.is_straight:
        raise ValueError("evacuation is defined for straight shapes only")
    E = rectify(star(T, n))[0]
    if E.shape != T.shape:
        raise InvariantError("evacuation changed the shape")
    return E


def reversal(T: ShiftedTableau, n: int) -> ShiftedTableau:
    """Coplactic extension of evacuation to skew shapes.

    Rectify, evacuate, then undo the rectification slides; equals evacuation
    on straight shapes.
    """
    R, record = rectify(T)
    return unrectify(evacuate(R, n), record)


def eta(T: ShiftedTableau, n: int) -> ShiftedTableau:
    """The crystal involution: evacuation on straight shapes, reversal otherwise."""
    return reversal(T, n)


@functools.lru_cache(maxsize=4096)
def _reversed_subword(k: int, sub: tuple) -> tuple:
    """The reversal over [k]' of a canonical word, as a word: the reading
    word of its word tableau (jdt._word_tableau), reversed.  Reversal is
    coplactic, so any tableau with reading word sub gives the same word;
    this one has fewer inner cells to slide through than
    jdt.strip_tableau."""
    return reversal(_word_tableau(Word(sub, k).codes), k).word_codes


def eta_interval(T: ShiftedTableau, p: int, q: int, n: int) -> ShiftedTableau:
    """Restriction of eta to the letters [p, q]'.

    Letters outside the interval stay put; the interval's letters are
    shifted down to the alphabet [1, q - p + 1], reversed there, and
    written back in place.
    """
    if not 1 <= p < q <= n:
        raise ValueError(f"need 1 <= p < q <= n, got ({p}, {q}) with n={n}")
    sub = T.interval_subword(p, q, n)
    return T.with_interval_subword(p, q, _reversed_subword(q - p + 1, sub))
