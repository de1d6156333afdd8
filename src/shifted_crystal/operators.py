"""Primed and unprimed crystal operators, string data, and reflections.

The primed operators realize their characterization exactly: the unique word
with the same standardization and weight shifted by one simple root.  Since
letter values are weakly increasing along standardization numbers, shifting
the weight moves the boundary number between the value-i and value-(i+1)
blocks; the primes of each block are then re-derived as the unique split
giving a canonical word, and the operator is undefined when no split exists.
Note a prime elsewhere in the {i, i+1} letters may flip in the process.

Every colour-i operation depends only on the {i, i+1} subword of the
reading word: its letters of value i and i+1 in reading order, shifted down
to {1, 2} (ShiftedTableau.interval_subword).  The shape drops out because
the operators act on words.  The primed ones move the boundary between the
value-i and value-(i+1) blocks and leave every other block where it was;
F_i, E_i and sigma_i are coplactic, so any tableau with that reading word,
here the subword's word tableau (jdt.strip_tableau: one row per row-fitting
run of the subword), gives the same answer.  _colour_one
computes each subword's F, E, F', E' and sigma targets and Lengths once, in
a bounded cache; a tableau's answer is its target written back into the
same reading positions (ShiftedTableau.with_interval_subword).

The solid edges of a straight two-letter crystal are reconstructed from its
dashed (primed) edges.  Such a crystal is a single string in two possible
arrangements: a ladder of two equal chains joined by dashed edges, or a
single chain carrying both edge kinds.  A repeated weight level forces the
ladder; a two-vertex string is a ladder with no solid edges at all; anything
else is a single chain following the dashed path.  The string is stored once,
as its chains (StringDescriptor); F, E, sigma and the Lengths of a vertex
are read off its place in them (_place_facts).
"""

import collections
import functools
import re

from .core import (
    InvariantError,
    ShiftedTableau,
    Word,
    destandardize_codes,
    letter_value,
    standardize_codes,
    enumerate_tableaux,
    shared_shape,
)
from .jdt import rectify, strip_tableau, unrectify

__all__ = [
    "primed_raise",
    "primed_lower",
    "primed_raise_tableau",
    "primed_lower_tableau",
    "unprimed_raise",
    "unprimed_lower",
    "StringDescriptor",
    "classify_string",
    "Lengths",
    "lengths",
    "sigma",
    "is_highest",
    "is_lowest",
    "parse_operator_program",
    "apply_operator",
    "apply_program",
]


def _check_color(i, n):
    if not 1 <= i < n:
        raise ValueError(f"color must satisfy 1 <= i <= n-1, got {i} (n={n})")


# ---------------------------------------------------------------------------
# Primed operators on words

def _revalue_word(w: Word, src: int, dst: int):
    """The unique word with the same standardization as w whose weight has
    one letter of value src moved to the adjacent value dst, or None."""
    L = len(w.codes)
    if L == 0:
        return None
    std = standardize_codes(w.codes)
    positions = [0] * L
    values = [0] * L
    for j, (m, x) in enumerate(zip(std, w.codes)):
        positions[m - 1] = j
        values[m - 1] = letter_value(x)
    block = [m for m in range(L) if values[m] == src]
    if not block:
        return None
    # moving the boundary number keeps values weakly increasing by number
    values[max(block) if dst > src else min(block)] = dst
    codes = destandardize_codes(values, positions)
    if codes is None:
        return None
    out = Word(codes, w.n)
    if standardize_codes(out.codes) != std:
        raise InvariantError(f"re-valuing of {w} changed the standardization")
    return out


def primed_raise(w: Word, i: int):
    """E'_i: same standardization, weight increased by alpha_i, or None."""
    _check_color(i, w.n)
    return _revalue_word(w, i + 1, i)


def primed_lower(w: Word, i: int):
    """F'_i: same standardization, weight decreased by alpha_i, or None."""
    _check_color(i, w.n)
    return _revalue_word(w, i, i + 1)


def _codes(w):
    return None if w is None else w.codes


def _on_reading_word(op):
    """A primed word operator of colour 1 acting on two-letter tableaux."""
    return lambda T: T.with_interval_subword(1, 2, _codes(op(T.reading_word(2), 1)))


# ---------------------------------------------------------------------------
# String arrangements

def _string_error(problem, members):
    return InvariantError(
        f"{problem} in the {len(members)}-vertex string through {members[0]!r}")


def _arrange(members, level, raise_op, lower_op):
    """Arrangement of one string from its members and its dashed edges.

    raise_op and lower_op are E' and F' on members; level is the weight
    difference across the color.  Returns (kind, chains) with chains
    ordered from highest weight down.  A single vertex is collapsed; a
    repeated level, or exactly two vertices, forces a ladder of two chains
    joined by dashed rungs; anything else is one chain along the dashed
    path.
    """
    members = list(members)
    if len(members) == 1:
        return "collapsed", (tuple(members),)
    levels = [level(U) for U in members]
    if len(set(levels)) < len(levels) or len(members) == 2:
        top = sorted((U for U in members if raise_op(U) is None), key=level, reverse=True)
        bottom = sorted((U for U in members if lower_op(U) is None), key=level, reverse=True)
        if len(top) != len(bottom) or 2 * len(top) != len(members) or set(top) & set(bottom):
            raise _string_error("ladder chains malformed", members)
        for chain in (top, bottom):
            for a, b in zip(chain, chain[1:]):
                if level(a) != level(b) + 2:
                    raise _string_error("chain levels not in steps of 2", members)
        for u, v in zip(top, bottom):
            if lower_op(u) != v or raise_op(v) != u or level(u) != level(v) + 2:
                raise _string_error("ladder rungs malformed", members)
        return "separated", (tuple(top), tuple(bottom))
    starts = [U for U in members if raise_op(U) is None]
    if len(starts) != 1:
        raise _string_error(f"single chain with {len(starts)} starts", members)
    chain = [starts[0]]
    while (U := lower_op(chain[-1])) is not None:
        chain.append(U)
    if len(chain) != len(members):
        raise _string_error("dashed path does not cover the string", members)
    return "collapsed", (tuple(chain),)


# ---------------------------------------------------------------------------
# The straight two-letter crystal

def _level(T):
    wt = T.weight(2)
    return wt[0] - wt[1]


@functools.lru_cache(maxsize=1024)
def _two_letter_string(outer_parts) -> "StringDescriptor":
    """The straight two-letter crystal on this shape, as one string.

    Its arrangement comes from the dashed edges (_arrange), computed by the
    word operators directly.
    """
    shape = shared_shape(outer_parts, ())
    verts = enumerate_tableaux(shape, 2)
    if not verts:
        raise InvariantError(f"no two-letter tableaux of shape {shape}")
    return StringDescriptor(1, *_arrange(
        verts, _level, _on_reading_word(primed_raise), _on_reading_word(primed_lower)))


def _place_facts(R):
    """(F, E, sigma, Lengths) of a straight two-letter tableau R, read off
    its place in its string.

    F and E are the next and previous vertex along R's chain.  sigma
    reflects the string through both axes: a chain c of L vertices sends
    c[j] to c[L-1-j], a ladder (top, bottom) of m-vertex chains swaps top[j]
    and bottom[m-1-j].  In a ladder the rung is the one dashed step.
    """
    string = _two_letter_string(R.shape.outer.parts)
    place = string.place.get(R)
    if place is None:
        raise InvariantError(f"{R!r} is missing from its two-letter string")
    k, j = place
    chain = string.chains[k]
    last = len(chain) - 1
    if string.kind == "collapsed":
        lens = Lengths(j, j, last - j, last - j, j, last - j)
    else:  # k = 0 on the top chain, 1 on the bottom one
        lens = Lengths(j, k, last - j, 1 - k, j + k, last - j + 1 - k)
    return (chain[j + 1] if j < last else None, chain[j - 1] if j else None,
            string.chains[-1 - k][last - j], lens)


# ---------------------------------------------------------------------------
# Colour-i operations, keyed on the {i, i+1} subword

_Colour1 = collections.namedtuple("_Colour1", "f e f_prime e_prime sigma lengths")

# the length functions of one colour
Lengths = collections.namedtuple("Lengths", "eps_hat eps_prime phi_hat phi_prime eps phi")


@functools.lru_cache(maxsize=4096)
def _colour_one(sub) -> _Colour1:
    """The colour-1 record of a canonical word over {1, 2}'.

    Each of F, E, F', E' and sigma maps the word to a target word of the
    same length (None where undefined); lengths is its Lengths.  The primed
    targets come from the word operators, the rest from the place
    (_place_facts) of the word's tableau (jdt.strip_tableau), rectified, in
    its straight string, carried back along the same slides.
    """
    w = Word(sub, 2)
    R, record = rectify(strip_tableau(w))
    f, e, s, lens = _place_facts(R)

    def back(target):
        return None if target is None else unrectify(target, record).word_codes

    return _Colour1(back(f), back(e), _codes(primed_lower(w, 1)),
                    _codes(primed_raise(w, 1)), back(s), lens)


def _record(T: ShiftedTableau, i: int, n: int) -> _Colour1:
    """The colour-1 record of T's {i, i+1} subword."""
    _check_color(i, n)
    return _colour_one(T.interval_subword(i, i + 1, n))


def unprimed_lower(T: ShiftedTableau, i: int, n: int):
    """F_i: one solid edge down, or None."""
    return T.with_interval_subword(i, i + 1, _record(T, i, n).f)


def unprimed_raise(T: ShiftedTableau, i: int, n: int):
    """E_i: one solid edge up, or None."""
    return T.with_interval_subword(i, i + 1, _record(T, i, n).e)


def primed_lower_tableau(T: ShiftedTableau, i: int, n: int):
    """F'_i on a tableau: same shape, lowered reading word."""
    return T.with_interval_subword(i, i + 1, _record(T, i, n).f_prime)


def primed_raise_tableau(T: ShiftedTableau, i: int, n: int):
    """E'_i on a tableau: same shape, raised reading word."""
    return T.with_interval_subword(i, i + 1, _record(T, i, n).e_prime)


# ---------------------------------------------------------------------------
# Strings and length functions

class StringDescriptor:
    """One {i, i'}-connected component with its arrangement.

    Separated strings carry (top, bottom) chains of equal length; collapsed
    strings a single chain.  Chains are ordered from highest weight down.
    place maps each member to (k, j): it is chains[k][j].
    """

    __slots__ = ("color", "kind", "chains", "place")

    def __init__(self, color, kind, chains):
        self.color = color
        self.kind = kind
        self.chains = tuple(tuple(c) for c in chains)
        self.place = {T: (k, j) for k, chain in enumerate(self.chains)
                      for j, T in enumerate(chain)}

    @property
    def members(self) -> frozenset:
        return frozenset(self.place)

    @property
    def size(self) -> int:
        return len(self.place)

    def __repr__(self):
        return f"StringDescriptor(color={self.color}, kind={self.kind}, size={self.size})"


def classify_string(T: ShiftedTableau, i: int, n: int) -> StringDescriptor:
    """The full i-string through T, classified as separated or collapsed."""
    members = {T}
    frontier = [T]
    while frontier:
        nxt = []
        for U in frontier:
            for op in (unprimed_lower, unprimed_raise, primed_lower_tableau, primed_raise_tableau):
                V = op(U, i, n)
                if V is not None and V not in members:
                    members.add(V)
                    nxt.append(V)
        frontier = nxt

    def level(U):
        wt = U.weight(n)
        return wt[i - 1] - wt[i]

    kind, chains = _arrange(
        members, level,
        lambda U: primed_raise_tableau(U, i, n),
        lambda U: primed_lower_tableau(U, i, n),
    )
    return StringDescriptor(i, kind, chains)


def lengths(T: ShiftedTableau, i: int, n: int) -> Lengths:
    """Partial and total length functions of T for color i.

    Read at the place of T's rectified {i, i+1} letters in their straight
    two-letter string: along a chain, eps = eps_hat = eps_prime counts the
    steps above; in a ladder the hatted lengths count solid steps within
    the chain, the primed ones the single rung, and the totals add them.
    """
    return _record(T, i, n).lengths


# ---------------------------------------------------------------------------
# Shifted reflection operators

def sigma(T: ShiftedTableau, i: int, n: int) -> ShiftedTableau:
    """The reflection operator: the i-string flipped through both its axes.

    Reads the reflection of T's {i, i+1} letters off their place in their
    straight two-letter string (see _place_facts), so it fixes vertices
    isolated in their i-string.  Coincides with eta restricted to the letters
    {i, i+1}'.
    """
    out = T.with_interval_subword(i, i + 1, _record(T, i, n).sigma)
    if out is None:
        raise InvariantError(f"sigma_{i} fell off the crystal at {T}")
    return out


def is_highest(T: ShiftedTableau, n: int) -> bool:
    """True when every raising operator vanishes on T."""
    records = (_record(T, i, n) for i in range(1, n))
    return all(r.e is None and r.e_prime is None for r in records)


def is_lowest(T: ShiftedTableau, n: int) -> bool:
    """True when every lowering operator vanishes on T."""
    records = (_record(T, i, n) for i in range(1, n))
    return all(r.f is None and r.f_prime is None for r in records)


# ---------------------------------------------------------------------------
# Operator programs ("F1,E2',S1")

_OP_RE = re.compile(r"^([EFS])(\d+)('?)$")


def parse_operator_program(text: str):
    """Parse a comma separated program into (kind, color, primed) triples."""
    ops = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        m = _OP_RE.match(tok)
        if not m:
            raise ValueError(f"cannot parse operator {tok!r}")
        kind, color, prime = m.group(1), int(m.group(2)), m.group(3) == "'"
        if kind == "S" and prime:
            raise ValueError("reflection operators have no primed form")
        ops.append((kind, color, prime))
    return ops


def apply_operator(T: ShiftedTableau, op, n: int):
    kind, i, primed = op
    if kind == "S":
        return sigma(T, i, n)
    if kind == "E":
        return primed_raise_tableau(T, i, n) if primed else unprimed_raise(T, i, n)
    return primed_lower_tableau(T, i, n) if primed else unprimed_lower(T, i, n)


def apply_program(T: ShiftedTableau, program, n: int):
    """Apply operators left to right; None as soon as one is undefined."""
    if isinstance(program, str):
        program = parse_operator_program(program)
    for op in program:
        if T is None:
            return None
        T = apply_operator(T, op, n)
    return T
