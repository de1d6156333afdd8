"""Primed and unprimed crystal operators, string data, and reflections.

The primed operators realize their characterization exactly: the unique word
with the same standardization and weight shifted by one simple root.  Since
letter values are weakly increasing along standardization numbers, shifting
the weight moves the boundary number between the value-i and value-(i+1)
blocks; the primes of each block are then re-derived as the unique split
giving a canonical word, and the operator is undefined when no split exists.
Note a prime elsewhere in the word may flip in the process.

The unprimed operators act through the two-letter subcrystal: restrict to
the values {i, i+1}, rectify, walk one solid edge of the straight two-letter
crystal, undo the rectification and splice back.

The solid edges of a straight two-letter crystal are reconstructed from its
dashed (primed) edges.  Such a crystal is a single string in two possible
arrangements: a ladder of two equal chains joined by dashed edges, or a
single chain carrying both edge kinds.  A repeated weight level forces the
ladder; a two-vertex string is a ladder with no solid edges at all; anything
else is a single chain following the dashed path.
"""

import functools
import re

from .core import (
    InvariantError,
    ShiftedTableau,
    SkewShape,
    Word,
    destandardize_codes,
    letter_value,
    splice,
    standardize_codes,
    enumerate_tableaux,
)
from .jdt import rectify, unrectify

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

_CACHE_SIZE = 1 << 18


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
    if not 1 <= i < w.n:
        raise ValueError(f"color must satisfy 1 <= i <= n-1, got {i} (n={w.n})")
    return _revalue_word(w, i + 1, i)


def primed_lower(w: Word, i: int):
    """F'_i: same standardization, weight decreased by alpha_i, or None."""
    if not 1 <= i < w.n:
        raise ValueError(f"color must satisfy 1 <= i <= n-1, got {i} (n={w.n})")
    return _revalue_word(w, i, i + 1)


def _refill(T: ShiftedTableau, w) -> ShiftedTableau:
    if w is None:
        return None
    try:
        return ShiftedTableau(T.shape, w.codes)
    except ValueError as exc:
        raise InvariantError(f"operator output not semistandard on {T.shape}: {exc}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _primed_raise_t(T: ShiftedTableau, i: int, n: int):
    return _refill(T, primed_raise(T.reading_word(n), i))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _primed_lower_t(T: ShiftedTableau, i: int, n: int):
    return _refill(T, primed_lower(T.reading_word(n), i))


def primed_raise_tableau(T: ShiftedTableau, i: int, n: int):
    """E'_i on a tableau: same shape, raised reading word."""
    return _primed_raise_t(T, i, n)


def primed_lower_tableau(T: ShiftedTableau, i: int, n: int):
    """F'_i on a tableau: same shape, lowered reading word."""
    return _primed_lower_t(T, i, n)


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

class _TwoLetterString:
    __slots__ = ("kind", "chains", "f_map", "e_map")

    def __init__(self, kind, chains):
        self.kind = kind
        self.chains = chains
        self.f_map = {a: b for chain in chains for a, b in zip(chain, chain[1:])}
        self.e_map = {b: a for a, b in self.f_map.items()}


def _level(T):
    wt = T.weight(2)
    return wt[0] - wt[1]


@functools.lru_cache(maxsize=None)
def _two_letter_string(outer_parts) -> _TwoLetterString:
    """Solid-edge structure of the straight two-letter crystal on this shape.

    Solid edges run along each chain of the arrangement: the chains of a
    ladder, or the single chain that carries both edge kinds.
    """
    shape = SkewShape(outer_parts)
    verts = enumerate_tableaux(shape, 2)
    if not verts:
        raise InvariantError(f"no two-letter tableaux of shape {shape}")
    return _TwoLetterString(*_arrange(
        verts, _level,
        lambda T: primed_raise_tableau(T, 1, 2),
        lambda T: primed_lower_tableau(T, 1, 2),
    ))


# ---------------------------------------------------------------------------
# Unprimed operators

def _two_letter_step(T: ShiftedTableau, i: int, n: int, lowering: bool):
    mid = T.restrict(i, i + 1)
    if mid.size == 0:
        return None
    mid = mid.relabel(-(i - 1))
    R, record = rectify(mid)
    string = _two_letter_string(R.shape.outer.parts)
    target = string.f_map.get(R) if lowering else string.e_map.get(R)
    if target is None:
        return None
    moved = unrectify(target, record).relabel(i - 1)
    return splice(
        [T.restrict(1, i - 1), moved, T.restrict(i + 2, n)], shape=T.shape
    )


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _unprimed_lower(T, i, n):
    return _two_letter_step(T, i, n, lowering=True)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _unprimed_raise(T, i, n):
    return _two_letter_step(T, i, n, lowering=False)


def unprimed_lower(T: ShiftedTableau, i: int, n: int):
    """F_i: one solid edge down, or None."""
    if not 1 <= i < n:
        raise ValueError(f"color must satisfy 1 <= i <= n-1, got {i} (n={n})")
    return _unprimed_lower(T, i, n)


def unprimed_raise(T: ShiftedTableau, i: int, n: int):
    """E_i: one solid edge up, or None."""
    if not 1 <= i < n:
        raise ValueError(f"color must satisfy 1 <= i <= n-1, got {i} (n={n})")
    return _unprimed_raise(T, i, n)


# ---------------------------------------------------------------------------
# Strings and length functions

class StringDescriptor:
    """One {i, i'}-connected component with its arrangement.

    Separated strings carry (top, bottom) chains of equal length; collapsed
    strings a single chain.  Chains are ordered from highest weight down.
    """

    __slots__ = ("color", "kind", "chains")

    def __init__(self, color, kind, chains):
        self.color = color
        self.kind = kind
        self.chains = tuple(tuple(c) for c in chains)

    @property
    def members(self) -> frozenset:
        return frozenset(T for chain in self.chains for T in chain)

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.chains)

    def __repr__(self):
        return f"StringDescriptor(color={self.color}, kind={self.kind}, size={self.size})"


def _iterate(op, T, i, n):
    count = 0
    while True:
        U = op(T, i, n)
        if U is None:
            return count, T
        T = U
        count += 1


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


class Lengths(tuple):
    """(eps_hat, eps_prime, phi_hat, phi_prime, eps, phi) for one color."""

    __slots__ = ()

    def __new__(cls, eps_hat, eps_prime, phi_hat, phi_prime, eps, phi):
        return super().__new__(cls, (eps_hat, eps_prime, phi_hat, phi_prime, eps, phi))

    eps_hat = property(lambda self: self[0])
    eps_prime = property(lambda self: self[1])
    phi_hat = property(lambda self: self[2])
    phi_prime = property(lambda self: self[3])
    eps = property(lambda self: self[4])
    phi = property(lambda self: self[5])


def _string_kind_local(T, i, n):
    """Arrangement of T's i-string from T alone.

    In a ladder exactly one of E', F' is defined and the solid neighbour
    differs from the dashed one; in a single chain they coincide.
    """
    fp = primed_lower_tableau(T, i, n)
    ep = primed_raise_tableau(T, i, n)
    if fp is not None and ep is not None:
        return "collapsed"
    if fp is None and ep is None:
        if unprimed_lower(T, i, n) is not None or unprimed_raise(T, i, n) is not None:
            raise InvariantError("solid edges without dashed edges at a string end")
        return "collapsed"
    if fp is not None:
        return "collapsed" if unprimed_lower(T, i, n) == fp else "separated"
    return "collapsed" if unprimed_raise(T, i, n) == ep else "separated"


def lengths(T: ShiftedTableau, i: int, n: int) -> Lengths:
    """Partial and total length functions of T for color i."""
    eps_hat, _ = _iterate(unprimed_raise, T, i, n)
    phi_hat, _ = _iterate(unprimed_lower, T, i, n)
    eps_p, _ = _iterate(primed_raise_tableau, T, i, n)
    phi_p, _ = _iterate(primed_lower_tableau, T, i, n)
    if _string_kind_local(T, i, n) == "collapsed":
        if eps_hat != eps_p or phi_hat != phi_p:
            raise InvariantError("collapsed string with unequal partial lengths")
        eps, phi = eps_hat, phi_hat
    else:
        eps, phi = eps_hat + eps_p, phi_hat + phi_p
    return Lengths(eps_hat, eps_p, phi_hat, phi_p, eps, phi)


# ---------------------------------------------------------------------------
# Shifted reflection operators

def _power(op, T, i, n, m):
    for _ in range(m):
        T = op(T, i, n)
        if T is None:
            raise InvariantError(f"operator power ran off the {i}-string")
    return T


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _sigma(T, i, n):
    fp = primed_lower_tableau(T, i, n)
    ep = primed_raise_tableau(T, i, n)
    f = unprimed_lower(T, i, n)
    e = unprimed_raise(T, i, n)
    if fp is None and ep is None and f is None and e is None:
        return T
    wt = T.weight(n)
    k = wt[i - 1] - wt[i]
    if k > 0:
        if fp is not None:
            return primed_lower_tableau(_power(unprimed_lower, T, i, n, k - 1), i, n)
        return primed_raise_tableau(_power(unprimed_lower, T, i, n, k + 1), i, n)
    if k == 0:
        if fp is not None:
            return unprimed_raise(fp, i, n)
        return primed_raise_tableau(f, i, n)
    if fp is not None:
        return _power(unprimed_raise, fp, i, n, -k + 1)
    return _power(unprimed_raise, ep, i, n, -k - 1)


def sigma(T: ShiftedTableau, i: int, n: int) -> ShiftedTableau:
    """The reflection operator: the i-string flipped through both its axes.

    Fixes vertices isolated in their i-string; otherwise walks the string
    by a case table on k = wt_i - wt_{i+1} and whether F'_i is defined.
    Coincides with eta restricted to the letters {i, i+1}'.
    """
    if not 1 <= i < n:
        raise ValueError(f"color must satisfy 1 <= i <= n-1, got {i} (n={n})")
    out = _sigma(T, i, n)
    if out is None:
        raise InvariantError(f"sigma_{i} fell off the crystal at {T}")
    return out


def is_highest(T: ShiftedTableau, n: int) -> bool:
    """True when every raising operator vanishes on T."""
    return all(
        unprimed_raise(T, i, n) is None and primed_raise_tableau(T, i, n) is None
        for i in range(1, n)
    )


def is_lowest(T: ShiftedTableau, n: int) -> bool:
    """True when every lowering operator vanishes on T."""
    return all(
        unprimed_lower(T, i, n) is None and primed_lower_tableau(T, i, n) is None
        for i in range(1, n)
    )


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
