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
here the subword's word tableau (jdt._word_tableau: one row per row-fitting
run of the subword, with few inner cells), gives the same answer.
_colour_one gives each subword's F, E, F', E' and sigma targets and
Lengths from one bounded table, filled a two-letter string at a time: one
rectification serves every subword in the string, each member of the
straight string carried back along the same slides (_string_records).  A
tableau's answer is its target written back into the same reading
positions (ShiftedTableau.with_interval_subword).

A string is arranged once, on words, from one map of its dashed (primed)
edges (_arrange): each member, a word over {1, 2}', maps to its E' and F'
targets.  A string comes in two arrangements: a ladder of two equal chains
joined by dashed edges, or a single chain carrying both edge kinds.  A
repeated weight level forces the ladder; a two-vertex string is a ladder
with no solid edges at all; anything else is a single chain following the
dashed path.  The straight two-letter crystal is one string, arranged from
the word operators and stored once, as its chains (StringDescriptor); F, E,
sigma and the Lengths of a vertex are read off its place in them
(_place_facts).  classify_string arranges the i-string through a tableau
from the colour-one records of its subwords.
"""

import collections
import functools
import re

from .core import (
    InvariantError,
    ShiftedTableau,
    Word,
    destandardize_codes,
    enumerate_tableaux,
    shared_shape,
    standard_form,
)
from .jdt import _word_tableau, rectify, unrectify

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
    if not w.codes:
        return None
    values, positions = standard_form(w.codes)
    block = [m for m, v in enumerate(values) if v == src]
    if not block:
        return None
    # moving the boundary number keeps values weakly increasing by number
    values[max(block) if dst > src else min(block)] = dst
    codes = destandardize_codes(values, positions)
    if codes is None:
        return None
    out = Word(codes, w.n)
    if standard_form(out.codes)[1] != positions:
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


# ---------------------------------------------------------------------------
# String arrangements

def _string_error(problem, members):
    return InvariantError(
        f"{problem} in the {len(members)}-vertex string through {members[0]!r}")


def _arrange(dashed):
    """Arrangement of one string from its dashed edges.

    dashed maps each member, a word over {1, 2}' as codes, to its (E', F')
    targets, None where undefined; a target outside the string is an
    InvariantError.  A word's level is its letters of value 1 minus its
    letters of value 2.  Returns (kind, chains) with chains ordered from
    highest weight down.  A single vertex is collapsed; a repeated level,
    or exactly two vertices, forces a ladder of two chains joined by dashed
    rungs; anything else is one chain along the dashed path.
    """
    members = list(dashed)
    if any(t is not None and t not in dashed for targets in dashed.values() for t in targets):
        raise _string_error("dashed edge leaves the string", members)
    if len(members) == 1:
        return "collapsed", (tuple(members),)
    level = {w: sum(1 if x <= 2 else -1 for x in w) for w in members}
    up = {w: e for w, (e, _) in dashed.items()}
    down = {w: f for w, (_, f) in dashed.items()}
    if len(set(level.values())) < len(members) or len(members) == 2:
        top = sorted((w for w in members if up[w] is None), key=level.get, reverse=True)
        bottom = sorted((w for w in members if down[w] is None), key=level.get, reverse=True)
        if len(top) != len(bottom) or 2 * len(top) != len(members) or set(top) & set(bottom):
            raise _string_error("ladder chains malformed", members)
        for chain in (top, bottom):
            for a, b in zip(chain, chain[1:]):
                if level[a] != level[b] + 2:
                    raise _string_error("chain levels not in steps of 2", members)
        for u, v in zip(top, bottom):
            if down[u] != v or up[v] != u or level[u] != level[v] + 2:
                raise _string_error("ladder rungs malformed", members)
        return "separated", (tuple(top), tuple(bottom))
    starts = [w for w in members if up[w] is None]
    if len(starts) != 1:
        raise _string_error(f"single chain with {len(starts)} starts", members)
    chain = [starts[0]]
    # a path longer than the string has closed a cycle
    while len(chain) <= len(members) and (w := down[chain[-1]]) is not None:
        chain.append(w)
    if len(chain) != len(members):
        raise _string_error("dashed path does not cover the string", members)
    return "collapsed", (tuple(chain),)


# ---------------------------------------------------------------------------
# The straight two-letter crystal

@functools.lru_cache(maxsize=1024)
def _two_letter_string(outer_parts) -> "StringDescriptor":
    """The straight two-letter crystal on this shape, as one string.

    Its arrangement comes from the dashed edges (_arrange) that the primed
    word operators give on the tableaux' reading words.
    """
    shape = shared_shape(outer_parts, ())
    verts = {T.word_codes: T for T in enumerate_tableaux(shape, 2)}
    if not verts:
        raise InvariantError(f"no two-letter tableaux of shape {shape}")
    kind, chains = _arrange({w: (_codes(primed_raise(Word(w, 2), 1)),
                                 _codes(primed_lower(Word(w, 2), 1))) for w in verts})
    return StringDescriptor(1, kind, [[verts[w] for w in chain] for chain in chains])


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


def _string_records(codes) -> dict:
    """The colour-1 records of every subword in the two-letter string of the
    canonical word codes over {1, 2}', by subword.

    One rectification of the word tableau (jdt._word_tableau) serves the
    whole string.  F, E and sigma are coplactic, so each member of the
    straight string, carried back along the same slides, gives its own
    subword, and that subword's F, E, sigma and Lengths are read off the
    member's place (_place_facts) as members again.  The primed targets come
    from the word operators.
    """
    R, record = rectify(_word_tableau(codes))
    words = {M: unrectify(M, record).word_codes
             for M in _two_letter_string(R.shape.outer.parts).place}
    records = {}
    for M, sub in words.items():
        f, e, s, lens = _place_facts(M)
        w = Word(sub, 2)
        records[sub] = _Colour1(words.get(f), words.get(e), _codes(primed_lower(w, 1)),
                                _codes(primed_raise(w, 1)), words[s], lens)
    return records


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


def _string_table(maxsize):
    """A bounded table of colour-1 records, filled a string at a time, with
    lru_cache's cache_info() and cache_clear().  A miss fills the records
    of every subword in the word's string (_string_records); a fill that
    would pass maxsize empties the table first.  A string has far fewer
    members than maxsize."""
    records = {}
    hits = misses = 0

    def colour_one(sub) -> _Colour1:
        """The colour-1 record of a canonical word over {1, 2}'.

        Each of F, E, F', E' and sigma maps the word to a target word of the
        same length (None where undefined); lengths is its Lengths.
        """
        nonlocal hits, misses
        record = records.get(sub)
        if record is not None:
            hits += 1
            return record
        misses += 1
        codes = Word(sub, 2).codes
        fill = _string_records(codes)
        if len(records) + len(fill) > maxsize:
            records.clear()
        records.update(fill)
        return fill[codes]

    def cache_clear():
        nonlocal hits, misses
        records.clear()
        hits = misses = 0

    colour_one.cache_info = lambda: _CacheInfo(hits, misses, maxsize, len(records))
    colour_one.cache_clear = cache_clear
    return colour_one


_colour_one = _string_table(4096)


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
    """The full i-string through T, classified as separated or collapsed.

    The string is walked on T's {i, i+1} subword, along the F, E, F' and E'
    targets of the colour-one records (_colour_one), and arranged from their
    dashed ones; each member is written back into T once, which checks it.
    """
    _check_color(i, n)
    start = T.interval_subword(i, i + 1, n)
    records = {start: _colour_one(start)}
    frontier = [start]
    while frontier:
        r = records[frontier.pop()]
        for sub in (r.f, r.e, r.f_prime, r.e_prime):
            if sub is not None and sub not in records:
                records[sub] = _colour_one(sub)
                frontier.append(sub)
    kind, chains = _arrange({sub: (r.e_prime, r.f_prime) for sub, r in records.items()})
    return StringDescriptor(i, kind, [[T.with_interval_subword(i, i + 1, sub) for sub in chain]
                                      for chain in chains])


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
