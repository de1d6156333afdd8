"""Partitions, shapes, words, tableaux, enumeration, restriction, splicing."""

import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from shifted_crystal import (
    EMPTY_TABLEAU,
    IntervalPermutation,
    ShiftedTableau,
    SkewShape,
    SlideRecord,
    StrictPartition,
    Word,
    canonicalize,
    enumerate_tableaux,
    letter,
    strict_partitions_inside,
)
from shifted_crystal.core import (
    InvariantError,
    _enumerate,
    _leaf,
    canonicalize_codes,
    destandardize_codes,
    is_primed,
    letter_str,
    letter_value,
    parse_letter,
    prime_split,
    shared_shape,
    standard_form,
    standardize_codes,
    write_subword,
)
from shifted_crystal.involutions import star
from shifted_crystal.operators import primed_lower
from shifted_crystal.verify import _canonical_words

from oracles import relabel, semistandard_by_marks, splice


# ---------------------------------------------------------------------------
# letters

def test_letter_roundtrip():
    assert letter(3, True) == 5 and letter(3) == 6
    assert letter_value(5) == 3 and is_primed(5)
    assert letter_str(5) == "3'" and letter_str(6) == "3"
    assert parse_letter("3'") == 5 and parse_letter(" 3 ") == 6
    with pytest.raises(ValueError):
        parse_letter("x")
    with pytest.raises(ValueError):
        letter(0)


def test_letter_order_is_alphabet_order():
    # 1' < 1 < 2' < 2 < 3' < 3
    seq = [letter(1, True), letter(1), letter(2, True), letter(2), letter(3, True), letter(3)]
    assert seq == sorted(seq)


# ---------------------------------------------------------------------------
# partitions and shapes

def test_strict_partition_validation():
    assert StrictPartition((3, 1)).parts == (3, 1)
    assert StrictPartition(()).size == 0
    with pytest.raises(ValueError):
        StrictPartition((1, 2))
    with pytest.raises(ValueError):
        StrictPartition((2, 2))
    assert StrictPartition.parse("") == ()
    assert str(StrictPartition.parse("4,2,1")) == "4,2,1"


def test_complement_golden():
    assert StrictPartition.parse("5,3,2").complement(5) == (4, 1)
    assert StrictPartition.parse("3,2,1").complement(3) == ()
    assert StrictPartition.parse("2").complement(2) == (1,)
    with pytest.raises(ValueError):
        StrictPartition.parse("3").complement(2)


def test_complement_involution_up_to_stair_6():
    for m in range(0, 7):
        stair = StrictPartition(range(m, 0, -1))
        for lam in strict_partitions_inside(stair):
            assert lam.complement(m).complement(m) == lam


def test_skew_shape_cells():
    sh = SkewShape.parse("6,4,2/3,1")
    assert sh.size == 3 + 3 + 2
    assert sh.row_span(1) == (4, 6)
    assert sh.row_span(2) == (3, 5)
    assert sh.row_span(3) == (3, 4)
    # reading order: bottom row first
    assert sh.cells_reading[0] == (3, 3)
    with pytest.raises(ValueError):
        SkewShape.parse("2,1/3")
    assert str(SkewShape.parse("5,3,1")) == "5,3,1/"


# ---------------------------------------------------------------------------
# words

def test_canonicalize_golden():
    w = canonicalize("1 2' 2' 1 1 2 3' 2' 2")
    assert str(w) == "1 2 2' 1 1 2 3 2' 2"
    assert str(canonicalize("1'")) == "1"
    assert str(canonicalize("2' 1'")) == "2 1"


def test_weight_examples():
    assert Word.parse("3 3 2 3' 3 1 1 2'").weight() == (2, 2, 4)
    assert Word.parse("", n=3).weight() == (0, 0, 0)
    assert Word.parse("1 2 2' 1 1 2 3 2' 2").weight() == (3, 5, 1)


def test_standardize_examples():
    assert Word.parse("1").standardize() == (1,)
    assert Word.parse("2 1 2'").standardize() == (3, 1, 2)
    assert Word.parse("1 1").standardize() == (1, 2)


def test_word_out_of_range():
    with pytest.raises(ValueError):
        Word.parse("3", n=2)


def test_canonicalize_rebinds_a_word_to_a_new_bound():
    w = Word.parse("1 2' 2")
    assert canonicalize(w) is w
    wider = canonicalize(w, 4)
    assert wider == w.with_n(4) and (wider.codes, wider.n) == (w.codes, 4)
    with pytest.raises(ValueError, match="out of range for n=1"):
        canonicalize(w, 1)


@pytest.mark.parametrize("value, field", [
    (StrictPartition((3, 1)), "parts"),
    (SkewShape.parse("3,1/1"), "outer"),
    (Word.parse("1 2'"), "codes"),
    (ShiftedTableau.parse("2,1", "1 1 / 2"), "word_codes"),
    (IntervalPermutation(1, 3), "p"),
    (SlideRecord([("inner", (1, 1), (1, 2))]), "steps"),
])
def test_values_refuse_to_be_changed(value, field):
    before = getattr(value, field)
    for name in (field, "extra"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, name, None)
    assert getattr(value, field) == before


@pytest.mark.parametrize("codes", [[0, 2], [-1, 2], [2, 0, 4]])
def test_letter_codes_below_one_are_rejected(codes):
    # no letter has a code below 1, so none may be counted towards a value
    with pytest.raises(ValueError, match="letter codes must be at least 1"):
        Word(codes)
    with pytest.raises(ValueError, match="letter codes must be at least 1"):
        canonicalize(codes)
    with pytest.raises(ValueError, match="letter codes must be at least 1"):
        primed_lower(Word(codes, 3), 1)


@st.composite
def letter_codes(draw, max_value=3, max_len=8):
    return draw(st.lists(st.integers(1, 2 * max_value), max_size=max_len))


@settings(max_examples=80, deadline=None)
@given(letter_codes())
def test_canonicalize_idempotent_weight_preserving(codes):
    once = canonicalize_codes(codes)
    assert canonicalize_codes(once) == once
    before = [letter_value(x) for x in codes]
    after = [letter_value(x) for x in once]
    assert before == after
    assert standardize_codes(tuple(codes)) == standardize_codes(once)


@settings(max_examples=80, deadline=None)
@given(letter_codes())
def test_standardize_invariant_under_representatives(codes):
    # priming any leftmost occurrence gives another representative
    word = canonicalize_codes(codes)
    std = standardize_codes(word)
    seen = set()
    for j, x in enumerate(word):
        v = letter_value(x)
        if v in seen:
            continue
        seen.add(v)
        rep = list(word)
        rep[j] = letter(v, True)
        assert standardize_codes(tuple(rep)) == std


def _check_standard_form(codes):
    values, positions = standard_form(codes)
    assert destandardize_codes(values, positions) == codes
    std = standardize_codes(codes)
    assert [std[j] for j in positions] == list(range(1, len(codes) + 1)), codes


def test_standard_form_round_trips_on_the_knuth_words():
    # destandardize_codes inverts it, and standardize_codes is the inverse
    # permutation of its positions
    for w in _canonical_words(6, 3):
        _check_standard_form(w.codes)


@settings(max_examples=200, deadline=None)
@given(letter_codes(max_value=5, max_len=12))
def test_standard_form_round_trips(codes):
    _check_standard_form(canonicalize_codes(codes))


def test_destandardize_codes_against_brute_force():
    # every (values by number, standardization) pair realized by words of
    # length <= 5 over [3]'; the oracle tries every prime assignment
    for L in range(6):
        words = list(itertools.product(range(1, 7), repeat=L))
        value_seqs = {tuple(sorted(letter_value(x) for x in w)) for w in words}
        stds = {standardize_codes(w) for w in words}
        for values in value_seqs:
            for std in stds:
                positions = [0] * L
                for j, m in enumerate(std):
                    positions[m - 1] = j
                by_position = [0] * L
                for m, j in enumerate(positions):
                    by_position[j] = values[m]
                survivors = []
                for primes in itertools.product((False, True), repeat=L):
                    codes = tuple(letter(v, p) for v, p in zip(by_position, primes))
                    if codes == canonicalize_codes(codes) and standardize_codes(codes) == std:
                        survivors.append(codes)
                assert len(survivors) <= 1, (values, std, survivors)
                expected = survivors[0] if survivors else None
                assert destandardize_codes(list(values), positions) == expected, (values, std)


def _prime_split_oracle(positions):
    """The definition: try every split; at most one is valid."""
    k = len(positions)
    valid = []
    for j in range(k):
        pre, post = positions[:j], positions[j:]
        if any(pre[t] <= pre[t + 1] for t in range(j - 1)):
            continue
        if any(post[t] >= post[t + 1] for t in range(k - j - 1)):
            continue
        if j and post[0] > pre[-1]:
            continue
        valid.append(j)
    assert len(valid) <= 1, (positions, valid)
    return valid[0] if valid else None


def test_prime_split_against_definition():
    outcomes = set()
    for k in range(8):
        for positions in itertools.permutations(range(k)):
            expected = _prime_split_oracle(positions)
            assert prime_split(positions) == expected, positions
            outcomes.add(expected)
    assert None in outcomes and set(range(7)) <= outcomes


# ---------------------------------------------------------------------------
# tableaux

def test_reading_word_golden():
    T = ShiftedTableau.parse("6,4,2/3,1", "1 1 2' / 2 3' 3 / 3 3")
    assert str(T.reading_word()) == "3 3 2 3' 3 1 1 2'"
    assert T.weight(3) == (2, 2, 4)
    single = ShiftedTableau.parse("1", "1")
    assert str(single.reading_word()) == "1"
    T2 = ShiftedTableau.parse("2,1", "1 2' / 2")
    assert str(T2.reading_word()) == "2 1 2'"


def test_tableau_validation():
    with pytest.raises(ValueError):
        ShiftedTableau.parse("2,1", "2 1 / 2")          # row decreasing
    with pytest.raises(ValueError):
        ShiftedTableau.parse("2,1", "1 2 / 2")          # two unprimed 2 in a column
    with pytest.raises(ValueError):
        ShiftedTableau.parse("2", "2' 2")               # non-canonical word
    with pytest.raises(ValueError):
        ShiftedTableau.parse("3", "1 2' 2'")            # two primes in a row


def test_enumerate_small_golden():
    assert [str(t) for t in enumerate_tableaux(SkewShape.parse("1"), 1)] == ["1"]
    two_one = enumerate_tableaux(SkewShape.parse("2,1"), 2)
    assert [str(t) for t in two_one] == ["1 1 / 2", "1 2' / 2"]
    row_two = enumerate_tableaux(SkewShape.parse("2"), 2)
    assert [str(t) for t in row_two] == ["1 1", "1 2", "2 2"]
    assert len(enumerate_tableaux(SkewShape.parse("2,1"), 3)) == 7
    skew = enumerate_tableaux(SkewShape.parse("3,1/1"), 2)
    assert [str(t.reading_word()) for t in skew] == [
        "1 1' 1", "1 1' 2", "2 1 1", "2 1 2'", "2 1 2", "2 2' 2",
    ]


def test_enumerate_members_valid_and_sorted():
    for shape_text, n in [("3,2/1", 3), ("4,2/2", 2), ("3,2,1", 2)]:
        ts = enumerate_tableaux(SkewShape.parse(shape_text), n)
        words = [t.word_codes for t in ts]
        assert words == sorted(words)
        assert len(set(ts)) == len(ts)
        for t in ts:
            t.check()
            assert t.word_codes == canonicalize_codes(t.word_codes)


def test_enumerate_empty_cases():
    empty = enumerate_tableaux(SkewShape.parse(""), 3)
    assert empty == (EMPTY_TABLEAU,) and list(empty) == [empty[0]] == [empty[-1]] == [EMPTY_TABLEAU]
    # one-column shape too tall for the alphabet
    assert enumerate_tableaux(SkewShape.parse("2,1"), 1) == ()
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_tableaux(SkewShape.parse(""), -1)


def test_enumerate_is_not_cached():
    shape = SkewShape.parse("3,1/1")
    assert enumerate_tableaux(shape, 2) is not enumerate_tableaux(shape, 2)


def test_early_stop_is_a_prefix_of_the_enumeration():
    for lam in strict_partitions_inside((4, 3, 2, 1)):
        for mu in strict_partitions_inside(lam):
            shape = SkewShape(lam, mu)
            for n in range(4):
                full = enumerate_tableaux(shape, n)
                for k in {1, 2, 7, len(full), len(full) + 1} - {0}:
                    assert _enumerate(shape, n, k) == full[:k], (shape, n, k)


def test_enumeration_by_content_is_the_weight_filter():
    # every weight of the shape's size with n parts, those no tableau has
    # included: the tableaux of that content, in enumeration order
    for lam in strict_partitions_inside((4, 3, 2, 1)):
        for mu in strict_partitions_inside(lam):
            shape = SkewShape(lam, mu)
            for n in range(4):
                full = enumerate_tableaux(shape, n)
                for wt in itertools.product(range(shape.size + 1), repeat=n):
                    if sum(wt) == shape.size:
                        want = tuple(T for T in full if T.weight(n) == wt)
                        assert _enumerate(shape, n, content=wt) == want, (shape, wt)


def test_south_is_the_cell_below():
    # south inverts north: the cell below k is the one whose north is k
    for lam in strict_partitions_inside((4, 3, 2, 1)):
        for mu in strict_partitions_inside(lam):
            shape = SkewShape(lam, mu)
            below_of = [None] * shape.size
            for k, north in enumerate(shape.north):
                if north is not None:
                    below_of[north] = k
            assert shape.south == tuple(below_of), shape


def _set_based_enumeration(shape, n, limit=None):
    """The oracle for _enumerate: a recursion that marks the values seen in
    a Counter, and the primed letters of each row and the unprimed letters
    of each column in sets, and builds every leaf through the checked
    constructor."""
    cells = shape.cells_reading
    if not cells:
        return (ShiftedTableau(shape, ()),)
    west_of = shape.west
    below_of = [None] * len(cells)
    for k, north in enumerate(shape.north):
        if north is not None:
            below_of[north] = k
    results = []
    word = [0] * len(cells)
    value_seen = Counter()
    row_primed = set()
    col_unprimed = set()

    def place(idx):
        if idx == len(cells):
            results.append(ShiftedTableau(shape, word))
            return len(results) != limit
        r, c = cells[idx]
        west, below = west_of[idx], below_of[idx]
        lo = word[west] if west is not None else 1
        hi = word[below] if below is not None else 2 * n
        for code in range(lo, hi + 1):
            v = (code + 1) // 2
            if v > n:
                break
            if code % 2:
                if not value_seen[v] or (r, v) in row_primed:
                    continue
                mark = (r, v)
                row_primed.add(mark)
            else:
                if (c, v) in col_unprimed:
                    continue
                mark = (c, v)
                col_unprimed.add(mark)
            word[idx] = code
            value_seen[v] += 1
            if not place(idx + 1):
                return False
            value_seen[v] -= 1
            (row_primed if code % 2 else col_unprimed).discard(mark)
        return True

    place(0)
    return tuple(results)


def _skew_shapes_inside(bound):
    for lam in strict_partitions_inside(bound):
        for mu in strict_partitions_inside(lam):
            yield SkewShape(lam, mu)


def test_enumerate_matches_brute_force():
    # every filling over [n]' that the checked constructor accepts; it
    # refuses exactly what the rule by marks refuses (with several defects,
    # the first one named may differ)
    for shape in _skew_shapes_inside((4, 3, 2, 1)):
        if shape.size > 5:
            continue
        for n in range(4):
            found = []
            for word in itertools.product(range(1, 2 * n + 1), repeat=shape.size):
                try:
                    found.append(ShiftedTableau(shape, word))
                except ValueError:
                    assert not semistandard_by_marks(shape, word), (shape, word)
                else:
                    assert semistandard_by_marks(shape, word), (shape, word)
            found.sort(key=lambda T: T.word_codes)
            assert enumerate_tableaux(shape, n) == tuple(found), (shape, n)


def test_enumerate_matches_the_set_based_recursion():
    for shape in _skew_shapes_inside((5, 4, 3, 2, 1)):
        for n in range(4):
            full = _set_based_enumeration(shape, n)
            assert enumerate_tableaux(shape, n) == full, (shape, n)
            for k in (1, 7, len(full) + 1):
                expected = _set_based_enumeration(shape, n, k)
                assert expected == full[:k]
                assert _enumerate(shape, n, k) == expected, (shape, n, k)


def test_enumerate_pinned_counts():
    assert len(enumerate_tableaux(SkewShape.parse("6,4,1/3,1"), 4)) == 2580
    assert len(enumerate_tableaux(SkewShape.parse("6,4,2"), 5)) == 24880


def test_enumerated_leaves_equal_checked_tableaux():
    shape = SkewShape.parse("4,2/1")
    shared = shared_shape(shape.outer.parts, shape.inner.parts)
    leaves = enumerate_tableaux(shape, 3)
    assert leaves
    for T in leaves:
        assert T.shape is shared
        checked = ShiftedTableau(shape, T.word_codes)
        assert checked == T and hash(checked) == hash(T)


@pytest.mark.parametrize("shape_text, n", [("4,2/1", 3), ("2", 130)])
def test_enumeration_is_a_read_only_sequence_of_the_oracle_tableaux(shape_text, n):
    # n = 130 puts codes above 255 in the words, which a list then holds
    shape = SkewShape.parse(shape_text)
    want = _set_based_enumeration(shape, n)
    got = enumerate_tableaux(shape, n)
    assert type(got.codes) is (list if 2 * n > 255 else bytearray)
    assert len(got) == len(want) > 2
    assert [got[k] for k in range(len(want))] == list(want)
    assert [got[-k] for k in range(1, len(want) + 1)] == [want[-k] for k in range(1, len(want) + 1)]
    for k in (len(want), -len(want) - 1):
        with pytest.raises(IndexError, match=f"tableau index {k} out of range"):
            got[k]
    for cut in (slice(None), slice(1, None, 2), slice(None, None, -1), slice(-3, None),
                slice(5, 2), slice(2, 10 ** 6)):
        assert type(got[cut]) is tuple and got[cut] == want[cut], cut
    assert list(got) == list(want)
    assert got == want and want == got and not got != want and not want != got
    assert got == enumerate_tableaux(shape, n)
    for other in (want[:-1], want[::-1], enumerate_tableaux(shape, n - 1)):
        assert got != other and other != got and not got == other
    assert got.__eq__(list(want)) is NotImplemented and got != list(want)
    # the limit and content cases on the same buffer
    assert _enumerate(shape, n, 3) == want[:3] and _enumerate(shape, n, len(want) + 1) == want
    wt = want[-1].weight(n)
    assert _enumerate(shape, n, content=wt) == tuple(T for T in want if T.weight(n) == wt)


def test_an_enumeration_retains_its_words_alone():
    # B((6,4,2),5): 24 880 words of 12 letters, about 0.3 MB in one buffer,
    # where the tableaux themselves would hold about 5 MB
    tracemalloc.start()
    try:
        leaves = enumerate_tableaux(SkewShape.parse("6,4,2"), 5)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(leaves) == 24880
    assert retained < 1 << 20, retained


def test_equal_value_objects_hash_their_defining_fields():
    # these hashes fix set and dict iteration orders, which the golden
    # digests of tests/test_goldens.py depend on
    shapes = [SkewShape((4, 2), (1,)), SkewShape.parse("4,2/1"), shared_shape((4, 2), (1,))]
    for S in shapes:
        assert S == shapes[0] and hash(S) == hash((S.outer.parts, S.inner.parts)) == hash(shapes[0])
    for T in enumerate_tableaux(shapes[0], 3):
        assert hash(T) == hash((T.shape, T.word_codes))
        parsed = ShiftedTableau.parse("4,2/1", str(T))
        rewritten = T.with_interval_subword(2, 3, T.interval_subword(2, 3, 3))
        for U in (parsed, rewritten):
            assert U == T and hash(U) == hash(T)
        words = [Word(T.word_codes, 3), Word.parse(str(T.reading_word()), 3), T.reading_word(3)]
        for w in words:
            assert w == words[0] and hash(w) == hash((w.codes, w.n)) == hash(words[0])


def test_tableau_constructor_always_checks():
    with pytest.raises(TypeError):
        ShiftedTableau(SkewShape.parse("2"), (4, 2), validate=False)
    with pytest.raises(ValueError):
        ShiftedTableau(SkewShape.parse("2"), (4, 2))


def test_tableau_constructor_refuses_a_word_off_the_shape_or_below_one():
    shape = SkewShape.parse("2,1")
    with pytest.raises(ValueError) as exc:
        ShiftedTableau(shape, (1, 1))
    assert str(exc.value) == "word length does not match shape size"
    with pytest.raises(ValueError) as exc:
        ShiftedTableau(shape, (3, 0, 1))
    assert str(exc.value) == "bad letter code 0"
    with pytest.raises(ValueError) as exc:
        ShiftedTableau(SkewShape.parse("1"), (-1,))
    assert str(exc.value) == "bad letter code -1"


def test_restrict_examples():
    T = ShiftedTableau.parse("2,1", "1 2' / 2")
    R = T.restrict(2, 2)
    assert str(R.shape) == "2,1/1"
    assert R.entry(1, 2) == letter(2, True) and R.entry(2, 2) == letter(2)
    assert T.restrict(1, 2) == T
    Y = ShiftedTableau.parse("2,1", "1 1 / 2")
    assert Y.restrict(3, 3) == EMPTY_TABLEAU
    assert Y.restrict(1, 0) == EMPTY_TABLEAU


def test_restrict_keeps_canonical_form():
    # restriction keeps all letters of the retained values, so canonical
    # form is inherited: the leftmost 3 stays the unprimed one at (3,3)
    T = ShiftedTableau.parse("6,4,2/3,1", "1 1 2' / 2 3' 3 / 3 3")
    R = T.restrict(3, 3)
    assert str(R.reading_word()) == "3 3 3' 3"
    assert str(R.shape) == "6,4,2/6,2"
    R.check()


def test_built_shapes_are_shared():
    T = ShiftedTableau.parse("6,4,2/3,1", "1 1 2' / 2 3' 3 / 3 3")
    U = ShiftedTableau.parse("6,4,2/3,1", "1 1 2 / 2 3' 3 / 3 3")
    for make in (lambda X: X.restrict(2, 3), lambda X: star(X, 3)):
        a, b = make(T), make(U)
        assert a.shape == SkewShape(a.shape.outer.parts, a.shape.inner.parts)
        assert a.shape is b.shape
    assert shared_shape.cache_info().maxsize is not None


def test_relabel():
    T = ShiftedTableau.parse("2,1", "1 2' / 2")
    up = relabel(T, 2)
    assert str(up.reading_word()) == "4 3 4'"
    assert relabel(up, -2) == T
    with pytest.raises(ValueError):
        relabel(T, -1)


def test_splice_roundtrip_and_errors():
    T = ShiftedTableau.parse("2,1", "1 2' / 2")
    assert splice([T.restrict(1, 1), T.restrict(2, 2)], shape=T.shape) == T
    assert splice([EMPTY_TABLEAU, T], shape=T.shape) == T
    with pytest.raises(ValueError):
        splice([T, T], shape=T.shape)
    # valid pieces whose union breaks a row at the seam
    bad_low = ShiftedTableau.parse("1", "2")
    bad_high = ShiftedTableau.parse("2/1", "1")
    with pytest.raises(ValueError):
        splice([bad_low, bad_high], shape=SkewShape.parse("2"))


def test_splice_interval_compositions():
    # splitting [1,n] at every point and splicing back is the identity
    for shape_text, n in [("3,2/1", 3), ("2,1", 3)]:
        shape = SkewShape.parse(shape_text)
        for T in enumerate_tableaux(shape, n):
            for cut1 in range(0, n + 1):
                parts = [T.restrict(1, cut1), T.restrict(cut1 + 1, n)]
                assert splice(parts, shape=T.shape) == T
            parts = [T.restrict(k, k) for k in range(1, n + 1)]
            assert splice(parts, shape=T.shape) == T


def test_interval_subword_writes_back_in_place():
    for shape_text, n in [("3,2/1", 3), ("4,2", 3)]:
        for T in enumerate_tableaux(SkewShape.parse(shape_text), n):
            for p, q in [(1, 2), (2, 3), (1, 3), (3, 3)]:
                sub = T.interval_subword(p, q, n)
                assert sub == relabel(T.restrict(p, q), 1 - p).word_codes
                assert T.with_interval_subword(p, q, sub) == T
                assert T.with_interval_subword(p, q, None) is None
    T = ShiftedTableau.parse("3,1", "1 2 3' / 3")
    assert T.interval_subword(2, 3, 3) == (4, 2, 3)  # "2 1 2'"
    # "2 1 2'" becomes "2 1 2", so 3' turns into 3
    assert str(T.with_interval_subword(2, 3, (4, 2, 4))) == "1 2 3 / 3"
    assert write_subword(T.word_codes, 2, 3, (4, 2, 4)) == (6, 2, 4, 6)
    with pytest.raises(InvariantError):  # one letter too few
        T.with_interval_subword(2, 3, (4, 2))
    with pytest.raises(InvariantError):  # a letter outside [1, 2]'
        T.with_interval_subword(2, 3, (4, 2, 6))
    with pytest.raises(InvariantError):  # fits, but is not a tableau
        T.with_interval_subword(2, 3, (2, 4, 4))
    with pytest.raises(ValueError):  # letters above n
        T.interval_subword(1, 2, 2)
    assert T.interval_subword(1, 2, 3) == (2, 4)


def test_value_boundary_chain_is_nested():
    for T in enumerate_tableaux(SkewShape.parse("3,2/1"), 3):
        prev = T.shape.inner
        for v in range(1, 4):
            cur = T.value_boundary(v)
            assert cur.contains(prev)
            prev = cur
        assert prev == T.shape.outer


def test_restriction_guards_refuse_a_filling_that_is_not_a_tableau():
    # unchecked fillings (core._leaf) that no tableau has; each guard reports
    # what the theory rules out for a real one
    # 2 2 / 1: the letters <= 1 sit in row 2 alone
    T = _leaf(shared_shape((2, 1), ()), (2, 4, 4))
    with pytest.raises(InvariantError) as exc:
        T.value_boundary(1)
    assert str(exc.value) == ("letters <= 1 do not form a shape: "
                              "parts not strictly decreasing: (0, 1)")
    # 1 2 1 / 3: the 1s are cells (1, 1) and (1, 3), not the shape (1)
    U = _leaf(shared_shape((3, 1), ()), (6, 2, 4, 2))
    with pytest.raises(InvariantError) as exc:
        U.restrict(1, 1)
    assert str(exc.value) == "interval restriction does not match its boundary"


def test_text_format_roundtrip():
    T = ShiftedTableau.parse("6,4,2/3,1", "1 1 2' / 2 3' 3 / 3 3")
    again = ShiftedTableau.parse(str(T.shape), str(T))
    assert again == T
