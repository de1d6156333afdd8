"""Primed and unprimed operators, strings, lengths, and reflections."""

import functools
import itertools

import pytest

from shifted_crystal import (
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    apply_program,
    classify_string,
    enumerate_tableaux,
    eta_interval,
    is_highest,
    is_lowest,
    lengths,
    parse_operator_program,
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
    yamanouchi,
)
from shifted_crystal import operators as operators_module
from shifted_crystal.cli import main
from shifted_crystal.core import InvariantError, canonicalize_codes
from shifted_crystal.operators import _arrange, _colour_one, _place_facts, _two_letter_string
from shifted_crystal.verify import _canonical_words

from oracles import colour_one_by_subword, on_piece, string_step


# ---------------------------------------------------------------------------
# primed operators

def test_primed_examples():
    w = Word.parse("2 1 1", n=2)
    assert str(primed_lower(w, 1)) == "2 1 2'"
    assert primed_raise(Word.parse("2 1 2'", n=2), 1) == w
    assert primed_lower(Word.parse("2 1 2'", n=2), 1) is None
    for nu, n in [((2, 1), 2), ((3, 1), 3), ((3, 2), 3)]:
        Y = yamanouchi(nu)
        for i in range(1, n):
            assert primed_raise_tableau(Y, i, n) is None


def test_primed_prime_flip_case():
    # the inverse law can force a prime elsewhere in the word to flip
    v = Word.parse("2 1 2'", n=3)
    f = primed_lower(v, 2)
    assert str(f) == "3 1 2"
    assert primed_raise(f, 2) == v


def _all_canonical_words(max_len, values):
    words = set()
    for L in range(max_len + 1):
        for codes in itertools.product(range(1, 2 * values + 1), repeat=L):
            words.add(canonicalize_codes(codes))
    return [Word(c, values) for c in sorted(words, key=lambda c: (len(c), c))]


def test_primed_uniqueness_against_enumeration_oracle():
    # independent oracle: bucket all words by (standardization, weight);
    # the operator value must be the unique word in the target bucket
    words = _all_canonical_words(6, 3)
    buckets = {}
    for u in words:
        buckets.setdefault((u.standardize(), u.weight()), []).append(u)

    def shifted(wt, i, sign):
        lst = list(wt)
        lst[i - 1] += sign
        lst[i] -= sign
        return tuple(lst)

    for u in words:
        for i in (1, 2):
            for sign, op in ((1, primed_raise), (-1, primed_lower)):
                target = buckets.get((u.standardize(), shifted(u.weight(), i, sign)), [])
                assert len(target) <= 1, (str(u), i, sign)
                expected = target[0] if target else None
                assert op(u, i) == expected, (str(u), i, sign)


def test_primed_inverse_laws_on_tableaux():
    for shape_text, n in [("3,1/1", 3), ("3,2", 3)]:
        for T in enumerate_tableaux(SkewShape.parse(shape_text), n):
            for i in range(1, n):
                f = primed_lower_tableau(T, i, n)
                if f is not None:
                    assert primed_raise_tableau(f, i, n) == T
                    wt, wtf = T.weight(n), f.weight(n)
                    assert wtf[i - 1] == wt[i - 1] - 1 and wtf[i] == wt[i] + 1
                e = primed_raise_tableau(T, i, n)
                if e is not None:
                    assert primed_lower_tableau(e, i, n) == T


# ---------------------------------------------------------------------------
# the two-letter crystal and unprimed operators

def test_two_letter_strings_shapes():
    ladder = _two_letter_string((2, 1))
    assert ladder.kind == "separated"
    assert all(len(chain) == 1 for chain in ladder.chains)
    chain = _two_letter_string((2,))
    assert chain.kind == "collapsed" and len(chain.chains[0]) == 3
    single = _two_letter_string((1,))
    assert single.kind == "separated" and sum(map(len, single.chains)) == 2


def _string_maps(string):
    """Per vertex of a straight two-letter string, (F, E, sigma, Lengths),
    built as whole maps from its chains: solid edges along each chain, the
    reflection as the members read forwards against the chains reversed."""
    kind, chains = string.kind, string.chains
    f_map = {a: b for chain in chains for a, b in zip(chain, chain[1:])}
    e_map = {b: a for a, b in f_map.items()}
    sigma_map = dict(zip(
        (U for chain in chains for U in chain),
        (U for chain in reversed(chains) for U in reversed(chain)),
    ))
    lengths_map = {}
    for k, chain in enumerate(chains):
        last = len(chain) - 1
        for j, U in enumerate(chain):
            if kind == "collapsed":
                lengths_map[U] = (j, j, last - j, last - j, j, last - j)
            else:
                lengths_map[U] = (j, k, last - j, 1 - k, j + k, last - j + 1 - k)
    return {U: (f_map.get(U), e_map.get(U), sigma_map[U], lengths_map[U])
            for U in sigma_map}


def test_place_facts_match_the_string_maps():
    shapes = [(a,) for a in range(1, 11)]
    shapes += [(a, b) for a in range(2, 10) for b in range(1, min(a, 11 - a))]
    for parts in shapes:
        string = _two_letter_string(parts)
        assert string.members == set(enumerate_tableaux(SkewShape(parts), 2))
        for U, want in _string_maps(string).items():
            assert _place_facts(U) == want, (parts, U)


def test_colour_records_match_the_subword_oracle_on_short_words():
    # each miss fills the records of its whole two-letter string from one
    # rectification; every one of them is the record of its own subword
    words = [w.codes for w in _canonical_words(8, 2)[1:]]
    assert len(words) == 22100
    for sub in words:
        assert _colour_one(sub) == colour_one_by_subword(sub), sub


def test_a_fill_past_the_bound_empties_the_table_first():
    _colour_one.cache_clear()
    first = {}
    for w in _canonical_words(8, 2):
        before = _colour_one.cache_info().currsize
        first[w.codes] = _colour_one(w.codes)
        info = _colour_one.cache_info()
        assert info.currsize <= info.maxsize == 4096
        if info.currsize < before:
            assert first[w.codes] == colour_one_by_subword(w.codes)
            break
    else:
        pytest.fail("no fill passed the bound")
    # the emptied records are filled again, with the same answers
    assert all(_colour_one(sub) == record for sub, record in first.items())
    assert _colour_one.cache_info().currsize <= 4096


def test_unprimed_examples():
    Y = yamanouchi((2, 1))
    X = ShiftedTableau.parse("2,1", "1 2' / 2")
    assert unprimed_lower(Y, 1, 2) is None
    assert unprimed_lower(X, 1, 2) is None
    a, b, c = (ShiftedTableau.parse("2", t) for t in ("1 1", "1 2", "2 2"))
    assert unprimed_lower(a, 1, 2) == b and unprimed_lower(b, 1, 2) == c
    assert unprimed_lower(c, 1, 2) is None
    assert unprimed_raise(b, 1, 2) == a


def test_unprimed_ladder_hand_derived():
    Y = yamanouchi((3, 1))
    u1 = ShiftedTableau.parse("3,1", "1 1 2 / 2")
    v0 = ShiftedTableau.parse("3,1", "1 1 2' / 2")
    v1 = ShiftedTableau.parse("3,1", "1 2' 2 / 2")
    assert unprimed_lower(Y, 1, 2) == u1
    assert unprimed_lower(u1, 1, 2) is None
    assert unprimed_lower(v0, 1, 2) == v1
    assert primed_lower_tableau(Y, 1, 2) == v0
    assert primed_lower_tableau(u1, 1, 2) == v1


def test_unprimed_inverse_and_closure():
    for shape_text, n in [("3,1", 3), ("3,2/1", 3)]:
        for T in enumerate_tableaux(SkewShape.parse(shape_text), n):
            for i in range(1, n):
                f = unprimed_lower(T, i, n)
                if f is not None:
                    f.check()
                    assert f.shape == T.shape
                    assert unprimed_raise(f, i, n) == T
                    wt, wtf = T.weight(n), f.weight(n)
                    assert wtf[i - 1] == wt[i - 1] - 1 and wtf[i] == wt[i] + 1


def test_operators_are_coplactic():
    for shape_text, n in [("3,2/1", 3), ("4,2/2", 2), ("4,3,1/3,1", 3)]:
        for T in enumerate_tableaux(SkewShape.parse(shape_text), n):
            R = rectify(T)[0]
            for i in range(1, n):
                for op in (unprimed_lower, unprimed_raise,
                           primed_lower_tableau, primed_raise_tableau):
                    a, b = op(T, i, n), op(R, i, n)
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert rectify(a)[0] == b
                assert rectify(sigma(T, i, n))[0] == sigma(R, i, n)


# ---------------------------------------------------------------------------
# strings and lengths

def test_classify_string_examples():
    Y = yamanouchi((2, 1))
    d = classify_string(Y, 1, 2)
    assert d.kind == "separated" and d.size == 2
    a = ShiftedTableau.parse("2", "1 1")
    d = classify_string(a, 1, 2)
    assert d.kind == "collapsed" and d.size == 3
    # no letters in {1, 2}: isolated, hence a collapsed singleton
    lone = classify_string(ShiftedTableau.parse("1", "3"), 1, 3)
    assert lone.kind == "collapsed" and lone.size == 1
    # a single box over two letters is the smallest separated string
    pair = classify_string(ShiftedTableau.parse("1", "1"), 1, 2)
    assert pair.kind == "separated" and pair.size == 2
    big = classify_string(yamanouchi((3, 1)), 1, 2)
    assert big.kind == "separated" and [len(c) for c in big.chains] == [2, 2]


def _tableau_string(T, i, n):
    """The definitional i-string through T: its closure under the four
    tableau operators of colour i."""
    members, frontier = {T}, [T]
    while frontier:
        U = frontier.pop()
        for op in (unprimed_lower, unprimed_raise, primed_lower_tableau, primed_raise_tableau):
            V = op(U, i, n)
            if V is not None and V not in members:
                members.add(V)
                frontier.append(V)
    return frozenset(members)


def test_classify_string_matches_the_tableau_walk():
    inside_321 = [(SkewShape(lam, mu), 3)
                  for lam in strict_partitions_inside(StrictPartition((3, 2, 1)))
                  for mu in strict_partitions_inside(lam)]
    desk = [(SkewShape.parse(text), n) for text, n in
            [("2,1", 4), ("3,1", 3), ("3,2", 3), ("4,3,1/3,1", 3), ("5,3,1", 3)]]
    for shape, n in desk + inside_321:
        verts = enumerate_tableaux(shape, n)
        for i in range(1, n):
            strings = {}
            for T in verts:
                d = classify_string(T, i, n)
                if T in strings:
                    assert d.members == strings[T]
                    continue
                strings.update(dict.fromkeys(d.members, d.members))
                assert d.members == _tableau_string(T, i, n), (str(shape), i, str(T))
                # F steps along every chain; F' along a collapsed chain and
                # across each rung of a separated string
                for chain in d.chains:
                    assert [unprimed_lower(U, i, n) for U in chain] == [*chain[1:], None]
                if d.kind == "collapsed":
                    (chain,) = d.chains
                    assert [primed_lower_tableau(U, i, n) for U in chain] == [*chain[1:], None]
                else:
                    top, bottom = d.chains
                    assert [primed_lower_tableau(U, i, n) for U in top] == list(bottom)


def test_arrange_refuses_a_map_that_leaves_its_string():
    one, two_primed = (2,), (3,)  # the words 1 and 2'
    assert _arrange({one: (None, two_primed), two_primed: (one, None)}) == (
        "separated", ((one,), (two_primed,)))
    with pytest.raises(InvariantError, match="leaves the string"):
        _arrange({one: (None, two_primed)})
    # a dashed path that closes a cycle is refused, not walked forever
    a, b, c = (2, 2, 2), (2, 2, 4), (2, 4, 4)
    with pytest.raises(InvariantError, match="does not cover"):
        _arrange({a: (None, b), b: (a, c), c: (b, b)})


# the words 1' and 1 (level 1), 1 2' and 1' 2 (level 0), 1 1 (level 2) and
# 2 2 (level -2), as codes
_ONE_P, _ONE, _ONE_TWO_P, _ONE_P_TWO, _ONE_ONE, _TWO_TWO = (1,), (2,), (2, 3), (1, 4), (2, 2), (4, 4)


@pytest.mark.parametrize("dashed, problem", [
    # two vertices force a ladder; with no dashed edge both are a top and a bottom
    ({_ONE: (None, None), _ONE_P: (None, None)}, "ladder chains malformed"),
    # a repeated level forces a ladder; its top chain drops from level 2 to -2
    ({_ONE_ONE: (None, _ONE_TWO_P), _TWO_TWO: (None, _ONE_P_TWO),
      _ONE_TWO_P: (_ONE_ONE, None), _ONE_P_TWO: (_TWO_TWO, None)},
     "chain levels not in steps of 2"),
    # a dashed rung between two words of one level
    ({_ONE: (None, _ONE_P), _ONE_P: (_ONE, None)}, "ladder rungs malformed"),
    # three levels and no dashed edge: three chains, not one
    ({_ONE_ONE: (None, None), _ONE_TWO_P: (None, None), _TWO_TWO: (None, None)},
     "single chain with 3 starts"),
])
def test_arrange_refuses_a_malformed_string(dashed, problem):
    with pytest.raises(InvariantError) as exc:
        _arrange(dashed)
    first = next(iter(dashed))
    assert str(exc.value) == f"{problem} in the {len(dashed)}-vertex string through {first!r}"


# ---------------------------------------------------------------------------
# guards: each fault the theory rules out is an InvariantError, reached here
# by injecting it

def test_revaluing_that_changes_the_standardization_is_refused(monkeypatch):
    # F'_1 of 2 1 1 is 2 1 2'; its letters reversed, canonical 2 1 2, it
    # standardizes otherwise
    real = operators_module.destandardize_codes
    monkeypatch.setattr(operators_module, "destandardize_codes",
                        lambda values, positions: real(values, positions)[::-1])
    with pytest.raises(InvariantError) as exc:
        primed_lower(Word.parse("2 1 1", n=2), 1)
    assert str(exc.value) == "re-valuing of 2 1 1 changed the standardization"


def test_a_shape_with_no_two_letter_tableau_is_refused(monkeypatch):
    _two_letter_string.cache_clear()
    monkeypatch.setattr(operators_module, "enumerate_tableaux", lambda shape, n: ())
    with pytest.raises(InvariantError) as exc:
        _two_letter_string((2, 1))
    assert str(exc.value) == "no two-letter tableaux of shape 2,1/"


def test_a_tableau_missing_from_its_string_is_refused(monkeypatch):
    # every shape is handed the string of (2), where Y((2,1)) has no place
    real = operators_module._two_letter_string
    monkeypatch.setattr(operators_module, "_two_letter_string", lambda parts: real((2,)))
    R = yamanouchi((2, 1))
    with pytest.raises(InvariantError) as exc:
        _place_facts(R)
    assert str(exc.value) == f"{R!r} is missing from its two-letter string"


def test_sigma_off_the_crystal_is_refused(monkeypatch, tmp_path, capsys):
    # every colour-one record loses its sigma target
    real = operators_module._colour_one
    monkeypatch.setattr(operators_module, "_colour_one",
                        lambda sub: real(sub)._replace(sigma=None))
    T = yamanouchi((2, 1))
    with pytest.raises(InvariantError) as exc:
        sigma(T, 1, 2)
    assert str(exc.value) == f"sigma_1 fell off the crystal at {T}"
    f = tmp_path / "t.txt"
    f.write_text("2,1/\n1 1 / 2\n", encoding="utf-8")
    assert main(["apply", "--tableau", str(f), "--ops", "S1", "--n", "2"]) == 3
    assert capsys.readouterr() == ("", f"internal error: sigma_1 fell off the crystal at {T}\n")


def test_string_partition_of_vertex_set():
    shape = SkewShape.parse("3,1/1")
    verts = set(enumerate_tableaux(shape, 3))
    for i in (1, 2):
        seen = set()
        for T in sorted(verts, key=lambda t: t.word_codes):
            if T in seen:
                continue
            d = classify_string(T, i, 3)
            assert not (d.members & seen)
            seen |= d.members
        assert seen == verts


def test_lengths_examples_and_case_formula():
    Y = yamanouchi((2, 1))
    L = lengths(Y, 1, 2)
    assert tuple(L) == (0, 0, 0, 1, 0, 1)
    lone = ShiftedTableau.parse("1", "3")
    assert tuple(lengths(lone, 1, 3)) == (0, 0, 0, 0, 0, 0)
    for shape_text, n in [("3,1", 2), ("3,1/1", 3)]:
        for T in enumerate_tableaux(SkewShape.parse(shape_text), n):
            for i in range(1, n):
                L = lengths(T, i, n)
                kind = classify_string(T, i, n).kind
                if kind == "collapsed":
                    assert L.eps == L.eps_hat == L.eps_prime
                    assert L.phi == L.phi_hat == L.phi_prime
                else:
                    assert L.eps == L.eps_hat + L.eps_prime
                    assert L.phi == L.phi_hat + L.phi_prime


# ---------------------------------------------------------------------------
# reflections

def test_sigma_examples():
    Y = yamanouchi((2, 1))
    assert sigma(Y, 1, 2) == ShiftedTableau.parse("2,1", "1 2' / 2")
    for T in enumerate_tableaux(SkewShape.parse("3,1"), 3):
        for i in (1, 2):
            assert sigma(sigma(T, i, 3), i, 3) == T


def test_sigma_weight_law_and_strings():
    n = 3
    for T in enumerate_tableaux(SkewShape.parse("3,2/1"), n):
        for i in (1, 2):
            out = sigma(T, i, n)
            wt = list(T.weight(n))
            wt[i - 1], wt[i] = wt[i], wt[i - 1]
            assert list(out.weight(n)) == wt
            assert out in classify_string(T, i, n).members


def test_sigma_matches_interval_eta():
    for shape_text in ("2,1", "3,1", "3,2", "3,2/1", "4,3,1/3,1"):
        for T in enumerate_tableaux(SkewShape.parse(shape_text), 3):
            for i in (1, 2):
                assert sigma(T, i, 3) == eta_interval(T, i, i + 1, 3)


def test_braid_failure_golden():
    T = ShiftedTableau.parse("5,3,1", "1 1 1 1 3' / 2 2 3' / 3")
    assert T.weight(3) == (4, 2, 3)
    a = apply_program(T, "S1,S2,S1", 3)
    b = apply_program(T, "S2,S1,S2", 3)
    assert str(a) == "1 1 1 2 3 / 2 3' 3 / 3"
    assert str(b) == "1 1 1 2' 3' / 2 3' 3 / 3"
    assert a != b


def test_highest_lowest_and_programs():
    Y = yamanouchi((3, 1))
    assert is_highest(Y, 3) and not is_lowest(Y, 3)
    low = reversal(Y, 3)
    assert is_lowest(low, 3)
    assert apply_program(Y, "F1,E1", 3) == Y
    assert apply_program(Y, "E1", 3) is None
    assert apply_program(Y, "E1,F1", 3) is None
    assert parse_operator_program("F1,E2',S1") == [
        ("F", 1, False), ("E", 2, True), ("S", 1, False)]
    with pytest.raises(ValueError):
        parse_operator_program("S1'")
    with pytest.raises(ValueError):
        parse_operator_program("G1")
    with pytest.raises(ValueError):
        sigma(Y, 3, 3)


def test_operator_programs_skip_empty_tokens():
    assert parse_operator_program("F1,,S1,") == [("F", 1, False), ("S", 1, False)]
    assert parse_operator_program(" , ,") == []


def test_unique_highest_is_yamanouchi_on_straight():
    for nu in strict_partitions_inside(StrictPartition.parse("3,2,1")):
        if not nu:
            continue
        n = 3
        highs = [T for T in enumerate_tableaux(SkewShape(nu), n) if is_highest(T, n)]
        assert highs == [yamanouchi(nu)]


def test_letters_above_n_are_an_error():
    T = ShiftedTableau.parse("3,1", "1 1 2 / 3")
    for op in (unprimed_lower, unprimed_raise, sigma, lengths):
        with pytest.raises(ValueError):
            op(T, 1, 2)
    with pytest.raises(ValueError):
        eta_interval(T, 1, 2, 2)


# ---------------------------------------------------------------------------
# the definitional paths, kept as oracles for the string lookups

@functools.cache
def _f_oracle(T, i, n):
    return on_piece(T, i, i + 1, n, string_step(0))


@functools.cache
def _e_oracle(T, i, n):
    return on_piece(T, i, i + 1, n, string_step(1))


def _power(op, T, i, n, m):
    for _ in range(m):
        T = op(T, i, n)
        assert T is not None, "operator power ran off the string"
    return T


def _sigma_oracle(T, i, n):
    """sigma_i by its case table on k = wt_i - wt_{i+1} and on F'_i."""
    fp = primed_lower_tableau(T, i, n)
    ep = primed_raise_tableau(T, i, n)
    f, e = _f_oracle(T, i, n), _e_oracle(T, i, n)
    if fp is None and ep is None and f is None and e is None:
        return T
    wt = T.weight(n)
    k = wt[i - 1] - wt[i]
    if k > 0:
        if fp is not None:
            return primed_lower_tableau(_power(_f_oracle, T, i, n, k - 1), i, n)
        return primed_raise_tableau(_power(_f_oracle, T, i, n, k + 1), i, n)
    if k == 0:
        return _e_oracle(fp, i, n) if fp is not None else primed_raise_tableau(f, i, n)
    if fp is not None:
        return _power(_e_oracle, fp, i, n, -k + 1)
    return _power(_e_oracle, ep, i, n, -k - 1)


def _run(op, T, i, n):
    count = 0
    while (T := op(T, i, n)) is not None:
        count += 1
    return count


def _lengths_oracle(T, i, n):
    """Iterate each operator to the string's end, and tell a chain from a
    ladder at T alone: in a chain the solid and dashed neighbours agree."""
    eps_hat, phi_hat = _run(_e_oracle, T, i, n), _run(_f_oracle, T, i, n)
    eps_p = _run(primed_raise_tableau, T, i, n)
    phi_p = _run(primed_lower_tableau, T, i, n)
    fp, ep = primed_lower_tableau(T, i, n), primed_raise_tableau(T, i, n)
    if fp is not None and ep is not None:
        collapsed = True
    elif fp is not None:
        collapsed = _f_oracle(T, i, n) == fp
    elif ep is not None:
        collapsed = _e_oracle(T, i, n) == ep
    else:
        assert _f_oracle(T, i, n) is None and _e_oracle(T, i, n) is None
        collapsed = True
    if collapsed:
        assert (eps_hat, phi_hat) == (eps_p, phi_p)
        return (eps_hat, eps_p, phi_hat, phi_p, eps_hat, phi_hat)
    return (eps_hat, eps_p, phi_hat, phi_p, eps_hat + eps_p, phi_hat + phi_p)


def _eta_oracle(T, p, q, n):
    return on_piece(T, p, q, n, lambda piece: reversal(piece, q - p + 1))


def _oracle_cases():
    """Every tableau of the three desk graphs, of B((5,3,1),3), and of
    every skew shape inside (4,3,2,1) at n = 3, with its n."""
    cases = [(SkewShape.parse(text), n) for text, n in
             (("2,1", 4), ("3,1", 3), ("3,2", 3), ("5,3,1", 3))]
    bound = StrictPartition.parse("4,3,2,1")
    cases += [(SkewShape(lam, mu), 3) for lam in strict_partitions_inside(bound)
              for mu in strict_partitions_inside(lam)]
    return [(T, n) for shape, n in cases for T in enumerate_tableaux(shape, n)]


def test_string_lookups_match_definitional_oracles():
    for T, n in _oracle_cases():
        for i in range(1, n):
            assert unprimed_lower(T, i, n) == _f_oracle(T, i, n), (T, i)
            assert unprimed_raise(T, i, n) == _e_oracle(T, i, n), (T, i)
            assert sigma(T, i, n) == _sigma_oracle(T, i, n), (T, i)
            assert tuple(lengths(T, i, n)) == _lengths_oracle(T, i, n), (T, i)


def test_eta_interval_matches_spliced_oracle():
    for T, n in _oracle_cases():
        for p in range(1, n):
            for q in range(p + 1, n + 1):
                assert eta_interval(T, p, q, n) == _eta_oracle(T, p, q, n), (T, p, q)
