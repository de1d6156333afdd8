"""Definitional paths the library no longer runs, kept for the tests to
compare against.  The piece route (on_piece) is the paper's definition of
F_i, E_i, sigma_i and eta_{p,q} on the letters [p, q]'; the library acts on
the interval subword instead.  target_ids_by_write_back is the colour-i
target pass that writes each target back into the whole reading word and
looks it up in the word index; graph.target_ids groups by mask instead.
jdt_tables gives each eta_{p,q} by jeu de taquin at every vertex, where
graph._walk_tables carries it along the edges.  walk_tables_by_components
is the walk that finds every interval component first and checks each
anchor against jeu de taquin; graph._walk_tables walks down from word
anchors and falls back per generator to a component walk of its own, which
shares its carry step (graph._carry) and no code with this one.
lrs_weight_counts_by_rectifying rectifies every tableau of a shape,
whatever its weight, where graph's LR counts rectify only the tableaux of
the weight asked for.
colour_one_by_subword computes one subword's colour-one record from its own
rectification, where operators._colour_one fills a whole two-letter string
from one."""

from shifted_crystal import (
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    build_graph,
    cactus_generators,
    enumerate_tableaux,
    eta_interval,
    is_lrs,
    knuth_neighbors,
    primed_lower,
    primed_raise,
    rectify,
    unrectify,
    yamanouchi,
)
from shifted_crystal.core import InvariantError, canonicalize_codes, write_subword
from shifted_crystal.graph import _edge_count
from shifted_crystal.jdt import strip_tableau
from shifted_crystal.operators import _Colour1, _colour_one, _place_facts, _two_letter_string

# knuth_equivalent's search grows fast with the word length
KNUTH_MAX_LEN = 8


def relabel(T: ShiftedTableau, shift: int) -> ShiftedTableau:
    """T with every letter value shifted by a constant, keeping primes."""
    codes = tuple(x + 2 * shift for x in T.word_codes)
    if any(x < 1 for x in codes):
        raise ValueError("relabel would produce non-positive values")
    return ShiftedTableau(T.shape, codes)


def splice(parts, shape: SkewShape) -> ShiftedTableau:
    """Union of tableaux on disjoint cell sets, re-canonicalized.

    The parts must occupy pairwise disjoint cells whose union is exactly
    the shape; semistandardness across the seams is enforced.
    """
    codes = [0] * shape.size
    for part in parts:
        for cell, x in zip(part.shape.cells_reading, part.word_codes):
            k = shape.position.get(cell)
            if k is None or codes[k]:
                raise ValueError(f"cell {cell} lies outside {shape} or in two parts")
            codes[k] = x
    if 0 in codes:
        raise ValueError("spliced cells do not cover the requested shape")
    try:
        return ShiftedTableau(shape, canonicalize_codes(codes))
    except ValueError as exc:
        raise ValueError(f"splice produced a non-semistandard filling: {exc}") from exc


def on_piece(T, p, q, n, act):
    """The piece route: act on T's [p, q] piece, shifted down to start at 1,
    and splice the answer back; None passes through."""
    assert T.max_value() <= n
    piece = relabel(T.restrict(p, q), 1 - p)
    out = act(piece)
    if out is None:
        return None
    assert out.shape == piece.shape
    return splice([T.restrict(1, p - 1), relabel(out, p - 1), T.restrict(q + 1, n)], T.shape)


def string_step(fact):
    """An act for on_piece: F (0), E (1) or sigma (2) of a piece over
    [1, 2]', read off its rectification's place in its two-letter string."""
    def act(piece):
        R, record = rectify(piece)
        target = _place_facts(R)[fact]
        return None if target is None else unrectify(target, record)
    return act


def colour_one_by_subword(sub):
    """operators._colour_one one subword at a time: sub's strip_tableau is
    rectified to R, and R's F, E and sigma are carried back along its own
    slides.  F, E and the Lengths are read off R's place (_place_facts),
    sigma off the whole string reflected (its members read forwards against
    its chains reversed), so a wrong reflection index in _place_facts
    shows."""
    w = Word(sub, 2)
    R, record = rectify(strip_tableau(w))
    f, e, _, lens = _place_facts(R)
    chains = _two_letter_string(R.shape.outer.parts).chains
    reflect = dict(zip((U for chain in chains for U in chain),
                       (U for chain in reversed(chains) for U in reversed(chain))))

    def back(target):
        return None if target is None else unrectify(target, record).word_codes

    def codes(word):
        return None if word is None else word.codes

    return _Colour1(back(f), back(e), codes(primed_lower(w, 1)), codes(primed_raise(w, 1)),
                    back(reflect[R]), lens)


def knuth_equivalent(w, v) -> bool:
    """Connectivity of the Words w and v under the Knuth moves
    (bidirectional search); longer than KNUTH_MAX_LEN is a ValueError."""
    if len(w) > KNUTH_MAX_LEN or len(v) > KNUTH_MAX_LEN:
        raise ValueError(f"word length exceeds the Knuth search cap {KNUTH_MAX_LEN}")
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


def component_isomorphic_to_straight(g, comp) -> bool:
    """Match a component against the straight crystal of its highest weight.

    The unique highest weight vertex is mapped to the Yamanouchi tableau and
    the map is propagated along equal colored edges; any mismatch in edges,
    weights, or bijectivity raises ValueError.
    """
    high = comp.highest
    # a highest weight that is not a strict partition is a ValueError here
    nu = StrictPartition(p for p in g.vertices[high].weight(g.n) if p)
    model = build_graph(SkewShape(nu), g.n)
    y_id = model.vertex_id(yamanouchi(nu))
    comp_ids = set(comp.vertex_ids)
    mapping = {high: y_id}
    stack = [high]
    comp_edges = 0
    while stack:
        v = stack.pop()
        for color in g.colors:
            for primed in (False, True):
                u = g.down[color, primed][v]
                mu_ = model.down[color, primed][mapping[v]]
                if u is None:
                    if mu_ is not None:
                        raise ValueError("model has an edge the component lacks")
                    continue
                comp_edges += 1
                if mu_ is None:
                    raise ValueError("component has an edge the model lacks")
                if u in mapping:
                    if mapping[u] != mu_:
                        raise ValueError("edge maps disagree")
                else:
                    mapping[u] = mu_
                    stack.append(u)
                    if u not in comp_ids:
                        raise ValueError("edge leaves the component")
    if len(mapping) != len(comp.vertex_ids) or len(set(mapping.values())) != len(model.vertices):
        raise ValueError("component and model are not in bijection")
    for v, mv in mapping.items():
        if g.vertices[v].weight(g.n) != model.vertices[mv].weight(g.n):
            raise ValueError("weights disagree under the isomorphism")
    if comp_edges != _edge_count(model):
        raise ValueError("edge counts disagree")
    return True


def semistandard_by_marks(shape: SkewShape, word) -> bool:
    """The semistandard rule by marks: letters weakly increase along rows
    and columns, each v' is at most once in a row and each unprimed v at
    most once in a column, and the word is canonical."""
    marks = set()  # (row, primed code) and (column, unprimed code)
    for (r, c), x, west, north in zip(shape.cells_reading, word, shape.west, shape.north):
        mark = (r, x) if x % 2 else (c, x)
        if (x < 1 or mark in marks or (west is not None and word[west] > x)
                or (north is not None and word[north] > x)):
            return False
        marks.add(mark)
    return tuple(word) == canonicalize_codes(word)


def target_ids_by_write_back(g, i, *fields):
    """graph.target_ids by write-back: for each vertex in id order, its
    {i, i+1} subword's _colour_one target of each field is written back
    into its reading word (write_subword) and looked up in g's word index.
    Raises the same InvariantErrors."""
    lists = tuple([] for _ in fields)
    for T in g.vertices:
        record = _colour_one(T.interval_subword(i, i + 1, g.n))
        for field, targets in zip(fields, lists):
            target = getattr(record, field)
            if target is None:
                if field == "sigma":
                    raise InvariantError(f"sigma_{i} fell off the crystal at {T}")
                targets.append(None)
                continue
            dst = g.word_index.get(write_subword(T.word_codes, i, i + 1, target))
            if dst is None:
                op = {"f": "F", "f_prime": "F'"}.get(field, field)
                raise InvariantError(f"{op}_{i} of {T} is not a vertex of B({g.shape},{g.n})")
            targets.append(dst)
    return lists


def jdt_tables(g):
    """The definitional eta_{p,q} tables of graph._walk_tables: jeu de taquin
    (eta_interval) at every vertex."""
    return {
        (p, q): [g.vertex_id(eta_interval(T, p, q, g.n)) for T in g.vertices]
        for p, q in cactus_generators(g.n)
    }


def lrs_weight_counts_by_rectifying(shape: SkewShape, n: int) -> dict:
    """graph.lrs_weight_counts by rectifying every tableau of the shape over
    [n]' (is_lrs) and tallying the weights of the LRS ones."""
    counts = {}
    for T in enumerate_tableaux(shape, n):
        if is_lrs(T):
            wt = T.weight(n)
            counts[wt] = counts.get(wt, 0) + 1
    return counts


def walk_tables_by_components(g):
    """graph._walk_tables by components: every generator walked over the
    components of its interval subgraph (components_in), each anchor checked
    by eta_interval.  Returns the same (tables, anchors, violations)."""
    tables, anchors, violations = {}, 0, []

    def fail(kind, p, q, vid, **details):
        violations.append({"kind": kind, "params": {"p": p, "q": q}, **details,
                           "witness": vid})

    for p, q in cactus_generators(g.n):
        # the [p,q]-interval subgraph read from g's own id lists;
        # interval_subgraph would copy them once per generator
        colors = range(p, q)
        moves = [(color, primed, g.down[color, primed], g.up[p + q - 1 - color, primed])
                 for color in colors for primed in (False, True)]
        t = [None] * len(g.vertices)
        for comp in g.components_in(colors):
            if len(comp.highest_ids) != 1 or len(comp.lowest_ids) != 1:
                fail("extremal_count", p, q, comp.vertex_ids[0],
                     highest=len(comp.highest_ids), lowest=len(comp.lowest_ids))
                continue
            high, low = comp.highest, comp.lowest
            anchors += 1
            if eta_interval(g.vertices[high], p, q, g.n) != g.vertices[low]:
                fail("anchor", p, q, high)
            t[high] = low
            stack = [high]
            while stack:
                v = stack.pop()
                for color, primed, down, mirrored_up in moves:
                    u = down[v]
                    if u is None:
                        continue
                    w = mirrored_up[t[v]]
                    if w is None:
                        fail("missing_edge", p, q, v, color=color, primed=primed)
                    elif t[u] is None:
                        t[u] = w
                        stack.append(u)
                    elif t[u] != w:
                        fail("conflict", p, q, u)
            for vid in comp.vertex_ids:
                if t[vid] is None:
                    fail("unreached", p, q, vid)
        tables[(p, q)] = t
    return tables, anchors, violations
