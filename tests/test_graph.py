"""Crystal graphs, components, subgraphs, counting, cactus action, exports."""

import contextlib
import json
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from shifted_crystal import (
    CrystalGraph,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    build_graph,
    cactus_act,
    cactus_generators,
    eta,
    eta_interval,
    export_dot,
    export_json,
    graph_from_json,
    interval_subgraph,
    is_highest,
    is_lowest,
    is_lrs,
    lrs_count,
    lrs_weight_counts,
    strict_partitions_inside,
    strict_partitions_of,
    verify_cactus,
    yamanouchi,
)
from shifted_crystal import core as core_module
from shifted_crystal import graph as graph_module
from shifted_crystal import involutions as involutions_module
from shifted_crystal import operators as operators_module
from shifted_crystal.cli import main
from shifted_crystal.core import InvariantError
from shifted_crystal.graph import _interval_keys, _tuple_key, _walk_tables, target_ids, vertex_graph
from shifted_crystal.operators import _colour_one, classify_string
from shifted_crystal.verify import run_braid

from oracles import (
    colour_one_by_subword,
    component_isomorphic_to_straight,
    jdt_tables,
    lrs_weight_counts_by_rectifying,
    target_ids_by_write_back,
    walk_tables_by_components,
)

DESK_GRAPHS = [("2,1", 4), ("3,1", 3), ("3,2", 3)]


def test_build_graph_golden_counts(graph_cache):
    g = graph_cache("2,1", 2)
    assert len(g.vertices) == 2
    assert sum(1 for e in g.edges if e[3]) == 1
    assert sum(1 for e in g.edges if not e[3]) == 0

    g2 = build_graph(SkewShape.parse("2"), 2)
    assert len(g2.vertices) == 3
    assert sum(1 for e in g2.edges if e[3]) == 2
    assert sum(1 for e in g2.edges if not e[3]) == 2

    g3 = graph_cache("2,1", 4)
    # counts pinned at the first verified build
    assert len(g3.vertices) == 16 and len(g3.edges) == 36
    assert len(g3.components) == 1
    assert g3.vertices[g3.components[0].highest] == yamanouchi((2, 1))


def test_vertex_cap():
    with pytest.raises(ValueError, match="more than 2 vertices"):
        build_graph(SkewShape.parse("3,2,1"), 3, max_vertices=2)
    # a cap equal to the vertex count still builds
    assert len(build_graph(SkewShape.parse("2"), 2, max_vertices=3).vertices) == 3


def test_refused_graph_builds_at_most_cap_plus_one_tableaux(monkeypatch):
    # B((7,5,3,1),5) has 153 600 vertices; the refusal must not enumerate them.
    # The enumerator builds its tableaux through core._leaf, the rest through
    # the constructor: both are counted.
    built = [0]
    original, leaf = ShiftedTableau.__init__, core_module._leaf

    def counted(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    def counted_leaf(*args):
        built[0] += 1
        return leaf(*args)

    monkeypatch.setattr(ShiftedTableau, "__init__", counted)
    monkeypatch.setattr(core_module, "_leaf", counted_leaf)
    with pytest.raises(ValueError, match="more than 1000 vertices"):
        build_graph(SkewShape.parse("7,5,3,1"), 5, max_vertices=1000)
    assert 0 < built[0] <= 1001


@pytest.mark.parametrize("value", [-5, 2.5, "7", True])
def test_max_vertices_must_be_a_non_negative_integer(value):
    with pytest.raises(ValueError, match="max_vertices must be a non-negative integer"):
        build_graph(SkewShape.parse("2,1"), 2, max_vertices=value)


def test_build_graph_rejects_a_target_outside_the_vertices(monkeypatch):
    real = graph_module._colour_one

    def wrong(sub):
        # every letter 1': the word's first letter of value i turns primed,
        # so no written-back word is canonical, let alone a vertex
        return real(sub)._replace(f=(1,) * len(sub) if sub else None)

    monkeypatch.setattr(graph_module, "_colour_one", wrong)
    with pytest.raises(InvariantError, match="is not a vertex"):
        build_graph(SkewShape.parse("3,1"), 3)


def test_build_graph_refuses_two_edges_into_one_vertex(monkeypatch):
    real = graph_module._colour_one

    def merged(sub):
        # every defined F_1 of B((2),2) goes to the word "2 2", so the F
        # targets of "1 1" and "1 2" coincide
        record = real(sub)
        return record._replace(f=(4, 4)) if record.f is not None else record

    monkeypatch.setattr(graph_module, "_colour_one", merged)
    with pytest.raises(ValueError, match=r"edge \(1, 2, 1, False\) repeats a vertex's solid"):
        build_graph(SkewShape.parse("2"), 2)


def test_build_graph_rejects_a_target_one_letter_too_long(monkeypatch):
    # the grouped lookup finds a target only among the words that agree with
    # its source outside the letters i and i + 1, so a longer one is no vertex
    real = graph_module._colour_one

    def longer(sub):
        assert type(sub) is tuple
        record = real(sub)
        return record._replace(f=record.f + (2,)) if record.f is not None else record

    monkeypatch.setattr(graph_module, "_colour_one", longer)
    with pytest.raises(InvariantError, match=r"F_1 of .* is not a vertex of B\("):
        build_graph(SkewShape.parse("3,1"), 3)


# B((1),127) has 2n = 254, the last alphabet keyed as bytes; B((1),200)'s is keyed as tuples
@pytest.mark.parametrize("shape, n", DESK_GRAPHS + [("3,1/1", 3), ("1", 127), ("1", 200)])
def test_target_ids_match_the_write_back_oracle(shape, n):
    fields = ("f", "f_prime", "sigma")
    g = vertex_graph(SkewShape.parse(shape), n)
    colours = []
    for i, lists in target_ids(g, *fields):
        colours.append(i)
        assert lists == target_ids_by_write_back(g, i, *fields), i
    assert colours == list(range(1, n))


@pytest.mark.parametrize("shape, n, distinct", [("2,1", 4, 11), ("6,4,1/3,1", 4, 359)])
def test_one_record_request_per_distinct_subword(monkeypatch, shape, n, distinct):
    # one table serves every colour, so build_graph and run_braid each ask
    # _colour_one once per distinct {i, i+1} subword of the graph
    real, calls = graph_module._colour_one, []

    def counted(sub):
        calls.append(sub)
        return real(sub)

    monkeypatch.setattr(graph_module, "_colour_one", counted)
    g = build_graph(SkewShape.parse(shape), n)
    subs = {T.interval_subword(i, i + 1, n) for T in g.vertices for i in range(1, n)}
    assert len(calls) == len(subs) == distinct
    calls.clear()
    run_braid(shape, n)
    assert len(calls) == distinct


@pytest.mark.parametrize("shape, n, strings", [("6,4,1/3,1", 4, 76), ("6,4,2", 5, 239)])
def test_build_graph_rectifies_once_per_two_letter_string(monkeypatch, shape, n, strings):
    # a record miss fills its whole string from one rectification, so from
    # an empty table the build rectifies once per two-letter string met
    real, calls = operators_module.rectify, []

    def counted(T, *args):
        calls.append(T)
        return real(T, *args)

    _colour_one.cache_clear()
    monkeypatch.setattr(operators_module, "rectify", counted)
    build_graph(SkewShape.parse(shape), n)
    assert len(calls) == strings


def test_colour_records_match_the_subword_oracle_on_desk_graphs(graph_cache):
    for shape, n in DESK_GRAPHS:
        subs = {T.interval_subword(i, i + 1, n)
                for T in graph_cache(shape, n).vertices for i in range(1, n)}
        for sub in subs:
            assert _colour_one(sub) == colour_one_by_subword(sub), (shape, n, sub)


def test_interval_keys_cut_the_mask_and_the_subword(graph_cache):
    # colour 150 reads the codes 299 to 302, the letters 150', 150, 151' and 151
    codes = (1, 299, 400, 302, 300, 5, 301, 302, 303)
    want = ((1, 0, 400, 0, 0, 5, 0, 0, 303), (1, 4, 2, 3, 4))
    assert _tuple_key(299, 302, 298, codes) == want
    key, convert = _interval_keys(150, 151, 200)
    assert key(codes) == want and convert((1, 2)) == (1, 2)
    # [150, 152] reads the codes 299 to 304, and shifts them down to [1, 3]'
    codes = (1, 299, 400, 304, 300, 5, 303, 302, 305)
    key, convert = _interval_keys(150, 152, 200)
    assert key(codes) == ((1, 0, 400, 0, 0, 5, 0, 0, 305), (1, 6, 2, 5, 4))
    assert convert((6, 1)) == (6, 1)
    # up to 2n = 254 the key is in bytes, and cuts the same words
    codes = (1, 251, 254, 200, 252, 253, 254, 2)
    key, convert = _interval_keys(126, 127, 127)
    mask, sub = key(codes)
    assert type(mask) is bytes and type(sub) is bytes
    assert (tuple(mask), tuple(sub)) == _tuple_key(251, 254, 250, codes)
    assert convert((1, 4)) == bytes((1, 4))
    codes = (1, 249, 254, 200, 251, 253, 252, 2)
    key, convert = _interval_keys(125, 127, 127)
    mask, sub = key(codes)
    assert (tuple(mask), tuple(sub)) == ((1, 0, 0, 200, 0, 0, 0, 2), (1, 6, 3, 5, 4))
    assert convert((6, 1)) == bytes((6, 1))
    # on the desk graphs every interval cuts ShiftedTableau.interval_subword
    for shape, n in DESK_GRAPHS:
        for p, q in cactus_generators(n):
            key, _ = _interval_keys(p, q, n)
            for T in graph_cache(shape, n).vertices:
                mask, sub = key(T.word_codes)
                assert tuple(sub) == T.interval_subword(p, q, n), (shape, p, q, T)
                assert tuple(mask) == _tuple_key(2 * p - 1, 2 * q, 2 * (p - 1), T.word_codes)[0]


def test_graph_refuses_two_vertices_with_one_word():
    # target_ids walks the word index, which would hold one of the two ids
    v = vertex_graph(SkewShape.parse("2,1"), 3).vertices
    with pytest.raises(ValueError, match="two vertices of the graph have one reading word"):
        CrystalGraph(v[0].shape, 3, (v[2],) + v, ())


def test_id_lists_hold_exactly_the_edges(graph_cache):
    for shape, n in DESK_GRAPHS + [("3,1/1", 3)]:
        g = graph_cache(shape, n)
        from_lists = sorted((src, dst, color, primed)
                            for (color, primed), targets in g.down.items()
                            for src, dst in enumerate(targets) if dst is not None)
        assert tuple(from_lists) == g.edges, (shape, n)
        for src, dst, color, primed in g.edges:
            assert g.up[color, primed][dst] == src
        assert sum(x is not None for ids in g.up.values() for x in ids) == len(g.edges)


def test_vertex_id_rejects_a_tableau_of_another_shape(graph_cache):
    # the index is keyed by reading word: (2, 2) is the word of "1 1" in
    # B((2),2), so the shape must be checked before the word is looked up
    g = graph_cache("2", 2)
    other = ShiftedTableau.parse("3,1/2", "1 / 1")
    assert other.word_codes == (2, 2)
    assert any(T.word_codes == (2, 2) for T in g.vertices)
    with pytest.raises(ValueError, match="not a vertex"):
        g.vertex_id(other)


def test_graph_from_json_rejects_an_edge_outside_the_graph(graph_cache):
    g = graph_cache("2,1", 3)
    for field, value in [("src", -1), ("dst", len(g.vertices)), ("color", g.n)]:
        obj = json.loads(export_json(g))
        obj["edges"][0][field] = value
        with pytest.raises(ValueError, match="outside"):
            graph_from_json(json.dumps(obj))


def test_graph_from_json_rejects_conflicting_edges(graph_cache):
    g = graph_cache("2,1", 3)
    src, dst, color, primed = g.edges[0]
    down, up = g.down[color, primed], g.up[color, primed]
    free_dst = next(v for v in range(len(g.vertices)) if up[v] is None and v != dst)
    free_src = next(v for v in range(len(g.vertices)) if down[v] is None and v != src)
    for extra in [(src, dst), (src, free_dst), (free_src, dst)]:
        obj = json.loads(export_json(g))
        obj["edges"].append(dict(zip(("src", "dst", "color", "primed"), (*extra, color, primed))))
        with pytest.raises(ValueError, match=r"edge \(.*\) repeats"):
            graph_from_json(json.dumps(obj))


def _edited_export(g, edit):
    obj = json.loads(export_json(g))
    edit(obj)
    return json.dumps(obj)


def test_graph_from_json_refuses_ids_that_are_not_positions(graph_cache):
    g = graph_cache("2,1", 3)

    def shift(obj):
        for rec in obj["vertices"]:
            rec["id"] += 10

    def swap(obj):
        first, second = obj["vertices"][:2]
        first["id"], second["id"] = second["id"], first["id"]

    for edit, bad in [(shift, "10"), (swap, "1")]:
        with pytest.raises(ValueError, match=f"vertex id {bad} at position 0"):
            graph_from_json(_edited_export(g, edit))


def test_graph_from_json_refuses_a_repeated_word(graph_cache):
    g = graph_cache("2,1", 3)

    def repeat(obj):
        obj["vertices"][1]["word"] = obj["vertices"][0]["word"]

    word = json.loads(export_json(g))["vertices"][0]["word"]
    with pytest.raises(ValueError, match=f"vertex 1 repeats the word '{word}'"):
        graph_from_json(_edited_export(g, repeat))


@pytest.mark.parametrize("field, value", [("primed", 0), ("primed", 1), ("primed", "true"),
                                          ("src", 0.0), ("color", True)])
def test_graph_from_json_refuses_an_edge_field_of_the_wrong_type(graph_cache, field, value):
    g = graph_cache("2,1", 3)

    def retype(obj):
        obj["edges"][0][field] = value

    with pytest.raises(ValueError, match="integer src, dst and color and a boolean primed"):
        graph_from_json(_edited_export(g, retype))


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj.update(n="3"), "the graph: n must be of type int, got '3'"),
    (lambda obj: obj.update(n=3.0), "the graph: n must be of type int, got 3.0"),
    (lambda obj: obj.update(n=True), "the graph: n must be of type int, got True"),
    (lambda obj: obj.update(n=-1), "the graph: n must be at least 0, got -1"),
    (lambda obj: obj.update(shape=5), "the graph: shape must be of type str, got 5"),
    (lambda obj: obj.update(vertices={}), "the graph: vertices must be of type list, got {}"),
    (lambda obj: obj["vertices"][0].update(word=7), "vertex 0: word must be of type str, got 7"),
    (lambda obj: obj.pop("edges"), "the graph has no 'edges' field"),
    (lambda obj: obj["vertices"][2].pop("weight"), "vertex 2 has no 'weight' field"),
    (lambda obj: obj["edges"][0].pop("src"), "an edge has no 'src' field"),
    (lambda obj: obj["vertices"][0].update(weight=[1, 1, 1]),
     r"vertex 0: weight \[1, 1, 1\] is not the weight \[2, 1, 0\] of its word '2 1 1'"),
    (lambda obj: obj["vertices"][0].update(weight=[2.0, 1, 0]),
     r"vertex 0: weight \[2.0, 1, 0\] is not"),
    (lambda obj: obj["vertices"][0].update(weight=[2, 1]), r"vertex 0: weight \[2, 1\] is not"),
])
def test_graph_from_json_names_a_malformed_field(graph_cache, edit, message):
    g = graph_cache("2,1", 3)
    with pytest.raises(ValueError, match=message):
        graph_from_json(_edited_export(g, edit))


def test_components_highest_is_lrs(graph_cache):
    g = graph_cache("3,1/1", 3)
    assert sum(len(c) for c in g.components) == len(g.vertices)
    for comp in g.components:
        assert len(comp.highest_ids) == 1 and len(comp.lowest_ids) == 1
        high = g.vertices[comp.highest]
        assert is_lrs(high)
        assert component_isomorphic_to_straight(g, comp)


def test_component_count_matches_lrs_count(graph_cache):
    g = graph_cache("3,1/1", 3)
    by_weight = {}
    for comp in g.components:
        wt = g.vertices[comp.highest].weight(3)
        by_weight[wt] = by_weight.get(wt, 0) + 1
    lam, mu = StrictPartition.parse("3,1"), StrictPartition.parse("1")
    for nu in strict_partitions_of(lam.size - mu.size):
        if len(nu) > 3:
            continue
        expected = lrs_count(lam, mu, nu)
        wt = tuple(nu.parts) + (0,) * (3 - len(nu))
        assert by_weight.get(wt, 0) == expected


def test_interval_subgraph(graph_cache):
    g = graph_cache("2,1", 4)
    sub = interval_subgraph(g, 2, 4)
    assert sub.vertices == g.vertices
    assert all(e[2] in (2, 3) for e in sub.edges)
    full = interval_subgraph(g, 1, 4)
    assert full.edges == g.edges
    with pytest.raises(ValueError):
        interval_subgraph(g, 3, 3)
    # B_{p,p+1} components are exactly the p-strings
    sub12 = interval_subgraph(g, 1, 2)
    for comp in sub12.components:
        members = {g.vertices[v] for v in comp.vertex_ids}
        assert classify_string(g.vertices[comp.vertex_ids[0]], 1, 4).members == members
    # every interval component keeps unique extremes
    for (p, q) in cactus_generators(4):
        for comp in interval_subgraph(g, p, q).components:
            assert len(comp.highest_ids) == 1 and len(comp.lowest_ids) == 1


def test_lrs_count_examples():
    assert lrs_count((2, 1), (), (2, 1)) == 1
    for lam in strict_partitions_inside(StrictPartition.parse("3,2,1")):
        if lam:
            assert lrs_count(lam, (), lam) == 1
    assert lrs_count((3, 1), (1,), (3,)) == 1
    assert lrs_count((3, 1), (1,), (2, 1)) == 1
    assert lrs_count((3, 1), (1,), (2, 2)) == 0
    assert lrs_count((3, 1), (1,), (2,)) == 0
    assert lrs_count((2, 1), (2, 1), ()) == 1
    assert lrs_count((2, 1), (1,), ()) == 0
    # nu drops trailing zeros like lam and mu, and is refused when not strict
    assert lrs_count((3, 1), (1,), (2, 1, 0)) == 1
    assert lrs_count((2, 1), (2, 1), (0,)) == 1
    assert lrs_count((3, 1), (1,), StrictPartition((2, 1))) == 1
    for nu in ((2, 2), (2, 0, 1), (-1,)):
        assert lrs_count((3, 1), (1,), nu) == 0, nu


def test_lrs_count_matches_the_rectifying_oracle():
    # lrs_count rectifies only the tableaux of content nu; the oracle
    # rectifies every tableau over [len(nu)]' and tallies the LRS weights
    oracle = {}
    triples = 0
    for lam in strict_partitions_inside((5, 3, 2, 1)):
        for mu in strict_partitions_inside(lam):
            shape = SkewShape(lam, mu)
            for nu in strict_partitions_of(shape.size):
                key = (shape, len(nu))
                if key not in oracle:
                    oracle[key] = lrs_weight_counts_by_rectifying(shape, len(nu))
                assert lrs_count(lam, mu, nu) == oracle[key].get(nu.parts, 0), (lam, mu, nu)
                triples += 1
    assert triples == 613


def test_lrs_weight_counts_match_the_rectifying_oracle():
    pairs = 0
    for lam in strict_partitions_inside((4, 3, 2, 1)):
        for mu in strict_partitions_inside(lam):
            shape = SkewShape(lam, mu)
            for n in range(4):
                assert lrs_weight_counts(shape, n) == lrs_weight_counts_by_rectifying(shape, n), \
                    (shape, n)
                pairs += 1
    assert pairs == 504
    with pytest.raises(ValueError, match="non-negative"):
        lrs_weight_counts(SkewShape.parse("2,1"), -1)


def test_lrs_count_past_the_cap_builds_at_most_cap_plus_one_tableaux(monkeypatch):
    # B((9,7,5,3,1)/(3,1),5) has more than 2 000 000 tableaux, 904 of them of
    # content (8,6,4,2,1): only those are enumerated, and past the cap only
    # cap + 1 of them
    lam, mu, nu = (9, 7, 5, 3, 1), (3, 1), (8, 6, 4, 2, 1)
    built, leaf = [0], core_module._leaf

    def counted_leaf(*args):
        built[0] += 1
        return leaf(*args)

    monkeypatch.setattr(core_module, "_leaf", counted_leaf)
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", "100")
    with pytest.raises(ValueError) as exc:
        lrs_count(lam, mu, nu)
    assert str(exc.value) == "more than 100 vertices; raise SHIFTED_CRYSTAL_MAX_VERTICES to override"
    assert 0 < built[0] <= 101
    monkeypatch.delenv("SHIFTED_CRYSTAL_MAX_VERTICES")
    assert lrs_count(lam, mu, nu) == 8
    # its symmetry mirror, complements in the staircase of lam_1 = 9
    assert lrs_count((9, 8, 7, 6, 5, 4, 2), (8, 6, 4, 2), nu) == 8


def test_lrs_count_reads_the_vertex_cap_on_every_call(monkeypatch):
    # a count made uncapped is made again under each later cap: no call
    # returns a count without enumerating under the cap it reads
    lam, mu, nu = (9, 7, 5, 3, 1), (3, 1), (8, 6, 4, 2, 1)
    assert lrs_count(lam, mu, nu) == 8
    built, leaf = [0], core_module._leaf

    def counted_leaf(*args):
        built[0] += 1
        return leaf(*args)

    monkeypatch.setattr(core_module, "_leaf", counted_leaf)
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", "100")
    with pytest.raises(ValueError) as exc:
        lrs_count(lam, mu, nu)
    assert str(exc.value) == "more than 100 vertices; raise SHIFTED_CRYSTAL_MAX_VERTICES to override"
    assert 0 < built[0] <= 101
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", "abc")
    with pytest.raises(ValueError) as exc:
        lrs_count(lam, mu, nu)
    assert str(exc.value) == "SHIFTED_CRYSTAL_MAX_VERTICES must be a non-negative integer, got 'abc'"


def test_cactus_act_and_relations(graph_cache):
    g = graph_cache("2,1", 4)
    for vid in range(len(g.vertices)):
        assert cactus_act(g, (1, 4), vid) == g.vertex_id(eta(g.vertices[vid], 4))
        a = cactus_act(g, (1, 3), cactus_act(g, (1, 4), vid))
        b = cactus_act(g, (1, 4), cactus_act(g, (2, 4), vid))
        assert a == b
        # s_{2,4} is an involution staying in the component
        w = cactus_act(g, (2, 4), vid)
        assert cactus_act(g, (2, 4), w) == vid
        assert any(vid in c.vertex_ids and w in c.vertex_ids for c in g.components)
    with pytest.raises(ValueError):
        cactus_act(g, (1, 2), yamanouchi((3,)))
    # an id is an int in [0, |V|): no negative index, no bool
    for vid in (0, len(g.vertices) - 1):
        assert cactus_act(g, (1, 3), vid) == g.vertex_id(eta_interval(g.vertices[vid], 1, 3, 4))
    for bad in (-1, len(g.vertices), True):
        with pytest.raises(ValueError, match=rf"vertex id {bad!r} .* {len(g.vertices)} ids"):
            cactus_act(g, (1, 3), bad)


def test_verify_cactus_reports(graph_cache):
    rep = verify_cactus(graph_cache("2,1", 4))
    assert rep["ok"] and rep["violations"] == []
    assert rep["checked"]["involution"] > 0
    assert rep["checked"]["nested"] > 0


def test_walk_tables_match_jdt_oracle(graph_cache):
    graphs = [graph_cache(shape, n) for shape, n in DESK_GRAPHS]
    bound = StrictPartition.parse("4,3,2,1")
    graphs += [build_graph(SkewShape(lam, mu), 3)
               for lam in strict_partitions_inside(bound)
               for mu in strict_partitions_inside(lam)]
    graphs.append(graph_cache("5,3,1", 4))
    for g in graphs:
        tables, anchors, violations = _walk_tables(g)
        assert violations == [], (g, violations[:3])
        assert tables == jdt_tables(g), g
        assert anchors == sum(len(interval_subgraph(g, p, q).components)
                              for p, q in cactus_generators(g.n))


@st.composite
def _random_shapes(draw):
    """(lam/mu, n): lam strict with lam_1 <= 6 and at most three rows, mu
    inside lam, and n in 2..4."""
    lam = draw(st.sampled_from(strict_partitions_inside((6, 5, 4))))
    mu = draw(st.sampled_from(strict_partitions_inside(lam)))
    return SkewShape(lam, mu), draw(st.integers(2, 4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_random_shapes())
def test_random_graphs_match_the_definitional_path(shape_n):
    # the grouped colour pass against the write-back oracle, and the walked
    # eta_{p,q} tables against jeu de taquin at every vertex
    try:
        g = build_graph(*shape_n, max_vertices=3000)
    except ValueError:
        assume(False)
    fields = ("f", "f_prime", "sigma")
    for i, lists in target_ids(g, *fields):
        assert lists == target_ids_by_write_back(g, i, *fields), i
    # every record filled from a string is its own subword's
    shape, n = shape_n
    for sub in {T.interval_subword(i, i + 1, n) for T in g.vertices for i in range(1, n)}:
        assert _colour_one(sub) == colour_one_by_subword(sub), sub
    tables, _, violations = _walk_tables(g)
    assert violations == []
    assert tables == jdt_tables(g)
    # the highest elements are the is_highest vertices, each LRS, the lowest
    # the is_lowest vertices, and the components of highest weight nu number
    # lrs_count(lam, mu, nu)
    by_weight = {}
    for comp in g.components:
        assert comp.highest_ids == tuple(v for v in comp.vertex_ids
                                         if is_highest(g.vertices[v], n))
        assert comp.lowest_ids == tuple(v for v in comp.vertex_ids
                                        if is_lowest(g.vertices[v], n))
        assert all(is_lrs(g.vertices[v]) for v in comp.highest_ids)
        wt = g.vertices[comp.highest].weight(n)
        by_weight[wt] = by_weight.get(wt, 0) + 1
    for nu in strict_partitions_of(shape.size):
        if len(nu) <= n:
            wt = nu.parts + (0,) * (n - len(nu))
            assert by_weight.get(wt, 0) == lrs_count(shape.outer, shape.inner, nu), nu
    # the JSON export reads back to the same vertices and down lists
    back = graph_from_json(export_json(g))
    assert back.vertices == g.vertices and back.down == g.down


def test_component_refuses_a_second_highest_or_lowest_element(graph_cache):
    # B((2,1),4) is one component; without F'_1 0 -> 1 it has two highest
    # elements, and without F'_1 10 -> 13 two lowest
    g = graph_cache("2,1", 4)
    cases = [((0, 1, 1, True), "highest", (0, 1), "lowest", 15),
             ((10, 13, 1, True), "lowest", (10, 15), "highest", 0)]
    for dropped, twice, ids, once, single in cases:
        edges = [e for e in g.edges if e != dropped]
        assert len(edges) == len(g.edges) - 1
        (comp,) = CrystalGraph(g.shape, g.n, g.vertices, edges).components
        assert getattr(comp, f"{twice}_ids") == ids
        with pytest.raises(ValueError) as exc:
            getattr(comp, twice)
        assert str(exc.value) == f"component has 2 {twice} elements"
        assert getattr(comp, once) == single


def test_verify_cactus_reports_a_dropped_edge(graph_cache):
    # each single missing edge breaks the walk somewhere; none may raise
    g = graph_cache("2,1", 4)
    for k in range(len(g.edges)):
        broken = CrystalGraph(g.shape, g.n, g.vertices, g.edges[:k] + g.edges[k + 1:])
        rep = verify_cactus(broken)
        assert rep["ok"] is False and rep["violations"], g.edges[k]


def test_walk_tables_reports_a_conflict():
    # B((2,1),3)'s solid colour-2 edge 1 -> 3 redirected into a loop at 1:
    # eta_{1,3} then reaches 1 with two values
    g = build_graph(SkewShape.parse("2,1"), 3)
    assert (1, 3, 2, False) in g.edges
    edges = [(1, 1, 2, False) if e == (1, 3, 2, False) else e for e in g.edges]
    rep = verify_cactus(CrystalGraph(g.shape, g.n, g.vertices, edges))
    assert [v for v in rep["violations"] if v["kind"] == "conflict"] == [
        {"kind": "conflict", "params": {"p": 1, "q": 3}, "witness": 1, "witness_word": "2 1 2'"}]
    assert not rep["ok"]


def test_verify_cactus_reports_a_wrong_anchor(graph_cache, monkeypatch):
    g = graph_cache("2,1", 4)
    comp = next(c for c in interval_subgraph(g, 1, 3).components if len(c) > 1)
    high = g.vertices[comp.highest]

    def wrong_at_high(T, p, q, n):
        return T if (T, p, q) == (high, 1, 3) else eta_interval(T, p, q, n)

    # the keyed anchor of the walk from the highest elements is wrong there
    # too: the high element's own subword, unreversed
    high_sub = high.interval_subword(1, 3, 4)
    reversed_subword = graph_module._reversed_subword

    def unreversed_at_high(k, sub):
        return sub if (k, sub) == (3, high_sub) else reversed_subword(k, sub)

    monkeypatch.setattr(graph_module, "eta_interval", wrong_at_high)
    monkeypatch.setattr(graph_module, "_reversed_subword", unreversed_at_high)
    rep = verify_cactus(g)
    assert not rep["ok"]
    assert [v for v in rep["violations"] if v.get("kind") == "anchor"] == [{
        "kind": "anchor", "params": {"p": 1, "q": 3},
        "witness": comp.highest, "witness_word": str(high.reading_word(4)),
    }]


def test_verify_cactus_reports_an_anchor_in_another_component(graph_cache, monkeypatch):
    # B((6,4,1)/(3,1),4) has components of one highest weight; eta_{1,4}
    # sends the first one's highest element to the second one's lowest, a
    # lowest element that the first one's walk does not reach
    g = graph_cache("6,4,1/3,1", 4)
    assert len(g.components) == 10
    weights = [g.vertices[c.highest].weight(4) for c in g.components]
    first, second = [c for c, wt in zip(g.components, weights) if wt == (4, 3, 0, 0)][:2]
    high, elsewhere = g.vertices[first.highest], g.vertices[second.lowest]
    high_sub, elsewhere_sub = (T.interval_subword(1, 4, 4) for T in (high, elsewhere))
    reversed_subword = graph_module._reversed_subword

    def elsewhere_at_high(T, p, q, n):
        return elsewhere if (T, p, q) == (high, 1, 4) else eta_interval(T, p, q, n)

    def elsewhere_sub_at_high(k, sub):
        return elsewhere_sub if (k, sub) == (4, high_sub) else reversed_subword(k, sub)

    monkeypatch.setattr(graph_module, "eta_interval", elsewhere_at_high)
    monkeypatch.setattr(graph_module, "_reversed_subword", elsewhere_sub_at_high)
    rep = verify_cactus(g)
    assert rep["violations"] == [{
        "kind": "anchor", "params": {"p": 1, "q": 4},
        "witness": first.highest, "witness_word": str(high.reading_word(4)),
    }]
    assert rep["anchors"] == 2470 and not rep["ok"]


def test_verify_cactus_raises_where_eta_is_not_a_tableau(monkeypatch, capsys):
    # at one highest element of B((2,1),4), eta_{1,3} gives three letters
    # 1': an internal error, as with jeu de taquin, not a violation
    g = build_graph(SkewShape.parse("2,1"), 4)
    comp = next(c for c in interval_subgraph(g, 1, 3).components if len(c) > 1)
    sub = g.vertices[comp.highest].interval_subword(1, 3, 4)
    reversed_subword = involutions_module._reversed_subword

    def not_a_tableau(k, word):
        return (1,) * len(word) if (k, word) == (3, sub) else reversed_subword(k, word)

    monkeypatch.setattr(involutions_module, "_reversed_subword", not_a_tableau)
    monkeypatch.setattr(graph_module, "_reversed_subword", not_a_tableau)
    with pytest.raises(InvariantError, match="is not a tableau"):
        verify_cactus(g)
    assert main(["verify", "cactus", "--shape", "2,1", "--n", "4"]) == 3
    assert capsys.readouterr().out == ""


def test_walk_tables_give_up_where_no_walk_reaches():
    # B((1),3) is the path 1 -> 2 -> 3 of dashed edges; with its colour-2
    # edges a cycle between "2" and "3", that cycle has no highest element,
    # so no walk from the highest elements reaches it
    g = build_graph(SkewShape.parse("1"), 3)
    assert g.edges == ((0, 1, 1, True), (1, 2, 2, True))
    cycle = CrystalGraph(g.shape, 3, g.vertices,
                         [(0, 1, 1, True), (1, 2, 2, False), (2, 1, 2, True)])
    walked = _walk_tables(cycle)
    assert walked == walk_tables_by_components(cycle)
    assert [v for v in walked[2] if v["kind"] == "extremal_count"] == [
        {"kind": "extremal_count", "params": {"p": 1, "q": 3}, "highest": 1, "lowest": 0,
         "witness": 0},
        {"kind": "extremal_count", "params": {"p": 2, "q": 3}, "highest": 0, "lowest": 0,
         "witness": 1},
    ]


@contextlib.contextmanager
def _counted_calls():
    """{"components_in": k, "eta_interval": m}: the calls graph made to
    each while the block runs."""
    calls = {"components_in": 0, "eta_interval": 0}
    components_in, eta_interval_ = CrystalGraph.components_in, graph_module.eta_interval

    def counted_components_in(self, colors):
        calls["components_in"] += 1
        return components_in(self, colors)

    def counted_eta_interval(*args):
        calls["eta_interval"] += 1
        return eta_interval_(*args)

    with mock.patch.object(CrystalGraph, "components_in", counted_components_in), \
            mock.patch.object(graph_module, "eta_interval", counted_eta_interval):
        yield calls


def test_verify_cactus_walks_down_from_word_anchors(graph_cache):
    # no interval component is found and no anchor rebuilt as a tableau
    for shape, n, anchors in [("6,4,1/3,1", 4, 2470), ("5,3,1", 4, 625)]:
        with _counted_calls() as calls:
            rep = verify_cactus(graph_cache(shape, n))
        assert calls == {"components_in": 0, "eta_interval": 0}, shape
        assert rep["ok"] and rep["anchors"] == anchors, shape


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_random_shapes(), st.data())
def test_walk_from_word_anchors_matches_the_component_walk(shape_n, data):
    # on a random graph the walk from word anchors takes no component, and
    # with one random edge dropped its walk and report are the component
    # walk's (oracles.walk_tables_by_components), violations and all
    try:
        g = build_graph(*shape_n, max_vertices=3000)
    except ValueError:
        assume(False)
    assume(g.edges)
    k = data.draw(st.integers(0, len(g.edges) - 1))
    broken = CrystalGraph(g.shape, g.n, g.vertices, g.edges[:k] + g.edges[k + 1:])
    for graph in (g, broken):
        with _counted_calls() as calls:
            walked = _walk_tables(graph)
        assert walked == walk_tables_by_components(graph)
        if graph is g:
            assert calls == {"components_in": 0, "eta_interval": 0}
        with mock.patch.object(graph_module, "_walk_tables", walk_tables_by_components):
            want = verify_cactus(graph)
        assert verify_cactus(graph) == want


def test_verify_cactus_pins_each_relation_violation(monkeypatch):
    # B((1),4) is the path 1 -> 2 -> 3 -> 4, so every eta_{p,q} table
    # reverses [p, q]; s_{1,2} is broken to send "1" to "3" instead of "2"
    g = build_graph(SkewShape.parse("1"), 4)
    real = graph_module._walk_tables

    def broken(g):
        tables, anchors, violations = real(g)
        assert tables[(1, 2)] == [1, 0, 2, 3] and violations == []
        tables[(1, 2)][0] = 2
        return tables, anchors, violations

    monkeypatch.setattr(graph_module, "_walk_tables", broken)
    rep = verify_cactus(g)
    assert rep["checked"] == {"involution": 24, "disjoint": 4, "nested": 36}
    want = [
        (1, {"p": 1, "q": 2}, 0),
        (1, {"p": 1, "q": 2}, 1),
        (2, {"p": 1, "q": 2, "k": 3, "l": 4}, 0),
        (3, {"p": 1, "q": 3, "k": 1, "l": 2}, 0),
        (3, {"p": 1, "q": 3, "k": 2, "l": 3}, 2),
        (3, {"p": 1, "q": 4, "k": 1, "l": 2}, 0),
        (3, {"p": 1, "q": 4, "k": 3, "l": 4}, 3),
    ]
    assert rep["violations"] == [
        {"relation": r, "params": params, "witness": w, "witness_word": str(w + 1)}
        for r, params, w in want
    ]
    assert rep["ok"] is False


def test_rooted_isomorphism_full_scope(graph_cache):
    # every component of every skew graph inside (4,3,2,1) at n=3 matches
    # the straight crystal of its highest weight
    bound = StrictPartition.parse("4,3,2,1")
    for lam in strict_partitions_inside(bound):
        for mu in strict_partitions_inside(lam):
            g = build_graph(SkewShape(lam, mu), 3)
            for comp in g.components:
                assert component_isomorphic_to_straight(g, comp)


def test_dual_equivalence_ten_random_sequences(graph_cache):
    import random

    from shifted_crystal import rectify, replay

    rng = random.Random(99)
    for shape_text, n in [("3,1/1", 3), ("4,2/2", 3)]:
        g = graph_cache(shape_text, n)
        for comp in g.components:
            members = [g.vertices[v] for v in comp.vertex_ids]
            for _ in range(10):
                _, rec = rectify(members[0], rng=rng)
                results = [replay(T, rec) for T in members]
                assert len({out.shape for out, _ in results}) == 1
                # matching shapes force matching hole endpoints
                assert len({r.steps for _, r in results}) == 1


def test_eta_interval_extremes_per_interval_component(graph_cache):
    from shifted_crystal import eta_interval

    for shape_text, n in [("2,1", 4), ("3,1", 3)]:
        g = graph_cache(shape_text, n)
        for (p, q) in cactus_generators(n):
            sub = interval_subgraph(g, p, q)
            for comp in sub.components:
                high = g.vertices[comp.highest]
                low = g.vertices[comp.lowest]
                assert eta_interval(high, p, q, n) == low
                assert eta_interval(low, p, q, n) == high


def test_export_dot_golden(graph_cache):
    g = graph_cache("2,1", 2)
    dot = export_dot(g)
    assert dot.count("style=dashed") == 1
    assert 'label="2 1 1\\n(2,1)"' in dot
    empty = build_graph(SkewShape.parse(""), 2)
    assert len(empty.vertices) == 1 and not empty.edges


def test_export_json_roundtrip_and_determinism(graph_cache):
    g = graph_cache("2,1", 4)
    text = export_json(g)
    obj = json.loads(text)
    assert {v["id"] for v in obj["vertices"]} == set(range(16))
    back = graph_from_json(text)
    assert back.vertices == g.vertices
    assert back.edges == g.edges
    assert export_json(back) == text
    rebuilt = build_graph(SkewShape.parse("2,1"), 4)
    assert export_json(rebuilt) == text
    assert export_dot(rebuilt) == export_dot(g)


def _json_dumps_export(g):
    """The oracle: the export as json.dumps lays it out."""
    obj = {
        "shape": str(g.shape),
        "n": g.n,
        "vertices": [{"id": vid, "word": str(T.reading_word(g.n)),
                      "weight": list(T.weight(g.n))}
                     for vid, T in enumerate(g.vertices)],
        "edges": [{"src": src, "dst": dst, "color": color, "primed": primed}
                  for src, dst, color, primed in g.edges],
    }
    return json.dumps(obj, indent=1) + "\n"


def test_export_json_matches_json_dumps(graph_cache):
    graphs = [graph_cache(shape, n) for shape, n in DESK_GRAPHS]
    graphs += [build_graph(SkewShape.parse("3"), 1),     # no edges
               build_graph(SkewShape.parse("2,1"), 1)]   # no vertices
    assert not graphs[-2].edges and not graphs[-1].vertices
    for g in graphs:
        text = export_json(g)
        assert text == _json_dumps_export(g), g
        back = graph_from_json(text)
        assert back.vertices == g.vertices and back.edges == g.edges
        assert export_json(back) == text


def test_weight_counts_the_word_letters(graph_cache):
    for shape, n in DESK_GRAPHS:
        for T in graph_cache(shape, n).vertices:
            assert T.weight(n) == Word(T.word_codes, n).weight()
            assert T.weight() == Word(T.word_codes).weight()
    T = ShiftedTableau.parse("2,1", "1 2 / 3")
    for make in (lambda: T.weight(2), lambda: Word(T.word_codes, 2).weight()):
        with pytest.raises(ValueError, match=r"^letter value 3 out of range for n=2$"):
            make()
