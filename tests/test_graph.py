"""Crystal graphs, components, subgraphs, counting, cactus action, exports."""

import json

import pytest

from shifted_crystal import (
    CrystalGraph,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    build_graph,
    cactus_act,
    cactus_generators,
    component_isomorphic_to_straight,
    eta,
    eta_interval,
    export_dot,
    export_json,
    graph_from_json,
    interval_subgraph,
    is_lrs,
    lrs_count,
    strict_partitions_inside,
    strict_partitions_of,
    verify_cactus,
    yamanouchi,
)
from shifted_crystal import graph as graph_module
from shifted_crystal.core import InvariantError
from shifted_crystal.graph import _walk_tables
from shifted_crystal.operators import classify_string

DESK_GRAPHS = [("2,1", 4), ("3,1", 3), ("3,2", 3)]


def _jdt_tables(g):
    """The definitional oracle: eta_{p,q} by jeu de taquin at every vertex."""
    return {
        (p, q): [g.vertex_id(eta_interval(T, p, q, g.n)) for T in g.vertices]
        for p, q in cactus_generators(g.n)
    }


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
    # B((7,5,3,1),5) has 153 600 vertices; the refusal must not enumerate them
    built = [0]
    original = ShiftedTableau.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(ShiftedTableau, "__init__", counted)
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
        assert tables == _jdt_tables(g), g
        assert anchors == sum(len(interval_subgraph(g, p, q).components)
                              for p, q in cactus_generators(g.n))


def test_verify_cactus_reports_a_dropped_edge(graph_cache):
    # each single missing edge breaks the walk somewhere; none may raise
    g = graph_cache("2,1", 4)
    for k in range(len(g.edges)):
        broken = CrystalGraph(g.shape, g.n, g.vertices, g.edges[:k] + g.edges[k + 1:])
        rep = verify_cactus(broken)
        assert rep["ok"] is False and rep["violations"], g.edges[k]


def test_verify_cactus_reports_a_wrong_anchor(graph_cache, monkeypatch):
    g = graph_cache("2,1", 4)
    comp = next(c for c in interval_subgraph(g, 1, 3).components if len(c) > 1)
    high = g.vertices[comp.highest]

    def wrong_at_high(T, p, q, n):
        return T if (T, p, q) == (high, 1, 3) else eta_interval(T, p, q, n)

    monkeypatch.setattr(graph_module, "eta_interval", wrong_at_high)
    rep = verify_cactus(g)
    assert not rep["ok"]
    assert [v for v in rep["violations"] if v.get("kind") == "anchor"] == [{
        "kind": "anchor", "params": {"p": 1, "q": 3},
        "witness": comp.highest, "witness_word": str(high.reading_word(4)),
    }]


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
