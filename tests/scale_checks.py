"""Checks above desk scale: B((6,4,2),5), 24 880 vertices, built once, and
the Knuth suite at its full scope.

pytest collects only test_*.py files, so the tier-1 run leaves this module
out. Run it by path (CI does):

    python -m pytest -q tests/scale_checks.py
"""

import hashlib
import json

from shifted_crystal import CrystalGraph, SkewShape, enumerate_tableaux, graph, reversal, verify_cactus
from shifted_crystal.cli import main

from oracles import reversal_by_composition, target_ids_by_write_back, walk_tables_by_components
from test_graph import _counted_calls

SCALE = ("6,4,2", 5)


def test_verify_cactus_walks_down_from_word_anchors_at_scale(graph_cache):
    # no interval component is found and no anchor checked by jeu de taquin
    with _counted_calls() as calls:
        rep = verify_cactus(graph_cache(*SCALE))
    assert calls == {"components_in": 0, "eta_interval": 0}
    assert rep["ok"] and rep["anchors"] == 25711, rep["violations"][:3]


def test_walk_with_an_edge_dropped_matches_the_component_oracle(graph_cache):
    # the walk from word anchors gives up, and the component walk's tables,
    # anchors and violations are those of the independent oracle
    g = graph_cache(*SCALE)
    broken = CrystalGraph(g.shape, g.n, g.vertices, g.edges[1:])
    walked = graph._walk_tables(broken)
    assert walked[2], "no violation with the first edge dropped"
    assert walked == walk_tables_by_components(broken)


def test_walk_with_a_mid_string_edge_dropped_matches_the_component_oracle(graph_cache):
    # the first edge inside a string (its source has an edge of the same
    # label in, its target one out) is cut, so the walk meets a gap where the
    # first-edge case above only miscounts extremal elements
    g = graph_cache(*SCALE)
    cut = next(k for k, (u, v, colour, primed) in enumerate(g.edges)
               if g.up[colour, primed][u] is not None and g.down[colour, primed][v] is not None)
    broken = CrystalGraph(g.shape, g.n, g.vertices, g.edges[:cut] + g.edges[cut + 1:])
    walked = graph._walk_tables(broken)
    kinds = {v["kind"] for v in walked[2]}
    assert kinds - {"extremal_count"}, kinds
    assert walked == walk_tables_by_components(broken)


def test_reversal_matches_the_composition_oracle_at_scale(graph_cache):
    # one standard state against rectify, evacuate and unrectify at every vertex
    g = graph_cache(*SCALE)
    for T in g.vertices:
        assert reversal(T, g.n) == reversal_by_composition(T, g.n), T


def test_target_ids_match_the_write_back_oracle_at_scale(graph_cache, monkeypatch):
    # every F, F' and sigma list is the write-back oracle's, the graph's
    # edge lists are its F and F' lists, and one pass asks _colour_one once
    # per distinct {i, i+1} subword
    g = graph_cache(*SCALE)
    fields = ("f", "f_prime", "sigma")
    real, calls = graph._colour_one, []
    monkeypatch.setattr(graph, "_colour_one", lambda sub: calls.append(sub) or real(sub))
    for i, lists in graph.target_ids(g, *fields):
        assert lists == target_ids_by_write_back(g, i, *fields), i
        assert lists[:2] == (g.down[i, False], g.down[i, True]), i
    assert len(calls) == 1256


def test_enumeration_of_the_point_query_shape_keeps_its_words_and_order():
    # the 340 460 words of B((7,5,3,1)/(4,2),5), in enumeration order, as
    # recorded when each tableau was built during the search
    leaves = enumerate_tableaux(SkewShape.parse("7,5,3,1/4,2"), 5)
    digest = hashlib.sha256()
    for T in leaves:
        digest.update(bytes(T.word_codes))
    assert len(leaves) == 340460
    assert digest.hexdigest() == "5a91c4aed109903745e820bc6fc7701f68ad3053c2d1f9177fad6d4272610d40"


def test_verify_knuth_at_full_scope_and_seed_0(capsys):
    # the slides of the orders checked, one per inner cell per order, do not
    # depend on the seed; the report keeps the shared key order
    assert main(["verify", "knuth", "--seed", "0", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert list(rep) == ["suite", "words", "classes", "shapes", "tableaux", "checked",
                         "seconds", "violations", "ok", "summary"]
    assert rep["ok"] and rep["checked"]["slides"] == {"words": 103135, "orders": 376227}
