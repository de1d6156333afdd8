"""Verification suites: cactus relations, braid failures, Knuth coherence,
Littlewood-Richardson symmetry, and structural facts about desk graphs.

Every suite returns a report dict; randomized parts take a seed.  _report
builds the braid, knuth, symmetry and structure reports: "suite", the
suite's own fields, "violations", "ok" (true exactly when there are no
violations) and a "summary" whose ending tells a pass from a failure.
Three layouts differ.  run_cactus extends graph.verify_cactus's report,
so its "suite" and "summary" follow "ok", as the golden digests pin.
run_all's "braid-witness" step passes when the braid relations do fail,
so it counts them in "violations_found" instead of listing them; and the
"all" report holds the sub-reports and joins their summaries.
"""

import math
import random
import time

from .core import (
    InvariantError,
    SkewShape,
    StrictPartition,
    Word,
    strict_partitions_inside,
    strict_partitions_of,
)
from .graph import (
    _capped,
    _vertex_cap,
    _Words,
    build_graph,
    lrs_count,
    target_ids,
    verify_cactus,
    vertex_graph,
)
from .jdt import knuth_neighbors, order_dependent, rectify, strip_tableau, yamanouchi
from .operators import classify_string

__all__ = [
    "run_cactus",
    "run_braid",
    "run_knuth",
    "run_symmetry",
    "run_structure",
    "run_all",
    "SUITES",
]


def _report(suite, violations, summary, ok_text, fail_text, **fields) -> dict:
    """The shared report layout; summary ends in ok_text or fail_text."""
    ok = not violations
    return {"suite": suite, **fields, "violations": violations, "ok": ok,
            "summary": summary + (ok_text if ok else fail_text)}


def run_cactus(shape="2,1", n=4, max_vertices=None) -> dict:
    """Cactus group relations, pointwise on one crystal graph."""
    g = build_graph(SkewShape.parse(str(shape)), n, max_vertices)
    report = verify_cactus(g)
    report["suite"] = "cactus"
    status = "no violations" if report["ok"] else f"{len(report['violations'])} violations"
    report["summary"] = (
        f"cactus relations on B({shape},{n}): {len(g.vertices)} vertices, {status}"
    )
    return report


def run_braid(shape="5,3,1", n=3, max_vertices=None) -> dict:
    """Search for braid relation failures sigma_i sigma_j sigma_i != ...

    Each sigma_i is a vertex-id array from graph.target_ids, the pass in
    which build_graph finds the F_i and F'_i edges: the sigma target of each
    vertex's {i, i+1} subword, found among the vertices of
    graph.vertex_graph (which has no edges to build) that agree with it
    outside the letters i and i + 1.  The relation composes arrays, and each
    witness word is rendered once per report (graph._Words).  "checked"
    counts the (vertex, (i, i+1)) pairs examined.
    """
    g = vertex_graph(SkewShape.parse(str(shape)), n, max_vertices)
    s = {i: sigma for i, (sigma,) in target_ids(g, "sigma")}
    violations, words = [], _Words(g)
    for vid in range(len(g.vertices)):
        for i in range(1, n - 1):
            j = i + 1
            a, b = s[i][s[j][s[i][vid]]], s[j][s[i][s[j][vid]]]
            if a != b:
                violations.append({
                    "witness": vid,
                    "witness_word": words[vid],
                    "i": i, "j": j,
                    "sigma_iji": words[a],
                    "sigma_jij": words[b],
                })
    return _report(
        "braid", violations, f"braid relations on B({shape},{n}): ",
        "hold everywhere", f"fail at {len(violations)} vertices",
        graph={"shape": str(shape), "n": n, "vertices": len(g.vertices)},
        checked=len(g.vertices) * max(n - 2, 0),
    )


def _canonical_words(max_len: int, values: int):
    """Every canonical word of at most max_len letters over [values]', by
    length and then by codes.  The first letter of each value is unprimed
    and a later one takes either code, so each word is built once; extending
    the words of one length in order, each by its letters in code order,
    lists the next length in order too."""
    level, words = [()], [Word((), values)]
    for _ in range(max_len):
        longer = []
        for codes in level:
            for v in range(1, values + 1):
                if 2 * v in codes:  # v has appeared, so unprimed first
                    longer.append(codes + (2 * v - 1,))
                longer.append(codes + (2 * v,))
        level = longer
        words.extend(Word(codes, values) for codes in level)
    return words


def _canonical_word_count(length: int, values: int) -> int:
    """The number of canonical words of exactly length letters over
    [values]', in closed form, with no word built.  One on exactly j of the
    values is a surjection of its letters onto j values, C(values, j) j!
    S(length, j) of them, with either code at each of its length - j letters
    after the first of their value; inclusion-exclusion counts the
    surjections."""
    return sum(math.comb(values, j) * 2 ** (length - j)
               * sum((-1) ** i * math.comb(j, i) * (j - i) ** length for i in range(j + 1))
               for j in range(min(length, values) + 1))


def run_knuth(max_len=6, values=3, bound="4,3,2,1", n_max=3, orders=50, seed=0) -> dict:
    """Knuth equivalence vs rectification, and slide-order invariance.

    Part one partitions every canonical word up to max_len over [values]'
    by Knuth moves (union-find over single moves) and checks the classes
    coincide with the fibers of rectification.  Part two rectifies every
    tableau on every skew shape inside the bound with many random corner
    orders and demands a single result (jdt.order_dependent).

    "checked" counts the words, the tableaux, the random orders per tableau
    and the slides run by each part; "seconds" times each part.  A negative
    size is a ValueError, not an empty pass.  Both parts stay under the
    vertex cap (graph._vertex_cap, read from SHIFTED_CRYSTAL_MAX_VERTICES):
    more canonical words than the cap, counted in closed form, is a
    ValueError before any word is built, and each (shape, n) enumerates
    through graph._capped.
    """
    if min(max_len, values, n_max, orders) < 0:
        raise ValueError("run_knuth: max_len, values, n_max and orders must be non-negative, "
                         f"got {max_len}, {values}, {n_max}, {orders}")
    source, cap = _vertex_cap(None)
    count = 0
    for length in range(max_len + 1):  # stops soon: the counts grow geometrically
        count += _canonical_word_count(length, values)
        if count > cap:
            raise ValueError(f"run_knuth: more than {cap} words up to length {max_len}; "
                             f"raise {source} to override")
    t0 = time.perf_counter()
    words = _canonical_words(max_len, values)
    parent = list(range(len(words)))
    index = {w: k for k, w in enumerate(words)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    mismatches = []
    for k, w in enumerate(words):
        for u in knuth_neighbors(w):
            j = index.get(u)
            if j is None:
                mismatches.append({"kind": "escaped", "word": str(w), "to": str(u)})
                continue
            ra, rb = find(k), find(j)
            if ra != rb:
                parent[ra] = rb
    rect_of = []
    word_slides = 0
    for w in words:
        R, record = rectify(strip_tableau(w))
        rect_of.append(R.word_codes)
        word_slides += len(record)
    class_rect = {}
    rect_class = {}
    for k in range(len(words)):
        c, r = find(k), rect_of[k]
        if class_rect.setdefault(c, r) != r:
            mismatches.append({"kind": "class_two_rects", "word": str(words[k])})
        if rect_class.setdefault(r, c) != c:
            mismatches.append({"kind": "rect_two_classes", "word": str(words[k])})
    n_classes = len({find(k) for k in range(len(words))})
    t1 = time.perf_counter()

    rng = random.Random(seed)
    bound_p = StrictPartition.parse(str(bound))
    shapes_checked = 0
    tableaux_checked = 0
    order_slides = 0
    for lam in strict_partitions_inside(bound_p):
        for mu in strict_partitions_inside(lam):
            shape = SkewShape(lam, mu)
            shapes_checked += 1
            for n in range(1, n_max + 1):
                for T in _capped(shape, n):
                    tableaux_checked += 1
                    witness, slides = order_dependent(T, rng, orders)
                    order_slides += slides
                    if witness is not None:
                        mismatches.append({
                            "kind": "order_dependent",
                            "shape": str(shape), "n": n,
                            "tableau": str(T),
                        })
    t2 = time.perf_counter()
    return _report(
        "knuth", mismatches,
        f"knuth vs rectification on {len(words)} words ({n_classes} classes) and "
        f"slide-order invariance on {tableaux_checked} tableaux x {orders} orders: ",
        "coherent", f"{len(mismatches)} mismatches",
        words=len(words), classes=n_classes, shapes=shapes_checked, tableaux=tableaux_checked,
        checked={"words": len(words), "tableaux": tableaux_checked, "orders": orders,
                 "slides": {"words": word_slides, "orders": order_slides}},
        seconds={"words": round(t1 - t0, 3), "orders": round(t2 - t1, 3)},
    )


def run_symmetry(bound="4,3,2,1") -> dict:
    """f^lam_{mu nu} = f^{mu~}_{lam~ nu} with complements in the stair of lam_1.
    "checked" counts ordered pairs, both sides: the default bound's 275 hold
    189 distinct statements, 37 of them a coefficient against itself (mu = lam~).
    Each distinct coefficient, 275 of the 550 asked for there, is counted once."""
    bound_p = StrictPartition.parse(str(bound))
    mismatches = []
    checked = 0
    counts = {}

    def count(*args):
        if args not in counts:
            counts[args] = lrs_count(*args)
        return counts[args]

    for lam in strict_partitions_inside(bound_p):
        m = lam.part(1)
        for mu in strict_partitions_inside(lam):
            lam_c = lam.complement(m)
            mu_c = mu.complement(m)
            for nu in strict_partitions_of(lam.size - mu.size):
                checked += 1
                a = count(lam, mu, nu)
                b = count(mu_c, lam_c, nu)
                if a != b:
                    mismatches.append({
                        "lam": str(lam), "mu": str(mu), "nu": str(nu),
                        "f": a, "f_mirror": b,
                    })
    return _report("symmetry", mismatches,
                   f"LR symmetry on {checked} coefficient pairs inside ({bound}): ",
                   "all equal", f"{len(mismatches)} mismatches", checked=checked)


def _structure_issues(g) -> list:
    """Extremal counts per component, and the arrangement of every string.

    The i-strings are the components of the colour-i edges; each is
    classified once, from its lowest-id vertex, and must have the
    component's members.
    """
    issues = []
    for comp in g.components:
        if len(comp.highest_ids) != 1 or len(comp.lowest_ids) != 1:
            issues.append({
                "kind": "extremal_count",
                "shape": str(g.shape), "n": g.n,
                "highest": len(comp.highest_ids), "lowest": len(comp.lowest_ids),
            })
    for i in range(1, g.n):
        for comp in g.components_in((i,)):
            T = g.vertices[comp.vertex_ids[0]]
            where = {"shape": str(g.shape), "n": g.n, "color": i, "tableau": str(T)}
            try:
                d = classify_string(T, i, g.n)
            except InvariantError as exc:
                issues.append({"kind": "string_arrangement", **where, "error": str(exc)})
                continue
            if d.members != {g.vertices[v] for v in comp.vertex_ids}:
                issues.append({"kind": "string_members", **where,
                               "members": d.size, "component": len(comp)})
    return issues


def run_structure(bound="4,3,2,1", n=3, extra=(("2,1", 4), ("3,1", 3), ("3,2", 3))) -> dict:
    """Unique extremal elements, clean string arrangements, connectivity.

    Covers every skew graph inside the bound at the given alphabet plus the
    listed extra graphs; straight graphs must be connected with Yamanouchi
    highest weight.
    """
    issues = []
    graphs = 0
    bound_p = StrictPartition.parse(str(bound))
    jobs = [(SkewShape(lam, mu), n)
            for lam in strict_partitions_inside(bound_p)
            for mu in strict_partitions_inside(lam)]
    jobs += [(SkewShape.parse(s), k) for s, k in extra]
    for shape, k in jobs:
        g = build_graph(shape, k)
        graphs += 1
        issues.extend(_structure_issues(g))
        if shape.is_straight and g.vertices:
            if len(g.components) != 1:
                issues.append({"kind": "disconnected_straight",
                               "shape": str(shape), "n": k,
                               "components": len(g.components)})
            elif len(g.components[0].highest_ids) == 1:  # else an extremal_count
                high = g.vertices[g.components[0].highest]
                if high != yamanouchi(shape.outer):
                    issues.append({"kind": "highest_not_yamanouchi",
                                   "shape": str(shape), "n": k})
    return _report("structure", issues, f"structure of {graphs} desk graphs: ",
                   "all components have unique extremes and clean strings",
                   f"{len(issues)} issues", graphs=graphs)


def run_all(seed=0) -> dict:
    """The full battery at acceptance scope.

    The braid step passes when the braid relations do fail on B((5,3,1),3)
    with the documented witness, and keeps that search's graph, checked
    count and violations found; everything else passes when clean.
    """
    reports = []
    for shape, n in (("2,1", 4), ("3,1", 3), ("3,2", 3)):
        reports.append(run_cactus(shape, n))
    braid = run_braid("5,3,1", 3)
    braid_expected = {
        "witness_word": "3 2 2 3' 1 1 1 1 3'",
        "sigma_iji": "3 2 3' 3 1 1 1 2 3",
        "sigma_jij": "3 2 3' 3 1 1 1 2' 3'",
    }
    braid_hit = any(braid_expected.items() <= v.items() for v in braid["violations"])
    reports.append({
        "suite": "braid-witness",
        "graph": braid["graph"],
        "checked": braid["checked"],
        "violations_found": len(braid["violations"]),
        "ok": (not braid["ok"]) and braid_hit,
        "summary": "braid failure reproduced with the documented witness"
        if braid_hit else "braid witness NOT reproduced",
    })
    reports.append(run_knuth(seed=seed))
    reports.append(run_symmetry())
    reports.append(run_structure())
    ok = all(r["ok"] for r in reports)
    return {
        "suite": "all",
        "reports": reports,
        "ok": ok,
        "summary": "\n".join(r["summary"] for r in reports),
    }


SUITES = {
    "cactus": run_cactus,
    "braid": run_braid,
    "knuth": run_knuth,
    "symmetry": run_symmetry,
    "structure": run_structure,
    "all": run_all,
}
