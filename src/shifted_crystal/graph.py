"""Crystal graphs: vertices, colored double edges, components, and exports.

A graph is built by enumerating the full vertex set first and then computing
every lowering edge, so connectivity statements stay checkable facts rather
than assumptions.  Vertex ids index the deterministic enumeration order
(lexicographic by reading word), which keeps exports byte-stable.
"""

import functools
import json
import os

from .core import (
    InvariantError,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    enumerate_tableaux,
    shared_shape,
    write_subword,
)
from .involutions import eta_interval
from .jdt import is_lrs, yamanouchi
from .operators import _colour_one
from .operators import unprimed_lower  # noqa: F401 (bound for perfbench/test_harness.py)

__all__ = [
    "CrystalGraph",
    "Component",
    "build_graph",
    "interval_subgraph",
    "lrs_weight_counts",
    "lrs_count",
    "cactus_act",
    "cactus_generators",
    "verify_cactus",
    "component_isomorphic_to_straight",
    "export_dot",
    "export_json",
    "graph_from_json",
]

DEFAULT_VERTEX_CAP = 100000


class Component:
    """A connected component: sorted vertex ids plus extremal candidates."""

    __slots__ = ("vertex_ids", "highest_ids", "lowest_ids")

    def __init__(self, vertex_ids, highest_ids, lowest_ids):
        self.vertex_ids = tuple(vertex_ids)
        self.highest_ids = tuple(highest_ids)
        self.lowest_ids = tuple(lowest_ids)

    @property
    def highest(self) -> int:
        if len(self.highest_ids) != 1:
            raise ValueError(f"component has {len(self.highest_ids)} highest elements")
        return self.highest_ids[0]

    @property
    def lowest(self) -> int:
        if len(self.lowest_ids) != 1:
            raise ValueError(f"component has {len(self.lowest_ids)} lowest elements")
        return self.lowest_ids[0]

    def __len__(self):
        return len(self.vertex_ids)

    def __repr__(self):
        return f"Component({len(self.vertex_ids)} vertices)"


class CrystalGraph:
    """Vertices with i-colored solid (F_i) and dashed (F'_i) edges."""

    def __init__(self, shape: SkewShape, n: int, vertices, edges, colors=None):
        self.shape = shape
        self.n = n
        self.vertices = tuple(vertices)
        self.edges = tuple(sorted(edges))
        self.colors = tuple(colors) if colors is not None else tuple(range(1, n))
        self.index = {T: vid for vid, T in enumerate(self.vertices)}
        self.out = {}
        self.into = {}
        for src, dst, color, primed in self.edges:
            self.out[(src, color, primed)] = dst
            self.into[(dst, color, primed)] = src

    def vertex_id(self, T: ShiftedTableau) -> int:
        if T not in self.index:
            raise ValueError("tableau is not a vertex of this graph")
        return self.index[T]

    def neighbors(self, vid: int, colors=None):
        for color in self.colors if colors is None else colors:
            for primed in (False, True):
                dst = self.out.get((vid, color, primed))
                if dst is not None:
                    yield dst
                src = self.into.get((vid, color, primed))
                if src is not None:
                    yield src

    @functools.cached_property
    def components(self):
        return self.components_in(self.colors)

    def components_in(self, colors):
        """Components of the subgraph that keeps only the edges of these colors."""
        seen = [False] * len(self.vertices)
        comps = []
        for start in range(len(self.vertices)):
            if seen[start]:
                continue
            stack, ids = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                ids.append(v)
                for u in self.neighbors(v, colors):
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            ids.sort()
            highest = [v for v in ids if not any(
                (v, c, p) in self.into for c in colors for p in (False, True))]
            lowest = [v for v in ids if not any(
                (v, c, p) in self.out for c in colors for p in (False, True))]
            comps.append(Component(ids, highest, lowest))
        return tuple(comps)

    def __repr__(self):
        return (f"CrystalGraph(shape={self.shape}, n={self.n}, "
                f"|V|={len(self.vertices)}, |E|={len(self.edges)})")


def build_graph(shape: SkewShape, n: int, max_vertices: int = None) -> CrystalGraph:
    """The full crystal on a shape: all vertices, all lowering edges.

    An edge's target is the source's reading word with its {i, i+1}
    subword replaced by the F_i or F'_i target of that subword, found in
    the vertices by its word.  The vertices are exactly the valid
    tableaux, so a target that is not one of them is an InvariantError.
    """
    if max_vertices is None:
        max_vertices = int(os.environ.get("SHIFTED_CRYSTAL_MAX_VERTICES",
                                          DEFAULT_VERTEX_CAP))
    vertices = enumerate_tableaux(shape, n)
    if len(vertices) > max_vertices:
        raise ValueError(
            f"{len(vertices)} vertices exceed the cap {max_vertices}; "
            "raise SHIFTED_CRYSTAL_MAX_VERTICES to override"
        )
    vid_of = {T.word_codes: vid for vid, T in enumerate(vertices)}
    edges = []
    for vid, T in enumerate(vertices):
        word = T.word_codes
        for i in range(1, n):
            record = _colour_one(T.interval_subword(i, i + 1, n))
            for target, primed in ((record.f, False), (record.f_prime, True)):
                if target is None:
                    continue
                dst = vid_of.get(write_subword(word, i, i + 1, target))
                if dst is None:
                    op = "F'" if primed else "F"
                    raise InvariantError(f"{op}_{i} of {T} is not a vertex of B({shape},{n})")
                edges.append((vid, dst, i, primed))
    return CrystalGraph(shape, n, vertices, edges)


def interval_subgraph(g: CrystalGraph, p: int, q: int) -> CrystalGraph:
    """Same vertices, only the edges colored in [p, q-1]."""
    if not 1 <= p < q <= g.n:
        raise ValueError(f"need 1 <= p < q <= n, got ({p}, {q})")
    keep = set(range(p, q))
    edges = [e for e in g.edges if e[2] in keep]
    return CrystalGraph(g.shape, g.n, g.vertices, edges, colors=sorted(keep))


# ---------------------------------------------------------------------------
# Littlewood-Richardson counting

@functools.lru_cache(maxsize=1024)
def _lrs_weight_counts(outer_parts, inner_parts, n):
    counts = {}
    shape = shared_shape(outer_parts, inner_parts)
    for T in enumerate_tableaux(shape, n):
        if is_lrs(T):
            wt = T.weight(n)
            counts[wt] = counts.get(wt, 0) + 1
    return counts


def lrs_weight_counts(shape: SkewShape, n: int) -> dict:
    """Weight -> number of LRS tableaux of that weight on the shape."""
    return dict(_lrs_weight_counts(shape.outer.parts, shape.inner.parts, n))


def lrs_count(lam, mu, nu) -> int:
    """Number of LRS tableaux of shape lam/mu and weight nu.

    Zero whenever the sizes mismatch, mu is not contained in lam, or nu is
    not strictly decreasing (no Yamanouchi tableau to rectify to).
    """
    lam = StrictPartition(lam)
    mu = StrictPartition(mu)
    nu_t = tuple(nu.parts) if isinstance(nu, StrictPartition) else tuple(nu)
    if any(a <= b for a, b in zip(nu_t, nu_t[1:])) or any(p <= 0 for p in nu_t):
        return 0
    nu = StrictPartition(nu_t)
    if not lam.contains(mu) or lam.size != mu.size + nu.size:
        return 0
    if not nu:
        return 1 if lam == mu else 0
    counts = _lrs_weight_counts(lam.parts, mu.parts, len(nu))
    return counts.get(tuple(nu.parts), 0)


# ---------------------------------------------------------------------------
# Cactus action

def cactus_generators(n: int):
    return [(p, q) for p in range(1, n) for q in range(p + 1, n + 1)]


def cactus_act(g: CrystalGraph, gen, T):
    """s_{p,q} . T = eta_{p,q}(T); accepts a vertex id or tableau."""
    p, q = gen
    vid = T if isinstance(T, int) else g.vertex_id(T)
    out = eta_interval(g.vertices[vid], p, q, g.n)
    return g.vertex_id(out)


def _word_of(g: CrystalGraph, vid: int) -> str:
    return str(g.vertices[vid].reading_word(g.n))


def _walk_tables(g: CrystalGraph):
    """Each generator as a vertex-id array, carried along the graph's edges.

    On every [p,q]-interval component eta_{p,q} sends the highest element
    to the lowest one, which is checked against jeu de taquin (one
    eta_interval call per component), and eta(F_i x) = E_{p+q-1-i} eta(x)
    carries it along solid and dashed edges alike.  Returns (tables,
    anchors, violations); an entry the walk could not fix stays None.
    """
    tables, anchors, violations = {}, 0, []

    def fail(kind, p, q, vid, **details):
        violations.append({"kind": kind, "params": {"p": p, "q": q}, **details,
                           "witness": vid, "witness_word": _word_of(g, vid)})

    for p, q in cactus_generators(g.n):
        # the [p,q]-interval subgraph read from g's own edge maps;
        # interval_subgraph would copy them once per generator
        colors = range(p, q)
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
                for color in colors:
                    for primed in (False, True):
                        u = g.out.get((v, color, primed))
                        if u is None:
                            continue
                        w = g.into.get((t[v], p + q - 1 - color, primed))
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


def verify_cactus(g: CrystalGraph) -> dict:
    """Pointwise check of the three cactus relations on a crystal graph.

    The generator tables come from a graph walk: on each interval component
    eta_{p,q} maps the highest element to the lowest, anchored there on the
    jeu de taquin eta_interval, and is carried along the edges from it.  A
    failure of the walk is a violation with a "kind"; relations are checked
    on the generators whose tables the walk completed.

    Returns a machine-readable report: every violation carries the relation
    number (or walk kind), its parameters, and a witness vertex id;
    "anchors" counts the jeu de taquin anchor checks.
    """
    tables, anchors, violations = _walk_tables(g)
    gens = [gen for gen in cactus_generators(g.n) if None not in tables[gen]]
    checked = {"involution": 0, "disjoint": 0, "nested": 0}

    for gen in gens:
        t = tables[gen]
        checked["involution"] += len(t)
        for vid in range(len(t)):
            if t[t[vid]] != vid:
                violations.append({
                    "relation": 1, "params": {"p": gen[0], "q": gen[1]},
                    "witness": vid, "witness_word": _word_of(g, vid),
                })
    for a in gens:
        for b in gens:
            if a >= b:
                continue
            if set(range(a[0], a[1] + 1)) & set(range(b[0], b[1] + 1)):
                continue
            ta, tb = tables[a], tables[b]
            checked["disjoint"] += len(ta)
            for vid in range(len(ta)):
                if ta[tb[vid]] != tb[ta[vid]]:
                    violations.append({
                        "relation": 2,
                        "params": {"p": a[0], "q": a[1], "k": b[0], "l": b[1]},
                        "witness": vid, "witness_word": _word_of(g, vid),
                    })
    for p, q in gens:
        for k, l in gens:
            if (k, l) == (p, q):
                continue
            if not (p <= k and l <= q) or (p + q - l, p + q - k) not in gens:
                continue
            inner = tables[(k, l)]
            outer = tables[(p, q)]
            mirrored = tables[(p + q - l, p + q - k)]
            checked["nested"] += len(outer)
            for vid in range(len(outer)):
                if outer[inner[vid]] != mirrored[outer[vid]]:
                    violations.append({
                        "relation": 3,
                        "params": {"p": p, "q": q, "k": k, "l": l},
                        "witness": vid, "witness_word": _word_of(g, vid),
                    })
    return {
        "graph": {"shape": str(g.shape), "n": g.n,
                  "vertices": len(g.vertices), "edges": len(g.edges)},
        "checked": checked,
        "anchors": anchors,
        "violations": violations,
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# Rooted isomorphism with the straight crystal (highest weight route)

def component_isomorphic_to_straight(g: CrystalGraph, comp: Component) -> bool:
    """Match a component against the straight crystal of its highest weight.

    The unique highest weight vertex is mapped to the Yamanouchi tableau and
    the map is propagated along equal colored edges; any mismatch in edges,
    weights, or bijectivity raises ValueError.
    """
    high = comp.highest
    wt = g.vertices[high].weight(g.n)
    nu = StrictPartition(tuple(p for p in wt if p))
    if tuple(nu.parts) != tuple(p for p in wt if p) or len(nu) != sum(1 for p in wt if p):
        raise ValueError(f"highest weight {wt} is not a strict partition")
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
                u = g.out.get((v, color, primed))
                if u is None:
                    if (mapping[v], color, primed) in model.out:
                        raise ValueError("model has an edge the component lacks")
                    continue
                comp_edges += 1
                mu_ = model.out.get((mapping[v], color, primed))
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
    if comp_edges != len(model.edges):
        raise ValueError("edge counts disagree")
    return True


# ---------------------------------------------------------------------------
# Exports

def export_dot(g: CrystalGraph) -> str:
    """Graphviz source: vertices labeled word\\nweight, dashed primed edges."""
    lines = ["digraph crystal {"]
    for vid, T in enumerate(g.vertices):
        word = str(T.reading_word(g.n))
        wt = ",".join(str(x) for x in T.weight(g.n))
        lines.append(f'  v{vid} [label="{word}\\n({wt})"];')
    for src, dst, color, primed in g.edges:
        if primed:
            lines.append(f'  v{src} -> v{dst} [style=dashed, label="{color}\'"];')
        else:
            lines.append(f'  v{src} -> v{dst} [label="{color}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: CrystalGraph) -> str:
    obj = {
        "shape": str(g.shape),
        "n": g.n,
        "vertices": [
            {"id": vid, "word": str(T.reading_word(g.n)),
             "weight": list(T.weight(g.n))}
            for vid, T in enumerate(g.vertices)
        ],
        "edges": [
            {"src": src, "dst": dst, "color": color, "primed": primed}
            for src, dst, color, primed in g.edges
        ],
    }
    return json.dumps(obj, indent=1) + "\n"


def graph_from_json(text: str) -> CrystalGraph:
    obj = json.loads(text)
    shape = SkewShape.parse(obj["shape"])
    n = obj["n"]
    vertices = []
    for rec in sorted(obj["vertices"], key=lambda r: r["id"]):
        word = Word.parse(rec["word"], n)
        vertices.append(ShiftedTableau(shape, word.codes))
    edges = [(e["src"], e["dst"], e["color"], e["primed"]) for e in obj["edges"]]
    return CrystalGraph(shape, n, vertices, edges)
