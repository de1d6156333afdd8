"""Crystal graphs: vertices, colored double edges, components, and exports.

A graph is built by enumerating the full vertex set first and then computing
every lowering edge, so connectivity statements stay checkable facts rather
than assumptions.  Vertex ids index the deterministic enumeration order
(lexicographic by reading word), which keeps exports byte-stable.  A graph
stores its edges only in id lists, once per direction, and indexes its
vertices by reading word; the sorted edge tuple the exports read is derived
from the lists on first read.  One pass per graph, target_ids, finds each
colour's F, F' and sigma targets: build_graph takes the F and F' lists,
the braid suite, on the edgeless vertex_graph, the sigma lists.  A colour-i
operator changes only the letters of value i and i + 1, so the pass groups
the vertices by the rest of their words and finds each target by its
{i, i+1} subword within its source's group; no word is written back.
"""

import functools
import itertools
import json
import os

from .core import (
    InvariantError,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    _enumerate,
    shared_shape,
    strict_partitions_of,
    word_str,
    write_subword,
)
from .involutions import _reversed_subword, eta_interval
from .jdt import is_lrs
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
    """Vertices with i-colored solid (F_i) and dashed (F'_i) edges.

    down[i, primed][v] is the F_i (F'_i if primed) target of vertex v and
    up[i, primed][v] its source, None where there is no edge; these lists
    are the only stored form of the edges.  word_index maps reading words
    to ids.  The constructor takes the edges as (src, dst, colour, primed)
    tuples; two vertices with one word, an edge outside the graph, or a
    second edge of one colour and kind out of or into a vertex, is a
    ValueError.
    """

    def __init__(self, shape: SkewShape, n: int, vertices, edges):
        self.shape = shape
        self.n = n
        self.vertices = tuple(vertices)
        self.colors = tuple(range(1, n))
        self.word_index = {T.word_codes: vid for vid, T in enumerate(self.vertices)}
        size = len(self.vertices)
        if len(self.word_index) != size:
            raise ValueError("two vertices of the graph have one reading word")
        self.down = {(i, primed): [None] * size
                     for i in range(1, n) for primed in (False, True)}
        for edge in edges:
            src, dst, color, primed = edge
            if not (0 <= src < size and 0 <= dst < size) or (color, primed) not in self.down:
                raise ValueError(f"edge {edge} lies outside the {size} vertices "
                                 f"and colours 1..{n - 1} of the graph")
            down = self.down[color, primed]
            if down[src] is not None:
                raise ValueError(_repeats(edge))
            down[src] = dst
        self._link()

    def _link(self):
        """up from down; a second edge of one colour and kind into a vertex
        is a ValueError."""
        self.up = {}
        for (color, primed), down in self.down.items():
            up = self.up[color, primed] = [None] * len(down)
            for src, dst in enumerate(down):
                if dst is not None:
                    if up[dst] is not None:
                        raise ValueError(_repeats((src, dst, color, primed)))
                    up[dst] = src

    @functools.cached_property
    def edges(self):
        """Every edge as (src, dst, colour, primed), sorted; derived from
        the id lists on first read."""
        return tuple(sorted((src, dst, color, primed)
                            for (color, primed), down in self.down.items()
                            for src, dst in enumerate(down) if dst is not None))

    def vertex_id(self, T: ShiftedTableau) -> int:
        vid = self.word_index.get(T.word_codes) if T.shape == self.shape else None
        if vid is None:
            raise ValueError("tableau is not a vertex of this graph")
        return vid

    @functools.cached_property
    def components(self):
        return self.components_in(self.colors)

    def components_in(self, colors):
        """Components of the subgraph that keeps only the edges of these colors."""
        keys = [(color, primed) for color in colors for primed in (False, True)]
        downs, ups = [self.down[key] for key in keys], [self.up[key] for key in keys]
        links = downs + ups
        highest, lowest = _unlinked(ups, len(self.vertices)), _unlinked(downs, len(self.vertices))
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
                for targets in links:
                    u = targets[v]
                    if u is not None and not seen[u]:
                        seen[u] = True
                        stack.append(u)
            ids.sort()
            comps.append(Component(ids, [v for v in ids if highest[v]],
                                   [v for v in ids if lowest[v]]))
        return tuple(comps)

    def __repr__(self):
        return (f"CrystalGraph(shape={self.shape}, n={self.n}, "
                f"|V|={len(self.vertices)}, |E|={_edge_count(self)})")


def _repeats(edge) -> str:
    src, dst, color, primed = edge
    kind = "dashed" if primed else "solid"
    return f"edge {edge} repeats a vertex's {kind} colour-{color} edge"


def _unlinked(lists, size: int) -> list:
    """Per vertex id, True where every one of these id lists holds None: with
    the up lists of a set of colours, the highest elements of its
    subgraph; with the down lists, the lowest."""
    if not lists:
        return [True] * size
    empty = (None,) * len(lists)
    return list(map(empty.__eq__, zip(*lists)))


def _edge_count(g: CrystalGraph) -> int:
    """The number of edges, counted on the id lists."""
    return sum(len(down) - down.count(None) for down in g.down.values())


def _vertex_cap(max_vertices):
    """(source, cap): max_vertices, else SHIFTED_CRYSTAL_MAX_VERTICES, else
    the default, which that variable raises."""
    source, cap = "max_vertices", max_vertices
    if cap is None:
        source = "SHIFTED_CRYSTAL_MAX_VERTICES"
        cap = os.environ.get(source, str(DEFAULT_VERTEX_CAP))
        cap = int(cap) if cap.strip().isdecimal() else cap
    if type(cap) is not int or cap < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {cap!r}")
    return source, cap


def _capped(shape: SkewShape, n: int, max_vertices: int = None, content=None) -> tuple:
    """_enumerate(shape, n, content=content), refused past the vertex cap:
    the enumeration stops at cap + 1 tableaux, so a refusal costs little."""
    source, cap = _vertex_cap(max_vertices)
    tableaux = _enumerate(shape, n, cap + 1, content)
    if len(tableaux) > cap:
        raise ValueError(f"more than {cap} vertices; raise {source} to override")
    return tableaux


def vertex_graph(shape: SkewShape, n: int, max_vertices: int = None) -> CrystalGraph:
    """The crystal's vertices on a shape (_capped), with no edges."""
    return CrystalGraph(shape, n, _capped(shape, n, max_vertices), ())


def build_graph(shape: SkewShape, n: int, max_vertices: int = None) -> CrystalGraph:
    """The full crystal on a shape: all vertices, all lowering edges.

    The vertices are vertex_graph's; the edges of colour i are the F_i and
    F'_i lists of target_ids.
    """
    g = vertex_graph(shape, n, max_vertices)
    for i, (f, f_prime) in target_ids(g, "f", "f_prime"):
        g.down[i, False], g.down[i, True] = f, f_prime
    g._link()
    return g


def target_ids(g: CrystalGraph, *fields):
    """Yield (i, lists) for each colour i in 1..n-1: one target id list per
    named _colour_one field ("f", "f_prime", "sigma"), None where undefined.

    A colour-i operator changes only the letters of value i and i + 1, so a
    target agrees with its source everywhere else.  The vertices are grouped
    by that rest, their mask (the word with those letters zeroed), into
    {subword: id}, and a target is its subword's entry in its source's
    group.  Subwords are shifted down to [1, 2]', so one table serves every
    colour, an entry filled when a group first meets its subword.  The
    vertices are exactly the valid tableaux, so a target that is not one of
    them is an InvariantError, and so is an undefined sigma, which is total."""
    records = {}
    for i in range(1, g.n):
        key, convert = _colour_keys(i, g.n)
        groups = {}
        # the ids come from the word index, so the lists share its int
        # objects rather than holding a fresh set per pass
        for codes, vid in g.word_index.items():
            mask, sub = key(codes)
            group = groups.get(mask)
            if group is None:
                groups[mask] = group = {}
            group[sub] = vid
        lists = tuple([None] * len(g.vertices) for _ in fields)
        for group in groups.values():
            for sub, vid in group.items():
                targets = records.get(sub)
                if targets is None:
                    record = _colour_one(tuple(sub))
                    targets = records[sub] = [None if t is None else convert(t) for t in
                                              (getattr(record, field) for field in fields)]
                for field, out, target in zip(fields, lists, targets):
                    if target is None:
                        if field == "sigma":
                            raise InvariantError(
                                f"sigma_{i} fell off the crystal at {g.vertices[vid]}")
                        continue
                    dst = group.get(target)
                    if dst is None:
                        op = {"f": "F", "f_prime": "F'"}.get(field, field)
                        raise InvariantError(f"{op}_{i} of {g.vertices[vid]} is not a vertex "
                                             f"of B({g.shape},{g.n})")
                    out[vid] = dst
        yield i, lists


def _colour_keys(i: int, n: int):
    """(key, convert) for colour i's pass.  key(codes) is a word's (mask,
    subword): the word with its letters of value i and i + 1 zeroed, and
    those letters in reading order shifted down to [1, 2]'.  convert turns
    a _colour_one target into a subword key.  While the codes, at most 2n,
    fit in a byte, words are keyed as bytes, cut by two translate calls;
    larger alphabets are keyed as tuples (_tuple_key)."""
    lo, hi, shift = 2 * i - 1, 2 * i + 2, 2 * (i - 1)
    if 2 * n > 255:
        return functools.partial(_tuple_key, lo, hi, shift), tuple
    same = bytes(range(256))
    mask_table = same[:lo] + bytes(4) + same[hi + 1:]
    sub_table = same[:lo] + bytes(range(1, 5)) + same[hi + 1:]
    outside = same[:lo] + same[hi + 1:]

    def key(codes):
        word = bytes(codes)
        return word.translate(mask_table), word.translate(sub_table, outside)

    return key, bytes


def _tuple_key(lo: int, hi: int, shift: int, codes) -> tuple:
    """(mask, subword) of a word as tuples: the word with its codes in
    [lo, hi] zeroed, and those codes in reading order, less shift."""
    return (tuple(0 if lo <= x <= hi else x for x in codes),
            tuple(x - shift for x in codes if lo <= x <= hi))


def interval_subgraph(g: CrystalGraph, p: int, q: int) -> CrystalGraph:
    """Same vertices, only the edges colored in [p, q-1]."""
    if not 1 <= p < q <= g.n:
        raise ValueError(f"need 1 <= p < q <= n, got ({p}, {q})")
    return CrystalGraph(g.shape, g.n, g.vertices, (e for e in g.edges if p <= e[2] < q))


# ---------------------------------------------------------------------------
# Littlewood-Richardson counting

def lrs_weight_counts(shape: SkewShape, n: int) -> dict:
    """Weight -> number of LRS tableaux of that weight on the shape over [n]' (lrs_count)."""
    if n < 0:
        raise ValueError("alphabet bound must be non-negative")
    counts = {nu.parts + (0,) * (n - len(nu)): lrs_count(shape.outer, shape.inner, nu)
              for nu in strict_partitions_of(shape.size) if len(nu) <= n}
    return {wt: count for wt, count in counts.items() if count}


def lrs_count(lam, mu, nu) -> int:
    """Number of LRS tableaux (is_lrs) of shape lam/mu and weight nu.

    Zero whenever the sizes mismatch, mu is not contained in lam, or nu, less
    trailing zeros, is not strict (no Yamanouchi tableau to rectify to).
    Otherwise only the tableaux of content nu are enumerated, under the
    vertex cap (_capped), which every call reads and enforces.
    """
    lam = StrictPartition(lam)
    mu = StrictPartition(mu)
    try:
        nu = StrictPartition(nu)
    except ValueError:
        return 0
    if not lam.contains(mu) or lam.size != mu.size + nu.size:
        return 0
    return sum(map(is_lrs, _capped(shared_shape(lam.parts, mu.parts), len(nu), content=nu.parts)))


# ---------------------------------------------------------------------------
# Cactus action

def cactus_generators(n: int):
    return [(p, q) for p in range(1, n) for q in range(p + 1, n + 1)]


def cactus_act(g: CrystalGraph, gen, T):
    """s_{p,q} . T = eta_{p,q}(T); accepts a vertex id (an int in [0, |V|)) or tableau."""
    p, q = gen
    vid = g.vertex_id(T) if isinstance(T, ShiftedTableau) else T
    if type(vid) is not int or not 0 <= vid < len(g.vertices):
        raise ValueError(f"vertex id {vid!r} is not one of the graph's {len(g.vertices)} ids")
    return g.vertex_id(eta_interval(g.vertices[vid], p, q, g.n))


class _Words(dict):
    """Vertex id -> the vertex's reading word as printed (word_str), each
    rendered once, on first use; one per report."""

    def __init__(self, g: CrystalGraph):
        super().__init__()
        self.vertices = g.vertices

    def __missing__(self, vid):
        word = self[vid] = word_str(self.vertices[vid].word_codes)
        return word


def _eta_word(T: ShiftedTableau, p: int, q: int, n: int) -> tuple:
    """eta_interval(T, p, q, n)'s reading word, with no tableau built or checked."""
    return write_subword(T.word_codes, p, q,
                         _reversed_subword(q - p + 1, T.interval_subword(p, q, n)))


def _walk_tables(g: CrystalGraph):
    """Each generator as a vertex-id array, carried along the graph's edges.

    On every [p,q]-interval component eta_{p,q} sends the highest element
    to the lowest one, and eta(F_i x) = E_{p+q-1-i} eta(x) carries it along
    solid and dashed edges alike.  Each generator is first walked down from
    its highest elements, each anchored on its eta word's id (_walk_down);
    where that walk gives up, the generator is walked again component by
    component (_walk_components), which records the violations.  Returns
    (tables, anchors, violations); an entry the walk could not fix stays
    None.
    """
    tables, anchors, violations = {}, 0, []
    for p, q in cactus_generators(g.n):
        # the [p,q]-interval subgraph read from g's own id lists;
        # interval_subgraph would copy them once per generator
        moves = [(color, primed, g.down[color, primed], g.up[p + q - 1 - color, primed])
                 for color in range(p, q) for primed in (False, True)]
        walked = _walk_down(g, p, q, moves)
        if walked is None:
            walked = _walk_components(g, p, q, moves, violations)
        tables[(p, q)], count = walked
        anchors += count
    return tables, anchors, violations


def _walk_down(g: CrystalGraph, p: int, q: int, moves):
    """(table, anchors) of eta_{p,q}, walked down from each highest element
    h of the [p,q]-interval subgraph with h's entry the id of its eta word
    (_eta_word); no tableau is built or checked, since the word index holds
    only vertices.  None, to give up, where the highest and lowest elements
    differ in number, an eta word is not the id of a lowest element that
    h's own walk reaches, a mirrored edge is missing, an entry conflicts,
    two walks meet, or a vertex stays unreached.  Otherwise each walk covers
    one component, with one highest and one lowest element, and the table
    is the one _walk_components would give without a violation."""
    size = len(g.vertices)
    highest = _unlinked([g.up[color, primed] for color, primed, _, _ in moves], size)
    lowest = _unlinked([down for _, _, down, _ in moves], size)
    highs = list(itertools.compress(range(size), highest))
    if len(highs) != lowest.count(True):
        return None
    steps = [(down, mirrored_up) for _, _, down, mirrored_up in moves]
    # walk[v] numbers the walk that reached v
    t, walk = [None] * size, [0] * size
    for mark, high in enumerate(highs, 1):
        anchor = g.word_index.get(_eta_word(g.vertices[high], p, q, g.n))
        if anchor is None or not lowest[anchor]:
            return None
        t[high], walk[high] = anchor, mark
        stack = [high]
        while stack:
            v = stack.pop()
            image = t[v]
            for down, mirrored_up in steps:
                u = down[v]
                if u is None:
                    continue
                w = mirrored_up[image]
                if w is None:
                    return None
                if t[u] is None:
                    t[u], walk[u] = w, mark
                    stack.append(u)
                elif t[u] != w or walk[u] != mark:
                    return None
        if walk[anchor] != mark:
            return None
    if None in t:
        return None
    return t, len(highs)


def _walk_components(g: CrystalGraph, p: int, q: int, moves, violations):
    """(table, anchors) of eta_{p,q}, walked component by component over
    the [p,q]-interval subgraph (components_in).  A component with one
    highest and one lowest element is anchored there, the anchor checked
    against jeu de taquin (one eta_interval call), and walked down from
    its highest element.  Each failure is appended to violations with its
    kind."""

    def fail(kind, vid, **details):
        violations.append({"kind": kind, "params": {"p": p, "q": q}, **details,
                           "witness": vid})

    t, anchors = [None] * len(g.vertices), 0
    for comp in g.components_in(range(p, q)):
        if len(comp.highest_ids) != 1 or len(comp.lowest_ids) != 1:
            fail("extremal_count", comp.vertex_ids[0],
                 highest=len(comp.highest_ids), lowest=len(comp.lowest_ids))
            continue
        high, low = comp.highest, comp.lowest
        anchors += 1
        if eta_interval(g.vertices[high], p, q, g.n) != g.vertices[low]:
            fail("anchor", high)
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
                    fail("missing_edge", v, color=color, primed=primed)
                elif t[u] is None:
                    t[u] = w
                    stack.append(u)
                elif t[u] != w:
                    fail("conflict", u)
        for vid in comp.vertex_ids:
            if t[vid] is None:
                fail("unreached", vid)
    return t, anchors


def _compose(outer, inner) -> list:
    """outer after inner, as an id list."""
    return list(map(outer.__getitem__, inner))


def verify_cactus(g: CrystalGraph) -> dict:
    """Pointwise check of the three cactus relations on a crystal graph.

    The generator tables come from a graph walk (_walk_tables): on each
    interval component eta_{p,q} maps the highest element to the lowest,
    the id of the highest element's eta word, and is carried along the
    edges from it.  Where that walk gives up on a generator, the generator
    is walked component by component, each anchor checked against the jeu
    de taquin eta_interval, and a failure of that walk is a violation with
    a "kind".  Relations are checked on the generators whose tables the
    walk completed: each as one comparison of two composed tables, with
    witnesses sought only where they differ.

    Returns a machine-readable report: every violation carries the relation
    number (or walk kind), its parameters, and a witness vertex id with
    its word, each word rendered once per report (_Words); "anchors" counts
    the anchored interval components.
    """
    tables, anchors, violations = _walk_tables(g)
    gens = [gen for gen in cactus_generators(g.n) if None not in tables[gen]]
    checked = {"involution": 0, "disjoint": 0, "nested": 0}

    def relation(number, key, params, lhs, rhs):
        # the two composed tables must agree at every vertex
        checked[key] += len(lhs)
        if lhs != rhs:
            violations.extend({"relation": number, "params": params,
                               "witness": vid}
                              for vid, (x, y) in enumerate(zip(lhs, rhs)) if x != y)

    for p, q in gens:
        t = tables[(p, q)]
        relation(1, "involution", {"p": p, "q": q}, _compose(t, t), list(range(len(t))))
    for (p, q), (k, l) in itertools.combinations(gens, 2):
        if q < k:  # disjoint intervals; gens is sorted, so p <= k
            ta, tb = tables[(p, q)], tables[(k, l)]
            relation(2, "disjoint", {"p": p, "q": q, "k": k, "l": l},
                     _compose(ta, tb), _compose(tb, ta))
    for (p, q), (k, l) in itertools.product(gens, gens):
        mirror = (p + q - l, p + q - k)
        if (k, l) != (p, q) and p <= k and l <= q and mirror in gens:
            inner, outer, mirrored = tables[(k, l)], tables[(p, q)], tables[mirror]
            relation(3, "nested", {"p": p, "q": q, "k": k, "l": l},
                     _compose(outer, inner), _compose(mirrored, outer))
    words = _Words(g)
    for violation in violations:
        violation["witness_word"] = words[violation["witness"]]
    return {
        "graph": {"shape": str(g.shape), "n": g.n,
                  "vertices": len(g.vertices), "edges": _edge_count(g)},
        "checked": checked,
        "anchors": anchors,
        "violations": violations,
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# Exports

def export_dot(g: CrystalGraph) -> str:
    """Graphviz source: vertices labeled word\\nweight, dashed primed edges."""
    lines = ["digraph crystal {"]
    for vid, T in enumerate(g.vertices):
        word = word_str(T.word_codes)
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
    """The graph in json.dumps(obj, indent=1)'s layout, written line by line (faster)."""
    vertices = [f'  {{\n   "id": {vid},\n   "word": {json.dumps(word_str(T.word_codes))},\n'
                f'   "weight": {_json_list([f"    {x}" for x in T.weight(g.n)], 3)}\n  }}'
                for vid, T in enumerate(g.vertices)]
    edges = [f'  {{\n   "src": {src},\n   "dst": {dst},\n   "color": {color},\n'
             f'   "primed": {"true" if primed else "false"}\n  }}'
             for src, dst, color, primed in g.edges]
    return (f'{{\n "shape": {json.dumps(str(g.shape))},\n "n": {g.n},\n'
            f' "vertices": {_json_list(vertices, 1)},\n "edges": {_json_list(edges, 1)}\n}}\n')


def _json_list(items, depth):
    """Laid-out items as a JSON list in indent=1 layout, its key at depth."""
    return "[\n" + ",\n".join(items) + "\n" + " " * depth + "]" if items else "[]"


def _field(rec, key, where, kind=None):
    """rec[key], which must be there and, when kind is given, of exactly
    that type (so a bool is not an int); otherwise a ValueError naming it."""
    if type(rec) is not dict or key not in rec:
        raise ValueError(f"{where} has no {key!r} field")
    value = rec[key]
    if kind is not None and type(value) is not kind:
        raise ValueError(f"{where}: {key} must be of type {kind.__name__}, got {value!r}")
    return value


def graph_from_json(text: str) -> CrystalGraph:
    """The graph of an export_json text.  A missing field, or one of the
    wrong type, is a ValueError, and so is each of: an n below 0, a vertex
    whose id is not its position, whose word another vertex has or whose
    weight is not its word's weight over [n]', and an edge without integer
    ids and colour and a boolean primed."""
    obj = json.loads(text)
    shape = SkewShape.parse(_field(obj, "shape", "the graph", str))
    n = _field(obj, "n", "the graph", int)
    if n < 0:
        raise ValueError(f"the graph: n must be at least 0, got {n}")
    vertices, words = [], set()
    for vid, rec in enumerate(_field(obj, "vertices", "the graph", list)):
        where = f"vertex {vid}"
        if _field(rec, "id", where, int) != vid:
            raise ValueError(f"vertex id {rec['id']!r} at position {vid}; "
                             "ids must count up from 0 in order")
        codes = Word.parse(_field(rec, "word", where, str), n).codes
        if codes in words:
            raise ValueError(f"vertex {vid} repeats the word {rec['word']!r}")
        words.add(codes)
        T = ShiftedTableau(shape, codes)
        weight = _field(rec, "weight", where, list)
        if any(type(x) is not int for x in weight) or tuple(weight) != T.weight(n):
            raise ValueError(f"vertex {vid}: weight {weight!r} is not the weight "
                             f"{list(T.weight(n))} of its word {rec['word']!r}")
        vertices.append(T)
    edges = []
    for e in _field(obj, "edges", "the graph", list):
        edge = tuple(_field(e, key, "an edge") for key in ("src", "dst", "color", "primed"))
        if any(type(x) is not int for x in edge[:3]) or type(edge[3]) is not bool:
            raise ValueError(f"edge {edge} needs integer src, dst and color "
                             "and a boolean primed")
        edges.append(edge)
    return CrystalGraph(shape, n, vertices, edges)
