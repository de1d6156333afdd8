"""Per-layer tracing from outside the package.

Spans wrap the public functions of each layer module (the names in its
`__all__`) and `ShiftedTableau.restrict`.  Modules bind names at import, so
each wrapper replaces the original under every name, in every module of the
package, that refers to it: `graph.unprimed_lower`, `operators.rectify` and
`involutions.rectify` are each patched.  A span's self time is its duration
minus the time of the spans it encloses.  Spans are aggregated per function
as they close (calls, total, self), which keeps memory flat over the ~10^5
rectify calls of one verify battery.

Letter-level helpers and the jdt corner finders run millions of times per
run; they carry no span, so their time counts in the self time of the
calling span.  Tableau and shape construction get plain counters.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
import time

LAYERS = ("core", "jdt", "operators", "involutions", "graph", "verify")

# Public names called more than ~10^5 times per run: no span of their own.
HOT = frozenset({
    "letter", "letter_value", "is_primed", "letter_str", "parse_letter",
    "canonicalize", "canonicalize_codes", "standardize_codes", "prime_split",
    "inner_corners", "addable_cells",
})


def load_package(name="shifted_crystal"):
    """Import the package and every submodule; returns (package, modules)."""
    package = importlib.import_module(name)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{name}.{info.name}")
    modules = [m for key, m in sorted(sys.modules.items())
               if key == name or key.startswith(name + ".")]
    return package, modules


def cache_census(modules) -> dict:
    """`cache_info()` of every module-level lru_cache, keyed module.function.

    Found by scanning module globals, so a cache added, removed or resized
    later shows up here without a change to the benchmark.
    """
    census = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, obj in sorted(vars(module).items()):
            info = getattr(obj, "cache_info", None)
            if callable(info) and getattr(obj, "__module__", None) == module.__name__:
                ci = info()
                census[f"{short}.{name.lstrip('_')}"] = {
                    "hits": ci.hits, "misses": ci.misses,
                    "size": ci.currsize, "maxsize": ci.maxsize,
                }
    return census


class Tracer:
    """Install with `with Tracer(modules) as tracer:`; read `tracer.stats`."""

    def __init__(self, modules):
        self.modules = modules
        self.stats = {}     # "layer.function" -> [calls, total_s, self_s]
        self.counts = {"shapes_built": 0, "tableaux_built": 0, "slides": 0,
                       "enumerated": 0, "edges": 0, "lowering_attempts": 0,
                       "cactus_checked": 0, "unprimed_defined": 0,
                       "primed_defined": 0}
        self._stack = []
        self._undo = []
        self._hooks = {
            "jdt.rectify": self._count_slides,
            "jdt.replay": self._count_slides,
            "core.enumerate_tableaux": self._count_enumerated,
            "graph.build_graph": self._count_edges,
            "graph.verify_cactus": self._count_cactus,
            "operators.unprimed_lower": self._count_defined("unprimed_defined"),
            "operators.unprimed_raise": self._count_defined("unprimed_defined"),
            "operators.primed_lower_tableau": self._count_defined("primed_defined"),
            "operators.primed_raise_tableau": self._count_defined("primed_defined"),
        }

    # -- result hooks --------------------------------------------------------

    def _count_slides(self, result):
        self.counts["slides"] += len(result[1])

    def _count_enumerated(self, result):
        self.counts["enumerated"] += len(result)

    def _count_edges(self, graph):
        self.counts["edges"] += len(graph.edges)
        self.counts["lowering_attempts"] += 2 * len(graph.colors) * len(graph.vertices)

    def _count_cactus(self, report):
        self.counts["cactus_checked"] += sum(report["checked"].values())

    def _count_defined(self, key):
        def hook(result):
            self.counts[key] += result is not None
        return hook

    # -- patching ------------------------------------------------------------

    def _span(self, key, fn):
        stack = self._stack
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        hook = self._hooks.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if hook is not None:
                hook(result)
            return result
        return traced

    def _counted_init(self, cls, key):
        counts = self.counts
        original = cls.__init__

        @functools.wraps(original)
        def __init__(self, *args, **kwargs):
            counts[key] += 1
            original(self, *args, **kwargs)
        self._set(cls, "__init__", __init__)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace_everywhere(self, original, wrapper):
        for module in self.modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def __enter__(self):
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        for layer in LAYERS:
            module = by_name[layer]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if (name in HOT or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._replace_everywhere(fn, self._span(f"{layer}.{name}", fn))
        core = by_name["core"]
        self._set(core.ShiftedTableau, "restrict",
                  self._span("core.restrict", core.ShiftedTableau.restrict))
        self._counted_init(core.SkewShape, "shapes_built")
        self._counted_init(core.ShiftedTableau, "tableaux_built")
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        return False

    # -- reading -------------------------------------------------------------

    def calls(self, *keys) -> int:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[0] for k in keys)

    def total_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[1] for k in keys)

    def self_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for k, s in self.stats.items() if k.startswith(layer + "."))


# ---------------------------------------------------------------------------
# Per-layer metrics

# Caches reported one by one; any other cache the census finds still counts
# in cache.total.* and cache.count.
NAMED_CACHES = (
    "core.enumerate_cached",
    "graph.lrs_weight_counts",
    "operators.primed_lower_t",
    "operators.primed_raise_t",
    "operators.sigma",
    "operators.two_letter_string",
    "operators.unprimed_lower",
    "operators.unprimed_raise",
)
SUITES = ("cactus", "braid", "knuth", "symmetry", "structure")


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, census: dict) -> dict:
    """Every per-layer metric as name -> (value, unit); zero where a layer
    did not run in this workload."""
    t, c = tracer, tracer.counts
    unprimed = ("operators.unprimed_lower", "operators.unprimed_raise")
    primed = ("operators.primed_lower_tableau", "operators.primed_raise_tableau")
    primed_words = ("operators.primed_lower", "operators.primed_raise")
    m = {f"{layer}.self_s": (t.layer_self_s(layer), "s") for layer in LAYERS}
    m.update({
        "core.shapes_built": (c["shapes_built"], "count"),
        "core.tableaux_built": (c["tableaux_built"], "count"),
        "core.enumerate.calls": (t.calls("core.enumerate_tableaux"), "count"),
        "core.enumerate.s": (t.total_s("core.enumerate_tableaux"), "s"),
        "core.enumerate.tableaux": (c["enumerated"], "count"),
        "core.restrict.calls": (t.calls("core.restrict"), "count"),
        "core.restrict.self_s": (t.self_s("core.restrict"), "s"),
        "core.splice.calls": (t.calls("core.splice"), "count"),
        "core.splice.self_s": (t.self_s("core.splice"), "s"),
        "jdt.rectify.calls": (t.calls("jdt.rectify"), "count"),
        "jdt.rectify.self_s": (t.self_s("jdt.rectify"), "s"),
        "jdt.unrectify.calls": (t.calls("jdt.unrectify"), "count"),
        "jdt.unrectify.self_s": (t.self_s("jdt.unrectify"), "s"),
        "jdt.slides": (c["slides"], "count"),
        "operators.unprimed.calls": (t.calls(*unprimed), "count"),
        "operators.unprimed.self_s": (t.self_s(*unprimed), "s"),
        "operators.unprimed.defined_ratio":
            (_ratio(c["unprimed_defined"], t.calls(*unprimed)), "ratio"),
        "operators.primed.calls": (t.calls(*primed), "count"),
        "operators.primed.self_s": (t.self_s(*primed, *primed_words), "s"),
        "operators.primed.defined_ratio":
            (_ratio(c["primed_defined"], t.calls(*primed)), "ratio"),
        "operators.sigma.calls": (t.calls("operators.sigma"), "count"),
        "operators.sigma.self_s": (t.self_s("operators.sigma"), "s"),
        "involutions.eta_interval.calls": (t.calls("involutions.eta_interval"), "count"),
        "involutions.eta_interval.self_s": (t.self_s("involutions.eta_interval"), "s"),
        "involutions.reversal.calls": (t.calls("involutions.reversal"), "count"),
        "involutions.reversal.self_s": (t.self_s("involutions.reversal"), "s"),
        "graph.build.calls": (t.calls("graph.build_graph"), "count"),
        "graph.build.self_s": (t.self_s("graph.build_graph"), "s"),
        "graph.edge_yield": (_ratio(c["edges"], c["lowering_attempts"]), "ratio"),
        "graph.cactus.calls": (t.calls("graph.verify_cactus"), "count"),
        "graph.cactus.self_s": (t.self_s("graph.verify_cactus"), "s"),
        "graph.cactus.checked": (c["cactus_checked"], "count"),
    })
    for suite in SUITES:
        m[f"verify.{suite}.s"] = (t.total_s(f"verify.run_{suite}"), "s")
    empty = {"hits": 0, "misses": 0, "size": 0}
    for key in NAMED_CACHES:
        info = census.get(key, empty)
        m[f"cache.{key}.hits"] = (info["hits"], "count")
        m[f"cache.{key}.misses"] = (info["misses"], "count")
        m[f"cache.{key}.hit_ratio"] = (_ratio(info["hits"], info["hits"] + info["misses"]), "ratio")
        m[f"cache.{key}.size"] = (info["size"], "count")
    hits = sum(i["hits"] for i in census.values())
    misses = sum(i["misses"] for i in census.values())
    m.update({
        "cache.total.hits": (hits, "count"),
        "cache.total.misses": (misses, "count"),
        "cache.total.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "cache.total.size": (sum(i["size"] for i in census.values()), "count"),
        "cache.count": (len(census), "count"),
    })
    return m
