"""The package's public names, pinned, the layer modules' __all__ lists,
the README's library tour, and the small dunder methods of the values."""

import ast
import functools
import importlib
import inspect
import pathlib
import re

import pytest

import shifted_crystal
from shifted_crystal import (
    IntervalPermutation,
    ShiftedTableau,
    SkewShape,
    SlideRecord,
    StrictPartition,
    Word,
    build_graph,
    classify_string,
    enumerate_tableaux,
)

LAYERS = ("core", "jdt", "operators", "involutions", "graph", "verify")

PUBLIC = [
    "Component", "CrystalGraph", "EMPTY_PARTITION", "EMPTY_SHAPE", "EMPTY_TABLEAU",
    "IntervalPermutation", "InvariantError", "Lengths", "ShiftedTableau", "SkewShape",
    "SlideRecord", "StrictPartition", "StringDescriptor", "Word", "apply_program",
    "build_graph", "cactus_act", "cactus_generators", "canonicalize", "classify_string",
    "enumerate_tableaux", "eta", "eta_interval", "evacuate", "export_dot", "export_json",
    "graph_from_json", "inner_slide", "interval_subgraph", "is_highest", "is_lowest",
    "is_lrs", "knuth_neighbors", "lengths", "letter", "lrs_count", "lrs_weight_counts",
    "outer_slide", "parse_operator_program", "primed_lower", "primed_lower_tableau",
    "primed_raise", "primed_raise_tableau", "rectify", "replay", "reversal", "sigma",
    "star", "strict_partitions_inside", "strict_partitions_of", "unprimed_lower",
    "unprimed_raise", "unrectify", "verify_cactus", "yamanouchi",
]


def test_public_names_are_pinned():
    # submodules become attributes of the package as they are imported, so
    # they are left out; a name added or removed here is an API change
    names = sorted(name for name, value in vars(shifted_crystal).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC


def test_every_all_entry_resolves():
    # perfbench's tracer getattr()s every __all__ name of the layer modules
    for layer in LAYERS:
        module = importlib.import_module(f"shifted_crystal.{layer}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], layer


def test_readme_library_tour_runs():
    # the "Library tour" block runs as printed, so the documented API stays callable
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    tour = readme.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    exec(re.search(r"```python\n(.*?)```", tour, re.S).group(1), {})


_T = ShiftedTableau.parse("3,1/1", "1 2 / 2")
_G = build_graph(SkewShape.parse("2,1"), 2)
_STEPS = [("inner", (1, 1), (1, 2))]

# every class of the package that defines __repr__, with a value and its repr
REPRS = {
    "StrictPartition": (_T.shape.outer, "StrictPartition((3, 1))"),
    "SkewShape": (_T.shape, "SkewShape((3, 1), (1,))"),
    "Word": (Word.parse("1 2' 2"), "Word('1 2 2', n=2)"),
    "ShiftedTableau": (_T, "ShiftedTableau(SkewShape((3, 1), (1,)), '1 2 / 2')"),
    "SlideRecord": (SlideRecord(_STEPS), "SlideRecord([('inner', (1, 1), (1, 2))])"),
    "IntervalPermutation": (IntervalPermutation(2, 4), "IntervalPermutation(2, 4)"),
    "StringDescriptor": (classify_string(_T, 1, 2),
                         "StringDescriptor(color=1, kind=collapsed, size=4)"),
    "Component": (_G.components[0], "Component(2 vertices)"),
    "CrystalGraph": (_G, "CrystalGraph(shape=2,1/, n=2, |V|=2, |E|=1)"),
    "_Leaves": (enumerate_tableaux(_G.shape, 2), "_Leaves(SkewShape((2, 1), ()), 2 tableaux)"),
}


# each call runs one dunder method
DUNDERS = {
    **{f"repr-{name}": (functools.partial(repr, value), text)
       for name, (value, text) in REPRS.items()},
    "StrictPartition-iter": (lambda: list(StrictPartition((3, 1))), [3, 1]),
    "StrictPartition-eq-other-type": (lambda: StrictPartition((1,)).__eq__([1]), NotImplemented),
    "SkewShape-contains": (lambda: [(1, 1) in _T.shape, (1, 2) in _T.shape], [False, True]),
    "SlideRecord-hash": (lambda: len({SlideRecord(_STEPS), SlideRecord(tuple(_STEPS)),
                                      SlideRecord()}), 2),
}


@pytest.mark.parametrize("call, expected", DUNDERS.values(), ids=DUNDERS.keys())
def test_small_dunders(call, expected):
    got = call()
    assert got is expected if expected is NotImplemented else got == expected


def test_every_repr_of_the_package_is_in_the_dunder_table():
    src = pathlib.Path(shifted_crystal.__file__).parent
    defined = {node.name for path in src.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)
               and any(getattr(f, "name", None) == "__repr__" for f in node.body)}
    assert defined == set(REPRS)
