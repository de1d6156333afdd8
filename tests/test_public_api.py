"""The package's public names, pinned, the layer modules' __all__ lists,
and the README's library tour."""

import importlib
import inspect
import pathlib
import re

import shifted_crystal

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
    for layer in ("core", "jdt", "operators", "involutions", "graph", "verify"):
        module = importlib.import_module(f"shifted_crystal.{layer}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], layer


def test_readme_library_tour_runs():
    # the "Library tour" block runs as printed, so the documented API stays callable
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    tour = readme.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    exec(re.search(r"```python\n(.*?)```", tour, re.S).group(1), {})
