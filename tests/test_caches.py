"""Every module-level cache in the package is bounded."""

import importlib
import pkgutil

import shifted_crystal

# Unbounded on purpose: one entry can hold a whole enumeration, so an entry
# bound would not bound memory.  Bounding it by the tableaux it holds is
# ROADMAP item 4.
UNBOUNDED = {"shifted_crystal.core._enumerate_cached"}


def _module_caches():
    """(qualified name, cache_info()) of every lru_cache bound at module
    level, found by scanning module globals."""
    found = []
    for info in pkgutil.iter_modules(shifted_crystal.__path__):
        module = importlib.import_module(f"shifted_crystal.{info.name}")
        for name, obj in vars(module).items():
            cache_info = getattr(obj, "cache_info", None)
            if callable(cache_info) and getattr(obj, "__module__", None) == module.__name__:
                found.append((f"{module.__name__}.{name}", cache_info()))
    return found


def test_module_level_caches_are_bounded():
    caches = dict(_module_caches())
    assert UNBOUNDED <= set(caches)
    unbounded = {name for name, info in caches.items() if info.maxsize is None}
    assert unbounded == UNBOUNDED
    assert "shifted_crystal.operators._colour_one" in caches
    assert "shifted_crystal.involutions._reversed_subword" in caches
