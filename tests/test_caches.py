"""Every module-level cache in the package is bounded."""

from conftest import module_caches


def test_module_level_caches_are_bounded():
    caches = {name: cached.cache_info() for name, cached in module_caches()}
    unbounded = {name for name, info in caches.items() if info.maxsize is None}
    assert unbounded == set()
    assert "shifted_crystal.operators._colour_one" in caches
    assert "shifted_crystal.involutions._reversed_subword" in caches
