"""The package's module-level caches: the audited set, each bounded."""

from conftest import module_caches


def test_module_level_caches_are_bounded():
    caches = {name: cached.cache_info() for name, cached in module_caches()}
    unbounded = {name for name, info in caches.items() if info.maxsize is None}
    assert unbounded == set()
    assert "shifted_crystal.operators._colour_one" in caches
    assert "shifted_crystal.involutions._reversed_subword" in caches


def test_module_level_caches_are_the_audited_set():
    # a new module cache is a reviewed decision: it is added here too
    assert {name for name, _ in module_caches()} == {
        "shifted_crystal.core.shared_shape",
        "shifted_crystal.operators._two_letter_string",
        "shifted_crystal.operators._colour_one",
        "shifted_crystal.involutions._reversed_subword",
    }
