"""Shared fixtures, the cache scan and the acceptance pass/fail summary hook."""

import importlib
import pkgutil

import pytest

import shifted_crystal
from shifted_crystal import SkewShape, build_graph

_acceptance_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py" in report.nodeid and "criterion" in report.nodeid:
        _acceptance_results[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(_acceptance_results, key=_criterion_key):
        outcome = _acceptance_results[nodeid]
        name = nodeid.split("::")[-1]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{status}  {name}")


def _criterion_key(nodeid):
    name = nodeid.split("::")[-1]
    digits = "".join(ch for ch in name if ch.isdigit())
    return (int(digits) if digits else 0, name)


@pytest.fixture(scope="session")
def graph_cache():
    cache = {}

    def get(shape_text, n):
        key = (shape_text, n)
        if key not in cache:
            cache[key] = build_graph(SkewShape.parse(shape_text), n)
        return cache[key]

    return get


def module_caches():
    """(qualified name, function) of every lru_cache bound at module level
    in the package, found by scanning module globals."""
    found = []
    for info in pkgutil.iter_modules(shifted_crystal.__path__):
        module = importlib.import_module(f"shifted_crystal.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and \
                    getattr(obj, "__module__", None) == module.__name__:
                found.append((f"{module.__name__}.{name}", obj))
    return found


@pytest.fixture(scope="module", autouse=True)
def cold_caches_after_module():
    """Empty every module-level cache after each test module, so that no
    module sees the caches another one warmed and the results do not depend
    on the order the modules run in."""
    yield
    for _, cached in module_caches():
        cached.cache_clear()
