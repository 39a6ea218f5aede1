"""Fixtures shared by the test modules."""

import importlib
import pkgutil

import pytest

import e6poly

# every lru_cache of the package, found once at import: a test may patch
# a module attribute, but the caches cleared are always the package's own
CACHES = tuple(
    obj
    for info in pkgutil.iter_modules(e6poly.__path__, "e6poly.")
    for obj in vars(importlib.import_module(info.name)).values()
    if hasattr(obj, "cache_clear") and obj.__module__ == info.name
)


def clear_caches():
    for cached in CACHES:
        cached.cache_clear()


@pytest.fixture
def fresh_caches():
    """Start with every cache of the package empty, and drop what a
    patched run cached so later tests do not read it.  The fixture's
    value clears them all again, for a test that builds before it
    patches."""
    clear_caches()
    yield clear_caches
    clear_caches()
