"""Every test starts from empty memos.

The rhs keeps its slope tables per kernel width (``functools.lru_cache``),
so a test that patches ``kernel_values``, for example to inject a
non-finite value, must not read a table built before the patch.
"""

import importlib
import pkgutil

import pytest

import mixzone


def clear_memos():
    """Empty every ``functools`` cache held by a module of the package."""
    for info in pkgutil.iter_modules(mixzone.__path__):
        for value in vars(importlib.import_module(f"mixzone.{info.name}")).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    clear_memos()
