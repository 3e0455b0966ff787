"""Every name a module of the package exports through ``__all__`` exists, so
``from lfdkit.<module> import *`` cannot fail on a stale entry."""

import importlib
import pkgutil

import pytest

import lfdkit

MODULES = ["lfdkit"] + sorted(f"lfdkit.{m.name}" for m in pkgutil.iter_modules(lfdkit.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
