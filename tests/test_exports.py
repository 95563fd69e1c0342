"""Every name a module exports must exist: a name left in __all__ after its
definition is gone breaks `from nullspan.<module> import *`."""

import importlib
import pkgutil

import pytest

import nullspan

MODULES = [info.name for info in pkgutil.iter_modules(nullspan.__path__)]


def test_every_module_is_checked():
    assert {"cli", "layers", "linalg", "network", "verification"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"nullspan.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
