"""Public names of the secant modules."""

import importlib
import pkgutil

import pytest

import secant

MODULES = sorted(m.name for m in pkgutil.iter_modules(secant.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    mod = importlib.import_module("secant." + name)
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), (name, attr)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_have_one_home(name):
    # every function or class a module exports is defined in that module:
    # no name is re-exported from a second one
    mod = importlib.import_module("secant." + name)
    for attr in getattr(mod, "__all__", ()):
        obj = getattr(mod, attr)
        if callable(obj):
            assert obj.__module__ == mod.__name__, (name, attr, obj.__module__)
