"""Public names of the secant modules."""

import importlib
import pkgutil

import pytest

import secant
from secant import linalg

MODULES = sorted(m.name for m in pkgutil.iter_modules(secant.__path__))

#: standard forms that live in secant.linalg and stay importable from the
#: modules that defined them before
MOVED = {"chevalley": "split_symmetric_form",
         "ranks": "split_symplectic_form",
         "oracle": "mirror_symplectic_form"}


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    mod = importlib.import_module("secant." + name)
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), (name, attr)
    if name in MOVED:
        attr = MOVED[name]
        assert attr in mod.__all__
        assert getattr(mod, attr) is getattr(linalg, attr)
