import importlib
import pkgutil

import pytest

import cutstokes

MODULES = ["cutstokes"] + [f"cutstokes.{m.name}"
                           for m in pkgutil.iter_modules(cutstokes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry would only surface on a star import
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported), name
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, (name, missing)


def test_star_import():
    ns = {}
    exec("from cutstokes import *", ns)
    assert set(cutstokes.__all__) <= set(ns)
