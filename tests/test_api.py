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


def test_solver_errors_exported():
    # both solver entry points raise these, so they belong to the package API
    from cutstokes import solver
    for name in ("SingularSystemError", "IterationError"):
        assert name in cutstokes.__all__
        assert getattr(cutstokes, name) is getattr(solver, name)


def test_star_import():
    ns = {}
    exec("from cutstokes import *", ns)
    assert set(cutstokes.__all__) <= set(ns)
