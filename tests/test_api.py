import ast
import importlib
import importlib.util
import pkgutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cutstokes

MODULES = ["cutstokes"] + [f"cutstokes.{m.name}"
                           for m in pkgutil.iter_modules(cutstokes.__path__)]
ROOT = Path(__file__).resolve().parents[1]


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


def test_benchmark_traced_surface(monkeypatch):
    # perfbench wraps these names in place, so a rename would surface only as
    # a MissingSpanError in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.py"
    loader = importlib.util.spec_from_file_location("perfbench_spec", path)
    bench = importlib.util.module_from_spec(loader)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, loader.name, bench)
    loader.loader.exec_module(bench)
    for name, _ in bench.STAGES + bench.UNIT_STAGES:
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"cutstokes.{module}"), attr, None)
        assert obj is not None, name
        # a class is timed through the `__init__` in its own __dict__
        assert not isinstance(obj, type) or "__init__" in vars(obj), name
    # the counts the benchmark reads off the stage results
    from cutstokes.geometry import CutQuadrature, IsoDeformation
    assert isinstance(CutQuadrature.interface, property)
    assert isinstance(IsoDeformation.max_displacement, property)


def test_benchmark_smoke_runs_traced(monkeypatch):
    # one traced unit of each benchmark workload: a stage span that stops
    # firing raises MissingSpanError, a unit that fails its gate counts in
    # `failed`
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    fresh = [n for n in ("worker", "spec", "gate", "spans") if n not in sys.modules]
    try:
        worker = importlib.import_module("worker")
        workloads = worker.spec.WORKLOADS
        for wl in (replace(workloads["quartic_fine"], level=0),
                   replace(workloads["shift_sweep"], sweep_h=0.3)):
            out = worker.run_workload(wl, seed=3, seconds=0.0, traced=True)
            assert (out["failed"], out["problems"]) == (0, []), wl.name
    finally:
        for name in fresh:
            sys.modules.pop(name, None)


def test_every_src_definition_has_a_reader():
    # a function, method or class of the package that neither the package
    # nor the benchmark reads serves only the tests, and belongs in them
    def parse(pattern):
        return [(path, ast.parse(path.read_text())) for path in sorted(ROOT.glob(pattern))]

    defined = {}
    for path, tree in parse("src/cutstokes/*.py"):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    read = set()
    for _, tree in parse("src/cutstokes/*.py") + parse("perfbench/*.py"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {name: where for name, where in defined.items() if name not in read}
    assert not unread
