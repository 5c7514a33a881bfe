"""The benchmark's own checks: names, self-time arithmetic, the accuracy
gate, missing spans and a level-0 smoke run.

    python3 -m pytest -q perfbench/tests
"""

import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import gate
import spec
import worker
from conftest import BENCH
from spans import MissingSpanError, Span, Tracer, self_times

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + list(spec.WORKLOADS)
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.fullmatch(n), n
    for m in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.fullmatch(m.unit), m
        assert m.better in ("lower", "higher")
    for m in spec.END_TO_END:
        assert 0 < m.bound <= 0.25
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    for w in spec.WORKLOADS.values():
        assert len(w.why) <= 200 and "\n" not in w.why


def test_benchmark_json_matches_spec():
    assert (BENCH.parent / "BENCHMARK.json").read_text() == spec.render_benchmark_json()


def test_layer_map_covers_every_per_layer_metric():
    e2e = {m.name for m in spec.END_TO_END}
    assert set(spec.LAYER_MAP) == {m.name for m in spec.PER_LAYER}
    for moves in spec.LAYER_MAP.values():
        for wl, metrics in moves.items():
            assert wl in spec.WORKLOADS and set(metrics) <= e2e
    timed = {metric for _, metric in spec.STAGES + spec.UNIT_STAGES}
    assert timed <= set(spec.LAYER_MAP)


def test_self_time_on_hand_built_tree():
    # unit [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [Span(0, "unit", None, 0, 0.0, 10.0), Span(1, "a", 0, 0, 1.0, 4.0),
             Span(2, "c", 1, 0, 2.0, 3.0), Span(3, "b", 0, 0, 5.0, 9.0)]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(spans[0].duration)


def test_self_time_clips_overlapping_children():
    spans = [Span(0, "p", None, 0, 0.0, 4.0), Span(1, "x", 0, 0, 1.0, 3.0),
             Span(2, "y", 0, 0, 2.0, 5.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def _seed_level(lvl):
    rec = {n: gate.REFERENCE[n][lvl] for n in gate.NORMS}
    return dict(rec, lvl=lvl, l2div=1e-13, residual=1e-14)


def test_gate_passes_seed_and_lower_norms():
    for lvl in range(4):
        assert gate.check_level(_seed_level(lvl)) == []
        assert gate.check_level(dict(_seed_level(lvl), h1u=0.5 * gate.REFERENCE["h1u"][lvl])) == []


@pytest.mark.parametrize("field, value", [
    ("l2u", gate.REFERENCE["l2u"][2] * 1.05), ("h1u", math.nan),
    ("l2p_star", gate.REFERENCE["l2p_star"][2] * 1.02),
    ("l2div", 1e-6), ("residual", 2e-9)])
def test_gate_flags_bad_level(field, value):
    assert gate.check_level(dict(_seed_level(2), **{field: value}))


@pytest.mark.parametrize("kappa", [math.inf, math.nan, 0.0, -1.0])
def test_gate_flags_bad_kappa(kappa):
    assert gate.check_shift({"i": 0, "x0": -0.2, "kappa": kappa})
    assert gate.check_shift({"i": 0, "x0": -0.2, "kappa": 1.5e8}) == []


def test_gate_ratio_is_one_at_the_references():
    assert gate.gate_ratio({n: gate.REFERENCE[n][3] for n in gate.NORMS} | {"lvl": 3}) \
        == pytest.approx(1.0)
    assert gate.gate_ratio({"kappa_max": gate.KAPPA_REFERENCE}) == pytest.approx(1.0)


def test_missing_span_raises():
    tr = Tracer(True)
    tr.wrap(lambda: None, "forms.assemble_a")()
    tr.require(["forms.assemble_a"])
    with pytest.raises(MissingSpanError, match="solver.solve_saddle"):
        tr.require(["forms.assemble_a", "solver.solve_saddle"])


LEVEL0 = replace(spec.WORKLOADS["quartic_fine"], level=0)


def test_level0_smoke_run_traced():
    from cutstokes import harness

    orig = harness.solve_level
    out = worker.run_workload(LEVEL0, seed=3, seconds=0.0, traced=True)
    assert harness.solve_level is orig            # every binding restored
    assert (out["attempted"], out["failed"], out["problems"]) == (1, 0, [])
    layers = out["layers"]
    assert set(layers) == {m.name for m in spec.PER_LAYER}
    for name in ("forms.gp_s", "solver.solve_s", "harness.errors_s", "spaces.n_u",
                 "forms.mean_nnz", "geometry.interface_points", "meshing.cut_children"):
        assert layers[name] > 0, name
    assert layers["solver.condest_s"] == 0
    spans = {s["id"]: s for s in out["spans"]}
    nested = [s for s in spans.values() if s["name"] == "geometry.build_quadratures"
              and spans[s["parent"]]["name"] == "harness.compute_errors"]
    assert nested and all(s["unit"] is not None for s in spans.values())


def test_coarse_sweep_smoke_run_traced():
    sweep = replace(spec.WORKLOADS["shift_sweep"], sweep_h=0.3)
    out = worker.run_workload(sweep, seed=3, seconds=0.0, traced=True)
    assert (out["attempted"], out["failed"], out["problems"]) == (2, 0, [])
    assert [u["name"] for u in out["units"]] == ["harness._sweep_one"] * 2
    assert out["layers"]["solver.condest_s"] > 0
    assert out["layers"]["solver.solve_s"] == out["layers"]["harness.errors_s"] == 0


def test_unrun_required_stage_fails_the_run():
    with pytest.raises(MissingSpanError, match="solver.condition_estimate"):
        worker.run_workload(replace(LEVEL0, skips=()), seed=3, seconds=0.0, traced=True)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "quartic_fine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
