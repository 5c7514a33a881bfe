"""What the benchmark measures: workloads, metrics, traced stages and the
layer -> end-to-end map.

This module is the single source of `BENCHMARK.json`; `run.py
--write-benchmark-json` renders it and a test keeps the two in step.  It uses
the standard library only, so the orchestrator can read it without importing
numpy or the package under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 50
# BLAS and OpenMP thread-count variables.  The worker runs with each set to 1
# (see run.py) and records them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str             # harness entry point the unit of work calls
    why: str
    level: int = 0         # the level solve_level solves
    sweep_h: float = 0.0
    sweep_n: int = 0
    skips: tuple = ()      # traced stages this workload never runs

    @property
    def n_units(self) -> int:
        """Gated units (levels or shifts) in one unit of work."""
        return self.sweep_n + 1 if self.entry == "run_interface_sweep" else 1


_NO_SOLVE = ("spaces.ContinuousPressureSpace", "forms.assemble_rhs",
             "solver.solve_saddle", "postprocess.recover_pressure",
             "harness.compute_errors")

# Two workloads, not three: see README, "Why two workloads".  shift_sweep
# comes first because it is the cheaper, and the first run in a fresh checkout
# also pays one-off costs such as bytecode compilation.
WORKLOADS = {w.name: w for w in (
    Workload("shift_sweep", "run_interface_sweep", sweep_h=0.1, sweep_n=1,
             skips=_NO_SOLVE,
             why=("run_interface_sweep, h=0.1, n=1: shifts x0=+-0.2, 1 distinct cut "
                  "position; condition estimate ~60%, geometry rebuilt per shift, "
                  "no rhs, pressure or errors.")),
    Workload("quartic_fine", "solve_level", level=3,
             skips=("solver.condition_estimate",),
             why=("Example 1, ho, k=2, level 3 via solve_level: SuperLU solve ~50% "
                  "and peak RSS (~1.9 GB), assembly + recovery + errors the rest; "
                  "D4 and D3 show here, and D1's h1u dip.")),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None   # end-to-end only
    doc: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "median over fresh processes of spawn -> `import cutstokes` done and the "
           "exact case built, at the reference host speed (see run.CAL_REF_S)"),
    Metric("wall_s", "s", "lower", 0.25,
           "median time of the workload's unit of work (one level or one sweep), "
           "at the reference host speed"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           "peak resident memory of the workload process"),
    Metric("pass_frac", "ratio", "higher", 0.01,
           "units (levels or shifts) that passed the accuracy gate / units attempted; "
           "1 - fail_frac, reported this way because a metric must never read 0"),
    Metric("gate_ratio", "ratio", "lower", 0.02,
           "geometric mean of value / seed reference over the gated quantities of the "
           "finest unit: l2u, h1u, l2p_star (quartic_fine) or kappa_max (shift_sweep)"),
)

# Traced stages: (span name, per-layer time metric).  The span name is
# `<module>.<attribute>` of a public function or class of `cutstokes`; a
# class is timed through its constructor.
STAGES = (
    ("meshing.build_background_mesh", "meshing.build_s"),
    ("meshing.alfeld_split", "meshing.build_s"),
    ("meshing.classify_elements", "meshing.classify_s"),
    ("geometry.interpolate_p1", "geometry.p1_s"),
    ("geometry.build_deformation", "geometry.deform_s"),
    ("geometry.build_quadratures", "geometry.quad_s"),
    ("spaces.VelocitySpace", "spaces.build_s"),
    ("spaces.PressureSpace", "spaces.build_s"),
    ("spaces.MultiplierSpace", "spaces.build_s"),
    ("spaces.ContinuousPressureSpace", "spaces.build_s"),
    ("forms.assemble_a", "forms.a_s"),
    ("forms.assemble_ghost_penalty", "forms.gp_s"),
    ("forms.assemble_b", "forms.b_s"),
    ("forms.assemble_c", "forms.cj_s"),
    ("forms.assemble_j", "forms.cj_s"),
    ("forms.pressure_mean_vector", "forms.cj_s"),
    ("forms.assemble_rhs", "forms.rhs_s"),
    ("forms.build_saddle_system", "forms.saddle_s"),
    ("solver.solve_saddle", "solver.solve_s"),
    ("solver.condition_estimate", "solver.condest_s"),
    ("postprocess.recover_pressure", "postprocess.recover_s"),
    ("harness.compute_errors", "harness.errors_s"),
)
# Unit spans: one per level or shift.  `_sweep_one` is the per-shift body of
# `run_interface_sweep`; wrapping it is the only way to see single shifts.
UNIT_STAGES = (("harness.solve_level", "harness.unit_s"),
               ("harness._sweep_one", "harness.unit_s"))

_T = "s"
PER_LAYER = (
    Metric("meshing.build_s", _T, "lower"),
    Metric("meshing.classify_s", _T, "lower"),
    Metric("meshing.children", "count", "lower"),
    Metric("meshing.cut_children", "count", "lower"),
    Metric("geometry.p1_s", _T, "lower"),
    Metric("geometry.deform_s", _T, "lower"),
    Metric("geometry.quad_s", _T, "lower"),
    Metric("geometry.max_disp_h", "ratio", "lower"),
    Metric("geometry.interface_points", "count", "lower"),
    Metric("spaces.build_s", _T, "lower"),
    Metric("spaces.n_u", "count", "lower"),
    Metric("spaces.n_p", "count", "lower"),
    Metric("spaces.n_lambda", "count", "lower"),
    Metric("forms.a_s", _T, "lower"),
    Metric("forms.gp_s", _T, "lower"),
    Metric("forms.b_s", _T, "lower"),
    Metric("forms.cj_s", _T, "lower"),
    Metric("forms.rhs_s", _T, "lower"),
    Metric("forms.saddle_s", _T, "lower"),
    Metric("forms.n", "count", "lower"),
    Metric("forms.nnz", "count", "lower"),
    Metric("forms.mean_nnz", "count", "lower"),
    Metric("solver.solve_s", _T, "lower"),
    Metric("solver.residual", "ratio", "lower"),
    Metric("solver.condest_s", _T, "lower"),
    Metric("postprocess.recover_s", _T, "lower"),
    Metric("harness.errors_s", _T, "lower"),
    Metric("harness.unit_s", _T, "lower"),
    Metric("trace.overhead_s", _T, "lower"),
)

# Which end-to-end metric each per-layer metric should move, on which
# workload (workload: metrics).  Later issues cite these names.
_BOTH = ("shift_sweep", "quartic_fine")
LAYER_MAP = {
    **{m: {w: ("wall_s",) for w in _BOTH}
       for m in ("meshing.build_s", "meshing.classify_s", "meshing.children",
                 "meshing.cut_children", "geometry.p1_s", "geometry.deform_s",
                 "geometry.quad_s", "spaces.build_s", "spaces.n_u", "spaces.n_p",
                 "spaces.n_lambda", "forms.a_s", "forms.gp_s", "forms.b_s",
                 "forms.cj_s", "forms.saddle_s", "harness.unit_s")},
    "geometry.max_disp_h": {"quartic_fine": ("gate_ratio",)},
    "geometry.interface_points": {"quartic_fine": ("gate_ratio",)},
    **{m: {"quartic_fine": ("peak_rss_mb", "wall_s")}
       for m in ("forms.n", "forms.nnz", "forms.mean_nnz", "solver.solve_s",
                 "solver.residual")},
    "solver.condest_s": {"shift_sweep": ("wall_s", "gate_ratio")},
    # absent from shift_sweep: a change here must leave that workload unchanged
    **{m: {"quartic_fine": ("wall_s",)}
       for m in ("forms.rhs_s", "postprocess.recover_s", "harness.errors_s")},
    "trace.overhead_s": {},
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
