import argparse
import filecmp
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from cutstokes import cli, harness
from cutstokes.cli import main as cli_main
from cutstokes.geometry import GeometryError
from cutstokes.harness import (ResultRow, StudyConfig, _sweep_one, build_geometry,
                               compute_eoc, exact_example1, exact_example2,
                               run_convergence,
                               run_interface_sweep, solve_level, write_config,
                               write_data, write_vtk)
from cutstokes.solver import PenaltyFactor, condition_estimate
from tests.conftest import fit_rate, literal_closed_forms, read_config


# ---------------------------------------------------------------------------
# exact data


def test_example1_divergence_free():
    ex = exact_example1()
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1.0, 1.0, size=(1000, 2))
    g = ex.grad_u(pts)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() <= 1e-10


def test_example1_gradients_match_fd():
    ex = exact_example1()
    rng = np.random.default_rng(22)
    pts = rng.uniform(-0.8, 0.8, size=(50, 2))
    eps = 1e-6
    for j in range(2):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, j] += eps
        dm[:, j] -= eps
        fd = (ex.u(dp) - ex.u(dm)) / (2 * eps)
        assert np.abs(ex.grad_u(pts)[:, :, j] - fd).max() <= 1e-7
        fdp = (ex.p(dp) - ex.p(dm)) / (2 * eps)
        assert np.abs(ex.grad_p(pts)[:, j] - fdp).max() <= 1e-7


def test_example1_forcing_matches_fd_at_origin():
    ex = exact_example1()
    x0 = np.zeros((1, 2))
    eps = 1e-4
    lap = np.zeros(2)
    for j in range(2):
        dp = x0.copy()
        dm = x0.copy()
        dp[0, j] += eps
        dm[0, j] -= eps
        lap += (ex.u(dp)[0] - 2 * ex.u(x0)[0] + ex.u(dm)[0]) / eps ** 2
    want = -lap + ex.grad_p(x0)[0]
    assert np.abs(ex.f(x0)[0] - want).max() <= 1e-6


def test_example1_forcing_matches_fd():
    # f = -lap(u) + grad(p) where f does not vanish: second differences of u
    # at random points
    ex = exact_example1()
    rng = np.random.default_rng(24)
    pts = rng.uniform(-0.8, 0.8, size=(200, 2))
    eps = 1e-3
    lap = np.zeros_like(pts)
    for j in range(2):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, j] += eps
        dm[:, j] -= eps
        lap += (ex.u(dp) - 2 * ex.u(pts) + ex.u(dm)) / eps ** 2
    f = ex.f(pts)
    assert np.abs(f - (-lap + ex.grad_p(pts))).max() <= 1e-4 * np.abs(f).max()


@pytest.mark.parametrize("make", [exact_example1, exact_example2],
                         ids=["example1", "example2"])
def test_levelset_gradient_matches_fd(make):
    ls = make().levelset
    rng = np.random.default_rng(25)
    pts = rng.uniform(-0.8, 0.8, size=(200, 2))
    eps = 1e-6
    g = ls.gradient(pts)
    for j in range(2):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, j] += eps
        dm[:, j] -= eps
        fd = (ls.value(dp) - ls.value(dm)) / (2 * eps)
        assert np.abs(g[:, j] - fd).max() <= 1e-6 * np.abs(g).max()


@pytest.mark.parametrize("example", [1, 2])
def test_closed_forms_match_literal_powers(example):
    # the product forms agree with the same formulas written with `**`, to
    # round-off relative to the largest value
    ex = harness._EXAMPLES[example]()
    mine = dict(u=ex.u, grad_u=ex.grad_u, p=ex.p, grad_p=ex.grad_p, f=ex.f,
                phi=ex.levelset.value, dphi=ex.levelset.gradient)
    rng = np.random.default_rng(26)
    pts = rng.uniform(-1.0, 1.0, size=(1000, 2))
    for name, want in literal_closed_forms(example).items():
        ref = want(pts)
        assert np.abs(mine[name](pts) - ref).max() <= 1e-14 * np.abs(ref).max(), name


def test_example1_velocity_tangent_to_interface():
    ex = exact_example1()
    th = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
    r = (0.25 / (np.cos(th) ** 4 + np.sin(th) ** 4)) ** 0.25
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    assert np.abs(ex.levelset.value(pts)).max() <= 1e-12
    flux = (ex.u(pts) * ex.levelset.gradient(pts)).sum(axis=1)
    assert np.abs(flux).max() <= 1e-10


def test_example2_fields():
    ex = exact_example2()
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1.0, 1.0, size=(200, 2))
    assert np.abs(ex.u(pts)).max() == 0.0
    assert np.abs(ex.grad_p(pts) - ex.f(pts)).max() <= 1e-14
    assert abs(ex.levelset.value(np.array([[0.5, 0.0]]))[0]) <= 1e-14


# ---------------------------------------------------------------------------
# rates


def test_compute_eoc():
    assert compute_eoc([1.0, 0.25], [1.0, 0.5]) == [2.0]
    assert compute_eoc([1.0, 0.125], [1.0, 0.5]) == [3.0]
    assert compute_eoc([1.0, 1.0, 1.0], [1.0, 0.5, 0.25]) == [0.0, 0.0]
    assert compute_eoc([1.0, 0.0], [1.0, 0.5]) == [None]
    # the rate is taken against the mesh sizes given, not a halving
    assert compute_eoc([2.25, 1.0], [3.0, 2.0]) == pytest.approx([2.0], rel=1e-15)
    with pytest.raises(ValueError, match="^2 errors but 3 mesh sizes$"):
        compute_eoc([1.0, 0.5], [1.0, 0.5, 0.25])


def test_fit_rate():
    hs = [0.3, 0.15, 0.075]
    errs = [7.0 * h ** 2.5 for h in hs]
    assert abs(fit_rate(hs, errs) - 2.5) <= 1e-12
    with pytest.raises(ValueError):
        fit_rate(hs, [1.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# config and tables


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(example=3)
    with pytest.raises(ValueError):
        StudyConfig(geom="quadratic")
    with pytest.raises(ValueError):
        StudyConfig(levels=0)
    with pytest.raises(ValueError, match="^h0 must be positive, got -0.1$"):
        StudyConfig(h0=-0.1)
    with pytest.raises(ValueError, match="gamma_n must be positive, got 0"):
        StudyConfig(gamma_n=0)
    # the fields would be written nowhere
    with pytest.raises(ValueError, match="vtk needs an output directory"):
        StudyConfig(vtk=True)
    # no Scott-Vogelius pair below k = 2, no multiplier space below degree 1,
    # no negative stabilization and no pool without workers
    for name, low, bad in (("k", 2, 1), ("k_lambda", 1, 0), ("workers", 1, 0),
                           ("gamma_gp", 0, -0.1), ("gamma_lambda", 0, -0.1)):
        with pytest.raises(ValueError, match=rf"^{name} must be at least {low}, got {bad}$"):
            StudyConfig(**{name: bad})
    StudyConfig(gamma_gp=0.0, gamma_lambda=0.0)
    # a non-finite size or weight is refused before the range checks
    for name in ("h0", "gamma_n", "gamma_gp", "gamma_lambda"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad}$"):
                StudyConfig(**{name: bad})


def test_result_row_validation():
    with pytest.raises(ValueError):
        ResultRow(lvl=0, h=0.3, l2u=float("nan"), h1u=1.0, l2p_star=1.0,
                  l2div=0.0, h1p_star=1.0)
    with pytest.raises(ValueError):
        ResultRow(lvl=0, h=0.3, l2u=1.0, h1u=-1.0, l2p_star=1.0, l2div=0.0,
                  h1p_star=1.0)
    with pytest.raises(ValueError, match="^h1p_star = nan is not a finite error$"):
        ResultRow(lvl=0, h=0.3, l2u=1.0, h1u=1.0, l2p_star=1.0, l2div=0.0,
                  h1p_star=float("nan"))
    # the condition estimate alone may be missing
    assert np.isnan(ResultRow(lvl=0, h=0.3, l2u=1.0, h1u=1.0, l2p_star=1.0,
                              l2div=0.0, h1p_star=1.0).cond_estimate)


def test_config_roundtrip(tmp_path):
    # every field off its default: the int, float, bool and str parsing; only
    # a line that starts with # is a comment, so the path keeps its #
    cfg = StudyConfig(example=2, k=3, k_lambda=2, h0=0.25, levels=3,
                      gamma_n=25.0, gamma_gp=0.5, gamma_lambda=0.2, geom="p1",
                      with_condest=True, out=str(tmp_path / "run#1"), vtk=True, workers=2)
    off = [f.name for f in fields(StudyConfig) if getattr(cfg, f.name) == f.default]
    assert not off, off
    path = str(tmp_path / "study.cfg")
    write_config(path, cfg)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write("  # a comment line\n" + text)
    assert read_config(path) == cfg


@pytest.mark.parametrize("key, value", [("volume_order", "0"), ("seed", "24301")],
                         ids=["volume_order", "seed"])
def test_config_rejects_removed_key(tmp_path, key, value):
    # a manifest that still sets a derived quadrature order, or the seed of
    # the start vector of the old condition estimate, is refused
    path = str(tmp_path / "old.manifest")
    with open(path, "w") as fh:
        fh.write(f"example = 1\n{key} = {value}\n")
    with pytest.raises(ValueError, match=f":2: unknown key '{key}'"):
        read_config(path)


def test_config_unknown_key(tmp_path):
    path = str(tmp_path / "bad.cfg")
    with open(path, "w") as fh:
        fh.write("example = 1\nbogus = 7\n")
    with pytest.raises(ValueError, match="bogus"):
        read_config(path)


def test_write_data_schema(tmp_path):
    rows = [ResultRow(lvl=0, h=0.3, l2u=1.0, h1u=2.0, l2p_star=3.0,
                      l2div=4e-12, h1p_star=5.0),
            ResultRow(lvl=1, h=0.15, l2u=0.1, h1u=0.5, l2p_star=0.8,
                      l2div=2e-12, h1p_star=2.0)]
    path = str(tmp_path / "t.data")
    write_data(path, rows)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "# lvl h l2u h1u l2p* l2d h1p*"
    assert len(lines) == 3
    cols = lines[1].split()
    assert len(cols) == 7
    assert int(cols[0]) == 0
    assert float(cols[1]) == 0.3
    # a finite condition estimate on any row adds the condest column
    write_data(path, [rows[0], replace(rows[1], cond_estimate=1e7)])
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "# lvl h l2u h1u l2p* l2d h1p* condest"
    assert len(lines[1].split()) == 8


def test_reproducible_outputs(tmp_path):
    tag = "converge_ex1_ho"
    out = str(tmp_path / "run")
    names = [f"{tag}.data", f"{tag}.manifest"]
    run_convergence(StudyConfig(example=1, levels=1, out=out))
    first = {n: open(os.path.join(out, n), "rb").read() for n in names}
    run_convergence(StudyConfig(example=1, levels=1, out=out))
    for n in names:
        assert open(os.path.join(out, n), "rb").read() == first[n]


# ---------------------------------------------------------------------------
# command line


def test_cli_converge(tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = cli_main(["converge", "--levels", "1", "--h0", "0.6",
                   "--out", out])
    assert rc == 0
    data = open(os.path.join(out, "converge_ex1_ho.data")).read()
    assert data.split("\n")[0] == "# lvl h l2u h1u l2p* l2d h1p*"
    table = capsys.readouterr().out
    assert "lvl" in table and "eoc" in table


def test_cli_noflow(tmp_path):
    # the six-lobed star is resolved from h0 = 0.15 on
    out = str(tmp_path / "run")
    rc = cli_main(["converge", "--example", "2", "--h0", "0.15", "--levels", "1",
                   "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "noflow_lm1.data"))


def test_cli_noflow_unresolved_at_default_h0(tmp_path):
    # at the default h0 = 0.3 the root at an inner tip of the star is out of
    # reach: the run stops and names the node
    with pytest.raises(GeometryError, match="node 231 at"):
        cli_main(["converge", "--example", "2", "--levels", "1",
                  "--out", str(tmp_path / "run")])


def test_cli_flags_per_subcommand():
    # each subcommand takes only the flags its driver reads
    declared = {
        "converge": {"--config", "--example", "--levels", "--k", "--k-lambda", "--h0",
                     "--geom", "--gamma-n", "--gamma-gp", "--gamma-lambda", "--out",
                     "--vtk", "--condest"},
        "sweep": {"--config", "--k", "--k-lambda", "--h0", "--geom", "--gamma-n",
                  "--gamma-gp", "--gamma-lambda", "--out", "--workers", "--shifts"},
        "dump-geom": {"--config", "--example", "--k", "--h0", "--geom", "--out",
                      "--level"},
    }
    sub, = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == declared
    assert sum(map(len, got.values())) == 31


@pytest.mark.parametrize("argv", [["sweep", "--example", "2"], ["sweep", "--levels", "3"],
                                  ["converge", "--workers", "2"],
                                  ["dump-geom", "--gamma-n", "7"],
                                  ["converge", "--vtk"], ["noflow"],
                                  ["converge", "--k", "1"], ["sweep", "--workers", "0"],
                                  ["converge", "--gamma-gp", "-0.1"],
                                  ["converge", "--gamma-n", "nan"],
                                  ["converge", "--gamma-gp", "inf"],
                                  ["converge", "--gamma-lambda", "nan"],
                                  ["converge", "--h0", "nan"],
                                  ["sweep", "--shifts", "0"],
                                  ["dump-geom", "--level", "-1"]])
def test_cli_usage_errors(argv, monkeypatch):
    # a flag the subcommand does not read, a VTK dump with nowhere to go, the
    # removed `noflow`, a config `StudyConfig` refuses, no shift step and a
    # negative level are usage errors, refused before anything runs
    def never(*args, **kwargs):
        raise AssertionError("a driver started")

    for name in ("run_convergence", "run_interface_sweep", "build_geometry"):
        monkeypatch.setattr(cli, name, never)
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2


def test_cli_dump_geom(tmp_path):
    out = str(tmp_path / "geom")
    rc = cli_main(["dump-geom", "--h0", "0.3", "--out", out])
    assert rc == 0
    prefix = os.path.join(out, "geom_ex1_ho_lvl0")
    assert os.path.exists(prefix + "_mesh.vtk")
    lines = open(prefix + "_interface.data").read().strip().split("\n")
    assert lines[0] == "# x y nx ny w"
    body = np.array([[float(c) for c in ln.split()] for ln in lines[1:]])
    # weights positive, normals unit to the printed precision
    assert (body[:, 4] > 0).all()
    assert np.abs(np.hypot(body[:, 2], body[:, 3]) - 1).max() <= 1e-9
    # the points are the mapped interface quadrature points
    quad = build_geometry(StudyConfig(h0=0.3), exact_example1().levelset, 0.3)
    r = quad.interface_rule
    want = quad.mapping.phys(r.elems, r.xhat).reshape(-1, 2)
    printed = [["%.10e" % v for v in x] for x in want]
    assert [ln.split()[:2] for ln in lines[1:]] == printed


def test_sweep_shift_matches_solve_level_system():
    # shift index 1 of 2 is x0 = 0, the unshifted quartic of example 1
    cfg = StudyConfig()
    _, x0, kappa = _sweep_one((cfg, 1, 0.3, 2))
    assert x0 == 0.0
    _, state = solve_level(replace(cfg, h0=0.3), 0)
    assert kappa == condition_estimate(PenaltyFactor(state.system))


def test_sweep_mirrored_shifts_equal_kappa():
    # shifts 0 and 2 of 2 are x0 = -0.2 and 0.2: the point reflection
    # (x, y) -> (-x, -y) maps the mesh onto itself and one shifted quartic
    # onto the other, so the two saddle matrices differ only in dof order
    cfg = StudyConfig()
    _, x_left, k_left = _sweep_one((cfg, 0, 0.3, 2))
    _, x_right, k_right = _sweep_one((cfg, 2, 0.3, 2))
    assert x_left == -x_right == -0.2
    assert abs(k_left - k_right) <= 1e-12 * k_right


def test_sweep_k4_applies_judged_by_backward_error():
    # at k = 4 the estimate's inverse applies solve for Lanczos vectors along
    # the smallest modes, |x| up to 1.8e6 |b|: backward stable, but with a
    # relative residual above RESIDUAL_TOL (1.8e-9), which rejected them
    out = run_interface_sweep(StudyConfig(k=4), h=0.3, n=2)
    kappas = [kappa for _, _, kappa in out]
    assert np.isfinite(kappas).all()
    assert abs(kappas[0] - kappas[2]) <= 1e-9 * kappas[2]


def test_cli_sweep(tmp_path):
    out = str(tmp_path / "sweep")
    rc = cli_main(["sweep", "--shifts", "2", "--h0", "0.25", "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "sweep.data")).read().strip().split("\n")
    assert lines[0] == "# i x kappa"
    assert len(lines) == 4
    kappas = [float(ln.split()[2]) for ln in lines[1:]]
    assert all(np.isfinite(k) and k > 0 for k in kappas)
    # the manifest records the mesh size the sweep ran at, so it reproduces
    manifest = os.path.join(out, "sweep.manifest")
    assert read_config(manifest).h0 == 0.25
    again = str(tmp_path / "again")
    rc = cli_main(["sweep", "--config", manifest, "--shifts", "2", "--out", again])
    assert rc == 0
    assert filecmp.cmp(os.path.join(out, "sweep.data"),
                       os.path.join(again, "sweep.data"), shallow=False)


def test_cli_sweep_mesh_size_source(tmp_path, monkeypatch):
    # --h0, else the h0 line of the config file, else 0.1; no solve runs
    seen = []

    def record(cfg, h, n):
        seen.append(h)
        return [(0, 0.0, 1.0)]

    monkeypatch.setattr(cli, "run_interface_sweep", record)
    bare, with_h0 = tmp_path / "bare.cfg", tmp_path / "h0.cfg"
    bare.write_text("example = 1\nlevels = 2\n")
    with_h0.write_text("h0 = 0.25\n")
    for extra in ([], ["--config", str(bare)], ["--config", str(with_h0)],
                  ["--config", str(with_h0), "--h0", "0.2"], ["--h0", "0.2"]):
        assert cli_main(["sweep", "--shifts", "1"] + extra) == 0
    assert seen == [0.1, 0.1, 0.25, 0.2, 0.2]


def test_sweep_manifest_records_run_mesh_size(tmp_path):
    # h is an argument of the sweep, not the config's h0
    out = str(tmp_path / "sweep")
    run_interface_sweep(StudyConfig(h0=0.3, out=out), h=0.25, n=1)
    assert read_config(os.path.join(out, "sweep.manifest")).h0 == 0.25


def test_sweep_rejects_other_examples(tmp_path, monkeypatch):
    # the sweep shifts example 1's interface: another example is refused
    # before any shift runs, not swept as example 1 under its name
    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(harness, "_sweep_one", never)
    cfg = StudyConfig(example=2, out=str(tmp_path / "sweep"))
    with pytest.raises(ValueError, match="got example = 2"):
        run_interface_sweep(cfg, h=0.25, n=1)
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("n", [0, -1])
def test_sweep_rejects_no_shift_steps(tmp_path, monkeypatch, n):
    # refused before any shift runs or the worker pool starts
    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(harness, "_sweep_one", never)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", never)
    for workers in (1, 2):
        cfg = StudyConfig(workers=workers, out=str(tmp_path / "sweep"))
        with pytest.raises(ValueError, match=f"n = {n}"):
            run_interface_sweep(cfg, h=0.25, n=n)
    assert not (tmp_path / "sweep").exists()


def test_cli_config_file(tmp_path):
    cfgpath = str(tmp_path / "base.cfg")
    out = str(tmp_path / "run")
    write_config(cfgpath, StudyConfig(example=1, levels=1, h0=0.6))
    rc = cli_main(["converge", "--config", cfgpath, "--geom", "p1",
                   "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "converge_ex1_p1.data"))
    got = read_config(os.path.join(out, "converge_ex1_p1.manifest"))
    assert got.h0 == 0.6 and got.geom == "p1" and got.levels == 1


def _vtk_block(lines, head, n):
    """The n rows after the line `head` of a legacy VTK file, as floats."""
    i = lines.index(head) + 1
    return np.array([[float(c) for c in ln.split()] for ln in lines[i:i + n]])


def test_write_vtk(tmp_path):
    # example 1, level 0: 144 active children, 6 lattice points and 4
    # triangles each for k = 2
    _, state = solve_level(StudyConfig(levels=1), 0)
    path = str(tmp_path / "lvl0.vtk")
    write_vtk(path, state)
    lines = open(path).read().split("\n")
    assert "POINTS 864 double" in lines
    assert "CELLS 576 2304" in lines
    elems = state.quad.sets.active_children
    assert elems.size == 144
    xhat = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
                     [0.0, 0.5], [0.5, 0.5], [0.0, 1.0]])
    u = state.uh.at(elems, xhat)[0].reshape(-1, 2)
    p = state.pstar.at(elems, xhat, derivs=False)[0].ravel()
    # the file prints %.10e
    vel = _vtk_block(lines, "VECTORS velocity double", 864)
    assert np.array_equal(vel[:, 2], np.zeros(864))
    np.testing.assert_allclose(vel[:, :2], u, rtol=1e-9, atol=0)
    pres = _vtk_block(lines, "LOOKUP_TABLE default", 864)[:, 0]
    np.testing.assert_allclose(pres, p, rtol=1e-9, atol=0)


def test_write_vtk_samples_fluid_children(tmp_path):
    # example 1, level 1: p* is defined on the 584 children that meet the
    # fluid, so only those are written, not all 594 active ones
    _, state = solve_level(StudyConfig(levels=2), 1)
    path = str(tmp_path / "lvl1.vtk")
    write_vtk(path, state)
    lines = open(path).read().split("\n")
    assert "POINTS 3504 double" in lines
    assert "CELLS 2336 9344" in lines
    assert "POINT_DATA 3504" in lines


# ---------------------------------------------------------------------------
# the example-1 study and the no-flow comparison

# example 1, ho, levels 0-1: the norms before the element-array evaluation
PINNED_NORMS = (
    {"l2u": 0.1308798429623409, "h1u": 2.3016201151239906,
     "l2p_star": 1.7495228724654577, "h1p_star": 10.64967771352964},
    {"l2u": 0.019431223897440786, "h1u": 0.7518572212855871,
     "l2p_star": 0.684135459454699, "h1p_star": 6.687732952410549},
)


def test_study_norms_pinned(ex1_ho_study):
    for row, want in zip(ex1_ho_study, PINNED_NORMS):
        for name, ref in want.items():
            got = getattr(row, name)
            assert abs(got - ref) <= 1e-10 * ref, (row.lvl, name, got, ref)


def test_study_mesh_sizes(ex1_ho_study):
    # each row carries the pitch of its background mesh: 7, 14, 27, 54 and
    # 107 cells on a side of 2 for h0 = 0.3, not 0.3 / 2**lvl
    assert [r.h for r in ex1_ho_study] == [2 / n for n in (7, 14, 27, 54, 107)]


def test_study_rates(ex1_ho_study):
    # k=2: L2 velocity k+1, H1 velocity k, divergence at round-off (<= 3.8e-14
    # measured; a solve stopped on the global residual gives 9e-13 at level 4)
    rows = ex1_ho_study
    assert all(r.l2div <= 2e-13 for r in rows), [r.l2div for r in rows]
    hs = [r.h for r in rows]
    l2 = compute_eoc([r.l2u for r in rows], hs)[1:]
    h1 = compute_eoc([r.h1u for r in rows], hs)[1:]
    assert len(l2) == 3
    assert min(l2) >= 2.7, l2
    assert min(h1) >= 1.8, h1


def test_multiplier_degree_pressure_robustness():
    # no-flow case (u = 0, f = grad p): the velocity error is pure pressure
    # pollution, and the degree-2 multiplier must keep it smaller and let it
    # fall faster (EOC 4.34 and 4.65 against the mesh pitch, ratio 17.9 at
    # level 2 measured)
    rows = {kl: run_convergence(StudyConfig(example=2, k_lambda=kl, h0=0.15, levels=3))
            for kl in (1, 2)}
    l2u = {kl: [r.l2u for r in rows[kl]] for kl in rows}
    assert all(b < a for a, b in zip(l2u[1], l2u[2])), l2u
    eoc = compute_eoc(l2u[2], [r.h for r in rows[2]])
    assert min(eoc) >= 3.8, eoc
    assert l2u[1][2] >= 10 * l2u[2][2], l2u
