"""Study drivers: convergence tables, the no-flow comparison, the
interface-shift conditioning sweep, and their file output.

Each driver consumes a flat `StudyConfig` and emits `ResultRow`s plus
plain-text `.data` tables (whitespace separated, gnuplot friendly).  Output
is deterministic: identical configs reproduce identical files byte for byte.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .forms import build_saddle_system
from .geometry import (REF_VERTS, CutQuadrature, IsoDeformation, LevelSet,
                       build_deformation, build_quadratures, interpolate_p1)
from .meshing import alfeld_split, build_background_mesh, classify_elements
from .postprocess import recover_pressure
from .reference import lattice
from .solver import PenaltyFactor, condition_estimate, solve_saddle
from .spaces import ScalarField, VelocityField, VelocitySpace

__all__ = [
    "ExactCase", "StudyConfig", "ResultRow", "LevelState",
    "exact_example1", "exact_example2", "build_geometry", "assemble_level",
    "solve_level", "run_convergence", "run_interface_sweep", "compute_eoc",
    "write_data", "write_config", "write_vtk",
    "write_geometry",
]


@dataclass(frozen=True)
class ExactCase:
    """Closed-form data of one manufactured problem (viscosity 1).  A level
    whose mesh does not resolve the interface raises `GeometryError`, so
    example 2 starts its study at h0 = 0.15."""

    levelset: LevelSet
    u: callable
    grad_u: callable
    p: callable
    grad_p: callable
    f: callable


def _powers(x: np.ndarray):
    """(x, y), (x^2, y^2), (x^3, y^3) and (x^4, y^4) of points (n, 2), by
    products."""
    t = x.T
    t2 = t * t
    return t, t2, t2 * t, t2 * t2


def exact_example1() -> ExactCase:
    """Rotational flow tangential to the quartic interface x^4+y^4=1/4.

    u is the rotated gradient of a function of x^4+y^4, hence divergence
    free and tangential to every level line; f = -lap(u) + grad(p) with the
    derivatives expanded by hand below.

    Powers are built by products from those of `_powers`: numpy's `t ** n`
    calls libm `pow` per element for most n, which made these closed forms
    the costliest part of the volume passes.
    """

    def phi(x):
        *_, (X4, Y4) = _powers(x)
        return X4 + Y4 - 0.25

    def dphi(x):
        _, _, (X3, Y3), _ = _powers(x)
        return np.column_stack([4.0 * X3, 4.0 * Y3])

    def u(x):
        _, _, (X3, Y3), (X4, Y4) = _powers(x)
        c = np.cos(2.0 * np.pi * (X4 + Y4))
        return np.column_stack([4.0 * Y3 * c, -4.0 * X3 * c])

    def grad_u(x):
        _, (X2, Y2), (X3, Y3), (X4, Y4) = _powers(x)
        r = X4 + Y4
        c = np.cos(2.0 * np.pi * r)
        s = np.sin(2.0 * np.pi * r)
        g = np.empty((x.shape[0], 2, 2))
        g[:, 0, 0] = -32.0 * np.pi * X3 * Y3 * s
        g[:, 0, 1] = 12.0 * Y2 * c - 32.0 * np.pi * (Y3 * Y3) * s
        g[:, 1, 0] = -12.0 * X2 * c + 32.0 * np.pi * (X3 * X3) * s
        g[:, 1, 1] = -g[:, 0, 0]        # 32 pi x^3 y^3 s: div u = 0
        return g

    def p(x):
        (X, Y), _, (X3, Y3), _ = _powers(x)
        return np.sin(np.pi * X * Y) + X3 + Y3

    def grad_p(x):
        (X, Y), (X2, Y2), _, _ = _powers(x)
        c = np.cos(np.pi * X * Y)
        return np.column_stack([np.pi * Y * c + 3.0 * X2,
                                np.pi * X * c + 3.0 * Y2])

    def f(x):
        (X, Y), (X2, Y2), (X3, Y3), (X4, Y4) = _powers(x)
        X6, Y6 = X3 * X3, Y3 * Y3
        r = X4 + Y4
        c = np.cos(2.0 * np.pi * r)
        s = np.sin(2.0 * np.pi * r)
        # u1 = 4 y^3 cos(2 pi r):
        #   d2u1/dx2 = -96 pi x^2 y^3 s - 256 pi^2 x^6 y^3 c
        #   d2u1/dy2 = 24 y c - 288 pi y^5 s - 256 pi^2 y^9 c
        # u2(x, y) = -u1(y, x), so lap(u2)(x, y) = -lap(u1)(y, x).
        lap1 = (-96.0 * np.pi * X2 * Y3 * s
                - 256.0 * np.pi ** 2 * X6 * Y3 * c
                + 24.0 * Y * c - 288.0 * np.pi * (Y4 * Y) * s
                - 256.0 * np.pi ** 2 * (Y6 * Y3) * c)
        lap2 = -(-96.0 * np.pi * Y2 * X3 * s
                 - 256.0 * np.pi ** 2 * Y6 * X3 * c
                 + 24.0 * X * c - 288.0 * np.pi * (X4 * X) * s
                 - 256.0 * np.pi ** 2 * (X6 * X3) * c)
        gp = grad_p(x)
        return np.column_stack([-lap1 + gp[:, 0], -lap2 + gp[:, 1]])

    return ExactCase(LevelSet(phi, dphi), u, grad_u, p, grad_p, f)


def exact_example2() -> ExactCase:
    """No-flow problem on a smoothed six-pointed star: u=0, f = grad p.

    The mesh resolves the star from h0 = 0.15 on (at h0 = 0.3 the root at
    an inner tip, r = 0.5, is out of reach), so its table is
    `converge --example 2 --h0 0.15 --levels 4`.  p = x^5 + y^5 is formed
    by products, as in `exact_example1`.
    """

    def phi(x):
        r = np.hypot(x[:, 0], x[:, 1])
        th = np.arctan2(x[:, 1], x[:, 0])
        return r - 0.7 + 0.2 * np.cos(6.0 * th)

    def dphi(x):
        r = np.hypot(x[:, 0], x[:, 1])
        th = np.arctan2(x[:, 1], x[:, 0])
        g = np.empty_like(x, dtype=float)
        # r -> 0 lies well inside the fluid; any unit vector does there
        safe = np.where(r < 1e-12, 1.0, r)
        s6 = np.sin(6.0 * th)
        g[:, 0] = x[:, 0] / safe + 1.2 * x[:, 1] * s6 / safe ** 2
        g[:, 1] = x[:, 1] / safe - 1.2 * x[:, 0] * s6 / safe ** 2
        g[r < 1e-12] = (1.0, 0.0)
        return g

    def u(x):
        return np.zeros_like(x, dtype=float)

    def grad_u(x):
        return np.zeros((x.shape[0], 2, 2))

    def p(x):
        (X, Y), _, _, (X4, Y4) = _powers(x)
        return X4 * X + Y4 * Y

    def grad_p(x):
        *_, (X4, Y4) = _powers(x)
        return np.column_stack([5.0 * X4, 5.0 * Y4])

    return ExactCase(LevelSet(phi, dphi), u, grad_u, p, grad_p, grad_p)


_EXAMPLES = {1: exact_example1, 2: exact_example2}

# background box (xmin, xmax, ymin, ymax) of every study
BOX = (-1.0, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class StudyConfig:
    example: int = 1
    k: int = 2
    k_lambda: int = 1
    h0: float = 0.3
    levels: int = 5
    gamma_n: float = 40.0
    gamma_gp: float = 0.1
    gamma_lambda: float = 0.1
    geom: str = "ho"
    with_condest: bool = False
    out: str = ""
    vtk: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.example not in _EXAMPLES:
            raise ValueError(f"unknown example id {self.example}")
        if self.geom not in ("ho", "p1"):
            raise ValueError(f"geometry mode must be 'ho' or 'p1', got {self.geom!r}")
        for name in ("h0", "gamma_n", "gamma_gp", "gamma_lambda"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name, low in (("levels", 1), ("k", 2), ("k_lambda", 1), ("workers", 1),
                          ("gamma_gp", 0), ("gamma_lambda", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("h0", "gamma_n"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.vtk and not self.out:
            raise ValueError("vtk needs an output directory, but out is empty")


@dataclass
class ResultRow:
    """The norms of one level; h is the pitch of its background mesh."""

    lvl: int
    h: float
    l2u: float
    h1u: float
    l2p_star: float
    l2div: float
    h1p_star: float
    cond_estimate: float = float("nan")

    def __post_init__(self):
        for name in ("l2u", "h1u", "l2p_star", "l2div", "h1p_star"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} = {v} is not a finite error")


@dataclass
class LevelState:
    """Everything built while solving one refinement level; the mesh, the
    element sets and the P1 level set are `quad.am`, `quad.sets` and
    `quad.phi_p1`, and the velocity space is `uh.space`.  `pstar` is the
    recovered pressure p* that `recover_pressure` returns, defined on the
    children that meet the fluid, `pstar.space.elements`."""

    exact: ExactCase
    quad: CutQuadrature
    system: object
    sol: object
    uh: VelocityField
    pstar: ScalarField


def build_geometry(cfg: StudyConfig, ls: LevelSet, h: float) -> CutQuadrature:
    """Cut geometry of the level set `ls` with mesh size h: background mesh,
    Alfeld split, P1 level set, classification, isoparametric deformation
    (the identity for geom="p1") and the quadrature rules."""
    am = alfeld_split(build_background_mesh(BOX, h))
    phi1 = interpolate_p1(ls, am)
    sets = classify_elements(phi1)
    if cfg.geom == "ho":
        defo = build_deformation(ls, phi1, sets, cfg.k)
    else:
        defo = IsoDeformation.identity(am, cfg.k)
    return build_quadratures(sets, phi1, defo)


def assemble_level(cfg: StudyConfig, quad: CutQuadrature, f=None):
    """The velocity space on `quad` and the saddle system that `build_saddle_system`
    assembles on it with cfg's settings and the load f.  Returns (vs, system)."""
    vs = VelocitySpace(quad.sets, quad.mapping, cfg.k)
    return vs, build_saddle_system(quad, vs, cfg.k_lambda, cfg.gamma_n, cfg.gamma_gp,
                                   cfg.gamma_lambda, f)


def solve_level(cfg: StudyConfig, lvl: int, exact: ExactCase | None = None):
    """Build, solve and post-process one level; returns (ResultRow, LevelState)."""
    if exact is None:
        exact = _EXAMPLES[cfg.example]()
    quad = build_geometry(cfg, exact.levelset, cfg.h0 / 2 ** lvl)
    vs, system = assemble_level(cfg, quad, exact.f)
    factor = PenaltyFactor(system)
    sol = solve_saddle(factor)
    cond = condition_estimate(factor) if cfg.with_condest else float("nan")
    del factor   # free the LU of W before the recovery factors its own

    uh = VelocityField(vs, sol.u)
    pstar = recover_pressure(quad, uh, exact.f, cfg.gamma_gp)
    state = LevelState(exact, quad, system, sol, uh, pstar)
    row = ResultRow(lvl=lvl, h=quad.am.macro.h, cond_estimate=cond,
                    **compute_errors(state))
    return row, state


def compute_errors(state: LevelState) -> dict:
    """Error norms on the cut rule of degree 2k+4 of the level's map and P1
    level set: L2/H1 over the fluid domain and the divergence over the whole
    active mesh.  The exact pressure is compared after removing its discrete
    mean, matching the zero-mean normalization of the recovered one."""
    exact, quad, k = state.exact, state.quad, state.uh.space.degree
    equad = build_quadratures(quad.sets, quad.phi_p1, quad.mapping, order=2 * k + 4)
    mp = equad.mapping

    area = vol_p = 0.0
    l2u = h1u = l2p = h1p = 0.0
    for elems, xh, w in equad.volume_groups():
        wj = (w * mp.jacobians(elems, xh)[1]).ravel()
        x = mp.phys(elems, xh).reshape(-1, 2)
        uv, ug, _ = state.uh.at(elems, xh)
        l2u += float(wj @ ((uv.reshape(-1, 2) - exact.u(x)) ** 2).sum(1))
        h1u += float(wj @ ((ug.reshape(-1, 2, 2) - exact.grad_u(x)) ** 2).sum((1, 2)))
        pv, pg = state.pstar.at(elems, xh)
        dp = exact.p(x) - pv.ravel()
        area += float(wj.sum())
        vol_p += float(wj @ dp)
        l2p += float(wj @ dp ** 2)
        h1p += float(wj @ ((pg.reshape(-1, 2) - exact.grad_p(x)) ** 2).sum(1))
    shift = vol_p / area
    # ||p* - (p - mean)||^2 = ||p* - p||^2 - area * mean^2 by orthogonality
    l2p = max(l2p - area * shift ** 2, 0.0)

    l2d = 0.0
    # on an undeformed child |div u_h|^2 is a polynomial of degree 2k - 2
    for elems, xh, w in equad.bulk_groups(2 * k - 2):
        _, _, dv = state.uh.at(elems, xh)
        l2d += float(((w * mp.jacobians(elems, xh)[1]) * dv ** 2).sum())

    return {"l2u": np.sqrt(l2u), "h1u": np.sqrt(h1u),
            "l2p_star": np.sqrt(l2p), "h1p_star": np.sqrt(h1p),
            "l2div": np.sqrt(l2d)}


def run_convergence(cfg: StudyConfig):
    """Solve all levels of one study; writes tables when cfg.out is set."""
    exact = _EXAMPLES[cfg.example]()
    rows = []
    for lvl in range(cfg.levels):
        row, state = solve_level(cfg, lvl, exact)
        rows.append(row)
        if cfg.vtk:
            os.makedirs(cfg.out, exist_ok=True)
            write_vtk(os.path.join(cfg.out, f"{_study_tag(cfg)}_lvl{lvl}.vtk"),
                      state)
        del state
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        write_data(os.path.join(cfg.out, f"{_study_tag(cfg)}.data"), rows)
        write_config(os.path.join(cfg.out, f"{_study_tag(cfg)}.manifest"), cfg)
    return rows


def _study_tag(cfg: StudyConfig) -> str:
    if cfg.example == 2:
        return f"noflow_lm{cfg.k_lambda}"
    return f"converge_ex{cfg.example}_{cfg.geom}"


def _sweep_one(args) -> tuple[int, float, float]:
    cfg, i, h, n = args
    x0 = -0.2 + 0.4 * i / n
    ls, s = exact_example1().levelset, np.array([x0, 0.0])
    shifted = LevelSet(lambda p: ls.value(p - s), lambda p: ls.gradient(p - s))
    _, system = assemble_level(cfg, build_geometry(cfg, shifted, h))
    kappa = condition_estimate(PenaltyFactor(system))
    return i, x0, kappa


def run_interface_sweep(cfg: StudyConfig, h: float, n: int):
    """Condition numbers for n+1 horizontal shifts of the quartic interface.

    Returns the list of (index, shift, kappa) tuples ordered by index; the
    shifts are independent, so they fan out over cfg.workers processes.  The
    manifest records the mesh size h as `h0`.
    """
    if cfg.example != 1:
        raise ValueError(f"the sweep shifts the interface of example 1, "
                         f"got example = {cfg.example}")
    if n < 1:
        raise ValueError(f"the sweep needs n >= 1 shift steps, got n = {n}")
    items = [(cfg, i, h, n) for i in range(n + 1)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            out = list(pool.map(_sweep_one, items))
    else:
        out = [_sweep_one(it) for it in items]
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        lines = ["# i x kappa"]
        lines += [f"{i} {_fmt(x0)} {_fmt(k)}" for i, x0, k in out]
        _write_text(os.path.join(cfg.out, "sweep.data"), lines)
        write_config(os.path.join(cfg.out, "sweep.manifest"), replace(cfg, h0=h))
    return out


def compute_eoc(errors, hs) -> list:
    """Rates log(e_i / e_i+1) / log(h_i / h_i+1) of consecutive errors at
    mesh sizes hs; None where a zero error makes the rate undefined."""
    errors, hs = list(errors), list(hs)
    if len(errors) != len(hs):
        raise ValueError(f"{len(errors)} errors but {len(hs)} mesh sizes")
    return [float(np.log(a / b) / np.log(ha / hb)) if a > 0 and b > 0 else None
            for a, b, ha, hb in zip(errors[:-1], errors[1:], hs[:-1], hs[1:])]


_FMT = "%.10e"


def _fmt(v: float) -> str:
    return _FMT % v


def _write_text(path: str, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# the study table: header, ResultRow field, console format and whether the
# console adds its EOC; columns are only appended, so their numbers keep
_STUDY_COLUMNS = (("lvl", "lvl", "4d", False),
                  ("h", "h", "10.4e", False),
                  ("l2u", "l2u", "11.4e", True),
                  ("h1u", "h1u", "11.4e", True),
                  ("l2p*", "l2p_star", "11.4e", True),
                  ("l2d", "l2div", "10.2e", False),
                  ("h1p*", "h1p_star", "11.4e", True))


def _study_columns(rows) -> tuple:
    """The study columns of `rows`, condest last when a row has an estimate."""
    if any(np.isfinite(r.cond_estimate) for r in rows):
        return _STUDY_COLUMNS + (("condest", "cond_estimate", "11.4e", False),)
    return _STUDY_COLUMNS


def write_data(path: str, rows) -> None:
    """The study table `lvl h l2u h1u l2p* l2d h1p*`, then `condest` when a
    row has an estimate; floats are written as `_FMT`."""
    cols = _study_columns(rows)
    lines = ["# " + " ".join(head for head, *_ in cols)]
    for r in rows:
        vals = (getattr(r, field) for _, field, *_ in cols)
        lines.append(" ".join(str(v) if isinstance(v, int) else _fmt(v) for v in vals))
    _write_text(path, lines)


def write_config(path: str, cfg: StudyConfig) -> None:
    _write_text(path, [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)])


def _config_items(path: str) -> dict:
    """The fields a key=value file sets, parsed to their types."""
    by_name = {f.name: f for f in fields(StudyConfig)}
    kw = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in by_name:
                raise ValueError(f"{path}:{ln}: unknown key {key!r}")
            kw[key] = _parse_field(by_name[key].type, val)
    return kw


def _parse_field(ftype: str, val: str):
    if ftype == "int":
        return int(val)
    if ftype == "float":
        return float(val)
    if ftype == "bool":
        if val.lower() in ("true", "1", "yes"):
            return True
        if val.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {val!r}")
    return val


def _vtk_mesh(title: str, P: np.ndarray, T: np.ndarray) -> list:
    """Legacy ASCII VTK header, points and triangle cells."""
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {P.shape[0]} double"]
    lines += [f"{_fmt(x)} {_fmt(y)} 0.0" for x, y in P]
    lines.append(f"CELLS {T.shape[0]} {4 * T.shape[0]}")
    lines += [f"3 {a} {b} {c}" for a, b, c in T]
    lines.append(f"CELL_TYPES {T.shape[0]}")
    lines += ["5"] * T.shape[0]
    return lines


def write_vtk(path: str, state: LevelState) -> None:
    """Legacy ASCII VTK dump of u_h and p* on the children where p* is
    defined, those that meet the fluid, each sampled on its degree-k lattice
    (points are duplicated across cells)."""
    xhat, tloc = lattice(state.uh.space.degree)
    elems = state.pstar.space.elements
    P = state.quad.mapping.phys(elems, xhat).reshape(-1, 2)
    U = state.uh.at(elems, xhat)[0].reshape(-1, 2)
    Q = state.pstar.at(elems, xhat, derivs=False)[0].ravel()
    cells = tloc + xhat.shape[0] * np.arange(elems.size)[:, None, None]

    lines = _vtk_mesh("cutstokes fields", P, cells.reshape(-1, 3))
    lines.append(f"POINT_DATA {P.shape[0]}")
    lines.append("VECTORS velocity double")
    lines += [f"{_fmt(a)} {_fmt(b)} 0.0" for a, b in U]
    lines.append("SCALARS pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [_fmt(v) for v in Q]
    _write_text(path, lines)


def write_geometry(path_prefix: str, quad: CutQuadrature) -> None:
    """Geometry diagnostics: active mesh with its inside/cut classification
    as a VTK file, and the interface quadrature as an x y nx ny w table."""
    elems = quad.sets.active_children
    P = quad.mapping.phys(elems, REF_VERTS).reshape(-1, 2)
    T = np.arange(P.shape[0]).reshape(-1, 3)

    lines = _vtk_mesh("cutstokes geometry", P, T)
    lines.append(f"CELL_DATA {T.shape[0]}")
    lines.append("SCALARS classification int 1")
    lines.append("LOOKUP_TABLE default")
    lines += [str(c) for c in quad.sets.child_class[elems]]
    _write_text(path_prefix + "_mesh.vtk", lines)

    r = quad.interface_rule
    table = np.column_stack([quad.mapping.phys(r.elems, r.xhat).reshape(-1, 2),
                             r.normals.reshape(-1, 2), r.weights.ravel()])
    rows = ["# x y nx ny w"] + [" ".join(_fmt(v) for v in row) for row in table]
    _write_text(path_prefix + "_interface.data", rows)
