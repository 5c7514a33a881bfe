import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutstokes.meshing import (_orientations, alfeld_split, build_background_mesh,
                               classify_elements)
from cutstokes.geometry import (GeometryError, LevelSet, interpolate_p1,
                                build_deformation, build_quadratures)
from cutstokes.harness import StudyConfig, exact_example1, solve_level
from cutstokes.solver import SEED, _rayleigh_iterate


def quartic_levelset() -> LevelSet:
    return LevelSet(lambda p: p[:, 0] ** 4 + p[:, 1] ** 4 - 0.25,
                    lambda p: np.column_stack([4 * p[:, 0] ** 3, 4 * p[:, 1] ** 3]),
                    name="quartic")


def circle_levelset(r: float) -> LevelSet:
    return LevelSet(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - r * r,
                    lambda p: 2 * p, name="circle")


def build_case(ls: LevelSet, h: float, k: int, box=(-1, 1, -1, 1)):
    mesh = build_background_mesh(box, h)
    am = alfeld_split(mesh)
    phi = interpolate_p1(ls, am)
    sets = classify_elements(am, phi)
    defo = build_deformation(ls, phi, am, sets, k)
    quad = build_quadratures(am, sets, phi, defo)
    return am, phi, sets, defo, quad


def inverse_map(mapping, e: int, x: np.ndarray,
                xhat0: np.ndarray | None = None) -> np.ndarray:
    """Reference coordinates of a physical point on child `e` by Newton
    iteration: the test oracle for `MappingData.phys`."""
    x = np.asarray(x, dtype=float)
    xh = np.array([1 / 3, 1 / 3]) if xhat0 is None else np.array(xhat0, dtype=float)
    for _ in range(40):
        r = mapping.phys(e, xh[None, :])[0] - x
        if np.linalg.norm(r) <= 1e-13 * max(1.0, np.linalg.norm(x)):
            return xh
        F, _ = mapping.jacobians(e, xh[None, :])
        xh = xh - np.linalg.solve(F[0], r)
    raise GeometryError(f"inverse map did not converge on element {e}")


def gradient_fd_error(ls: LevelSet, pts: np.ndarray, step: float = 1e-6) -> float:
    """Max relative mismatch between `ls.gradient` and central differences."""
    pts = np.atleast_2d(pts)
    g = ls.gradient(pts)
    fd = np.empty_like(g)
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = step
        fd[:, j] = (ls.value(pts + dp) - ls.value(pts - dp)) / (2 * step)
    scale = np.maximum(np.linalg.norm(g, axis=1), 1e-12)
    return float((np.linalg.norm(g - fd, axis=1) / scale).max())


def eval_ref(phi, e: int, xhat: np.ndarray) -> np.ndarray:
    """Values of the P1 level set `phi` at reference coordinates of child e."""
    v = phi.child_values(e)
    xhat = np.atleast_2d(xhat)
    return v[0] * (1 - xhat[:, 0] - xhat[:, 1]) + v[1] * xhat[:, 0] + v[2] * xhat[:, 1]


def child_areas(am) -> np.ndarray:
    """Signed areas of the Alfeld children."""
    return 0.5 * _orientations(am.vertices, am.children)


def boundary_dofs(vs) -> np.ndarray:
    """Velocity dofs of the nodes lying on the boundary of the active mesh."""
    ids = [vs.node_set.facet_nodes(vs.am, int(fid))
           for fid in vs.sets.active_boundary_facets]
    gids = np.unique(np.concatenate(ids)) if ids else np.array([], dtype=np.int64)
    cg = vs._comp[gids]
    cg = cg[cg >= 0]
    return np.concatenate([2 * cg, 2 * cg + 1])


def whole_condition_estimate(M, seed: int = SEED) -> float:
    """kappa of a plain symmetric matrix by the iterations of
    `condition_estimate`, with the inverse power steps through an LU of the
    whole matrix: the oracle for the saddle path."""
    M = sp.csc_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    v0 = np.random.default_rng(seed).standard_normal(M.shape[0])
    lam_max = _rayleigh_iterate(lambda v: M @ v, M, v0, "power")
    lam_min = _rayleigh_iterate(spla.splu(M).solve, M, v0, "inverse power")
    return abs(lam_max) / abs(lam_min)


def pinned_factor(system):
    """LU of the (u, p, lambda) block K of a `SaddleSystem` with row and
    column i = n_u + n_p (the first multiplier dof) replaced by e_i, and the
    null vector z of K with z_i = 1 that one more solve gives: the oracle
    for the assembled kernel and for the fill of the penalty factor."""
    M = sp.csc_matrix(system.matrix)
    n = M.shape[0] - 1
    i = system.n_u + system.n_p
    K = M[:n, :n].tocoo()
    free = (K.row != i) & (K.col != i)
    pinned = sp.csc_matrix(
        (np.append(K.data[free], 1.0),
         (np.append(K.row[free], i), np.append(K.col[free], i))),
        shape=(n, n))
    lu = spla.splu(pinned)
    r = -M[:n, [i]].toarray().ravel()
    r[i] = 1.0
    return lu, lu.solve(r)


@pytest.fixture(scope="session")
def quartic_case_h03():
    """Quartic level set on the coarse mesh, k=2: the workhorse configuration."""
    return build_case(quartic_levelset(), 0.3, 2)


@pytest.fixture(scope="session")
def quartic_case_h015():
    return build_case(quartic_levelset(), 0.15, 2)


# ---------------------------------------------------------------------------
# the full study, shared across test modules and computed once per session


@pytest.fixture(scope="session")
def ex1_ho_study():
    """Example 1, high-order geometry, all five levels: the ResultRows."""
    cfg = StudyConfig(example=1, levels=5)
    exact = exact_example1()
    return [solve_level(cfg, lvl, exact)[0] for lvl in range(cfg.levels)]
