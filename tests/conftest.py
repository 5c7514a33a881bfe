import numpy as np
import pytest

from cutstokes.meshing import build_background_mesh, alfeld_split, classify_elements
from cutstokes.geometry import (GeometryError, LevelSet, interpolate_p1,
                                build_deformation, build_quadratures)
from cutstokes.harness import StudyConfig, exact_example1, solve_level


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
