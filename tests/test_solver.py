import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutstokes import solver
from cutstokes.forms import SaddleSystem
from cutstokes.harness import StudyConfig, solve_level
from cutstokes.solver import (IterationError, PenaltyFactor,
                              SingularSystemError, condition_estimate,
                              solve_direct, solve_saddle)
from tests.conftest import areas, dense_condition_number, pinned_factor


def test_identity():
    M = sp.eye(7, format="csr")
    b = np.arange(7.0)
    assert np.array_equal(solve_direct(M, b), b)


def test_small_saddle():
    M = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
    x = solve_direct(M, np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, -1.0], atol=1e-14)


def test_spd_against_dense():
    rng = np.random.default_rng(11)
    R = rng.standard_normal((50, 50))
    M = R.T @ R + np.eye(50)
    b = rng.standard_normal(50)
    x = solve_direct(sp.csr_matrix(M), b)
    ref = np.linalg.solve(M, b)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_solve_direct_names_bad_input():
    # the first non-finite entry in column order, and both shapes
    M = sp.csr_matrix(np.array([[1.0, np.inf], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match=r"^system has non-finite entries, the first nan at \(1, 0\)$"):
        solve_direct(M, np.ones(2))
    with pytest.raises(ValueError, match=r"^matrix \(3, 3\) and right-hand side \(2,\) "
                                         r"disagree in shape$"):
        solve_direct(sp.eye(3, format="csr"), np.ones(2))


def test_singular_raises():
    M = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularSystemError):
        solve_direct(M, np.array([1.0, 0.0]))


def test_deterministic(ex1_level0):
    rng = np.random.default_rng(12)
    R = rng.standard_normal((40, 40))
    M = sp.csr_matrix(R.T @ R + np.eye(40))
    b = rng.standard_normal(40)
    x1 = solve_direct(M, b)
    x2 = solve_direct(M, b)
    assert np.array_equal(x1, x2)
    k1 = condition_estimate(PenaltyFactor(ex1_level0.system))
    k2 = condition_estimate(PenaltyFactor(ex1_level0.system))
    assert k1 == k2


def test_energy_identity():
    # on a symmetric system, x.M x = b.x
    rng = np.random.default_rng(14)
    R = rng.standard_normal((60, 60))
    M = sp.csr_matrix(R.T @ R + np.eye(60))
    b = rng.standard_normal(60)
    x = solve_direct(M, b)
    assert abs(x @ (M @ x) - b @ x) <= 1e-9 * abs(b @ x)


def test_saddle_residual_reported():
    _, st = solve_level(StudyConfig(example=1, levels=1, h0=0.6), 0)
    sol = solve_saddle(PenaltyFactor(st.system))
    assert sol.residual <= 1e-9
    x = np.concatenate([sol.u, sol.p, sol.lam, [sol.s]])
    r = st.system.rhs - st.system.matrix @ x
    assert np.linalg.norm(r) <= (sol.residual + 1e-15) * np.linalg.norm(st.system.rhs)


@pytest.fixture(scope="module")
def ex1_level0():
    return solve_level(StudyConfig(example=1, levels=1), 0)[1]


def _relerr(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def test_saddle_factor_null_vector(ex1_level0):
    system = ex1_level0.system
    z_p = system.z_p
    z = np.concatenate([np.zeros(system.n_u), z_p, np.ones(system.n_m)])
    K = system.matrix[:-1, :-1]
    assert np.linalg.norm(K @ z) <= 1e-12 * np.linalg.norm(abs(K) @ abs(z))
    # z_p is the pressure projection of the fluid indicator, so the mean row
    # integrates it to the fluid area (up to the interface rule, which sets
    # z, against the volume rule); it is not constant and changes sign
    mean = system.mean
    area = areas(ex1_level0.quad)[0]
    assert abs(mean @ z_p - area) <= 1e-3 * area
    assert z_p.min() < 0.0 < z_p.max()


def _bordered(A, B, C, J, mean, z_p=None):
    csr = [sp.csr_matrix(np.array(X, dtype=float)) for X in (A, B, C, J)]
    n_u, n_p, n_m = len(A), len(B), len(C)
    z_p = np.zeros(n_p) if z_p is None else np.array(z_p, dtype=float)
    rhs = np.concatenate([np.ones(n_u), np.zeros(n_p + n_m + 1)])
    return SaddleSystem(*csr, np.array(mean, dtype=float), rhs, z_p,
                        sp.eye(n_p, format="csr"), n_u, n_p, n_m)


def test_penalty_rejects_kernel_on_zero_columns():
    # K keeps more null vectors than z: zero pressure and multiplier rows.
    # z meets only zero columns of K, so |Kz| = |K||z| = 0 passes the kernel
    # check, and the singular W is rejected
    system = _bordered([[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]],
                       [[0, 0], [0, 0]], [1, 1], z_p=[1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularSystemError,
                           match="singular penalty velocity-multiplier block"):
            PenaltyFactor(system)


def test_condition_estimate_saddle_path(ex1_level0):
    system = ex1_level0.system
    dense = dense_condition_number(system.matrix)
    saddle = condition_estimate(PenaltyFactor(system))
    assert abs(saddle - dense) <= 1e-9 * dense


def test_condest_applies_stop_at_the_estimate_accuracy(ex1_level0, monkeypatch):
    # each inverse apply stops once the predicted next correction is below
    # 1e-12 |x|, not at the halving stop's floor (164 steps)
    steps, step = [], PenaltyFactor.step
    monkeypatch.setattr(PenaltyFactor, "step",
                        lambda self, r: steps.append(1) or step(self, r))
    kappa = condition_estimate(PenaltyFactor(ex1_level0.system))
    assert len(steps) <= 100, len(steps)
    assert abs(kappa - 447955.52149) <= 1e-9 * kappa


def test_condest_factors_saddle_once_per_level(monkeypatch):
    shapes = []
    splu = spla.splu

    def counting(M, *args, **kw):
        shapes.append(M.shape[0])
        return splu(M, *args, **kw)

    monkeypatch.setattr(spla, "splu", counting)
    cfg = StudyConfig(example=1, levels=2, with_condest=True)
    for lvl, kappa in ((0, 447955.52149), (1, 1240227.21040)):
        shapes.clear()
        row, st = solve_level(cfg, lvl)
        system = st.system
        n, n_w = system.matrix.shape[0], system.n_u + system.n_m
        # neither the pinned (u, p, lambda) block nor the whole matrix: the
        # solve and the estimate share one factor of W; the smaller
        # factorizations are the pressure recovery's
        assert not [s for s in shapes if s >= n - 1]
        assert [s for s in shapes if s >= n_w] == [n_w]
        assert abs(row.cond_estimate - kappa) <= 1e-9 * kappa


def test_penalty_solve_matches_direct(ex1_level0):
    system = ex1_level0.system
    rng = np.random.default_rng(16)
    b = rng.standard_normal(system.matrix.shape[0])   # u, p, lambda parts, beta != 0
    for rhs in (system.rhs, b):
        sol = solve_saddle(PenaltyFactor(replace(system, rhs=rhs)))
        x = np.concatenate([sol.u, sol.p, sol.lam, [sol.s]])
        assert sol.residual <= 1e-12
        assert _relerr(x, solve_direct(system.matrix, rhs)) <= 1e-10


def test_matrix_glued_only_after_the_factor(ex1_level0, monkeypatch):
    # the factor reads the blocks alone; a solve and an estimate with it
    # each glue the matrix once, and factor nothing
    events, glue, splu = [], SaddleSystem.matrix.fget, solver._splu
    monkeypatch.setattr(SaddleSystem, "matrix",
                        property(lambda s: events.append("glue") or glue(s)))
    monkeypatch.setattr(solver, "_splu",
                        lambda *a, **kw: events.append("factor") or splu(*a, **kw))
    factor = PenaltyFactor(ex1_level0.system)
    assert events == ["factor"]
    for run in (solve_saddle, condition_estimate):
        events.clear()
        run(factor)
        assert events == ["glue"]


def test_penalty_fill_below_saddle_factor(ex1_level0):
    system = ex1_level0.system
    assert 0 < PenaltyFactor(system)._lu.nnz < pinned_factor(system)[0].nnz


def test_penalty_rejects_perturbed_kernel(ex1_level0):
    system = ex1_level0.system
    rng = np.random.default_rng(17)
    z_p = system.z_p + 1e-6 * rng.standard_normal(system.n_p)
    with pytest.raises(SingularSystemError, match="not a null vector"):
        PenaltyFactor(replace(system, z_p=z_p))


def test_penalty_rejects_unfixed_kernel():
    # the null vector (0, -1, 1) is orthogonal to a zero mean row
    system = _bordered([[1]], [[1]], [[1]], [[0]], [0], z_p=[-1])
    with pytest.raises(SingularSystemError, match="mean row"):
        PenaltyFactor(system)


def test_penalty_iteration_cap_raises(ex1_level0, monkeypatch):
    monkeypatch.setattr(solver, "REFINE_MAXIT", 1)
    with pytest.raises(IterationError, match="1 steps"):
        solve_saddle(PenaltyFactor(ex1_level0.system))


@pytest.mark.parametrize("k, lvl, most", [(2, 0, 5), (2, 1, 5), (4, 0, 6)])
def test_penalty_steps_at_the_stop_floor(monkeypatch, k, lvl, most):
    # each step contracts by c = 1/(1 + rho mu), below 1e-3 here, so a solve
    # takes the solve, two contracted corrections, one at round-off and one
    # that no longer halves (rho = 1e3 took 10, 9 and 24 steps)
    steps, step = [], PenaltyFactor.step
    monkeypatch.setattr(PenaltyFactor, "step",
                        lambda self, r: steps.append(1) or step(self, r))
    solve_level(StudyConfig(k=k, levels=lvl + 1), lvl)
    assert len(steps) <= most, len(steps)


def test_slow_penalty_contraction_solves():
    # a strong ghost penalty lowers mu: at rho = 1e3 the step contracted by
    # 0.56 and the halving stop ended it at a residual of 9.3e-7
    row, st = solve_level(StudyConfig(k=3, gamma_gp=10.0), 0)
    assert st.sol.residual <= 1e-9
    assert row.l2div <= 1e-13


def test_pressure_only_load(ex1_level0):
    # the load B^T q of a zero-mean q is solved by u = 0, p = q, lambda = 0:
    # the first penalty step's u carries the whole load and the solution's u
    # vanishes, so a stop test relative to the current |B||u| is never met
    system = ex1_level0.system
    n_p = system.n_p
    q = np.random.default_rng(18).standard_normal(n_p)
    mean = system.mean
    q -= (mean @ q) / (mean @ system.z_p) * system.z_p
    rhs = np.concatenate([system.B.T @ q, np.zeros(n_p + system.n_m + 1)])
    sol = solve_saddle(PenaltyFactor(replace(system, rhs=rhs)))
    assert sol.residual <= 1e-12
    assert np.linalg.norm(sol.u) <= 1e-12 * np.linalg.norm(q)
    assert np.linalg.norm(sol.p - q) <= 1e-10 * np.linalg.norm(q)


def _counted_lu(M, scale=1.0):
    """scale * LU solve of M, and the list that counts its applies."""
    lu, applies = spla.splu(sp.csc_matrix(M)), []

    def apply(r):
        applies.append(1)
        return scale * lu.solve(r)
    return apply, applies


def test_refine_exact_apply_stops_after_round_off():
    # the loop of `solve_direct` with a well-conditioned LU: the solve, a
    # correction at round-off and one that no longer halves
    rng = np.random.default_rng(19)
    R = rng.standard_normal((60, 60))
    M = sp.csc_matrix(R.T @ R + np.eye(60))
    b = rng.standard_normal(60)
    apply, applies = _counted_lu(M)
    x, res = solver._refine(M, apply, b)
    assert len(applies) <= 3, len(applies)
    assert res <= 1e-13


def test_refine_damped_apply_reaches_round_off(ex1_level0):
    # 0.9 M^-1 contracts the error tenfold per step; the loop must not stop
    # before round-off although every residual is still far above it
    M, b = sp.csc_matrix(ex1_level0.system.matrix), ex1_level0.system.rhs
    apply, applies = _counted_lu(M, 0.9)
    x, res = solver._refine(M, apply, b)
    assert res <= 1e-13
    assert len(applies) > 10


def test_refine_diverging_apply_names_growth():
    # 2.5 M^-1 makes each correction -1.5 times the last: the second one no
    # longer halves, and the error names the two steps and that growth
    rng = np.random.default_rng(20)
    R = rng.standard_normal((20, 20))
    M = sp.csc_matrix(R.T @ R + np.eye(20))
    apply, applies = _counted_lu(M, 2.5)
    with pytest.raises(SingularSystemError,
                       match=r"after 2 steps .*\|dx_k\|/\|dx_k-1\| = 1\.5$"):
        solver._refine(M, apply, rng.standard_normal(20))
    assert len(applies) == 2
