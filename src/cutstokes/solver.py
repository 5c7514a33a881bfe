"""Sparse direct solution of the saddle systems.

SuperLU with partial pivoting handles the symmetric indefinite matrices.
Iterative refinement then runs until the relative residual stops improving,
which normally lands near machine precision; a solve that cannot reach 1e-9
is rejected.  Condition numbers are estimated from eigenvalue
magnitudes by power and inverse power iteration, both driven by Rayleigh
quotients and a fixed-seed start vector so the traces are reproducible.

The Stokes saddle matrix is M = [[K, c], [c^T, 0]]: K is the (u, p, lambda)
block and c = (0, m, 0) the zero-mean row of the pressure.  K alone has
exactly one null vector, z = (0, Pi_Q chi_{Omega_h}, 1): the projection of
the fluid indicator onto the pressure space (the discrete constant pressure
of Omega_h, which is not constant on cut children and changes sign there)
paired with a constant multiplier, so that the pressure term cancels the
interface flux term.  The mean row fixes the amplitude of z.
The row is dense over every pressure dof and doubles the LU fill, so
`SaddleFactor` never factors it: it factors K with one dof pinned and
corrects the solution along z.  The pinned dof is the first multiplier dof,
where z is 1; a pressure dof could sit where z vanishes, and pinning it
there would leave the pinned block singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import SaddleSystem

__all__ = ["SingularSystemError", "IterationError", "Solution", "SaddleFactor",
           "solve_direct", "solve_saddle", "condition_estimate"]

RESIDUAL_TOL = 1e-9
RESIDUAL_TARGET = 1e-13
KERNEL_TOL = 1e-10
SEED = 0x5EED
# stopping rule and step cap of the `condition_estimate` iterations
CONDEST_TOL = 1e-6
CONDEST_MAXIT = 10000


class SingularSystemError(RuntimeError):
    pass


class IterationError(RuntimeError):
    """Raised when an eigenvalue iteration stalls; carries the last iterate."""

    def __init__(self, message: str, last: float):
        super().__init__(message)
        self.last = last


def _splu(M: sp.csc_matrix, what: str):
    if not np.isfinite(M.data).all():
        raise ValueError(f"{what} has non-finite entries")
    try:
        return spla.splu(M)
    except RuntimeError as err:
        raise SingularSystemError(f"singular {what}: {err}") from err


class SaddleFactor:
    """M^-1 of a `SaddleSystem` M = [[K, c], [c^T, 0]], without factoring c.

    SuperLU factors K with row and column i = n_u + n_p (the first
    multiplier dof) replaced by e_i.  One more solve gives the null vector z
    of K with z_i = 1; it must satisfy K z = 0 to round-off and c^T z != 0,
    or the pinned dof cannot stand in for the mean row and the system is
    rejected.  `solve(b)` then applies M^-1 exactly: the part of b along z
    fixes s, the rest is solved with the pinned factor, and the mean row is
    met by adding a multiple of z.
    """

    def __init__(self, system: SaddleSystem):
        if system.n_m == 0:
            raise ValueError("the saddle system has no multiplier dof to pin")
        M = sp.csc_matrix(system.matrix)
        n = M.shape[0] - 1
        i = system.n_u + system.n_p
        K = M[:n, :n].tocoo()
        c = M[:n, n].toarray().ravel()
        free = (K.row != i) & (K.col != i)
        pinned = sp.csc_matrix(
            (np.append(K.data[free], 1.0),
             (np.append(K.row[free], i), np.append(K.col[free], i))),
            shape=(n, n))
        self._lu = _splu(pinned, f"saddle block with multiplier dof {i} pinned")

        K = K.tocsr()
        r = -K[:, [i]].toarray().ravel()
        r[i] = 1.0
        z = self._lu.solve(r)
        kz = np.linalg.norm(K @ z) / np.linalg.norm(abs(K) @ abs(z))
        if not kz <= KERNEL_TOL:
            raise SingularSystemError(
                f"pinning multiplier dof {i} finds no null vector of the "
                f"saddle block: |Kz| / |K||z| = {kz:.3e}")
        cz = float(c @ z)
        if not abs(cz) > KERNEL_TOL * np.linalg.norm(c) * np.linalg.norm(z):
            raise SingularSystemError(
                f"the mean row does not fix the null vector found with "
                f"multiplier dof {i} pinned: c.z = {cz:.3e}")
        self.pin, self.z, self._c, self._cz = i, z, c, cz
        # entries SuperLU stores for L and U; copying L and U out to count
        # their nonzeros would add a third to the peak memory at level 3
        self.lu_nnz = int(self._lu.nnz)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with M x = b, for b = (b_K, beta) of length n + 1."""
        z, c = self.z, self._c
        s = float(z @ b[:-1]) / self._cz
        r = b[:-1] - s * c
        r[self.pin] = 0.0
        x = self._lu.solve(r)
        x += (b[-1] - c @ x) / self._cz * z
        return np.append(x, s)


def _refine(M: sp.spmatrix, solve, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve Mx = b with `solve` (M^-1 from a factorization), refining while
    the relative residual keeps dropping; returns x and that residual.

    Refinement reuses the factorization, so the extra steps are cheap.  It
    stops at RESIDUAL_TARGET or on stagnation; anything still above
    RESIDUAL_TOL at that point means the factorization is unusable.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0
    x = solve(b)
    r = b - M @ x
    best, best_res = x, np.linalg.norm(r) / bnorm
    for _ in range(8):
        if best_res <= RESIDUAL_TARGET:
            break
        x = best + solve(r)
        r = b - M @ x
        res = np.linalg.norm(r) / bnorm
        stalled = res >= 0.5 * best_res
        if res < best_res:
            best, best_res = x, res
        if stalled:
            break
    if best_res > RESIDUAL_TOL:
        raise SingularSystemError(
            f"relative residual {best_res:.3e} still above "
            f"{RESIDUAL_TOL:.0e} after iterative refinement")
    return best, float(best_res)


def solve_direct(M: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve Mx = b by SuperLU and iterative refinement."""
    b = np.asarray(b, dtype=float)
    if M.shape[0] != M.shape[1] or b.shape != (M.shape[0],):
        raise ValueError("matrix and right-hand side dimensions disagree")
    M = sp.csc_matrix(M)
    return _refine(M, _splu(M, "system").solve, b)[0]


@dataclass
class Solution:
    u: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    s: float
    residual: float
    lu_nnz: int               # entries stored for L and U
    # the factor the solve used; a condition estimate of the same system
    # reuses it, and dropping it frees the LU
    factor: SaddleFactor | None = field(default=None, repr=False,
                                        compare=False)


def solve_saddle(system: SaddleSystem) -> Solution:
    factor = SaddleFactor(system)
    x, res = _refine(system.matrix, factor.solve, system.rhs)
    u, p, lam, s = system.split(x)
    return Solution(u=u, p=p, lam=lam, s=s, residual=res,
                    lu_nnz=factor.lu_nnz, factor=factor)


def _rayleigh_iterate(step, M: sp.spmatrix, v0: np.ndarray, label: str) -> float:
    v = v0 / np.linalg.norm(v0)
    rho = float(v @ (M @ v))
    for _ in range(CONDEST_MAXIT):
        v = step(v)
        v /= np.linalg.norm(v)
        rho_new = float(v @ (M @ v))
        if abs(rho_new - rho) <= CONDEST_TOL * abs(rho_new):
            return rho_new
        rho = rho_new
    raise IterationError(
        f"{label} iteration did not converge in {CONDEST_MAXIT} steps", last=rho)


def condition_estimate(M: sp.spmatrix | SaddleSystem, seed: int = SEED,
                       factor: SaddleFactor | None = None) -> float:
    """kappa = |lambda|_max / |lambda|_min of a symmetric matrix.

    Power iteration gives the largest magnitude, inverse power iteration on
    a factorization the smallest; each stops when the Rayleigh quotient's
    relative change drops below CONDEST_TOL.  A `SaddleSystem` is inverted
    through its `SaddleFactor`: `factor` when the solve already built one,
    a new one otherwise.  A plain matrix is factored whole.
    """
    if isinstance(M, SaddleSystem):
        if factor is None:
            factor = SaddleFactor(M)
        M = M.matrix
    elif factor is not None:
        raise ValueError("a saddle factor needs its SaddleSystem")
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    Mc = sp.csc_matrix(M)
    solve = factor.solve if factor is not None else _splu(Mc, "system").solve
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    lam_max = _rayleigh_iterate(lambda v: Mc @ v, Mc, v0, "power")
    lam_min = _rayleigh_iterate(solve, Mc, v0, "inverse power")
    return abs(lam_max) / abs(lam_min)
