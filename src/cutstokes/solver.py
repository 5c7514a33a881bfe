"""Solution of the saddle systems by an iterated penalty on the
velocity-multiplier block.

The Stokes saddle matrix is M = [[K, c], [c^T, 0]]: K is the (u, p, lambda)
block and c = (0, m, 0) the zero-mean row of the pressure.  K alone has
exactly one null vector, z = (0, z_p, 1): the projection of the fluid
indicator onto the pressure space (the discrete constant pressure of
Omega_h, which is not constant on cut children and changes sign there)
paired with a constant multiplier, so that the pressure term cancels the
interface flux term.  The mean row fixes the amplitude of z.  It is dense
over every pressure dof and doubles the LU fill, so it is never factored:
the part of the right-hand side along z fixes s, the rest is solved with K,
and the mean row is met by adding a multiple of z.

`PenaltyFactor` does not factor the pressure either.  The Scott-Vogelius
pair has div V_h = Q_h, so the iterated penalty of Scott and Vogelius (the
augmented Lagrangian method) recovers p from a factorization of the
velocity-multiplier block W = [[A + rho B^T M_p^-1 B, C^T], [C, J]] alone;
M_p is the pressure mass, block diagonal because the pressure is
discontinuous per child, so A + rho B^T M_p^-1 B has the sparsity of A.
Each step p <- p + rho M_p^-1 (B u - g) costs one pair of triangular solves,
and W has a sixth of the fill of K (made regular by pinning one multiplier
dof) at level 0 and a twentieth at level 4.  z comes from the assembly
(`SaddleSystem.z_p`) and is checked, not computed.

`solve_saddle` applies this inverse once and `condition_estimate` once per
Lanczos step.  Every apply is refined against the full M until the relative
residual stops improving, which normally lands near machine precision; a
solve that cannot reach 1e-9 is rejected.  M is symmetric, so its condition
number is |lambda|_max(M) |lambda|_max(M^-1), and each factor is found by
the implicitly restarted Lanczos method of ARPACK (`eigsh`) from a fixed
start vector, so repeated estimates are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forms import SaddleSystem

__all__ = ["SingularSystemError", "IterationError", "Solution", "PenaltyFactor",
           "solve_direct", "solve_saddle", "condition_estimate"]

RESIDUAL_TOL = 1e-9
RESIDUAL_TARGET = 1e-13
KERNEL_TOL = 1e-10
# penalty weight, stopping rule and step cap of the iterated penalty in
# `PenaltyFactor`: it stops when |B u - g| <= PENALTY_TOL (||B| |u|| + |g|)
PENALTY_RHO = 1000.0
PENALTY_TOL = 1e-12
PENALTY_MAXIT = 100
# W is symmetric, with a positive definite velocity block and a multiplier
# block whose diagonal is negative: a minimum-degree ordering of W + W^T
# with diagonal pivots (a row exchange only below 1e-6 of the column) has a
# sixth of the fill of the default column ordering with partial pivoting
# (2.9M against 17.5M entries at level 3 of example 1).  Refinement against
# the full matrix, which every solve gets, rejects a factor spoilt by growth.
PENALTY_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-6,
                  options=dict(SymmetricMode=True))
# relative accuracy of the eigenvalue magnitudes in `condition_estimate`;
# 1e-10 gives the same digits on the sweep systems but a second Lanczos cycle
CONDEST_TOL = 1e-8


class SingularSystemError(RuntimeError):
    pass


class IterationError(RuntimeError):
    """Raised when the iterated penalty does not converge."""


def _splu(M: sp.csc_matrix, what: str, **options):
    if not np.isfinite(M.data).all():
        raise ValueError(f"{what} has non-finite entries")
    try:
        return spla.splu(M, **options)
    except RuntimeError as err:
        raise SingularSystemError(f"singular {what}: {err}") from err


class PenaltyFactor:
    """M^-1 of a `SaddleSystem` by the iterated penalty, factoring only the
    velocity-multiplier block.

    SuperLU factors W = [[A + rho B^T M_p^-1 B, C^T], [C, J]].  `solve(b)`
    takes the part of b along z = (0, z_p, 1) into s, solves K x = r by the
    steps

        (u, lambda) = W^-1 (r_u - B^T p + rho B^T M_p^-1 r_p, r_lambda),
        p <- p + rho M_p^-1 (B u - r_p),

    which satisfy the velocity and multiplier rows exactly, until the
    pressure row B u = r_p holds to PENALTY_TOL relative to the size of its
    terms (its round-off floor), and adds the multiple of z that the mean
    row fixes.  More than PENALTY_MAXIT steps raise `IterationError`.  z
    must be a null vector of K to round-off, |Kz| <= KERNEL_TOL |K||z|, and
    the mean row must fix it, c.z != 0, or the system is rejected.
    """

    def __init__(self, system: SaddleSystem):
        M = sp.csr_matrix(system.matrix)
        n_u, n_p, n_m = system.n_u, system.n_p, system.n_m
        z = np.concatenate([np.zeros(n_u), system.z_p, np.ones(n_m)])
        zz = np.append(z, 0.0)
        kz = np.linalg.norm((M @ zz)[:-1])
        kz_size = np.linalg.norm((abs(M) @ abs(zz))[:-1])
        # compared without dividing: z may meet only zero columns of K
        if not kz <= KERNEL_TOL * kz_size:
            raise SingularSystemError(
                "the assembled kernel (0, z_p, 1) is not a null vector of the "
                f"saddle block: |Kz| = {kz:.3e}, |K||z| = {kz_size:.3e}")
        c = M[:-1, [-1]].toarray().ravel()
        self._cz = float(c @ z)
        if not abs(self._cz) > KERNEL_TOL * np.linalg.norm(c) * np.linalg.norm(z):
            raise SingularSystemError(
                "the mean row does not fix the assembled kernel (0, z_p, 1): "
                f"c.z = {self._cz:.3e}")
        self.z, self._mean = z, c[n_u:n_u + n_p]
        self._n = (n_u, n_p, n_m)
        lam = slice(n_u + n_p, n_u + n_p + n_m)
        self._B = M[n_u:n_u + n_p, :n_u]
        self._Bt = sp.csr_matrix(self._B.T)
        self._absB = abs(self._B)
        self._Minv = system.mass_inv
        A = M[:n_u, :n_u] + PENALTY_RHO * (self._Bt @ self._Minv @ self._B)
        W = sp.bmat([[A, M[:n_u, lam]], [M[lam, :n_u], M[lam, lam]]], format="csc")
        self._lu = _splu(W, "penalty velocity-multiplier block", **PENALTY_LU)
        # entries SuperLU stores for L and U; copying L and U out to count
        # their nonzeros would raise the peak memory
        self.lu_nnz = int(self._lu.nnz)
        self.steps = 0            # penalty steps over all solves

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with M x = b, for b = (b_K, beta) of length n + 1."""
        n_u, n_p, n_m = self._n
        z, m = self.z, self._mean
        s = float(z @ b[:-1]) / self._cz
        r_u, r_p, r_m = np.split(b[:-1], [n_u, n_u + n_p])
        r_p = r_p - s * m
        g = np.linalg.norm(r_p)
        fixed = np.concatenate(
            [r_u + PENALTY_RHO * (self._Bt @ (self._Minv @ r_p)), r_m])
        p = np.zeros(n_p)
        for _ in range(PENALTY_MAXIT):
            self.steps += 1
            rhs = fixed.copy()
            rhs[:n_u] -= self._Bt @ p
            y = self._lu.solve(rhs)
            u = y[:n_u]
            d = self._B @ u - r_p
            p += PENALTY_RHO * (self._Minv @ d)
            size = np.linalg.norm(self._absB @ abs(u)) + g
            if np.linalg.norm(d) <= PENALTY_TOL * size:
                break
        else:
            raise IterationError(
                f"the iterated penalty did not reach |Bu - g| <= "
                f"{PENALTY_TOL:.0e} (||B||u|| + |g|) in {PENALTY_MAXIT} steps; "
                f"the last relative residual was {np.linalg.norm(d) / size:.3e}")
        x = np.concatenate([u, p, y[n_u:]])
        x += (b[-1] - m @ p) / self._cz * z
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
    lu_nnz: int               # entries stored for L and U of W
    steps: int                # penalty steps, refinement included


def solve_saddle(system: SaddleSystem) -> Solution:
    """Solve the saddle system by the iterated penalty (`PenaltyFactor`),
    refined against the full `system.matrix`."""
    factor = PenaltyFactor(system)
    x, res = _refine(system.matrix, factor.solve, system.rhs)
    u, p, lam, s = system.split(x)
    return Solution(u=u, p=p, lam=lam, s=s, residual=res,
                    lu_nnz=factor.lu_nnz, steps=factor.steps)


def _largest_magnitude(op) -> float:
    """|lambda|_max of a symmetric operator by ARPACK's implicitly restarted
    Lanczos, from the start vector of ones, to CONDEST_TOL relative."""
    n = op.shape[0]
    w = spla.eigsh(op, k=1, which="LM", v0=np.ones(n), tol=CONDEST_TOL,
                   return_eigenvectors=False)
    return float(abs(w[0]))


def condition_estimate(system: SaddleSystem) -> float:
    """kappa = |lambda|_max / |lambda|_min of the saddle matrix M.

    The largest magnitude comes from M, the smallest as the inverse of the
    largest magnitude of M^-1, applied through a `PenaltyFactor` and refined
    on every apply.
    """
    factor = PenaltyFactor(system)
    M = sp.csc_matrix(system.matrix)
    inverse = spla.LinearOperator(
        M.shape, matvec=lambda v: _refine(M, factor.solve, v)[0], dtype=float)
    return _largest_magnitude(M) * _largest_magnitude(inverse)
