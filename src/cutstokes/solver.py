"""Solution of the saddle systems by iterative refinement, with one
augmented-Lagrangian step on the velocity-multiplier block as the
preconditioner.

`forms.SaddleSystem` owns the (u, p, lambda, s) layout; this module reads
its blocks A, B, C, J and the mean vector m by name and cuts vectors by its
`split`.  The glued matrix is M = [[K, c], [c^T, 0]]: K is the
(u, p, lambda) block and c = (0, m, 0) the zero-mean row of the pressure.
K alone has exactly one null vector, z = (0, z_p, 1): the projection of
the fluid indicator onto the pressure space (the discrete constant
pressure of Omega_h, which is not constant on cut children and changes
sign there) paired with a constant multiplier, so that the pressure term
cancels the interface flux term.  The mean row fixes the amplitude of z.
It is dense over every pressure dof and doubles the LU fill, so it is never
factored: the part of the right-hand side along z fixes s, the rest is
solved with K, and the mean row is met by adding a multiple of z.

`PenaltyFactor` does not factor the pressure either.  The Scott-Vogelius
pair has div V_h = Q_h, so the iterated penalty of Scott and Vogelius (the
augmented Lagrangian method) recovers p from a factorization of the
velocity-multiplier block W = [[A + rho B^T M_p^-1 B, C^T], [C, J]] alone;
M_p is the pressure mass, block diagonal because the pressure is
discontinuous per child, so A + rho B^T M_p^-1 B has the sparsity of A.
W has a sixth of the fill of K (made regular by pinning one multiplier
dof) at level 0 and a twentieth at level 4.  z comes from the assembly
(`SaddleSystem.z_p`) and is checked on the blocks, not computed.

`PenaltyFactor.step` is one penalty step from p = 0, an approximate M^-1
that costs one pair of triangular solves.  `_refine` is the only loop: the
Richardson iteration x <- x + step(b - M x), which in exact arithmetic
reproduces the penalty iterates step for step, and which also refines
against the full M.  It stops when the correction no longer halves, not on
the residual: the round-off of the velocity rows dominates |b - M x| and
hides the divergence row, which the correction sees through
rho M_p^-1 (B u - r_p).  A solve whose relative residual then lies above
1e-9 is rejected.  The same loop, with an LU solve as the step, serves
`solve_direct`.

Each penalty step contracts the error by c = 1/(1 + rho mu), where mu is
the smallest eigenvalue of the pressure Schur complement relative to M_p.
PENALTY_RHO is large enough that every solve measured ends at the floor of
the halving stop: the solve, two corrections that shrink by about c, one at
round-off and one that no longer halves.

`solve_saddle` runs the loop once and `condition_estimate` once per
Lanczos step, each with the `PenaltyFactor` it is given, which holds its
system; a level that solves and estimates factors W once.  Both glue M
(`SaddleSystem.matrix`) only after W is factored, so M is never alive while
SuperLU factors.  M is symmetric, so its condition number is
|lambda|_max(M) |lambda|_max(M^-1), and each factor is found by the
implicitly restarted Lanczos method of ARPACK (`eigsh`) from a fixed start
vector, so repeated estimates are equal.  The estimate needs each apply of
M^-1 only to 1e-12, not to round-off, so its loop also stops once the next
correction that the last ratio predicts lies below CONDEST_APPLY_TOL |x|:
3 steps where the halving stop takes 5 or 6 (93 against 164 for one
estimate at level 0 of example 1).  Each apply is judged by its normwise
backward error, because the applies along the smallest modes return an x
far larger than b.
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
KERNEL_TOL = 1e-10
# step cap of `_refine`
REFINE_MAXIT = 100
# penalty weight of the augmented-Lagrangian step in `PenaltyFactor`.  Each
# step contracts by c = 1/(1 + rho mu); on example 1, c is about 1e-5 at
# k = 2 and 4e-4 at k = 4, level 0, so a solve takes the 5 steps of the
# halving stop's floor (6 at k = 4, level 0).  rho = 1e3 took 9-10 steps at
# k = 2 and 24 at k = 4, and stopped k = 4, level 2 (c = 0.69) and k = 3
# with gamma_gp = 10 (c = 0.56) above RESIDUAL_TOL, at the first correction
# that failed to halve.  rho = 1e7 takes no fewer steps, and 1e8 adds one
# at k = 2, levels 2-3.
PENALTY_RHO = 1e6
# W is symmetric, with a positive definite velocity block and a multiplier
# block whose diagonal is negative: a minimum-degree ordering of W + W^T
# with diagonal pivots (a row exchange only below 1e-6 of the column) has a
# sixth of the fill of the default column ordering with partial pivoting
# (2.9M against 17.5M entries at level 3 of example 1).  Refinement against
# the full matrix, which every solve gets, rejects a factor spoilt by growth.
PENALTY_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-6,
                  options=dict(SymmetricMode=True))
# ARPACK's bound on the Ritz residual in `condition_estimate`, relative to
# the Ritz value.  The eigenvalue's error is second order in that residual
# (Kato-Temple): against 1e-10, 1e-6 moves kappa by at most 1.7e-10
# relative on the sweep at h = 0.1 (1e-8 by 1.2e-14) and halves the forward
# Lanczos matvecs there (81 against 151 at x0 = -0.2)
CONDEST_TOL = 1e-6
# the estimate's inverse applies also stop once the predicted next
# correction is below this part of |x|: from the third step on, corrections
# of 1e-12 to 1e-13 of |x| are the round-off floor of the W solves
CONDEST_APPLY_TOL = 1e-12


class SingularSystemError(RuntimeError):
    pass


class IterationError(RuntimeError):
    """Raised when `_refine` still has halving corrections after
    REFINE_MAXIT steps."""


def _splu(M: sp.csc_matrix, what: str, **options):
    if not np.isfinite(M.data).all():
        raise ValueError(f"{what} has non-finite entries")
    try:
        return spla.splu(M, **options)
    except RuntimeError as err:
        raise SingularSystemError(f"singular {what}: {err}") from err


class PenaltyFactor:
    """An approximate M^-1 of a `SaddleSystem` by one augmented-Lagrangian
    step, factoring only the velocity-multiplier block.

    SuperLU factors W = [[A + rho B^T M_p^-1 B, C^T], [C, J]].  `step(r)`
    takes the part of r along z = (0, z_p, 1) into s, takes one penalty step
    from p = 0,

        (u, lambda) = W^-1 (r_u + rho B^T M_p^-1 r_p, r_lambda),
        p = rho M_p^-1 (B u - r_p),

    which satisfies the velocity and multiplier rows exactly and leaves the
    pressure row B u = r_p for the next step of `_refine`, and adds the
    multiple of z that the mean row fixes.  z must be a null vector of K to
    round-off, |Kz| <= KERNEL_TOL |K||z|, and the mean row must fix it,
    c.z != 0, or the system is rejected.
    """

    def __init__(self, system: SaddleSystem):
        B, C, J, z_p = system.B, system.C, system.J, system.z_p
        one, zero_u = np.ones(system.n_m), np.zeros(system.n_u)
        self.z = z = np.concatenate([zero_u, z_p, one])
        # K z = (B^T z_p + C^T 1, 0, J 1); compared without dividing: z may
        # meet only zero columns of K
        kz = np.linalg.norm(np.append(B.T @ z_p + C.T @ one, J @ one))
        kz_size = np.linalg.norm(np.append(abs(B).T @ abs(z_p) + abs(C).T @ one, abs(J) @ one))
        if not kz <= KERNEL_TOL * kz_size:
            raise SingularSystemError(
                "the assembled kernel (0, z_p, 1) is not a null vector of the "
                f"saddle block: |Kz| = {kz:.3e}, |K||z| = {kz_size:.3e}")
        c = np.concatenate([zero_u, system.mean, np.zeros(system.n_m)])
        self._cz = float(c @ z)
        if not abs(self._cz) > KERNEL_TOL * np.linalg.norm(c) * np.linalg.norm(z):
            raise SingularSystemError(
                "the mean row does not fix the assembled kernel (0, z_p, 1): "
                f"c.z = {self._cz:.3e}")
        self.system, self._Bt, self._Minv = system, sp.csr_matrix(B.T), system.mass_inv
        A = system.A + PENALTY_RHO * (self._Bt @ self._Minv @ B)
        W = sp.bmat([[A, C.T], [C, J]], format="csc")
        self._lu = _splu(W, "penalty velocity-multiplier block", **PENALTY_LU)

    def step(self, r: np.ndarray) -> np.ndarray:
        """An approximate M^-1 r, for r = (r_K, r_beta) of length n + 1."""
        system, z = self.system, self.z
        s = float(z @ r[:-1]) / self._cz
        r_u, r_p, r_m, r_beta = system.split(r)
        r_p = r_p - s * system.mean
        u, lam = np.split(self._lu.solve(np.concatenate(
            [r_u + PENALTY_RHO * (self._Bt @ (self._Minv @ r_p)), r_m])), [system.n_u])
        p = PENALTY_RHO * (self._Minv @ (system.B @ u - r_p))
        x = np.concatenate([u, p, lam])
        x += (r_beta - system.mean @ p) / self._cz * z
        return np.append(x, s)


def _refine(M: sp.spmatrix, apply, b: np.ndarray, tol: float = 0.0,
            m_norm: float = 0.0) -> tuple[np.ndarray, float]:
    """Solve Mx = b by the iteration x <- x + apply(b - M x) from x = 0;
    returns x and its backward error |b - M x| / (m_norm |x| + |b|), by
    default the relative residual.

    `apply` is an approximate M^-1: one `PenaltyFactor.step`, or an LU solve,
    for which the loop is iterative refinement.  It stops when the
    correction no longer halves, which is where round-off stops the solve:
    the residual would be the wrong measure, because the round-off of the
    velocity rows dominates it and hides the divergence row.  With tol > 0
    it also stops, from the second step on, once the next correction that
    the last ratio predicts, (|dx_k|/|dx_k-1|) |dx_k|, is at most tol |x|.
    Corrections still halving after REFINE_MAXIT steps raise
    `IterationError`; a backward error then above RESIDUAL_TOL means the
    factorization is unusable.  Both errors name the steps and the last two
    corrections' ratio.  m_norm = |M|_2 makes it the normwise backward
    error, which stays at round-off for a solution far larger than b.
    """
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0.0
    x, r, sizes = np.zeros_like(b), b, [np.inf]
    for _ in range(REFINE_MAXIT):
        dx = apply(r)
        x += dx
        r = b - M @ x
        sizes.append(np.linalg.norm(dx))
        if not sizes[-1] < 0.5 * sizes[-2]:
            break
        if len(sizes) > 2 and sizes[-1] / sizes[-2] * sizes[-1] <= tol * np.linalg.norm(x):
            break
    else:
        raise IterationError(
            f"the correction still halved after {REFINE_MAXIT} steps (last ratio "
            f"{sizes[-1] / sizes[-2]:.3g}); the last relative residual was "
            f"{np.linalg.norm(r) / bnorm:.3e}")
    res = float(np.linalg.norm(r) / (m_norm * np.linalg.norm(x) + bnorm))
    if not res <= RESIDUAL_TOL:
        raise SingularSystemError(
            f"{'backward error' if m_norm else 'relative residual'} {res:.3e} still "
            f"above {RESIDUAL_TOL:.0e} after {len(sizes) - 1} steps of iterative "
            f"refinement, the last two corrections in ratio |dx_k|/|dx_k-1| = "
            f"{sizes[-1] / sizes[-2]:.3g}")
    return x, res


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


def solve_saddle(factor: PenaltyFactor) -> Solution:
    """Solve the factor's saddle system by `_refine` against the full
    `system.matrix`, with `factor.step` as the apply."""
    system = factor.system
    x, res = _refine(system.matrix, factor.step, system.rhs)
    u, p, lam, s = system.split(x)
    return Solution(u=u, p=p, lam=lam, s=s, residual=res)


def _largest_magnitude(op) -> float:
    """|lambda|_max of a symmetric operator by ARPACK's implicitly restarted
    Lanczos, from the start vector of ones, to a relative Ritz residual of
    CONDEST_TOL."""
    n = op.shape[0]
    w = spla.eigsh(op, k=1, which="LM", v0=np.ones(n), tol=CONDEST_TOL,
                   return_eigenvectors=False)
    return float(abs(w[0]))


def condition_estimate(factor: PenaltyFactor) -> float:
    """kappa = |lambda|_max / |lambda|_min of the factor's saddle matrix M.

    The largest magnitude comes from M, the smallest as the inverse of the
    largest magnitude of M^-1, each apply of which is a `_refine` solve with
    `factor.step` that stops at CONDEST_APPLY_TOL and is judged by its
    normwise backward error with |M|_2 = |lambda|_max: the Lanczos vectors
    align with the smallest modes, so |x| reaches 4e7 |b| (k = 4, h = 0.1),
    and the relative residual cannot fall below about eps |M||x|/|b|.
    """
    M = factor.system.matrix
    top = _largest_magnitude(M)
    inverse = spla.LinearOperator(
        M.shape, matvec=lambda v: _refine(M, factor.step, v, CONDEST_APPLY_TOL, top)[0],
        dtype=float)
    return top * _largest_magnitude(inverse)
