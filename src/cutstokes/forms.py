"""Assembly of the saddle-point system.

The velocity block collects the viscous volume term, the symmetric Nitsche
boundary terms and the penalty gamma_n/h on the discrete interface; the
divergence coupling is integrated on the reference element where the Piola
Jacobians cancel, so it is exact regardless of the deformation.  Ghost
penalties use the direct (extension based) form: on each patch facet the
neighbour's velocity basis, L2-projected onto P_k over its own deformed
child, is evaluated at the owner's mapped quadrature points, and the squared
mismatch is integrated with the patch rule.  No curved map is evaluated
outside its element, where it may fold.  The extension data is computed once
per owner, and the facets are stacked in groups of at most GROUP_SIZE whose
two owners' dofs are folded onto the patch dofs by index arrays.

All matrices are returned in CSR form.  Symmetric local blocks are mirrored
from their upper triangle before insertion.  The blocks are merged by two
stable counting passes, by column and then by row (see `_csr`), which
sum the duplicates of every entry in insertion order; an entry and its
mirror are thus summed in the same order, so assembled matrices are exactly
symmetric and bit-reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import GROUP_SIZE, CutQuadrature, _adjugate, _pointwise
from .reference import triangle_rule
from .spaces import (MultiplierSpace, PressureSpace, VelocitySpace,
                     scalar_tables, velocity_tables)

__all__ = [
    "SaddleSystem", "assemble_a", "assemble_b", "assemble_c",
    "assemble_ghost_penalty", "assemble_j", "assemble_rhs",
    "pressure_mean_vector", "pressure_kernel", "pressure_mass_inverse",
    "build_saddle_system",
]


def _csr(nrows: int, ncols: int, blocks: list) -> sp.csr_matrix:
    """The sum of local blocks, each (rows (ne, nr), cols (ne, nc), vals
    (ne, nr, nc)), as a CSR matrix of shape (nrows, ncols), without a sort.

    The blocks are read as one CSR matrix with a row per (block, element,
    local row), its "runs", which is merged by two stable counting passes:
    `tocsc` groups the entries by column, and, with each run relabelled to
    its global row, `tocsr` groups them by row.  Each row then holds its
    columns in ascending order, and the duplicates of an entry side by side
    in insertion order, which `sum_duplicates` adds from left to right.  An
    entry and its mirror are thus summed in the same order, so a matrix
    built from symmetric blocks is exactly symmetric.  Each entry of
    `blocks` is set to None once it is copied, so a block that only the
    list holds is freed before the counting passes run.
    """
    n = sum(v.size for _, _, v in blocks)
    runs = sum(r.size for r, _, _ in blocks)
    if not n:
        return sp.csr_matrix((nrows, ncols))
    # scipy's index rule: 32-bit indices while every count fits
    idx = np.int32 if max(n, runs, nrows, ncols) <= np.iinfo(np.int32).max else np.int64
    data = np.empty(n)
    cols = np.empty(n, dtype=idx)
    indptr = np.zeros(runs + 1, dtype=idx)
    row_of_run = np.empty(runs, dtype=idx)
    at = run = 0
    for i, (r, c, v) in enumerate(blocks):
        data[at:at + v.size].reshape(v.shape)[...] = v
        cols[at:at + v.size].reshape(v.shape)[...] = c[:, None]
        indptr[run + 1:run + r.size + 1] = at + c.shape[1] * np.arange(1, r.size + 1)
        row_of_run[run:run + r.size] = r.ravel()
        at, run = at + v.size, run + r.size
        blocks[i] = None
    M = sp.csr_matrix((data, cols, indptr), shape=(runs, ncols)).tocsc()
    del data, cols, indptr
    M = sp.csc_matrix((M.data, row_of_run[M.indices], M.indptr), shape=(nrows, ncols))
    del row_of_run
    M = M.tocsr()
    M.sum_duplicates()
    return M


def _sym(loc: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle of each local block so symmetric pairs
    share one float."""
    return np.triu(loc) + np.swapaxes(np.triu(loc, 1), -1, -2)


def _local(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Local blocks sum_q w_q <a_qi, b_qj> of a group: a (ne, nq, ni, ...)
    and b (ne, nq, nj, ...) with equal trailing axes, w (ne, nq)."""
    ne, nq = w.shape
    wa = a * w.reshape(ne, nq, *(1,) * (a.ndim - 2))
    return (np.swapaxes(wa, 1, 2).reshape(ne, a.shape[2], -1)
            @ np.swapaxes(b, 1, 2).reshape(ne, b.shape[2], -1).swapaxes(1, 2))


def _scatter(n: int, dofs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Sum local vectors vals (ne, nd) into a global vector of length n."""
    return np.bincount(dofs.ravel(), weights=vals.ravel(), minlength=n)


def assemble_a(quad: CutQuadrature, vs: VelocitySpace,
               gamma_n: float) -> sp.csr_matrix:
    """Viscous volume term plus the symmetric Nitsche boundary terms with
    the penalty gamma_n/h."""
    mp = quad.mapping
    h = quad.am.macro.h
    blocks = []

    # on an undeformed child grad u : grad v is a polynomial of degree 2k - 2
    for elems, xh, w in quad.volume_groups(2 * vs.degree - 2):
        _, grad = velocity_tables(vs, elems, xh)
        wj = w * mp.jacobians(elems, xh)[1]
        dofs = vs.elem_dofs[vs.rows(elems)]
        blocks.append((dofs, dofs, _sym(_local(wj, grad, grad))))

    r = quad.interface_rule
    val, grad = velocity_tables(vs, r.elems, r.xhat)
    nd = np.einsum("eqs,eqdcs->eqdc", r.normals, grad)
    K1 = _local(r.weights, val, nd)
    pen = _sym(_local(r.weights * (gamma_n / h), val, val))
    dofs = vs.elem_dofs[vs.rows(r.elems)]
    blocks.append((dofs, dofs, pen - (K1 + np.swapaxes(K1, 1, 2))))
    return _csr(vs.n_dofs, vs.n_dofs, blocks)


def assemble_b(quad: CutQuadrature, vs: VelocitySpace,
               ps: PressureSpace) -> sp.csr_matrix:
    """Divergence coupling -(q, div v) over the whole active mesh.

    Pulled back to the reference element the Jacobians cancel, leaving a
    polynomial integrand of degree k + k_p - 2 which the rule integrates
    exactly; only the nodal Piola blocks enter per element.
    """
    pts, wts = triangle_rule(vs.degree + ps.degree)
    qv = ps.ref.eval(pts)
    dpsi = vs.ref.grad(pts)
    Ghat = np.einsum("q,qi,qmk->imk", wts, qv, dpsi)
    W = np.transpose(vs.nodal_blocks, (0, 1, 3, 2))
    loc = -np.einsum("imk,emck->eimc", Ghat, W)
    loc = loc.reshape(vs.elements.size, ps.n_local, vs.n_local)
    return _csr(ps.n_dofs, vs.n_dofs, [(ps.elem_dofs, vs.elem_dofs, loc)])


def assemble_c(quad: CutQuadrature, vs: VelocitySpace,
               ms: MultiplierSpace) -> sp.csr_matrix:
    """Interface coupling (mu, n_h . v) on the discrete interface."""
    r = quad.interface_rule
    val, _ = velocity_tables(vs, r.elems, r.xhat, derivs=False)
    mu, _ = scalar_tables(ms, r.elems, r.xhat, derivs=False)
    loc = _local(r.weights, mu, np.einsum("eqjc,eqc->eqj", val, r.normals))
    return _csr(ms.n_dofs, vs.n_dofs,
                [(ms.elem_dofs[ms.rows(r.elems)], vs.elem_dofs[vs.rows(r.elems)], loc)])


def _affine_coords(mp, e, x: np.ndarray) -> np.ndarray:
    """Coordinates of physical points x (..., nq, 2) in the undeformed affine
    frame of child(ren) `e`; polynomials in them are polynomials in x."""
    Ainv = _adjugate(mp.A[e]) / mp.detA[e][..., None, None]
    return (x - mp.v0[e][..., None, :]) @ np.swapaxes(Ainv, -1, -2)


def _extensions(quad: CutQuadrature, space, elems: np.ndarray):
    """Own basis values and polynomial extension of the children `elems`:
    arrays (x, Jw, val, coef) over `elems` of the patch-rule points, the
    weights w J, the basis values there, and each basis function's extension
    in the Lagrange basis of the undeformed affine frame, which is all that
    evaluating it elsewhere needs.  A Piola basis field (points mapped) is
    extended by its physical L2 projection onto vector P_k over the deformed
    child, exact on undeformed children; a scalar composition polynomial
    (points mapped affinely) is its own extension, coef the identity."""
    mp = quad.mapping
    pts, wts = quad.patch_rule
    Jw = wts * mp.jacobians(elems, pts)[1]
    if not isinstance(space, VelocitySpace):
        n = space.ref.n_basis
        x = mp.v0[elems][:, None] + pts @ np.swapaxes(mp.A[elems], -1, -2)
        val = np.broadcast_to(space.ref.eval(pts)[..., None], Jw.shape + (n, 1))
        return x, Jw, val, np.broadcast_to(np.eye(n)[..., None], (elems.size, n, n, 1))
    val = velocity_tables(space, elems, pts, derivs=False)[0]
    x = mp.phys(elems, pts)
    P = space.ref.eval(_affine_coords(mp, elems, x))
    M = _local(Jw, P, P)
    rhs = np.einsum("eq,eqa,eqdc->eadc", Jw, P, val)
    coef = np.linalg.solve(M, rhs.reshape(M.shape[:2] + (-1,))).reshape(rhs.shape)
    return x, Jw, val, coef


def assemble_ghost_penalty(quad: CutQuadrature, space, gamma_gp: float,
                           facets: np.ndarray | None = None) -> sp.csr_matrix:
    """Direct ghost penalty over facet patches.

    For each facet the data of one owner is extended to the other and the
    squared patch jump is integrated over the owner with the order-4k rule,
    weighted by gamma_gp/h^2.  On a `VelocitySpace` the neighbour's Piola
    basis field is replaced by its elementwise physical L2 projection onto
    P_k, which is evaluated at the owner's mapped quadrature points; the
    curved maps are never evaluated outside their own element.  On a scalar
    space (the pressure recovery) the neighbour's basis is the plain
    composition polynomial, evaluated at foreign reference coordinates of
    the undeformed children.  Both owners' integrals enter one symmetric
    block per facet on the patch's unique dofs, the same count on every facet.
    `facets` is a 1-D sequence of facet indices, by default every ghost
    penalty facet; none gives the zero matrix.  A facet that is not
    interior, or an owner outside the space, raises.
    """
    facets = np.asarray(quad.sets.gp_facets if facets is None else facets, dtype=np.int64)
    n = space.n_dofs
    if facets.ndim != 1:
        raise ValueError(f"facets must be a 1-D sequence, got shape {facets.shape}")
    if not facets.size:
        return sp.csr_matrix((n, n))
    sides = quad.am.child_mesh.facet_tris[facets]
    bad = facets[sides[:, 1] < 0]
    if bad.size:
        raise ValueError(f"facet {bad[0]} is not interior")
    side_dofs = space.elem_dofs[space.rows(sides)]
    scale = gamma_gp / quad.am.macro.h ** 2
    owners, where = np.unique(sides, return_inverse=True)
    x, Jw, val, coef = _extensions(quad, space, owners)
    where = where.reshape(sides.shape)
    blocks = []

    for s in range(0, facets.size, GROUP_SIZE):
        pair, at = sides[s:s + GROUP_SIZE], where[s:s + GROUP_SIZE]
        rows = np.arange(pair.shape[0])[:, None]
        dofs = side_dofs[s:s + GROUP_SIZE] + n * rows[..., None]
        keys, fold = np.unique(dofs, return_inverse=True)
        udofs = keys.reshape(pair.shape[0], -1)
        fold = fold.reshape(dofs.shape) - udofs.shape[1] * rows[..., None]
        jumps = []
        for i, j in ((0, 1), (1, 0)):
            own, other = at[:, i], at[:, j]
            P = space.ref.eval(_affine_coords(quad.mapping, pair[:, j], x[own]))
            vj = P @ coef[other].reshape(own.size, P.shape[-1], -1)
            # the jump v_i - v_j on the patch's unique dofs
            jump = np.zeros((own.size, udofs.shape[1]) + val.shape[1:2] + val.shape[3:])
            jump[rows, fold[:, i]] = np.swapaxes(val[own], 1, 2)
            jump[rows, fold[:, j]] -= np.swapaxes(vj.reshape(val[own].shape), 1, 2)
            jumps.append(np.swapaxes(jump, 1, 2))
        jump = np.concatenate(jumps, axis=1)
        w = scale * np.concatenate([Jw[at[:, 0]], Jw[at[:, 1]]], axis=1)
        udofs %= n
        blocks.append((udofs, udofs, _sym(_local(w, jump, jump))))

    return _csr(n, n, blocks)


def assemble_j(quad: CutQuadrature, ms: MultiplierSpace,
               gamma_lambda: float) -> sp.csr_matrix:
    """Normal-gradient stabilization -h gamma_lambda (n.grad l, n.grad m)
    over the cut band, with the normal extended off the interface."""
    h = quad.am.macro.h
    pts, wts = quad.ref_rule
    cut = quad.sets.alfeld_cut
    _, grad = scalar_tables(ms, cut, pts)
    nd = np.einsum("eqmj,eqj->eqm", grad, quad.band_normals)
    loc = _sym(_local(wts * quad.mapping.jacobians(cut, pts)[1], nd, nd))
    dofs = ms.elem_dofs[ms.rows(cut)]
    return _csr(ms.n_dofs, ms.n_dofs, [(dofs, dofs, (-h * gamma_lambda) * loc)])


def assemble_rhs(quad: CutQuadrature, vs: VelocitySpace, f) -> np.ndarray:
    """Load vector (f, v) over the fluid part, without basis tables: the Piola
    1/J cancels the weight's J, so loc_emc = sum_kq B_emkc psi_qm (w F^T f)_qk."""
    mp = quad.mapping
    rhs = np.zeros(vs.n_dofs)
    for elems, xh, w in quad.volume_groups():
        fx = _pointwise(f, mp.phys(elems, xh))
        g = w[..., None] * (fx[..., None, :] @ mp.jacobians(elems, xh)[0])[..., 0, :]
        pg = np.swapaxes(vs.ref.eval(xh), -1, -2) @ g
        rows = vs.rows(elems)
        loc = (pg[..., None, :] @ vs.nodal_blocks[rows])[..., 0, :]
        rhs += _scatter(vs.n_dofs, vs.elem_dofs[rows], loc)
    return rhs


def pressure_mean_vector(quad: CutQuadrature, ps: PressureSpace) -> np.ndarray:
    """Integrals of the pressure basis over the active mesh (the zero-mean
    constraint row)."""
    pts, wts = quad.ref_rule
    qv = ps.ref.eval(pts)
    _, J = quad.mapping.jacobians(ps.elements, pts)
    out = np.zeros(ps.n_dofs)
    out[ps.elem_dofs] = (J * wts[None, :]) @ qv
    return out


def pressure_kernel(quad: CutQuadrature, ps: PressureSpace) -> np.ndarray:
    """Pressure part z_p of the null vector (0, z_p, 1) of the (u, p, lambda)
    block: per child, the reference-measure L2 projection of the fluid
    indicator, M_ref^-1 (integrals of the pressure basis over the fluid part
    of the reference child).

    `assemble_b` integrates on the reference element, where the divergence
    of a Piola field has degree k-1, so (B^T z_p) . v = -(1, div v) over the
    fluid domain = -(1, n.v) over the interface, and B^T z_p + C^T 1 = 0.
    On inside children z_p is 1.
    """
    pts, wts = triangle_rule(2 * ps.degree)
    qv = ps.ref.eval(pts)
    mref = (qv * wts[:, None]).T @ qv
    moments = np.zeros((ps.elements.size, ps.n_local))
    for elems, xh, w in quad.volume_groups():
        moments[ps.rows(elems)] = np.einsum("...q,...qi->...i", w, ps.ref.eval(xh))
    return np.linalg.solve(mref, moments.T).T.ravel()


def pressure_mass_inverse(quad: CutQuadrature, ps: PressureSpace) -> sp.csr_matrix:
    """Inverse of the pressure mass matrix over the active mesh; the pressure
    is discontinuous, so it is block diagonal, one block per child."""
    pts, wts = quad.ref_rule
    qv = ps.ref.eval(pts)
    _, J = quad.mapping.jacobians(ps.elements, pts)
    blocks = np.linalg.inv(np.einsum("eq,qi,qj->eij", J * wts, qv, qv))
    ne = ps.elements.size
    return sp.bsr_matrix((blocks, np.arange(ne), np.arange(ne + 1)),
                         shape=(ps.n_dofs, ps.n_dofs)).tocsr()


@dataclass
class SaddleSystem:
    """The symmetric saddle system over (u, p, lambda, s) that
    `build_saddle_system` assembles, held as its blocks: the velocity block
    A (with the ghost penalty), the divergence B, the multiplier coupling C
    and its stabilizer J, the pressure mean vector `mean` and the
    right-hand side `rhs`, with the data of the penalty solve
    (`solver.PenaltyFactor`): the kernel part `z_p` (see `pressure_kernel`)
    and the inverse pressure mass `mass_inv`.

    It is the only owner of the layout [[A, B^T, C^T, 0], [B, 0, 0, m],
    [C, 0, J, 0], [0, m^T, 0, 0]], m = `mean`: `split` cuts a vector into its
    parts, and `matrix` glues the blocks anew on each access and keeps no
    copy, so the glued matrix exists only while a solve reads it.  Its
    transposed blocks reuse the stored values: it is exactly symmetric.
    """

    A: sp.csr_matrix
    B: sp.csr_matrix
    C: sp.csr_matrix
    J: sp.csr_matrix
    mean: np.ndarray
    rhs: np.ndarray
    z_p: np.ndarray
    mass_inv: sp.csr_matrix
    n_u: int
    n_p: int
    n_m: int

    @property
    def matrix(self) -> sp.csr_matrix:
        m = sp.csr_matrix(self.mean.reshape(-1, 1))
        return sp.bmat([[self.A, self.B.T, self.C.T, None], [self.B, None, None, m],
                        [self.C, None, self.J, None], [None, m.T, None, None]], format="csr")

    def split(self, x: np.ndarray):
        """(u, p, lambda, s) of a vector over the layout, views of x."""
        u, p, lam = np.split(x[:-1], [self.n_u, self.n_u + self.n_p])
        return u, p, lam, float(x[-1])


def build_saddle_system(quad: CutQuadrature, vs: VelocitySpace, k_lambda: int,
                        gamma_n: float, gamma_gp: float, gamma_lambda: float,
                        f=None) -> SaddleSystem:
    """The `SaddleSystem` of `vs` on `quad`, on the pressure (degree k - 1) and
    multiplier (degree k_lambda) spaces it builds, with velocity block A + GP
    and load (f, v), zero when f is None.  `vs` on another map raises."""
    sets, mp = quad.sets, quad.mapping
    if vs.mapping is not mp:
        raise ValueError("the velocity space and the quadrature live on different maps")
    ps, ms = PressureSpace(sets, mp, vs.degree - 1), MultiplierSpace(sets, mp, k_lambda)
    A = assemble_a(quad, vs, gamma_n) + assemble_ghost_penalty(quad, vs, gamma_gp)
    rhs = np.zeros(vs.n_dofs) if f is None else assemble_rhs(quad, vs, f)
    return SaddleSystem(A, assemble_b(quad, vs, ps), assemble_c(quad, vs, ms),
                        assemble_j(quad, ms, gamma_lambda), pressure_mean_vector(quad, ps),
                        np.concatenate([rhs, np.zeros(ps.n_dofs + ms.n_dofs + 1)]),
                        pressure_kernel(quad, ps), pressure_mass_inverse(quad, ps),
                        vs.n_dofs, ps.n_dofs, ms.n_dofs)
