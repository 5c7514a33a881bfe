"""Pressure recovery from the solved velocity.

The multiplier formulation only controls the pressure up to the O(h^1/2)
boundary-layer error of the extended-by-zero pressure, so the physical
pressure p* is recovered afterwards on the discrete fluid domain: a Poisson
solve in the continuous degree k-1 space on the children that meet the fluid
(`ContinuousPressureSpace`), driven by f and a boundary curl term,
stabilized by the scalar ghost penalty on the facets between uncut and cut
elements, and fixed by a zero-mean constraint over the fluid domain.

The boundary term is assembled from the scalar curl w = d1 u2 - d2 u1 via
the in-plane identity n x (curl u) . grad q = w (n2 d1 q - n1 d2 q); the
sign of that identity depends on the orientation convention for the cross
product.  `CURL_SIGN` = -1 matches the convention used everywhere else here,
and the convergence tests pin it down.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .forms import _csr, _local, _scatter, _sym, assemble_ghost_penalty
from .geometry import CutQuadrature, _pointwise
from .solver import solve_direct
from .spaces import ContinuousPressureSpace, ScalarField, VelocityField, scalar_tables

__all__ = ["pressure_gp_facets", "recover_pressure"]

# sign of the curl identity in the interface term
CURL_SIGN = -1.0


def pressure_gp_facets(quad: CutQuadrature) -> np.ndarray:
    """Interior child facets joining a cut element to a fluid-touching one.

    Both owners must intersect the fluid and at least one must be cut, so
    facets toward fully-outside elements carry no pressure stabilization."""
    cm = quad.am.child_mesh
    cls = quad.sets.child_class
    c0 = cm.facet_tris[:, 0]
    c1 = cm.facet_tris[:, 1]
    interior = c1 >= 0
    a = cls[c0]
    b = cls[np.maximum(c1, 0)]
    pair = interior & (np.maximum(a, b) == 1)
    return np.flatnonzero(pair)


def recover_pressure(quad: CutQuadrature, uh: VelocityField, f,
                     gamma_gp: float) -> ScalarField:
    """The recovered pressure p* of the velocity uh, in the degree k-1
    `ContinuousPressureSpace` on the children that meet the fluid, with the
    ghost-penalty weight gamma_gp on `pressure_gp_facets`."""
    mp = quad.mapping
    qs = ContinuousPressureSpace(quad.sets, mp, uh.space.degree - 1)
    n = qs.n_dofs

    blocks = []
    rhs = np.zeros(n)
    mean = np.zeros(n)
    for elems, xh, w in quad.volume_groups():
        wj = w * mp.jacobians(elems, xh)[1]
        val, grad = scalar_tables(qs, elems, xh)
        dofs = qs.elem_dofs[qs.rows(elems)]
        blocks.append((dofs, dofs, _sym(_local(wj, grad, grad))))
        fx = _pointwise(f, mp.phys(elems, xh))
        rhs += _scatter(n, dofs, np.einsum("eq,eqij,eqj->ei", wj, grad, fx))
        mean += _scatter(n, dofs, np.einsum("eq,eqi->ei", wj, val))

    r = quad.interface_rule
    _, gu, _ = uh.at(r.elems, r.xhat)
    wcurl = gu[..., 1, 0] - gu[..., 0, 1]
    _, grad = scalar_tables(qs, r.elems, r.xhat)
    rot = (r.normals[..., 1, None] * grad[..., 0]
           - r.normals[..., 0, None] * grad[..., 1])
    rhs += _scatter(n, qs.elem_dofs[qs.rows(r.elems)],
                    CURL_SIGN * np.einsum("eq,eq,eqi->ei", r.weights, wcurl, rot))

    K = _csr(n, n, blocks) + assemble_ghost_penalty(quad, qs, gamma_gp,
                                                    facets=pressure_gp_facets(quad))
    mcol = sp.csr_matrix(mean.reshape(-1, 1))
    M = sp.bmat([[K, mcol], [mcol.T, None]], format="csr")
    x = solve_direct(M, np.concatenate([rhs, [0.0]]))
    return ScalarField(qs, x[:n])
