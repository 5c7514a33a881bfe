"""Finite element spaces on the deformed split mesh.

Velocities are degree-k Lagrange fields pushed through the contravariant
Piola transform of the element map, which makes them H(div)-conforming and
carries the divergence to the reference element exactly.  Pressures (degree
k-1, discontinuous), interface multipliers and the continuous post-process
pressure space are mapped by composition.  Degrees of freedom are physical
nodal values throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, MappingData
from .meshing import AlfeldMesh, ElementSets
from .reference import ReferenceElement, reference_element, reference_nodes

__all__ = [
    "ReferenceElement", "VelocitySpace", "PressureSpace", "MultiplierSpace",
    "ContinuousPressureSpace", "velocity_tables", "scalar_tables",
    "eval_velocity", "interpolate_velocity", "interpolate_scalar",
    "VelocityField", "ScalarField",
]


def _adjugate(F: np.ndarray) -> np.ndarray:
    out = np.empty_like(F)
    out[..., 0, 0] = F[..., 1, 1]
    out[..., 0, 1] = -F[..., 0, 1]
    out[..., 1, 0] = -F[..., 1, 0]
    out[..., 1, 1] = F[..., 0, 0]
    return out


def _compress_nodes(elem2node: np.ndarray, elements: np.ndarray):
    used = np.unique(elem2node[elements])
    comp = np.full(elem2node.max() + 1, -1, dtype=np.int64)
    comp[used] = np.arange(used.size)
    return used, comp


class VelocitySpace:
    """Piola-mapped vector Lagrange space on the active children.

    Each global Lagrange node carries two dofs (the physical velocity value
    there).  Per element, the node-block matrices `nodal_blocks[r, m] =
    adj(F)(node_m)` convert physical nodal values to reference coefficients;
    their conditioning is checked against 1e12.
    """

    def __init__(self, am: AlfeldMesh, sets: ElementSets, mapping: MappingData,
                 degree: int):
        if degree < 2:
            raise ValueError("velocity degree must be >= 2")
        self.am = am
        self.sets = sets
        self.mapping = mapping
        self.degree = degree
        self.ref = reference_element(degree)
        self.node_set = am.lagrange_nodes(degree)
        self.elements = sets.active_children
        self.element_row = np.full(am.n_children, -1, dtype=np.int64)
        self.element_row[self.elements] = np.arange(self.elements.size)
        self.nodes, self._comp = _compress_nodes(self.node_set.elem2node, self.elements)
        self.n_nodes = self.nodes.size
        self.n_dofs = 2 * self.n_nodes
        loc = self._comp[self.node_set.elem2node[self.elements]]
        n_k = loc.shape[1]
        self.elem_dofs = np.empty((self.elements.size, 2 * n_k), dtype=np.int64)
        self.elem_dofs[:, 0::2] = 2 * loc
        self.elem_dofs[:, 1::2] = 2 * loc + 1

        F, J = mapping.jacobians_shared(self.elements, reference_nodes(degree))
        if (J <= 0).any():
            bad = self.elements[np.where(J <= 0)[0][0]]
            raise GeometryError(f"element map not orientation preserving on element {bad}")
        self.nodal_blocks = _adjugate(F)            # (n_el, n_k, 2, 2) = J F^{-1}
        fro2 = (self.nodal_blocks ** 2).sum(axis=(-2, -1))
        det = np.abs(J)
        disc = np.sqrt(np.maximum(fro2 ** 2 - 4 * det ** 2, 0.0))
        smax = np.sqrt(0.5 * (fro2 + disc))
        smin = np.sqrt(np.maximum(0.5 * (fro2 - disc), 1e-300))
        cond = smax.max(axis=1) / smin.min(axis=1)
        self.max_local_condition = float(cond.max())
        if self.max_local_condition > 1e12:
            bad = self.elements[int(np.argmax(cond))]
            raise GeometryError(
                f"nodal Piola blocks nearly singular on element {bad} "
                f"(condition {self.max_local_condition:.2e})")

    @property
    def n_local(self) -> int:
        return 2 * self.ref.n_basis

    def node_positions(self) -> np.ndarray:
        """Mapped (physical) positions of the global velocity nodes."""
        pos = self.node_set.coords[self.nodes].copy()
        pos += self.mapping.deformation.node_disp[self.nodes]
        return pos

    def boundary_dofs(self) -> np.ndarray:
        """Dofs of nodes lying on the boundary of the active mesh."""
        ids = []
        for fid in self.sets.active_boundary_facets:
            ids.append(self.node_set.facet_nodes(self.am, int(fid)))
        gids = np.unique(np.concatenate(ids)) if ids else np.array([], dtype=np.int64)
        cg = self._comp[gids]
        cg = cg[cg >= 0]
        return np.concatenate([2 * cg, 2 * cg + 1])


def velocity_tables(vs: VelocitySpace, e: int, xhat: np.ndarray,
                    derivs: bool = True):
    """Local velocity basis tables at reference points of child `e`.

    Returns (val, grad, div): shapes (nq, 2*n_k, 2), (nq, 2*n_k, 2, 2) and
    (nq, 2*n_k); `grad` is None when derivs is False.  Dof ordering is node
    major, component minor, matching `elem_dofs`.
    """
    xhat = np.atleast_2d(xhat)
    r = vs.element_row[e]
    if r < 0:
        raise ValueError(f"element {e} is not active")
    psi = vs.ref.eval(xhat)
    dpsi = vs.ref.grad(xhat)
    nq, n_k = psi.shape
    B = vs.nodal_blocks[r]                       # (n_k, 2, 2)
    W = np.transpose(B, (0, 2, 1))               # W[m, c, :] = B[m] @ e_c
    if derivs:
        F, J, dF, dJ = vs.mapping.jacobians(e, xhat, derivs=True)
    else:
        F, J = vs.mapping.jacobians(e, xhat)
    FW = np.einsum("qik,mck->qmci", F, W)
    val = psi[:, :, None, None] * FW / J[:, None, None, None]
    div = np.einsum("qmi,mci->qmc", dpsi, W) / J[:, None, None]
    grad = None
    if derivs:
        Finv = _adjugate(F) / J[:, None, None]
        dFW = np.einsum("qiks,mck->qmcis", dF, W)
        Jq = J[:, None, None, None, None]
        up = (-psi[:, :, None, None, None] * FW[..., None]
              * dJ[:, None, None, None, :] / Jq ** 2
              + psi[:, :, None, None, None] * dFW / Jq
              + np.einsum("qms,qmci->qmcis", dpsi, FW) / Jq)
        grad = np.einsum("qmcis,qsj->qmcij", up, Finv).reshape(nq, 2 * n_k, 2, 2)
    return (val.reshape(nq, 2 * n_k, 2), grad, div.reshape(nq, 2 * n_k))


class PressureSpace:
    """Discontinuous degree k-1 pressures, mapped by composition.

    Dofs are reference nodal values per active child; the space dimension is
    (#active children) * k(k+1)/2.
    """

    def __init__(self, am: AlfeldMesh, sets: ElementSets, mapping: MappingData,
                 degree: int):
        if degree < 1:
            raise ValueError("pressure degree must be >= 1")
        self.am = am
        self.sets = sets
        self.mapping = mapping
        self.degree = degree
        self.ref = reference_element(degree)
        self.elements = sets.active_children
        self.element_row = np.full(am.n_children, -1, dtype=np.int64)
        self.element_row[self.elements] = np.arange(self.elements.size)
        self.n_per = self.ref.n_basis
        self.n_dofs = self.elements.size * self.n_per
        self.elem_dofs = (self.n_per * np.arange(self.elements.size)[:, None]
                          + np.arange(self.n_per)[None, :])


class _NodalScalarSpace:
    """Shared machinery for continuous composition-mapped scalar spaces."""

    def __init__(self, am: AlfeldMesh, mapping: MappingData, degree: int,
                 elements: np.ndarray):
        self.am = am
        self.mapping = mapping
        self.degree = degree
        self.ref = reference_element(degree)
        self.node_set = am.lagrange_nodes(degree)
        self.elements = np.asarray(elements)
        self.element_row = np.full(am.n_children, -1, dtype=np.int64)
        self.element_row[self.elements] = np.arange(self.elements.size)
        self.nodes, self._comp = _compress_nodes(self.node_set.elem2node, self.elements)
        self.n_dofs = self.nodes.size
        self.elem_dofs = self._comp[self.node_set.elem2node[self.elements]]

    def node_positions(self) -> np.ndarray:
        pos = self.node_set.coords[self.nodes].copy()
        disp = self.mapping.deformation.node_disp
        if self.degree == self.mapping.degree:
            pos += disp[self.nodes]
        else:
            for row, e in enumerate(self.elements):
                loc = self.elem_dofs[row]
                ref = reference_nodes(self.degree)
                pos[loc] = self.mapping.phys(int(e), ref)
        return pos


class MultiplierSpace(_NodalScalarSpace):
    """Continuous Lagrange multipliers of degree k_lambda on the cut band."""

    def __init__(self, am: AlfeldMesh, sets: ElementSets, mapping: MappingData,
                 degree: int):
        if sets.alfeld_cut.size == 0:
            raise ValueError("level set does not cut the mesh: no multiplier space")
        if degree < 1:
            raise ValueError("multiplier degree must be >= 1")
        super().__init__(am, mapping, degree, sets.alfeld_cut)
        self.sets = sets


class ContinuousPressureSpace(_NodalScalarSpace):
    """Continuous degree k-1 space on the active mesh for pressure recovery."""

    def __init__(self, am: AlfeldMesh, sets: ElementSets, mapping: MappingData,
                 degree: int):
        super().__init__(am, mapping, degree, sets.active_children)
        self.sets = sets


def scalar_tables(space, e: int, xhat: np.ndarray, derivs: bool = True):
    """Composition-mapped scalar basis tables: values (nq, n) and physical
    gradients (nq, n, 2) on child `e`."""
    xhat = np.atleast_2d(xhat)
    psi = space.ref.eval(xhat)
    if not derivs:
        return psi, None
    dpsi = space.ref.grad(xhat)
    F, J = space.mapping.jacobians(e, xhat)
    Finv = _adjugate(F) / J[:, None, None]
    grad = np.einsum("qms,qsj->qmj", dpsi, Finv)
    return psi, grad


def eval_velocity(vs: VelocitySpace, e: int, coeffs: np.ndarray, xhat: np.ndarray):
    """Evaluate a velocity field given its local dof values on child `e`.

    Returns (value, gradient, divergence) with shapes (nq, 2), (nq, 2, 2),
    (nq,).  The divergence comes from the reference identity
    div v = (1/J) div_ref v_ref, not from the gradient trace.
    """
    val, grad, div = velocity_tables(vs, e, xhat)
    return (np.einsum("qdi,d->qi", val, coeffs),
            np.einsum("qdij,d->qij", grad, coeffs),
            np.einsum("qd,d->q", div, coeffs))


@dataclass
class VelocityField:
    space: VelocitySpace
    coeffs: np.ndarray

    def local_coeffs(self, e: int) -> np.ndarray:
        return self.coeffs[self.space.elem_dofs[self.space.element_row[e]]]

    def at(self, e: int, xhat: np.ndarray):
        return eval_velocity(self.space, e, self.local_coeffs(e), xhat)


@dataclass
class ScalarField:
    space: object
    coeffs: np.ndarray

    def local_coeffs(self, e: int) -> np.ndarray:
        return self.coeffs[self.space.elem_dofs[self.space.element_row[e]]]

    def at(self, e: int, xhat: np.ndarray, derivs: bool = True):
        val, grad = scalar_tables(self.space, e, xhat, derivs=derivs)
        c = self.local_coeffs(e)
        if derivs:
            return val @ c, np.einsum("qmj,m->qj", grad, c)
        return val @ c, None


def interpolate_velocity(vs: VelocitySpace, v) -> np.ndarray:
    """Nodal interpolant: physical nodal values are `v` at the mapped nodes."""
    vals = np.asarray(v(vs.node_positions()), dtype=float)
    U = np.empty(vs.n_dofs)
    U[0::2] = vals[:, 0]
    U[1::2] = vals[:, 1]
    return U


def interpolate_scalar(space, f) -> np.ndarray:
    """Nodal interpolant of a scalar function (continuous spaces) or the
    per-element composition interpolant (discontinuous pressure space)."""
    if isinstance(space, PressureSpace):
        out = np.empty(space.n_dofs)
        rn = reference_nodes(space.degree)
        for row, e in enumerate(space.elements):
            out[space.elem_dofs[row]] = np.asarray(f(space.mapping.phys(int(e), rn)))
        return out
    return np.asarray(f(space.node_positions()), dtype=float)
