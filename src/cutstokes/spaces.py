"""Finite element spaces on the deformed split mesh.

Velocities are degree-k Lagrange fields pushed through the contravariant
Piola transform of the element map (`geometry.IsoDeformation`), which makes
them H(div)-conforming and carries the divergence to the reference element
exactly.  Pressures (degree k-1, discontinuous), interface multipliers and
the continuous post-process pressure space are mapped by composition.
Degrees of freedom are physical nodal values throughout.  The continuous
spaces share one node numbering, the global Lagrange nodes of their elements
in index order; the velocity space gives node i the dofs 2i and 2i+1.
Every space builds on `_Space`: the map, through which it reaches the mesh
(`mapping.am`), the degree, the reference element, the children `elements`
and `rows`, the one lookup from children (an index array of any shape) to
their rows in the space's element arrays, which raises on a child outside.

Basis tables and field evaluations take element arrays, as the map does (see
`geometry`): a 1-D array of ne child indices, at reference points shared,
shape (nq, 2), or per element, shape (ne, nq, 2), and every result has a
leading ne axis.  A scalar field is its `scalar_tables` contracted with its
local coefficients.  A velocity field is contracted on the reference element
before it is Piola mapped: its tables carry 2 n_k basis columns per point
(12 at k = 2, against 3 for the k = 2 pressure), and reading it through them
took a level-3 `solve_level` from 1.32-1.56 s to 2.03-2.46 s (three runs
each, shared 2-core host).  The terms with derivatives of F and J are
computed only for arrays that hold a moved child (`CutQuadrature` groups
keep the others apart); on an array without one, F and J are constant per
child and are formed once per child, then broadcast over the points, and so
are F W, 1/J and F^{-1}.  The tables form F W elementwise, which keeps the
exact zeros of the affine Lagrange basis; field contractions, vectors rather
than matrix entries, use `matmul`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, IsoDeformation, _adjugate, _batch, _elements
from .meshing import ElementSets
from .reference import ReferenceElement, reference_element, reference_nodes

__all__ = [
    "ReferenceElement", "VelocitySpace", "PressureSpace", "MultiplierSpace",
    "ContinuousPressureSpace", "velocity_tables", "scalar_tables",
    "eval_velocity", "VelocityField", "ScalarField",
]


class _Space:
    """The children `elements` of a space, and per child of the mesh its row
    `element_row` in the space's element arrays, -1 off the space."""

    def __init__(self, mapping: IsoDeformation, degree: int, elements: np.ndarray):
        self.mapping = mapping
        self.degree = degree
        self.ref = reference_element(degree)
        self.elements = np.asarray(elements)
        self.element_row = np.full(mapping.am.n_children, -1, dtype=np.int64)
        self.element_row[self.elements] = np.arange(self.elements.size)

    def rows(self, elems: np.ndarray) -> np.ndarray:
        """Rows of the children `elems`, an index array of any shape; the
        first child not in the space raises."""
        r = self.element_row[elems]
        if (r < 0).any():
            raise ValueError(f"element {elems[r < 0][0]} is not in the space")
        return r

    @property
    def n_local(self) -> int:
        """Dofs per element."""
        return self.elem_dofs.shape[1]


class _NodalScalarSpace(_Space):
    """Continuous composition-mapped scalar Lagrange space on `elements`, and
    the node numbering of every continuous space: the global Lagrange nodes
    of `elements` in index order.  `_comp` maps a global node to its dof,
    -1 off the space."""

    def __init__(self, mapping: IsoDeformation, degree: int, elements: np.ndarray):
        super().__init__(mapping, degree, elements)
        e2n = mapping.am.lagrange_nodes(degree).elem2node
        self.nodes = np.unique(e2n[self.elements])
        self._comp = np.full(e2n.max() + 1, -1, dtype=np.int64)
        self._comp[self.nodes] = np.arange(self.nodes.size)
        self.n_nodes = self.n_dofs = self.nodes.size
        self.elem_dofs = self._comp[e2n[self.elements]]


class VelocitySpace(_NodalScalarSpace):
    """Piola-mapped vector Lagrange space on the active children.

    Each global Lagrange node carries two dofs (the physical velocity value
    there): node i of the scalar numbering owns dofs 2i and 2i+1.  Per
    element, the node-block matrices `nodal_blocks[r, m] = adj(F)(node_m)`
    convert physical nodal values to reference coefficients; their
    conditioning is checked against 1e12.
    """

    def __init__(self, sets: ElementSets, mapping: IsoDeformation, degree: int):
        if degree < 2:
            raise ValueError("velocity degree must be >= 2")
        super().__init__(mapping, degree, sets.active_children)
        self.n_dofs = 2 * self.n_nodes
        self.elem_dofs = (2 * self.elem_dofs[..., None] + [0, 1]).reshape(self.elements.size, -1)

        F, J = mapping.jacobians(self.elements, reference_nodes(degree))
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
        worst = int(np.argmax(cond))
        if cond[worst] > 1e12:
            raise GeometryError(
                f"nodal Piola blocks nearly singular on element {self.elements[worst]} "
                f"(condition {cond[worst]:.2e})")


def _jacobians(mapping: IsoDeformation, elems: np.ndarray, xhat: np.ndarray,
               derivs: bool = False):
    """`mapping.jacobians` of a batch from `_batch`, with F and J once per
    child when no child of `elems` moved: shapes (ne, 1, ...), broadcast over
    the points.  dF and dJ, zero on unmoved children, come only with a moved
    child."""
    if mapping.is_deformed[elems].any():
        return mapping.jacobians(elems, xhat, derivs)
    return mapping.jacobians(elems, xhat[:, :1])


def velocity_tables(vs: VelocitySpace, elems: np.ndarray, xhat: np.ndarray,
                    derivs: bool = True):
    """Local velocity basis tables at reference points of the children `elems`.

    Returns (val, grad): shapes (ne, nq, 2*n_k, 2) and (ne, nq, 2*n_k, 2, 2);
    `grad` is None when derivs is False.  Dof ordering is node major,
    component minor, matching `elem_dofs`.
    """
    elems, xhat = _batch(elems, xhat)
    F, J, *curv = _jacobians(vs.mapping, elems, xhat, derivs)
    # W[e, m, c, :] = B_m e_c: the reference field of dof (m, c) is psi_m W[m, c]
    W = np.swapaxes(vs.nodal_blocks[vs.rows(elems)], -1, -2)[:, None]
    psi = vs.ref.eval(xhat)[..., None, None]
    Jq = J[:, :, None, None, None]
    # (F W)_ci = F_ik W_ck, before psi and without fused multiply-adds: on
    # undeformed children F W = det(A) I exactly, so the tables keep the
    # exact zeros of the affine Lagrange basis (and the matrices their
    # sparsity)
    Fq = F[:, :, None, None]
    FW = W[..., :, None, 0] * Fq[..., 0] + W[..., :, None, 1] * Fq[..., 1]
    val = psi * FW / Jq
    shape = val.shape[:2] + (vs.n_local,)
    grad = None
    if derivs:
        Finv = _adjugate(F) / J[..., None, None]
        # grad_cij = (F W / J)_ci (dpsi F^{-1})_j: the physical gradients of
        # the scalar basis, spread over the component axes
        grad = (FW / Jq)[..., None] * (vs.ref.grad(xhat) @ Finv)[:, :, :, None, None]
        if curv:    # the dF and dJ terms, exact zeros without a moved child
            dF, dJ = curv
            # (dF W)_cis = dF_iks W_ck with dF arranged as (k, (i, s))
            dFW = W @ np.swapaxes(dF, 2, 3).reshape(J.shape + (1, 2, 4))
            up = (psi[..., None] * dFW.reshape(FW.shape + (2,)) / Jq[..., None]
                  - val[..., None] * (dJ / J[..., None])[:, :, None, None, None, :])
            grad += up @ Finv[:, :, None, None]
        grad = grad.reshape(shape + (2, 2))
    return val.reshape(shape + (2,)), grad


class PressureSpace(_Space):
    """Discontinuous degree k-1 pressures, mapped by composition.

    Dofs are reference nodal values per active child, numbered child by
    child: the row r of a child owns dofs r*n to (r+1)*n - 1, n = k(k+1)/2,
    and the space dimension is (#active children) * n.
    """

    def __init__(self, sets: ElementSets, mapping: IsoDeformation, degree: int):
        if degree < 1:
            raise ValueError("pressure degree must be >= 1")
        super().__init__(mapping, degree, sets.active_children)
        self.n_dofs = self.elements.size * self.ref.n_basis
        self.elem_dofs = np.arange(self.n_dofs).reshape(self.elements.size, -1)


class MultiplierSpace(_NodalScalarSpace):
    """Continuous Lagrange multipliers of degree k_lambda on the cut band."""

    def __init__(self, sets: ElementSets, mapping: IsoDeformation, degree: int):
        if sets.alfeld_cut.size == 0:
            raise ValueError("level set does not cut the mesh: no multiplier space")
        if degree < 1:
            raise ValueError("multiplier degree must be >= 1")
        super().__init__(mapping, degree, sets.alfeld_cut)


class ContinuousPressureSpace(_NodalScalarSpace):
    """Continuous degree k-1 space of the recovered pressure p*, on the
    children that meet the fluid (inside or cut), so every node lies in the
    support of the recovery's volume forms."""

    def __init__(self, sets: ElementSets, mapping: IsoDeformation, degree: int):
        super().__init__(mapping, degree, np.flatnonzero(sets.child_class < 2))


def scalar_tables(space, elems: np.ndarray, xhat: np.ndarray, derivs: bool = True):
    """Composition-mapped scalar basis tables on the children `elems`: values
    (ne, nq, n) and physical gradients (ne, nq, n, 2), None without derivs."""
    elems, xhat = _batch(elems, xhat)
    psi = np.broadcast_to(space.ref.eval(xhat),
                          (elems.size,) + xhat.shape[1:2] + (space.ref.n_basis,))
    grad = None
    if derivs:
        F, J = _jacobians(space.mapping, elems, xhat)
        grad = space.ref.grad(xhat) @ (_adjugate(F) / J[..., None, None])
    return psi, grad


def eval_velocity(vs: VelocitySpace, elems: np.ndarray, coeffs: np.ndarray,
                  xhat: np.ndarray):
    """Evaluate a velocity field given its local dof values on the children
    `elems`, coeffs of shape (ne, 2*n_k).

    Returns (value, gradient, divergence) with shapes (ne, nq, 2),
    (ne, nq, 2, 2), (ne, nq).  The nodal values are turned into reference
    coefficients a_m = B_m c_m first, and only the resulting reference field
    v_ref is Piola mapped; the divergence is (1/J) div_ref v_ref.
    """
    elems, xhat = _batch(elems, xhat)
    F, J, *curv = _jacobians(vs.mapping, elems, xhat, derivs=True)
    c = np.asarray(coeffs).reshape(elems.size, -1, 2, 1)
    a = (vs.nodal_blocks[vs.rows(elems)] @ c)[..., 0]
    vref = vs.ref.eval(xhat) @ a
    dref = np.swapaxes(a, 1, 2)[:, None] @ vs.ref.grad(xhat)
    Jq = J[..., None]
    val = (F @ vref[..., None])[..., 0] / Jq
    div = (dref[..., 0, 0] + dref[..., 1, 1]) / J
    up = F @ dref / Jq[..., None]
    if curv:
        dF, dJ = curv
        up += (np.einsum("eqiks,eqk->eqis", dF, vref) / Jq[..., None]
               - val[..., None] * (dJ / Jq)[:, :, None, :])
    grad = up @ (_adjugate(F) / Jq[..., None])
    return val, grad, div


@dataclass
class _Field:
    space: _Space
    coeffs: np.ndarray

    def local_coeffs(self, elems: np.ndarray) -> np.ndarray:
        """Local dof values (ne, n_local) of the children `elems`."""
        return self.coeffs[self.space.elem_dofs[self.space.rows(_elements(elems))]]


class VelocityField(_Field):
    def at(self, elems: np.ndarray, xhat: np.ndarray):
        return eval_velocity(self.space, elems, self.local_coeffs(elems), xhat)


class ScalarField(_Field):
    def at(self, elems: np.ndarray, xhat: np.ndarray, derivs: bool = True):
        """Value (ne, nq) and physical gradient (ne, nq, 2), None without
        derivs: `scalar_tables` contracted with the local coefficients."""
        c = self.local_coeffs(elems)
        psi, grad = scalar_tables(self.space, elems, xhat, derivs)
        if derivs:
            grad = (c[:, None, None] @ grad)[..., 0, :]
        return (psi @ c[..., None])[..., 0], grad
