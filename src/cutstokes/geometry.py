"""Level-set geometry: P1 interpolation, isoparametric deformation, cut quadrature.

The integration domains are defined by the piecewise linear interpolant of
the level set on the split mesh.  A mesh deformation of the velocity degree
moves each Lagrange node of a cut element along the level-set gradient until
the elementwise degree-k interpolant matches the P1 value at the node, which
places the mapped P1 interface within O(h^{k+1}) of the exact one.  All
quadrature is generated in reference coordinates of the undeformed children;
physical weights carry det(DPhi) through the element Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .meshing import AlfeldMesh, ElementSets, snap_values
from .reference import reference_element, segment_rule, triangle_rule

REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# residual tolerance and step cap of the deformation root solves
ROOT_TOL = 1e-14
ROOT_MAX_ITER = 50


class GeometryError(RuntimeError):
    """Deformation or quadrature construction failed."""


class LevelSet:
    """Analytic level set with values and gradients at physical points."""

    def __init__(self, value: Callable[[np.ndarray], np.ndarray],
                 gradient: Callable[[np.ndarray], np.ndarray], name: str = "levelset"):
        self._value = value
        self._gradient = gradient
        self.name = name

    def value(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self._value(np.atleast_2d(pts)), dtype=float)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self._gradient(np.atleast_2d(pts)), dtype=float)

    def gradient_fd_error(self, pts: np.ndarray, step: float = 1e-6) -> float:
        """Max relative mismatch between `gradient` and central differences."""
        pts = np.atleast_2d(pts)
        g = self.gradient(pts)
        fd = np.empty_like(g)
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = step
            fd[:, j] = (self.value(pts + dp) - self.value(pts - dp)) / (2 * step)
        scale = np.maximum(np.linalg.norm(g, axis=1), 1e-12)
        return float((np.linalg.norm(g - fd, axis=1) / scale).max())


class DiscreteLevelSet:
    """P1 interpolant on the split mesh: one value per Alfeld vertex."""

    def __init__(self, am: AlfeldMesh, vertex_values: np.ndarray):
        vertex_values = np.asarray(vertex_values, dtype=float)
        if vertex_values.shape != (am.vertices.shape[0],):
            raise ValueError("need one value per Alfeld vertex")
        self.am = am
        self.vertex_values = vertex_values

    def child_values(self, elems) -> np.ndarray:
        """Vertex values per child, snapped away from zero, shape (..., 3)."""
        vals = self.vertex_values[self.am.children[elems]]
        return snap_values(vals, self.am.macro.h)

    def eval_ref(self, e: int, xhat: np.ndarray) -> np.ndarray:
        """Values at reference coordinates of child e."""
        v = self.child_values(e)
        xhat = np.atleast_2d(xhat)
        return v[0] * (1 - xhat[:, 0] - xhat[:, 1]) + v[1] * xhat[:, 0] + v[2] * xhat[:, 1]

    def ref_gradient(self, e: int) -> np.ndarray:
        """Gradient with respect to reference coordinates (constant per child)."""
        v = self.child_values(e)
        return np.array([v[1] - v[0], v[2] - v[0]])


def interpolate_p1(ls: LevelSet, am: AlfeldMesh) -> DiscreteLevelSet:
    """Nodal P1 interpolation at all Alfeld vertices (barycenters included)."""
    values = ls.value(am.vertices)
    bad = ~np.isfinite(values)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise GeometryError(
            f"level set returned a non-finite value at vertex {i} = {am.vertices[i]}")
    return DiscreteLevelSet(am, values)


# ---------------------------------------------------------------------------
# isoparametric deformation


@dataclass
class IsoDeformation:
    """Degree-k nodal displacement field on the split mesh.

    Displacements are nonzero only at Lagrange nodes of cut children, so the
    map is the identity on every element whose closure misses the cut band.
    `root_failures` counts the root solves of `build_deformation` that failed
    per stage ("interpolant", "exact") and `kept_nodes` lists the nodes whose
    solve failed at both stages and which therefore kept their position; the
    counts are nonzero only when it ran with `allow_unresolved`.
    """

    am: AlfeldMesh
    degree: int
    node_disp: np.ndarray                # (n_nodes, 2)
    deformed_children: np.ndarray = field(default=None)
    root_failures: dict = field(default_factory=dict)
    kept_nodes: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.int64))

    def __post_init__(self):
        ns = self.am.lagrange_nodes(self.degree)
        moved = np.linalg.norm(self.node_disp, axis=1) > 0.0
        if self.deformed_children is None:
            self.deformed_children = np.flatnonzero(moved[ns.elem2node].any(axis=1))

    @classmethod
    def identity(cls, am: AlfeldMesh, degree: int) -> "IsoDeformation":
        ns = am.lagrange_nodes(degree)
        return cls(am, degree, np.zeros((ns.n_nodes, 2)))

    @property
    def max_displacement(self) -> float:
        return float(np.linalg.norm(self.node_disp, axis=1).max(initial=0.0))

    def validate(self, elems=None) -> None:
        """Check det(Dphi) > 0 on a degree-2k rule of each deformed element."""
        mapping = MappingData(self.am, self)
        check = self.deformed_children if elems is None else np.asarray(elems)
        pts, _ = triangle_rule(2 * self.degree)
        for e in check:
            _, J = mapping.jacobians(int(e), pts)
            if not (J > 0).all():
                raise GeometryError(f"deformation inverts element {int(e)}")


def _newton_bisect(g, dg, lo: float, hi: float, where: str) -> float:
    """Root of g in [lo, hi]: Newton from 0 with bisection fallback."""
    x = 0.0
    gx = g(x)
    if abs(gx) <= ROOT_TOL:
        return x
    glo, ghi = g(lo), g(hi)
    have_bracket = glo * ghi <= 0.0
    blo, bhi = lo, hi
    if have_bracket and glo * gx <= 0.0:
        bhi = x
    elif have_bracket:
        blo = x
    for _ in range(ROOT_MAX_ITER):
        d = dg(x)
        step_ok = d != 0.0
        if step_ok:
            xn = x - gx / d
            step_ok = lo <= xn <= hi
        if not step_ok:
            if not have_bracket:
                raise GeometryError(f"root not bracketed in [{lo:.3e}, {hi:.3e}] at {where}")
            xn = 0.5 * (blo + bhi)
        x = xn
        gx = g(x)
        if abs(gx) <= ROOT_TOL:
            return x
        if have_bracket:
            if g(blo) * gx <= 0.0:
                bhi = x
            else:
                blo = x
    raise GeometryError(f"root solve did not converge at {where}")


def build_deformation(ls: LevelSet, phi_p1: DiscreteLevelSet, am: AlfeldMesh,
                      sets: ElementSets, degree: int,
                      allow_unresolved: bool = False) -> IsoDeformation:
    """Isoparametric deformation of the cut band.

    For every Lagrange node of a cut child, solve along the normalized exact
    gradient direction G for the displacement delta with
    phi_K^k(x + delta G) = phi_p1(x), where phi_K^k is the elementwise
    degree-k interpolant of the exact level set.  Nodes shared by several cut
    children receive the mean displacement; all other nodes stay put.

    A root that is not found within half a mesh size raises `GeometryError`
    naming the node and its position: the feature is not resolved at this h.
    With `allow_unresolved` such a solve is retried against the exact level
    set instead, and if that fails too the node keeps its position for that
    child (delta = 0).  Both outcomes are recorded on the result in
    `root_failures` and `kept_nodes`.
    """
    if degree < 2:
        raise ValueError("deformation degree must be >= 2")
    if sets.alfeld_cut.size == 0:
        raise GeometryError("no cut elements: nothing to deform")
    ns = am.lagrange_nodes(degree)
    ref = reference_element(degree)
    h = am.macro.h
    lo, hi = -0.5 * h, 0.5 * h
    sums = np.zeros((ns.n_nodes, 2))
    counts = np.zeros(ns.n_nodes)
    failures = {"interpolant": 0, "exact": 0}
    kept: set[int] = set()

    for e in sets.alfeld_cut:
        gids = ns.elem2node[e]
        pos = ns.coords[gids]
        va, vb, vc = am.child_vertices(int(e))
        A = np.column_stack([vb - va, vc - va])
        Ainv = np.linalg.inv(A)
        interp_vals = ls.value(pos)
        pv = phi_p1.child_values(int(e))
        xref = (pos - va) @ Ainv.T
        targets = pv[0] * (1 - xref[:, 0] - xref[:, 1]) + pv[1] * xref[:, 0] + pv[2] * xref[:, 1]
        grads = ls.gradient(pos)
        for m, gid in enumerate(gids):
            gn = np.linalg.norm(grads[m])
            if gn < 1e-12:
                raise GeometryError(f"vanishing level-set gradient at node {gid}")
            G = grads[m] / gn
            GA = Ainv @ G
            where = f"node {gid} at {pos[m]}"

            def g(d, m=m, GA=GA):
                xh = xref[m] + d * GA
                return float(ref.eval(xh[None, :])[0] @ interp_vals) - targets[m]

            def dg(d, GA=GA, m=m):
                xh = xref[m] + d * GA
                gr = ref.grad(xh[None, :])[0]
                return float((gr.T @ interp_vals) @ GA)

            try:
                delta = _newton_bisect(g, dg, lo, hi, where)
            except GeometryError:
                if not allow_unresolved:
                    raise
                # the local interpolant cannot reach the target inside the
                # bracket (tight concave bends do this on coarse levels);
                # the exact level set, which it approximates, may still
                failures["interpolant"] += 1

                def ge(d, m=m, G=G):
                    return float(ls.value(pos[m] + d * G)[0]) - targets[m]

                def dge(d, m=m, G=G):
                    return float(ls.gradient(pos[m] + d * G)[0] @ G)

                try:
                    delta = _newton_bisect(ge, dge, lo, hi, where)
                except GeometryError:
                    failures["exact"] += 1
                    kept.add(int(gid))
                    delta = 0.0
            sums[gid] += delta * G
            counts[gid] += 1.0

    moved = counts > 0
    disp = np.zeros((ns.n_nodes, 2))
    disp[moved] = sums[moved] / counts[moved, None]
    if np.linalg.norm(disp, axis=1).max(initial=0.0) > 0.5 * h * (1 + 1e-12):
        raise GeometryError("displacement exceeds half the mesh size")

    # On coarse meshes the O(h^2) displacements can reach a sizable fraction
    # of the (flat) child height and fold the polynomial map.  Damp the nodal
    # displacements of offending elements until every active child keeps a
    # uniformly positive Jacobian; the loop is a no-op once the interface
    # curvature is resolved.
    active = np.zeros(am.n_children, dtype=bool)
    active[sets.active_children] = True
    # boundary-including lattice: interior rules miss the boundary extrema of
    # the Jacobian polynomial
    L = 4 * degree
    ii, jj = np.meshgrid(np.arange(L + 1), np.arange(L + 1), indexing="ij")
    keep = (ii + jj) <= L
    pts = np.column_stack([ii[keep] / L, jj[keep] / L])
    margin = 0.05
    record = {"root_failures": failures,
              "kept_nodes": np.array(sorted(kept), dtype=np.int64)}
    for _ in range(40):
        deformation = IsoDeformation(am, degree, disp, **record)
        mapping = MappingData(am, deformation)
        check = deformation.deformed_children[active[deformation.deformed_children]]
        if check.size == 0:
            break
        F, J = mapping.jacobians_shared(check, pts)
        bad = check[J.min(axis=1) <= margin * np.abs(mapping.detA[check])]
        if bad.size == 0:
            break
        disp[np.unique(ns.elem2node[bad])] *= 0.5
    else:
        raise GeometryError("deformation damping failed to restore orientation")
    deformation.validate(elems=deformation.deformed_children[
        active[deformation.deformed_children]])
    return deformation


# ---------------------------------------------------------------------------
# element mappings


class MappingData:
    """Per-element geometric maps x = phi_K(xhat) = affine + displacement.

    All evaluation happens in reference coordinates of the undeformed child;
    F = Dphi_K, J = det F.  Elements without displaced nodes are affine.
    """

    def __init__(self, am: AlfeldMesh, deformation: IsoDeformation):
        self.am = am
        self.deformation = deformation
        self.degree = deformation.degree
        self.ref = reference_element(self.degree)
        v = am.vertices[am.children]
        self.v0 = v[:, 0]
        self.A = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        self.detA = self.A[:, 0, 0] * self.A[:, 1, 1] - self.A[:, 0, 1] * self.A[:, 1, 0]
        ns = am.lagrange_nodes(self.degree)
        moved = np.linalg.norm(deformation.node_disp, axis=1) > 0.0
        self.is_deformed = moved[ns.elem2node].any(axis=1)
        rows = np.flatnonzero(self.is_deformed)
        self._defrow = np.full(am.n_children, -1, dtype=np.int64)
        self._defrow[rows] = np.arange(rows.size)
        self.disp_local = deformation.node_disp[ns.elem2node[rows]]

    def phys(self, e: int, xhat: np.ndarray) -> np.ndarray:
        xhat = np.atleast_2d(xhat)
        x = self.v0[e] + xhat @ self.A[e].T
        r = self._defrow[e]
        if r >= 0:
            x = x + self.ref.eval(xhat) @ self.disp_local[r]
        return x

    def jacobians(self, e: int, xhat: np.ndarray, derivs: bool = False):
        """F (nq,2,2), J (nq) and optionally dF (nq,2,2,2), dJ (nq,2)."""
        xhat = np.atleast_2d(xhat)
        nq = xhat.shape[0]
        F = np.broadcast_to(self.A[e], (nq, 2, 2)).copy()
        r = self._defrow[e]
        if r >= 0:
            gr = self.ref.grad(xhat)
            F += np.einsum("mi,qmj->qij", self.disp_local[r], gr)
        J = F[:, 0, 0] * F[:, 1, 1] - F[:, 0, 1] * F[:, 1, 0]
        if not derivs:
            return F, J
        dF = np.zeros((nq, 2, 2, 2))
        if r >= 0:
            hs = self.ref.hess(xhat)
            dF = np.einsum("mi,qmjs->qijs", self.disp_local[r], hs)
        dJ = (dF[:, 0, 0, :] * F[:, 1, 1, None] + F[:, 0, 0, None] * dF[:, 1, 1, :]
              - dF[:, 0, 1, :] * F[:, 1, 0, None] - F[:, 0, 1, None] * dF[:, 1, 0, :])
        return F, J, dF, dJ

    def jacobians_shared(self, elems: np.ndarray, xhat: np.ndarray):
        """Batched F (ne,nq,2,2), J (ne,nq) at shared reference points."""
        xhat = np.atleast_2d(xhat)
        elems = np.asarray(elems)
        nq = xhat.shape[0]
        F = np.repeat(self.A[elems][:, None], nq, axis=1).copy()
        rows = self._defrow[elems]
        sel = rows >= 0
        if sel.any():
            gr = self.ref.grad(xhat)
            F[sel] += np.einsum("dmi,qmj->dqij", self.disp_local[rows[sel]], gr)
        J = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
        return F, J


# ---------------------------------------------------------------------------
# cut subdivision and quadrature


def cut_subdivide(vals: np.ndarray, verts: np.ndarray = REF_VERTS):
    """Marching-triangle subdivision of one child.

    `vals` are the three snapped vertex values (no zeros), `verts` the
    corresponding coordinates.  Returns (inside_triangles, segment): the list
    of sub-triangles covering {phi < 0} and the interface segment endpoints
    (None when uncut).  A quadrilateral inside region is split along its
    shorter diagonal.
    """
    vals = np.asarray(vals, dtype=float)
    verts = np.asarray(verts, dtype=float)
    if (vals == 0).any():
        raise ValueError("vertex values must be snapped away from zero")
    neg = vals < 0
    nneg = int(neg.sum())
    if nneg == 3:
        return [verts.copy()], None
    if nneg == 0:
        return [], None

    def crossing(i, j):
        t = vals[i] / (vals[i] - vals[j])
        return verts[i] + t * (verts[j] - verts[i])

    if nneg == 1:
        a = int(np.flatnonzero(neg)[0])
        b, c = (a + 1) % 3, (a + 2) % 3
        qab = crossing(a, b)
        qca = crossing(c, a)
        return [np.array([verts[a], qab, qca])], (qab, qca)

    # two negative vertices: the positive one is c, quad (a, b, q_bc, q_ca)
    c = int(np.flatnonzero(~neg)[0])
    a, b = (c + 1) % 3, (c + 2) % 3
    qbc = crossing(b, c)
    qca = crossing(c, a)
    quad = [verts[a], verts[b], qbc, qca]
    if np.linalg.norm(quad[0] - quad[2]) <= np.linalg.norm(quad[1] - quad[3]):
        tris = [np.array([quad[0], quad[1], quad[2]]),
                np.array([quad[0], quad[2], quad[3]])]
    else:
        tris = [np.array([quad[0], quad[1], quad[3]]),
                np.array([quad[1], quad[2], quad[3]])]
    return tris, (qbc, qca)


@dataclass
class InterfaceRule:
    """One cut child's share of the discrete interface."""

    xhat: np.ndarray      # (m, 2) reference points
    weights: np.ndarray   # (m,) physical arc-length weights
    normals: np.ndarray   # (m, 2) unit normals pointing out of the fluid
    xphys: np.ndarray     # (m, 2) mapped points


@dataclass
class CutQuadrature:
    """All quadrature data of one cut configuration.

    Volume rules are stored as reference points and weights such that
    integral = sum_q w_q * J(xhat_q) * f(x_q); the same convention holds for
    full-element rules over the bulk and the band.
    """

    am: AlfeldMesh
    sets: ElementSets
    phi_p1: DiscreteLevelSet
    mapping: MappingData
    order: int
    patch_order: int
    inside_elems: np.ndarray
    cut_elems: np.ndarray
    ref_rule: tuple[np.ndarray, np.ndarray]
    patch_rule: tuple[np.ndarray, np.ndarray]
    cut_parts: dict[int, tuple[np.ndarray, np.ndarray]]
    interface: dict[int, InterfaceRule]
    band_normals: dict[int, np.ndarray]
    area_inside: float
    area_bulk: float
    interface_length: float

    def volume_items(self):
        """Yield (element, xhat, weights) covering the fluid domain."""
        pts, wts = self.ref_rule
        for e in self.inside_elems:
            yield int(e), pts, wts
        for e in self.cut_elems:
            xh, w = self.cut_parts[int(e)]
            yield int(e), xh, w

    def bulk_items(self):
        """Yield (element, xhat, weights) covering the whole active mesh."""
        pts, wts = self.ref_rule
        for e in self.sets.active_children:
            yield int(e), pts, wts


def _inv_transpose_apply(F: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Rows of F^{-T} g for a batch of 2x2 matrices (up to a positive factor
    1/det F, irrelevant after normalization)."""
    out = np.empty((F.shape[0], 2))
    out[:, 0] = F[:, 1, 1] * g[0] - F[:, 1, 0] * g[1]
    out[:, 1] = -F[:, 0, 1] * g[0] + F[:, 0, 0] * g[1]
    return out


def _unit_rows(w: np.ndarray) -> np.ndarray:
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _map_rule_to_subtri(pts: np.ndarray, wts: np.ndarray, tri: np.ndarray):
    a, b, c = tri
    area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    x = a[None, :] + np.outer(pts[:, 0], b - a) + np.outer(pts[:, 1], c - a)
    return x, wts * 2.0 * abs(0.5 * area2)


def build_quadratures(am: AlfeldMesh, sets: ElementSets, phi_p1: DiscreteLevelSet,
                      deformation: IsoDeformation, order: int | None = None,
                      patch_order: int | None = None) -> CutQuadrature:
    """Generate volume, interface, band and patch rules for one configuration."""
    k = deformation.degree
    if order is None:
        order = 2 * k + 2
    if patch_order is None:
        patch_order = 4 * k
    mapping = MappingData(am, deformation)
    ref_rule = triangle_rule(order)
    patch_rule = triangle_rule(patch_order)
    seg_pts, seg_wts = segment_rule(order)

    inside = np.flatnonzero(sets.child_class == 0)
    cut = sets.alfeld_cut
    cut_parts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    interface: dict[int, InterfaceRule] = {}
    band_normals: dict[int, np.ndarray] = {}

    for e in cut:
        e = int(e)
        vals = phi_p1.child_values(e)
        tris, seg = cut_subdivide(vals)
        xs, ws = [], []
        for tri in tris:
            x, w = _map_rule_to_subtri(*ref_rule, tri)
            xs.append(x)
            ws.append(w)
        cut_parts[e] = (np.vstack(xs), np.concatenate(ws))

        p1, p2 = seg
        xh = p1[None, :] + np.outer(seg_pts, p2 - p1)
        F, _ = mapping.jacobians(e, xh)
        tang = F @ (p2 - p1)
        dsw = seg_wts * np.linalg.norm(tang, axis=1)
        ghat = phi_p1.ref_gradient(e)
        w = _inv_transpose_apply(F, ghat)
        normals = w / np.linalg.norm(w, axis=1, keepdims=True)
        if not (dsw > 0).all():
            raise GeometryError(f"degenerate interface segment on element {e}")
        interface[e] = InterfaceRule(xh, dsw, normals, mapping.phys(e, xh))

        Fb, _ = mapping.jacobians(e, ref_rule[0])
        band_normals[e] = _unit_rows(_inv_transpose_apply(Fb, ghat))

    quad = CutQuadrature(
        am=am, sets=sets, phi_p1=phi_p1, mapping=mapping, order=order,
        patch_order=patch_order, inside_elems=inside, cut_elems=cut,
        ref_rule=ref_rule, patch_rule=patch_rule, cut_parts=cut_parts,
        interface=interface, band_normals=band_normals,
        area_inside=0.0, area_bulk=0.0, interface_length=0.0,
    )

    area = 0.0
    for e, xh, w in quad.volume_items():
        _, J = mapping.jacobians(e, xh)
        if not (J > 0).all():
            raise GeometryError(f"nonpositive Jacobian in volume rule of element {e}")
        area += float(w @ J)
    quad.area_inside = area
    pts, wts = ref_rule
    _, Jb = mapping.jacobians_shared(sets.active_children, pts)
    quad.area_bulk = float((Jb @ wts).sum())
    quad.interface_length = float(sum(r.weights.sum() for r in interface.values()))
    return quad
