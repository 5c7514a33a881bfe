"""Level-set geometry: P1 interpolation, isoparametric deformation, cut quadrature.

The integration domains are defined by the piecewise linear interpolant of
the level set on the split mesh, and the discrete domain is their image
under one isoparametric map, `IsoDeformation`: Phi_h = affine + a nodal
displacement of the velocity degree k.  The displacement moves each Lagrange
node of a cut element along the level-set gradient until the elementwise
degree-k interpolant matches the P1 value at the node, which places the
mapped P1 interface within O(h^{k+1}) of the exact one.  All quadrature is
generated in reference coordinates of the undeformed children; physical
weights carry det(DPhi_h) through the element Jacobian.

Element arrays: every map evaluation takes a 1-D array of ne child indices,
with reference points either shared, shape (nq, 2), or per element, shape
(ne, nq, 2), and returns results with a leading ne axis; any other element
argument raises `ValueError`.  The quadrature groups the children that share
a rule size, so each group is evaluated in one array operation, and the P1
subdivision of the cut children is one array pass, redone by every
quadrature that is built.  The mesh comes in with the P1 level set; the map
and every object built on them read it as `am`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .meshing import AlfeldMesh, ElementSets, snap_values
from .reference import lattice, reference_element, segment_rule, triangle_rule

REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# residual tolerance and step cap of the deformation root solves
ROOT_TOL = 1e-14
ROOT_MAX_ITER = 50
# children per quadrature group: bounds the memory of the batched tables
GROUP_SIZE = 256


class GeometryError(RuntimeError):
    """Deformation or quadrature construction failed."""


class LevelSet:
    """Analytic level set with values and gradients at physical points."""

    def __init__(self, value: Callable[[np.ndarray], np.ndarray],
                 gradient: Callable[[np.ndarray], np.ndarray]):
        self._value = value
        self._gradient = gradient

    def value(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self._value(np.atleast_2d(pts)), dtype=float)

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self._gradient(np.atleast_2d(pts)), dtype=float)


class DiscreteLevelSet:
    """P1 interpolant on the split mesh: one value per Alfeld vertex, stored
    snapped away from zero (`snap_values`), so that the classification, the
    deformation targets and the cut subdivision all read the same signs."""

    def __init__(self, am: AlfeldMesh, vertex_values: np.ndarray):
        vertex_values = np.asarray(vertex_values, dtype=float)
        if vertex_values.shape != (am.vertices.shape[0],):
            raise ValueError("need one value per Alfeld vertex")
        self.am = am
        self.vertex_values = snap_values(vertex_values, am.macro.h)

    def child_values(self, elems) -> np.ndarray:
        """Vertex values per child, shape (..., 3)."""
        return self.vertex_values[self.am.children[elems]]

    def ref_gradient(self, elems) -> np.ndarray:
        """Gradient with respect to reference coordinates (constant per
        child), shape (..., 2)."""
        v = self.child_values(elems)
        return np.stack([v[..., 1] - v[..., 0], v[..., 2] - v[..., 0]], axis=-1)


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
# the isoparametric map


def _elements(elems) -> np.ndarray:
    """Child indices as a 1-D array; any other shape raises."""
    elems = np.asarray(elems, dtype=np.int64)
    if elems.ndim != 1:
        raise ValueError(f"element indices of shape {elems.shape}: need a 1-D array")
    return elems


def _batch(elems, xhat):
    """An evaluation request as arrays: elems (ne,) and xhat (1 or ne, nq, 2)."""
    elems = _elements(elems)
    xhat = np.asarray(xhat, dtype=float)
    if xhat.ndim < 3:
        xhat = np.atleast_2d(xhat)[None]
    if xhat.ndim != 3 or xhat.shape[0] not in (1, elems.size):
        raise ValueError(f"reference points of shape {xhat.shape} do not fit "
                         f"{elems.size} elements")
    return elems, xhat


def _adjugate(F: np.ndarray) -> np.ndarray:
    """adj(F) = det(F) F^{-1} of 2x2 matrices F (..., 2, 2)."""
    out = np.empty_like(F)
    out[..., 0, 0] = F[..., 1, 1]
    out[..., 0, 1] = -F[..., 0, 1]
    out[..., 1, 0] = -F[..., 1, 0]
    out[..., 1, 1] = F[..., 0, 0]
    return out


def _pointwise(fn, x: np.ndarray) -> np.ndarray:
    """fn, which maps (n, 2) points to (n, ...) values, at points (..., 2)."""
    out = np.asarray(fn(x.reshape(-1, 2)), dtype=float)
    return out.reshape(x.shape[:-1] + out.shape[1:])


@dataclass
class IsoDeformation:
    """The isoparametric map x = Phi_h(xhat) = affine + degree-k nodal
    displacement, per child of the split mesh.

    All evaluation happens in reference coordinates of the undeformed child;
    F = DPhi_K, J = det F.  `phys` and `jacobians` take element arrays (see
    the module docstring).  Displacements are nonzero only at Lagrange
    nodes of cut children, so the map is affine on every element whose
    closure misses the cut band; `is_deformed` marks the children with a
    moved node and `deformed_children` lists them.

    `damping_rounds` counts the displacement halvings that unfolded the map.
    """

    am: AlfeldMesh
    degree: int
    node_disp: np.ndarray                # (n_nodes, 2)
    damping_rounds: int = 0

    def __post_init__(self):
        self.ref = reference_element(self.degree)
        v = self.am.vertices[self.am.children]
        self.v0 = v[:, 0]
        self.A = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1)
        self.detA = self.A[:, 0, 0] * self.A[:, 1, 1] - self.A[:, 0, 1] * self.A[:, 1, 0]
        self.disp_local = self.node_disp[self.am.lagrange_nodes(self.degree).elem2node]
        self.is_deformed = (self.disp_local != 0.0).any(axis=(1, 2))
        self.deformed_children = np.flatnonzero(self.is_deformed)

    @classmethod
    def identity(cls, am: AlfeldMesh, degree: int) -> "IsoDeformation":
        ns = am.lagrange_nodes(degree)
        return cls(am, degree, np.zeros((ns.n_nodes, 2)))

    @property
    def max_displacement(self) -> float:
        return float(np.linalg.norm(self.node_disp, axis=1).max(initial=0.0))

    def _displace(self, elems, table):
        """Nodal displacements contracted with a reference table (E, nq, n_k,
        ...): sum_m d_mi table_qm... -> (ne, nq, 2, ...)."""
        E, nq, nk = table.shape[:3]
        out = (np.swapaxes(table.reshape(E, nq, nk, -1), -1, -2)
               @ self.disp_local[elems, None])
        return np.moveaxis(out, -1, 2).reshape((elems.size, nq, 2) + table.shape[3:])

    def phys(self, elems: np.ndarray, xhat: np.ndarray) -> np.ndarray:
        """Mapped points, shape (ne, nq, 2)."""
        elems, xhat = _batch(elems, xhat)
        x = self.v0[elems, None] + xhat @ np.swapaxes(self.A[elems], -1, -2)
        if self.is_deformed[elems].any():
            x = x + self._displace(elems, self.ref.eval(xhat))
        return x

    def jacobians(self, elems: np.ndarray, xhat: np.ndarray, derivs: bool = False):
        """F (ne, nq, 2, 2), J (ne, nq) and optionally dF (ne, nq, 2, 2, 2),
        dJ (ne, nq, 2)."""
        elems, xhat = _batch(elems, xhat)
        nq = xhat.shape[1]
        F = np.repeat(self.A[elems, None], nq, axis=1)
        if self.is_deformed[elems].any():
            F += self._displace(elems, self.ref.grad(xhat))
        J = F[..., 0, 0] * F[..., 1, 1] - F[..., 0, 1] * F[..., 1, 0]
        if not derivs:
            return F, J
        dF = self._displace(elems, self.ref.hess(xhat))
        dJ = (dF[..., 0, 0, :] * F[..., 1, 1, None]
              + F[..., 0, 0, None] * dF[..., 1, 1, :]
              - dF[..., 0, 1, :] * F[..., 1, 0, None]
              - F[..., 0, 1, None] * dF[..., 1, 0, :])
        return F, J, dF, dJ


# ---------------------------------------------------------------------------
# isoparametric deformation


_ROOT_FAULTS = {1: "root not bracketed in [{lo:.3e}, {hi:.3e}] at node {gid} at {pos}",
                2: "root solve did not converge at node {gid} at {pos}",
                3: "vanishing level-set gradient at node {gid} at {pos}"}


def _newton_bisect(g, dg, n: int, lo: float, hi: float):
    """Roots in [lo, hi] of n scalar functions, iterated together: Newton
    from 0 with bisection fallback once bracketed.  `g(i, x)`, `dg(i, x)`
    evaluate functions i at x.  Returns the roots and a status per function:
    0 solved, 1 root not bracketed, 2 no convergence within ROOT_MAX_ITER."""
    x, status = np.zeros(n), np.full(n, 2)
    act = np.arange(n)
    gx, glo = g(act, x), g(act, np.full(n, lo))
    bracket = glo * g(act, np.full(n, hi)) <= 0.0
    blo, bhi, gblo = np.full(n, lo), np.full(n, hi), glo
    for step in range(ROOT_MAX_ITER + 1):
        solved = np.abs(gx[act]) <= ROOT_TOL
        status[act[solved]] = 0
        act = act[~solved]
        # shrink the bracket to the half that keeps the sign change
        b = act[bracket[act]]
        lower = gblo[b] * gx[b] <= 0.0
        bhi[b] = np.where(lower, x[b], bhi[b])
        blo[b], gblo[b] = np.where(lower, blo[b], x[b]), np.where(lower, gblo[b], gx[b])
        if act.size == 0 or step == ROOT_MAX_ITER:
            return x, status
        d = dg(act, x[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x[act] - gx[act] / d
        newton = (d != 0.0) & (lo <= xn) & (xn <= hi)
        lost = ~newton & ~bracket[act]
        status[act[lost]] = 1
        act, xn, newton = act[~lost], xn[~lost], newton[~lost]
        x[act] = np.where(newton, xn, 0.5 * (blo[act] + bhi[act]))
        gx[act] = g(act, x[act])


def build_deformation(ls: LevelSet, phi_p1: DiscreteLevelSet, sets: ElementSets,
                      degree: int) -> IsoDeformation:
    """Isoparametric deformation of the cut band of `phi_p1`'s mesh.

    For every Lagrange node of a cut child, solve along the normalized exact
    gradient direction G for the displacement delta with
    phi_K^k(x + delta G) = phi_p1(x), where phi_K^k is the elementwise
    degree-k interpolant of the exact level set.  Nodes shared by several cut
    children receive the mean displacement; all other nodes stay put.  The
    root solves of all (cut child, local node) pairs run as one masked
    Newton/bisection iteration (`_newton_bisect`).

    A root that is not found within half a mesh size raises `GeometryError`
    naming the first such node in (cut child, local node) order and its
    position: the feature is not resolved at this h, and the map is not
    defined there.
    """
    if degree < 2:
        raise ValueError("deformation degree must be >= 2")
    if sets.alfeld_cut.size == 0:
        raise GeometryError("no cut elements: nothing to deform")
    am = phi_p1.am
    ns = am.lagrange_nodes(degree)
    ref = reference_element(degree)
    h = am.macro.h
    lo, hi = -0.5 * h, 0.5 * h
    cut = sets.alfeld_cut
    nk = ns.elem2node.shape[1]
    gids = ns.elem2node[cut].ravel()
    pos = ns.coords[gids]
    v = np.repeat(am.child_vertices(cut), nk, axis=0)
    Ainv = np.linalg.inv(np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=-1))
    xref = np.einsum("pij,pj->pi", Ainv, pos - v[:, 0])
    # the degree-k interpolant on each pair's child, by its nodal values
    interp = np.repeat(ls.value(pos).reshape(-1, nk), nk, axis=0)
    pv = np.repeat(phi_p1.child_values(cut), nk, axis=0)
    targets = pv[:, 0] * (1 - xref[:, 0] - xref[:, 1]) + pv[:, 1] * xref[:, 0] + pv[:, 2] * xref[:, 1]
    grads = ls.gradient(pos)
    gn = np.linalg.norm(grads, axis=1)
    flat = gn < 1e-12
    G = grads / np.where(flat, 1.0, gn)[:, None]
    GA = np.einsum("pij,pj->pi", Ainv, G)

    def g(i, d):
        val = ref.eval(xref[i] + d[:, None] * GA[i])
        return np.einsum("pm,pm->p", val, interp[i]) - targets[i]

    def dg(i, d):
        gr = ref.grad(xref[i] + d[:, None] * GA[i])
        return (np.einsum("pmk,pm->pk", gr, interp[i]) * GA[i]).sum(-1)

    delta, status = _newton_bisect(g, dg, gids.size, lo, hi)
    # report the first fault in pair order, as a node-by-node sweep meets it
    status[flat] = 3
    fatal = np.flatnonzero(status)
    if fatal.size:
        i = fatal[0]
        raise GeometryError(_ROOT_FAULTS[status[i]].format(lo=lo, hi=hi, gid=gids[i],
                                                            pos=pos[i]))
    sums = np.zeros((ns.n_nodes, 2))
    np.add.at(sums, gids, delta[:, None] * G)
    counts = np.bincount(gids, minlength=ns.n_nodes)
    moved = counts > 0
    disp = np.zeros((ns.n_nodes, 2))
    disp[moved] = sums[moved] / counts[moved, None]
    return _damped_deformation(am, sets, degree, disp)


def _damped_deformation(am: AlfeldMesh, sets: ElementSets, degree: int,
                        disp: np.ndarray) -> IsoDeformation:
    """The deformation by the nodal displacements `disp`, damped as below."""
    # On coarse meshes the O(h^2) displacements can reach a sizable fraction
    # of the (flat) child height and fold the polynomial map.  Damp the nodal
    # displacements of offending elements until every active child keeps a
    # uniformly positive Jacobian.  Resolved meshes damp too: example 1 at
    # h = 0.3 takes 1, 2, 3 rounds at k = 2, 3, 4, and the star of example 2
    # 3, 3, 1 rounds at h = 0.15, 0.075, 0.0375 (k = 2).
    ns = am.lagrange_nodes(degree)
    active = np.zeros(am.n_children, dtype=bool)
    active[sets.active_children] = True
    # boundary-including lattice: interior rules miss the boundary extrema of
    # the Jacobian polynomial
    pts = lattice(4 * degree)[0]
    margin = 0.05
    for rounds in range(40):
        deformation = IsoDeformation(am, degree, disp, damping_rounds=rounds)
        check = deformation.deformed_children[active[deformation.deformed_children]]
        if check.size == 0:
            break
        _, J = deformation.jacobians(check, pts)
        bad = check[J.min(axis=1) <= margin * np.abs(deformation.detA[check])]
        if bad.size == 0:
            break
        disp[np.unique(ns.elem2node[bad])] *= 0.5
    else:
        raise GeometryError(f"deformation damping failed to restore orientation "
                            f"of element {bad[0]}")
    return deformation


# ---------------------------------------------------------------------------
# cut subdivision and quadrature


def cut_subdivide(vals: np.ndarray):
    """Marching-triangle subdivision of cut children in reference coordinates.

    `vals` (ne, 3) holds snapped vertex values, no zeros and both signs per
    row.  With o the vertex whose sign is alone, p, q = o+1, o+2 (mod 3) and
    X, Y the crossings on the edges (o, p), (q, o), the part {phi < 0} is
    [o, X, Y] with segment (X, Y) when o is negative, else the quad
    [p, q, Y, X] split along its shorter diagonal, with segment (Y, X).
    Returns [(rows, tris (n_rows, n, 3, 2)) for n = 1, 2 if a row has n
    pieces] and the segments (ne, 2, 2).
    """
    vals = np.asarray(vals, dtype=float)
    neg = vals < 0
    one = neg.sum(axis=1) == 1
    bad = np.flatnonzero((vals == 0).any(axis=1) | neg.all(axis=1) | ~neg.any(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]} of the vertex values is not a cut child "
                         "with values snapped away from zero")
    o = np.argmax(neg == one[:, None], axis=1)
    p, q = (o + 1) % 3, (o + 2) % 3
    r = np.arange(vals.shape[0])

    def crossing(i, j):
        t = vals[r, i] / (vals[r, i] - vals[r, j])
        return REF_VERTS[i] + t[:, None] * (REF_VERTS[j] - REF_VERTS[i])

    X, Y = crossing(o, p), crossing(q, o)
    seg = np.where(one[:, None, None], np.stack([X, Y], axis=1), np.stack([Y, X], axis=1))
    tri = np.stack([REF_VERTS[o], X, Y], axis=1)[one, None]
    quad = np.stack([REF_VERTS[p], REF_VERTS[q], Y, X], axis=1)[~one]
    short = (np.linalg.norm(quad[:, 0] - quad[:, 2], axis=-1)
             <= np.linalg.norm(quad[:, 1] - quad[:, 3], axis=-1))
    split = np.where(short[:, None, None], [[0, 1, 2], [0, 2, 3]], [[0, 1, 3], [1, 2, 3]])
    quads = quad[np.arange(quad.shape[0])[:, None, None], split]
    pieces = [(np.flatnonzero(one), tri), (np.flatnonzero(~one), quads)]
    return [(rows, tris) for rows, tris in pieces if rows.size], seg


@dataclass
class InterfaceRule:
    """The discrete interface over the cut children `elems`, one segment per
    child, stacked along the leading element axis; `CutQuadrature.interface`
    views it per child, without that axis.  The physical points are
    `mapping.phys(elems, xhat)`."""

    elems: np.ndarray     # (ne,) cut children
    xhat: np.ndarray      # (ne, m, 2) reference points
    weights: np.ndarray   # (ne, m) physical arc-length weights
    normals: np.ndarray   # (ne, m, 2) unit normals pointing out of the fluid


def _groups(elems: np.ndarray, xhat: np.ndarray, weights: np.ndarray):
    """Split a rule over `elems` into groups of at most GROUP_SIZE children."""
    for s in range(0, elems.size, GROUP_SIZE):
        part = slice(s, s + GROUP_SIZE)
        if xhat.ndim == 2:
            yield elems[part], xhat, weights
        else:
            yield elems[part], xhat[part], weights[part]


@dataclass
class CutQuadrature:
    """All quadrature data of one cut configuration.

    The rules of degree `order` are derived from the map and the
    `cut_subdivide` of the cut children when the object is built;
    `build_quadratures(..., order=)` gives the rules of another degree.
    The patch rule of the ghost penalties has degree 4 * map degree.

    Volume rules come in groups (elems, xhat, weights) such that the integral
    over a group is sum_q w_q * J(xhat_q) * f(x_q) per element: the inside
    children share `ref_rule`, and the cut children are stacked by the point
    count of their cut parts (one or two sub-triangles).  The groups on
    `ref_rule` hold undeformed children first, then deformed ones, never
    both: the deformation moves only the cut band's nodes, and only a group
    with a moved child pays for the curved map.  A form whose integrand is a
    polynomial on undeformed children (no curved map, no data such as f)
    passes its degree and gets the smaller rule exact for it there.
    `band_normals` (per cut child, on `ref_rule`) and `interface_rule` are
    stacked in the order of `sets.alfeld_cut`.  The build checks that the
    Jacobian is positive at every point of the volume groups.  The mesh `am`
    is the map's; the P1 level set must live on it.
    """

    sets: ElementSets
    phi_p1: DiscreteLevelSet
    mapping: IsoDeformation
    order: int
    am: AlfeldMesh = field(init=False)
    inside_elems: np.ndarray = field(init=False)
    ref_rule: tuple[np.ndarray, np.ndarray] = field(init=False)
    patch_rule: tuple[np.ndarray, np.ndarray] = field(init=False)
    cut_groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(init=False)
    interface_rule: InterfaceRule = field(init=False)
    band_normals: np.ndarray = field(init=False)

    def __post_init__(self):
        mapping = self.mapping
        self.am = mapping.am
        if self.phi_p1.am is not self.am:
            raise ValueError("the P1 level set and the map live on different meshes")
        cut = self.sets.alfeld_cut
        subtriangles, seg = cut_subdivide(self.phi_p1.child_values(cut))
        self.ref_rule = triangle_rule(self.order)
        self.patch_rule = triangle_rule(4 * mapping.degree)
        seg_pts, seg_wts = segment_rule(self.order)
        self.inside_elems = np.flatnonzero(self.sets.child_class == 0)
        self.cut_groups = [(cut[rows], *_map_rule_to_subtris(*self.ref_rule, tris))
                           for rows, tris in subtriangles]

        d = seg[:, 1] - seg[:, 0]
        xh = seg[:, None, 0] + seg_pts[None, :, None] * d[:, None]
        F, _ = mapping.jacobians(cut, xh)
        dsw = seg_wts * np.linalg.norm(np.einsum("eqij,ej->eqi", F, d), axis=-1)
        bad = cut[~(dsw > 0).all(axis=-1)]
        if bad.size:
            raise GeometryError(f"degenerate interface segment on element {bad[0]}")
        ghat = self.phi_p1.ref_gradient(cut)[:, None]
        # F^{-T} ghat up to the positive factor 1/J, which the normalization drops
        normals = _unit_rows((_adjugate(F) * ghat[..., None]).sum(-2))
        self.interface_rule = InterfaceRule(cut, xh, dsw, normals)
        Fb, _ = mapping.jacobians(cut, self.ref_rule[0])
        self.band_normals = _unit_rows((_adjugate(Fb) * ghat[..., None]).sum(-2))

        for elems, xh, w in self.volume_groups():
            _, J = mapping.jacobians(elems, xh)
            bad = elems[(J <= 0).any(axis=-1)]
            if bad.size:
                raise GeometryError(
                    f"nonpositive Jacobian in volume rule of element {bad[0]}")

    def _split_groups(self, elems: np.ndarray, affine_degree: int | None):
        """`ref_rule` groups over `elems`, the undeformed children first, on
        the rule exact for `affine_degree` when it is given."""
        bent = self.mapping.is_deformed[elems]
        flat = self.ref_rule if affine_degree is None else triangle_rule(affine_degree)
        yield from _groups(elems[~bent], *flat)
        yield from _groups(elems[bent], *self.ref_rule)

    def volume_groups(self, affine_degree: int | None = None):
        """Yield (elems, xhat, weights) groups covering the fluid domain; the
        undeformed children get the rule exact for `affine_degree` if given."""
        yield from self._split_groups(self.inside_elems, affine_degree)
        for group in self.cut_groups:
            yield from _groups(*group)

    def bulk_groups(self, affine_degree: int | None = None):
        """Yield (elems, xhat, weights) groups covering the whole active mesh,
        with `affine_degree` as in `volume_groups`."""
        yield from self._split_groups(self.sets.active_children, affine_degree)

    @property
    def interface(self) -> dict[int, InterfaceRule]:
        """The interface rule of each cut child, as views of `interface_rule`."""
        r = self.interface_rule
        return {int(e): InterfaceRule(int(e), r.xhat[i], r.weights[i], r.normals[i])
                for i, e in enumerate(r.elems)}


def _unit_rows(w: np.ndarray) -> np.ndarray:
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


def _map_rule_to_subtris(pts: np.ndarray, wts: np.ndarray, tris: np.ndarray):
    """A reference rule mapped onto the sub-triangles tris (ne, n, 3, 2):
    points (ne, n * nq, 2) and weights (ne, n * nq)."""
    a, b, c = (tris[..., i, None, :] for i in range(3))
    area2 = ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
             - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))
    x = a + pts[:, 0, None] * (b - a) + pts[:, 1, None] * (c - a)
    w = wts * 2.0 * abs(0.5 * area2)
    return x.reshape(tris.shape[0], -1, 2), w.reshape(tris.shape[0], -1)


def build_quadratures(sets: ElementSets, phi_p1: DiscreteLevelSet,
                      deformation: IsoDeformation,
                      order: int | None = None) -> CutQuadrature:
    """Volume, interface, band and patch rules for one configuration, of
    degree `order`, by default 2k+2 for the deformation degree k;
    `compute_errors` builds its rules of degree 2k+4 here."""
    if order is None:
        order = 2 * deformation.degree + 2
    return CutQuadrature(sets, phi_p1, deformation, order)
