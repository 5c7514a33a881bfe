"""Background meshes, Alfeld splits, and cut-element bookkeeping.

The background mesh is a structured triangulation of an axis-aligned box.
Every macro triangle is split at its barycenter into three children (Alfeld
split); velocity and pressure spaces live on the children.  Classification
relative to a P1 level set marks children inside/cut/outside and derives the
active children and the ghost-penalty facets from the macro elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .reference import gauss_lobatto_unit, reference_nodes

# Vertex values this close to zero (relative to h) are pushed to the negative
# side so no configuration is ever treated as degenerate-cut.
SNAP_REL = 1e-12


class EmptyActiveDomainError(RuntimeError):
    """Raised when the level set leaves no element with an inside part."""


def _build_facets(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique facets, per-triangle facet ids, and facet->triangle adjacency.

    Facets are stored with sorted vertex pairs.  `facet_tris[f]` holds the
    one or two owning triangles (-1 when on the boundary).
    """
    nt = triangles.shape[0]
    raw = np.empty((3 * nt, 2), dtype=np.int64)
    raw[0::3] = triangles[:, [0, 1]]
    raw[1::3] = triangles[:, [1, 2]]
    raw[2::3] = triangles[:, [2, 0]]
    raw.sort(axis=1)
    # one int64 key per sorted pair: a 1-D unique, in the rows' lexicographic order
    nv = int(raw.max()) + 1
    keys, inverse = np.unique(raw[:, 0] * nv + raw[:, 1], return_inverse=True)
    facets = np.column_stack([keys // nv, keys % nv])
    tri_facets = inverse.reshape(nt, 3)
    facet_tris = np.full((facets.shape[0], 2), -1, dtype=np.int64)
    owner = np.repeat(np.arange(nt), 3)
    order = np.argsort(inverse, kind="stable")
    fid_sorted = inverse[order]
    own_sorted = owner[order]
    first = np.searchsorted(fid_sorted, np.arange(facets.shape[0]), side="left")
    last = np.searchsorted(fid_sorted, np.arange(facets.shape[0]), side="right")
    count = last - first
    if count.max() > 2:
        bad = tuple(facets[np.argmax(count > 2)].tolist())
        raise ValueError(f"non-manifold facet {bad} in triangulation")
    facet_tris[:, 0] = own_sorted[first]
    has2 = count == 2
    facet_tris[has2, 1] = own_sorted[first[has2] + 1]
    return facets, tri_facets, facet_tris


@dataclass
class MacroMesh:
    """Conforming triangulation of the background box.

    `build_background_mesh` guarantees what the method needs, so nothing
    rechecks it: at least 2 x 2 cells, each split into (SW, SE, NE) and
    (SW, NE, NW) of signed area dx dy / 2 > 0, congruent triangles, and one
    or two owners per facet (`_build_facets` raises on more), as
    `test_background_mesh_orientation_and_area` checks on several boxes.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, positively oriented
    h : float
        Grid pitch of the structured builder, the larger of side/n over the
        axes, each divided into n = ceil(side/h) cells for the requested h.
        Halving the requested h need not halve the pitch (h = 0.3, 0.15,
        0.075 give 7, 14 and 27 cells on a side of 2), so the levels of a
        study are not nested.  All 1/h penalty scalings, the study tables'
        h and their rates refer to this value.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    h: float
    facets: np.ndarray = field(init=False)
    tri_facets: np.ndarray = field(init=False)
    facet_tris: np.ndarray = field(init=False)

    def __post_init__(self):
        self.facets, self.tri_facets, self.facet_tris = _build_facets(self.triangles)

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def build_background_mesh(box: tuple[float, float, float, float], h: float) -> MacroMesh:
    """Structured triangular mesh of `box` = (xmin, xmax, ymin, ymax).

    Each axis is divided into ceil(side/h) cells (at least 2); every cell is
    split along its SW-NE diagonal into two triangles.
    """
    xmin, xmax, ymin, ymax = box
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("degenerate box")
    if not np.isfinite(h) or h <= 0:
        raise ValueError("mesh size must be positive")
    nx = max(2, int(np.ceil((xmax - xmin) / h)))
    ny = max(2, int(np.ceil((ymax - ymin) / h)))
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    # vertex (i, j) has id i (ny + 1) + j; v00 is the SW corner of cell (i, j)
    v00 = (np.arange(nx, dtype=np.int64)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    v10, v01, v11 = v00 + ny + 1, v00 + 1, v00 + ny + 2
    tris = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    pitch = max((xmax - xmin) / nx, (ymax - ymin) / ny)
    return MacroMesh(vertices, tris, h=pitch)


@dataclass
class NodeSet:
    """Global Lagrange nodes of one degree on the split mesh.

    `elem2node[e, m]` is the global node id of local node m of child e; the
    local ordering matches `reference_nodes` under the child's affine map.
    """

    degree: int
    coords: np.ndarray
    elem2node: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]


class AlfeldMesh:
    """Barycentric (Alfeld) split of a macro mesh.

    Child 3*t + i of macro triangle t is (v_i, v_{i+1}, barycenter_t); the
    split preserves orientation.  Lagrange node sets of any degree are built
    lazily and cached.
    """

    def __init__(self, macro: MacroMesh):
        self.macro = macro
        nt = macro.n_triangles
        bary = macro.vertices[macro.triangles].mean(axis=1)
        self.vertices = np.vstack([macro.vertices, bary])
        nv = macro.vertices.shape[0]
        bid = nv + np.arange(nt)
        t = macro.triangles
        children = np.empty((3 * nt, 3), dtype=np.int64)
        children[0::3] = np.column_stack([t[:, 0], t[:, 1], bid])
        children[1::3] = np.column_stack([t[:, 1], t[:, 2], bid])
        children[2::3] = np.column_stack([t[:, 2], t[:, 0], bid])
        self.children = children
        self.parent = np.repeat(np.arange(nt), 3)
        self.child_mesh = MacroMesh(self.vertices, children, h=macro.h)
        self._nodes: dict[int, NodeSet] = {}

    @property
    def n_children(self) -> int:
        return self.children.shape[0]

    def child_vertices(self, e) -> np.ndarray:
        return self.vertices[self.children[e]]

    def lagrange_nodes(self, degree: int) -> NodeSet:
        if degree in self._nodes:
            return self._nodes[degree]
        cm = self.child_mesh
        k = degree
        ne = self.n_children
        nv = self.vertices.shape[0]
        n_edge = cm.facets.shape[0] * (k - 1)
        n_int_per = (k - 1) * (k - 2) // 2
        gl = gauss_lobatto_unit(k)[1:-1]
        a = self.vertices[cm.facets[:, 0]]
        b = self.vertices[cm.facets[:, 1]]
        edge_pts = a[:, None, :] + gl[None, :, None] * (b - a)[:, None, :]
        ri = reference_nodes(k)[3 + 3 * (k - 1):]
        va, vb, vc = self.vertices[self.children].transpose(1, 0, 2)
        ipts = (va[:, None, :]
                + ri[None, :, 0, None] * (vb - va)[:, None, :]
                + ri[None, :, 1, None] * (vc - va)[:, None, :])
        coords = np.vstack([self.vertices, edge_pts.reshape(-1, 2), ipts.reshape(-1, 2)])

        e2n = np.empty((ne, (k + 1) * (k + 2) // 2), dtype=np.int64)
        e2n[:, 0:3] = self.children
        for le, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            fid = cm.tri_facets[:, le]
            base = nv + fid[:, None] * (k - 1) + np.arange(k - 1)[None, :]
            flip = self.children[:, a] > self.children[:, b]
            base[flip] = base[flip][:, ::-1]
            e2n[:, 3 + le * (k - 1): 3 + (le + 1) * (k - 1)] = base
        e2n[:, 3 + 3 * (k - 1):] = (nv + n_edge + n_int_per * np.arange(ne)[:, None]
                                    + np.arange(n_int_per)[None, :])
        self._nodes[k] = NodeSet(k, coords, e2n)
        return self._nodes[k]


def alfeld_split(mesh: MacroMesh) -> AlfeldMesh:
    return AlfeldMesh(mesh)


def snap_values(values: np.ndarray, h: float) -> np.ndarray:
    """Push level-set values within SNAP_REL*h of zero to the negative side."""
    tol = SNAP_REL * h
    out = np.array(values, dtype=float, copy=True)
    out[np.abs(out) <= tol] = -tol
    return out


@dataclass
class ElementSets:
    """Element and facet sets derived from the P1 level set.

    Children are classified by the signs of the snapped vertex values.  A
    macro element is active when one of its children has an inside part, and
    `active_children` are all children of active macros.  `gp_facets` are
    the interior child facets whose two owners both descend from
    ghost-penalty macros, the cut macros and their active facet neighbours
    (facets interior to a single macro element included).
    """

    child_class: np.ndarray          # 0 inside, 1 cut, 2 outside, per child
    active_children: np.ndarray
    alfeld_cut: np.ndarray
    gp_facets: np.ndarray


def classify_elements(phi) -> ElementSets:
    """Classify the split mesh `phi.am` by the signs of the vertex values of
    the P1 level set `phi`, a `geometry.DiscreteLevelSet`, which stores them
    snapped away from zero."""
    am = phi.am
    neg = (phi.vertex_values[am.children] < 0).sum(axis=1)
    child_class = np.full(am.n_children, 2, dtype=np.int64)
    child_class[neg == 3] = 0
    child_class[(neg > 0) & (neg < 3)] = 1

    per_macro = child_class.reshape(-1, 3)
    macro_has_inside = ((per_macro == 0) | (per_macro == 1)).any(axis=1)
    macro_has_cut = (per_macro == 1).any(axis=1)
    if not macro_has_inside.any():
        raise EmptyActiveDomainError("level set misses the mesh: no active element")

    # gp macros: cut macros plus active macros sharing a facet with a cut
    # one; all of them are active
    is_gp = macro_has_cut.copy()
    t0, t1 = am.macro.facet_tris[:, 0], am.macro.facet_tris[:, 1]
    interior = t1 >= 0
    a, b = t0[interior], t1[interior]
    is_gp[a[macro_has_cut[b] & macro_has_inside[a]]] = True
    is_gp[b[macro_has_cut[a] & macro_has_inside[b]]] = True

    c0, c1 = am.child_mesh.facet_tris[:, 0], am.child_mesh.facet_tris[:, 1]
    child_gp = is_gp[am.parent]
    gp_facets = np.flatnonzero((c1 >= 0) & child_gp[c0] & child_gp[np.maximum(c1, 0)])

    return ElementSets(
        child_class=child_class,
        active_children=np.flatnonzero(macro_has_inside[am.parent]),
        alfeld_cut=np.flatnonzero(child_class == 1),
        gp_facets=gp_facets,
    )
