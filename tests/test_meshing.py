import numpy as np
import pytest

from cutstokes.meshing import (MacroMesh, EmptyActiveDomainError, build_background_mesh,
                               alfeld_split, classify_elements, snap_values, SNAP_REL)
from cutstokes.reference import reference_nodes
from tests.conftest import boundary_facets, child_areas, facet_nodes, quartic_levelset
from cutstokes.geometry import DiscreteLevelSet, interpolate_p1


def test_structured_mesh_counts():
    m = build_background_mesh((-1, 1, -1, 1), 1.0)
    assert m.n_triangles == 8
    assert m.vertices.shape[0] == 9
    assert m.h == 1.0
    m = build_background_mesh((-1, 1, -1, 1), 0.3)
    assert m.n_triangles == 98          # N = ceil(2/0.3) = 7 per axis
    assert np.isclose(m.h, 2 / 7)


@pytest.mark.parametrize("box, h", [((-1, 1, -1, 1), 0.3), ((0, 3, -1, 0.5), 0.17)])
def test_background_mesh_matches_cell_loop(box, h):
    # cell (i, j) has SW corner i (ny + 1) + j and is split into
    # (SW, SE, NE) and (SW, NE, NW), cells in i-major order
    m = build_background_mesh(box, h)
    nx = int(np.ceil((box[1] - box[0]) / h))
    ny = int(np.ceil((box[3] - box[2]) / h))
    tris = []
    for i in range(nx):
        for j in range(ny):
            sw, se = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
            tris += [(sw, se, se + 1), (sw, se + 1, sw + 1)]
    assert m.triangles.dtype == np.int64
    assert np.array_equal(m.triangles, tris)


def test_background_mesh_orientation_and_area():
    m = build_background_mesh((0, 2, -1, 0.5), 0.4)
    v = m.vertices[m.triangles]
    u, w = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    areas = 0.5 * (u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
    assert (areas > 0).all()
    assert np.isclose(areas.sum(), 2 * 1.5, atol=1e-13)


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        build_background_mesh((0, 0, 0, 1), 0.1)
    with pytest.raises(ValueError):
        build_background_mesh((0, 1, 0, 1), -0.1)


def test_facet_structure():
    m = build_background_mesh((-1, 1, -1, 1), 1.0)
    owners = (m.facet_tris >= 0).sum(axis=1)
    assert ((owners == 1) | (owners == 2)).all()
    # Euler: V - E + F(tris) = 1 for a disk
    assert m.vertices.shape[0] - m.facets.shape[0] + m.n_triangles == 1
    for t in range(m.n_triangles):
        for le, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            f = m.tri_facets[t, le]
            assert set(m.facets[f]) == {m.triangles[t, a], m.triangles[t, b]}


def test_nonmanifold_rejected():
    verts = np.array([[0.0, 0], [1, 0], [0, 1], [0, -1], [-1, 0.5]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]])
    with pytest.raises(ValueError, match="manifold"):
        MacroMesh(verts, tris, h=1.0)


def test_quasi_uniformity_guard():
    verts = np.array([[0.0, 0], [1, 0], [0, 1], [5, 5], [5.1, 5], [5, 5.1]])
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    m = MacroMesh(verts, tris, h=1.0)
    with pytest.raises(ValueError, match="quasi-uniform"):
        m.validate()


def test_alfeld_split_counts_and_areas():
    m = build_background_mesh((-1, 1, -1, 1), 1.0)
    am = alfeld_split(m)
    assert am.n_children == 24
    assert am.vertices.shape[0] == 9 + 8
    assert np.isclose(child_areas(am).sum(), 4.0, atol=1e-13)
    assert (child_areas(am) > 0).all()
    # each child of macro t has the barycenter as its third vertex
    for t in range(m.n_triangles):
        bary = m.vertices[m.triangles[t]].mean(axis=0)
        for i in range(3):
            assert np.allclose(am.child_vertices(3 * t + i)[2], bary)
        assert (am.parent[3 * t: 3 * t + 3] == t).all()


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_lagrange_node_layout(degree):
    m = build_background_mesh((-1, 1, -1, 1), 0.7)
    am = alfeld_split(m)
    ns = am.lagrange_nodes(degree)
    k = degree
    nv = am.vertices.shape[0]
    nf = am.child_mesh.facets.shape[0]
    ne = am.n_children
    assert ns.n_nodes == nv + nf * (k - 1) + ne * (k - 1) * (k - 2) // 2
    # local node coordinates must be the affine image of the reference layout
    ref = reference_nodes(k)
    for e in range(ne):
        va, vb, vc = am.child_vertices(e)
        want = va + np.outer(ref[:, 0], vb - va) + np.outer(ref[:, 1], vc - va)
        got = ns.coords[ns.elem2node[e]]
        assert np.abs(got - want).max() < 1e-13


def test_facet_nodes_shared_between_owners():
    m = build_background_mesh((-1, 1, -1, 1), 0.9)
    am = alfeld_split(m)
    ns = am.lagrange_nodes(3)
    cm = am.child_mesh
    for fid in range(cm.facets.shape[0]):
        t0, t1 = cm.facet_tris[fid]
        if t1 < 0:
            continue
        fn = set(facet_nodes(ns, am, fid).tolist())
        assert fn <= set(ns.elem2node[t0].tolist())
        assert fn <= set(ns.elem2node[t1].tolist())


def test_snap_values():
    h = 0.25
    tol = SNAP_REL * h
    vals = np.array([0.0, tol / 2, -tol / 2, 2 * tol, 1.0, -1.0])
    out = snap_values(vals, h)
    assert out[0] == -tol and out[1] == -tol and out[2] == -tol
    assert out[3] == 2 * tol
    assert out[4] == 1.0 and out[5] == -1.0


def test_classify_all_inside_and_all_outside():
    m = build_background_mesh((-1, 1, -1, 1), 0.6)
    am = alfeld_split(m)
    sets = classify_elements(DiscreteLevelSet(am, -np.ones(am.vertices.shape[0])))
    assert sets.alfeld_cut.size == 0
    assert sets.gp_facets.size == 0
    assert sets.active_children.size == am.n_children
    # the active mesh fills the box, so its boundary is the box boundary
    box_bnd = np.flatnonzero(am.child_mesh.facet_tris[:, 1] < 0)
    assert np.array_equal(boundary_facets(am, sets.active_children), box_bnd)
    with pytest.raises(EmptyActiveDomainError):
        classify_elements(DiscreteLevelSet(am, np.ones(am.vertices.shape[0])))


def test_classify_counts_quartic():
    # frozen counts for the quartic level set on the h=0.3 box mesh
    m = build_background_mesh((-1, 1, -1, 1), 0.3)
    am = alfeld_split(m)
    ls = quartic_levelset()
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    assert (sets.child_class == 0).sum() == 66
    assert sets.alfeld_cut.size == 78
    assert sets.active_children.size == 144
    assert sets.gp_facets.size == 164
    assert boundary_facets(am, sets.active_children).size == 18


def test_cut_macro_matches_dense_sampling_oracle():
    # brute force: a macro is cut iff the P1 interpolant changes sign on it
    rng = np.random.default_rng(7)
    m = build_background_mesh((-1, 1, -1, 1), 0.3)
    am = alfeld_split(m)
    phi = interpolate_p1(quartic_levelset(), am)
    sets = classify_elements(phi)
    bary = np.column_stack([rng.random(2000), rng.random(2000)])
    keep = bary.sum(axis=1) <= 1.0
    bary = bary[keep]
    cut_oracle = []
    for t in range(m.n_triangles):
        signs = set()
        for c in range(3):
            e = 3 * t + c
            vals = phi.child_values(e)
            s = (vals[0] * (1 - bary[:, 0] - bary[:, 1]) + vals[1] * bary[:, 0]
                 + vals[2] * bary[:, 1])
            signs.update(np.sign(s[s != 0]).astype(int).tolist())
            signs.update(np.sign(vals).astype(int).tolist())
        if signs == {-1, 1}:
            cut_oracle.append(t)
    assert np.unique(am.parent[sets.alfeld_cut]).tolist() == cut_oracle


def test_gp_facet_oracle():
    m = build_background_mesh((-1, 1, -1, 1), 0.3)
    am = alfeld_split(m)
    phi = interpolate_p1(quartic_levelset(), am)
    sets = classify_elements(phi)
    # macro sets from the child classes: a macro is active when a child has
    # an inside part and cut when a child is cut
    per_macro = sets.child_class.reshape(-1, 3)
    active = set(np.flatnonzero((per_macro < 2).any(axis=1)).tolist())
    cut = set(np.flatnonzero((per_macro == 1).any(axis=1)).tolist())
    # gp macros are the cut macros plus their active facet neighbors
    gp = set(cut)
    mm = am.macro
    for fid in range(mm.facets.shape[0]):
        a, b = mm.facet_tris[fid]
        if b < 0:
            continue
        if a in cut and b in active:
            gp.add(b)
        if b in cut and a in active:
            gp.add(a)
    cm = am.child_mesh
    oracle = []
    for fid in range(cm.facets.shape[0]):
        t0, t1 = cm.facet_tris[fid]
        if t1 < 0:
            continue
        p0, p1 = am.parent[t0], am.parent[t1]
        if p0 in active and p1 in active and p0 in gp and p1 in gp:
            oracle.append(fid)
    assert sets.gp_facets.tolist() == oracle
    assert set(am.parent[sets.active_children].tolist()) == active


def test_band_elements_near_interface():
    # every cut child must contain interface: |phi| at its barycenter is O(h)
    m = build_background_mesh((-1, 1, -1, 1), 0.15)
    am = alfeld_split(m)
    ls = quartic_levelset()
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    h = am.macro.h
    pts = am.vertices[am.children[sets.alfeld_cut]].mean(axis=1)
    vals = np.abs(ls.value(pts))
    grad = np.linalg.norm(ls.gradient(pts), axis=1)
    assert (vals / grad < 2 * h).all()
