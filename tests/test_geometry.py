from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad as quad1d

from cutstokes.meshing import build_background_mesh, alfeld_split, classify_elements
from cutstokes.geometry import (GeometryError, LevelSet, DiscreteLevelSet,
                                interpolate_p1, IsoDeformation, build_deformation,
                                CutQuadrature, cut_subdivide, _damped_deformation,
                                build_quadratures, REF_VERTS)
from tests.conftest import (areas, build_case, circle_levelset, eval_ref,
                            gradient_fd_error, inverse_map, per_node_deformation,
                            quartic_levelset)


def quartic_area() -> float:
    # polar form: r^4 (cos^4 + sin^4) = 1/4, area = int r^2/2 dtheta
    val, err = quad1d(lambda t: 0.25 / np.sqrt(np.cos(t) ** 4 + np.sin(t) ** 4),
                      0, 2 * np.pi, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


# ---------------------------------------------------------------------------
# level sets and P1 interpolation


def test_levelset_gradient_probe():
    ls = quartic_levelset()
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(50, 2))
    assert gradient_fd_error(ls, pts) < 1e-7
    lying = LevelSet(lambda p: p[:, 0] ** 2, lambda p: np.column_stack(
        [np.ones(len(p)), np.zeros(len(p))]))
    assert gradient_fd_error(lying, pts) > 1e-2


def test_interpolate_p1_linear_exact():
    m = build_background_mesh((-1, 1, -1, 1), 0.4)
    am = alfeld_split(m)
    ls = LevelSet(lambda p: 0.3 * p[:, 0] - 0.7 * p[:, 1] + 0.1,
                  lambda p: np.tile([0.3, -0.7], (len(p), 1)))
    phi = interpolate_p1(ls, am)
    rng = np.random.default_rng(0)
    for e in rng.integers(0, am.n_children, 20):
        xh = rng.random((5, 2)) * 0.4
        va, vb, vc = am.child_vertices(int(e))
        x = va + np.outer(xh[:, 0], vb - va) + np.outer(xh[:, 1], vc - va)
        assert np.abs(eval_ref(phi, int(e), xh) - ls.value(x)).max() < 1e-13


def test_interpolate_p1_quartic_second_order():
    ls = quartic_levelset()
    errs = []
    mesh = build_background_mesh((-1, 1, -1, 1), 0.15)
    for _ in range(2):
        am = alfeld_split(mesh)
        phi = interpolate_p1(ls, am)
        pts = am.vertices[am.children].mean(axis=1)
        p1 = np.array([eval_ref(phi, e, np.array([[1 / 3, 1 / 3]]))[0]
                       for e in range(am.n_children)])
        errs.append(np.abs(ls.value(pts) - p1).max())
        mesh = build_background_mesh((-1, 1, -1, 1), mesh.h / 2)
    assert 3.4 <= errs[0] / errs[1] <= 4.6


def test_interpolate_p1_rejects_nonfinite():
    m = build_background_mesh((-1, 1, -1, 1), 0.8)
    am = alfeld_split(m)
    ls = LevelSet(lambda p: np.where(p[:, 0] > 0.9, np.nan, p[:, 0]),
                  lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    with pytest.raises(GeometryError, match="non-finite"):
        interpolate_p1(ls, am)


# ---------------------------------------------------------------------------
# cut subdivision


@pytest.mark.parametrize("row", [[0.0, 1.0, -1.0], [-1.0, -2.0, -0.5], [1.0, 2.0, 0.5]],
                         ids=["zero", "uncut-inside", "uncut-outside"])
def test_cut_subdivide_rejects_zero(row):
    # only cut children with snapped values are subdivided; the error names
    # the first row at fault
    with pytest.raises(ValueError, match="row 1 "):
        cut_subdivide(np.array([[1.0, -1.0, 0.5], row, row]))


def _part_areas(vals: np.ndarray) -> np.ndarray:
    """Area of the part {phi < 0} of each row's reference triangle."""
    pieces, _ = cut_subdivide(vals)
    area = np.zeros(len(vals))
    for rows, tris in pieces:
        e1, e2 = tris[..., 1, :] - tris[..., 0, :], tris[..., 2, :] - tris[..., 0, :]
        area[rows] += 0.5 * np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]).sum(-1)
    return area


def _cut_rows(vals: np.ndarray) -> np.ndarray:
    return vals[(vals != 0).all(axis=1) & (vals < 0).any(axis=1) & (vals > 0).any(axis=1)]


def test_cut_subdivide_area_partition_random():
    # the parts for vals and -vals tile the reference triangle
    rng = np.random.default_rng(42)
    vals = _cut_rows(rng.standard_normal((2000, 3)))[:1000]
    assert len(vals) == 1000
    a = _part_areas(vals) + _part_areas(-vals)
    assert np.abs(a - 0.5).max() / 0.5 <= 1e-13
    # both orientations see the same interface segment
    seg_in, seg_out = cut_subdivide(vals)[1], cut_subdivide(-vals)[1]
    assert np.allclose(np.sort(seg_in, axis=1), np.sort(seg_out, axis=1))


def test_cut_subdivide_matches_child_loop():
    # the batched pass does the arithmetic of a one-child marching triangle,
    # so it agrees with it bit for bit
    rng = np.random.default_rng(5)
    vals = _cut_rows(rng.standard_normal((400, 3)))
    pieces, seg = cut_subdivide(vals)
    got = {int(r): t for rows, tris in pieces for r, t in zip(rows, tris)}
    assert sorted(got) == list(range(len(vals)))
    for i, v in enumerate(vals):
        o = int(np.flatnonzero((v < 0) == ((v < 0).sum() == 1))[0])
        p, q = (o + 1) % 3, (o + 2) % 3
        X = REF_VERTS[o] + v[o] / (v[o] - v[p]) * (REF_VERTS[p] - REF_VERTS[o])
        Y = REF_VERTS[q] + v[q] / (v[q] - v[o]) * (REF_VERTS[o] - REF_VERTS[q])
        if v[o] < 0:
            want, wseg = [[REF_VERTS[o], X, Y]], [X, Y]
        else:
            c = [REF_VERTS[p], REF_VERTS[q], Y, X]
            if np.linalg.norm(c[0] - c[2]) <= np.linalg.norm(c[1] - c[3]):
                want = [[c[0], c[1], c[2]], [c[0], c[2], c[3]]]
            else:
                want = [[c[0], c[1], c[3]], [c[1], c[2], c[3]]]
            wseg = [Y, X]
        assert np.array_equal(got[i], want) and np.array_equal(seg[i], wseg), i


def test_cut_subdivide_segment_on_zero_line():
    rng = np.random.default_rng(11)
    vals = _cut_rows(rng.standard_normal((200, 3)))
    _, seg = cut_subdivide(vals)
    v = vals[:, None]
    lin = (v[..., 0] * (1 - seg[..., 0] - seg[..., 1]) + v[..., 1] * seg[..., 0]
           + v[..., 2] * seg[..., 1])
    assert (np.abs(lin) < 1e-13 * np.abs(vals).max(axis=1, keepdims=True)).all()


# ---------------------------------------------------------------------------
# deformation


def test_deformation_linear_levelset_is_identity():
    m = build_background_mesh((-1, 1, -1, 1), 0.4)
    am = alfeld_split(m)
    ls = LevelSet(lambda p: p[:, 0] - 0.21, lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    defo = build_deformation(ls, phi, sets, 2)
    assert defo.max_displacement <= 1e-12


def test_deformation_circle_root_residual():
    # a degree-2 interpolant of the quadric is exact: each displaced node must
    # land on the level line of its P1 value, up to solver tolerance
    r = 0.625
    ls = circle_levelset(r)
    m = build_background_mesh((-1, 1, -1, 1), 0.25)
    am = alfeld_split(m)
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    defo = build_deformation(ls, phi, sets, 2)
    ns = am.lagrange_nodes(2)
    moved = np.flatnonzero(np.linalg.norm(defo.node_disp, axis=1) > 0)
    assert moved.size > 0
    y = ns.coords[moved] + defo.node_disp[moved]
    # P1 value at the node: evaluate through any owning cut child
    targ = np.empty(moved.size)
    owner = {}
    for e in sets.alfeld_cut:
        for loc, gid in enumerate(ns.elem2node[e]):
            owner.setdefault(int(gid), (int(e), loc))
    from cutstokes.reference import reference_nodes
    rn = reference_nodes(2)
    for i, gid in enumerate(moved):
        e, loc = owner[int(gid)]
        targ[i] = eval_ref(phi, e, rn[loc][None, :])[0]
    assert np.abs(ls.value(y) - targ).max() <= 1e-10 * r * r


def test_deformation_interface_accuracy_eoc():
    # max |phi| over mapped interface points decays at O(h^{k+1})
    ls = quartic_levelset()
    mesh = build_background_mesh((-1, 1, -1, 1), 0.15)
    errs = []
    for _ in range(4):
        am = alfeld_split(mesh)
        phi = interpolate_p1(ls, am)
        sets = classify_elements(phi)
        defo = build_deformation(ls, phi, sets, 2)
        quad = build_quadratures(sets, phi, defo)
        r = quad.interface_rule
        errs.append(np.abs(ls.value(defo.phys(r.elems, r.xhat).reshape(-1, 2))).max())
        mesh = build_background_mesh((-1, 1, -1, 1), mesh.h / 2)
    eocs = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert ((eocs >= 2.6) & (eocs <= 3.4)).all(), eocs


def test_deformation_damps_on_coarse_mesh():
    # coarse quartic case: displacements are damped rather than folding the map
    ls = quartic_levelset()
    m = build_background_mesh((-1, 1, -1, 1), 0.3)
    am = alfeld_split(m)
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    defo = build_deformation(ls, phi, sets, 2)
    assert defo.max_displacement <= 0.5 * am.macro.h
    L = 8
    ii, jj = np.meshgrid(np.arange(L + 1), np.arange(L + 1), indexing="ij")
    keep = (ii + jj) <= L
    pts = np.column_stack([ii[keep] / L, jj[keep] / L])
    active = np.zeros(am.n_children, dtype=bool)
    active[sets.active_children] = True
    check = defo.deformed_children[active[defo.deformed_children]]
    _, J = defo.jacobians(check, pts)
    assert (J > 0).all()
    assert defo.damping_rounds > 0


def test_deformation_resolved_case_needs_no_damping(quartic_case_h015):
    assert quartic_case_h015[3].damping_rounds == 0


def _oscillating_levelset() -> LevelSet:
    return LevelSet(lambda p: p[:, 1] - 0.45 + 0.2 * np.sin(15 * p[:, 0]),
                    lambda p: np.column_stack([3.0 * np.cos(15 * p[:, 0]),
                                               np.ones(len(p))]))


def test_deformation_batched_matches_per_node():
    # the masked iteration over all (cut child, node) pairs finds the roots
    # of the node-by-node solves, and names the same first failing node
    # where the mesh does not resolve the interface
    from cutstokes.harness import exact_example2
    star = exact_example2().levelset

    def split(ls, h):
        am = alfeld_split(build_background_mesh((-1, 1, -1, 1), h))
        phi = interpolate_p1(ls, am)
        return phi, classify_elements(phi)

    # the star at h = 0.15 is resolved, but its map is damped (3 rounds)
    for ls, h in [(quartic_levelset(), 0.3), (quartic_levelset(), 0.15), (star, 0.15)]:
        phi, sets = split(ls, h)
        got = build_deformation(ls, phi, sets, 2)
        ref = per_node_deformation(ls, phi, sets, 2)
        assert np.abs(got.node_disp - ref.node_disp).max() <= 1e-13 * h
        assert np.array_equal(got.deformed_children, ref.deformed_children)
        assert got.damping_rounds == ref.damping_rounds
    assert got.damping_rounds == 3
    for ls, h in [(_oscillating_levelset(), 0.5), (star, 0.3)]:
        phi, sets = split(ls, h)
        msgs = []
        for build in (build_deformation, per_node_deformation):
            with pytest.raises(GeometryError) as err:
                build(ls, phi, sets, 2)
            msgs.append(str(err.value))
        assert msgs[0] == msgs[1]


def test_deformation_requires_cut_band():
    m = build_background_mesh((-1, 1, -1, 1), 0.5)
    am = alfeld_split(m)
    ls = LevelSet(lambda p: -np.ones(len(p)), lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    with pytest.raises(GeometryError, match="no cut"):
        build_deformation(ls, phi, sets, 2)


def test_deformation_unbracketed_root():
    # oscillation far below the mesh resolution: the matching point is not
    # within half a mesh size along the gradient
    ls = LevelSet(lambda p: p[:, 1] - 0.45 + 0.2 * np.sin(15 * p[:, 0]),
                  lambda p: np.column_stack([3.0 * np.cos(15 * p[:, 0]),
                                             np.ones(len(p))]))
    m = build_background_mesh((-1, 1, -1, 1), 0.5)
    am = alfeld_split(m)
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    with pytest.raises(GeometryError, match="not bracketed|did not converge"):
        build_deformation(ls, phi, sets, 2)


def test_deformation_star_unresolved_at_coarse_mesh():
    # at h = 0.3 the root at an inner tip of the star is out of reach
    from cutstokes.harness import exact_example2
    ls = exact_example2().levelset
    am = alfeld_split(build_background_mesh((-1, 1, -1, 1), 0.3))
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    with pytest.raises(GeometryError, match=r"node \d+ at \["):
        build_deformation(ls, phi, sets, 2)


def test_deformation_vanishing_gradient():
    ls = LevelSet(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - 0.3,
                  lambda p: np.zeros_like(p))
    m = build_background_mesh((-1, 1, -1, 1), 0.5)
    am = alfeld_split(m)
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    with pytest.raises(GeometryError, match=r"gradient at node \d+ at \["):
        build_deformation(ls, phi, sets, 2)
    # the quartic's gradient vanishes at the origin, node 4 of the 2 x 2 mesh
    with pytest.raises(GeometryError,
                       match=r"^vanishing level-set gradient at node 4 at \[0\. 0\.\]$"):
        build_case(quartic_levelset(), 1.0, 2)


def test_damping_failure_names_element(quartic_case_h03):
    # a cut node thrown far off folds its elements beyond what 40 halvings
    # of the displacements repair; the error names one of those elements
    am, phi, sets, defo, quad = quartic_case_h03
    ns = am.lagrange_nodes(2)
    gid = ns.elem2node[sets.alfeld_cut[0], 0]
    disp = defo.node_disp.copy()
    disp[gid] += (1e15, 0.0)
    with pytest.raises(GeometryError,
                       match=r"failed to restore orientation of element \d+$") as err:
        _damped_deformation(am, sets, 2, disp)
    assert gid in ns.elem2node[int(str(err.value).split()[-1])]


def test_quadrature_rejects_inverted_map():
    m = build_background_mesh((-1, 1, -1, 1), 1.0)
    am = alfeld_split(m)
    ns = am.lagrange_nodes(2)
    disp = np.zeros((ns.n_nodes, 2))
    e = 0
    va, vb, vc = am.child_vertices(e)
    # drag the first vertex across the opposite edge
    disp[ns.elem2node[e][0]] = 1.5 * ((vb + vc) / 2 - va)
    phi = DiscreteLevelSet(am, -np.ones(am.vertices.shape[0]))
    with pytest.raises(GeometryError, match="nonpositive Jacobian .* of element 0$"):
        build_quadratures(classify_elements(phi), phi, IsoDeformation(am, 2, disp))


# ---------------------------------------------------------------------------
# mapping data


def test_mapping_roundtrip_on_deformed_elements(quartic_case_h03):
    am, phi, sets, defo, quad = quartic_case_h03
    mapping = quad.mapping
    rng = np.random.default_rng(5)
    for e in sets.alfeld_cut[:10]:
        xh = rng.random((4, 2)) * 0.35 + 0.1
        x = mapping.phys([e], xh)[0]
        for i in range(len(xh)):
            back = inverse_map(mapping, int(e), x[i])
            assert np.linalg.norm(back - xh[i]) < 1e-11


def test_jacobian_derivative_consistency(quartic_case_h03):
    am, phi, sets, defo, quad = quartic_case_h03
    mapping = quad.mapping
    e = int(sets.alfeld_cut[0])
    xh = np.array([[0.3, 0.3], [0.1, 0.5], [0.45, 0.2]])
    F, J, dF, dJ = (a[0] for a in mapping.jacobians([e], xh, derivs=True))
    step = 1e-6
    for s in range(2):
        dp = np.zeros(2)
        dp[s] = step
        Fp, Jp = (a[0] for a in mapping.jacobians([e], xh + dp))
        Fm, Jm = (a[0] for a in mapping.jacobians([e], xh - dp))
        assert np.abs((Fp - Fm) / (2 * step) - dF[:, :, :, s]).max() < 1e-6
        assert np.abs((Jp - Jm) / (2 * step) - dJ[:, s]).max() < 1e-6


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_uncut_identity():
    m = build_background_mesh((-1, 1, -1, 1), 0.5)
    am = alfeld_split(m)
    phi = DiscreteLevelSet(am, -np.ones(am.vertices.shape[0]))
    sets = classify_elements(phi)
    defo = IsoDeformation.identity(am, 2)
    quad = build_quadratures(sets, phi, defo)
    inside, bulk, length = areas(quad)
    assert abs(inside - 4.0) < 1e-13
    assert abs(bulk - 4.0) < 1e-13
    assert length == 0.0


def test_quadrature_straight_interface():
    m = build_background_mesh((-1, 1, -1, 1), 1.0)
    am = alfeld_split(m)
    ls = LevelSet(lambda p: p[:, 0].copy(), lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    defo = IsoDeformation.identity(am, 2)
    quad = build_quadratures(sets, phi, defo)
    inside, _, length = areas(quad)
    assert abs(length - 2.0) < 1e-13
    assert abs(inside - 2.0) < 1e-11
    for r in quad.interface.values():
        assert np.abs(r.normals - [1.0, 0.0]).max() < 1e-9


def test_quadrature_rejects_level_set_of_another_mesh():
    # the quadrature reads the mesh off the map; a P1 level set on another
    # mesh, even an equal one, would index the wrong children
    ls = LevelSet(lambda p: p[:, 0].copy(), lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    am, other = (alfeld_split(build_background_mesh((-1, 1, -1, 1), 1.0)) for _ in range(2))
    phi = interpolate_p1(ls, other)
    with pytest.raises(ValueError, match="different meshes"):
        build_quadratures(classify_elements(phi), phi, IsoDeformation.identity(am, 2))


def test_quadrature_monomial_exactness():
    m = build_background_mesh((-1, 1, -1, 1), 0.5)
    am = alfeld_split(m)
    phi = DiscreteLevelSet(am, -np.ones(am.vertices.shape[0]))
    sets = classify_elements(phi)
    defo = IsoDeformation.identity(am, 2)
    order = 6
    quad = replace(build_quadratures(sets, phi, defo), order=order)

    def box_int(p, q):
        ix = (1 - (-1) ** (p + 1)) / (p + 1)
        iy = (1 - (-1) ** (q + 1)) / (q + 1)
        return ix * iy

    for p in range(order + 1):
        for q in range(order + 1 - p):
            val = 0.0
            for elems, xh, w in quad.bulk_groups():
                x = quad.mapping.phys(elems, xh)
                _, J = quad.mapping.jacobians(elems, xh)
                val += ((w * J) * (x[..., 0] ** p * x[..., 1] ** q)).sum()
            exact = box_int(p, q)
            assert abs(val - exact) <= 1e-13 * max(1.0, abs(exact))


def test_quadrature_other_order_matches_fresh_build(quartic_case_h03):
    # a rule of another degree, by `order=` or by `replace`, is bit for bit
    # the rule that a fresh build of that degree gives
    am, phi, sets, defo, quad = quartic_case_h03
    want = CutQuadrature(sets, phi, defo, 8)
    for got in (build_quadratures(sets, phi, defo, order=8),
                replace(build_quadratures(sets, phi, defo), order=8),
                replace(quad, order=8)):
        pairs = list(zip(got.volume_groups(), want.volume_groups()))
        assert len(pairs) == len(list(want.volume_groups()))
        for a, b in pairs:
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
        for name in ("elems", "xhat", "weights", "normals"):
            assert np.array_equal(getattr(got.interface_rule, name),
                                  getattr(want.interface_rule, name))
        assert np.array_equal(got.band_normals, want.band_normals)
        assert areas(got) == areas(want)


def test_groups_never_mix_deformed_and_undeformed(ex1_quads):
    # only a group with a moved child pays for the curved map, so no group
    # may hold both kinds; the split changes neither the cover nor the areas
    # (inside and bulk, as summed over the groups of index order)
    pinned = [(1.8496455561953429, 2.0180766812445805),
              (1.8543612934917122, 2.025042626752238)]
    for base, pin in zip(ex1_quads, pinned):
        mp = base.mapping
        fluid = np.concatenate([base.inside_elems, base.cut_elems])
        for quad in (base, replace(base, order=2 * mp.degree + 4)):
            for groups, cover in ((quad.volume_groups(), fluid),
                                  (quad.bulk_groups(), quad.sets.active_children)):
                elems = []
                for e, xh, w in groups:
                    bent = mp.is_deformed[e]
                    assert bent.all() or not bent.any()
                    elems.append(e)
                elems = np.concatenate(elems)
                assert elems.size == cover.size
                assert np.array_equal(np.sort(elems), np.sort(cover))
            for got, want in zip(areas(quad)[:2], pin):
                assert abs(got - want) <= 1e-14 * want


def test_quadrature_area_convergence():
    ls = quartic_levelset()
    exact = quartic_area()
    mesh = build_background_mesh((-1, 1, -1, 1), 0.3)
    for lvl in range(4):
        am = alfeld_split(mesh)
        phi = interpolate_p1(ls, am)
        sets = classify_elements(phi)
        defo = build_deformation(ls, phi, sets, 2)
        quad = build_quadratures(sets, phi, defo)
        h = am.macro.h
        assert abs(areas(quad)[0] - exact) <= 0.25 * h ** 3, (lvl, h)
        mesh = build_background_mesh((-1, 1, -1, 1), mesh.h / 2)


def test_interface_normals_second_order(quartic_case_h03, quartic_case_h015):
    errs = []
    for case in (quartic_case_h03, quartic_case_h015):
        am, phi, sets, defo, quad = case
        ls = quartic_levelset()
        r = quad.interface_rule
        g = ls.gradient(defo.phys(r.elems, r.xhat).reshape(-1, 2))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        errs.append(np.abs(r.normals.reshape(-1, 2) - g).max())
    eoc = np.log2(errs[0] / errs[1])
    assert 1.4 <= eoc <= 2.6, (errs, eoc)


def test_volume_weights_positive(quartic_case_h03):
    am, phi, sets, defo, quad = quartic_case_h03
    for elems, xh, w in quad.volume_groups():
        assert (w > 0).all()
        _, J = quad.mapping.jacobians(elems, xh)
        assert (J > 0).all()


def test_cut_volume_plus_outside_is_child_area(quartic_case_h03):
    # reference cut parts of each cut child tile the reference triangle
    am, phi, sets, defo, quad = quartic_case_h03
    vals = phi.child_values(sets.alfeld_cut[:25])
    a = _part_areas(vals) + _part_areas(-vals)
    assert np.abs(a - 0.5).max() < 1e-14
