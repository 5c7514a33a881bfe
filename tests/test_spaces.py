import numpy as np
import pytest

from cutstokes.meshing import build_background_mesh, alfeld_split, classify_elements
from cutstokes.geometry import (GeometryError, IsoDeformation, DiscreteLevelSet,
                                interpolate_p1, build_deformation, build_quadratures)
from cutstokes.reference import reference_nodes
from cutstokes.spaces import (VelocitySpace, PressureSpace, MultiplierSpace,
                              ContinuousPressureSpace, velocity_tables,
                              scalar_tables, eval_velocity,
                              VelocityField, ScalarField)
from tests.conftest import (divergence_table, interpolate_scalar, interpolate_velocity,
                            inverse_map, node_positions, quartic_levelset)


@pytest.fixture(scope="module")
def case(quartic_case_h03):
    am, phi, sets, defo, quad = quartic_case_h03
    vs = VelocitySpace(sets, quad.mapping, 2)
    return am, phi, sets, defo, quad, vs


def undeformed(sets, mapping) -> np.ndarray:
    """The active children on which `mapping` is affine."""
    act = sets.active_children
    return act[~mapping.is_deformed[act]]


def test_dof_counts(case):
    am, phi, sets, defo, quad, vs = case
    ps = PressureSpace(sets, quad.mapping, 1)
    assert ps.n_dofs == sets.active_children.size * 3
    lam = MultiplierSpace(sets, quad.mapping, 1)
    used = np.unique(am.children[sets.alfeld_cut])
    assert lam.n_dofs == used.size
    cps = ContinuousPressureSpace(sets, quad.mapping, 1)
    assert cps.n_dofs == np.unique(am.children[sets.active_children]).size
    assert vs.n_dofs % 2 == 0


def test_velocity_and_scalar_spaces_share_one_node_numbering(case):
    # at equal degree, velocity node i owns dofs 2i, 2i+1 of the scalar
    # numbering, and both place their nodes where the map sends them
    am, phi, sets, defo, quad, vs = case
    cps = ContinuousPressureSpace(sets, quad.mapping, 2)
    assert np.array_equal(vs.elem_dofs[:, 0::2] // 2, cps.elem_dofs)
    assert np.array_equal(vs.elem_dofs[:, 1::2], vs.elem_dofs[:, 0::2] + 1)
    pos = node_positions(vs)
    assert np.array_equal(pos, node_positions(cps))
    mapped = quad.mapping.phys(vs.elements, reference_nodes(2))
    assert np.abs(pos[cps.elem_dofs] - mapped).max() < 1e-14
    # a scalar space of another degree places its nodes through the map
    p1 = ContinuousPressureSpace(sets, quad.mapping, 1)
    assert np.abs(node_positions(p1)[p1.elem_dofs]
                  - quad.mapping.phys(p1.elements, reference_nodes(1))).max() < 1e-14


def test_multiplier_requires_band():
    m = build_background_mesh((-1, 1, -1, 1), 0.5)
    am = alfeld_split(m)
    sets = classify_elements(DiscreteLevelSet(am, -np.ones(am.vertices.shape[0])))
    mapping = IsoDeformation.identity(am, 2)
    with pytest.raises(ValueError, match="cut"):
        MultiplierSpace(sets, mapping, 1)


def test_affine_elements_reduce_to_lagrange(case):
    am, phi, sets, defo, quad, vs = case
    rng = np.random.default_rng(0)
    pts = rng.random((6, 2)) * 0.3 + 0.05
    psi = vs.ref.eval(pts)
    for e in undeformed(sets, quad.mapping)[:5]:
        val, grad = (a[0] for a in velocity_tables(vs, [e], pts))
        want = np.zeros_like(val)
        for m in range(psi.shape[1]):
            want[:, 2 * m, 0] = psi[:, m]
            want[:, 2 * m + 1, 1] = psi[:, m]
        assert np.abs(val - want).max() < 1e-13


def test_undeformed_tables_keep_exact_zeros(case):
    # on undeformed children the Piola basis is the componentwise Lagrange
    # basis: its off-component entries must be exact zeros, also inside a
    # group that holds deformed children, or every assembled matrix gains
    # round-off entries and its LU more fill
    am, phi, sets, defo, quad, vs = case
    inside = quad.inside_elems
    plain = ~quad.mapping.is_deformed[inside]
    assert plain.any() and not plain.all()
    # a mixed group (full path) and an all-undeformed one (no curvature terms)
    for elems, rows in ((inside, plain), (inside[plain], slice(None))):
        val, grad = velocity_tables(vs, elems, quad.ref_rule[0])
        val, grad = val[rows], grad[rows]
        assert (val[..., 0::2, 1] == 0).all() and (val[..., 1::2, 0] == 0).all()
        assert (grad[..., 0::2, 1, :] == 0).all() and (grad[..., 1::2, 0, :] == 0).all()


def test_constant_field_on_undeformed_element(case):
    am, phi, sets, defo, quad, vs = case
    e = int(undeformed(sets, quad.mapping)[0])
    row = vs.element_row[e]
    coeffs = np.zeros(vs.elem_dofs.shape[1])
    coeffs[0::2] = 1.0     # nodal values (1, 0) everywhere
    v, g, d = (a[0] for a in eval_velocity(vs, [e], coeffs, np.array([[0.25, 0.4]])))
    assert np.abs(v - [1.0, 0.0]).max() < 1e-14
    assert np.abs(d).max() < 1e-13


def test_divergence_identity_deformed(case):
    # trace of the physical gradient equals the Piola divergence
    am, phi, sets, defo, quad, vs = case
    rng = np.random.default_rng(1)
    worst = 0.0
    for e in sets.alfeld_cut[:20]:
        pts = rng.random((5, 2))
        pts = pts[pts.sum(axis=1) < 1.0]
        c = rng.standard_normal(vs.elem_dofs.shape[1])
        _, g, d = (a[0] for a in eval_velocity(vs, [e], c, pts))
        tr = g[:, 0, 0] + g[:, 1, 1]
        scale = max(np.abs(g).max(), 1.0)
        worst = max(worst, np.abs(tr - d).max() / scale)
    assert worst <= 1e-11


def test_gradient_matches_finite_differences(case):
    am, phi, sets, defo, quad, vs = case
    mapping = quad.mapping
    rng = np.random.default_rng(2)
    step = 1e-6
    for e in (int(sets.alfeld_cut[3]), int(undeformed(sets, mapping)[2])):
        c = rng.standard_normal(vs.elem_dofs.shape[1])
        x0 = np.array([0.31, 0.27])
        _, g, _ = (a[0] for a in eval_velocity(vs, [e], c, x0[None, :]))
        X0 = mapping.phys([e], x0[None, :])[0, 0]
        fd = np.zeros((2, 2))
        for j in range(2):
            dp = np.zeros(2)
            dp[j] = step
            xp = inverse_map(mapping, e, X0 + dp, xhat0=x0)
            xm = inverse_map(mapping, e, X0 - dp, xhat0=x0)
            vp, _, _ = (a[0] for a in eval_velocity(vs, [e], c, xp[None, :]))
            vm, _, _ = (a[0] for a in eval_velocity(vs, [e], c, xm[None, :]))
            fd[:, j] = (vp[0] - vm[0]) / (2 * step)
        assert np.abs(g[0] - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-5


def test_normal_continuity_across_facets(case):
    # H(div) conformity: exact physical tangents from either side
    am, phi, sets, defo, quad, vs = case
    mapping = quad.mapping
    rng = np.random.default_rng(4)
    U = rng.standard_normal(vs.n_dofs)
    cm = am.child_mesh
    scale = np.abs(U).max()
    worst = 0.0
    for fid in range(cm.facets.shape[0]):
        t0, t1 = cm.facet_tris[fid]
        if t1 < 0 or vs.element_row[t0] < 0 or vs.element_row[t1] < 0:
            continue
        a, b = cm.facets[fid]
        pa, pb = am.vertices[a], am.vertices[b]
        ts = np.linspace(0.1, 0.9, 5)
        xt = pa[None, :] + np.outer(ts, pb - pa)
        vv, nn = [], None
        for e in (int(t0), int(t1)):
            Ai = np.linalg.inv(mapping.A[e])
            va = am.vertices[am.children[e, 0]]
            xh = (xt - va) @ Ai.T
            v_ = eval_velocity(vs, [e], U[vs.elem_dofs[vs.element_row[e]]], xh)[0][0]
            vv.append(v_)
            if nn is None:
                F, _ = (a[0] for a in mapping.jacobians([e], xh))
                tp = np.einsum("qij,j->qi", F, Ai @ (pb - pa))
                nn = np.column_stack([tp[:, 1], -tp[:, 0]])
                nn /= np.linalg.norm(nn, axis=1, keepdims=True)
        worst = max(worst, np.abs(((vv[0] - vv[1]) * nn).sum(axis=1)).max())
    assert worst <= 1e-10 * scale


def test_polynomial_reproduction_undeformed():
    # nodal interpolation reproduces componentwise degree-k polynomials where
    # the map is affine
    m = build_background_mesh((-1, 1, -1, 1), 0.4)
    am = alfeld_split(m)
    sets = classify_elements(DiscreteLevelSet(am, -np.ones(am.vertices.shape[0])))
    mapping = IsoDeformation.identity(am, 2)
    vs = VelocitySpace(sets, mapping, 2)

    def v(p):
        return np.column_stack([1.5 - p[:, 0] ** 2 + 0.5 * p[:, 0] * p[:, 1],
                                p[:, 1] ** 2 - 3 * p[:, 0] + 0.25])

    U = interpolate_velocity(vs, v)
    rng = np.random.default_rng(5)
    fld = VelocityField(vs, U)
    for e in rng.integers(0, am.n_children, 12):
        pts = rng.random((4, 2)) * 0.4
        x = mapping.phys([e], pts)[0]
        val, _, _ = (a[0] for a in fld.at([e], pts))
        assert np.abs(val - v(x)).max() < 1e-12


def test_scalar_interpolation_exactness(case):
    am, phi, sets, defo, quad, vs = case
    mapping = quad.mapping
    ps = PressureSpace(sets, mapping, 1)
    cps = ContinuousPressureSpace(sets, mapping, 1)

    def f(p):
        return 2.0 * p[:, 0] - 0.5 * p[:, 1] + 0.25

    rng = np.random.default_rng(6)
    for space in (ps, cps):
        coeffs = interpolate_scalar(space, f)
        fld = ScalarField(space, coeffs)
        # exact on undeformed elements (composition with an affine map is P1)
        for e in undeformed(sets, mapping)[:6]:
            pts = rng.random((4, 2)) * 0.4
            got, _ = (a[0] for a in fld.at([e], pts))
            assert np.abs(got - f(mapping.phys([e], pts)[0])).max() < 1e-13


def test_scalar_gradients_fd(case):
    am, phi, sets, defo, quad, vs = case
    mapping = quad.mapping
    lam = MultiplierSpace(sets, mapping, 2)
    rng = np.random.default_rng(7)
    e = int(sets.alfeld_cut[1])
    c = rng.standard_normal(lam.elem_dofs.shape[1])
    fld = ScalarField(lam, np.zeros(lam.n_dofs))
    x0 = np.array([0.3, 0.3])
    val, grad = (a[0] for a in scalar_tables(lam, [e], x0[None, :]))
    g = np.einsum("qmj,m->qj", grad, c)[0]
    X0 = mapping.phys([e], x0[None, :])[0, 0]
    step = 1e-6
    fd = np.zeros(2)
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = step
        xp = inverse_map(mapping, e, X0 + dp, xhat0=x0)
        xm = inverse_map(mapping, e, X0 - dp, xhat0=x0)
        vp = scalar_tables(lam, [e], xp[None, :], derivs=False)[0][0] @ c
        vm = scalar_tables(lam, [e], xm[None, :], derivs=False)[0][0] @ c
        fd[j] = (vp[0] - vm[0]) / (2 * step)
    assert np.abs(g - fd).max() < 1e-5 * max(1.0, np.abs(fd).max())


def test_nearly_singular_blocks_rejected():
    m = build_background_mesh((-1, 1, -1, 1), 1.0)
    am = alfeld_split(m)
    sets = classify_elements(DiscreteLevelSet(am, -np.ones(am.vertices.shape[0])))
    ns = am.lagrange_nodes(2)
    # linear displacement field d(x) = M x collapses the first coordinate
    M = np.array([[-1.0 + 1e-14, 0.0], [0.0, 0.0]])
    disp = ns.coords @ M.T
    defo = IsoDeformation(am, 2, disp)
    with pytest.raises(GeometryError, match="singular|orientation"):
        VelocitySpace(sets, defo, 2)


def _mixed_group(quad):
    """One element array holding undeformed and deformed inside children and
    cut children with one- and two-triangle parts, each with its own nq
    reference points (every other point of a two-triangle part)."""
    mp = quad.mapping
    pts, _ = quad.ref_rule
    nq = pts.shape[0]
    inside = quad.inside_elems
    plain = inside[~mp.is_deformed[inside]][:3]
    bent = inside[mp.is_deformed[inside]][:3]
    parts = {xh.shape[1] // nq: (elems, xh) for elems, xh, _ in quad.cut_groups}
    assert plain.size and bent.size and set(parts) == {1, 2}
    one, two = parts[1], parts[2]
    elems = np.concatenate([plain, bent, one[0][:3], two[0][:3]])
    xhat = np.concatenate([np.broadcast_to(pts, (plain.size + bent.size, nq, 2)),
                           one[1][:3], two[1][:3, ::2]])
    return elems, xhat


def _assert_rows_match(batched, single):
    for b, s in zip(batched, single):
        if s is None:
            assert b is None
            continue
        assert b.shape == s.shape
        assert np.abs(b - s).max() <= 1e-13 * max(np.abs(s).max(), 1.0)


def test_batched_path_matches_per_element(case):
    am, phi, sets, defo, quad, vs = case
    mp = quad.mapping
    qs = ContinuousPressureSpace(sets, mp, 1)
    elems, xhat = _mixed_group(quad)
    rng = np.random.default_rng(11)
    uf = VelocityField(vs, rng.standard_normal(vs.n_dofs))
    pf = ScalarField(qs, rng.standard_normal(qs.n_dofs))
    calls = (lambda e, x: (mp.phys(e, x),),
             lambda e, x: mp.jacobians(e, x, derivs=True),
             lambda e, x: velocity_tables(vs, e, x),
             lambda e, x: velocity_tables(vs, e, x, derivs=False),
             lambda e, x: scalar_tables(qs, e, x),
             lambda e, x: scalar_tables(qs, e, x, derivs=False),
             uf.at, pf.at)
    for call in calls:
        batched = call(elems, xhat)
        for i in range(elems.size):
            _assert_rows_match([None if b is None else b[i:i + 1] for b in batched],
                               call(elems[i:i + 1], xhat[i:i + 1]))
    # shared points give the same as the same points per element
    pts = quad.ref_rule[0]
    for call in calls:
        _assert_rows_match(call(elems, pts),
                           call(elems, np.broadcast_to(pts, (elems.size,) + pts.shape)))


def test_undeformed_group_skips_curvature_exactly(case):
    # a group without a moved child skips the dF and dJ terms, which are
    # exact zeros on its children: the same rows as inside a mixed group
    am, phi, sets, defo, quad, vs = case
    elems, xhat = _mixed_group(quad)
    plain = ~quad.mapping.is_deformed[elems]
    assert plain.sum() >= 3 and not plain.all()
    uf = VelocityField(vs, np.random.default_rng(13).standard_normal(vs.n_dofs))
    for call in (lambda e, x: velocity_tables(vs, e, x), uf.at):
        mixed = call(elems, xhat)
        alone = call(elems[plain], xhat[plain])
        for m, a in zip(mixed, alone):
            assert np.array_equal(m[plain], a)


def test_batched_divergence_from_reference_identity(case):
    # on deformed children div v = (1/J) div_ref(B_m c_m psi_m), not the
    # trace of the mapped gradient
    am, phi, sets, defo, quad, vs = case
    mp = quad.mapping
    elems, xhat = _mixed_group(quad)
    bent = elems[mp.is_deformed[elems]]
    xbent = xhat[mp.is_deformed[elems]]
    assert bent.size >= 6
    rng = np.random.default_rng(12)
    uf = VelocityField(vs, rng.standard_normal(vs.n_dofs))
    _, _, div = uf.at(bent, xbent)
    tab = divergence_table(vs, bent, xbent)
    for i, e in enumerate(bent):
        c = uf.local_coeffs([e])[0].reshape(-1, 2)
        a = np.einsum("mkc,mc->mk", vs.nodal_blocks[vs.element_row[e]], c)
        _, J = (a[0] for a in mp.jacobians([e], xbent[i]))
        want = np.einsum("qms,ms->q", vs.ref.grad(xbent[i]), a) / J
        scale = np.abs(want).max()
        assert np.abs(div[i] - want).max() <= 1e-13 * scale
        assert np.abs(tab[i] @ uf.local_coeffs([e])[0] - want).max() <= 1e-13 * scale


@pytest.mark.parametrize("pick, shape", [(lambda act: int(act[0]), r"\(\)"),
                                         (lambda act: act[None, :2], r"\(1, 2\)")],
                         ids=["int", "2-D"])
def test_evaluators_take_element_arrays_only(case, pick, shape):
    # a scalar index or a 2-D array is refused with its shape, not answered
    # in a second result form
    am, phi, sets, defo, quad, vs = case
    mp = quad.mapping
    qs = ContinuousPressureSpace(sets, mp, 1)
    elems = pick(vs.elements)
    pts = quad.ref_rule[0]
    calls = {"IsoDeformation.phys": lambda: mp.phys(elems, pts),
             "IsoDeformation.jacobians": lambda: mp.jacobians(elems, pts),
             "velocity_tables": lambda: velocity_tables(vs, elems, pts),
             "scalar_tables": lambda: scalar_tables(qs, elems, pts),
             "eval_velocity": lambda: eval_velocity(vs, elems, np.zeros(vs.n_local), pts),
             "VelocityField.at": lambda: VelocityField(vs, np.zeros(vs.n_dofs)).at(elems, pts),
             "ScalarField.at": lambda: ScalarField(qs, np.zeros(qs.n_dofs)).at(elems, pts),
             "VelocityField.local_coeffs":
                 lambda: VelocityField(vs, np.zeros(vs.n_dofs)).local_coeffs(elems),
             "ScalarField.local_coeffs":
                 lambda: ScalarField(qs, np.zeros(qs.n_dofs)).local_coeffs(elems)}
    for name, call in calls.items():
        with pytest.raises(ValueError, match=rf"element indices of shape {shape}"):
            call()
