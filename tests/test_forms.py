import numpy as np
import pytest
import scipy.sparse as sp

from cutstokes.forms import (_csr, _sym, assemble_a, assemble_b, assemble_c,
                             assemble_ghost_penalty, assemble_j, assemble_rhs,
                             build_saddle_system, pressure_mean_vector)
from cutstokes.geometry import IsoDeformation, build_quadratures
from cutstokes.harness import StudyConfig, exact_example1, solve_level
from cutstokes.postprocess import pressure_gp_facets
from cutstokes.spaces import (ContinuousPressureSpace, MultiplierSpace,
                              PressureSpace, VelocitySpace,
                              VelocityField, velocity_tables)
from cutstokes.reference import triangle_rule
from tests.conftest import (add_at_sum, boundary_dofs, build_case, circle_levelset, fit_rate,
                            interpolate_scalar, interpolate_velocity,
                            per_facet_ghost_penalty, pinned_factor,
                            quartic_levelset, rhs_by_tables)
from tests.test_geometry import quartic_area


@pytest.fixture(scope="module")
def case(quartic_case_h03):
    am, phi, sets, defo, quad = quartic_case_h03
    vs = VelocitySpace(sets, quad.mapping, 2)
    ps = PressureSpace(sets, quad.mapping, 1)
    ms = MultiplierSpace(sets, quad.mapping, 1)
    cfg = StudyConfig()
    A = assemble_a(quad, vs, cfg.gamma_n)
    G = assemble_ghost_penalty(quad, vs, cfg.gamma_gp)
    B = assemble_b(quad, vs, ps)
    C = assemble_c(quad, vs, ms)
    J = assemble_j(quad, ms, cfg.gamma_lambda)
    return am, sets, quad, cfg, vs, ps, ms, A, G, B, C, J


@pytest.fixture(scope="module")
def solved_lvl0():
    return solve_level(StudyConfig(example=1, levels=1), 0)


def test_a_rigid_translation(case):
    # gradients of a constant vanish, so only the penalty term survives
    am, sets, quad, cfg, vs = case[:5]
    A = case[7]
    c = np.array([0.7, -0.3])
    coeffs = interpolate_velocity(vs, lambda x: np.broadcast_to(c, x.shape))
    energy = coeffs @ (A @ coeffs)
    bnd = sum(float(r.weights.sum()) for r in quad.interface.values())
    want = cfg.gamma_n / am.macro.h * bnd * (c @ c)
    assert abs(energy - want) <= 1e-10 * want


def test_a_exactly_symmetric(case):
    A, G = case[7], case[8]
    for M in (A, G, A + G):
        D = (M - M.T).tocoo()
        assert D.nnz == 0 or np.abs(D.data).max() == 0.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.standard_normal(A.shape[0])
        v = rng.standard_normal(A.shape[0])
        lhs = u @ (A @ v)
        rhs = v @ (A @ u)
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(lhs - rhs) <= 1e-12 * scale


def _random_blocks(rng, ne, nr, nc, n_rows, n_cols, symmetric=False):
    # dofs drawn with replacement, so an entry repeats within a block, a
    # row and across elements; values spread over 16 decades, so the sum
    # of an entry depends on the order of its terms
    rows = rng.integers(0, n_rows, (ne, nr))
    cols = rows if symmetric else rng.integers(0, n_cols, (ne, nc))
    vals = rng.standard_normal((ne, nr, nc)) * 10.0 ** rng.uniform(-8, 8, (ne, nr, nc))
    return rows, cols, _sym(vals) if symmetric else vals


@pytest.mark.parametrize("kind", ["symmetric", "rectangular", "mixed_widths"])
def test_triplets_match_insertion_order_sum(kind):
    # the merge adds each entry's terms in insertion order, as np.add.at does
    rng = np.random.default_rng(11)
    if kind == "symmetric":        # A, J, the ghost penalty
        shape = (40, 40)
        blocks = [_random_blocks(rng, 30, 6, 6, 40, 40, symmetric=True),
                  _random_blocks(rng, 20, 6, 6, 40, 40, symmetric=True)]
    elif kind == "rectangular":    # B and C
        shape = (15, 50)
        blocks = [_random_blocks(rng, 25, 3, 12, *shape)]
    else:                          # ghost-penalty facet groups of other widths
        shape = (60, 60)
        blocks = [_random_blocks(rng, 10, w, w, 60, 60, symmetric=True)
                  for w in (9, 4, 12, 9)]
    M = _csr(*shape, list(blocks))
    assert M.shape == shape and M.has_canonical_format
    assert M.toarray().tobytes() == add_at_sum(blocks, shape).tobytes()
    if kind != "rectangular":
        assert (M != M.T).nnz == 0


def test_triplets_empty_buffer():
    M = _csr(4, 7, [])
    assert M.shape == (4, 7) and M.nnz == 0


def test_csr_releases_each_block():
    # each block is dropped once copied, so a block that only the list
    # holds is freed before the counting passes
    rng = np.random.default_rng(12)
    blocks = [_random_blocks(rng, 5, 3, 3, 10, 10) for _ in range(3)]
    _csr(10, 10, blocks)
    assert blocks == [None] * 3


def test_triplets_keep_cancellation_order():
    # 1e16 - 1e16 + 1 is 1 in insertion order; a sum of the sorted values,
    # -1e16 + 1 + 1e16, would read 0
    dofs = np.array([[2, 5]])
    blocks = []
    for v in (1e16, -1e16, 1.0):
        blocks.append((dofs, dofs, np.array([[[0.5, v], [v, 0.25]]])))
        blocks.append((np.array([[0, 3]]), np.array([[1, 4]]), np.ones((1, 2, 2))))
    M = _csr(6, 6, blocks)
    assert M[2, 5] == 1.0 and M[5, 2] == 1.0


def test_level1_matrices_exactly_symmetric(ex1_quads):
    quad = ex1_quads[1]
    cfg = StudyConfig()
    vs = VelocitySpace(quad.sets, quad.mapping, cfg.k)
    for M in (assemble_a(quad, vs, cfg.gamma_n),
              assemble_ghost_penalty(quad, vs, cfg.gamma_gp)):
        D = (M - M.T).tocoo()
        assert D.nnz == 0 or np.abs(D.data).max() == 0.0


def test_a_matches_independent_quadrature(case):
    am, sets, quad, cfg, vs = case[:5]
    A = case[7]
    cu = interpolate_velocity(vs, lambda x: np.column_stack(
        [0.2 + x[:, 0] - 2.0 * x[:, 1], -0.5 + 3.0 * x[:, 0] + x[:, 1]]))
    rng = np.random.default_rng(4)
    cv = rng.standard_normal(vs.n_dofs)
    uf, vf = VelocityField(vs, cu), VelocityField(vs, cv)
    mp = quad.mapping
    h = am.macro.h

    total = 0.0
    for elems, xh, w in quad.volume_groups():
        _, J = mp.jacobians(elems, xh)
        _, gu, _ = uf.at(elems, xh)
        _, gv, _ = vf.at(elems, xh)
        total += float(((w * J) * (gu * gv).sum((-2, -1))).sum())
    for e, r in quad.interface.items():
        u, gu, _ = (a[0] for a in uf.at([e], r.xhat))
        v, gv, _ = (a[0] for a in vf.at([e], r.xhat))
        dnu = np.einsum("qij,qj->qi", gu, r.normals)
        dnv = np.einsum("qij,qj->qi", gv, r.normals)
        total -= float(r.weights @ ((dnu * v).sum(1) + (dnv * u).sum(1)))
        total += cfg.gamma_n / h * float(r.weights @ (u * v).sum(1))

    got = cu @ (A @ cv)
    scale = max(abs(total), 1.0)
    assert abs(got - total) <= 1e-12 * scale


def test_b_divergence_theorem(case):
    # q = 1 tested against anything vanishing on the active-mesh boundary
    vs, ps = case[4], case[5]
    B = case[9]
    rng = np.random.default_rng(5)
    cv = rng.standard_normal(vs.n_dofs)
    cv[boundary_dofs(vs)] = 0.0
    ones = np.ones(ps.n_dofs)
    assert abs(ones @ (B @ cv)) <= 1e-11 * np.linalg.norm(cv)


def test_b_two_route(case):
    am, sets, quad, cfg, vs, ps = case[:6]
    B = case[9]
    mp = quad.mapping
    rng = np.random.default_rng(6)
    cv = rng.standard_normal(vs.n_dofs)
    cq = rng.standard_normal(ps.n_dofs)
    pts, wts = triangle_rule(4 * vs.degree)
    qv = ps.ref.eval(pts)
    total = 0.0
    for row, e in enumerate(ps.elements):
        e = int(e)
        _, _, div = (a[0] for a in velocity_tables(vs, [e], pts))
        _, J = (a[0] for a in mp.jacobians([e], pts))
        dloc = div @ cv[vs.elem_dofs[vs.element_row[e]]]
        qloc = qv @ cq[ps.elem_dofs[row]]
        total -= float((wts * J) @ (qloc * dloc))
    got = cq @ (B @ cv)
    assert abs(got - total) <= 1e-11 * max(abs(total), 1.0)


def test_b_full_rank_on_zero_mean(case):
    quad, vs, ps = case[2], case[4], case[5]
    B = case[9].toarray()
    m = pressure_mean_vector(quad, ps)
    # project rows onto the zero-mean complement; the constant direction
    # must be the only null direction
    B0 = B - np.outer(m, m @ B) / (m @ m)
    s = np.linalg.svd(B0, compute_uv=False)
    assert s[-1] <= 1e-10
    assert s[-2] > 1e-10


def test_c_flux_against_area(case):
    quad, vs, ms = case[2], case[4], case[6]
    C = case[10]
    cv = interpolate_velocity(vs, lambda x: 0.5 * x)
    vf = VelocityField(vs, cv)
    got = np.ones(ms.n_dofs) @ (C @ cv)
    # independent route over the same rule
    other = 0.0
    for e, r in quad.interface.items():
        v, _, _ = (a[0] for a in vf.at([e], r.xhat))
        other += float(r.weights @ (v * r.normals).sum(1))
    assert abs(got - other) <= 1e-11 * max(abs(got), 1.0)
    # div(x/2) = 1, so the flux of the exact field is the area
    assert abs(got - quartic_area()) <= 2e-2


def test_c_tangential_field(case):
    vs, ms = case[4], case[6]
    C = case[10]
    cu = interpolate_velocity(vs, exact_example1().u)
    assert abs(np.ones(ms.n_dofs) @ (C @ cu)) <= 1e-10


def test_c_solved_flux_is_zero(case, solved_lvl0):
    # c_h(1, u_h) = 0 is one row of the solved system
    _, st = solved_lvl0
    C = assemble_c(st.quad, st.uh.space, st.ms)
    assert abs(np.ones(st.ms.n_dofs) @ (C @ st.sol.u)) <= 1e-10


def test_gp_global_polynomial_zero(quartic_case_h03):
    # identity deformation: a polynomial interpolant has no patch jumps
    am, phi, sets, defo, quad = quartic_case_h03
    ident = IsoDeformation.identity(am, 2)
    iquad = build_quadratures(sets, phi, ident)
    vs = VelocitySpace(sets, iquad.mapping, 2)
    G = assemble_ghost_penalty(iquad, vs, StudyConfig().gamma_gp)
    cv = interpolate_velocity(vs, lambda x: np.column_stack(
        [x[:, 0] ** 2 - x[:, 1], x[:, 0] + x[:, 1] ** 2]))
    energy = cv @ (G @ cv)
    assert abs(energy) <= 1e-13 * max(cv @ cv, 1.0)


def test_gp_nonnegative(case):
    vs = case[4]
    G = case[8]
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = rng.standard_normal(vs.n_dofs)
        assert c @ (G @ c) >= -1e-12 * (c @ c)


def test_gp_interpolant_decay():
    # consistency of the penalty: G(u_I, u_I) of the nodal interpolant of a
    # smooth field decays at nearly h^(2k+1) on the deformed and on the
    # polygonal band alike (fitted 4.78 and 4.84 today; 5 is the target)
    gamma_gp = StudyConfig().gamma_gp
    f = lambda x: np.column_stack([np.sin(x[:, 0]), np.cos(x[:, 1])])
    ls = quartic_levelset()
    hs, energy = [], {"ho": [], "p1": []}
    for h in (0.3, 0.15, 0.075, 0.0375):
        am, phi, sets, defo, quad = build_case(ls, h, 2)
        hs.append(am.macro.h)
        flat = build_quadratures(sets, phi, IsoDeformation.identity(am, 2))
        for mode, q in (("ho", quad), ("p1", flat)):
            vs = VelocitySpace(sets, q.mapping, 2)
            u = interpolate_velocity(vs, f)
            energy[mode].append(u @ (assemble_ghost_penalty(q, vs, gamma_gp) @ u))
    for mode, js in energy.items():
        assert fit_rate(hs, js) >= 4.5, (mode, js)


@pytest.mark.parametrize("h", [0.3, 0.15])
def test_gp_batched_matches_per_facet(h):
    # the stacked facet groups give the facet-by-facet matrix: same stored
    # entries, values to round-off, exactly symmetric
    gamma_gp = StudyConfig().gamma_gp
    am, phi, sets, defo, quad = build_case(quartic_levelset(), h, 2)
    flat = build_quadratures(sets, phi, IsoDeformation.identity(am, 2))
    for q in (quad, flat):
        for space, facets in (
                (VelocitySpace(sets, q.mapping, 2), None),
                (ContinuousPressureSpace(sets, q.mapping, 1), pressure_gp_facets(q))):
            G = assemble_ghost_penalty(q, space, gamma_gp, facets)
            O = per_facet_ghost_penalty(q, space, gamma_gp, facets)
            assert np.array_equal(G.indptr, O.indptr)
            assert np.array_equal(G.indices, O.indices)
            assert np.abs(G.data - O.data).max() <= 1e-13 * np.abs(O.data).max()
            assert (G != G.T).nnz == 0


def test_gp_rejects_boundary_facet(quartic_case_h03):
    am, phi, sets, defo, quad = quartic_case_h03
    vs = VelocitySpace(sets, quad.mapping, 2)
    boundary = np.flatnonzero(am.child_mesh.facet_tris[:, 1] < 0)
    facets = np.concatenate([sets.gp_facets[:3], boundary[[4, 2]]])
    with pytest.raises(ValueError, match=rf"^facet {boundary[4]} is not interior$"):
        assemble_ghost_penalty(quad, vs, StudyConfig().gamma_gp, facets)
    # a list is taken as the equal array, and its checks still run
    with pytest.raises(ValueError, match=rf"^facet {boundary[4]} is not interior$"):
        assemble_ghost_penalty(quad, vs, StudyConfig().gamma_gp, facets.tolist())


def test_gp_facets_as_list(quartic_case_h03):
    am, phi, sets, defo, quad = quartic_case_h03
    vs = VelocitySpace(sets, quad.mapping, 2)
    facets = sets.gp_facets[:5]
    G = assemble_ghost_penalty(quad, vs, StudyConfig().gamma_gp, facets)
    L = assemble_ghost_penalty(quad, vs, StudyConfig().gamma_gp, facets.tolist())
    assert G.nnz > 0 and (G != L).nnz == 0


def test_gp_facets_empty_and_not_flat(quartic_case_h03):
    # no facets assemble the zero matrix; a 2-D facet array is refused by its
    # shape, not read as elements of the space
    am, phi, sets, defo, quad = quartic_case_h03
    vs = VelocitySpace(sets, quad.mapping, 2)
    for empty in (np.array([], dtype=int), []):
        G = assemble_ghost_penalty(quad, vs, StudyConfig().gamma_gp, empty)
        assert G.shape == (vs.n_dofs, vs.n_dofs) and G.nnz == 0
    with pytest.raises(ValueError, match=r"1-D sequence, got shape \(2, 2\)"):
        assemble_ghost_penalty(quad, vs, StudyConfig().gamma_gp,
                               sets.gp_facets[:4].reshape(2, 2))


@pytest.mark.parametrize("make", [lambda sets, mp: ContinuousPressureSpace(sets, mp, 1),
                                  lambda sets, mp: MultiplierSpace(sets, mp, 1)],
                         ids=["continuous_pressure", "multiplier"])
def test_gp_rejects_owner_outside_space(quartic_case_h03, make):
    # an owner outside the space has no dofs in it: its facet must raise
    # and name it, not assemble onto the dofs of some other element
    am, phi, sets, defo, quad = quartic_case_h03
    space = make(sets, quad.mapping)
    inside = np.zeros(am.n_children, dtype=bool)
    inside[space.elements] = True
    t0, t1 = am.child_mesh.facet_tris.T
    both = np.flatnonzero((t1 >= 0) & inside[t0] & inside[np.maximum(t1, 0)])
    one = np.flatnonzero((t1 >= 0) & inside[t0] & ~inside[np.maximum(t1, 0)])
    facets = np.concatenate([both[:3], one[:2]])
    with pytest.raises(ValueError, match=rf"^element {t1[one[0]]} is not in the space$"):
        assemble_ghost_penalty(quad, space, StudyConfig().gamma_gp, facets)


def test_gp_deformed_bounded_by_p1():
    # the penalty on the deformed band must stay as bounded as on the
    # polygonal one: an extension through a folded foreign map blew the
    # largest eigenvalue up by factors of 100 and more
    from scipy.sparse.linalg import eigsh
    ls = quartic_levelset()
    for h in (0.3, 0.15):
        am, phi, sets, defo, quad = build_case(ls, h, 2)
        lam = []
        for d in (defo, IsoDeformation.identity(am, 2)):
            q = build_quadratures(sets, phi, d)
            vs = VelocitySpace(sets, q.mapping, 2)
            G = assemble_ghost_penalty(q, vs, 1.0)
            lam.append(eigsh(G, k=1, which="LA", v0=np.ones(vs.n_dofs),
                             return_eigenvectors=False)[0])
        assert lam[0] <= 2.0 * lam[1], (h, lam)


def test_j_constant_in_kernel(case):
    ms = case[6]
    J = case[11]
    r = J @ np.ones(ms.n_dofs)
    assert np.abs(r).max() <= 1e-12 * max(np.abs(J.data).max(), 1.0)


def test_j_negative_semidefinite(case):
    J = case[11]
    w = np.linalg.eigvalsh(J.toarray())
    assert w.max() <= 1e-12 * max(-w.min(), 1.0)


def test_j_normal_extension_decay():
    # y/r is constant along the radial normal of the circle
    g = lambda x: x[:, 1] / np.hypot(x[:, 0], x[:, 1])
    vals = []
    for h in (0.3, 0.15, 0.075):
        am, phi, sets, defo, quad = build_case(circle_levelset(0.65), h, 2)
        ms = MultiplierSpace(sets, quad.mapping, 1)
        J = assemble_j(quad, ms, StudyConfig().gamma_lambda)
        c = interpolate_scalar(ms, g)
        vals.append(abs(c @ (J @ c)))
    rate = -np.polyfit(np.arange(len(vals)), np.log2(vals), 1)[0]
    assert rate >= 2.0, vals


def test_rhs_zero(case):
    quad, vs = case[2], case[4]
    r = assemble_rhs(quad, vs, lambda x: np.zeros_like(x))
    assert np.abs(r).max() == 0.0


def test_rhs_two_route(case):
    quad, vs = case[2], case[4]
    mp = quad.mapping
    f = exact_example1().f
    r = assemble_rhs(quad, vs, f)
    rng = np.random.default_rng(8)
    cv = rng.standard_normal(vs.n_dofs)
    vf = VelocityField(vs, cv)
    total = 0.0
    for elems, xh, w in quad.volume_groups():
        _, J = mp.jacobians(elems, xh)
        v, _, _ = vf.at(elems, xh)
        fx = f(mp.phys(elems, xh).reshape(-1, 2)).reshape(v.shape)
        total += float(((w * J) * (v * fx).sum(-1)).sum())
    got = r @ cv
    assert abs(got - total) <= 1e-11 * max(abs(total), 1.0)


def test_rhs_matches_tables(ex1_quads):
    # the load contracted without tables equals the table contraction over
    # undeformed, deformed and cut groups
    f = exact_example1().f
    for quad in ex1_quads:
        vs = VelocitySpace(quad.sets, quad.mapping, 2)
        want = rhs_by_tables(quad, vs, f)
        got = assemble_rhs(quad, vs, f)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_saddle_layout(case, solved_lvl0):
    _, st = solved_lvl0
    system = st.system
    M = system.matrix
    D = (M - M.T).tocoo()
    assert D.nnz == 0 or np.abs(D.data).max() == 0.0
    assert M.shape[0] == st.uh.space.n_dofs + st.ps.n_dofs + st.ms.n_dofs + 1
    # each documented block of the glued matrix is the stored block, bit for
    # bit, and every other block is empty
    m = sp.csr_matrix(system.mean.reshape(-1, 1))
    layout = [[system.A, system.B.T, system.C.T, None], [system.B, None, None, m],
              [system.C, None, system.J, None], [None, m.T, None, None]]
    ends = np.cumsum([0, system.n_u, system.n_p, system.n_m, 1])
    for i, row in enumerate(layout):
        for j, want in enumerate(row):
            got = M[ends[i]:ends[i + 1], ends[j]:ends[j + 1]]
            if want is None:
                assert got.nnz == 0
            else:
                assert got.shape == want.shape and (got != want).nnz == 0
                assert np.array_equal(got.toarray(), want.toarray())


def test_saddle_dimension_mismatch(case):
    vs, ps, ms, A, G, B, C, J = case[4:]
    with pytest.raises(ValueError, match="dimensions"):
        build_saddle_system(A + G, B, C, J, np.ones(ps.n_dofs + 1),
                            np.zeros(vs.n_dofs), np.ones(ps.n_dofs),
                            sp.eye(ps.n_dofs, format="csr"))


def test_pressure_kernel_and_mass(solved_lvl0):
    # the pinned direct factor finds z from the matrix alone; the assembled
    # z_p must be the same null vector, 1 on inside children
    _, st = solved_lvl0
    system, ps = st.system, st.ps
    z = pinned_factor(system)[1][system.n_u:system.n_u + system.n_p]
    assert np.abs(system.z_p - z).max() <= 1e-10
    inside = ps.elem_dofs[ps.element_row[st.quad.inside_elems]]
    assert np.abs(system.z_p[inside] - 1.0).max() <= 1e-13
    # the mean row is the mass matrix applied to the constant 1
    assert np.abs(system.mass_inv @ system.mean - 1.0).max() <= 1e-12


def test_velocity_block_positive_definite(case):
    A, G = case[7], case[8]
    w = np.linalg.eigvalsh((A + G).toarray())
    assert w.min() > 0.0


def test_solution_divergence_free(solved_lvl0):
    # per-element L2 divergence, reference-exact rule, against the H1 size
    row, st = solved_lvl0
    quad, mp = st.quad, st.quad.mapping
    pts, wts = quad.ref_rule
    h1 = 0.0
    worst = 0.0
    for e in st.uh.space.elements:
        e = int(e)
        _, J = (a[0] for a in mp.jacobians([e], pts))
        v, g, d = (a[0] for a in st.uh.at([e], pts))
        worst = max(worst, float(np.sqrt((wts * J) @ d ** 2)))
        h1 += float((wts * J) @ ((g ** 2).sum((1, 2)) + (v ** 2).sum(1)))
    assert worst <= 1e-9 * np.sqrt(h1)


def test_solved_residual_per_equation(solved_lvl0):
    _, st = solved_lvl0
    M, b = st.system.matrix, st.system.rhs
    x = np.concatenate([st.sol.u, st.sol.p, st.sol.lam, [st.sol.s]])
    r = b - M @ x
    assert np.abs(r).max() <= 1e-10 * max(np.abs(b).max(), 1.0)


def test_solution_scales_with_data(solved_lvl0):
    from cutstokes.solver import solve_direct
    _, st = solved_lvl0
    x1 = np.concatenate([st.sol.u, st.sol.p, st.sol.lam, [st.sol.s]])
    x2 = solve_direct(st.system.matrix, 2.0 * st.system.rhs)
    assert np.linalg.norm(x2 - 2.0 * x1) <= 1e-9 * np.linalg.norm(x2)


def test_gamma_n_robustness():
    errs = []
    for gn in (20.0, 40.0, 80.0):
        row, _ = solve_level(StudyConfig(example=1, levels=3, gamma_n=gn), 2)
        errs.append(row.h1u)
    spread = (max(errs) - min(errs)) / min(errs)
    assert spread < 0.20, errs
