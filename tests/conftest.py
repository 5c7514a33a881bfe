import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cutstokes.meshing import alfeld_split, build_background_mesh, classify_elements
from cutstokes.forms import _affine_coords, _csr, _extensions, _scatter, _sym
from cutstokes.geometry import (ROOT_MAX_ITER, ROOT_TOL, GeometryError, LevelSet,
                                _damped_deformation, _pointwise, interpolate_p1,
                                build_deformation, build_quadratures)
from cutstokes.reference import reference_element, reference_nodes
from cutstokes.spaces import PressureSpace, VelocitySpace, velocity_tables
from cutstokes.harness import (StudyConfig, _config_items, build_geometry, exact_example1,
                               solve_level)


def quartic_levelset() -> LevelSet:
    return LevelSet(lambda p: p[:, 0] ** 4 + p[:, 1] ** 4 - 0.25,
                    lambda p: np.column_stack([4 * p[:, 0] ** 3, 4 * p[:, 1] ** 3]))


def circle_levelset(r: float) -> LevelSet:
    return LevelSet(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2 - r * r,
                    lambda p: 2 * p)


def build_case(ls: LevelSet, h: float, k: int, box=(-1, 1, -1, 1)):
    mesh = build_background_mesh(box, h)
    am = alfeld_split(mesh)
    phi = interpolate_p1(ls, am)
    sets = classify_elements(phi)
    defo = build_deformation(ls, phi, sets, k)
    quad = build_quadratures(sets, phi, defo)
    return am, phi, sets, defo, quad


def inverse_map(mapping, e: int, x: np.ndarray,
                xhat0: np.ndarray | None = None) -> np.ndarray:
    """Reference coordinates of a physical point on child `e` by Newton
    iteration: the test oracle for `IsoDeformation.phys`."""
    x = np.asarray(x, dtype=float)
    xh = np.array([1 / 3, 1 / 3]) if xhat0 is None else np.array(xhat0, dtype=float)
    for _ in range(40):
        r = mapping.phys([e], xh[None, :])[0, 0] - x
        if np.linalg.norm(r) <= 1e-13 * max(1.0, np.linalg.norm(x)):
            return xh
        F, _ = mapping.jacobians([e], xh[None, :])
        xh = xh - np.linalg.solve(F[0, 0], r)
    raise GeometryError(f"inverse map did not converge on element {e}")


def gradient_fd_error(ls: LevelSet, pts: np.ndarray, step: float = 1e-6) -> float:
    """Max relative mismatch between `ls.gradient` and central differences."""
    pts = np.atleast_2d(pts)
    g = ls.gradient(pts)
    fd = np.empty_like(g)
    for j in range(2):
        dp = np.zeros(2)
        dp[j] = step
        fd[:, j] = (ls.value(pts + dp) - ls.value(pts - dp)) / (2 * step)
    scale = np.maximum(np.linalg.norm(g, axis=1), 1e-12)
    return float((np.linalg.norm(g - fd, axis=1) / scale).max())


def eval_ref(phi, e: int, xhat: np.ndarray) -> np.ndarray:
    """Values of the P1 level set `phi` at reference coordinates of child e."""
    v = phi.child_values(e)
    xhat = np.atleast_2d(xhat)
    return v[0] * (1 - xhat[:, 0] - xhat[:, 1]) + v[1] * xhat[:, 0] + v[2] * xhat[:, 1]


def signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas of the triangles, positive when counterclockwise."""
    v = vertices[triangles]
    u, w = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    return 0.5 * (u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])


def facet_nodes(ns, am, fid: int) -> np.ndarray:
    """Global ids of the nodes of NodeSet `ns` on child facet `fid`
    (endpoints + edge nodes)."""
    a, b = am.child_mesh.facets[fid]
    base = am.vertices.shape[0] + fid * (ns.degree - 1)
    return np.array([a, b, *range(base, base + ns.degree - 1)], dtype=np.int64)


def boundary_facets(am, elements) -> np.ndarray:
    """Child facets with exactly one owner among the children `elements`:
    the boundary of the mesh they form."""
    inside = np.zeros(am.n_children, dtype=bool)
    inside[elements] = True
    t0, t1 = am.child_mesh.facet_tris.T
    return np.flatnonzero(inside[t0] != ((t1 >= 0) & inside[t1]))


def boundary_dofs(vs) -> np.ndarray:
    """Velocity dofs of the nodes lying on the boundary of the active mesh."""
    am = vs.mapping.am
    ids = [facet_nodes(am.lagrange_nodes(vs.degree), am, int(fid))
           for fid in boundary_facets(am, vs.elements)]
    gids = np.unique(np.concatenate(ids)) if ids else np.array([], dtype=np.int64)
    cg = vs._comp[gids]
    cg = cg[cg >= 0]
    return np.concatenate([2 * cg, 2 * cg + 1])


def dense_condition_number(M) -> float:
    """|lambda|_max / |lambda|_min of a symmetric sparse matrix from all its
    eigenvalues (LAPACK): the oracle for `condition_estimate`."""
    w = np.abs(np.linalg.eigvalsh(M.toarray()))
    return w.max() / w.min()


def pinned_factor(system):
    """LU of the (u, p, lambda) block K of a `SaddleSystem` with row and
    column i = n_u + n_p (the first multiplier dof) replaced by e_i, and the
    null vector z of K with z_i = 1 that one more solve gives: the oracle
    for the assembled kernel and for the fill of the penalty factor."""
    M = sp.csc_matrix(system.matrix)
    n = M.shape[0] - 1
    i = system.n_u + system.n_p
    K = M[:n, :n].tocoo()
    free = (K.row != i) & (K.col != i)
    pinned = sp.csc_matrix(
        (np.append(K.data[free], 1.0),
         (np.append(K.row[free], i), np.append(K.col[free], i))),
        shape=(n, n))
    lu = spla.splu(pinned)
    r = -M[:n, [i]].toarray().ravel()
    r[i] = 1.0
    return lu, lu.solve(r)


def add_at_sum(blocks, shape) -> np.ndarray:
    """Dense sum of local blocks (rows (ne, nr), cols (ne, nc), vals
    (ne, nr, nc)) by `np.add.at`, which adds the entries one by one in
    insertion order: the oracle for `forms._csr`."""
    out = np.zeros(shape)
    for rows, cols, vals in blocks:
        r = np.broadcast_to(rows[:, :, None], vals.shape)
        c = np.broadcast_to(cols[:, None, :], vals.shape)
        np.add.at(out, (r.ravel(), c.ravel()), vals.ravel())
    return out


def per_facet_ghost_penalty(quad, space, gamma_gp, facets=None) -> sp.csr_matrix:
    """`assemble_ghost_penalty` one facet and one owner at a time, folding
    the jump onto the patch dofs with `np.unique`: the oracle for the
    batched facet groups."""
    vector = isinstance(space, VelocitySpace)
    mp = quad.mapping
    if facets is None:
        facets = quad.sets.gp_facets
    scale = gamma_gp / quad.am.macro.h ** 2
    pts, wts = quad.patch_rule
    sides = [tuple(int(t) for t in quad.am.child_mesh.facet_tris[int(f)])
             for f in facets]
    if vector:
        owners = sorted({e for s in sides for e in s})
        arrays = _extensions(quad, space, np.array(owners))
        ext = {e: tuple(a[i] for a in arrays) for i, e in enumerate(owners)}
    blocks = []
    for e1, e2 in sides:
        dofs = np.concatenate([space.elem_dofs[space.element_row[e1]],
                               space.elem_dofs[space.element_row[e2]]])
        udofs, fold = np.unique(dofs, return_inverse=True)
        for ei, ej in ((e1, e2), (e2, e1)):
            if vector:
                x, Jw, vi, _ = ext[ei]
                vj = np.einsum("qa,adc->qdc",
                               space.ref.eval(_affine_coords(mp, ej, x)), ext[ej][3])
            else:
                xt = mp.v0[ei] + pts @ mp.A[ei].T
                Jw = wts * mp.jacobians([ei], pts)[1][0]
                vi = space.ref.eval(pts)[:, :, None]
                vj = space.ref.eval(_affine_coords(mp, ej, xt))[:, :, None]
            if ei == e1:
                jump = np.concatenate([vi, -vj], axis=1)
            else:
                jump = np.concatenate([-vj, vi], axis=1)
            folded = np.zeros((jump.shape[0], udofs.size, jump.shape[2]))
            np.add.at(folded, (slice(None), fold), jump)
            loc = _sym(np.einsum("q,qdc,qec->de", Jw * scale, folded, folded))
            blocks.append((udofs[None], udofs[None], loc[None]))
    n = space.n_dofs
    return _csr(n, n, blocks)


def node_positions(space) -> np.ndarray:
    """Mapped (physical) positions of the global nodes of a continuous
    space, in its dof numbering (the velocity space: its node numbering)."""
    nodes = space.mapping.am.lagrange_nodes(space.degree)
    pos = nodes.coords[space.nodes].copy()
    if space.degree == space.mapping.degree:
        pos += space.mapping.node_disp[space.nodes]
    else:
        loc = space._comp[nodes.elem2node[space.elements]]
        pos[loc] = space.mapping.phys(space.elements, reference_nodes(space.degree))
    return pos


def interpolate_velocity(vs, v) -> np.ndarray:
    """Nodal interpolant: physical nodal values are `v` at the mapped nodes."""
    vals = np.asarray(v(node_positions(vs)), dtype=float)
    U = np.empty(vs.n_dofs)
    U[0::2] = vals[:, 0]
    U[1::2] = vals[:, 1]
    return U


def interpolate_scalar(space, f) -> np.ndarray:
    """Nodal interpolant of a scalar function (continuous spaces) or the
    per-element composition interpolant (discontinuous pressure space)."""
    if isinstance(space, PressureSpace):
        out = np.empty(space.n_dofs)
        x = space.mapping.phys(space.elements, reference_nodes(space.degree))
        out[space.elem_dofs] = _pointwise(f, x)
        return out
    return np.asarray(f(node_positions(space)), dtype=float)


def read_config(path: str) -> StudyConfig:
    """Parse a flat key=value file; unknown keys are an error."""
    return StudyConfig(**_config_items(path))


def fit_rate(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if (errors <= 0).any():
        raise ValueError("rates need positive errors")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def areas(quad) -> tuple[float, float, float]:
    """(fluid area, active-mesh area, interface length) of a `CutQuadrature`:
    sums of w * J over its volume and bulk groups, in group order, and of
    the interface weights."""
    mp = quad.mapping
    inside = bulk = 0.0
    for elems, xh, w in quad.volume_groups():
        inside += float((w * mp.jacobians(elems, xh)[1]).sum())
    for elems, xh, w in quad.bulk_groups():
        bulk += float((w * mp.jacobians(elems, xh)[1]).sum())
    return inside, bulk, float(quad.interface_rule.weights.sum())


def rhs_by_tables(quad, vs, f) -> np.ndarray:
    """The load vector (f, v) contracted with the velocity basis tables of
    every volume group: the oracle for `assemble_rhs`."""
    mp = quad.mapping
    rhs = np.zeros(vs.n_dofs)
    for elems, xh, w in quad.volume_groups():
        val = velocity_tables(vs, elems, xh, derivs=False)[0]
        wj = w * mp.jacobians(elems, xh)[1]
        fx = _pointwise(f, mp.phys(elems, xh))
        rhs += _scatter(vs.n_dofs, vs.elem_dofs[vs.element_row[elems]],
                        np.einsum("eq,eqdc,eqc->ed", wj, val, fx))
    return rhs


def divergence_table(vs, elems, xhat) -> np.ndarray:
    """Piola divergences (ne, nq, 2 n_k) of the velocity basis of the
    children `elems`, by the reference identity div v = (1/J) div_ref v_ref
    rather than the gradient trace: the oracle for `assemble_b`."""
    W = np.swapaxes(vs.nodal_blocks[vs.rows(np.asarray(elems))], -1, -2)[:, None]
    J = vs.mapping.jacobians(elems, xhat)[1]
    div = (W @ vs.ref.grad(xhat)[..., None])[..., 0] / J[..., None, None]
    return div.reshape(J.shape + (vs.n_local,))


def _scalar_newton_bisect(g, dg, lo: float, hi: float) -> float:
    """Root of one scalar g in [lo, hi]: Newton from 0 with bisection
    fallback; raises GeometryError like the batched solve reports."""
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
                raise GeometryError(f"root not bracketed in [{lo:.3e}, {hi:.3e}]")
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
    raise GeometryError("root solve did not converge")


def per_node_deformation(ls, phi_p1, sets, degree: int):
    """`build_deformation` with one scalar root solve per (cut child, node)
    pair: the oracle for the batched iteration.  The damping is shared."""
    am = phi_p1.am
    ns = am.lagrange_nodes(degree)
    ref = reference_element(degree)
    h = am.macro.h
    lo, hi = -0.5 * h, 0.5 * h
    sums = np.zeros((ns.n_nodes, 2))
    counts = np.zeros(ns.n_nodes)
    for e in sets.alfeld_cut:
        gids = ns.elem2node[e]
        pos = ns.coords[gids]
        va, vb, vc = am.child_vertices(int(e))
        Ainv = np.linalg.inv(np.column_stack([vb - va, vc - va]))
        interp_vals = ls.value(pos)
        pv = phi_p1.child_values(int(e))
        xref = (pos - va) @ Ainv.T
        targets = pv[0] * (1 - xref[:, 0] - xref[:, 1]) + pv[1] * xref[:, 0] + pv[2] * xref[:, 1]
        grads = ls.gradient(pos)
        for m, gid in enumerate(gids):
            gn = np.linalg.norm(grads[m])
            if gn < 1e-12:
                raise GeometryError(f"vanishing level-set gradient at node {gid} at {pos[m]}")
            G = grads[m] / gn
            GA = Ainv @ G

            def g(d, m=m, GA=GA):
                xh = xref[m] + d * GA
                return float(ref.eval(xh[None, :])[0] @ interp_vals) - targets[m]

            def dg(d, m=m, GA=GA):
                gr = ref.grad((xref[m] + d * GA)[None, :])[0]
                return float((gr.T @ interp_vals) @ GA)

            try:
                delta = _scalar_newton_bisect(g, dg, lo, hi)
            except GeometryError as err:
                raise GeometryError(f"{err} at node {gid} at {pos[m]}") from None
            sums[gid] += delta * G
            counts[gid] += 1.0
    moved = counts > 0
    disp = np.zeros((ns.n_nodes, 2))
    disp[moved] = sums[moved] / counts[moved, None]
    return _damped_deformation(am, sets, degree, disp)


# ---------------------------------------------------------------------------
# the closed forms of both exact cases written with literal powers, as an
# oracle for the product forms of `harness`


def literal_closed_forms(example: int) -> dict:
    """u, grad_u, p, grad_p, f, phi and dphi of `exact_example<example>`."""
    if example == 1:
        def phi(x):
            return x[:, 0] ** 4 + x[:, 1] ** 4 - 0.25

        def dphi(x):
            return np.column_stack([4.0 * x[:, 0] ** 3, 4.0 * x[:, 1] ** 3])

        def u(x):
            X, Y = x[:, 0], x[:, 1]
            c = np.cos(2.0 * np.pi * (X ** 4 + Y ** 4))
            return np.column_stack([4.0 * Y ** 3 * c, -4.0 * X ** 3 * c])

        def grad_u(x):
            X, Y = x[:, 0], x[:, 1]
            r = X ** 4 + Y ** 4
            c = np.cos(2.0 * np.pi * r)
            s = np.sin(2.0 * np.pi * r)
            g = np.empty((x.shape[0], 2, 2))
            g[:, 0, 0] = -32.0 * np.pi * X ** 3 * Y ** 3 * s
            g[:, 0, 1] = 12.0 * Y ** 2 * c - 32.0 * np.pi * Y ** 6 * s
            g[:, 1, 0] = -12.0 * X ** 2 * c + 32.0 * np.pi * X ** 6 * s
            g[:, 1, 1] = 32.0 * np.pi * X ** 3 * Y ** 3 * s
            return g

        def p(x):
            X, Y = x[:, 0], x[:, 1]
            return np.sin(np.pi * X * Y) + X ** 3 + Y ** 3

        def grad_p(x):
            X, Y = x[:, 0], x[:, 1]
            c = np.cos(np.pi * X * Y)
            return np.column_stack([np.pi * Y * c + 3.0 * X ** 2,
                                    np.pi * X * c + 3.0 * Y ** 2])

        def f(x):
            X, Y = x[:, 0], x[:, 1]
            r = X ** 4 + Y ** 4
            c = np.cos(2.0 * np.pi * r)
            s = np.sin(2.0 * np.pi * r)
            lap1 = (-96.0 * np.pi * X ** 2 * Y ** 3 * s
                    - 256.0 * np.pi ** 2 * X ** 6 * Y ** 3 * c
                    + 24.0 * Y * c - 288.0 * np.pi * Y ** 5 * s
                    - 256.0 * np.pi ** 2 * Y ** 9 * c)
            lap2 = -(-96.0 * np.pi * Y ** 2 * X ** 3 * s
                     - 256.0 * np.pi ** 2 * Y ** 6 * X ** 3 * c
                     + 24.0 * X * c - 288.0 * np.pi * X ** 5 * s
                     - 256.0 * np.pi ** 2 * X ** 9 * c)
            gp = grad_p(x)
            return np.column_stack([-lap1 + gp[:, 0], -lap2 + gp[:, 1]])
    else:
        def phi(x):
            r = np.hypot(x[:, 0], x[:, 1])
            th = np.arctan2(x[:, 1], x[:, 0])
            return r - 0.7 + 0.2 * np.cos(6.0 * th)

        def dphi(x):
            r = np.hypot(x[:, 0], x[:, 1])
            th = np.arctan2(x[:, 1], x[:, 0])
            g = np.empty_like(x, dtype=float)
            safe = np.where(r < 1e-12, 1.0, r)
            s6 = np.sin(6.0 * th)
            g[:, 0] = x[:, 0] / safe + 1.2 * x[:, 1] * s6 / safe ** 2
            g[:, 1] = x[:, 1] / safe - 1.2 * x[:, 0] * s6 / safe ** 2
            g[r < 1e-12] = (1.0, 0.0)
            return g

        def u(x):
            return np.zeros_like(x, dtype=float)

        def grad_u(x):
            return np.zeros((x.shape[0], 2, 2))

        def p(x):
            return x[:, 0] ** 5 + x[:, 1] ** 5

        def grad_p(x):
            return np.column_stack([5.0 * x[:, 0] ** 4, 5.0 * x[:, 1] ** 4])

        f = grad_p
    return dict(u=u, grad_u=grad_u, p=p, grad_p=grad_p, f=f, phi=phi, dphi=dphi)


@pytest.fixture(scope="session")
def quartic_case_h03():
    """Quartic level set on the coarse mesh, k=2: the workhorse configuration."""
    return build_case(quartic_levelset(), 0.3, 2)


@pytest.fixture(scope="session")
def quartic_case_h015():
    return build_case(quartic_levelset(), 0.15, 2)


@pytest.fixture(scope="session")
def ex1_quads():
    """Example 1, high-order geometry: the quadratures of levels 0 and 1,
    which hold undeformed, deformed and cut children."""
    cfg, exact = StudyConfig(example=1), exact_example1()
    return [build_geometry(cfg, exact, cfg.h0 / 2 ** lvl) for lvl in (0, 1)]


# ---------------------------------------------------------------------------
# the full study, shared across test modules and computed once per session


@pytest.fixture(scope="session")
def ex1_ho_study():
    """Example 1, high-order geometry, all five levels: the ResultRows."""
    cfg = StudyConfig(example=1, levels=5)
    exact = exact_example1()
    return [solve_level(cfg, lvl, exact)[0] for lvl in range(cfg.levels)]
