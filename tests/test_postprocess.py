import numpy as np
import pytest

from cutstokes import postprocess
from cutstokes.geometry import IsoDeformation, build_quadratures
from cutstokes.harness import StudyConfig, exact_example1, solve_level
from cutstokes.postprocess import pressure_gp_facets, recover_pressure
from cutstokes.spaces import VelocitySpace, VelocityField
from tests.conftest import (areas, build_case, fit_rate, interpolate_scalar,
                            quartic_levelset)

GAMMA_GP = StudyConfig().gamma_gp


class _ExactVelocity:
    """Stand-in for a solved field in the velocity space `space`: reports
    exact gradients at mapped points."""

    def __init__(self, space, grad):
        self.space = space
        self.grad = grad

    def at(self, e, xhat):
        x = self.space.mapping.phys(e, xhat)
        return None, self.grad(x.reshape(-1, 2)).reshape(x.shape + (2,)), None


def _l2_error(quad, fld, p_exact):
    # compare in the zero-mean quotient: shift the exact pressure by its
    # discrete mean over the fluid domain
    mp = quad.mapping
    num = den = 0.0
    for elems, xh, w in quad.volume_groups():
        _, J = mp.jacobians(elems, xh)
        wj = (w * J).ravel()
        num += float(wj @ p_exact(mp.phys(elems, xh).reshape(-1, 2)))
        den += float(wj.sum())
    shift = num / den
    err2 = 0.0
    for elems, xh, w in quad.volume_groups():
        _, J = mp.jacobians(elems, xh)
        v, _ = fld.at(elems, xh, derivs=False)
        ex = p_exact(mp.phys(elems, xh).reshape(-1, 2)) - shift
        err2 += float((w * J).ravel() @ (v.ravel() - ex) ** 2)
    return np.sqrt(err2)


def test_gp_facet_selection(quartic_case_h03):
    am, phi, sets, defo, quad = quartic_case_h03
    got = set(pressure_gp_facets(quad).tolist())
    cm = am.child_mesh
    cls = sets.child_class
    for fid, (e1, e2) in enumerate(cm.facet_tris):
        if e2 < 0:
            want = False
        else:
            want = max(cls[e1], cls[e2]) == 1
        assert (fid in got) == want
    assert got


def test_zero_data_zero_pressure(quartic_case_h03):
    am, phi, sets, defo, quad = quartic_case_h03
    vs = VelocitySpace(sets, quad.mapping, 2)
    uh = VelocityField(vs, np.zeros(vs.n_dofs))
    pstar = recover_pressure(quad, uh, lambda x: np.zeros_like(x), GAMMA_GP)
    assert np.abs(pstar.coeffs).max() <= 1e-14


def test_linear_gradient_recovered_exactly():
    # identity geometry: a linear target is in the space, the penalty
    # vanishes on it, and the curl data is zero, so the solve is exact
    am, phi, sets, defo, quad = build_case(quartic_levelset(), 0.3, 2)
    ident = IsoDeformation.identity(am, 2)
    quad = build_quadratures(sets, phi, ident)
    vs = VelocitySpace(sets, quad.mapping, 2)
    uh = VelocityField(vs, np.zeros(vs.n_dofs))
    g = lambda x: 0.3 + 2.0 * x[:, 0] - x[:, 1]
    f = lambda x: np.broadcast_to([2.0, -1.0], x.shape)
    pstar = recover_pressure(quad, uh, f, GAMMA_GP)
    d = pstar.coeffs - interpolate_scalar(pstar.space, g)
    # any constant offset is fine, nothing else is
    assert d.max() - d.min() <= 1e-10


def test_mean_zero(quartic_case_h015):
    am, phi, sets, defo, quad = quartic_case_h015
    ex = exact_example1()
    uh = _ExactVelocity(VelocitySpace(sets, quad.mapping, 2), ex.grad_u)
    fld = recover_pressure(quad, uh, ex.f, GAMMA_GP)
    mean = norm2 = 0.0
    for elems, xh, w in quad.volume_groups():
        _, J = quad.mapping.jacobians(elems, xh)
        v, _ = fld.at(elems, xh, derivs=False)
        mean += float(((w * J) * v).sum())
        norm2 += float(((w * J) * v ** 2).sum())
    assert abs(mean) <= 1e-10 * areas(quad)[0] * np.sqrt(norm2)


def test_curl_sign(quartic_case_h015, monkeypatch):
    # flipping the boundary-term sign must stall the error at O(1)
    am, phi, sets, defo, quad = quartic_case_h015
    ex = exact_example1()
    uh = _ExactVelocity(VelocitySpace(sets, quad.mapping, 2), ex.grad_u)
    errs = {}
    for sign in (-1.0, 1.0):
        monkeypatch.setattr(postprocess, "CURL_SIGN", sign)
        pstar = recover_pressure(quad, uh, ex.f, GAMMA_GP)
        errs[sign] = _l2_error(quad, pstar, ex.p)
    assert errs[1.0] > 0.1
    assert errs[-1.0] <= 0.2 * errs[1.0]


def test_h1_rate_over_study(ex1_ho_study):
    rows = ex1_ho_study
    rate = fit_rate([r.h for r in rows], [r.h1p_star for r in rows])
    assert rate >= 0.7, [r.h1p_star for r in rows]


def test_recovery_space_is_the_fluid_children():
    # example 1, level 1, k = 2: p* lives on the 584 children that meet the
    # fluid, not on all 594 active ones, with the same 317 dofs
    _, state = solve_level(StudyConfig(levels=2), 1)
    sets = state.quad.sets
    space = state.pstar.space
    assert np.array_equal(space.elements, np.flatnonzero(sets.child_class < 2))
    assert (space.elements.size, sets.active_children.size) == (584, 594)
    assert (space.degree, space.n_dofs) == (1, 317)


def test_recovery_nodes_lie_on_fluid_children():
    # k = 3, level 1: ten degree-2 nodes of the active mesh touch only
    # children outside the fluid; none of them is a dof of p*
    _, state = solve_level(StudyConfig(k=3, levels=2), 1)
    am, sets = state.quad.am, state.quad.sets
    e2n = am.lagrange_nodes(2).elem2node
    fluid = np.unique(e2n[sets.child_class < 2])
    active = np.unique(e2n[sets.active_children])
    assert np.setdiff1d(active, fluid).size == 10
    assert np.array_equal(state.pstar.space.nodes, fluid)
    assert np.isfinite(state.pstar.coeffs).all()
