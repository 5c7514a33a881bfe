import numpy as np
import pytest

from cutstokes import postprocess
from cutstokes.geometry import IsoDeformation, build_quadratures
from cutstokes.harness import StudyConfig, exact_example1
from cutstokes.postprocess import pressure_gp_facets, recover_pressure
from cutstokes.spaces import (ContinuousPressureSpace, ScalarField,
                              VelocitySpace, VelocityField)
from tests.conftest import (areas, build_case, fit_rate, interpolate_scalar,
                            quartic_levelset)

GAMMA_GP = StudyConfig().gamma_gp


class _ExactVelocity:
    """Stand-in for a solved field: reports exact gradients at mapped points."""

    def __init__(self, mapping, grad):
        self.mapping = mapping
        self.grad = grad

    def at(self, e, xhat):
        x = self.mapping.phys(e, xhat)
        return None, self.grad(x.reshape(-1, 2)).reshape(x.shape + (2,)), None


def _l2_error(quad, qs, pc, p_exact):
    # compare in the zero-mean quotient: shift the exact pressure by its
    # discrete mean over the fluid domain
    mp = quad.mapping
    fld = ScalarField(qs, pc)
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
    qs = ContinuousPressureSpace(sets, quad.mapping, 1)
    uh = VelocityField(vs, np.zeros(vs.n_dofs))
    pc = recover_pressure(quad, qs, uh, lambda x: np.zeros_like(x), GAMMA_GP)
    assert np.abs(pc).max() <= 1e-14


def test_linear_gradient_recovered_exactly():
    # identity geometry: a linear target is in the space, the penalty
    # vanishes on it, and the curl data is zero, so the solve is exact
    am, phi, sets, defo, quad = build_case(quartic_levelset(), 0.3, 2)
    ident = IsoDeformation.identity(am, 2)
    quad = build_quadratures(sets, phi, ident)
    vs = VelocitySpace(sets, quad.mapping, 2)
    qs = ContinuousPressureSpace(sets, quad.mapping, 1)
    uh = VelocityField(vs, np.zeros(vs.n_dofs))
    g = lambda x: 0.3 + 2.0 * x[:, 0] - x[:, 1]
    f = lambda x: np.broadcast_to([2.0, -1.0], x.shape)
    pc = recover_pressure(quad, qs, uh, f, GAMMA_GP)
    d = pc - interpolate_scalar(qs, g)
    # any constant offset is fine, nothing else is
    assert d.max() - d.min() <= 1e-10


def test_mean_zero(quartic_case_h015):
    am, phi, sets, defo, quad = quartic_case_h015
    qs = ContinuousPressureSpace(sets, quad.mapping, 1)
    ex = exact_example1()
    uh = _ExactVelocity(quad.mapping, ex.grad_u)
    pc = recover_pressure(quad, qs, uh, ex.f, GAMMA_GP)
    fld = ScalarField(qs, pc)
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
    qs = ContinuousPressureSpace(sets, quad.mapping, 1)
    ex = exact_example1()
    uh = _ExactVelocity(quad.mapping, ex.grad_u)
    errs = {}
    for sign in (-1.0, 1.0):
        monkeypatch.setattr(postprocess, "CURL_SIGN", sign)
        pc = recover_pressure(quad, qs, uh, ex.f, GAMMA_GP)
        errs[sign] = _l2_error(quad, qs, pc, ex.p)
    assert errs[1.0] > 0.1
    assert errs[-1.0] <= 0.2 * errs[1.0]


def test_h1_rate_over_study(ex1_ho_study):
    rows = ex1_ho_study
    rate = fit_rate([r.h for r in rows], [r.h1p_star for r in rows])
    assert rate >= 0.7, [r.h1p_star for r in rows]
