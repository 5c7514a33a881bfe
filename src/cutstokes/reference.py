"""Reference triangle utilities: quadrature rules, Lagrange node layouts, nodal bases.

Everything on the unit triangle T = {(x, y) : x >= 0, y >= 0, x + y <= 1}.
Edge nodes use the Gauss-Lobatto distribution, which keeps traces of the
nodal interpolant well behaved on cut meshes; interior nodes are equispaced.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


def gauss_lobatto_unit(degree: int) -> np.ndarray:
    """Gauss-Lobatto points on [0, 1] for a degree `degree` edge (degree+1 points).

    Interior points are the roots of the derivative of the Legendre
    polynomial of that degree, mapped from [-1, 1].
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    leg = np.polynomial.legendre.Legendre.basis(degree)
    interior = np.sort(leg.deriv().roots().real)
    pts = np.concatenate(([-1.0], interior, [1.0]))
    return 0.5 * (pts + 1.0)


@lru_cache(maxsize=None)
def reference_nodes(degree: int) -> np.ndarray:
    """Lagrange nodes on the unit triangle, shape (n_k, 2).

    Ordering: 3 vertices, then edge interior nodes per edge (01, 12, 20) in
    edge direction, then equispaced interior nodes.  This ordering is what
    the mesh-level node numbering assumes.
    """
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    nodes = [v]
    gl = gauss_lobatto_unit(degree)[1:-1]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        nodes.append(v[a] + np.outer(gl, v[b] - v[a]))
    interior = [[i / degree, j / degree]
                for i in range(1, degree) for j in range(1, degree - i)]
    nodes.append(np.reshape(interior, (-1, 2)))
    return np.vstack(nodes)


def lattice(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (i/k, j/k), i + j <= k, of the unit triangle's order-k lattice,
    boundary included, and the triangles connecting them: the cells of a
    piecewise-linear export of degree-k fields, and sample points that meet
    the boundary extrema of a polynomial."""
    idx = {}
    pts = []
    for j in range(k + 1):
        for i in range(k + 1 - j):
            idx[(i, j)] = len(pts)
            pts.append((i / k, j / k))
    tris = []
    for j in range(k):
        for i in range(k - j):
            tris.append((idx[(i, j)], idx[(i + 1, j)], idx[(i, j + 1)]))
            if i + j < k - 1:
                tris.append((idx[(i + 1, j)], idx[(i + 1, j + 1)],
                             idx[(i, j + 1)]))
    return np.array(pts), np.array(tris, dtype=np.int64)


@lru_cache(maxsize=None)
def triangle_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule on the unit triangle exact for total degree `order`.

    Built from a Duffy-type product of Gauss-Legendre and Gauss-Jacobi rules,
    so weights are strictly positive at any order.  Returns (points, weights)
    with points of shape (nq, 2); weights sum to 1/2.
    """
    n = max(1, (order + 2) // 2)
    xg, wg = roots_legendre(n)
    xg = 0.5 * (xg + 1.0)
    wg = 0.5 * wg
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    eta = 0.5 * (xj + 1.0)
    weta = 0.25 * wj
    pts = np.empty((n * n, 2))
    wts = np.empty(n * n)
    k = 0
    for i in range(n):
        for j in range(n):
            pts[k, 0] = xg[j] * (1.0 - eta[i])
            pts[k, 1] = eta[i]
            wts[k] = wg[j] * weta[i]
            k += 1
    return pts, wts


@lru_cache(maxsize=None)
def segment_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1] exact for degree `order`; weights sum to 1."""
    n = max(1, (order + 2) // 2)
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _monomial_exponents(degree: int) -> np.ndarray:
    exps = [(i, j) for t in range(degree + 1) for i in range(t, -1, -1) for j in (t - i,)]
    return np.array(exps, dtype=int)


class ReferenceElement:
    """Scalar Lagrange basis of a given degree on the unit triangle.

    The nodal basis is represented through monomials centered at the
    centroid, which keeps the node Vandermonde well conditioned for the
    degrees used here.  `eval`, `grad` and `hess` accept arbitrary points,
    including points outside the triangle (needed for patch extensions), in
    arrays of shape (..., 2); the tables keep the leading axes.
    """

    def __init__(self, degree: int):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.nodes = reference_nodes(degree)
        self.n_basis = self.nodes.shape[0]
        self._exps = _monomial_exponents(degree)
        V = self._monomials(self.nodes)
        self._coef = np.linalg.solve(V, np.eye(self.n_basis))

    def _monomials(self, pts: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
        pts = np.atleast_2d(pts)
        x = pts[..., 0] - 1.0 / 3.0
        y = pts[..., 1] - 1.0 / 3.0
        p = self._exps[:, 0]
        q = self._exps[:, 1]
        out = np.zeros(pts.shape[:-1] + (self.n_basis,))
        for m in range(self.n_basis):
            pm, qm = p[m] - dx, q[m] - dy
            if pm < 0 or qm < 0:
                continue
            cp = np.prod(np.arange(p[m], pm, -1)) if dx else 1.0
            cq = np.prod(np.arange(q[m], qm, -1)) if dy else 1.0
            out[..., m] = cp * cq * x**pm * y**qm
        return out

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """Basis values, shape (..., n_basis)."""
        return self._monomials(pts) @ self._coef

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """Basis gradients, shape (..., n_basis, 2)."""
        gx = self._monomials(pts, dx=1) @ self._coef
        gy = self._monomials(pts, dy=1) @ self._coef
        return np.stack([gx, gy], axis=-1)

    def hess(self, pts: np.ndarray) -> np.ndarray:
        """Basis second derivatives, shape (..., n_basis, 2, 2)."""
        hxx = self._monomials(pts, dx=2) @ self._coef
        hxy = self._monomials(pts, dx=1, dy=1) @ self._coef
        hyy = self._monomials(pts, dy=2) @ self._coef
        h = np.empty(hxx.shape + (2, 2))
        h[..., 0, 0] = hxx
        h[..., 0, 1] = hxy
        h[..., 1, 0] = hxy
        h[..., 1, 1] = hyy
        return h


@lru_cache(maxsize=None)
def reference_element(degree: int) -> ReferenceElement:
    return ReferenceElement(degree)
