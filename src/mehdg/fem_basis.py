"""Simplicial Lagrange bases, C0 patch dof maps, trace bases and quadrature.

Bases use equispaced lattice nodes on the reference simplex and are built by
inverting the monomial Vandermonde matrix (adequate for the degrees p <= 5
used here).  Quadrature rules, reference tables, patch dof maps, trace
bases, their quadrature, the reference trace mass and the projection onto
the trace space depend only on small integers; each is built once and
shared, with its arrays read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .mesh import sub_cells


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def patch_dof_count(d: int, m: int, p: int) -> int:
    """Dof count of the C0 degree-p space on a uniformly m-subdivided d-simplex."""
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    if m < 1 or p < 1:
        raise ValueError("m and p must be >= 1")
    return comb(m * p + d, d)


def simplex_lattice(d: int, p: int) -> list[tuple]:
    """Integer lattice multi-indices of the degree-p simplex, fixed order."""
    if d == 1:
        return [(i,) for i in range(p + 1)]
    if d == 2:
        return [(i, j) for j in range(p + 1) for i in range(p + 1 - j)]
    raise ValueError("d must be 1 or 2")


class LagrangeBasis:
    """Nodal Lagrange basis of total degree p on the reference simplex."""

    def __init__(self, d: int, p: int):
        if d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        if p < 1:
            raise ValueError("p must be >= 1")
        self.d = d
        self.p = p
        self.lattice = simplex_lattice(d, p)
        self.nodes = _readonly(np.array(self.lattice, dtype=float) / p)
        self.exps = _readonly(np.array(self.lattice))  # monomial exponents, same index set
        V = self._monomials(self.nodes)
        self.coeff = _readonly(np.linalg.inv(V))  # basis_j = sum_k coeff[k, j] * mono_k
        self.n_dofs = len(self.lattice)

    def _monomials(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.ones((pts.shape[0], len(self.exps)))
        for c in range(self.d):
            out *= pts[:, c, None] ** self.exps[None, :, c]
        return out

    def _mono_deriv(self, pts: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
        pts = np.atleast_2d(pts)
        npt = pts.shape[0]
        out = np.ones((npt, len(self.exps)))
        for c in range(self.d):
            e = self.exps[:, c].astype(float)
            if c == axis:
                fac = np.ones_like(e)
                for k in range(order):
                    fac *= np.maximum(e - k, 0.0)
                ered = np.maximum(self.exps[:, c] - order, 0)
                out *= fac[None, :] * pts[:, c, None] ** ered[None, :]
            else:
                out *= pts[:, c, None] ** self.exps[None, :, c]
        return out

    def eval(self, pts: np.ndarray) -> np.ndarray:
        """(npts, n_dofs) basis values."""
        return self._monomials(pts) @ self.coeff

    def grad(self, pts: np.ndarray) -> np.ndarray:
        """(npts, n_dofs, d) reference gradients."""
        pts = np.atleast_2d(pts)
        out = np.empty((pts.shape[0], self.n_dofs, self.d))
        for c in range(self.d):
            out[:, :, c] = self._mono_deriv(pts, c) @ self.coeff
        return out

    def hess(self, pts: np.ndarray) -> np.ndarray:
        """(npts, n_dofs, d, d) reference second derivatives."""
        pts = np.atleast_2d(pts)
        out = np.empty((pts.shape[0], self.n_dofs, self.d, self.d))
        for ca in range(self.d):
            for cb in range(ca, self.d):
                if ca == cb:
                    tab = self._mono_deriv(pts, ca, order=2) @ self.coeff
                else:
                    mono = np.ones((pts.shape[0], len(self.exps)))
                    for c in range(self.d):
                        e = self.exps[:, c].astype(float)
                        if c in (ca, cb):
                            ered = np.maximum(self.exps[:, c] - 1, 0)
                            mono *= e[None, :] * pts[:, c, None] ** ered[None, :]
                        else:
                            mono *= pts[:, c, None] ** self.exps[None, :, c]
                    tab = mono @ self.coeff
                out[:, :, ca, cb] = tab
                out[:, :, cb, ca] = tab
        return out


@dataclass
class PatchDofMap:
    """C0 gluing of the m^2 degree-p sub-element bases over one macro triangle."""

    m: int
    p: int
    n_dofs: int
    cell_maps: np.ndarray  # (m^2, nb): per sub-element, local -> patch index
    node_lattice: np.ndarray  # (Q, 2) integer lattice coords, scale 1/(m*p)
    edge_nodes: np.ndarray  # (3, m*p+1) patch indices along each macro edge

    @property
    def node_ref_coords(self) -> np.ndarray:
        return self.node_lattice.astype(float) / (self.m * self.p)


@lru_cache(maxsize=None)
def patch_dof_map(m: int, p: int) -> PatchDofMap:
    """The shared PatchDofMap of (m, p); its enumeration of the sub-cells is
    mesh.sub_cells(m)."""
    L = m * p
    lattice = simplex_lattice(2, L)
    index = {ab: i for i, ab in enumerate(lattice)}
    nb = LagrangeBasis(2, p).n_dofs
    loc = simplex_lattice(2, p)
    cell_maps = np.empty((m * m, nb), dtype=np.int64)
    for c, (kind, i, j) in enumerate(sub_cells(m)):
        for l, (r, s) in enumerate(loc):
            if kind == "up":
                ab = (i * p + r, j * p + s)
            else:
                ab = ((i + 1) * p - s, j * p + r + s)
            cell_maps[c, l] = index[ab]
    edge_nodes = np.empty((3, L + 1), dtype=np.int64)
    for k in range(L + 1):
        edge_nodes[0, k] = index[(L - k, k)]  # v1 -> v2
        edge_nodes[1, k] = index[(0, L - k)]  # v2 -> v0
        edge_nodes[2, k] = index[(k, 0)]      # v0 -> v1
    return PatchDofMap(
        m=m, p=p, n_dofs=len(lattice), cell_maps=_readonly(cell_maps),
        node_lattice=_readonly(np.array(lattice)), edge_nodes=_readonly(edge_nodes),
    )


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (npts, 3) barycentric coordinates on the triangle
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        _readonly(self.points)
        _readonly(self.weights)

    @property
    def points_ref(self) -> np.ndarray:
        return self.points[:, 1:]


@lru_cache(maxsize=None)
def _gauss01(n: int):
    """n-point Gauss-Legendre points and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _readonly(0.5 * (x + 1.0)), _readonly(0.5 * w)


@lru_cache(maxsize=None)
def quadrature_rule(degree: int) -> QuadratureRule:
    """Rule on the reference triangle exact for total degree <= degree.

    Built by collapsing a tensor Gauss-Legendre rule (Duffy transform)."""
    if degree < 0 or degree > 20:
        raise ValueError("unsupported exactness degree")
    if degree <= 1:
        # single-point centroid rule (exact for affine integrands)
        return QuadratureRule(np.full((1, 3), 1.0 / 3.0), np.array([0.5]), 1)
    n = (degree + 3) // 2 + 1
    x, wx = _gauss01(n)
    X, E = np.meshgrid(x, x, indexing="ij")
    WX, WE = np.meshgrid(wx, wx, indexing="ij")
    px = (X * (1.0 - E)).ravel()
    py = E.ravel()
    w = (WX * WE * (1.0 - E)).ravel()
    return QuadratureRule(np.column_stack((1.0 - px - py, px, py)), w, degree)


@lru_cache(maxsize=None)
def reference_tables(p: int, degree: int):
    """(rule, values, gradients, hessians) of the degree-p Lagrange basis at
    the points of the degree-exact triangle rule, shaped (nq, nb),
    (nq, nb, 2) and (nq, nb, 2, 2)."""
    rule = quadrature_rule(degree)
    basis = LagrangeBasis(2, p)
    pts = rule.points_ref
    return (rule, _readonly(basis.eval(pts)), _readonly(basis.grad(pts)),
            _readonly(basis.hess(pts)))


class TraceBasis:
    """C0 piecewise degree-p Lagrange basis on [0,1] with m equal segments."""

    def __init__(self, m: int, p: int):
        if m < 1 or p < 1:
            raise ValueError("m and p must be >= 1")
        self.m = m
        self.p = p
        self.n_dofs = m * p + 1
        self.nodes = _readonly(np.arange(self.n_dofs) / (m * p))
        self.breakpoints = _readonly(np.arange(m + 1) / m)
        self._seg = LagrangeBasis(1, p)

    def eval(self, s: np.ndarray) -> np.ndarray:
        """(ns, n_dofs) values of all trace basis functions at parameters s."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.zeros((s.size, self.n_dofs))
        seg = np.clip(np.floor(s * self.m).astype(int), 0, self.m - 1)
        xi = s * self.m - seg
        vals = self._seg.eval(xi[:, None])
        for r in range(self.p + 1):
            out[np.arange(s.size), seg * self.p + r] = vals[:, r]
        return out


@lru_cache(maxsize=None)
def trace_basis(m: int, p: int) -> TraceBasis:
    """The shared TraceBasis of (m, p)."""
    return TraceBasis(m, p)


@lru_cache(maxsize=None)
def trace_hats(m: int, p: int) -> np.ndarray:
    """(m p + 1, m + 1) values of the P1 hat functions of the m + 1 segment
    breakpoints at the nodes of the (m, p) trace basis.  Read-only."""
    return _readonly(trace_basis(m, 1).eval(trace_basis(m, p).nodes))


def piecewise_quad(breaks: np.ndarray, npts: int):
    """Gauss points/weights on [0,1] subordinate to the given breakpoints."""
    x, w = _gauss01(npts)
    pts, wts = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo < 1e-14:
            continue
        pts.append(lo + (hi - lo) * x)
        wts.append((hi - lo) * w)
    return np.concatenate(pts), np.concatenate(wts)


@lru_cache(maxsize=None)
def trace_quadrature(m: int, p: int, npts: int):
    """(s, w, values): npts Gauss points per segment of the (m, p) trace
    space on [0, 1], their weights and the trace basis values there."""
    psi = trace_basis(m, p)
    s, w = piecewise_quad(psi.breakpoints, npts)
    return _readonly(s), _readonly(w), _readonly(psi.eval(s))


@lru_cache(maxsize=None)
def trace_mass(m: int, p: int) -> np.ndarray:
    """Trace mass matrix on [0, 1]; a face F has mass matrix |F| times it."""
    _, w, V = trace_quadrature(m, p, p + 1)
    return _readonly(V.T @ (w[:, None] * V))


@lru_cache(maxsize=None)
def trace_projection(m: int, p: int, npts: int) -> np.ndarray:
    """(n_dofs, n_points) L2 projection onto the (m, p) trace space of
    values at the points of trace_quadrature(m, p, npts):
    trace_mass^-1 V^T diag(w)."""
    _, w, V = trace_quadrature(m, p, npts)
    return _readonly(np.linalg.solve(trace_mass(m, p), V.T * w))
