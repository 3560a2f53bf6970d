"""Assembly of the hybridized DG blocks.

Per macro-element the block system couples the local mixed unknowns
U = (q_x, q_y, u) on the C0 patch space to the trace unknowns on the macro's
skeleton faces:

    a(U, V) = (q, v) - (u, div v) - (a u + kappa q, grad w)
              + <kappa q.n + tau u, w>_{boundary}
    b(vhat, V) = <vhat, v.n> + <(a.n - tau) vhat, w>
    c(U, muhat) = <kappa q.n + tau u, muhat>   (this macro's side of the jump)

The local dof layout is [q_x | q_y | u], each of patch size Q.  A, B and C
are built once per congruence class, from its first macro, out of cached
reference data.  The volume terms of A are the element blocks of the two
red-pattern sub-cell kinds (mass, stiffness, advection and, under SUPG, the
streamline block), added into A by one scatter-add over an index cached per
(m, p).  The boundary terms come from each face slot's reference matrices
W and Me, cached per (m, p, t0, t1) and scaled by the face length; each slot
adds them to A, B and C with one indexed write each.  Each face slot, in the
order of the mesh's slot_faces, owns m p + 1 columns of B.  R_u of all the
macros of a class is one batched quadrature with the same sub-cell tables,
and the Dirichlet lifting is one call of g_D and one cached projection per
slot.

Face blocks D come from the jump of (a.n - tau) vhat over the (one or two)
sides of each skeleton face; D_F = c_F |F| M_ref, so the blocks of all
unknown faces are one (faces, m p + 1, m p + 1) array from one vectorized
pass, and R_hat of the Neumann faces comes from one call of g_N over all
their points.  Everything here reads the mesh's arrays only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .fem_basis import (
    _patch_dof_map,
    _readonly,
    piecewise_quad,
    reference_tables,
    trace_basis,
    trace_mass,
    trace_projection,
    trace_quadrature,
)
from .mesh import MacroMesh, SkeletonFace, sub_cell_jacobians, sub_cell_quadrature, sub_cells


def _velocity(a) -> np.ndarray:
    """The advection velocity as a float array of shape (2,)."""
    a = np.asarray(a, dtype=float)
    if a.shape != (2,) or not np.isfinite(a).all():
        raise ValueError("advection velocity a must be two finite numbers")
    return a


@dataclass
class ProblemData:
    """Constant-velocity advection-diffusion data on the unit square.

    Callables f, g_D, g_N take an (npts, 2) array and return (npts,)."""

    a: np.ndarray
    kappa: float
    f: Callable
    g_D: Callable
    g_N: Optional[Callable] = None

    def __post_init__(self):
        self.a = _velocity(self.a)
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be positive and finite")


@dataclass
class StabilizationConfig:
    supg: bool = False
    supg_variant: str = "classical-minus"  # or "paper-plus"

    def __post_init__(self):
        if self.supg_variant not in ("classical-minus", "paper-plus"):
            raise ValueError(f"unknown supg variant {self.supg_variant!r}")


@dataclass
class LocalOperators:
    """A, B and C of one macro, and `load`, which gives the stacked R_u of
    macros congruent to it by one batched quadrature that reuses this
    macro's sub-cell tables.  R_u, the macro's own load, is computed on
    first use, so a caller that loads a whole class at once pays for one
    quadrature."""

    A: object  # dense ndarray (m <= 2) or csr_matrix (m > 2)
    B: np.ndarray  # B columns / C rows: m p + 1 per face slot of the macro
    C: np.ndarray
    macro: int  # macro id
    load: Callable = field(repr=False)  # load(ids) -> (len(ids), nloc) R_u rows

    @cached_property
    def R_u(self) -> np.ndarray:
        return self.load([self.macro])[0]


class FaceBlocks(NamedTuple):
    """D and R_hat of the unknown (not Dirichlet) faces, in skeleton order."""

    ids: np.ndarray  # (faces,) skeleton face ids
    D: np.ndarray  # (faces, nd, nd), nd = m p + 1
    R_hat: np.ndarray  # (faces, nd)


def stabilization_tau(a: np.ndarray, normal: np.ndarray, kappa: float, ell: float) -> float:
    """Flux stabilization tau = |a.n| + kappa/ell, constant per face side."""
    tau = abs(float(np.dot(a, normal))) + kappa / ell
    if tau <= 0:
        raise ValueError("nonpositive stabilization parameter")
    return tau


def supg_parameter(h: float, a: np.ndarray, kappa: float,
                   variant: str = "classical-minus") -> float:
    """Streamline stabilization parameter from the element Peclet number
    Pe = |a| h / (2 kappa)."""
    anorm = float(np.linalg.norm(a))
    if anorm == 0.0:
        return 0.0
    pe = anorm * h / (2.0 * kappa)
    sign = -1.0 if variant == "classical-minus" else 1.0
    if pe > 30.0:
        g = 1.0 + sign / pe
    elif pe < 1e-4:
        # coth x - 1/x = x/3 - x^3/45 + ...; coth x + 1/x = 2/x + x/3 - ...
        g = pe / 3.0 - pe**3 / 45.0
        if sign > 0:
            g += 2.0 / pe
    else:
        g = 1.0 / math.tanh(pe) + sign / pe
    return h / (2.0 * anorm) * g


def _face_breaks(t0: float, t1: float, m: int) -> np.ndarray:
    """Breakpoints in the face parameter s from both the trace subdivision
    (m segments) and the subdivision of the macro edge, whose parameter runs
    from t0 to t1 along the face; points within 1e-12 of each other are one
    breakpoint, so rounding leaves no sliver intervals."""
    breaks = list(np.arange(m + 1) / m)
    dt = t1 - t0
    for c in range(m + 1):
        s = (c / m - t0) / dt
        if 0.0 < s < 1.0 and min(abs(s - b) for b in breaks) > 1e-12:
            breaks.append(s)
    return np.array(sorted(breaks))


def _quad_degree(p: int, stab: StabilizationConfig, quad_degree: Optional[int]) -> int:
    if quad_degree is not None:
        return quad_degree
    return 2 * p + 2 if stab.supg else 2 * p + 1


def _sub_cell_tables(jacobian: np.ndarray, m: int, p: int, problem: ProblemData,
                     stab: StabilizationConfig, quad_degree: int) -> dict:
    """Per red-pattern sub-cell class ("up", "down") of the macro with the
    affine Jacobian (2, 2): quadrature weights, the mass and stiffness
    blocks, the SUPG block, and the test functions of the load (the basis,
    plus the streamline term under SUPG)."""
    rule, val, gref, href = reference_tables(p, quad_degree)
    a, kappa = problem.a, problem.kappa
    tables = {}
    for kind, q in sub_cell_jacobians(jacobian[None], m).items():
        Jc, Jinv, detc = q.jac[0], q.jinv[0], q.det[0]
        gph = gref @ Jinv  # (nq, nb, 2) physical gradients
        wd = rule.weights * detc
        tb = dict(wd=wd, M=val.T @ (wd[:, None] * val), test=val,
                  K=[(gph[:, :, c] * wd[:, None]).T @ val for c in range(2)])
        if stab.supg:
            lap = np.einsum("ja,qbjk,ka->qb", Jinv, href, Jinv)
            edges = [Jc[:, 0], Jc[:, 1], Jc[:, 1] - Jc[:, 0]]
            h = max(float(np.linalg.norm(e)) for e in edges)
            ts = supg_parameter(h, a, kappa, stab.supg_variant)
            advg = gph @ a  # (nq, nb)
            tb["S"] = ts * (advg * wd[:, None]).T @ (advg - kappa * lap)
            tb["test"] = val + ts * advg
        tables[kind] = tb
    return tables


def _boundary_npts(p: int) -> int:
    """Gauss points per trace segment for boundary data (g_D and g_N)."""
    return max(p + 2, 6)


def _face_points(verts: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(..., ns, 2) points at the parameters s of faces whose vertices are
    given as a (..., 2, 2) array."""
    v0 = verts[..., None, 0, :]
    return v0 + s[:, None] * (verts[..., None, 1, :] - v0)


def project_dirichlet(face: SkeletonFace, g: Callable, m: int, p: int) -> np.ndarray:
    """L2-projection of boundary data onto the face trace space of a mesh of
    the given m."""
    npts = _boundary_npts(p)
    s = trace_quadrature(m, p, npts)[0]
    return trace_projection(m, p, npts) @ np.asarray(
        g(_face_points(face.verts, s)), dtype=float)


def load_vectors(
    mesh: MacroMesh,
    ids: np.ndarray,
    p: int,
    problem: ProblemData,
    tables: dict,
    B: np.ndarray,
    quad_degree: int,
) -> np.ndarray:
    """R_u of each of the congruent macros `ids`, stacked (len(ids), nloc),
    from their shared sub-cell `tables` and B: one batched quadrature (one
    call of f per sub-cell kind over all their cells, with the SUPG term),
    then Dirichlet lifting, with one call of g_D over the Dirichlet face
    points of all the macros and one projection per face slot."""
    m = mesh.m
    rule = reference_tables(p, quad_degree)[0]
    dofmap = _patch_dof_map(m, p)
    Q = dofmap.n_dofs
    R = np.zeros((len(ids), 3 * Q))
    quad = sub_cell_quadrature(mesh.jacobians[ids], mesh.verts[ids, 0], m, rule.points_ref)
    for kind, q in quad.items():
        tb = tables[kind]
        fvals = np.asarray(problem.f(q.points.reshape(-1, 2)), dtype=float)
        load = np.einsum("ncq,qb->ncb", fvals.reshape(q.points.shape[:3]) * tb["wd"],
                         tb["test"])
        rows = 2 * Q + dofmap.cell_maps[q.cells].ravel()
        np.add.at(R.T, rows, load.reshape(len(ids), -1).T)

    # Dirichlet data enters through trace elimination; congruent macros
    # share their slots, but not which of them are Dirichlet.  The g_D
    # points go slot by slot, macro by macro within a slot.
    npts, nd = _boundary_npts(p), m * p + 1
    face_ids = mesh.slot_faces[ids, :B.shape[1] // nd]
    slot, row = np.nonzero((mesh.face_tag[face_ids] == "D").T)
    G = np.zeros(face_ids.shape + (nd,))
    if row.size:
        x = _face_points(mesh.face_verts[face_ids[row, slot]], trace_quadrature(m, p, npts)[0])
        g = np.asarray(problem.g_D(x.reshape(-1, 2)), dtype=float).reshape(x.shape[:2])
        # projected slot by slot: numpy sends a one-row product through a
        # matrix-vector kernel that rounds differently, so one product over
        # all slots would move R_u in the last bits
        for i in np.unique(slot).tolist():
            G[row[slot == i], i] = g[slot == i] @ trace_projection(m, p, npts).T
    return R - G.reshape(len(ids), -1) @ B.T


@lru_cache(maxsize=None)
def _volume_scatter(m: int, p: int):
    """(kind, index) for the volume terms of A at (m, p).  Per sub-cell, in
    sub_cells order: its kind, 0 for "up" and 1 for "down", and the flat
    indices into the (3Q, 3Q) matrix A of its [q_x | q_y | u] element block,
    row-major.  Read-only."""
    dofmap = _patch_dof_map(m, p)
    Q = dofmap.n_dofs
    rows = np.concatenate([dofmap.cell_maps + c * Q for c in range(3)], axis=1)
    index = (rows[:, :, None] * (3 * Q) + rows[:, None, :]).reshape(len(rows), -1)
    kind = np.array([cell[0] == "down" for cell in sub_cells(m)], dtype=np.intp)
    return _readonly(kind), _readonly(index)


def _element_matrix(tb: dict, a: np.ndarray, kappa: float) -> np.ndarray:
    """(3nb, 3nb) [q_x | q_y | u] volume block of one sub-cell kind."""
    M, (Kx, Ky) = tb["M"], tb["K"]
    nb = M.shape[0]
    q_x, q_y, u = slice(0, nb), slice(nb, 2 * nb), slice(2 * nb, 3 * nb)
    E = np.zeros((3 * nb, 3 * nb))
    E[q_x, q_x] = E[q_y, q_y] = M
    E[q_x, u], E[q_y, u] = -Kx, -Ky
    E[u, q_x], E[u, q_y] = -kappa * Kx, -kappa * Ky
    E[u, u] = -a[0] * Kx - a[1] * Ky
    if "S" in tb:
        E[u, u] += tb["S"]
    return E


@lru_cache(maxsize=None)
def _slot_face_matrices(m: int, p: int, t0: float, t1: float):
    """(W, Me) of a face slot on a face of unit length, with t0 and t1
    rounded as in MacroMesh.slot_keys.  At the Gauss points of the face
    parameter s, subordinate to both subdivisions, W = Theta^T diag(w) Psi
    couples the macro-edge traces Theta to the face trace basis Psi and
    Me = Theta^T diag(w) Theta; a face F contributes |F| times each.  Both
    bases have m segments; on the coarse side of a hanging face, the face
    covers half of the macro edge.  Read-only."""
    s, w = piecewise_quad(_face_breaks(t0, t1, m), p + 1)
    basis = trace_basis(m, p)
    theta = basis.eval(t0 + (t1 - t0) * s)
    theta_w = theta.T * w
    return _readonly(theta_w @ basis.eval(s)), _readonly(theta_w @ theta)


def assemble_macro(
    mesh: MacroMesh,
    macro: int,
    p: int,
    problem: ProblemData,
    stab: StabilizationConfig,
    quad_degree: Optional[int] = None,
) -> LocalOperators:
    """A, B and C of the macro-element with id `macro` from cached reference
    data, and its load function (R_u is computed on first use)."""
    m = mesh.m
    dofmap = _patch_dof_map(m, p)
    Q = dofmap.n_dofs
    nloc = 3 * Q
    a, kappa = problem.a, problem.kappa
    quad_degree = _quad_degree(p, stab, quad_degree)
    # the red pattern has two congruence classes of sub-cells
    tables = _sub_cell_tables(mesh.jacobians[macro], m, p, problem, stab, quad_degree)

    # volume terms: the element block of each cell's kind, one scatter-add
    kind, index = _volume_scatter(m, p)
    blocks = np.stack([_element_matrix(tables[k], a, kappa)
                       for k in ("up", "down") if k in tables])
    A = np.bincount(index.ravel(), blocks[kind].ravel(),
                    minlength=nloc * nloc).reshape(nloc, nloc)

    # boundary terms, one or two skeleton faces per macro edge; the slot's
    # [q_x | q_y | u] rows on its macro edge are en3
    slot_keys = mesh.slot_keys(macro)
    nd = m * p + 1
    nc = nd * len(slot_keys)
    B = np.zeros((nloc, nc))
    C = np.zeros((nc, nloc))
    diameter = float(mesh.diameter[macro])
    for i, (fid, (k, t0, t1)) in enumerate(zip(mesh.slot_faces[macro].tolist(), slot_keys)):
        slot = slice(i * nd, (i + 1) * nd)
        W, Me = _slot_face_matrices(m, p, t0, t1)
        v0, v1 = mesh.face_verts[fid]
        lenF = float(np.linalg.norm(v1 - v0))
        W, Me = lenF * W, lenF * Me
        nrm = mesh.normals[macro, k]
        tau = stabilization_tau(a, nrm, kappa, diameter)
        an = float(np.dot(a, nrm))
        en = dofmap.edge_nodes[k]
        en3 = np.concatenate((en, Q + en, 2 * Q + en))
        A[np.ix_(2 * Q + en, en3)] += np.hstack(
            (kappa * nrm[0] * Me, kappa * nrm[1] * Me, tau * Me))
        B[en3, slot] = np.vstack((nrm[0] * W, nrm[1] * W, (an - tau) * W))
        C[slot, en3] = np.hstack((kappa * nrm[0] * W.T, kappa * nrm[1] * W.T, tau * W.T))

    Amat = A if m <= 2 else sp.csr_matrix(A)
    load = partial(load_vectors, mesh, p=p, problem=problem, tables=tables, B=B,
                   quad_degree=quad_degree)
    return LocalOperators(A=Amat, B=B, C=C, macro=macro, load=load)


def face_operators(mesh: MacroMesh, p: int, problem: ProblemData) -> FaceBlocks:
    """D and R_hat of every unknown (not Dirichlet) face in one vectorized
    pass: c_F, the sum over the sides of (a.n - tau), from the stacked macro
    normals and diameters, and D_F = c_F |F| trace_mass.  R_hat is zero
    except on Neumann faces, where it is g_N, from one call over the points
    of all of them, tested with the face trace basis."""
    ids = np.flatnonzero(mesh.face_tag != "D")
    # edge records of the sides, face by face: left, then right if any
    sides = np.stack((mesh.face_left[ids], mesh.face_right[ids]), axis=1).ravel()
    at = np.repeat(np.arange(ids.size), 2)[sides >= 0]
    sides = sides[sides >= 0]
    an = mesh.normals.reshape(-1, 2)[sides] @ problem.a
    tau = np.abs(an) + problem.kappa / mesh.diameter[sides // 3]
    if not (tau > 0).all():
        raise ValueError("nonpositive stabilization parameter")
    verts = mesh.face_verts[ids]
    length = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)
    scale = np.bincount(at, an - tau, minlength=ids.size) * length
    D = scale[:, None, None] * trace_mass(mesh.m, p)
    R_hat = np.zeros(D.shape[:2])
    neumann = np.flatnonzero(mesh.face_tag[ids] == "N")
    if neumann.size:
        if problem.g_N is None:
            raise ValueError("Neumann face present but g_N not provided")
        s, w, V = trace_quadrature(mesh.m, p, _boundary_npts(p))
        x = _face_points(verts[neumann], s)
        g = np.asarray(problem.g_N(x.reshape(-1, 2)), dtype=float).reshape(x.shape[:2])
        # one matrix-vector product per face, so that a face's R_hat does
        # not depend on how many Neumann faces there are
        R_hat[neumann] = (V.T @ (w * length[neumann, None] * g)[:, :, None])[..., 0]
    return FaceBlocks(ids, D, R_hat)
