"""Assembly of the hybridized DG blocks.

Per macro-element the block system couples the local mixed unknowns
U = (q_x, q_y, u) on the C0 patch space to the trace unknowns on the macro's
skeleton faces:

    a(U, V) = (q, v) - (u, div v) - (a u + kappa q, grad w)
              + <kappa q.n + tau u, w>_{boundary}
    b(vhat, V) = <vhat, v.n> + <(a.n - tau) vhat, w>
    c(U, muhat) = <kappa q.n + tau u, muhat>   (this macro's side of the jump)

Face blocks D come from the jump of (a.n - tau) vhat over the (one or two)
sides of each skeleton face.  The local dof layout is [q_x | q_y | u], each of
patch size Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .fem_basis import (
    build_patch_dof_map,
    piecewise_quad,
    reference_tables,
    trace_basis,
    trace_mass,
    trace_quadrature,
)
from .mesh import MacroElement, MacroMesh, SkeletonFace, sub_cell_quadrature, sub_cells


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
        self.a = np.asarray(self.a, dtype=float)
        if self.a.shape != (2,) or not np.isfinite(self.a).all():
            raise ValueError("advection velocity a must be two finite numbers")
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
    A: object  # dense ndarray (m <= 2) or csr_matrix (m > 2)
    B: np.ndarray
    C: np.ndarray
    R_u: np.ndarray
    face_slots: list  # [(face id, slice into B columns / C rows)]


@dataclass
class FaceOperator:
    face_id: int
    D: np.ndarray
    R_hat: np.ndarray
    tag: str


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


def _face_breaks(face: SkeletonFace, side, m: int) -> np.ndarray:
    """Breakpoints in the face parameter s from both the trace subdivision and
    the macro-side edge subdivision; points within 1e-12 of each other are one
    breakpoint, so rounding leaves no sliver intervals."""
    breaks = list(np.arange(face.m_f + 1) / face.m_f)
    dt = side.t1 - side.t0
    for c in range(m + 1):
        s = (c / m - side.t0) / dt
        if 0.0 < s < 1.0 and min(abs(s - b) for b in breaks) > 1e-12:
            breaks.append(s)
    return np.array(sorted(breaks))


def _side_of(face: SkeletonFace, macro_id: int):
    for side in face.sides():
        if side.macro == macro_id:
            return side
    raise KeyError(macro_id)


def _face_slots(mesh: MacroMesh, macro: MacroElement, p: int) -> list:
    """[(face id, slice of B columns / C rows)] over the macro's faces, edge
    by edge and along each edge."""
    slots, pos = [], 0
    for k in range(3):
        for fid in macro.faces[k]:
            nd = mesh.skeleton[fid].m_f * p + 1
            slots.append((fid, slice(pos, pos + nd)))
            pos += nd
    return slots


def _quad_degree(p: int, stab: StabilizationConfig, quad_degree: Optional[int]) -> int:
    if quad_degree is not None:
        return quad_degree
    return 2 * p + 2 if stab.supg else 2 * p + 1


def _sub_cell_tables(macro: MacroElement, p: int, problem: ProblemData,
                     stab: StabilizationConfig, quad_degree: int) -> dict:
    """Per red-pattern sub-cell class ("up", "down"): quadrature weights, the
    mass and stiffness blocks, the SUPG block, and the test functions of the
    load (the basis, plus the streamline term under SUPG)."""
    rule, val, gref, href = reference_tables(p, quad_degree)
    a, kappa = problem.a, problem.kappa
    tables = {}
    for kind, q in sub_cell_quadrature([macro], rule.points_ref).items():
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


def project_dirichlet(face: SkeletonFace, g: Callable, p: int) -> np.ndarray:
    """L2-projection of boundary data onto the face trace space."""
    s, w, V = trace_quadrature(face.m_f, p, max(p + 2, 6))
    x = face.verts[0][None, :] + s[:, None] * (face.verts[1] - face.verts[0])[None, :]
    r = V.T @ (w * np.asarray(g(x), dtype=float))
    return np.linalg.solve(trace_mass(face.m_f, p), r)


def load_vectors(
    mesh: MacroMesh,
    macros: list,
    p: int,
    problem: ProblemData,
    stab: StabilizationConfig,
    B: np.ndarray,
    quad_degree: Optional[int] = None,
) -> np.ndarray:
    """R_u of each of the congruent `macros`, stacked (len(macros), nloc), by
    one batched quadrature: one call of f per sub-cell kind over all their
    cells, with the SUPG term, then Dirichlet lifting through their shared B."""
    rep = macros[0]
    quad_degree = _quad_degree(p, stab, quad_degree)
    rule = reference_tables(p, quad_degree)[0]
    tables = _sub_cell_tables(rep, p, problem, stab, quad_degree)
    dofmap = build_patch_dof_map(rep, p)
    Q = dofmap.n_dofs
    R = np.zeros((len(macros), 3 * Q))
    for kind, q in sub_cell_quadrature(macros, rule.points_ref).items():
        tb = tables[kind]
        fvals = np.asarray(problem.f(q.points.reshape(-1, 2)), dtype=float)
        load = np.einsum("ncq,qb->ncb", fvals.reshape(q.points.shape[:3]) * tb["wd"],
                         tb["test"])
        rows = 2 * Q + dofmap.cell_maps[q.cells].ravel()
        np.add.at(R.T, rows, load.reshape(len(macros), -1).T)

    # Dirichlet data enters through trace elimination
    G = np.zeros((len(macros), B.shape[1]))
    for e, macro in enumerate(macros):
        for fid, slot in _face_slots(mesh, macro, p):
            face = mesh.skeleton[fid]
            if face.tag == "D":
                G[e, slot] = project_dirichlet(face, problem.g_D, p)
    return R - G @ B.T


def assemble_macro(
    mesh: MacroMesh,
    macro: MacroElement,
    p: int,
    problem: ProblemData,
    stab: StabilizationConfig,
    quad_degree: Optional[int] = None,
) -> LocalOperators:
    """Assemble A, B, C, R_u for one macro-element."""
    m = macro.m
    dofmap = build_patch_dof_map(macro, p)
    Q = dofmap.n_dofs
    nloc = 3 * Q
    off = (0, Q, 2 * Q)  # q_x, q_y, u blocks

    amap = macro.affine_map()
    a = problem.a
    kappa = problem.kappa
    quad_degree = _quad_degree(p, stab, quad_degree)
    # the red pattern has two congruence classes of sub-cells
    tables = _sub_cell_tables(macro, p, problem, stab, quad_degree)

    A = np.zeros((nloc, nloc))
    for cm, (kind, _, _) in zip(dofmap.cell_maps, sub_cells(m)):
        tb = tables[kind]
        ix_u = off[2] + cm
        A[np.ix_(off[0] + cm, off[0] + cm)] += tb["M"]
        A[np.ix_(off[1] + cm, off[1] + cm)] += tb["M"]
        for c in range(2):
            A[np.ix_(off[c] + cm, ix_u)] += -tb["K"][c]
            A[np.ix_(ix_u, off[c] + cm)] += -kappa * tb["K"][c]
            A[np.ix_(ix_u, ix_u)] += -a[c] * tb["K"][c]
        if stab.supg:
            A[np.ix_(ix_u, ix_u)] += tb["S"]

    # boundary contributions, one or two skeleton faces per macro edge
    theta = trace_basis(m, p)
    face_slots = _face_slots(mesh, macro, p)
    nc = face_slots[-1][1].stop
    B = np.zeros((nloc, nc))
    C = np.zeros((nc, nloc))
    for (fid, slot) in face_slots:
        face = mesh.skeleton[fid]
        side = _side_of(face, macro.id)
        k = side.edge
        nrm = amap.normals[k]
        tau = stabilization_tau(a, nrm, kappa, macro.diameter)
        an = float(np.dot(a, nrm))
        lenF = face.length
        psi = trace_basis(face.m_f, p)
        s, w = piecewise_quad(_face_breaks(face, side, m), p + 1)
        t = side.t0 + (side.t1 - side.t0) * s
        TH = theta.eval(t)  # macro edge-node traces
        PS = psi.eval(s)
        wl = w * lenF
        W = TH.T @ (wl[:, None] * PS)  # (m*p+1, nd)
        Me = TH.T @ (wl[:, None] * TH)
        en = dofmap.edge_nodes[k]
        ix_u = off[2] + en
        cols = np.arange(slot.start, slot.stop)
        for c in range(2):
            A[np.ix_(ix_u, off[c] + en)] += kappa * nrm[c] * Me
            B[np.ix_(off[c] + en, cols)] += nrm[c] * W
            C[np.ix_(cols, off[c] + en)] += kappa * nrm[c] * W.T
        A[np.ix_(ix_u, ix_u)] += tau * Me
        B[np.ix_(ix_u, cols)] += (an - tau) * W
        C[np.ix_(cols, ix_u)] += tau * W.T

    R_u = load_vectors(mesh, [macro], p, problem, stab, B, quad_degree)[0]
    Amat = A if m <= 2 else sp.csr_matrix(A)
    return LocalOperators(A=Amat, B=B, C=C, R_u=R_u, face_slots=face_slots)


def assemble_face(
    mesh: MacroMesh, face: SkeletonFace, p: int,
    problem: ProblemData, stab: StabilizationConfig,
) -> FaceOperator:
    """Assemble the face block D and its right-hand side segment."""
    coef = 0.0
    for side in face.sides():
        macro = mesh.macro_elements[side.macro]
        nrm = macro.affine_map().normals[side.edge]
        tau = stabilization_tau(problem.a, nrm, problem.kappa, macro.diameter)
        coef += float(np.dot(problem.a, nrm)) - tau
    D = coef * face.length * trace_mass(face.m_f, p)
    R_hat = np.zeros(D.shape[0])
    if face.tag == "N":
        if problem.g_N is None:
            raise ValueError("Neumann face present but g_N not provided")
        sq, wq, Vq = trace_quadrature(face.m_f, p, max(p + 2, 6))
        x = face.verts[0][None, :] + sq[:, None] * (face.verts[1] - face.verts[0])[None, :]
        R_hat = Vq.T @ (wq * face.length * np.asarray(problem.g_N(x), dtype=float))
    return FaceOperator(face_id=face.id, D=D, R_hat=R_hat, tag=face.tag)
