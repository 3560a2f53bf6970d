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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .fem_basis import (
    LagrangeBasis,
    TraceBasis,
    build_patch_dof_map,
    quadrature_rule,
)
from .mesh import EDGE_VERTS, MacroElement, MacroMesh, SkeletonFace, sub_cells, sub_cell_ref_verts


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
    macro_id: int
    A: object  # dense ndarray (m <= 2) or csr_matrix (m > 2)
    B: np.ndarray
    C: np.ndarray
    R_u: np.ndarray
    face_slots: list  # [(face id, slice into B columns / C rows)]
    storage: str  # 'dense' | 'sparse'
    lu = None  # set by the solver


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


def _gauss01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _piecewise_quad(breaks: np.ndarray, npts: int):
    """Gauss points/weights on [0,1] subordinate to the given breakpoints."""
    x, w = _gauss01(npts)
    pts, wts = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo < 1e-14:
            continue
        pts.append(lo + (hi - lo) * x)
        wts.append((hi - lo) * w)
    return np.concatenate(pts), np.concatenate(wts)


def _face_breaks(face: SkeletonFace, side, m: int) -> np.ndarray:
    """Breakpoints in the face parameter s from both the trace subdivision and
    the macro-side edge subdivision."""
    breaks = set(np.arange(face.m_f + 1) / face.m_f)
    dt = side.t1 - side.t0
    for c in range(m + 1):
        s = (c / m - side.t0) / dt
        if 1e-12 < s < 1 - 1e-12:
            breaks.add(round(s, 12))
    return np.array(sorted(breaks))


def _side_of(face: SkeletonFace, macro_id: int):
    for side in face.sides():
        if side.macro == macro_id:
            return side
    raise KeyError(macro_id)


def project_dirichlet(face: SkeletonFace, g: Callable, p: int) -> np.ndarray:
    """L2-projection of boundary data onto the face trace space."""
    psi = TraceBasis(face.m_f, p)
    s, w = _piecewise_quad(psi.breakpoints, max(p + 2, 6))
    V = psi.eval(s)
    x = face.verts[0][None, :] + s[:, None] * (face.verts[1] - face.verts[0])[None, :]
    M = V.T @ (w[:, None] * V)
    r = V.T @ (w * np.asarray(g(x), dtype=float))
    try:
        return np.linalg.solve(M, r)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular face mass matrix on face {face.id}") from exc


def macro_tau(macro: MacroElement, edge: int, problem: ProblemData) -> float:
    amap = macro.affine_map()
    return stabilization_tau(problem.a, amap.normals[edge], problem.kappa,
                             macro.diameter)


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

    if quad_degree is None:
        quad_degree = 2 * p + 2 if stab.supg else 2 * p + 1
    rule = quadrature_rule(2, quad_degree)
    basis = LagrangeBasis(2, p)
    val = basis.eval(rule.points_ref)
    gref = basis.grad(rule.points_ref)
    href = basis.hess(rule.points_ref)

    A = np.zeros((nloc, nloc))
    Ru = np.zeros(nloc)

    # the red pattern has two congruence classes of sub-cells
    class_tables = {}
    for kind, jsub in (
        ("up", np.array([[1.0, 0.0], [0.0, 1.0]]) / m),
        ("down", np.array([[0.0, -1.0], [1.0, 1.0]]) / m),
    ):
        Jc = amap.matrix @ jsub
        detc = abs(float(np.linalg.det(Jc)))
        Jinv = np.linalg.inv(Jc)
        gph = gref @ Jinv  # (nq, nb, 2) physical gradients
        wd = rule.weights * detc
        M = val.T @ (wd[:, None] * val)
        K = [(gph[:, :, c] * wd[:, None]).T @ val for c in range(2)]
        tables = dict(M=M, K=K, gph=gph, wd=wd, Jc=Jc)
        if stab.supg:
            lap = np.einsum("ja,qbjk,ka->qb", Jinv, href, Jinv)
            edges = [Jc[:, 0], Jc[:, 1], Jc[:, 1] - Jc[:, 0]]
            h = max(float(np.linalg.norm(e)) for e in edges)
            ts = supg_parameter(h, a, kappa, stab.supg_variant)
            advg = gph @ a  # (nq, nb)
            S = ts * (advg * wd[:, None]).T @ (advg - kappa * lap)
            tables.update(S=S, advg=advg, ts=ts)
        class_tables[kind] = tables

    for cell_idx, (kind, i, j) in enumerate(sub_cells(m)):
        tb = class_tables[kind]
        cm = dofmap.cell_maps[cell_idx]
        v0 = amap.to_physical(sub_cell_ref_verts(kind, i, j, m)[0:1])[0]
        pts = rule.points_ref @ tb["Jc"].T + v0
        fvals = np.asarray(problem.f(pts), dtype=float)

        ix_u = off[2] + cm
        A[np.ix_(off[0] + cm, off[0] + cm)] += tb["M"]
        A[np.ix_(off[1] + cm, off[1] + cm)] += tb["M"]
        for c in range(2):
            A[np.ix_(off[c] + cm, ix_u)] += -tb["K"][c]
            A[np.ix_(ix_u, off[c] + cm)] += -kappa * tb["K"][c]
            A[np.ix_(ix_u, ix_u)] += -a[c] * tb["K"][c]
        Ru[ix_u] += val.T @ (tb["wd"] * fvals)
        if stab.supg:
            A[np.ix_(ix_u, ix_u)] += tb["S"]
            Ru[ix_u] += tb["ts"] * tb["advg"].T @ (tb["wd"] * fvals)

    # boundary contributions, one or two skeleton faces per macro edge
    theta = TraceBasis(m, p)
    face_ids = [fid for k in range(3) for fid in macro.faces[k]]
    slot_sizes = [mesh.skeleton[fid].m_f * p + 1 for fid in face_ids]
    nc = int(sum(slot_sizes))
    B = np.zeros((nloc, nc))
    C = np.zeros((nc, nloc))
    face_slots = []
    pos = 0
    for fid, nd in zip(face_ids, slot_sizes):
        face_slots.append((fid, slice(pos, pos + nd)))
        pos += nd

    for (fid, slot) in face_slots:
        face = mesh.skeleton[fid]
        side = _side_of(face, macro.id)
        k = side.edge
        nrm = amap.normals[k]
        tau = stabilization_tau(a, nrm, kappa, macro.diameter)
        an = float(np.dot(a, nrm))
        lenF = face.length
        psi = TraceBasis(face.m_f, p)
        s, w = _piecewise_quad(_face_breaks(face, side, m), p + 1)
        t = side.t0 + (side.t1 - side.t0) * s
        TH = theta.eval(t)  # macro edge-node traces
        PS = psi.eval(s)
        wl = w * lenF
        W = TH.T @ (wl[:, None] * PS)  # (m*p+1, nd)
        Me = TH.T @ (wl[:, None] * TH)
        en = dofmap.edge_nodes[k]
        ix_u = off[2] + en
        for c in range(2):
            A[np.ix_(ix_u, off[c] + en)] += kappa * nrm[c] * Me
            B[np.ix_(off[c] + en, np.arange(slot.start, slot.stop))] += nrm[c] * W
            C[np.ix_(np.arange(slot.start, slot.stop), off[c] + en)] += kappa * nrm[c] * W.T
        A[np.ix_(ix_u, ix_u)] += tau * Me
        B[np.ix_(ix_u, np.arange(slot.start, slot.stop))] += (an - tau) * W
        C[np.ix_(np.arange(slot.start, slot.stop), ix_u)] += tau * W.T

    # Dirichlet data enters through trace elimination
    for (fid, slot) in face_slots:
        face = mesh.skeleton[fid]
        if face.tag == "D":
            ghat = project_dirichlet(face, problem.g_D, p)
            Ru -= B[:, slot] @ ghat

    storage = "dense" if m <= 2 else "sparse"
    Amat = A if storage == "dense" else sp.csr_matrix(A)
    return LocalOperators(
        macro_id=macro.id, A=Amat, B=B, C=C, R_u=Ru,
        face_slots=face_slots, storage=storage,
    )


def assemble_face(
    mesh: MacroMesh, face: SkeletonFace, p: int,
    problem: ProblemData, stab: StabilizationConfig,
) -> FaceOperator:
    """Assemble the face block D and its right-hand side segment."""
    psi = TraceBasis(face.m_f, p)
    s, w = _piecewise_quad(psi.breakpoints, p + 1)
    PS = psi.eval(s)
    wl = w * face.length
    Mface = PS.T @ (wl[:, None] * PS)
    coef = 0.0
    for side in face.sides():
        macro = mesh.macro_elements[side.macro]
        nrm = macro.affine_map().normals[side.edge]
        tau = stabilization_tau(problem.a, nrm, problem.kappa, macro.diameter)
        coef += float(np.dot(problem.a, nrm)) - tau
    D = coef * Mface
    R_hat = np.zeros(psi.n_dofs)
    if face.tag == "N":
        if problem.g_N is None:
            raise ValueError("Neumann face present but g_N not provided")
        sq, wq = _piecewise_quad(psi.breakpoints, max(p + 2, 6))
        Vq = psi.eval(sq)
        x = face.verts[0][None, :] + sq[:, None] * (face.verts[1] - face.verts[0])[None, :]
        R_hat = Vq.T @ (wq * face.length * np.asarray(problem.g_N(x), dtype=float))
    return FaceOperator(face_id=face.id, D=D, R_hat=R_hat, tag=face.tag)
