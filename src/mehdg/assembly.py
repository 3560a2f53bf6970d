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
reference data, and all classes are assembled in one batched pass.  The
sub-cell tables of the two red-pattern sub-cell kinds (mass, stiffness,
advection and, under SUPG, the streamline block) come for all classes from
their stacked Jacobians.  Every term of A goes in by one bincount over an
index cached per (m, p), offset per class: the element blocks of all
sub-cells, then the boundary terms, which come from each face slot's
reference matrices W and Me, cached per (m, p, t0, t1) and scaled by the
face length; B and C of all (class, slot) pairs are written at once.  A is
dense up to m = 4 and CSR above, built from the summed entries of its
pattern.  Each face slot, in the order of the mesh's slot_faces, owns
m p + 1 columns of B.  R_u of all macros is one batched quadrature with
these tables, and the Dirichlet lifting is one call of g_D and one cached
projection.

Face blocks D come from the jump of (a.n - tau) vhat over the (one or two)
sides of each skeleton face; D_F = c_F |F| M_ref, so the blocks of all
unknown faces are one (faces, m p + 1, m p + 1) array from one vectorized
pass, and R_hat of the Neumann faces comes from one call of g_N over all
their points.  Everything here reads the mesh's arrays only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .fem_basis import (
    _readonly,
    patch_dof_map,
    piecewise_quad,
    reference_tables,
    trace_basis,
    trace_mass,
    trace_projection,
    trace_quadrature,
)
from .mesh import (
    _ROUND,
    MacroMesh,
    _row_runs,
    sub_cell_jacobians,
    sub_cell_quadrature,
    sub_cells,
)


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


# Largest m whose local A is stored dense; above it A is a csr_matrix
_DENSE_MAX_M = 4
# Most terms of A that one bincount sums (about 2 MiB of positions and
# values): classes go in groups of this size, so that memory does not grow
# with the class count
_SCATTER_ENTRIES = 1 << 17


@dataclass
class LocalOperators:
    """A, B and C shared by the congruent macros `macro_ids`, built from the
    geometry of macro_ids[0], and their loads: row r of R_u belongs to macro
    macro_ids[r]."""

    A: object  # dense ndarray (m <= 4) or csr_matrix (m > 4)
    B: np.ndarray  # B columns / C rows: m p + 1 per face slot
    C: np.ndarray
    macro_ids: np.ndarray  # (n_macros,)
    R_u: np.ndarray  # (n_macros, nloc)


class FaceBlocks(NamedTuple):
    """D and R_hat of the unknown (not Dirichlet) faces, in skeleton order."""

    ids: np.ndarray  # (faces,) skeleton face ids
    D: np.ndarray  # (faces, nd, nd), nd = m p + 1
    R_hat: np.ndarray  # (faces, nd)


def stabilization_tau(a: np.ndarray, normal, kappa: float, ell):
    """Flux stabilization tau = |a.n| + kappa/ell, constant per face side;
    elementwise over the normals (..., 2) and the lengths ell."""
    tau = np.abs(np.asarray(normal) @ a) + kappa / np.asarray(ell)
    if not np.all(tau > 0):
        raise ValueError("nonpositive stabilization parameter")
    return tau


def supg_parameter(h, a: np.ndarray, kappa: float, variant: str = "classical-minus"):
    """Streamline stabilization parameter from the element Peclet number
    Pe = |a| h / (2 kappa), elementwise over h."""
    h = np.asarray(h, dtype=float)
    anorm = float(np.linalg.norm(a))
    if anorm == 0.0:
        return np.zeros_like(h)
    pe = anorm * h / (2.0 * kappa)
    sign = -1.0 if variant == "classical-minus" else 1.0
    large, small = pe > 30.0, pe < 1e-4
    mid = ~(large | small)
    g = np.empty_like(pe)
    g[large] = 1.0 + sign / pe[large]
    # coth x - 1/x = x/3 - x^3/45 + ...; coth x + 1/x = 2/x + x/3 - ...
    x = pe[small]
    g[small] = x / 3.0 - x**3 / 45.0 + (2.0 / x if sign > 0 else 0.0)
    g[mid] = 1.0 / np.tanh(pe[mid]) + sign / pe[mid]
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


def _sub_cell_tables(jacobians: np.ndarray, m: int, p: int, problem: ProblemData,
                     stab: StabilizationConfig, quad_degree: int) -> dict:
    """Per red-pattern sub-cell class ("up", "down") of the macros with the
    stacked affine Jacobians (n, 2, 2), each with a leading macro axis: the
    quadrature weights "wd" (n, nq), the mass block "M" (n, nb, nb), the
    stiffness blocks "K" (n, 2, nb, nb), the SUPG block "S" with its own
    tau_s per macro, and the test functions of the load "test" (n, nq, nb):
    the basis, plus the streamline term under SUPG.

    The sub-cell maps are affine, so each block is a reference product
    scaled by |det J| and contracted with J^-1: K[c] = |det J|
    sum_k Kref[k] J^-1[k, c] with Kref[k] = sum_q w (d gref / d xi_k) val^T,
    for all classes and both kinds in one GEMM; under SUPG the streamline
    derivatives gref J^-1 a and the Laplacians href : J^-1 J^-T are one GEMM
    each."""
    rule, val, gref, href = reference_tables(p, quad_degree)
    nq, nb = val.shape
    a, kappa = problem.a, problem.kappa
    geo = sub_cell_jacobians(jacobians, m)
    jinv = np.concatenate([q.jinv for q in geo.values()])  # (kinds n, 2, 2)
    det = np.concatenate([q.det for q in geo.values()])
    kn = len(det)
    wval = rule.weights[:, None] * val
    M = det[:, None, None] * (val.T @ wval)
    kref = np.tensordot(gref, wval, axes=(0, 0)).transpose(0, 2, 1)  # (nb, nb, 2)
    K = (kref.reshape(-1, 2) @ jinv.transpose(1, 0, 2).reshape(2, -1)).reshape(nb, nb, kn, 2)
    K = det[:, None, None, None] * K.transpose(2, 3, 0, 1)
    wd = rule.weights * det[:, None]
    tb = dict(wd=wd, M=M, K=K, test=np.broadcast_to(val, (kn, nq, nb)))
    if stab.supg:
        advg = np.moveaxis((gref.reshape(-1, 2) @ (jinv @ a).T).reshape(nq, nb, kn), 2, 0)
        metric = jinv @ jinv.swapaxes(1, 2)
        lap = np.moveaxis((href.reshape(-1, 4) @ metric.reshape(kn, 4).T).reshape(nq, nb, kn),
                          2, 0)
        Jc = np.concatenate([q.jac for q in geo.values()])
        edges = np.stack((Jc[..., 0], Jc[..., 1], Jc[..., 1] - Jc[..., 0]), axis=1)
        h = np.linalg.norm(edges, axis=-1).max(axis=1)
        # length h / p: tau_s must stay below h^2 / (kappa C_inv^2), and the
        # inverse-estimate constant C_inv grows like p^2 (Franca, Frey &
        # Hughes, CMAME 95, 1992; Houston, Schwab & Suli, SINUM 37, 2000)
        ts = supg_parameter(h / p, a, kappa, stab.supg_variant)[:, None, None]
        tb["S"] = ts * (advg * wd[..., None]).swapaxes(1, 2) @ (advg - kappa * lap)
        tb["test"] = val + ts * advg
    n = len(jacobians)
    return {kind: {key: arr[i * n:(i + 1) * n] for key, arr in tb.items()}
            for i, kind in enumerate(geo)}


def _finite(values, name: str) -> np.ndarray:
    """`values` as a float array; a ValueError naming the callable `name`
    that returned them if any is NaN or infinite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} returned non-finite values")
    return values


def _boundary_npts(p: int) -> int:
    """Gauss points per trace segment for boundary data (g_D and g_N)."""
    return max(p + 2, 6)


def _face_points(verts: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(..., ns, 2) points at the parameters s of faces whose vertices are
    given as a (..., 2, 2) array."""
    v0 = verts[..., None, 0, :]
    return v0 + s[:, None] * (verts[..., None, 1, :] - v0)


def project_dirichlet(verts: np.ndarray, g: Callable, m: int, p: int) -> np.ndarray:
    """(..., m p + 1) L2-projections of Dirichlet data g onto the face trace
    space of a mesh of the given m, on the faces with the vertices
    (..., 2, 2): one call of g over the points of all of them.  A NaN or
    infinite value of g raises a ValueError that names g_D."""
    npts = _boundary_npts(p)
    x = _face_points(np.asarray(verts, dtype=float), trace_quadrature(m, p, npts)[0])
    gx = _finite(g(x.reshape(-1, 2)), "g_D").reshape(x.shape[:-1])
    return gx @ trace_projection(m, p, npts).T


class _Scatter(NamedTuple):
    """Where the terms of A go at (m, p), as positions in the stored A: all
    (3Q)^2 entries row-major when A is dense, else the entries of
    `pattern`."""

    kind: np.ndarray  # (cells,) per sub-cell in sub_cells order: 0 "up", 1 "down"
    volume: np.ndarray  # (cells, (3nb)^2) its [q_x | q_y | u] element block, row-major
    # (3, nd, 3nd) per local edge: its boundary block, rows u and columns
    # [q_x | q_y | u] at the edge nodes
    face: np.ndarray
    en3: np.ndarray  # (3, 3nd) per local edge: the q_x, q_y and u rows at its nodes
    # sparse A (m > _DENSE_MAX_M): the sorted flat indices into (3Q, 3Q) that
    # the terms reach, row-major like CSR; None when A is dense
    pattern: Optional[np.ndarray]


@lru_cache(maxsize=None)
def _a_scatter(m: int, p: int) -> _Scatter:
    """The _Scatter of (m, p).  Read-only."""
    dofmap = patch_dof_map(m, p)
    Q = dofmap.n_dofs
    nloc = 3 * Q
    rows = np.concatenate([dofmap.cell_maps + c * Q for c in range(3)], axis=1)
    volume = (rows[:, :, None] * nloc + rows[:, None, :]).reshape(len(rows), -1)
    en = dofmap.edge_nodes
    en3 = np.concatenate((en, Q + en, 2 * Q + en), axis=1)
    face = (2 * Q + en)[:, :, None] * nloc + en3[:, None, :]
    kind = np.array([cell[0] == "down" for cell in sub_cells(m)], dtype=np.intp)
    pattern = None
    if m > _DENSE_MAX_M:
        pattern = np.unique(np.concatenate((volume.ravel(), face.ravel())))
        volume, face = np.searchsorted(pattern, volume), np.searchsorted(pattern, face)
        pattern = _readonly(pattern)
    return _Scatter(_readonly(kind), _readonly(volume), _readonly(face), _readonly(en3),
                    pattern)


def _element_matrices(tb: dict, a: np.ndarray, kappa: float) -> np.ndarray:
    """(n, 3nb, 3nb) [q_x | q_y | u] volume blocks of one sub-cell kind of
    the n macros of the tables `tb`."""
    M, Kx, Ky = tb["M"], tb["K"][:, 0], tb["K"][:, 1]
    n, nb = M.shape[:2]
    q_x, q_y, u = slice(0, nb), slice(nb, 2 * nb), slice(2 * nb, 3 * nb)
    E = np.zeros((n, 3 * nb, 3 * nb))
    E[:, q_x, q_x] = E[:, q_y, q_y] = M
    E[:, q_x, u], E[:, q_y, u] = -Kx, -Ky
    E[:, u, q_x], E[:, u, q_y] = -kappa * Kx, -kappa * Ky
    E[:, u, u] = -a[0] * Kx - a[1] * Ky
    if "S" in tb:
        E[:, u, u] += tb["S"]
    return E


@lru_cache(maxsize=None)
def _slot_face_matrices(m: int, p: int, t0: float, t1: float):
    """(W, Me) of a face slot on a face of unit length, with t0 and t1
    rounded to _ROUND digits.  At the Gauss points of the face
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


def _volume_load(mesh: MacroMesh, ids: np.ndarray, label: np.ndarray, p: int,
                 problem: ProblemData, supg: bool, tables: dict,
                 quad_degree: int) -> np.ndarray:
    """(len(ids), nloc) volume part of R_u of the macros `ids`, the macro
    ids[i] with the sub-cell tables of row label[i]: one batched quadrature,
    with one call of f per sub-cell kind over the cells of all the macros.
    The cell loads are f w tested by one GEMM with the basis values, or
    under SUPG by a batched product with the per-macro test functions, and
    go into R_u by one bincount, offset per macro."""
    dofmap = patch_dof_map(mesh.m, p)
    nloc = 3 * dofmap.n_dofs
    rule, val = reference_tables(p, quad_degree)[:2]
    quad = sub_cell_quadrature(mesh.jacobians[ids], mesh.verts[ids, 0], mesh.m, rule.points_ref)
    pos, loads = [], []
    for kind, q in quad.items():
        tb = tables[kind]
        fw = (_finite(problem.f(q.points.reshape(-1, 2)), "f").reshape(q.points.shape[:3])
              * tb["wd"][label, None])
        if supg:
            loads.append(fw @ tb["test"][label])
        else:
            loads.append(fw.reshape(-1, fw.shape[-1]) @ val)
        pos.append(np.arange(ids.size)[:, None, None] * nloc + 2 * dofmap.n_dofs
                   + dofmap.cell_maps[q.cells])
    pos = np.concatenate([x.ravel() for x in pos])
    loads = np.concatenate([x.ravel() for x in loads])
    return np.bincount(pos, loads, minlength=ids.size * nloc).reshape(ids.size, nloc)


def assemble_classes(
    mesh: MacroMesh,
    classes: list,
    p: int,
    problem: ProblemData,
    stab: StabilizationConfig,
    quad_degree: Optional[int] = None,
) -> list:
    """LocalOperators of each class, an array of congruent macro ids, in one
    batched pass over all classes: A, B and C from the geometry of each
    class's first macro, and R_u of every macro.

    The sub-cell tables of all the first macros come from one
    sub_cell_jacobians call.  Every term of A (the element blocks of all
    sub-cells, then the boundary blocks slot by slot) goes in by one
    bincount, offset per class, for each group of classes with at most
    _SCATTER_ENTRIES volume terms; a sparse A gets its CSR straight from the
    summed entries of its pattern.  B, C and the boundary terms are formed
    for all (class, face slot) pairs at once, from the cached slot matrices
    scaled by the face lengths.  R_u is one quadrature over all macros, with
    one call of f per sub-cell kind, minus the Dirichlet lifting: one call of
    g_D over the Dirichlet slots of all macros, projected, times B."""
    m = mesh.m
    nloc, nd = 3 * patch_dof_map(m, p).n_dofs, m * p + 1
    a, kappa = problem.a, problem.kappa
    quad_degree = _quad_degree(p, stab, quad_degree)
    reps = np.array([ids[0] for ids in classes], dtype=np.intp)
    n = reps.size
    tables = _sub_cell_tables(mesh.jacobians[reps], m, p, problem, stab, quad_degree)
    scatter = _a_scatter(m, p)
    # first, while A, B and C are not yet stored: the quadrature's points
    # are the largest temporary
    ids = np.concatenate(classes)
    label = np.repeat(np.arange(n), [len(c) for c in classes])
    R = _volume_load(mesh, ids, label, p, problem, stab.supg, tables, quad_degree)

    # (class, slot) pairs, class by class and slot by slot; a slot's
    # [q_x | q_y | u] rows on its macro edge are en3
    pair_of = np.full(mesh.slot_faces[reps].shape, -1)
    owner, slot = np.nonzero(mesh.slot_faces[reps] >= 0)
    pair_of[owner, slot] = np.arange(owner.size)
    rep = reps[owner]
    k = mesh.slot_table[rep, slot, 0].astype(np.intp)
    en3 = scatter.en3[k]
    # the distinct (t0, t1) of the pairs, and which one each pair has
    t01 = mesh.slot_table[rep, slot, 1:]
    order, new = _row_runs(t01)
    which = np.empty(len(order), dtype=np.intp)
    which[order] = np.cumsum(new) - 1
    keys = t01[order[new]]
    W, Me = (np.stack(mats)[which] for mats in zip(*(
        _slot_face_matrices(m, p, round(t0, _ROUND), round(t1, _ROUND))
        for t0, t1 in keys.tolist())))
    verts = mesh.face_verts[mesh.slot_faces[rep, slot]]
    length = np.linalg.norm(verts[:, 1] - verts[:, 0], axis=1)[:, None, None]
    W, Me = length * W, length * Me
    nrm = mesh.normals[rep, k]
    tau = stabilization_tau(a, nrm, kappa, mesh.diameter[rep])[:, None, None]
    an = (nrm @ a)[:, None, None]
    nx, ny = nrm[:, 0, None, None], nrm[:, 1, None, None]
    face_A = np.concatenate((kappa * nx * Me, kappa * ny * Me, tau * Me), axis=2)
    face_B = np.concatenate((nx * W, ny * W, (an - tau) * W), axis=1)

    # A: each class's volume terms, then its boundary terms in slot order,
    # summed by one bincount per group of classes
    blocks = np.stack([_element_matrices(tables[kind], a, kappa)
                       for kind in ("up", "down") if kind in tables], axis=1)
    size = nloc * nloc if scatter.pattern is None else scatter.pattern.size
    if scatter.pattern is not None:
        rows, cols = np.divmod(scatter.pattern, nloc)
    group = max(1, _SCATTER_ENTRIES // scatter.volume.size)
    A = []
    for lo in range(0, n, group):
        hi = min(lo + group, n)
        sel = (owner >= lo) & (owner < hi)
        pos = np.concatenate(((np.arange(hi - lo)[:, None, None] * size + scatter.volume).ravel(),
                              ((owner[sel] - lo)[:, None, None] * size
                               + scatter.face[k[sel]]).ravel()))
        vals = np.concatenate((blocks[lo:hi, scatter.kind].ravel(), face_A[sel].ravel()))
        summed = np.bincount(pos, vals, minlength=(hi - lo) * size).reshape(hi - lo, size)
        if scatter.pattern is None:
            A.extend(summed.reshape(-1, nloc, nloc))
        else:
            A.extend(sp.csr_matrix((e[e != 0], (rows[e != 0], cols[e != 0])),
                                   shape=(nloc, nloc)) for e in summed)

    # B (nloc, ncol) and C (ncol, nloc) of the classes, one after another in
    # one buffer each
    ncol = nd * np.bincount(owner, minlength=n)
    start = np.concatenate(([0], np.cumsum(nloc * ncol)))
    base = start[owner, None, None]
    col = slot[:, None] * nd + np.arange(nd)
    B = np.zeros(start[-1])
    C = np.zeros(start[-1])
    B[base + en3[:, :, None] * ncol[owner, None, None] + col[:, None, :]] = face_B
    Wt = W.swapaxes(1, 2)
    C[base + col[:, :, None] * nloc + en3[:, None, :]] = np.concatenate(
        (kappa * nx * Wt, kappa * ny * Wt, tau * Wt), axis=2)

    # Dirichlet data enters through trace elimination: the projected g_D of
    # each Dirichlet slot of a macro times that slot's columns of B
    face_ids = mesh.slot_faces[ids]
    row, dslot = np.nonzero((face_ids >= 0) & (mesh.face_tag[face_ids] == "D"))
    if row.size:
        G = project_dirichlet(mesh.face_verts[face_ids[row, dslot]], problem.g_D, m, p)
        pair = pair_of[label[row], dslot]
        np.subtract.at(R, (row[:, None], en3[pair]), (face_B[pair] @ G[:, :, None])[..., 0])
    R_u = np.split(R, np.cumsum([len(c) for c in classes])[:-1])

    return [LocalOperators(A=A[i], B=B[start[i]:start[i + 1]].reshape(nloc, -1),
                           C=C[start[i]:start[i + 1]].reshape(-1, nloc),
                           macro_ids=np.asarray(classes[i]), R_u=R_u[i])
            for i in range(n)]


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
    nrm = mesh.normals.reshape(-1, 2)[sides]
    tau = stabilization_tau(problem.a, nrm, problem.kappa, mesh.diameter[sides // 3])
    an = nrm @ problem.a
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
        g = _finite(problem.g_N(x.reshape(-1, 2)), "g_N").reshape(x.shape[:2])
        # one matrix-vector product per face, so that a face's R_hat does
        # not depend on how many Neumann faces there are
        R_hat[neumann] = (V.T @ (w * length[neumann, None] * g)[:, :, None])[..., 0]
    return FaceBlocks(ids, D, R_hat)
