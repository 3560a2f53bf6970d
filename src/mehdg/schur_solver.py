"""Static condensation and the global trace solve.

The block system [A B; C D][U; uhat] = [R_u; R_uhat] is reduced to
(D - C A^-1 B) uhat = R_uhat - C A^-1 R_u.  The trace vector uhat is the
(unknown faces, m p + 1) array of the face blocks, raveled: face F's block
starts at face_start[F] = rank of F among the unknown faces times m p + 1,
and D is block-diagonal in it.  Congruent macros share A, B and C (all
classes come from one batched assembly pass), so condense factors each
class's A once and solves once with [B | R_u^T]: it keeps A^-1 B, the
condensed block K = C A^-1 B and U0, every member's local solution at
uhat = 0, and drops A, B, C and R_u.  The reduced right-hand side and the
reconstruction are then gathers and GEMMs per class.  The Schur operator is
applied matrix-free (per fixed-size chunk of a class's macros, a gather of the
trace values and one GEMM with the class's K, then the face reduction D uhat
minus a fixed-order scatter of the macro outputs; nothing global is
assembled) or as an explicitly scattered sparse matrix built from the same
K.  Both share a restarted GMRES, orthogonalized by classical Gram-Schmidt
run twice, on the system left-preconditioned by face-block Jacobi: a
block-diagonal P with one nd x nd block per unknown face, one sparse
matrix, whose P_F inverts the face's diagonal block of S,
S_FF = D_F - sum K_ss over the member slots s on F (Cockburn, Dubois,
Gopalakrishnan & Tan, IMA J. Numer. Anal. 34, 2014, use it as their
smoother).  condense sums those slot-diagonal blocks of every class's K in
one bincount and inverts them once.

solve() folds P into the operator and the right-hand side instead of
handing GMRES a preconditioner: GMRES runs on P S uhat = P f.  With each
class's K_fold = K without its slot-diagonal blocks, S = P^-1 - scatter of
K_fold, so P S = I - P (scatter of K_fold).  Mode mb builds that matrix
once from the classes (one batched P_F K-rows product per member, one COO
scatter, an identity diagonal), so an iteration is one sparse product;
mode mf applies uhat - P (scatter of K_fold uhat) with the same chunked
gather, GEMM and scatter as the unpreconditioned apply, and never forms
D uhat.

Face-block Jacobi alone needs a number of iterations that grows like 1/h.
solve() adds a coarse space to it, additively as in two-level Schwarz
(Toselli & Widlund, Domain Decomposition Methods, 2005), when the mesh
Peclet number max |a| diam / (m p kappa) is at most COARSE_MAX_PECLET and
the trace has at least COARSE_MIN_TRACE_DOFS dofs: GMRES then runs on
M S uhat = M f with M = P + Pc S_c^-1 Pc^T.  The coarse space is
continuous P1 on the sub-cell vertices of the skeleton (the mesh vertices
at m = 1, the P1 space of Cockburn, Dubois, Gopalakrishnan & Tan), Pc its
prolongation into the trace and S_c = Pc^T S Pc, built from each class's
K_fold, the face blocks S_FF and the mesh arrays without S and factored
once by splu.  One application is w = P S v, the folded operator above,
followed by w + Pc S_c^-1 (Q w) with Q = Pc^T blockdiag(S_FF), since
Q P = Pc^T; the coarse code is the same in both modes.  Above the Peclet
bound (advection-dominated traces) the coarse space takes more iterations
than it saves, and solve() runs face-block Jacobi alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    FaceBlocks,
    LocalOperators,
    ProblemData,
    StabilizationConfig,
    assemble_classes,
    face_operators,
)
from .fem_basis import trace_hats
from .mesh import _EDGE_A, _EDGE_B, MacroMesh

# Macros per chunk of the matrix-free apply.  Fixed, so that the batched
# calls, and with them the results, do not depend on the worker count.  Small
# enough that a 32-macro mesh (two classes of 16) still gives each of 8
# workers a chunk, so that the load-balance factor measures the partition;
# larger chunks only pay on large meshes.
CHUNK_MACROS = 4
# Largest accepted worker count: WorkerPool keeps and visits one partition
# per worker on every call, whether or not it holds any work.
MAX_WORKERS = 1024
# When solve() adds the coarse space to face-block Jacobi (coarse_space).
# The largest mesh Peclet number max |a| diam / (m p kappa): on the grid of
# BENCH_twolevel.json (mb, tol 1e-8, tanh, meshes (n, m) = (8, 1), (4, 2),
# (4, 4), (16, 1), (8, 2), p = 1..3, SUPG off and on, 1,320 configs with
# kappa from 1e-10 to 1 and 13 steps from 0.05 to 1e-3), the coarse space
# took fewer iterations in every config below Pe = 16.3 and more in some
# from 18.6; it was faster on the largest mesh (16, 1) in 115 of the 116
# configs below 8, but in 16 of 26 from 8 to 16.  Above Pe = 47 it took
# more iterations in 411 of 454 configs: advection-dominated traces keep
# face-block Jacobi alone.
COARSE_MAX_PECLET = 8.0
# The fewest trace dofs: below, its set-up costs more than the iterations it
# saves.  192 minimized the summed solve() CPU time of the size sweep of
# BENCH_twolevel.json (72 configs, n <= 8, m = 1, 2, 4, p = 1..3, mb and
# mf, tol 1e-10, Pe < 1; 20 alternated pairs each).
COARSE_MIN_TRACE_DOFS = 192


class SingularLocalBlock(RuntimeError):
    def __str__(self):
        return f"singular local block A at macro {self.args[0]}"


class SingularFaceBlock(RuntimeError):
    def __str__(self):
        return f"singular preconditioner face block at face {self.args[0]}"


class SingularCoarseOperator(RuntimeError):
    def __str__(self):
        return f"singular coarse operator ({self.args[0]} coarse dofs)"


@dataclass
class SolverConfig:
    tol: float = 1e-6
    restart: int = 100
    maxiter: int = 10000
    mode: str = "mf"  # 'mf' | 'mb'
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        if self.mode not in ("mf", "mb"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("restart", "maxiter", "workers"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {val!r}")
            if val < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}")


class WorkerPool:
    """Static round-robin partition of independent tasks, run serially.

    Partition w holds items w, w + workers, ...; the partitions run one after
    another on the calling thread, so results never depend on the worker
    count.  Per-partition CPU time is accumulated for the load-balance factor
    (LBF), which reports how evenly the partition splits the work.  The
    partition that runs first refills the caches that the caller's work in
    between evicted; each call starts one partition later, so that this cost
    is spread evenly instead of always landing on partition 0."""

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))
        self.busy = np.zeros(self.workers)
        self._first = 0  # partition that runs first in the next call

    def map(self, fn: Callable, items) -> list:
        items = list(items)
        results = [None] * len(items)
        first, self._first = self._first, (self._first + 1) % self.workers
        for k in range(self.workers):
            w = (first + k) % self.workers
            t0 = time.thread_time()
            for i in range(w, len(items), self.workers):
                results[i] = fn(items[i])
            self.busy[w] += time.thread_time() - t0
        return results

    @property
    def lbf(self) -> float:
        mx = float(self.busy.max(initial=0.0))
        if mx == 0.0:
            return 1.0
        return float(self.busy.mean()) / mx


@dataclass
class OperatorClass(LocalOperators):
    """A congruence class's LocalOperators, the skeleton face of each slot
    of its macros and what condense adds from its one solve with A: A^-1 B,
    K = C A^-1 B, U0, the trace index of each B column and the K that the
    folded operator applies.  condense then sets A, B, C and R_u to None:
    nothing after it reads them.  Row r of `face_ids`, `trace_idx`, `R_u`
    and `U0` belongs to macro macro_ids[r]."""

    face_ids: np.ndarray  # (n_macros, n_slots) skeleton face of each slot
    AinvB: Optional[np.ndarray] = None  # (nloc, nc)
    K: Optional[np.ndarray] = None  # (nc, nc) condensed block C A^-1 B
    U0: Optional[np.ndarray] = None  # (n_macros, nloc) local solutions at uhat = 0
    # (n_macros, nc) trace dof of each B column, -1 on Dirichlet faces
    trace_idx: Optional[np.ndarray] = None
    # (nc, nc) K without its slot-diagonal blocks
    K_fold: Optional[np.ndarray] = None


def _solve_local(A, rhs: np.ndarray, macro: int) -> np.ndarray:
    """A^-1 rhs through one LU of A, dense or sparse.  A zero pivot, or one
    below 1e-13 max|A|, raises SingularLocalBlock(macro)."""
    if sp.issparse(A):
        try:
            fac = spla.splu(sp.csc_matrix(A))
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise SingularLocalBlock(macro) from exc
        pivots = fac.U.diagonal()
        amax = float(np.abs(A.data).max()) if A.nnz else 0.0
    else:
        fac = sla.lu_factor(A)
        pivots = np.diag(fac[0])
        amax = float(np.abs(A).max())
    if np.abs(pivots).min() <= 1e-13 * max(amax, 1e-300):
        raise SingularLocalBlock(macro)
    return fac.solve(rhs) if sp.issparse(A) else sla.lu_solve(fac, rhs)


def _invert_face_blocks(fids: list, blocks: np.ndarray) -> np.ndarray:
    """Batched inverses of equally sized face blocks.  A block is singular
    when its LU has a zero pivot, or when its inverse is not finite or has
    max|X_F| max|X_F^-1| >= 1e13 (a pivot below about 1e-13 max|X_F|)."""
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        sign, _ = np.linalg.slogdet(blocks)
        raise SingularFaceBlock(fids[int(np.flatnonzero(sign == 0)[0])]) from exc
    size = np.abs(inv).max(axis=(1, 2)) * np.abs(blocks).max(axis=(1, 2))
    bad = np.flatnonzero(~(size < 1e13))  # also catches nan
    if bad.size:
        raise SingularFaceBlock(fids[int(bad[0])])
    return inv


@dataclass
class CondensedSystem:
    mesh: MacroMesh
    classes: list  # OperatorClass per congruence class
    # per skeleton face: the first trace dof of its block, -1 if Dirichlet
    face_start: np.ndarray
    nd: int  # trace dofs per face, m p + 1
    zhat: int  # trace dofs, nd per unknown face
    pool: WorkerPool  # runs the chunks of the matrix-free apply
    # units of the matrix-free apply: (class, slice of its rows), class by class
    chunks: list
    D: sp.csr_matrix  # block diagonal, trace order
    # the (unknown faces, nd, nd) face-diagonal blocks S_FF of S, the
    # preconditioner's blocks S_FF^-1, both in trace order, and the latter
    # as one block-diagonal matrix
    S_blocks: np.ndarray
    P_blocks: np.ndarray
    P: sp.csr_matrix
    # step 4: trace dof of each entry of the macro outputs C A^-1 (.) in
    # class and row order, zhat (a pad slot) on Dirichlet faces
    reduce_dst: np.ndarray
    f_vec: Optional[np.ndarray] = None
    coarse: Optional[CoarseSpace] = None  # condense(coarse=True); solve() releases it
    counters: dict = field(default_factory=lambda: {"macro_apply": 0, "face_reduce": 0})

    @property
    def n_macros(self) -> int:
        return len(self.mesh.verts)

    @property
    def dof_local(self) -> int:
        return int(sum(cls.U0.size for cls in self.classes))


def condense(
    mesh: MacroMesh,
    classes: list,
    faces: FaceBlocks,
    config: SolverConfig,
    coarse: bool = False,
) -> CondensedSystem:
    """Per class, one solve with A for A^-1 B and U0, K = C A^-1 B and
    K_fold; index the B columns into the trace vector, build D, the
    preconditioner's inverse face blocks and the reduced right-hand side
    f = R_uhat - C A^-1 R_u, and with `coarse` the coarse space.  A, B, C
    and R_u are released at the end."""
    nf, nd = faces.R_hat.shape
    zhat = nf * nd
    face_start = np.full(len(mesh.face_tag), -1, dtype=np.int64)
    face_start[faces.ids] = np.arange(nf) * nd

    # dst: the trace dof of each entry of the macro outputs, which come class
    # by class (the chunks keep that order): the classes' trace_idx, row-major
    chunks, dst, rhs_out = [], [], []
    for cls in classes:
        nc = cls.B.shape[1]
        X = _solve_local(cls.A, np.hstack([cls.B, cls.R_u.T]), int(cls.macro_ids[0]))
        cls.AinvB, cls.U0 = X[:, :nc], X[:, nc:].T
        cls.K = cls.C @ cls.AinvB
        cls.K_fold = cls.K.copy()
        _slot_diagonal(cls.K_fold, nd)[...] = 0.0
        rhs_out.append((cls.U0 @ cls.C.T).ravel())
        start = face_start[cls.face_ids][:, :, None]
        cls.trace_idx = np.where(start >= 0, start + np.arange(nd), -1).reshape(
            len(cls.face_ids), -1)
        dst.append(cls.trace_idx.ravel())
        chunks.extend((cls, slice(i, i + CHUNK_MACROS))
                      for i in range(0, len(cls.face_ids), CHUNK_MACROS))
    dst = np.concatenate(dst)
    S_blocks = faces.D - _slot_diagonal_sums(classes, nf, nd)
    P_blocks = _invert_face_blocks(faces.ids.tolist(), S_blocks)

    # one nd x nd block per unknown face, on the diagonal in trace order
    blocks = (np.arange(nf), np.arange(nf + 1))
    shape = (zhat, zhat)
    sys = CondensedSystem(
        mesh=mesh, classes=classes, face_start=face_start, nd=nd, zhat=zhat,
        pool=WorkerPool(config.workers), chunks=chunks,
        D=sp.bsr_matrix((faces.D, *blocks), shape=shape).tocsr(),
        S_blocks=S_blocks, P_blocks=P_blocks,
        P=sp.bsr_matrix((P_blocks, *blocks), shape=shape).tocsr(),
        reduce_dst=np.where(dst >= 0, dst, zhat),
    )
    sys.f_vec = faces.R_hat.ravel() - _scatter_outputs(sys, rhs_out)
    for cls in classes:
        cls.A = cls.B = cls.C = cls.R_u = None
    if coarse:
        sys.coarse = coarse_space(sys)
    return sys


def _slot_diagonal(K: np.ndarray, nd: int) -> np.ndarray:
    """(ns, nd, nd) writable view of the slot-diagonal blocks of an
    (ns nd, ns nd) class block."""
    ns = len(K) // nd
    return np.einsum("sisj->sij", K.reshape(ns, nd, ns, nd))


def _slot_diagonal_sums(classes: list, nf: int, nd: int) -> np.ndarray:
    """(nf, nd, nd) sum over all members of every class of K's slot-diagonal
    blocks, per unknown face in trace order (Dirichlet slots dropped), by
    one bincount."""
    idx, vals = [], []
    for cls in classes:
        rank = cls.trace_idx[:, ::nd] // nd  # -1 on Dirichlet slots
        rank = np.where(rank >= 0, rank, nf)  # pad face
        idx.append((rank[:, :, None] * nd * nd + np.arange(nd * nd)).ravel())
        vals.append(np.broadcast_to(_slot_diagonal(cls.K, nd).reshape(-1, nd * nd),
                                    rank.shape + (nd * nd,)).ravel())
    sums = np.bincount(np.concatenate(idx), np.concatenate(vals),
                       minlength=(nf + 1) * nd * nd)
    return sums[:nf * nd * nd].reshape(nf, nd, nd)


def _scatter_outputs(sys: CondensedSystem, vhat: list) -> np.ndarray:
    """The macro outputs vhat, summed into their trace dofs in class and row
    order."""
    return np.bincount(sys.reduce_dst, np.concatenate(vhat),
                       minlength=sys.zhat + 1)[:-1]


def _apply_cab(sys: CondensedSystem, uhat: np.ndarray, fold: bool = False) -> np.ndarray:
    """C A^-1 B uhat matrix-free: per chunk, the gathered trace values times
    the class's K (K_fold when `fold`), then the fixed-order scatter into the
    trace dofs."""
    upad = np.append(uhat, 0.0)  # index -1 of trace_idx reads the trailing zero

    def chunk_task(chunk):
        cls, rows = chunk
        return (upad[cls.trace_idx[rows]] @ (cls.K_fold if fold else cls.K).T).ravel()

    vhat = sys.pool.map(chunk_task, sys.chunks)
    sys.counters["macro_apply"] += sys.n_macros
    sys.counters["face_reduce"] += sys.zhat // sys.nd
    return _scatter_outputs(sys, vhat)


def apply_schur(sys: CondensedSystem, uhat: np.ndarray) -> np.ndarray:
    """(D - C A^-1 B) uhat matrix-free: the face reduction D uhat minus the
    scattered class products."""
    return sys.D @ uhat - _apply_cab(sys, uhat)


def gmres(apply_op: Callable, rhs: np.ndarray, config: SolverConfig):
    """Restarted GMRES, orthogonalized by classical Gram-Schmidt run twice
    (four BLAS-2 calls per iteration); the stopping test uses the relative
    residual.  A left preconditioner is folded into apply_op and rhs by the
    caller.  A restart cycle whose residual estimate meets tol is confirmed
    by the true residual at the start of the next cycle: the solve reports
    convergence only when the x it returns is within tol.  A restart cycle
    that leaves the true residual no lower than it found it stops the solve
    as stagnated; a zero diagonal of the rotated H (an operator singular on
    the Krylov space) stops it as a breakdown."""
    n = rhs.size
    x = np.zeros(n)
    history = []
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual_history": [0.0], "converged": True,
                   "reason": "converged"}
    it = 0
    converged = stagnated = breakdown = False
    beta_start = np.inf
    V = np.zeros((config.restart + 1, n))
    H = np.zeros((config.restart + 1, config.restart))
    while True:
        r = rhs - apply_op(x)
        beta = float(np.linalg.norm(r))
        if not history:
            history.append(beta)
        if beta / bnorm <= config.tol:
            converged = True
            break
        if breakdown or it >= config.maxiter:
            break
        if beta >= beta_start:
            stagnated = True
            break
        beta_start = beta
        H.fill(0.0)
        # the Givens rotations run on Python floats: a column of H is a list
        # until it is rotated, then written into H once
        cs, sn, g = [], [], [beta]
        V[0] = r / beta
        k_used = 0
        for k in range(config.restart):
            # copy: the operator may return its input
            wv = np.array(apply_op(V[k]), dtype=float)
            # classical Gram-Schmidt run twice: orthogonal to working precision
            # like MGS (Giraud, Langou & Rozloznik 2005), in four BLAS-2 calls
            Vk = V[:k + 1]
            h = Vk @ wv
            wv -= h @ Vk
            h2 = Vk @ wv
            wv -= h2 @ Vk
            col = (h + h2).tolist()
            col.append(float(np.linalg.norm(wv)))
            if col[k + 1] > 1e-300:
                V[k + 1] = wv / col[k + 1]
            else:
                breakdown = True
            for i in range(k):
                t = cs[i] * col[i] + sn[i] * col[i + 1]
                col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1]
                col[i] = t
            denom = float(np.hypot(col[k], col[k + 1]))
            if denom == 0.0:  # H[k, k] would be zero: keep the first k columns
                breakdown = True
                break
            cs.append(col[k] / denom)
            sn.append(col[k + 1] / denom)
            col[k], col[k + 1] = denom, 0.0
            H[:k + 2, k] = col
            g.append(-sn[k] * g[k])
            g[k] = cs[k] * g[k]
            it += 1
            res = abs(g[k + 1])
            history.append(res)
            k_used = k + 1
            if res / bnorm <= config.tol or breakdown or it >= config.maxiter:
                break
        if k_used > 0:
            y = sla.solve_triangular(H[:k_used, :k_used], np.array(g[:k_used]))
            x = x + V[:k_used].T @ y
    reason = ("converged" if converged else "stagnation" if stagnated
              else "breakdown" if breakdown else "maxiter")
    return x, {"iterations": it, "residual_history": history,
               "converged": converged, "reason": reason}


def _scatter_blocks(indices: list, blocks: list, size: int, eye: bool = False) -> sp.coo_matrix:
    """The (size, size) sum of the blocks, duplicates not yet summed: per
    pair of an index array (rows, nc) and its (nc, nc) blocks (one shared
    block, or one per row), each row's block scattered by that row's
    indices; plus the identity when `eye`.  Entries on a -1 row or column,
    and exact zeros, are dropped."""
    rows, cols, vals = [], [], []
    for ti, block in zip(indices, blocks):
        nc = ti.shape[1]
        rows.append(np.repeat(ti.ravel(), nc))
        cols.append(np.tile(ti, nc).ravel())
        vals.append(np.broadcast_to(block, ti.shape + (nc,)).ravel())
    if eye:
        rows.append(np.arange(size))
        cols.append(rows[-1])
        vals.append(np.ones(size))
    r, c, v = (np.concatenate(x) for x in (rows, cols, vals))
    keep = (r >= 0) & (c >= 0) & (v != 0.0)
    return sp.coo_matrix((v[keep], (r[keep], c[keep])), shape=(size, size))


def assemble_schur_explicit(sys: CondensedSystem, fold: bool = False) -> sp.csr_matrix:
    """Explicit D - C A^-1 B: each class's K scattered by its members' trace
    indices, plus the block-diagonal D.  With `fold`, the left-preconditioned
    P S = I - P (scatter of K_fold) instead, also from the classes: per
    member and slot, P_F times K_fold's rows of that slot in one batched
    product, scattered by the members' trace indices, plus the identity."""
    indices = [cls.trace_idx for cls in sys.classes]
    if not fold:
        return _scatter_blocks(indices, [-cls.K for cls in sys.classes], sys.zhat).tocsr() + sys.D
    nd = sys.nd
    blocks = []
    for cls in sys.classes:
        rank = np.maximum(cls.trace_idx[:, ::nd] // nd, 0)  # Dirichlet rows are dropped
        PK = sys.P_blocks[rank] @ cls.K_fold.reshape(rank.shape[1], nd, -1)
        blocks.append(-PK.reshape(cls.trace_idx.shape + (-1,)))
    return _scatter_blocks(indices, blocks, sys.zhat, eye=True).tocsr()


def mesh_peclet(mesh: MacroMesh, problem: ProblemData, p: int) -> float:
    """The largest mesh Peclet number |a| diam / (m p kappa) over the macros:
    advection against diffusion at the resolution of the trace space."""
    return float(np.linalg.norm(problem.a) * mesh.diameter.max()
                 / (mesh.m * p * problem.kappa))


@dataclass
class CoarseSpace:
    """Continuous P1 on the sub-cell vertices that unknown faces touch, as a
    subspace of the trace: on face F it is piecewise linear on the face's m
    segments, from the values at the face's vertices (shared with the other
    faces there) and at its m - 1 interior breakpoints (the face's own).
    At m = 1 it is (1 - s) u(v0) + s u(v1) at the nd equispaced nodes s, v0
    and v1 the face's vertices in face_verts order.  Pc (zhat, dofs) maps
    the coarse values to the trace, Q = Pc^T blockdiag(S_FF), and lu
    factors S_c = Pc^T S Pc."""

    Pc: sp.csr_matrix
    Q: sp.csc_matrix
    Sc: sp.csc_matrix
    lu: spla.SuperLU
    setup_s: float  # building all of it

    @property
    def dofs(self) -> int:
        return self.Pc.shape[1]

    def correct(self, w: np.ndarray) -> np.ndarray:
        """w + Pc S_c^-1 Q w.  For w = P v this is M v, with the two-level
        M = P + Pc S_c^-1 Pc^T, since Q P = Pc^T.  A non-finite coarse
        solve of a finite w raises SingularCoarseOperator."""
        y = self.lu.solve(self.Q @ w)
        if not np.isfinite(y).all() and np.isfinite(w).all():
            raise SingularCoarseOperator(self.dofs)
        return w + self.Pc @ y


def _face_vertex_ids(mesh: MacroMesh) -> np.ndarray:
    """(faces, 2) vertex ids of every face in face_verts order, from the
    edge record whose endpoints are the face's vertices: the fine side
    (right) of a hanging face, the left side elsewhere."""
    e, k = np.divmod(np.where(mesh.face_parent >= 0, mesh.face_right, mesh.face_left), 3)
    a, b = _EDGE_A[k], _EDGE_B[k]
    ids = np.stack((mesh.vertex_ids[e, a], mesh.vertex_ids[e, b]), axis=1)
    flip = np.any(mesh.verts[e, a] != mesh.face_verts[:, 0], axis=1)
    return np.where(flip[:, None], ids[:, ::-1], ids)


def coarse_space(sys: CondensedSystem) -> CoarseSpace:
    """The P1 coarse space of the trace and the factor of S_c = Pc^T S Pc,
    built without S.  Ploc (nd, m + 1), the P1 hat functions of a face's
    breakpoints at its trace nodes, is the same on every face, and
    S = blockdiag(S_FF) - scatter of K_fold, so S_c is the per-face
    Ploc^T S_FF Ploc minus, per class, one (ns (m + 1))^2 block L^T K_fold L
    (L = blockdiag of Ploc over the slots) scattered by each member's
    slot-breakpoint coarse ids, -1 on Dirichlet slots and dropped.  A
    singular S_c raises SingularCoarseOperator."""
    t0 = time.perf_counter()
    nd, zhat, m = sys.nd, sys.zhat, sys.mesh.m
    unknown = sys.face_start >= 0  # skeleton order is trace order
    _, cv = np.unique(_face_vertex_ids(sys.mesh)[unknown], return_inverse=True)
    cv = cv.reshape(-1, 2)
    nf, nv = len(cv), int(cv.max()) + 1
    # coarse ids of each unknown face's breakpoints: its vertices, and its
    # own interior breakpoints numbered after all vertices
    cv = np.column_stack((cv[:, 0], nv + np.arange(nf * (m - 1)).reshape(nf, m - 1),
                          cv[:, 1]))
    n_coarse, k = nv + nf * (m - 1), m + 1
    face_cv = np.full((len(unknown), k), -1)
    face_cv[unknown] = cv
    Ploc = trace_hats(m, (nd - 1) // m)
    # k entries per trace dof, at its face's breakpoints; Q's column j holds
    # Ploc^T times column j of its face's S_FF at the same rows
    idx = np.broadcast_to(cv[:, None], (nf, nd, k)).ravel()
    ptr = np.arange(0, k * zhat + 1, k)
    QF = Ploc.T @ sys.S_blocks  # (faces, k, nd)
    Pc = sp.csr_matrix((np.tile(Ploc.ravel(), nf), idx, ptr), shape=(zhat, n_coarse))
    Q = sp.csc_matrix((QF.swapaxes(1, 2).ravel(), idx, ptr), shape=(n_coarse, zhat))

    indices, blocks = [cv], [QF @ Ploc]
    for cls in sys.classes:
        ns = len(cls.K_fold) // nd
        KL = (cls.K_fold.reshape(-1, ns, nd) @ Ploc).reshape(ns, nd, k * ns)
        indices.append(face_cv[cls.face_ids].reshape(len(cls.face_ids), -1))
        blocks.append(-(Ploc.T @ KL).reshape(k * ns, k * ns))
    Sc = _scatter_blocks(indices, blocks, n_coarse).tocsc()
    try:
        lu = spla.splu(Sc)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SingularCoarseOperator(n_coarse) from exc
    return CoarseSpace(Pc, Q, Sc, lu, time.perf_counter() - t0)


def reconstruct_interior(sys: CondensedSystem, uhat: np.ndarray) -> np.ndarray:
    """(n_macros, nloc) local solutions U = A^-1 (R_u - B uhat): per class,
    U0 minus the gathered trace values times (A^-1 B)^T."""
    upad = np.append(uhat, 0.0)  # index -1 of trace_idx reads the trailing zero
    local = np.empty((sys.n_macros, sys.classes[0].U0.shape[1]))
    for cls in sys.classes:
        local[cls.macro_ids] = cls.U0 - upad[cls.trace_idx] @ cls.AinvB.T
    return local


@dataclass
class SolveReport:
    p: int
    m: int
    n: int
    dof_local: int
    dof_global: int
    iterations: int
    converged: bool
    tol: float
    mode: str
    n_classes: int
    t_assemble_s: float
    t_init_s: float
    t_local_s: float  # matrix-free applies inside GMRES, P included
    t_global_s: float  # the rest of GMRES
    t_schur_s: float  # building the explicit P S (mb; 0 in mf)
    t_reconstruct_s: float
    # coarse space: its size and the time to build and factor it (outside
    # t_init_s), 0 when solve() uses none
    coarse_dofs: int
    t_coarse_s: float
    # load-balance factor of the pooled matrix-free applies; 1.0 in mode mb,
    # where no pooled work runs
    lbf: float
    residual_history: list

    def to_record(self) -> dict:
        """Every field but the residual history, in declaration order."""
        return {k: v for k, v in vars(self).items() if k != "residual_history"}


@dataclass
class Solution:
    local: np.ndarray  # (n_macros, nloc): per macro [q_x | q_y | u] coefficients
    uhat: np.ndarray
    report: SolveReport

    @property
    def u(self) -> np.ndarray:
        """(n_macros, Q) u coefficients of every macro."""
        return self.local[:, 2 * (self.local.shape[1] // 3):]

    def u_coeffs(self, e: int) -> np.ndarray:
        return self.u[e]


def assemble_system(
    mesh: MacroMesh, problem: ProblemData, stab: StabilizationConfig, p: int,
):
    """Group the macros by congruence class and assemble all classes in one
    batched pass (assemble_classes): A, B and C of each class from its first
    macro, and R_u of every macro.  The face blocks of all unknown faces
    come from one vectorized pass."""
    nd = mesh.m * p + 1
    classes = [OperatorClass(**vars(op), face_ids=mesh.slot_faces[op.macro_ids,
                                                                  :op.B.shape[1] // nd])
               for op in assemble_classes(mesh, mesh.congruence_classes(), p, problem, stab)]
    return classes, face_operators(mesh, p, problem)


def solve(
    mesh: MacroMesh,
    problem: ProblemData,
    stab: StabilizationConfig,
    config: SolverConfig,
    p: int,
):
    """Assemble, condense, run GMRES on the trace system and reconstruct.
    The coarse space is added when the trace has at least
    COARSE_MIN_TRACE_DOFS dofs and the mesh Peclet number is at most
    COARSE_MAX_PECLET; its factor is released once GMRES is done."""
    t0 = time.perf_counter()
    classes, faces = assemble_system(mesh, problem, stab, p)
    t_assemble = time.perf_counter() - t0
    t0 = time.perf_counter()
    use_coarse = (faces.R_hat.size >= COARSE_MIN_TRACE_DOFS
                  and mesh_peclet(mesh, problem, p) <= COARSE_MAX_PECLET)
    sys = condense(mesh, classes, faces, config, coarse=use_coarse)
    coarse = sys.coarse
    t_coarse = coarse.setup_s if coarse is not None else 0.0
    t_init = time.perf_counter() - t0 - t_coarse

    # P is folded into the operator and the right-hand side: GMRES runs on
    # P S uhat = P f, the left-preconditioned system; with the coarse space,
    # on M S uhat = M f, M = P + Pc S_c^-1 Pc^T
    t_schur = t_local = 0.0
    if config.mode == "mb":
        t0 = time.perf_counter()
        PS = assemble_schur_explicit(sys, fold=True)
        t_schur = time.perf_counter() - t0
        op = lambda v: PS @ v
    else:
        def op(v):
            nonlocal t_local
            t0 = time.perf_counter()
            w = v - sys.P @ _apply_cab(sys, v, fold=True)
            t_local += time.perf_counter() - t0
            return w
    rhs = sys.P @ sys.f_vec
    if coarse is not None:
        smooth = op
        op = lambda v: coarse.correct(smooth(v))
        rhs = coarse.correct(rhs)

    t0 = time.perf_counter()
    uhat, info = gmres(op, rhs, config)
    t_gmres = time.perf_counter() - t0
    sys.coarse = None

    t0 = time.perf_counter()
    local = reconstruct_interior(sys, uhat)
    t_rec = time.perf_counter() - t0

    report = SolveReport(
        p=p, m=mesh.m, n=mesh.n,
        dof_local=sys.dof_local, dof_global=sys.zhat,
        iterations=info["iterations"], converged=info["converged"],
        tol=config.tol, mode=config.mode,
        n_classes=len(classes), t_assemble_s=t_assemble, t_init_s=t_init, t_local_s=t_local,
        t_global_s=max(t_gmres - t_local, 0.0), t_schur_s=t_schur,
        t_reconstruct_s=t_rec,
        coarse_dofs=coarse.dofs if coarse is not None else 0, t_coarse_s=t_coarse,
        lbf=sys.pool.lbf,
        residual_history=info["residual_history"],
    )
    return Solution(local=local, uhat=uhat, report=report), sys
