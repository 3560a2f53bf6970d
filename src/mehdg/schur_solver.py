"""Static condensation and the global trace solve.

The block system [A B; C D][U; uhat] = [R_u; R_uhat] is reduced to
S uhat = R_uhat - C A^-1 R_u with S = D - C A^-1 B.  The trace vector uhat
is the (unknown faces, m p + 1) array of the face blocks, raveled: face F's
block starts at face_start[F] = rank of F among the unknown faces times
m p + 1, and D is block-diagonal in it.  Congruent macros share A, B and C
(all classes come from one batched assembly pass), so condense factors each
class's A once, through LAPACK getrf/getrs called directly, and solves once
with [B | R_u^T]: it keeps A^-1 B and U0, every member's local solution at
uhat = 0, and drops A, B, C and R_u.  The reduced right-hand side and the
reconstruction are then gathers and GEMMs per class.  The rest of the
set-up runs per group of classes that share a slot count, and so the shape
of their blocks, and condense keeps each group as a SlotGroup: one stacked
product gives K = C A^-1 B of the whole group, one gather the slot faces and
the trace indices of all its members.  Each class keeps views of its rows
of the group's K_fold and trace indices for the apply and the
reconstruction; the explicit S and the coarse space read the group's
stacks.

S is stored in one form, S = blockdiag(S_FF) - scatter of K_fold:
S_FF = D_F - sum K_ss over the member slots s on face F is the face-diagonal
block of S, and K_fold is each class's K = C A^-1 B with those slot-diagonal
blocks zeroed in place (condense sums them over every class in one
bincount).  Neither K nor D is kept.  The matrix-free apply multiplies the
gathered trace values of each fixed-size chunk of a class's macros by
K_fold, one GEMM per chunk, and scatters the outputs in a fixed order; the
chunks of a class that share a partition of the worker pool go in one
stacked matmul, which writes into one output buffer, and the scatter is one
bincount.  The explicit S and P S are block-sparse matrices of nd x nd face
blocks gathered from the same blocks.  Both modes share a restarted GMRES,
orthogonalized by classical Gram-Schmidt run twice, on the system
left-preconditioned by face-block Jacobi: a block-diagonal P with one
nd x nd block P_F = S_FF^-1 per unknown face, stored as the blocks and
applied as one batched product of the blocks with the face slices of a
vector (Cockburn, Dubois, Gopalakrishnan & Tan, IMA J. Numer. Anal. 34,
2014, use it as their smoother).

solve() folds P into the operator and the right-hand side instead of
handing GMRES a preconditioner: GMRES runs on P S uhat = P f, and since
S = P^-1 - scatter of K_fold, P S = I - P (scatter of K_fold).  Mode mb
builds that matrix once from the classes, one nd x nd block per pair of
faces that a macro couples (assemble_schur_explicit), so an iteration is
one sparse product; mode mf applies uhat - P (scatter of K_fold uhat) with
the chunked gather, GEMMs and scatter above.

Face-block Jacobi alone needs a number of iterations that grows like 1/h.
solve() adds a coarse space to it when the mesh Peclet number
max |a| diam / (m p kappa) is at most COARSE_MAX_PECLET and the trace has at
least COARSE_MIN_TRACE_DOFS dofs: GMRES then runs on M S uhat = M f with the
multiplicative two-level M = P + Q_c - P S Q_c, Q_c = Pc S_c^-1 Pc^T, the
hybrid form of Toselli & Widlund (Domain Decomposition Methods, 2005; the
"A-DEF2" of Tang, Nabben, Vuik & Erlangga, J. Sci. Comput. 39, 2009), which
takes fewer iterations than the additive M = P + Q_c.  The coarse space is
continuous P1 on the sub-cell vertices of the skeleton (the mesh vertices
at m = 1, the P1 space of Cockburn, Dubois, Gopalakrishnan & Tan), Pc its
prolongation into the trace and
S_c = Pc^T S Pc, built from each class's K_fold, the face blocks S_FF and
the mesh arrays without S and factored once: summed into a dense array and
factored by LAPACK getrf up to COARSE_DENSE_MAX_DOFS coarse dofs, where
splu and its sparse constructors cost more than the dense arithmetic, and
factored by splu above.  One application is
w = P S v, the folded operator above, followed by w + z - P S z with
z = Pc S_c^-1 (Q w) and Q = Pc^T blockdiag(S_FF): since Q P = Pc^T this is
M S v.  The correction applies the folded operator a second time instead
of storing (I - P S) Pc, so the coarse code is the same in both modes and
an iteration costs two applications of P S.  Above the Peclet
bound (advection-dominated traces) the coarse space takes more iterations
than it saves, and solve() runs face-block Jacobi alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    FaceBlocks,
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
# The most coarse dofs whose S_c coarse_space sums into a dense array and
# factors by LAPACK getrf; above, S_c is a sparse matrix factored by splu.
# 255 minimized the summed solve() CPU time of the dense section of
# BENCH_coarse_lu.json (tools/twolevel_grid.py dense: tanh, kappa 0.4, p = 2,
# 79 to 607 coarse dofs, mb and mf, 20 alternated pairs each): getrf was
# faster in 19-20 of 20 pairs up to 167 coarse dofs, broke even at 255 and
# was slower from 287.
COARSE_DENSE_MAX_DOFS = 255
# LAPACK's dense LU and LU solve, which _DenseLU calls directly
_GETRF, _GETRS = sla.get_lapack_funcs(("getrf", "getrs"), dtype=np.float64)


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
    """Runs the partitions of a task one after another on the calling
    thread, timing each, so results never depend on the worker count.

    The pool does not split the work: a task is a function of the partition
    number w = 0 .. workers - 1, and the matrix-free apply's partitions are
    built by _apply_partitions.  Per-partition CPU time is accumulated for
    the load-balance factor (LBF), which reports how evenly the partition
    splits the work.  The partition that runs first refills the caches that
    the caller's work in between evicted; each call starts one partition
    later, so that this cost is spread evenly instead of always landing on
    partition 0.  The first call of a pool, a solve's first apply, runs but
    is not timed: it refills the caches that the whole set-up evicted, which
    costs its first partition several times a later call's refill, and a
    solve of a few iterations has too few later calls to even that out."""

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))
        self.busy = np.zeros(self.workers)
        self.calls = 0
        self._first = 0  # partition that runs first in the next call

    def run(self, fn: Callable[[int], None]) -> None:
        """fn(w) for every partition w, starting one partition later than
        the previous call."""
        first, self._first = self._first, (self._first + 1) % self.workers
        for k in range(self.workers):
            w = (first + k) % self.workers
            t0 = time.thread_time()
            fn(w)
            if self.calls:
                self.busy[w] += time.thread_time() - t0
        self.calls += 1

    @property
    def lbf(self) -> float:
        mx = float(self.busy.max(initial=0.0))
        if mx == 0.0:
            return 1.0
        return float(self.busy.mean()) / mx


@dataclass(frozen=True)
class SlotGroup:
    """The congruence classes with one slot count, in class order: their
    blocks share one shape, so condense sets them up in stacked calls, and
    assemble_schur_explicit and coarse_space read these stacks.  The member
    rows come class by class, each class's macros in macro_ids order."""

    members: np.ndarray  # (classes,) member macros per class
    # (classes, nc, nc) each class's C A^-1 B with its slot-diagonal blocks zeroed
    K_fold: np.ndarray
    face_ids: np.ndarray  # (member rows, n_slots) skeleton face of each slot
    # (member rows, nc) trace dof of each B column, -1 on Dirichlet faces
    trace_idx: np.ndarray


@dataclass(frozen=True)
class OperatorClass:
    """What the solve reads of a congruence class after condense: from its
    one solve with A, A^-1 B and U0, and as views of its rows of its
    SlotGroup, K_fold and trace_idx.  Row r of `trace_idx` and `U0` belongs
    to macro macro_ids[r]."""

    macro_ids: np.ndarray  # (n_macros,)
    AinvB: np.ndarray  # (nloc, nc)
    U0: np.ndarray  # (n_macros, nloc) local solutions at uhat = 0
    trace_idx: np.ndarray  # (n_macros, nc)
    K_fold: np.ndarray  # (nc, nc)


class _DenseLU:
    """The LU of a dense matrix from LAPACK getrf, with the solve(b) of
    scipy's SuperLU by getrs: both called directly, without the per-call
    cost of the lu_factor/lu_solve wrappers, which exceeds the arithmetic of
    a 45 x 45 block."""

    def __init__(self, lu: np.ndarray, piv: np.ndarray):
        self.lu, self.piv = lu, piv

    def solve(self, b: np.ndarray) -> np.ndarray:
        return _GETRS(self.lu, self.piv, b)[0]


def _lu(A):
    """One LU of A with a solve(b): _DenseLU when A is dense, splu when it
    is sparse.  None when A is not finite, or singular: a zero pivot, or one
    at most 1e-13 max|A|."""
    sparse = sp.issparse(A)
    amax = float(np.abs(A.data if sparse else A).max(initial=0.0))
    if not np.isfinite(amax):
        return None
    info = 0
    if sparse:
        try:
            fac = spla.splu(sp.csc_matrix(A))
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            return None
        pivots = fac.U.diagonal()
    else:
        lu, piv, info = _GETRF(A)
        fac, pivots = _DenseLU(lu, piv), np.diagonal(lu)
    if info > 0 or np.abs(pivots).min() <= 1e-13 * max(amax, 1e-300):
        return None
    return fac


def _solve_local(A, rhs: np.ndarray, macro: int) -> np.ndarray:
    """A^-1 rhs through one LU of A (_lu).  A non-finite A raises
    ValueError, a singular one SingularLocalBlock(macro)."""
    fac = _lu(A)
    if fac is None:
        if not np.isfinite(A.data if sp.issparse(A) else A).all():
            raise ValueError(f"local block A at macro {macro} is not finite")
        raise SingularLocalBlock(macro)
    return fac.solve(rhs)


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
    pool: WorkerPool  # runs the partitions of the matrix-free apply
    # per partition of the matrix-free apply, its (K_fold, trace indices,
    # output view) products: per class, its full chunks stacked
    # (chunks, CHUNK_MACROS, nc), and a short last chunk (rows, nc) alone
    partitions: list
    # the macro outputs of the matrix-free apply, in class and row order,
    # which the views of `partitions` write
    apply_out: np.ndarray
    # the (unknown faces, nd, nd) face-diagonal blocks S_FF of S and the
    # preconditioner's blocks S_FF^-1, both in trace order
    S_blocks: np.ndarray
    P_blocks: np.ndarray
    # step 4: trace dof of each entry of the macro outputs C A^-1 (.) in
    # class and row order, zhat (a pad slot) on Dirichlet faces
    reduce_dst: np.ndarray
    groups: list  # SlotGroup per slot count, in order of first class
    f_vec: np.ndarray  # the reduced right-hand side R_uhat - C A^-1 R_u
    coarse: Optional[CoarseSpace] = None  # condense(coarse=True); solve() releases it

    @property
    def n_macros(self) -> int:
        return len(self.mesh.verts)

    @property
    def counters(self) -> dict:
        """Macro computations and face reductions of the matrix-free
        applies: each pool call, one _apply_cab, makes one per macro and one
        per unknown face."""
        calls = self.pool.calls
        return {"macro_apply": calls * self.n_macros,
                "face_reduce": calls * (self.zhat // self.nd)}

    @property
    def dof_local(self) -> int:
        return int(sum(cls.U0.size for cls in self.classes))


def condense(
    mesh: MacroMesh,
    ops: list,
    faces: FaceBlocks,
    config: SolverConfig,
    coarse: bool = False,
) -> CondensedSystem:
    """Per class of `ops` (LocalOperators), one solve with A for A^-1 B and
    U0, and the reduced right-hand side f = R_uhat - C A^-1 R_u; then per
    group of classes with one slot count, its SlotGroup: K = C A^-1 B of all
    of them in one stacked product, the slot faces and the trace index of
    the B columns of all their members, and the face blocks S_FF = D_F
    minus the slot-diagonal blocks of K, which are then zeroed to give
    K_fold.  Each OperatorClass keeps views of its rows of its group's
    K_fold and trace_idx.  The inverses of S_FF are the preconditioner; with
    `coarse`, the coarse space is built too.  The one write to `ops`
    releases their A, B, C and R_u, which nothing after the set-up reads,
    before the coarse set-up."""
    nf, nd = faces.R_hat.shape
    zhat = nf * nd
    face_start = np.full(len(mesh.face_tag), -1, dtype=np.int64)
    face_start[faces.ids] = np.arange(nf) * nd

    solves, rhs_out, by_slots = [], [], {}
    for c, op in enumerate(ops):
        nc = op.B.shape[1]
        X = _solve_local(op.A, np.hstack([op.B, op.R_u.T]), int(op.macro_ids[0]))
        solves.append((X[:, :nc], X[:, nc:].T))  # A^-1 B, U0
        rhs_out.append((solves[c][1] @ op.C.T).ravel())
        by_slots.setdefault(nc // nd, []).append(c)

    # per skeleton face: its trace dofs (-1 if Dirichlet), and the face block
    # S_FF that its slot-diagonal blocks of K go to (a pad block nf if
    # Dirichlet)
    face_dofs = np.where(face_start[:, None] >= 0, face_start[:, None] + np.arange(nd), -1)
    face_rank = np.where(face_start >= 0, face_start // nd, nf)
    classes, groups, sum_idx, sum_vals = [None] * len(ops), [], [], []
    for ns, ids in by_slots.items():
        K = np.stack([ops[c].C for c in ids]) @ np.stack([solves[c][0] for c in ids])
        face_ids = mesh.slot_faces[np.concatenate([ops[c].macro_ids for c in ids]), :ns]
        trace_idx = face_dofs[face_ids].reshape(len(face_ids), -1)
        members = np.array([len(ops[c].macro_ids) for c in ids])
        # the slot-diagonal blocks of K go to their faces' S_FF (one bincount
        # below), the rest is K_fold
        diag = np.einsum("gsisj->gsij", K.reshape(len(ids), ns, nd, ns, nd))
        sum_idx.append(face_rank[face_ids].ravel())
        sum_vals.append(np.repeat(diag, members, axis=0).ravel())
        diag[...] = 0.0
        groups.append(SlotGroup(members, K, face_ids, trace_idx))
        for c, K_fold, rows in zip(ids, K, np.split(trace_idx, np.cumsum(members)[:-1])):
            classes[c] = OperatorClass(ops[c].macro_ids, *solves[c], rows, K_fold)
    sum_idx = np.concatenate(sum_idx)[:, None] * (nd * nd) + np.arange(nd * nd)
    sums = np.bincount(sum_idx.ravel(), np.concatenate(sum_vals),
                       minlength=(nf + 1) * nd * nd)
    S_blocks = faces.D - sums[:nf * nd * nd].reshape(nf, nd, nd)
    # dst: the trace dof of each entry of the macro outputs, which come class
    # by class: the classes' trace_idx, row-major
    dst = np.concatenate([cls.trace_idx.ravel() for cls in classes])
    reduce_dst = np.where(dst >= 0, dst, zhat)
    apply_out = np.empty(dst.size)
    pool = WorkerPool(config.workers)
    sys = CondensedSystem(
        mesh=mesh, classes=classes, face_start=face_start, nd=nd, zhat=zhat,
        pool=pool, partitions=_apply_partitions(classes, apply_out, pool.workers),
        apply_out=apply_out, S_blocks=S_blocks,
        P_blocks=_invert_face_blocks(faces.ids.tolist(), S_blocks),
        reduce_dst=reduce_dst, groups=groups,
        f_vec=faces.R_hat.ravel() - _scatter_outputs(reduce_dst, zhat,
                                                     np.concatenate(rhs_out)),
    )
    for op in ops:
        op.A = op.B = op.C = op.R_u = None
    if coarse:
        sys.coarse = coarse_space(sys)
    return sys


def _apply_partitions(classes: list, out: np.ndarray, workers: int) -> list:
    """The products of the matrix-free apply, per partition.  The classes'
    rows are cut into chunks of CHUNK_MACROS, numbered class by class, and
    chunk j goes to partition j mod workers.  Per partition and class, the
    full chunks are one stacked product of strided views of the class's
    trace_idx and of its rows of `out`, the macro outputs in class and row
    order; numpy's stacked matmul makes one GEMM per chunk, the call of a
    chunk alone, so every row is bitwise the same for any worker count.  A
    class's short last chunk is a product of its own."""
    parts = [[] for _ in range(workers)]
    first = 0  # the global number of a class's first chunk
    offset = 0  # the first entry of a class's outputs in `out`
    for cls in classes:
        rows, nc = cls.trace_idx.shape
        cls_out = out[offset:offset + rows * nc].reshape(rows, nc)
        full = rows // CHUNK_MACROS * CHUNK_MACROS
        idx, dst = (a[:full].reshape(-1, CHUNK_MACROS, nc) for a in (cls.trace_idx, cls_out))
        for w in range(workers):
            i0 = (w - first) % workers  # the class's first chunk on partition w
            if i0 < len(idx):
                parts[w].append((cls.K_fold, idx[i0::workers], dst[i0::workers]))
        if full < rows:
            parts[(first + full // CHUNK_MACROS) % workers].append(
                (cls.K_fold, cls.trace_idx[full:], cls_out[full:]))
        first += -(-rows // CHUNK_MACROS)
        offset += rows * nc
    return parts


def _face_product(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """blockdiag(blocks) v for (unknown faces, nd, nd) blocks in trace
    order."""
    return (blocks @ v.reshape(len(blocks), -1, 1)).ravel()


def _scatter_outputs(reduce_dst: np.ndarray, zhat: int, vhat: np.ndarray) -> np.ndarray:
    """The macro outputs vhat, in class and row order, summed into their
    trace dofs reduce_dst; the pad slot zhat is dropped."""
    return np.bincount(reduce_dst, vhat, minlength=zhat + 1)[:-1]


def _apply_cab(sys: CondensedSystem, uhat: np.ndarray) -> np.ndarray:
    """C A^-1 B uhat without its slot-diagonal blocks, matrix-free: per
    partition, the gathered trace values of its chunks times their class's
    K_fold, written into the macro outputs, then the fixed-order scatter
    into the trace dofs."""
    upad = np.append(uhat, 0.0)  # index -1 of trace_idx reads the trailing zero

    def partition_task(w):
        for K_fold, idx, out in sys.partitions[w]:
            np.matmul(upad[idx], K_fold.T, out=out)

    sys.pool.run(partition_task)
    return _scatter_outputs(sys.reduce_dst, sys.zhat, sys.apply_out)


def apply_schur(sys: CondensedSystem, uhat: np.ndarray) -> np.ndarray:
    """S uhat matrix-free: the face-block products S_FF uhat_F minus the
    scattered K_fold products."""
    return _face_product(sys.S_blocks, uhat) - _apply_cab(sys, uhat)


def gmres(apply_op: Callable, rhs: np.ndarray, config: SolverConfig):
    """Restarted GMRES, orthogonalized by classical Gram-Schmidt run twice
    (four BLAS-2 calls per iteration); the stopping test uses the relative
    residual.  A left preconditioner is folded into apply_op and rhs by the
    caller.  A restart cycle whose residual estimate meets tol is confirmed
    by the true residual at the start of the next cycle: the solve reports
    convergence only when the x it returns is within tol.  A restart cycle
    that leaves the true residual no lower than it found it stops the solve
    as stagnated, with the x that cycle started from; a zero diagonal of the
    rotated H (an operator singular on the Krylov space) stops it as a
    breakdown."""
    n = rhs.size
    x = x_start = np.zeros(n)
    history = []
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual_history": [0.0], "converged": True,
                   "reason": "converged"}
    it = 0
    converged = stagnated = breakdown = False
    beta_start = np.inf
    # the Krylov space has at most n dimensions, so a cycle needs no more
    # than n steps, whatever the restart length
    restart = min(config.restart, n)
    V = np.zeros((restart + 1, n))
    H = np.zeros((restart + 1, restart))
    while True:
        # the first cycle starts at x = 0, where the residual is rhs
        r = rhs - apply_op(x) if history else rhs
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
            x = x_start
            break
        beta_start, x_start = beta, x
        # the Givens rotations run on Python floats: a column of H is a list
        # until it is rotated, then written into H once
        cs, sn, g = [], [], [beta]
        V[0] = r / beta
        k_used = 0
        for k in range(restart):
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


def assemble_schur_explicit(sys: CondensedSystem, fold: bool = False) -> sp.bsr_matrix:
    """Explicit S = blockdiag(S_FF) - scatter of K_fold, block-sparse with
    nd x nd blocks, one block row per unknown face: the face blocks S_FF on
    the diagonal, and per member and ordered pair of its distinct unknown
    slots (s, t) the block -K_fold[s, t] at (rank of F_s, rank of F_t).
    With `fold`, the left-preconditioned P S = I - P (scatter of K_fold)
    instead: identity blocks on the diagonal and -P_{F_s} K_fold[s, t] off
    it.  No block is hit twice (K_fold's slot-diagonal blocks are zero, and
    two macros share at most one face), so one stable sort of the block
    rows orders the blocks, with nothing to sum; each block row starts with
    its diagonal block."""
    nd = sys.nd
    nf = sys.zhat // nd
    # the distinct blocks: S_FF, then per SlotGroup each class's
    # -K_fold[s, t] for the ordered pairs of distinct slots (s, t),
    # class-major
    table = [sys.S_blocks]
    rows, cols, src = [np.arange(nf)], [np.arange(nf)], [np.arange(nf)]
    for group in sys.groups:
        ns = group.face_ids.shape[1]
        s, t = np.nonzero(~np.eye(ns, dtype=bool))
        K = -group.K_fold.reshape(-1, ns, nd, ns, nd)
        rank = group.trace_idx[:, ::nd] // nd  # face rank per slot, -1 on a Dirichlet slot
        member_class = np.repeat(np.arange(len(K)), group.members)
        i, j = np.nonzero((rank[:, s] >= 0) & (rank[:, t] >= 0))  # member, pair
        rows.append(rank[i, s[j]])
        cols.append(rank[i, t[j]])
        src.append(sum(map(len, table)) + member_class[i] * len(s) + j)
        table.append(K.transpose(0, 1, 3, 2, 4)[:, s, t].reshape(-1, nd, nd))
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(nf + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nf), out=indptr[1:])
    # take gathers whole blocks, several times faster than indexing by [...]
    data = np.concatenate(table).take(np.concatenate(src)[order], axis=0)
    if fold:
        data = sys.P_blocks.take(rows[order], axis=0) @ data
        data[indptr[:-1]] = np.eye(nd)  # P_F S_FF, exactly
    return sp.bsr_matrix((data, np.concatenate(cols)[order], indptr),
                         shape=(sys.zhat, sys.zhat))


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
    and v1 the face's vertices in face_verts order.  Its prolongation Pc
    (zhat, dofs) into the trace is Ploc = trace_hats(m, p) on every face,
    scattered by face_coarse; it is not stored, since correct() applies it as
    one product with Ploc.  correct() reads Q = Pc^T blockdiag(S_FF) and lu,
    the factor of S_c = Pc^T S Pc: dense up to COARSE_DENSE_MAX_DOFS coarse
    dofs, sparse above."""

    face_coarse: np.ndarray  # (unknown faces, m + 1) coarse ids of the breakpoints
    Ploc: np.ndarray  # (nd, m + 1) P1 hats of a face's breakpoints at its nodes
    Q: sp.csc_matrix
    Sc: np.ndarray | sp.csc_matrix
    lu: _DenseLU | spla.SuperLU
    setup_s: float  # building all of it

    @property
    def dofs(self) -> int:
        return self.Sc.shape[0]

    def correct(self, w: np.ndarray, smooth: Callable) -> np.ndarray:
        """w + z - smooth(z) with z = Pc S_c^-1 Q w, for smooth the folded
        operator v -> P S v.  With Q P = Pc^T, this is M S v for w = P S v
        and M f for w = P f, M the multiplicative two-level
        M = P + Q_c - P S Q_c with Q_c = Pc S_c^-1 Pc^T.  A non-finite coarse
        solve of a finite w raises SingularCoarseOperator."""
        y = self.lu.solve(self.Q @ w)
        if not np.isfinite(y).all() and np.isfinite(w).all():
            raise SingularCoarseOperator(self.dofs)
        z = (y[self.face_coarse] @ self.Ploc.T).ravel()
        return w + z - smooth(z)


def _face_vertex_ids(mesh: MacroMesh) -> np.ndarray:
    """(faces, 2) vertex ids of every face in face_verts order, from the
    edge record whose endpoints are the face's vertices: the fine side
    (right) of a hanging face, the left side elsewhere."""
    e, k = np.divmod(np.where(mesh.face_parent >= 0, mesh.face_right, mesh.face_left), 3)
    a, b = _EDGE_A[k], _EDGE_B[k]
    ids = np.stack((mesh.vertex_ids[e, a], mesh.vertex_ids[e, b]), axis=1)
    flip = np.any(mesh.verts[e, a] != mesh.face_verts[:, 0], axis=1)
    return np.where(flip[:, None], ids[:, ::-1], ids)


def _summed_columns(terms: list, n: int) -> sp.csc_matrix:
    """The (n, n) sum of square blocks scattered by ids, duplicates summed:
    per pair of ids (b, r) and blocks (b, r, r), block i goes to the rows
    and columns ids i; ids -1 are dropped.  Each block column becomes one
    column of a CSC matrix, and one sparse product with the 0/1 matrix that
    maps those columns to their ids sums them, in Gustavson's row-by-row
    product: no sort, unlike a COO conversion."""
    rows, vals, counts, cols = [], [], [], []
    for ids, blocks in terms:
        r = np.broadcast_to(ids[:, None], blocks.shape)
        rows.append(np.maximum(r, 0).ravel())  # row 0 with value 0 for a dropped row
        vals.append(np.where(r >= 0, blocks.swapaxes(1, 2), 0.0).ravel())
        counts.append(np.full(ids.size, ids.shape[1]))
        cols.append(ids.ravel())
    cols = np.concatenate(cols)
    columns = sp.csc_matrix((np.concatenate(vals), np.concatenate(rows),
                             np.concatenate(([0], np.cumsum(np.concatenate(counts))))),
                            shape=(n, cols.size))
    to_ids = sp.csr_matrix(((cols >= 0).astype(float), np.maximum(cols, 0),
                            np.arange(cols.size + 1)), shape=(cols.size, n))
    return columns @ to_ids


def _summed_dense(terms: list, n: int) -> np.ndarray:
    """The (n, n) dense sum of the blocks of `terms`, pairs as in
    _summed_columns, by one bincount over the flat ids row n + column;
    entries on an id -1 are dropped."""
    flat, vals = [], []
    for ids, blocks in terms:
        r, c = ids[:, :, None], ids[:, None, :]
        flat.append(np.where((r >= 0) & (c >= 0), r * n + c, n * n).ravel())
        vals.append(blocks.ravel())
    return np.bincount(np.concatenate(flat), np.concatenate(vals),
                       minlength=n * n + 1)[:-1].reshape(n, n)


def coarse_space(sys: CondensedSystem) -> CoarseSpace:
    """The P1 coarse space of the trace and the factor of S_c = Pc^T S Pc,
    built without S or Pc.  Ploc (nd, m + 1), the P1 hat functions of a
    face's breakpoints at its trace nodes, is the same on every face, and
    S = blockdiag(S_FF) - scatter of K_fold, so per SlotGroup one stacked
    product of its K_fold gives each class's L^T K_fold L, L = blockdiag of
    Ploc over the slots.  S_c is the per-face
    Ploc^T S_FF Ploc minus each class's L^T K_fold L, scattered by each
    member's slot-breakpoint coarse ids (-1 on Dirichlet slots, dropped),
    duplicates summed: a vertex is a breakpoint of two slots of a macro and
    of every macro around it.  Up to COARSE_DENSE_MAX_DOFS coarse dofs, S_c
    is summed into a dense array and factored by LAPACK getrf (_lu); above,
    it is a sparse matrix factored by splu in the minimum-degree ordering of
    S_c + S_c^T, since S_c is structurally symmetric.  A singular S_c, or a
    non-finite dense one, raises SingularCoarseOperator."""
    t0 = time.perf_counter()
    nd, zhat, m = sys.nd, sys.zhat, sys.mesh.m
    unknown = sys.face_start >= 0  # skeleton order is trace order
    # vertices of the unknown faces, numbered in the order of their ids
    ids = _face_vertex_ids(sys.mesh)[unknown]
    used = np.zeros(len(sys.mesh.vertices), dtype=bool)
    used[ids] = True
    rank = np.cumsum(used) - 1
    cv = rank[ids]
    nf, nv = len(cv), int(rank[-1]) + 1
    # coarse ids of each unknown face's breakpoints: its vertices, and its
    # own interior breakpoints numbered after all vertices
    cv = np.column_stack((cv[:, 0], nv + np.arange(nf * (m - 1)).reshape(nf, m - 1),
                          cv[:, 1]))
    n_coarse, k = nv + nf * (m - 1), m + 1
    face_cv = np.full((len(unknown), k), -1)
    face_cv[unknown] = cv
    Ploc = trace_hats(m, (nd - 1) // m)
    # k entries per trace dof, at its face's breakpoints: Q's column j holds
    # Ploc^T times column j of its face's S_FF
    QF = Ploc.T @ sys.S_blocks  # (faces, k, nd)
    Q = sp.csc_matrix((QF.swapaxes(1, 2).ravel(),
                       np.broadcast_to(cv[:, None], (nf, nd, k)).ravel(),
                       np.arange(0, k * zhat + 1, k)), shape=(n_coarse, zhat))

    Sc_terms = [(cv, QF @ Ploc)]
    for group in sys.groups:
        ns = group.face_ids.shape[1]
        KL = (group.K_fold.reshape(-1, ns, nd) @ Ploc).reshape(-1, ns, nd, ns * k)
        ids = face_cv[group.face_ids].reshape(-1, ns * k)
        LKL = (Ploc.T @ KL).reshape(-1, ns * k, ns * k)
        Sc_terms.append((ids, -np.repeat(LKL, group.members, axis=0)))
    if n_coarse <= COARSE_DENSE_MAX_DOFS:
        Sc = _summed_dense(Sc_terms, n_coarse)
        lu = _lu(Sc)
    else:
        Sc = _summed_columns(Sc_terms, n_coarse)
        try:
            lu = spla.splu(Sc, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            lu = None
    if lu is None:
        raise SingularCoarseOperator(n_coarse)
    return CoarseSpace(cv, Ploc, Q, Sc, lu, time.perf_counter() - t0)


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
    t_init_s: float  # condense and the right-hand side, coarse set-up excluded
    t_local_s: float  # matrix-free applies inside GMRES, P included
    t_global_s: float  # the rest of GMRES
    t_schur_s: float  # building the explicit P S (mb; 0 in mf)
    t_reconstruct_s: float
    # coarse space: its size and the time to build and factor it (outside
    # t_init_s), 0 when solve() uses none
    coarse_dofs: int
    t_coarse_s: float
    # load-balance factor of the pooled matrix-free applies but the first
    # (WorkerPool); 1.0 in mode mb, where no pooled work runs
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


def assemble_system(
    mesh: MacroMesh, problem: ProblemData, stab: StabilizationConfig, p: int,
):
    """Group the macros by congruence class and assemble all classes in one
    batched pass (assemble_classes): A, B and C of each class from its first
    macro, and R_u of every macro.  The face blocks of all unknown faces
    come from one vectorized pass.  p is an integer in 1..9 (quadrature
    degree 2 p + 2 at most 20)."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise ValueError(f"p must be an integer, got {p!r}")
    if not 1 <= p <= 9:
        raise ValueError(f"p must lie in 1..9, got {p}")
    return (assemble_classes(mesh, mesh.congruence_classes(), p, problem, stab),
            face_operators(mesh, p, problem))


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
    # on M S uhat = M f, M = P + Q_c - P S Q_c with Q_c = Pc S_c^-1 Pc^T
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
            w = v - _face_product(sys.P_blocks, _apply_cab(sys, v))
            t_local += time.perf_counter() - t0
            return w
    t0 = time.perf_counter()
    rhs = _face_product(sys.P_blocks, sys.f_vec)
    if coarse is not None:
        smooth = op
        op = lambda v: coarse.correct(smooth(v), smooth)
        rhs = coarse.correct(rhs, smooth)
    # the right-hand side is set-up: its apply in mf goes into t_init_s, not
    # into t_local_s with the applies inside GMRES
    t_init += time.perf_counter() - t0
    t_local = 0.0

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
