"""Static condensation and the global trace solve.

The block system [A B; C D][U; uhat] = [R_u; R_uhat] is reduced to
(D - C A^-1 B) uhat = R_uhat - C A^-1 R_u.  The Schur operator is applied
matrix-free through four steps (B, A^-1, C per macro, then the face reduction
D uhat minus a fixed-order scatter of the macro outputs) or as an explicitly
scattered sparse matrix.  Both share a restarted GMRES, preconditioned by
the block-diagonal D^-1 as one sparse matrix.  Its blocks are exact inverses:
assembly builds D_F = c_F M_F with c_F < 0, a negative multiple of the face
mass matrix, so condense inverts every block once.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    LocalOperators,
    ProblemData,
    StabilizationConfig,
    assemble_face,
    assemble_macro,
)
from .mesh import MacroMesh


class SingularLocalBlock(RuntimeError):
    pass


class SingularFaceBlock(RuntimeError):
    pass


@dataclass
class SolverConfig:
    tol: float = 1e-6
    restart: int = 100
    maxiter: int = 10000
    preconditioner: str = "dinv"  # 'dinv' | 'none'
    mode: str = "mf"  # 'mf' | 'mb'
    workers: int = 1

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise ValueError("tolerance must lie in (0, 1)")
        if self.preconditioner not in ("dinv", "none"):
            raise ValueError(f"unknown preconditioner {self.preconditioner!r}")
        if self.mode not in ("mf", "mb"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("restart", "maxiter", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


class WorkerPool:
    """Static round-robin scheduling of independent tasks onto threads.

    The partition of items to workers is fixed, so results never depend on
    the worker count; per-worker busy time is accumulated for the LBF."""

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))
        self.busy = np.zeros(self.workers)
        self._ex = (
            ThreadPoolExecutor(max_workers=self.workers) if self.workers > 1 else None
        )

    def map(self, fn: Callable, items) -> list:
        items = list(items)
        results = [None] * len(items)

        def run_chunk(w):
            # thread CPU time: excludes waits, so the balance factor reflects
            # the work split rather than scheduler noise
            t0 = time.thread_time()
            for i in range(w, len(results), self.workers):
                results[i] = fn(items[i])
            self.busy[w] += time.thread_time() - t0

        if self._ex is None:
            run_chunk(0)
        else:
            futs = [self._ex.submit(run_chunk, w) for w in range(self.workers)]
            for f in futs:
                f.result()
        return results

    @property
    def lbf(self) -> float:
        mx = float(self.busy.max(initial=0.0))
        if mx == 0.0:
            return 1.0
        return float(self.busy.mean()) / mx

    def close(self):
        if self._ex is not None:
            self._ex.shutdown(wait=True)
            self._ex = None


def _factorize_local(op: LocalOperators) -> None:
    if op.storage == "dense":
        lu, piv = sla.lu_factor(op.A)
        diag = np.abs(np.diag(lu))
        if diag.min() <= 1e-13 * max(float(np.abs(op.A).max()), 1e-300):
            raise SingularLocalBlock(op.macro_id)
        op.lu = ("dense", (lu, piv))
    else:
        fac = spla.splu(sp.csc_matrix(op.A))
        diag = np.abs(fac.U.diagonal())
        amax = float(np.abs(op.A.data).max()) if op.A.nnz else 0.0
        if diag.min() <= 1e-13 * max(amax, 1e-300):
            raise SingularLocalBlock(op.macro_id)
        op.lu = ("sparse", fac)


def _solve_local(op: LocalOperators, rhs: np.ndarray) -> np.ndarray:
    kind, fac = op.lu
    return sla.lu_solve(fac, rhs) if kind == "dense" else fac.solve(rhs)


def _invert_face_blocks(fids: list, blocks: np.ndarray) -> np.ndarray:
    """Batched inverses of equally sized face blocks.  A block is singular
    when its LU has a zero pivot, or when its inverse is not finite or has
    max|D_F| max|D_F^-1| >= 1e13 (a pivot below about 1e-13 max|D_F|)."""
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
    local_ops: list
    face_ops: dict  # face id -> FaceOperator, unknown faces only
    offsets: dict  # face id -> (start, ndofs) in the global trace vector
    zhat: int
    f_vec: np.ndarray
    pool: WorkerPool
    # per macro: boolean mask of unknown slot positions and their global indices
    gather_mask: list = field(default_factory=list)
    gather_idx: list = field(default_factory=list)
    # per unknown face: (face id, start, nd, [(macro id, slot slice), ...])
    face_plan: list = field(default_factory=list)
    D: Optional[sp.csr_matrix] = None  # block diagonal, trace order
    Dinv: Optional[sp.csr_matrix] = None
    # step 4: entries of the concatenated macro outputs C A^-1 B u_e and the
    # trace dofs they are subtracted from, in face_plan order
    reduce_src: Optional[np.ndarray] = None
    reduce_dst: Optional[np.ndarray] = None
    counters: dict = field(default_factory=lambda: {"macro_apply": 0, "face_reduce": 0})
    timings: dict = field(default_factory=lambda: {"local": 0.0, "global": 0.0})

    @property
    def dof_local(self) -> int:
        return int(sum(op.R_u.size for op in self.local_ops))

    def gather(self, uhat: np.ndarray, e: int) -> np.ndarray:
        ue = np.zeros(self.local_ops[e].B.shape[1])
        ue[self.gather_mask[e]] = uhat[self.gather_idx[e]]
        return ue


def condense(
    mesh: MacroMesh,
    local_ops: list,
    face_ops: dict,
    config: SolverConfig,
    pool: Optional[WorkerPool] = None,
) -> CondensedSystem:
    """Factorize local blocks, build D and D^-1 and the reduced right-hand
    side f = R_uhat - C A^-1 R_u."""
    pool = pool or WorkerPool(config.workers)
    pool.map(_factorize_local, local_ops)

    offsets = {}
    pos = 0
    for face in mesh.skeleton:
        if face.tag == "D":
            continue
        nd = face_ops[face.id].D.shape[0]
        offsets[face.id] = (pos, nd)
        pos += nd
    zhat = pos

    sys = CondensedSystem(
        mesh=mesh, local_ops=local_ops,
        face_ops=face_ops, offsets=offsets, zhat=zhat,
        f_vec=np.zeros(zhat), pool=pool,
    )

    for e, op in enumerate(local_ops):
        mask = np.zeros(op.B.shape[1], dtype=bool)
        idx = []
        for fid, slot in op.face_slots:
            if fid in offsets:
                start, nd = offsets[fid]
                mask[slot] = True
                idx.extend(range(start, start + nd))
        sys.gather_mask.append(mask)
        sys.gather_idx.append(np.array(idx, dtype=np.int64))

    vstart = np.cumsum([0] + [op.C.shape[0] for op in local_ops])
    side_slots = {}
    for e, op in enumerate(local_ops):
        for fid, slot in op.face_slots:
            if fid in offsets:
                side_slots.setdefault(fid, []).append((e, slot))
    src, dst = [], []
    for face in mesh.skeleton:
        if face.id not in offsets:
            continue
        start, nd = offsets[face.id]
        # fixed reduction order: left side first, then right
        order = []
        for side in face.sides():
            for (e, slot) in side_slots.get(face.id, []):
                if e == side.macro and (e, slot) not in order:
                    order.append((e, slot))
                    src.extend(range(vstart[e] + slot.start, vstart[e] + slot.stop))
                    dst.extend(range(start, start + nd))
                    break
        sys.face_plan.append((face.id, start, nd, order))
    sys.reduce_src = np.array(src, dtype=np.int64)
    sys.reduce_dst = np.array(dst, dtype=np.int64)
    sys.D, sys.Dinv = _face_block_matrices(sys)

    # reduced RHS
    def macro_rhs(e):
        op = local_ops[e]
        return op.C @ _solve_local(op, op.R_u)

    contrib = pool.map(macro_rhs, range(len(local_ops)))
    for fid, start, nd, _ in sys.face_plan:
        sys.f_vec[start:start + nd] = face_ops[fid].R_hat
    _reduce_faces(sys, sys.f_vec, contrib)
    return sys


def _face_block_matrices(sys: CondensedSystem):
    """D and D^-1 as block-diagonal CSR matrices.  Each face block fills rows
    start..start+nd, so its entries are one contiguous run of the data array;
    blocks of equal size are inverted in one batched call."""
    fids = [plan[0] for plan in sys.face_plan]
    starts = np.array([plan[1] for plan in sys.face_plan], dtype=np.int64)
    sizes = np.array([plan[2] for plan in sys.face_plan], dtype=np.int64)
    row_len = np.repeat(sizes, sizes)
    indptr = np.concatenate(([0], np.cumsum(row_len)))
    nnz = int(indptr[-1])
    indices = (np.repeat(np.repeat(starts, sizes), row_len)
               + np.arange(nnz) - np.repeat(indptr[:-1], row_len))
    data, data_inv = np.empty(nnz), np.empty(nnz)
    first = indptr[starts]
    for nd in np.unique(sizes):
        sel = np.flatnonzero(sizes == nd)
        blocks = np.stack([sys.face_ops[fids[i]].D for i in sel])
        at = first[sel, None] + np.arange(nd * nd)
        data[at] = blocks.reshape(sel.size, -1)
        inv = _invert_face_blocks([fids[i] for i in sel], blocks)
        data_inv[at] = inv.reshape(sel.size, -1)
    shape = (sys.zhat, sys.zhat)
    return (sp.csr_matrix((data, indices, indptr), shape=shape),
            sp.csr_matrix((data_inv, indices, indptr), shape=shape))


def _reduce_faces(sys: CondensedSystem, w: np.ndarray, vhat: list) -> np.ndarray:
    """w -= the macro contributions vhat, in place, in face_plan order."""
    np.subtract.at(w, sys.reduce_dst, np.concatenate(vhat)[sys.reduce_src])
    return w


def apply_schur(sys: CondensedSystem, uhat: np.ndarray) -> np.ndarray:
    """(D - C A^-1 B) uhat via the four matrix-free steps."""
    t0 = time.perf_counter()

    def macro_task(e):
        op = sys.local_ops[e]
        ue = sys.gather(uhat, e)
        x = op.B @ ue            # step 1
        y = _solve_local(op, x)  # step 2
        return op.C @ y          # step 3

    vhat = sys.pool.map(macro_task, range(len(sys.local_ops)))
    sys.counters["macro_apply"] += len(sys.local_ops)
    sys.timings["local"] += time.perf_counter() - t0

    w = _reduce_faces(sys, sys.D @ uhat, vhat)  # step 4
    sys.counters["face_reduce"] += len(sys.face_plan)
    return w


def apply_preconditioner(sys: CondensedSystem, w: np.ndarray) -> np.ndarray:
    """Block-diagonal D^-1 as one sparse product."""
    return sys.Dinv @ w


def gmres(
    apply_op: Callable,
    rhs: np.ndarray,
    config: SolverConfig,
    precond: Optional[Callable] = None,
):
    """Restarted GMRES with left preconditioning; the stopping test uses the
    preconditioned relative residual."""
    n = rhs.size
    M = precond if precond is not None else (lambda v: v)
    x = np.zeros(n)
    history = []
    mb = M(rhs)
    bnorm = float(np.linalg.norm(mb))
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual_history": [0.0], "converged": True}
    it = 0
    converged = False
    while it < config.maxiter and not converged:
        r = M(rhs - apply_op(x))
        beta = float(np.linalg.norm(r))
        if not history:
            history.append(beta)
        if beta / bnorm <= config.tol:
            converged = True
            break
        V = np.zeros((config.restart + 1, n))
        H = np.zeros((config.restart + 1, config.restart))
        cs = np.zeros(config.restart)
        sn = np.zeros(config.restart)
        g = np.zeros(config.restart + 1)
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        breakdown = False
        for k in range(config.restart):
            # copy: the operator or preconditioner may return its input
            wv = np.array(M(apply_op(V[k])), dtype=float)
            for i in range(k + 1):  # modified Gram-Schmidt
                H[i, k] = float(V[i] @ wv)
                wv -= H[i, k] * V[i]
            H[k + 1, k] = float(np.linalg.norm(wv))
            if H[k + 1, k] > 1e-300:
                V[k + 1] = wv / H[k + 1, k]
            else:
                breakdown = True
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            denom = float(np.hypot(H[k, k], H[k + 1, k]))
            if denom == 0.0:
                k_used = k + 1
                breakdown = True
                break
            cs[k], sn[k] = H[k, k] / denom, H[k + 1, k] / denom
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            it += 1
            res = abs(g[k + 1])
            history.append(res)
            k_used = k + 1
            if res / bnorm <= config.tol:
                converged = True
                break
            if breakdown or it >= config.maxiter:
                break
        if k_used > 0:
            y = sla.solve_triangular(H[:k_used, :k_used], g[:k_used])
            x = x + V[:k_used].T @ y
        if breakdown and not converged:
            break  # invariant Krylov subspace; no further progress possible
    if not converged:
        r = M(rhs - apply_op(x))
        converged = float(np.linalg.norm(r)) / bnorm <= config.tol
    return x, {"iterations": it, "residual_history": history, "converged": converged}


def assemble_schur_explicit(sys: CondensedSystem) -> sp.csr_matrix:
    """Explicit D - C A^-1 B: the macro blocks scattered by trace indices,
    plus the block-diagonal D."""
    rows, cols, vals = [], [], []

    def macro_task(e):
        op = sys.local_ops[e]
        mask = sys.gather_mask[e]
        if not mask.any():
            return None
        Y = _solve_local(op, op.B[:, mask])
        return -(op.C[mask] @ Y)

    blocks = sys.pool.map(macro_task, range(len(sys.local_ops)))
    for e, blk in enumerate(blocks):
        if blk is None:
            continue
        gi = sys.gather_idx[e]
        rows.append(np.repeat(gi, gi.size))
        cols.append(np.tile(gi, gi.size))
        vals.append(blk.ravel())
    S = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(sys.zhat, sys.zhat),
    )
    return S.tocsr() + sys.D


def reconstruct_interior(sys: CondensedSystem, uhat: np.ndarray) -> list:
    """Per macro, solve A U = R_u - B uhat with the stored factorization."""

    def macro_task(e):
        op = sys.local_ops[e]
        rhs = op.R_u - op.B @ sys.gather(uhat, e)
        return _solve_local(op, rhs)

    return sys.pool.map(macro_task, range(len(sys.local_ops)))


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
    precond: str
    t_init_s: float
    t_local_s: float
    t_global_s: float
    t_reconstruct_s: float
    lbf: float
    worker_busy: list
    residual_history: list

    def to_record(self) -> dict:
        return {
            "p": self.p, "m": self.m, "n": self.n,
            "dof_local": self.dof_local, "dof_global": self.dof_global,
            "iterations": self.iterations, "converged": self.converged,
            "tol": self.tol, "mode": self.mode, "precond": self.precond,
            "t_init_s": self.t_init_s, "t_local_s": self.t_local_s,
            "t_global_s": self.t_global_s,
            "t_reconstruct_s": self.t_reconstruct_s, "lbf": self.lbf,
        }


@dataclass
class Solution:
    local: list  # per macro [q_x | q_y | u] coefficient vectors
    uhat: np.ndarray
    report: SolveReport

    def u_coeffs(self, e: int) -> np.ndarray:
        v = self.local[e]
        Q = v.size // 3
        return v[2 * Q:]

    def q_coeffs(self, e: int) -> np.ndarray:
        v = self.local[e]
        Q = v.size // 3
        return v[:2 * Q].reshape(2, Q)


def assemble_system(
    mesh: MacroMesh, problem: ProblemData, stab: StabilizationConfig,
    p: int, pool: WorkerPool,
):
    local_ops = pool.map(
        lambda e: assemble_macro(mesh, e, p, problem, stab), mesh.macro_elements
    )
    unknown = [f for f in mesh.skeleton if f.tag != "D"]
    ops = pool.map(lambda f: assemble_face(mesh, f, p, problem, stab), unknown)
    face_ops = {f.id: op for f, op in zip(unknown, ops)}
    return local_ops, face_ops


def solve(
    mesh: MacroMesh,
    problem: ProblemData,
    stab: StabilizationConfig,
    config: SolverConfig,
    p: int,
):
    """Assemble, condense, run GMRES on the trace system and reconstruct."""
    pool = WorkerPool(config.workers)
    try:
        local_ops, face_ops = assemble_system(mesh, problem, stab, p, pool)
        t0 = time.perf_counter()
        sys = condense(mesh, local_ops, face_ops, config, pool=pool)
        t_init = time.perf_counter() - t0

        precond = None
        if config.preconditioner == "dinv":
            precond = lambda w: apply_preconditioner(sys, w)
        if config.mode == "mb":
            S = assemble_schur_explicit(sys)
            op = lambda v: S @ v
        else:
            op = lambda v: apply_schur(sys, v)

        sys.timings["local"] = 0.0
        t0 = time.perf_counter()
        uhat, info = gmres(op, sys.f_vec, config, precond=precond)
        t_gmres = time.perf_counter() - t0
        t_local = sys.timings["local"]

        t0 = time.perf_counter()
        local = reconstruct_interior(sys, uhat)
        t_rec = time.perf_counter() - t0

        report = SolveReport(
            p=p, m=mesh.macro_elements[0].m, n=mesh.n,
            dof_local=sys.dof_local, dof_global=sys.zhat,
            iterations=info["iterations"], converged=info["converged"],
            tol=config.tol, mode=config.mode, precond=config.preconditioner,
            t_init_s=t_init, t_local_s=t_local,
            t_global_s=max(t_gmres - t_local, 0.0), t_reconstruct_s=t_rec,
            lbf=pool.lbf, worker_busy=list(pool.busy),
            residual_history=info["residual_history"],
        )
        return Solution(local=local, uhat=uhat, report=report), sys
    finally:
        pool.close()
