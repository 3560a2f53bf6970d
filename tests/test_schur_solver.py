"""Condensation, matrix-free Schur application, GMRES and reconstruction."""

import threading

import numpy as np
import pytest

from conftest import poly_case, solve_poly

from mehdg.assembly import StabilizationConfig
from mehdg.fem_basis import TraceBasis, build_patch_dof_map
from mehdg.mesh import build_structured_macro_mesh
from mehdg.schur_solver import (
    SingularFaceBlock,
    SingularLocalBlock,
    SolverConfig,
    WorkerPool,
    apply_preconditioner,
    apply_schur,
    assemble_schur_explicit,
    assemble_system,
    condense,
    gmres,
    reconstruct_interior,
    solve,
)

NO_STAB = StabilizationConfig()


def build_system(n, m, p, case=None, workers=1, tol=1e-6):
    case = case or poly_case(2)
    mesh = build_structured_macro_mesh(2, n, m)
    config = SolverConfig(tol=tol, workers=workers)
    pool = WorkerPool(workers)
    local_ops, face_ops = assemble_system(mesh, case.problem(), NO_STAB, p, pool)
    sys = condense(mesh, local_ops, face_ops, config, pool=pool)
    return mesh, sys


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=2.0)
    with pytest.raises(ValueError):
        SolverConfig(preconditioner="ilu")
    with pytest.raises(ValueError):
        SolverConfig(mode="magic")
    for name in ("restart", "maxiter", "workers"):
        with pytest.raises(ValueError):
            SolverConfig(**{name: 0})
        with pytest.raises(ValueError):
            SolverConfig(**{name: -1})


def test_condense_zero_data():
    zero_case = poly_case(1)
    zero_case = type(zero_case)(
        name="zero", kappa=1.0, a=zero_case.a,
        u_exact=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        grad_u=lambda x: np.zeros((np.atleast_2d(x).shape[0], 2)),
        f=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
    )
    _, sys = build_system(2, 2, 2, case=zero_case)
    assert np.abs(sys.f_vec).max() == 0.0


def test_condense_single_cell_dof_count():
    mesh, sys = build_system(1, 1, 1)
    assert sys.zhat == 2  # one interior face, p + 1 trace dofs


def test_global_dof_counting_oracle():
    for n, m, p in ((2, 2, 2), (4, 1, 3), (2, 4, 2)):
        mesh, sys = build_system(n, m, p)
        expect = sum(f.m_f * p + 1 for f in mesh.skeleton if f.tag != "D")
        assert sys.zhat == expect


def test_manufactured_linear_trace():
    """u* = x + y with a = 0: trace dofs reproduce u* exactly."""
    case = poly_case(1, a=(0.0, 0.0))
    mesh, sys = build_system(2, 2, 2, case=case)
    S = assemble_schur_explicit(sys)
    import scipy.sparse.linalg as spla

    uhat = spla.spsolve(S.tocsc(), sys.f_vec)
    psi = {}
    for face in mesh.skeleton:
        if face.id not in sys.offsets:
            continue
        start, nd = sys.offsets[face.id]
        basis = psi.setdefault(face.m_f, TraceBasis(face.m_f, 2))
        pts = face.verts[0][None, :] + basis.nodes[:, None] * (
            face.verts[1] - face.verts[0])[None, :]
        assert np.abs(uhat[start:start + nd] - case.u_exact(pts)).max() < 1e-10


def test_apply_schur_zero_and_linearity():
    _, sys = build_system(2, 2, 2)
    assert np.abs(apply_schur(sys, np.zeros(sys.zhat))).max() == 0.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal(sys.zhat)
    y = rng.standard_normal(sys.zhat)
    lhs = apply_schur(sys, 2.0 * x + 3.0 * y)
    rhs = 2.0 * apply_schur(sys, x) + 3.0 * apply_schur(sys, y)
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("n,m,p", [(2, 1, 1), (2, 2, 2), (3, 2, 3)])
def test_matrix_free_matches_explicit(n, m, p):
    _, sys = build_system(n, m, p)
    S = assemble_schur_explicit(sys)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.standard_normal(sys.zhat)
        mf = apply_schur(sys, x)
        mb = S @ x
        assert np.linalg.norm(mf - mb) <= 1e-10 * np.linalg.norm(mb)


def test_two_macro_call_counts():
    """On the two-macro mesh one operator application is exactly two macro
    computations plus one face reduction."""
    _, sys = build_system(1, 1, 1)
    sys.counters["macro_apply"] = 0
    sys.counters["face_reduce"] = 0
    apply_schur(sys, np.ones(sys.zhat))
    assert sys.counters["macro_apply"] == 2
    assert sys.counters["face_reduce"] == 1


def test_call_counts_exact_with_workers():
    """Counts stay exact when the macros are split over eight partitions."""
    _, sys = build_system(3, 2, 1, workers=8)
    x = np.ones(sys.zhat)
    for _ in range(20):
        apply_schur(sys, x)
    assert sys.counters["macro_apply"] == 20 * len(sys.local_ops)
    assert sys.counters["face_reduce"] == 20 * len(sys.face_plan)


def test_preconditioner_round_trip():
    _, sys = build_system(2, 2, 2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(sys.zhat)
    w = np.empty_like(x)
    for fid, start, nd, _ in sys.face_plan:
        w[start:start + nd] = sys.face_ops[fid].D @ x[start:start + nd]
    back = apply_preconditioner(sys, w)
    assert np.abs(back - x).max() < 1e-12 * max(1.0, np.abs(x).max())


def test_preconditioner_identity_blocks():
    mesh = build_structured_macro_mesh(2, 2, 1)
    pool = WorkerPool(1)
    local_ops, face_ops = assemble_system(mesh, poly_case(2).problem(), NO_STAB, 1, pool)
    for op in face_ops.values():
        op.D = np.eye(op.D.shape[0])
    sys = condense(mesh, local_ops, face_ops, SolverConfig(), pool=pool)
    x = np.arange(1.0, sys.zhat + 1.0)
    assert np.array_equal(apply_preconditioner(sys, x), x)


def test_preconditioned_operator_structure():
    """M S x = x - D^-1 (C A^-1 B) x, checked against a dense oracle."""
    import scipy.linalg as sla

    _, sys = build_system(1, 1, 1)
    S = assemble_schur_explicit(sys).toarray()
    op = sys.local_ops  # two macros
    D = np.zeros((sys.zhat, sys.zhat))
    CAB = np.zeros((sys.zhat, sys.zhat))
    for fid, start, nd, _ in sys.face_plan:
        D[start:start + nd, start:start + nd] = sys.face_ops[fid].D
    for e, o in enumerate(op):
        mask = sys.gather_mask[e]
        gi = sys.gather_idx[e]
        blk = o.C[mask] @ sla.lu_solve(o.lu[1], o.B[:, mask])
        CAB[np.ix_(gi, gi)] += blk
    rng = np.random.default_rng(4)
    x = rng.standard_normal(sys.zhat)
    lhs = apply_preconditioner(sys, apply_schur(sys, x))
    rhs = x - np.linalg.solve(D, CAB @ x)
    assert np.abs(lhs - rhs).max() < 1e-11 * max(1.0, np.abs(rhs).max())
    assert np.abs(S - (D - CAB)).max() < 1e-11 * np.abs(S).max()


def test_face_factorization_kinds():
    """Every face block D_F = c_F M_F is negative definite, and the stored
    block-diagonal D^-1 inverts the stored D."""
    _, sys = build_system(2, 2, 2)
    for fid, start, nd, _ in sys.face_plan:
        D = sys.face_ops[fid].D
        assert np.linalg.eigvalsh(D).max() < 0
        assert np.array_equal(sys.D[start:start + nd, start:start + nd].toarray(), D)
    assert np.abs((sys.Dinv @ sys.D).toarray() - np.eye(sys.zhat)).max() < 1e-12


def test_face_block_matrices_mixed_sizes():
    """Blocks of different sizes land on the diagonal in trace order and
    each is inverted."""
    from types import SimpleNamespace

    import scipy.linalg as sla

    from mehdg.schur_solver import _face_block_matrices

    rng = np.random.default_rng(3)
    face_ops, plan, start = {}, [], 0
    for fid, nd in enumerate([3, 2, 3, 1, 2]):
        G = rng.standard_normal((nd, nd))
        face_ops[fid] = SimpleNamespace(D=-(G @ G.T + nd * np.eye(nd)))
        plan.append((fid, start, nd, []))
        start += nd
    fake = SimpleNamespace(face_plan=plan, face_ops=face_ops, zhat=start)
    D, Dinv = _face_block_matrices(fake)
    dense = sla.block_diag(*(op.D for op in face_ops.values()))
    assert np.array_equal(D.toarray(), dense)
    assert np.abs(Dinv.toarray() - np.linalg.inv(dense)).max() < 1e-12


@pytest.mark.parametrize("bad", ["tiny-pivot", "nan"])
def test_near_singular_face_block(bad):
    mesh = build_structured_macro_mesh(2, 1, 1)
    pool = WorkerPool(1)
    local_ops, face_ops = assemble_system(mesh, poly_case(2).problem(), NO_STAB, 1, pool)
    op = face_ops[next(iter(face_ops))]
    if bad == "nan":
        op.D = np.full_like(op.D, np.nan)
    else:
        op.D = np.diag([1.0] + [1e-15] * (op.D.shape[0] - 1))
    with pytest.raises(SingularFaceBlock):
        condense(mesh, local_ops, face_ops, SolverConfig(), pool=pool)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_local_block():
    case = poly_case(2)
    mesh = build_structured_macro_mesh(2, 1, 1)
    pool = WorkerPool(1)
    local_ops, face_ops = assemble_system(mesh, case.problem(), NO_STAB, 1, pool)
    local_ops[0].A = np.zeros_like(np.asarray(local_ops[0].A))
    with pytest.raises(SingularLocalBlock):
        condense(mesh, local_ops, face_ops, SolverConfig(), pool=pool)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_face_block():
    case = poly_case(2)
    mesh = build_structured_macro_mesh(2, 1, 1)
    pool = WorkerPool(1)
    local_ops, face_ops = assemble_system(mesh, case.problem(), NO_STAB, 1, pool)
    fid = next(iter(face_ops))
    face_ops[fid].D = np.zeros_like(face_ops[fid].D)
    with pytest.raises(SingularFaceBlock):
        condense(mesh, local_ops, face_ops, SolverConfig(), pool=pool)


def test_gmres_identity():
    rhs = np.array([3.0, -1.0, 2.0])
    x, info = gmres(lambda v: v, rhs, SolverConfig(tol=1e-12))
    assert info["converged"] and info["iterations"] == 1
    assert np.abs(x - rhs).max() < 1e-12


def test_gmres_diagonal():
    d = np.arange(1.0, 6.0)
    x, info = gmres(lambda v: d * v, np.ones(5), SolverConfig(tol=1e-12))
    assert info["converged"] and info["iterations"] <= 5
    assert np.abs(x - 1.0 / d).max() < 1e-10


def test_gmres_no_convergence():
    d = np.arange(1.0, 101.0)
    cfg = SolverConfig(tol=1e-14, maxiter=3, restart=3)
    x, info = gmres(lambda v: d * v, np.ones(100), cfg)
    assert not info["converged"]
    assert info["iterations"] == 3
    assert len(info["residual_history"]) >= 2


def test_gmres_stagnation_stops():
    """A 90-degree rotation gives a zero Krylov correction at restart 1: the
    first cycle leaves the residual where it was, so the solve stops."""
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x, info = gmres(lambda v: rot @ v, np.array([1.0, 0.0]),
                    SolverConfig(restart=1, maxiter=2000))
    assert not info["converged"] and info["reason"] == "stagnation"
    assert info["iterations"] <= 2
    assert np.array_equal(x, np.zeros(2))


def test_gmres_zero_rhs():
    x, info = gmres(lambda v: 2 * v, np.zeros(4), SolverConfig())
    assert info["converged"] and np.abs(x).max() == 0.0


def test_explicit_schur_vs_dense_elimination():
    _, sys = build_system(1, 1, 1)
    S = assemble_schur_explicit(sys).toarray()
    # dense block-elimination oracle over the full uncondensed system
    ops = sys.local_ops
    nloc = [o.R_u.size for o in ops]
    ntot = sum(nloc) + sys.zhat
    K = np.zeros((ntot, ntot))
    off = np.concatenate([[0], np.cumsum(nloc)])
    zoff = off[-1]
    for e, o in enumerate(ops):
        K[off[e]:off[e + 1], off[e]:off[e + 1]] = np.asarray(o.A)
        mask = sys.gather_mask[e]
        gi = sys.gather_idx[e]
        K[off[e]:off[e + 1], zoff + gi] = o.B[:, mask]
        K[zoff + gi, off[e]:off[e + 1]] = o.C[mask]
    for fid, start, nd, _ in sys.face_plan:
        K[zoff + start:zoff + start + nd, zoff + start:zoff + start + nd] += (
            sys.face_ops[fid].D)
    Auu = K[:zoff, :zoff]
    S_oracle = K[zoff:, zoff:] - K[zoff:, :zoff] @ np.linalg.solve(Auu, K[:zoff, zoff:])
    assert np.abs(S - S_oracle).max() < 1e-11 * np.abs(S_oracle).max()


def test_explicit_schur_adjacency():
    mesh, sys = build_system(3, 1, 1)
    S = assemble_schur_explicit(sys).toarray()
    # face id -> set of adjacent macros
    adj = {f.id: {s.macro for s in f.sides()} for f in mesh.skeleton
           if f.id in sys.offsets}
    owner = np.empty(sys.zhat, dtype=int)
    for fid, (start, nd) in sys.offsets.items():
        owner[start:start + nd] = fid
    nz = np.argwhere(np.abs(S) > 1e-14)
    for i, j in nz:
        assert adj[owner[i]] & adj[owner[j]], "coupling between unrelated faces"


def test_explicit_schur_symmetry():
    case = poly_case(2, a=(0.0, 0.0))
    _, sys = build_system(2, 2, 2, case=case)
    S = assemble_schur_explicit(sys).toarray()
    assert np.abs(S - S.T).max() < 1e-10 * np.abs(S).max()


def test_reconstruct_zero():
    zero_case = poly_case(1)
    zero_case = type(zero_case)(
        name="zero", kappa=1.0, a=zero_case.a,
        u_exact=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        grad_u=lambda x: np.zeros((np.atleast_2d(x).shape[0], 2)),
        f=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
    )
    _, sys = build_system(2, 2, 2, case=zero_case)
    out = reconstruct_interior(sys, np.zeros(sys.zhat))
    assert max(np.abs(v).max() for v in out) < 1e-14


def test_reconstruct_patch_test_nodal_values():
    case = poly_case(1, a=(0.0, 0.0))
    mesh, solution, _, _ = _solve_case(case, 2, 2, 2)
    for e, macro in enumerate(mesh.macro_elements):
        dofmap = build_patch_dof_map(macro, 2)
        nodes = macro.affine_map().to_physical(dofmap.node_ref_coords)
        assert np.abs(solution.u_coeffs(e) - case.u_exact(nodes)).max() < 1e-9


def _solve_case(case, n, m, p, **kw):
    mesh = build_structured_macro_mesh(2, n, m)
    config = SolverConfig(tol=kw.pop("tol", 1e-12), mode=kw.pop("mode", "mb"),
                          workers=kw.pop("workers", 1), **kw)
    solution, sys = solve(mesh, case.problem(), NO_STAB, config, p)
    return mesh, solution, sys, config


def test_full_system_residual():
    case = poly_case(3, kappa=0.4)
    tol = 1e-8
    mesh = build_structured_macro_mesh(2, 2, 2)
    config = SolverConfig(tol=tol, mode="mf")
    solution, sys = solve(mesh, case.problem(), NO_STAB, config, 2)
    rhs_norm = max(np.linalg.norm(sys.f_vec), 1e-300)
    # trace-equation residual of the condensed system
    res = apply_schur(sys, solution.uhat) - sys.f_vec
    assert np.linalg.norm(res) <= 10 * tol * rhs_norm
    # local equations are satisfied by construction of the reconstruction
    for e, op in enumerate(sys.local_ops):
        lr = np.asarray(op.A) @ solution.local[e] + op.B @ sys.gather(
            solution.uhat, e) - op.R_u
        assert np.abs(lr).max() < 1e-9 * max(1.0, np.abs(op.R_u).max())


def test_determinism_across_workers():
    case = poly_case(2)
    ref = None
    for workers in (1, 2, 8):
        _, solution, _, _ = _solve_case(case, 2, 2, 2, workers=workers, tol=1e-10)
        if ref is None:
            ref = solution.uhat
        else:
            assert np.array_equal(ref, solution.uhat)


def test_preconditioner_soundness():
    """On the advection-dominated benchmark the block preconditioner never
    increases the iteration count (it roughly halves it)."""
    from mehdg.bench import make_benchmark

    case = make_benchmark("tanh", 1e-5, (1.0, 1.0))
    for p in (1, 2, 3):
        for m in (1, 2):
            its = {}
            for pre in ("dinv", "none"):
                mesh = build_structured_macro_mesh(2, 8 // m, m)
                cfg = SolverConfig(tol=1e-6, preconditioner=pre, mode="mb")
                sol, _ = solve(mesh, case.problem(), NO_STAB, cfg, p)
                its[pre] = sol.report.iterations
            assert its["dinv"] <= its["none"]


def test_linearity_scaling():
    case = poly_case(2, kappa=0.8)
    scaled = type(case)(
        name="scaled", kappa=case.kappa, a=case.a,
        u_exact=lambda x: 3.0 * case.u_exact(x),
        grad_u=lambda x: 3.0 * case.grad_u(x),
        f=lambda x: 3.0 * case.f(x),
    )
    _, s1, _, _ = _solve_case(case, 2, 2, 2)
    _, s3, _, _ = _solve_case(scaled, 2, 2, 2)
    assert np.abs(s3.uhat - 3.0 * s1.uhat).max() < 1e-12 * max(
        1.0, np.abs(s3.uhat).max())
    for e in range(len(s1.local)):
        assert np.abs(s3.local[e] - 3.0 * s1.local[e]).max() < 1e-11 * max(
            1.0, np.abs(s3.local[e]).max())


def test_solve_report_record():
    _, solution, _, _ = _solve_case(poly_case(2), 2, 2, 2)
    rec = solution.report.to_record()
    for key in ("p", "m", "n", "dof_local", "dof_global", "iterations",
                "converged", "tol", "mode", "precond", "t_init_s",
                "t_local_s", "t_global_s", "t_reconstruct_s", "lbf"):
        assert key in rec
    assert rec["converged"] is True
    assert rec["t_reconstruct_s"] == solution.report.t_reconstruct_s > 0.0
    assert 0.0 < rec["lbf"] <= 1.0
    assert rec["dof_local"] == sum(
        3 * ((2 * m_p + 2) * (2 * m_p + 1) // 2) for m_p in [2] * 8)


def test_worker_pool_static_partition():
    pool = WorkerPool(3)
    out = pool.map(lambda v: v * v, range(10))
    assert out == [v * v for v in range(10)]
    assert pool.busy.shape == (3,)
    assert 0.0 < pool.lbf <= 1.0
    seen = []
    pool.map(seen.append, range(7))
    assert seen == [0, 3, 6, 1, 4, 2, 5]  # partition w runs w, w + 3, ...


def test_worker_pool_runs_on_calling_thread():
    out = WorkerPool(4).map(lambda _: threading.get_ident(), range(8))
    assert set(out) == {threading.get_ident()}
