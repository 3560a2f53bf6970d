"""The two-level trace preconditioner: the P1 coarse space on the sub-cell
vertices of the skeleton, its operator built from the class blocks, and the
rule by which solve() uses it."""

import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import (
    coarse_prolongation,
    neumann_right,
    over_coarse_factors,
    random_adapted_mesh,
)

from mehdg import schur_solver
from mehdg.assembly import StabilizationConfig
from mehdg.bench import make_benchmark
from mehdg.cli import main
from mehdg.mesh import build_structured_macro_mesh
from mehdg.schur_solver import (
    COARSE_MAX_PECLET,
    COARSE_MIN_TRACE_DOFS,
    SingularCoarseOperator,
    SolverConfig,
    _apply_cab,
    _face_vertex_ids,
    assemble_schur_explicit,
    assemble_system,
    coarse_space,
    condense,
    gmres,
    mesh_peclet,
    solve,
)

NO_STAB = StabilizationConfig()
SMOOTH = make_benchmark("tanh", 0.4, (1.0, 1.0))

COARSE_MESHES = {
    "uniform-6-1": lambda: build_structured_macro_mesh(2, 6, 1),
    "uniform-3-2": lambda: build_structured_macro_mesh(2, 3, 2),
    "adapted-random-2": lambda: random_adapted_mesh(2),
    "neumann-4-2": lambda: build_structured_macro_mesh(2, 4, 2, neumann_right),
}


def condensed(mesh, p=2, problem=None):
    problem = problem or SMOOTH.problem()
    problem.g_N = lambda x: np.sin(3.0 * x[:, 1])
    classes, faces = assemble_system(mesh, problem, NO_STAB, p)
    return condense(mesh, classes, faces, SolverConfig())


def test_face_vertex_ids_match_face_coordinates():
    """The vertex ids that the coarse space reads from the edge records are
    those of each face's vertices in face_verts order, hanging faces
    included."""
    mesh = random_adapted_mesh(2)
    assert (mesh.face_parent >= 0).any()
    ids = _face_vertex_ids(mesh)
    assert np.array_equal(mesh.vertices[ids], mesh.face_verts)


def face_diagonal(S, nd):
    """The face-diagonal blocks of the dense S, blockdiag(S_FF)."""
    blocks = np.zeros_like(S)
    for start in range(0, len(S), nd):
        block = slice(start, start + nd)
        blocks[block, block] = S[block, block]
    return blocks


@pytest.mark.parametrize("name", list(COARSE_MESHES))
def test_coarse_ids_rank_the_vertex_ids(name):
    """The coarse ids of the unknown faces' vertices are the ranks of their
    vertex ids among those vertices (the numbering of np.unique), and the
    faces' interior breakpoints follow, face by face along each face."""
    mesh = COARSE_MESHES[name]()
    sys = condensed(mesh)
    face_coarse = coarse_space(sys).face_coarse
    distinct, rank = np.unique(_face_vertex_ids(mesh)[sys.face_start >= 0], return_inverse=True)
    assert np.array_equal(face_coarse[:, [0, -1]], rank.reshape(-1, 2))
    inner = face_coarse[:, 1:-1]
    assert np.array_equal(inner.ravel(), distinct.size + np.arange(inner.size))


@pytest.mark.parametrize("name,coarse_factor",
                         over_coarse_factors({name: (name,) for name in COARSE_MESHES}),
                         indirect=["coarse_factor"])
def test_coarse_operator_is_galerkin_product(name, coarse_factor):
    """S_c, built from the class blocks without S, equals Pc^T S Pc of the
    explicit S, and Q equals Pc^T times the face-diagonal blocks of S, to
    1e-14 relative, on a uniform mesh, an adapted mesh with hanging faces
    and a mesh with Neumann faces, both as the dense array that getrf
    factors and as the sparse matrix that splu factors; Pc, rebuilt from the
    stored coarse ids of each face's breakpoints, reproduces the P1 hat
    functions of each face's segments at its trace nodes."""
    mesh = COARSE_MESHES[name]()
    if name.startswith("adapted"):
        assert (mesh.face_parent >= 0).any()
    if name.startswith("neumann"):
        assert (mesh.face_tag == "N").any()
    sys = condensed(mesh)
    coarse = coarse_space(sys)
    assert sp.issparse(coarse.Sc) == (coarse_factor == "splu")
    Sc = coarse.Sc.toarray() if sp.issparse(coarse.Sc) else coarse.Sc
    S = assemble_schur_explicit(sys).toarray()
    Pc = coarse_prolongation(sys, coarse)
    galerkin = Pc.T @ S @ Pc
    assert np.abs(Sc - galerkin).max() <= 1e-14 * np.abs(galerkin).max()
    Q = Pc.T @ face_diagonal(S, sys.nd)
    assert np.abs(coarse.Q.toarray() - Q).max() <= 1e-14 * np.abs(Q).max()
    # each trace dof is a convex combination of its segment's two
    # breakpoints, and the coarse space holds the P1 coordinate functions
    assert np.allclose(Pc.sum(axis=1), 1.0) and (Pc >= 0.0).all()
    assert ((Pc > 0.0).sum(axis=1) <= 2).all()
    fv = mesh.face_verts[sys.face_start >= 0]
    nd = sys.nd
    s = np.arange(nd) / (nd - 1)
    nodes = (fv[:, None, 0] + s[:, None] * (fv[:, None, 1] - fv[:, None, 0])).reshape(-1, 2)
    x = np.linalg.lstsq(Pc, nodes, rcond=None)[0]
    assert np.abs(Pc @ x - nodes).max() < 1e-13


def folded_operators(sys):
    """The folded operator v -> P S v of each mode: mb's explicit P S and
    mf's matrix-free apply."""
    PS = assemble_schur_explicit(sys, fold=True)
    return {"mb": lambda v: PS @ v,
            "mf": lambda v: v - (sys.P_blocks @ _apply_cab(sys, v).reshape(-1, sys.nd, 1)).ravel()}


@pytest.mark.parametrize("name", list(COARSE_MESHES))
def test_multiplicative_correction_matches_dense(name):
    """correct(w, smooth), with the folded operator of either mode as
    smooth, is M S v for w = P S v and M f for w = P f, M the dense
    multiplicative M = P + Q_c - P S Q_c, Q_c = Pc S_c^-1 Pc^T, formed from
    the dense explicit S, on a uniform mesh, an adapted mesh with hanging
    faces and a mesh with Neumann faces."""
    sys = condensed(COARSE_MESHES[name]())
    coarse = coarse_space(sys)
    S = assemble_schur_explicit(sys).toarray()
    P = np.linalg.inv(face_diagonal(S, sys.nd))
    Pc = coarse_prolongation(sys, coarse)
    Qc = Pc @ np.linalg.solve(Pc.T @ S @ Pc, Pc.T)
    M = P + Qc - P @ S @ Qc
    rng = np.random.default_rng(3)
    for smooth in folded_operators(sys).values():
        for _ in range(2):
            v, f = rng.standard_normal((2, sys.zhat))
            for w, want in ((P @ S @ v, M @ S @ v), (P @ f, M @ f)):
                assert np.abs(coarse.correct(w, smooth) - want).max() <= (
                    1e-13 * np.abs(want).max())


@pytest.mark.parametrize("name", list(COARSE_MESHES))
def test_dense_and_sparse_coarse_factor_agree(name, monkeypatch):
    """coarse_space takes the dense factor up to COARSE_DENSE_MAX_DOFS
    coarse dofs and the sparse one above, and both give the same
    correct(w, smooth) to 1e-12 relative."""
    sys = condensed(COARSE_MESHES[name]())
    dofs = coarse_space(sys).dofs
    coarse = {}
    for limit in (dofs, dofs - 1):
        monkeypatch.setattr(schur_solver, "COARSE_DENSE_MAX_DOFS", limit)
        coarse[limit] = coarse_space(sys)
    assert isinstance(coarse[dofs].Sc, np.ndarray) and sp.issparse(coarse[dofs - 1].Sc)
    w = np.random.default_rng(7).standard_normal(sys.zhat)
    smooth = folded_operators(sys)["mb"]
    dense, sparse = coarse[dofs].correct(w, smooth), coarse[dofs - 1].correct(w, smooth)
    assert np.abs(dense - sparse).max() <= 1e-12 * np.abs(sparse).max()


@pytest.mark.parametrize("name", ["uniform-6-1", "adapted-random-2", "neumann-4-2"])
def test_two_level_mf_matches_mb_and_direct(name):
    """Under the coarse space, the mf and mb traces agree to rounding, and
    both agree with a sparse direct solve of the explicit S within a
    tol-scaled bound."""
    mesh = COARSE_MESHES[name]()
    problem = make_benchmark("tanh", 0.05, (1.0, 2.0)).problem()
    problem.g_N = lambda x: np.sin(3.0 * x[:, 1])
    tol = 1e-12
    uhat, iters = {}, {}
    for mode in ("mf", "mb"):
        solution, sys = solve(mesh, problem, NO_STAB, SolverConfig(tol=tol, mode=mode), 2)
        assert solution.report.converged and solution.report.coarse_dofs > 0
        uhat[mode], iters[mode] = solution.uhat, solution.report.iterations
    assert abs(iters["mf"] - iters["mb"]) <= 1
    assert np.linalg.norm(uhat["mf"] - uhat["mb"]) <= 1e-12 * np.linalg.norm(uhat["mb"])
    direct = spla.spsolve(assemble_schur_explicit(sys).tocsc(), sys.f_vec)
    for u in uhat.values():
        assert np.linalg.norm(u - direct) <= 1e3 * tol * np.linalg.norm(direct)


@pytest.mark.parametrize("n,mode", [(8, "mb"), (8, "mf"), (16, "mb"), (16, "mf"), (32, "mb")])
def test_iterations_independent_of_h(n, mode):
    """At kappa = 0.4 the two-level solve stays under 40 iterations from
    h = 1/8 to 1/32 (face-block Jacobi alone needs 88 to 536)."""
    mesh = build_structured_macro_mesh(2, n, 1)
    solution, _ = solve(mesh, SMOOTH.problem(), NO_STAB, SolverConfig(tol=1e-10, mode=mode), 2)
    rep = solution.report
    assert rep.converged and rep.coarse_dofs == (n + 1) ** 2 - 2
    assert rep.iterations < 40


def test_peclet_rule_keeps_face_block_jacobi():
    """At kappa = 1e-5 the mesh Peclet number is far above the rule's bound:
    solve() builds no coarse space, and its trace is bitwise GMRES on the
    face-block-folded P S with the right-hand side P f."""
    mesh = build_structured_macro_mesh(2, 8, 1)
    problem = make_benchmark("tanh", 1e-5, (1.0, 1.0)).problem()
    assert mesh_peclet(mesh, problem, 2) > 1e3 * COARSE_MAX_PECLET
    config = SolverConfig(tol=1e-10, mode="mb")
    solution, sys = solve(mesh, problem, NO_STAB, config, 2)
    assert solution.report.coarse_dofs == 0 and solution.report.t_coarse_s == 0.0
    PS = assemble_schur_explicit(sys, fold=True)
    Pf = (sys.P_blocks @ sys.f_vec.reshape(-1, sys.nd, 1)).ravel()
    uhat, info = gmres(lambda v: PS @ v, Pf, config)
    assert np.array_equal(solution.uhat, uhat)
    assert solution.report.iterations == info["iterations"]


def test_rule_thresholds():
    """solve() adds the coarse space exactly when the trace has at least
    COARSE_MIN_TRACE_DOFS dofs and the mesh Peclet number
    max |a| diam / (m p kappa) is at most COARSE_MAX_PECLET."""
    mesh = build_structured_macro_mesh(2, 8, 1)
    diam = float(mesh.diameter.max())
    a = np.array([0.6, 0.8])  # |a| = 1
    for factor, used in ((0.999, True), (1.001, False)):
        kappa = diam / (2 * COARSE_MAX_PECLET) / factor
        problem = make_benchmark("tanh", kappa, a).problem()
        assert mesh_peclet(mesh, problem, 2) == pytest.approx(factor * COARSE_MAX_PECLET)
        solution, _ = solve(mesh, problem, NO_STAB, SolverConfig(mode="mb"), 2)
        assert (solution.report.coarse_dofs > 0) == used
    small = build_structured_macro_mesh(2, 2, 2)
    solution, sys = solve(small, SMOOTH.problem(), NO_STAB, SolverConfig(mode="mb"), 2)
    assert sys.zhat < COARSE_MIN_TRACE_DOFS and solution.report.coarse_dofs == 0


def _zero_coarse_contributions(monkeypatch, value=0.0):
    """Set every S_c contribution (the face blocks S_FF and the class blocks
    K_fold) to `value` just before condense() builds the coarse space, after
    it has inverted the real face blocks."""
    real = schur_solver.coarse_space

    def patched(sys):
        sys.S_blocks[...] = value
        for cls in sys.classes:
            cls.K_fold[...] = value
        return real(sys)

    monkeypatch.setattr(schur_solver, "coarse_space", patched)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value,coarse_factor",
                         over_coarse_factors({"zero": (0.0,), "nan": (np.nan,)}),
                         indirect=["coarse_factor"])
def test_singular_coarse_operator(value, coarse_factor):
    """With one unknown face, S_c has one contribution, that face's
    Ploc^T S_FF Ploc.  Zeroed, getrf and SuperLU find S_c exactly singular;
    NaN, the dense factor refuses S_c and the sparse one's coarse solve is
    not finite.  All raise SingularCoarseOperator, and no NaN comes back."""
    mesh = build_structured_macro_mesh(2, 1, 1)
    sys = condensed(mesh)
    assert sys.zhat == sys.nd  # the diagonal face alone
    smooth = folded_operators(sys)["mb"]
    sys.S_blocks[0] = value
    with pytest.raises(SingularCoarseOperator):
        coarse_space(sys).correct(np.ones(sys.zhat), smooth)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
def test_singular_coarse_operator_in_solve_and_cli(monkeypatch, capsys, value):
    """solve() raises SingularCoarseOperator rather than return NaN, and
    `mehdg solve` exits 1 on it, naming it."""
    _zero_coarse_contributions(monkeypatch, value)
    mesh = build_structured_macro_mesh(2, 8, 1)
    with pytest.raises(SingularCoarseOperator):
        solve(mesh, SMOOTH.problem(), NO_STAB, SolverConfig(mode="mb"), 2)
    code = main(["solve", "--n", "8", "--m", "1", "--p", "2", "--mode", "mf"])
    assert code == 1
    assert "singular coarse operator" in capsys.readouterr().err


def test_cli_reports_coarse_space(capsys):
    """`mehdg solve` prints coarse_dofs and t_coarse_s."""
    assert main(["solve", "--n", "8", "--m", "1", "--p", "2", "--mode", "mb"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["coarse_dofs"] == 79 and rec["t_coarse_s"] > 0.0
    assert main(["solve", "--n", "8", "--m", "1", "--p", "2", "--kappa", "1e-6"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["coarse_dofs"] == 0 and rec["t_coarse_s"] == 0.0
