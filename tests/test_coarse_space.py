"""The two-level trace preconditioner: the P1 coarse space on the sub-cell
vertices of the skeleton, its operator built from the class blocks, and the
rule by which solve() uses it."""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import neumann_right, random_adapted_mesh

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


@pytest.mark.parametrize("name", list(COARSE_MESHES))
def test_coarse_operator_is_galerkin_product(name):
    """S_c, built from the class blocks without S, equals Pc^T S Pc of the
    explicit S, and Q equals Pc^T times the face-diagonal blocks of S, to
    1e-14 relative, on a uniform mesh, an adapted mesh with hanging faces
    and a mesh with Neumann faces; Pc reproduces the P1 hat functions of
    each face's segments at its trace nodes."""
    mesh = COARSE_MESHES[name]()
    if name.startswith("adapted"):
        assert (mesh.face_parent >= 0).any()
    if name.startswith("neumann"):
        assert (mesh.face_tag == "N").any()
    sys = condensed(mesh)
    coarse = coarse_space(sys)
    S = assemble_schur_explicit(sys).toarray()
    Pc = coarse.Pc.toarray()
    galerkin = Pc.T @ S @ Pc
    assert np.abs(coarse.Sc.toarray() - galerkin).max() <= 1e-14 * np.abs(galerkin).max()
    nd = sys.nd
    blocks = np.zeros_like(S)
    for start in range(0, sys.zhat, nd):
        block = slice(start, start + nd)
        blocks[block, block] = S[block, block]
    Q = Pc.T @ blocks
    assert np.abs(coarse.Q.toarray() - Q).max() <= 1e-14 * np.abs(Q).max()
    # each trace dof is a convex combination of its segment's two
    # breakpoints, and the coarse space holds the P1 coordinate functions
    assert np.allclose(Pc.sum(axis=1), 1.0) and (Pc >= 0.0).all()
    assert ((Pc > 0.0).sum(axis=1) <= 2).all()
    fv = mesh.face_verts[sys.face_start >= 0]
    s = np.arange(nd) / (nd - 1)
    nodes = (fv[:, None, 0] + s[:, None] * (fv[:, None, 1] - fv[:, None, 0])).reshape(-1, 2)
    x = np.linalg.lstsq(Pc, nodes, rcond=None)[0]
    assert np.abs(Pc @ x - nodes).max() < 1e-13


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
    uhat, info = gmres(lambda v: PS @ v, sys.P @ sys.f_vec, config)
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
@pytest.mark.parametrize("value", [0.0, np.nan], ids=["zero", "nan"])
def test_singular_coarse_operator(value):
    """With one unknown face, S_c has one contribution, that face's
    Ploc^T S_FF Ploc.  Zeroed, SuperLU finds S_c exactly singular; NaN, the
    coarse solve is not finite.  Both raise SingularCoarseOperator, and no
    NaN comes back."""
    mesh = build_structured_macro_mesh(2, 1, 1)
    sys = condensed(mesh)
    assert sys.zhat == sys.nd  # the diagonal face alone
    sys.S_blocks[0] = value
    with pytest.raises(SingularCoarseOperator):
        coarse_space(sys).correct(np.ones(sys.zhat))


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
