"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(run pytest with -s or check captured output)."""

import numpy as np
import pytest

from conftest import assemble_one, macro_nodes, poly_case
from reference_hdg import solve_reference
from reference_mesh import face_sides

from mehdg.assembly import StabilizationConfig
from mehdg.bench import (
    l2_error,
    make_benchmark,
    run_adapt,
    run_compare,
    run_convergence,
    u_nodal_max,
)
from mehdg.costmodel import (
    CostInputs,
    dependent_quantities,
    memory_estimate,
    operation_counts,
)
from mehdg.fem_basis import TraceBasis, patch_dof_map
from mehdg.mesh import build_structured_macro_mesh, refine_macros
from mehdg.schur_solver import (
    SolverConfig,
    apply_schur,
    assemble_schur_explicit,
    assemble_system,
    condense,
    solve,
)

NO_STAB = StabilizationConfig()
SUPG = StabilizationConfig(supg=True)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_convergence_rates():
    """Optimal L2 rates on the smooth-layer case and macro/standard error
    parity at equal resolution n*m."""
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    cfg = SolverConfig(tol=1e-10, mode="mb")
    rows_m2 = run_convergence(case, [1, 2, 3], 2, [2, 4, 8, 16], config=cfg)
    rows_m1 = run_convergence(case, [1, 2, 3], 1, [4, 8, 16, 32], config=cfg)

    ok = True
    details = []
    for p in (1, 2, 3):
        rate = [r["rate"] for r in rows_m2 if r["p"] == p][-1]
        ok &= p + 0.8 <= rate <= p + 1.5
        # error parity is an asymptotic statement: compare the finest level
        e2 = [r["l2_error"] for r in rows_m2 if r["p"] == p][-1]
        e1 = [r["l2_error"] for r in rows_m1 if r["p"] == p][-1]
        ratio = e2 / e1
        ok &= 0.5 <= ratio <= 2.0
        details.append(f"p={p} rate={rate:.2f} ratio={ratio:.2f}")
    _report(1, ok, "uniform-refinement rates ~ p+1, m=2 vs m=1 errors "
            "within 2x at equal n*m (" + ", ".join(details) + ")")


def test_criterion_02_matrix_free_equals_matrix_based():
    """The matrix-free condensed operator matches the explicitly assembled
    Schur complement on random vectors."""
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    rng = np.random.default_rng(42)
    worst = 0.0
    for n, m, p in ((2, 1, 1), (2, 2, 2), (3, 2, 3)):
        mesh = build_structured_macro_mesh(2, n, m)
        local_ops, faces = assemble_system(
            mesh, case.problem(), NO_STAB, p)
        sys = condense(mesh, local_ops, faces, SolverConfig())
        S = assemble_schur_explicit(sys)
        for _ in range(20):
            x = rng.standard_normal(sys.zhat)
            diff = np.abs(apply_schur(sys, x) - S @ x).max()
            worst = max(worst, diff / max(np.abs(S @ x).max(), 1.0))
    _report(2, worst <= 1e-10,
            f"matrix-free vs assembled operator, max rel diff {worst:.2e} <= 1e-10")


def test_criterion_03_agrees_with_independent_reference():
    """m=1 degenerates to a standard one-element-per-cell discretization:
    nodal u agrees with an independently written direct solver."""
    kappa, a = 0.7, (1.0, 2.0)
    case = make_benchmark("poly3", kappa, a)
    n, p = 3, 2
    mesh = build_structured_macro_mesh(2, n, 1)
    solution, _ = solve(mesh, case.problem(), NO_STAB,
                        SolverConfig(tol=1e-12, mode="mb"), p)
    ref = solve_reference(n, p, kappa, a, case.f, case.u_exact)

    nodes = macro_nodes(mesh, p)
    uvals = solution.u

    worst = 0.0
    for elem in ref:
        cen = elem["verts"].mean(axis=0)
        (e,) = [i for i, verts in enumerate(mesh.verts)
                if np.abs(verts.mean(axis=0) - cen).max() < 1e-12]
        for xk, uk in zip(elem["nodes"], elem["u"]):
            (j,) = np.nonzero(np.abs(nodes[e] - xk).max(axis=1) < 1e-12)[0:1][0]
            worst = max(worst, abs(uvals[e][j] - uk))
    _report(3, worst <= 1e-9,
            f"nodal u vs independent direct solver, max diff {worst:.2e} <= 1e-9")


def test_criterion_04_iteration_parity_across_modes():
    """Matrix-based and matrix-free paths take the same Krylov iterations
    (within 1) at loose and tight tolerances."""
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    ok = True
    details = []
    for m in (1, 2):
        rows = run_compare(case, 2, 8 // m, m, tolerances=(1e-2, 1e-6))
        by = {(r["tol"], r["mode"]): r["iterations"] for r in rows}
        for tol in (1e-2, 1e-6):
            gap = abs(by[(tol, "mb")] - by[(tol, "mf")])
            ok &= gap <= 1
            details.append(f"m={m} tol={tol:g} gap={gap}")
    _report(4, ok, "mb/mf iteration parity <= 1 (" + ", ".join(details) + ")")


def test_criterion_05_trace_dof_reduction():
    """Larger macros shrink the global trace system at fixed resolution, and
    the sizes match the exact per-face counting formula."""
    case = poly_case(2)
    p = 2
    dofg = {}
    ok = True
    for m in (1, 2, 4):
        n = 16 // m
        mesh = build_structured_macro_mesh(2, n, m)
        local_ops, faces = assemble_system(
            mesh, case.problem(), NO_STAB, p)
        sys = condense(mesh, local_ops, faces, SolverConfig())
        expect = sum(m * p + 1 for tag in mesh.face_tag if tag != "D")
        ok &= sys.zhat == expect
        dofg[m] = sys.zhat
    ok &= dofg[2] < dofg[1] and dofg[4] < dofg[2]
    _report(5, ok, f"global trace dofs at n*m=16: m=1 -> {dofg[1]}, "
            f"m=2 -> {dofg[2]}, m=4 -> {dofg[4]} (strictly decreasing, "
            "matching the counting formula)")


def test_criterion_06_patch_test():
    """Degree-p manufactured polynomials are reproduced to 1e-8, with and
    without streamline stabilization."""
    worst = 0.0
    for p in (1, 2, 3):
        case = poly_case(p)
        for m in (1, 2):
            mesh = build_structured_macro_mesh(2, 4 // m, m)
            for stab in (NO_STAB, SUPG):
                solution, _ = solve(mesh, case.problem(), stab,
                                    SolverConfig(tol=1e-12, mode="mb"), p)
                worst = max(worst, l2_error(mesh, p, solution, case.u_exact))
    _report(6, worst <= 1e-8,
            f"polynomial reproduction p=1..3, m=1,2, stabilization on/off: "
            f"max L2 error {worst:.2e} <= 1e-8")


def test_criterion_07_supg_reduces_overshoot():
    """At extreme Peclet the stabilized solve overshoots strictly less."""
    case = make_benchmark("tanh", 1e-5, (1.0, 1.0))
    mesh = build_structured_macro_mesh(2, 8, 2)
    over = {}
    for label, stab in (("off", NO_STAB), ("on", SUPG)):
        solution, _ = solve(mesh, case.problem(), stab,
                            SolverConfig(tol=1e-6, mode="mb"), 2)
        over[label] = u_nodal_max(solution) - 1.0
    _report(7, over["on"] < over["off"],
            f"overshoot with stabilization {over['on']:.4f} < without "
            f"{over['off']:.4f}")


def test_criterion_08_cost_model():
    """Closed-form operation counts and memory match the worked examples and
    the measured storage of an assembled local block."""
    ok = True
    counts = operation_counts(2, 2, 2, 1)
    ok &= counts["mehdg"]["init"] == 16384
    ok &= counts["hdg"]["init"] == 11664
    ok &= memory_estimate(CostInputs(d=2, n=1, m=1, p=1))["A_block"] == 72
    ok &= memory_estimate(CostInputs(d=2, n=1, m=2, p=2))["A_block"] == 1800
    rep = dependent_quantities(CostInputs(d=2, n=1, m=4, p=2,
                                          arithmetic="sparse"))
    ok &= rep.sparsity == pytest.approx(25.0 / 45.0)

    mesh = build_structured_macro_mesh(2, 2, 2)
    op = assemble_one(mesh, 0, 2, poly_case(1).problem(), NO_STAB)
    model = memory_estimate(CostInputs(d=2, n=2, m=2, p=2))["A_block"]
    ok &= op.A.nbytes == 9 * model  # (d+1)^2 scalar blocks of the model size
    _report(8, ok, "operation counts 16384/11664, memory 72/1800 bytes, "
            "sparsity 25/45, measured A-block bytes = 9x model block")


def test_criterion_09_adaptivity_beats_uniform():
    """Adaptive refinement of the Pe = 1e10 layer beats uniform refinement at
    comparable trace-dof counts, and the coarse-side restriction onto hanging
    faces is exact for degree-p polynomials."""
    kappa = np.sqrt(5.0) / 1e10  # layer-aligned advection (1, 2): Pe = 1e10
    case = make_benchmark("tanh", kappa, (1.0, 2.0))
    cfg = SolverConfig(tol=1e-6, mode="mb")
    hist = run_adapt(case, 2, 2, 4, levels=5, theta=0.5, config=cfg, stab=SUPG)
    final = hist[-1]
    uni = run_convergence(case, [2], 2, [4, 8, 16], config=cfg, stab=SUPG)
    nearest = min(uni, key=lambda r: abs(r["dof_global"] - final["dof_global"]))
    ok = final["l2_error"] < nearest["l2_error"]

    # constrained-trace exactness on hanging faces
    worst = 0.0
    mesh = refine_macros(build_structured_macro_mesh(2, 2, 2), {0, 3})
    for p in (1, 2, 3):
        def u(x):
            x = np.atleast_2d(x)
            return (x[:, 0] + 0.7 * x[:, 1]) ** p + x[:, 1]

        dofmap = patch_dof_map(mesh.m, p)
        nodes = macro_nodes(mesh, p)
        for f in np.flatnonzero(mesh.face_parent >= 0):
            side = min(face_sides(mesh, f), key=lambda s: mesh.levels[s.macro])
            edge_coeffs = u(nodes[side.macro, dofmap.edge_nodes[side.edge]])
            theta = TraceBasis(mesh.m, p)
            s = np.linspace(0.0, 1.0, 37)
            v0, v1 = mesh.face_verts[f]
            x = v0[None, :] + s[:, None] * (v1 - v0)[None, :]
            t = side.t0 + (side.t1 - side.t0) * s
            worst = max(worst,
                        float(np.abs(theta.eval(t) @ edge_coeffs - u(x)).max()))
    ok &= worst <= 1e-12
    _report(9, ok, f"adaptive error {final['l2_error']:.4f} at "
            f"{final['dof_global']} dofs < uniform {nearest['l2_error']:.4f} "
            f"at {nearest['dof_global']} dofs; hanging-face restriction "
            f"defect {worst:.2e} <= 1e-12")


def test_criterion_10_parallel_determinism_and_balance():
    """Identical trace solutions for any worker count, and the busy-time
    load-balance factor stays above 0.8 with 8 workers."""
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    mesh = build_structured_macro_mesh(2, 4, 2)

    uhats = {}
    lbf8 = 0.0
    for workers in (1, 2, 8):
        best = 0.0
        for _ in range(3 if workers == 8 else 1):
            solution, _ = solve(
                mesh, case.problem(), NO_STAB,
                SolverConfig(tol=1e-6, mode="mf", workers=workers), 2)
            uhats[workers] = solution.uhat
            best = max(best, solution.report.lbf)
        if workers == 8:
            lbf8 = best

    ok = np.array_equal(uhats[1], uhats[2])
    ok &= np.array_equal(uhats[1], uhats[8])
    ok &= 0.0 < lbf8 <= 1.0
    ok &= lbf8 >= 0.8
    _report(10, ok, f"bitwise-identical traces for 1/2/8 workers, "
            f"load-balance factor {lbf8:.3f} >= 0.8 with 8 workers")
