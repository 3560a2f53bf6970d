"""Benchmark cases, error measurement, study drivers and CSV round-trips."""

import numpy as np
import pytest

from conftest import macro_nodes, poly_case, skewed_mesh
from reference_mesh import loop_affine_map, loop_diameter

from mehdg.adaptivity import error_indicator
from mehdg.assembly import StabilizationConfig
from mehdg.bench import (
    ADAPT_COLUMNS,
    CONV_COLUMNS,
    COST_COLUMNS,
    audit_source,
    l2_error,
    make_benchmark,
    read_csv,
    rows_to_csv,
    run_adapt,
    run_compare,
    run_convergence,
    run_cost,
    u_nodal_max,
    write_csv,
)
from mehdg.fem_basis import patch_dof_map, reference_tables
from mehdg.mesh import (
    build_structured_macro_mesh,
    refine_macros,
    sub_cell_ref_verts,
    sub_cells,
)
from mehdg.schur_solver import Solution, SolverConfig, solve

NO_STAB = StabilizationConfig()
FAST = SolverConfig(tol=1e-10, mode="mb")


@pytest.mark.parametrize("a", [[1.0], [1, 2, 3], [1.0, np.nan]],
                         ids=["one-entry", "three-entries", "nan"])
def test_make_benchmark_rejects_bad_velocity(a):
    with pytest.raises(ValueError, match="advection velocity a must be two finite numbers"):
        make_benchmark("tanh", 0.4, a)


def test_make_benchmark_validation():
    with pytest.raises(ValueError):
        make_benchmark("tanh", 0.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        make_benchmark("mystery", 1.0, (1.0, 1.0))


@pytest.mark.parametrize("kappa,a,name", [
    (1e300, (1.0, 1.0), "kappa"),
    (1.1e150, (1.0, 1.0), "kappa"),
    (1e-151, (1.0, 1.0), "kappa"),
    (float("inf"), (1.0, 1.0), "kappa"),
    (float("nan"), (1.0, 1.0), "kappa"),
    (0.4, (1e200, 1e200), "advection"),
    (0.4, (2e150, 0.0), "advection"),
    (0.4, (np.inf, 0.0), "advection"),
])
def test_make_benchmark_rejects_out_of_range_data(kappa, a, name):
    """Data past the range in which the closed forms and the assembly stay
    finite is refused by a ValueError that names the argument."""
    with pytest.raises(ValueError, match=name):
        make_benchmark("tanh", kappa, a)


@pytest.mark.parametrize("kappa,a", [
    (1e-150, (1.0, 1.0)),
    (1e150, (1.0, 1.0)),
    (0.4, (-1e150, 0.0)),
    (np.sqrt(5.0) * 1e-10, (4.5, 0.0)),  # the layer workload's extremes
])
def test_make_benchmark_accepts_range_ends(kappa, a):
    """At the ends of the accepted range the closed forms stay finite."""
    case = make_benchmark("tanh", kappa, a)
    pts = np.random.default_rng(2).random((200, 2))
    for fn in (case.u_exact, case.grad_u, case.f):
        assert np.isfinite(fn(pts)).all()


def test_peclet_examples():
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    assert case.peclet == pytest.approx(np.sqrt(2.0) / 0.4)
    assert case.peclet == pytest.approx(3.5355, abs=1e-4)
    case = make_benchmark("tanh", 1e-5, (1.0, 1.0))
    assert case.peclet == pytest.approx(np.sqrt(2.0) * 1e5)


def test_poly1_source():
    case = make_benchmark("poly1", 0.37, (2.0, -3.0))
    pts = np.random.default_rng(0).random((10, 2))
    assert np.allclose(case.f(pts), 2.0 - 3.0)  # a_x + a_y, Laplacian = 0


@pytest.mark.parametrize("name,kappa,a", [
    ("tanh", 0.4, (1.0, 1.0)),
    ("poly1", 1.0, (1.0, 2.0)),
    ("poly2", 0.3, (2.0, 1.0)),
    ("poly3", 1.5, (1.0, -1.0)),
])
def test_manufactured_source_audit(name, kappa, a):
    assert audit_source(make_benchmark(name, kappa, a)) < 1e-8


def test_audit_sharp_layer_relative():
    # at kappa = 1e-2 the data scales like 1/kappa^2; check relative defect
    case = make_benchmark("tanh", 1e-2, (1.0, 2.0))
    pts = np.random.default_rng(9).random((200, 2))
    scale = np.abs(case.f(pts)).max()
    assert audit_source(case) < 1e-3 * scale


def test_layer_parallel_advection_assertion():
    # a parallel to (1, 2): the advective term vanishes identically
    case = make_benchmark("tanh", 1e-3, (0.5, 1.0))
    pts = np.random.default_rng(1).random((50, 2))
    adv = case.grad_u(pts) @ case.a
    assert np.abs(adv).max() < 1e-12 * max(1.0, np.abs(case.grad_u(pts)).max())


def test_l2_error_exact_and_offset():
    case = poly_case(2, a=(0.0, 0.0))
    mesh = build_structured_macro_mesh(2, 2, 2)
    solution, _ = solve(mesh, case.problem(), NO_STAB, FAST, 2)
    assert l2_error(mesh, 2, solution, case.u_exact) < 1e-10
    offset = lambda x: case.u_exact(x) + 0.25
    assert l2_error(mesh, 2, solution, offset) == pytest.approx(0.25, rel=1e-10)


def test_l2_error_interpolant():
    mesh = build_structured_macro_mesh(2, 2, 2)
    u = lambda x: np.atleast_2d(x)[:, 0] ** 2 + np.atleast_2d(x)[:, 1]
    local = []
    for nodes in macro_nodes(mesh, 2):
        vals = u(nodes)
        local.append(np.concatenate([np.zeros(2 * vals.size), vals]))
    sol = Solution(local=np.stack(local), uhat=np.zeros(0), report=None)
    assert l2_error(mesh, 2, sol, u) < 1e-13


ORACLE_MESHES = {
    "skewed-3-2": lambda: skewed_mesh(3, 2),
    "adapted-2-level": lambda: refine_macros(
        refine_macros(build_structured_macro_mesh(2, 2, 2), {0, 3}), {9}),
}


def per_cell_l2_and_eta(mesh, p, local, u_exact):
    """l2_error and the error indicator cell by cell: each sub-cell mapped
    vertex by vertex through its macro's map."""
    rule, val, _, _ = reference_tables(p, 2 * p + 2)
    rule_g, _, gref, _ = reference_tables(p, max(2 * p - 2, 1))
    acc, eta = 0.0, np.zeros(len(mesh.verts))
    for e, verts in enumerate(mesh.verts):
        u = local[e, 2 * (local.shape[1] // 3):]
        J = loop_affine_map(verts)[0]
        for cm, cell in zip(patch_dof_map(mesh.m, p).cell_maps, sub_cells(mesh.m)):
            sub = sub_cell_ref_verts(*cell, mesh.m) @ J.T + verts[0]
            jac = np.column_stack((sub[1] - sub[0], sub[2] - sub[0]))
            det = abs(np.linalg.det(jac))
            diff = val @ u[cm] - u_exact(rule.points_ref @ jac.T + sub[0])
            acc += float(np.sum(rule.weights * det * diff**2))
            grad = np.einsum("b,qbc->qc", u[cm], gref @ np.linalg.inv(jac))
            eta[e] += float(np.sum(rule_g.weights * det * np.sum(grad**2, axis=1)))
    diam = np.array([loop_diameter(verts) for verts in mesh.verts])
    return np.sqrt(acc), diam * np.sqrt(eta)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_l2_error_and_indicator_match_per_cell_oracle(name, p):
    mesh = ORACLE_MESHES[name]()
    if name.startswith("adapted"):
        assert max(mesh.levels) == 2 and (mesh.face_parent >= 0).any()
    nloc = 3 * patch_dof_map(mesh.m, p).n_dofs
    local = np.random.default_rng(p).standard_normal((len(mesh.verts), nloc))
    sol = Solution(local=local, uhat=np.zeros(0), report=None)
    u_exact = lambda x: np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])
    l2, eta = per_cell_l2_and_eta(mesh, p, local, u_exact)
    assert l2_error(mesh, p, sol, u_exact) == pytest.approx(l2, rel=1e-13)
    ind = error_indicator(mesh, p, sol)
    assert np.abs(ind.eta - eta).max() <= 1e-13 * np.abs(eta).max()


def test_error_ratio_low_order():
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    errs = []
    for n in (2, 4):
        mesh = build_structured_macro_mesh(2, n, 2)
        solution, _ = solve(mesh, case.problem(), NO_STAB,
                            SolverConfig(tol=1e-10, mode="mb"), 1)
        errs.append(l2_error(mesh, 1, solution, case.u_exact))
    assert errs[0] / errs[1] >= 2.0**1.8


def test_run_convergence_single_n():
    case = poly_case(2)
    rows = run_convergence(case, [2], 2, [2], config=FAST)
    assert len(rows) == 1
    assert rows[0]["rate"] is None
    with pytest.raises(ValueError):
        run_convergence(case, [2], 2, [4, 2], config=FAST)


def test_run_convergence_rates_and_csv(tmp_path):
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    out = tmp_path / "conv.csv"
    rows = run_convergence(case, [1], 2, [2, 4], config=FAST)
    out.write_text(rows_to_csv(rows, CONV_COLUMNS))
    assert rows[1]["rate"] >= 1.8
    parsed = read_csv(out)
    assert len(parsed) == 2
    for row, back in zip(rows, parsed):
        for col in CONV_COLUMNS:
            val = row.get(col)
            if isinstance(val, float):
                assert back[col] == val  # 17 significant digits: bit-exact
            elif val is None:
                assert back[col] is None
            else:
                assert back[col] == val


def test_csv_reproducibility():
    case = poly_case(2)
    text1 = rows_to_csv(run_convergence(case, [2], 2, [2], config=FAST),
                        ["p", "m", "n", "l2_error"])
    text2 = rows_to_csv(run_convergence(case, [2], 2, [2], config=FAST),
                        ["p", "m", "n", "l2_error"])
    assert text1 == text2


def test_run_compare_parity_and_nesting():
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    rows = run_compare(case, 2, 4, 2, tolerances=(1e-2, 1e-6))
    assert len(rows) == 4
    by = {(r["tol"], r["mode"]): r["iterations"] for r in rows}
    assert abs(by[(1e-2, "mb")] - by[(1e-2, "mf")]) <= 1
    assert abs(by[(1e-6, "mb")] - by[(1e-6, "mf")]) <= 1
    for mode in ("mb", "mf"):
        assert by[(1e-6, mode)] >= by[(1e-2, mode)]


def test_compare_m2_fewer_iterations_than_m1():
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    its = {}
    for m in (1, 2):
        mesh = build_structured_macro_mesh(2, 8 // m, m)
        sol, _ = solve(mesh, case.problem(), NO_STAB,
                       SolverConfig(tol=1e-6, mode="mb"), 2)
        its[m] = sol.report.iterations
    assert its[2] <= its[1]


def test_run_adapt_levels_zero_matches_convergence(tmp_path):
    case = make_benchmark("tanh", 0.4, (1.0, 1.0))
    hist = run_adapt(case, 2, 2, 2, levels=0, config=FAST)
    (tmp_path / "adapt.csv").write_text(rows_to_csv(hist, ADAPT_COLUMNS))
    conv = run_convergence(case, [2], 2, [2], config=FAST)
    assert len(hist) == 1
    assert hist[0]["dof_global"] == conv[0]["dof_global"]
    assert hist[0]["l2_error"] == pytest.approx(conv[0]["l2_error"], rel=1e-12)
    parsed = read_csv(tmp_path / "adapt.csv")
    assert list(parsed[0].keys()) == ADAPT_COLUMNS


def test_run_cost_sweep(tmp_path):
    rows = run_cost(2, 8, 2, "dense")
    (tmp_path / "cost.csv").write_text(rows_to_csv(rows, COST_COLUMNS))
    assert [r["m"] for r in rows] == [1, 2, 4, 8]
    assert all(r["n"] * r["m"] == 8 for r in rows)
    parsed = read_csv(tmp_path / "cost.csv")
    assert len(parsed) == 4
    assert parsed[0]["init"] == 64 * 4**6  # n=8, m=1, p=2: base m*p+d = 4


def test_u_nodal_max():
    mesh = build_structured_macro_mesh(2, 1, 1)
    local = np.array([[0.0, 0, 0, 0, 0, 0, 1.0, 2.0, 0.5],
                      [0.0, 0, 0, 0, 0, 0, -1.0, 0.25, 0.5]])
    sol = Solution(local=local, uhat=np.zeros(0), report=None)
    assert u_nodal_max(sol) == 2.0


def test_write_csv_formats_floats(tmp_path):
    path = tmp_path / "x.csv"
    with open(path, "w", newline="") as fh:
        write_csv([{"a": 1.0 / 3.0, "b": None, "c": True, "d": 7}],
                  ["a", "b", "c", "d"], fh)
    text = path.read_text()
    assert "0.33333333333333331" in text
    back = read_csv(path)
    assert back[0] == {"a": 1.0 / 3.0, "b": None, "c": True, "d": 7}
