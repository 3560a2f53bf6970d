"""Error indication, bulk marking and the adaptive refinement loop."""

import numpy as np
import pytest

from conftest import macro_nodes, poly_case
from reference_mesh import face_sides

from mehdg.adaptivity import IndicatorField, adapt, error_indicator, mark
from mehdg.assembly import StabilizationConfig
from mehdg.bench import make_benchmark
from mehdg.fem_basis import TraceBasis, patch_dof_map
from mehdg.mesh import build_structured_macro_mesh, refine_macros
from mehdg.schur_solver import Solution, SolverConfig, solve

NO_STAB = StabilizationConfig()
FAST = SolverConfig(tol=1e-10, mode="mb")


def synthetic_solution(mesh, p, u_of_x):
    """Solution object with u coefficients interpolating a given function."""
    local = []
    for nodes in macro_nodes(mesh, p):
        u = np.asarray(u_of_x(nodes), dtype=float)
        local.append(np.concatenate([np.zeros(2 * u.size), u]))
    return Solution(local=np.stack(local), uhat=np.zeros(0), report=None)


def test_indicator_constant_solution():
    mesh = build_structured_macro_mesh(2, 2, 2)
    sol = synthetic_solution(mesh, 2, lambda x: np.full(x.shape[0], 3.0))
    ind = error_indicator(mesh, 2, sol)
    assert np.abs(ind.eta).max() < 1e-13
    assert ind.total < 1e-13


def test_indicator_linear_solution():
    """u = x: eta_K = h_K * |K|^(1/2) since |grad u| = 1."""
    mesh = build_structured_macro_mesh(2, 2, 2)
    sol = synthetic_solution(mesh, 2, lambda x: x[:, 0])
    ind = error_indicator(mesh, 2, sol)
    volume = np.abs(np.linalg.det(mesh.jacobians)) / 2
    for e, (diameter, vol) in enumerate(zip(mesh.diameter, volume)):
        assert ind.eta[e] == pytest.approx(diameter * np.sqrt(vol), rel=1e-12)


def test_indicator_argmax_on_layer():
    case = make_benchmark("tanh", 1e-2, (1.0, 2.0))
    mesh = build_structured_macro_mesh(2, 4, 2)
    solution, _ = solve(mesh, case.problem(), NO_STAB, FAST, 2)
    ind = error_indicator(mesh, 2, solution)
    verts = mesh.verts[int(np.argmax(ind.eta))]
    # the layer line is 2x - y = 0.4; the argmax macro must straddle it
    signs = [np.sign(2 * v[0] - v[1] - 0.4) for v in verts]
    assert min(signs) <= 0 <= max(signs)


def test_mark_examples():
    ind = IndicatorField(eta=np.array([3.0, 4.0, 0.0]))
    assert mark(ind, 0.8) == {1}
    assert mark(ind, 1.0) == {0, 1}  # only macros with eta > 0

    n = 13
    ind = IndicatorField(eta=np.ones(n))
    marked = mark(ind, 0.5)
    assert len(marked) == int(np.ceil(n / 4))

    with pytest.raises(ValueError):
        mark(ind, 0.0)
    with pytest.raises(ValueError):
        mark(ind, 1.5)
    assert mark(IndicatorField(eta=np.zeros(4)), 0.5) == set()


def loop_mark(eta, theta):
    """The Doerfler marking as a loop over the macros sorted by descending
    eta^2, ties by id: the oracle of mark."""
    eta2 = eta**2
    target = theta**2 * float(eta2.sum())
    if target == 0.0:
        return set()
    marked, acc = set(), 0.0
    for e in sorted(range(eta2.size), key=lambda e: (-eta2[e], e)):
        if eta2[e] == 0.0:
            break
        marked.add(e)
        acc += float(eta2[e])
        if acc >= target * (1.0 - 1e-12):
            break
    return marked


@pytest.mark.parametrize("theta", [0.1, 0.5, 1.0])
def test_mark_matches_loop_oracle(theta):
    """mark equals the loop oracle on random eta with ties and zeros."""
    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(1, 40))
        eta = rng.choice([0.0, 0.5, 1.0, 2.0], size=n) if trial % 2 else rng.random(n)
        eta[rng.random(n) < 0.2] = 0.0
        got = mark(IndicatorField(eta=eta), theta)
        assert got == loop_mark(eta, theta)
        assert all(type(e) is int for e in got)


def test_adapt_levels_zero():
    case = poly_case(2)
    mesh = build_structured_macro_mesh(2, 2, 2)
    state = adapt(mesh, case.problem(), NO_STAB, FAST, 2, levels=0)
    assert len(state.history) == 1
    assert state.level == 0
    assert state.mesh is mesh


def test_adapt_monotone_dof_growth():
    case = make_benchmark("tanh", 1e-2, (1.0, 2.0))
    mesh = build_structured_macro_mesh(2, 2, 2)
    state = adapt(mesh, case.problem(), NO_STAB, FAST, 2, levels=2, theta=0.5)
    dofs = [h["dof_global"] for h in state.history]
    assert dofs == sorted(dofs) and len(set(dofs)) == len(dofs)
    levels = [h["level"] for h in state.history]
    assert levels == [0, 1, 2]


def test_refine_zero_macros_keeps_solution():
    case = poly_case(2)
    mesh = build_structured_macro_mesh(2, 2, 2)
    sol1, _ = solve(mesh, case.problem(), NO_STAB, FAST, 2)
    mesh2 = refine_macros(mesh, set())
    sol2, _ = solve(mesh2, case.problem(), NO_STAB, FAST, 2)
    assert np.array_equal(sol1.uhat, sol2.uhat)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_constrained_trace_exactness(p):
    """Coarse-side restriction onto a hanging face is exact for degree-p
    polynomials expanded in the fine trace basis."""
    mesh = refine_macros(build_structured_macro_mesh(2, 2, 2), {0, 3})
    hanging = np.flatnonzero(mesh.face_parent >= 0)
    assert hanging.size

    def u(x):
        x = np.atleast_2d(x)
        return (x[:, 0] + 0.7 * x[:, 1]) ** p + x[:, 1]

    dofmap = patch_dof_map(mesh.m, p)
    nodes = macro_nodes(mesh, p)
    for f in hanging:
        psi = TraceBasis(mesh.m, p)
        v0, v1 = mesh.face_verts[f]
        pts = v0[None, :] + psi.nodes[:, None] * (v1 - v0)[None, :]
        coeffs = u(pts)  # fine-side trace expansion
        s = np.linspace(0.0, 1.0, 37)
        x = v0[None, :] + s[:, None] * (v1 - v0)[None, :]
        assert np.abs(psi.eval(s) @ coeffs - u(x)).max() < 1e-12

        # the coarse macro's edge trace agrees on the same physical points
        side = min(face_sides(mesh, f), key=lambda s: mesh.levels[s.macro])
        edge_coeffs = u(nodes[side.macro, dofmap.edge_nodes[side.edge]])
        theta = TraceBasis(mesh.m, p)
        t = side.t0 + (side.t1 - side.t0) * s
        assert np.abs(theta.eval(t) @ edge_coeffs - u(x)).max() < 1e-12


def test_hanging_mesh_patch_test():
    """A solve on a mesh with hanging faces still reproduces polynomials."""
    from mehdg.bench import l2_error

    case = poly_case(2, kappa=0.9)
    mesh = refine_macros(build_structured_macro_mesh(2, 2, 2), {0, 3})
    assert (mesh.face_parent >= 0).any()
    solution, _ = solve(mesh, case.problem(), NO_STAB,
                        SolverConfig(tol=1e-12, mode="mb"), 2)
    assert l2_error(mesh, 2, solution, case.u_exact) < 1e-10


def test_marked_macros_follow_layer():
    """At extreme Peclet the marked set concentrates along the layer."""
    kappa = np.sqrt(5.0) / 1e10
    case = make_benchmark("tanh", kappa, (1.0, 2.0))
    mesh = build_structured_macro_mesh(2, 4, 2)
    stab = StabilizationConfig(supg=True)
    solution, _ = solve(mesh, case.problem(), stab,
                        SolverConfig(tol=1e-6, mode="mb"), 2)
    ind = error_indicator(mesh, 2, solution)
    marked = mark(ind, 0.5)
    assert marked
    h = 1.0 / mesh.n
    band = 0
    for e in marked:
        # distance of the centroid to the line 2x - y - 0.4 = 0
        c = mesh.verts[e].mean(axis=0)
        dist = abs(2 * c[0] - c[1] - 0.4) / np.sqrt(5.0)
        if dist <= 2 * h:  # band of width 4h around the layer
            band += 1
    assert band >= 0.8 * len(marked)
