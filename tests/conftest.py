"""Shared helpers for the test suite."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from mehdg import schur_solver
from mehdg.assembly import StabilizationConfig, assemble_classes
from mehdg.bench import make_benchmark
from mehdg.fem_basis import patch_dof_map, trace_hats
from mehdg.mesh import _assemble_mesh, build_structured_macro_mesh, refine_macros
from mehdg.schur_solver import SolverConfig, solve

# Hypothesis caches the constants it reads from the tested source on disk
# when it collects a property test, even with database=None: keep that cache
# out of the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "mehdg-hypothesis")


def poly_case(degree: int, kappa: float = 1.0, a=(1.0, 2.0)):
    """Manufactured polynomial benchmark of the given total degree."""
    return make_benchmark(f"poly{degree}", kappa, a)


def solve_poly(degree, n, m, p, kappa=1.0, a=(1.0, 2.0), supg=False,
               tol=1e-12, mode="mb", workers=1):
    """Convenience patch-test solve; returns (mesh, solution, sys, case)."""
    case = poly_case(degree, kappa, a)
    mesh = build_structured_macro_mesh(2, n, m)
    stab = StabilizationConfig(supg=supg)
    config = SolverConfig(tol=tol, mode=mode, workers=workers)
    solution, sys = solve(mesh, case.problem(), stab, config, p)
    return mesh, solution, sys, case


def skewed_verts(n):
    """Macro vertices of the n x n structured mesh with its interior vertices
    moved off the grid (h = 1/3 is not dyadic either), so that macros differ
    in shape."""

    def move(v):
        inside = np.all((v > 1e-12) & (v < 1.0 - 1e-12))
        return v + inside * 0.15 / n * np.array([np.sin(7.0 * v[1]), np.cos(5.0 * v[0])])

    base = build_structured_macro_mesh(2, n, 1)
    return [np.array([move(v) for v in verts]) for verts in base.verts]


def skewed_mesh(n, m):
    raw = skewed_verts(n)
    return _assemble_mesh(raw, m, [0] * len(raw), n, None)


def random_adapted_mesh(levels, boundary_tagger=None, n=4, m=2):
    """The (n, m) mesh refined `levels` times, each time at a seeded random
    quarter of its macros (default_rng(0)); the 2:1 closure adds more."""
    mesh = build_structured_macro_mesh(2, n, m, boundary_tagger)
    rng = np.random.default_rng(0)
    for _ in range(levels):
        k = len(mesh.verts)
        mesh = refine_macros(mesh, rng.choice(k, size=k // 4, replace=False).tolist())
    return mesh


def neumann_right(mid):
    """Boundary tagger: Neumann on the side x = 1, Dirichlet elsewhere."""
    return "N" if mid[0] > 1.0 - 1e-12 else "D"


def coarse_prolongation(sys, coarse):
    """The dense prolongation Pc (zhat, coarse dofs) of a CoarseSpace, which
    does not store it: the P1 hats of a face's breakpoints at its trace
    nodes (trace_hats) on every unknown face, in the columns of the face's
    coarse ids."""
    nd, (nf, k) = sys.nd, coarse.face_coarse.shape
    hats = trace_hats(sys.mesh.m, (nd - 1) // sys.mesh.m)
    Pc = np.zeros((nf, nd, coarse.dofs))
    for j in range(k):
        Pc[np.arange(nf)[:, None], np.arange(nd), coarse.face_coarse[:, j, None]] += hats[:, j]
    return Pc.reshape(nf * nd, -1)


# The COARSE_DENSE_MAX_DOFS that forces coarse_space onto each factor of
# S_c, whatever its size: LAPACK getrf of a dense S_c, or splu of a sparse one
COARSE_FACTORS = {"getrf": 1 << 62, "splu": -1}


def over_coarse_factors(cases: dict) -> list:
    """Parameters of a test that takes the fixture coarse_factor last: each
    case (id -> tuple of values) once on the dense factor, under its own id,
    and once on the sparse one, under id + '-splu'."""
    return [pytest.param(*values, factor, id=key if factor == "getrf" else f"{key}-{factor}")
            for key, values in cases.items() for factor in COARSE_FACTORS]


@pytest.fixture
def coarse_factor(request, monkeypatch):
    """The factor of S_c, "getrf" or "splu", that coarse_space is forced
    onto for the test; parametrize it indirectly (over_coarse_factors)."""
    monkeypatch.setattr(schur_solver, "COARSE_DENSE_MAX_DOFS", COARSE_FACTORS[request.param])
    return request.param


# Meshes on which per-class operators are checked against per-macro ones
CLASS_MESHES = {
    "uniform-4-2": lambda: build_structured_macro_mesh(2, 4, 2),
    "uniform-2-4": lambda: build_structured_macro_mesh(2, 2, 4),
    "uniform-1-8": lambda: build_structured_macro_mesh(2, 1, 8),  # sparse A
    "uniform-3-2": lambda: build_structured_macro_mesh(2, 3, 2),
    "skewed-3-2": lambda: skewed_mesh(3, 2),
    "adapted-2-level": lambda: refine_macros(build_structured_macro_mesh(2, 2, 2), {0, 3}),
    # many classes, hanging faces and Neumann faces
    "adapted-random-neumann": lambda: random_adapted_mesh(1, neumann_right),
}


def assemble_one(mesh, e, p, problem, stab, quad_degree=None):
    """LocalOperators of macro e alone: assemble_classes on the one class
    {e}."""
    return assemble_classes(mesh, [np.array([e])], p, problem, stab, quad_degree)[0]


def macro_nodes(mesh, p):
    """(macros, Q, 2) physical coordinates of the patch dof nodes of every
    macro: each macro's affine map applied to the reference nodes."""
    ref = patch_dof_map(mesh.m, p).node_ref_coords
    return ref @ mesh.jacobians.swapaxes(-1, -2) + mesh.verts[:, :1]


def face_length(mesh, f):
    return float(np.linalg.norm(mesh.face_verts[f, 1] - mesh.face_verts[f, 0]))


def face_mass_oracle(length, m, p, npts=20):
    """Trace mass matrix of a skeleton face of the given length, of a mesh
    of the given m, by dense Gauss quadrature."""
    from mehdg.fem_basis import TraceBasis

    psi = TraceBasis(m, p)
    x, w = np.polynomial.legendre.leggauss(npts)
    pieces = np.arange(m + 1) / m
    M = np.zeros((psi.n_dofs, psi.n_dofs))
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        s = lo + (hi - lo) * 0.5 * (x + 1.0)
        ww = (hi - lo) * 0.5 * w * length
        V = psi.eval(s)
        M += V.T @ (ww[:, None] * V)
    return M


@pytest.fixture(scope="session")
def mesh_2_2():
    return build_structured_macro_mesh(2, 2, 2)
