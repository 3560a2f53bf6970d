"""Lagrange bases, patch dof maps, trace bases and quadrature rules."""

import numpy as np
import pytest

from mehdg.fem_basis import (
    LagrangeBasis,
    OrientationError,
    TraceBasis,
    build_patch_dof_map,
    face_trace_map,
    patch_dof_count,
    quadrature_rule,
    reference_tables,
    simplex_lattice,
    trace_basis,
)
from mehdg.mesh import build_structured_macro_mesh, sub_cell_ref_verts, sub_cells


def random_ref_points(rng, npts):
    """Uniform points in the reference triangle."""
    u = rng.random((npts, 2))
    flip = u.sum(axis=1) > 1.0
    u[flip] = 1.0 - u[flip]
    return u


def test_patch_dof_count():
    assert patch_dof_count(2, 1, 1) == 3
    assert patch_dof_count(2, 2, 2) == 15
    assert patch_dof_count(3, 2, 2) == 35
    with pytest.raises(ValueError):
        patch_dof_count(4, 1, 1)
    with pytest.raises(ValueError):
        patch_dof_count(2, 0, 1)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_lagrange_properties(p):
    basis = LagrangeBasis(2, p)
    V = basis.eval(basis.nodes)
    assert np.abs(V - np.eye(basis.n_dofs)).max() < 1e-10  # Kronecker
    rng = np.random.default_rng(42)
    pts = random_ref_points(rng, 30)
    assert np.abs(basis.eval(pts).sum(axis=1) - 1.0).max() < 1e-12  # PoU
    assert np.abs(basis.grad(pts).sum(axis=1)).max() < 1e-10  # gradient sum


@pytest.mark.parametrize("p", [1, 2, 3])
def test_gradient_finite_difference(p):
    basis = LagrangeBasis(2, p)
    rng = np.random.default_rng(7)
    pts = 0.05 + 0.4 * rng.random((20, 2))
    h = 1e-6
    g = basis.grad(pts)
    for c, e in enumerate((np.array([h, 0.0]), np.array([0.0, h]))):
        fd = (basis.eval(pts + e) - basis.eval(pts - e)) / (2 * h)
        assert np.abs(g[:, :, c] - fd).max() < 1e-5


def test_hessian_on_quadratic():
    basis = LagrangeBasis(2, 2)
    # interpolate u = x^2 + 3 x y: constant Hessian [[2, 3], [3, 0]]
    coeffs = basis.nodes[:, 0] ** 2 + 3 * basis.nodes[:, 0] * basis.nodes[:, 1]
    H = np.einsum("b,qbjk->qjk", coeffs, basis.hess(np.array([[0.3, 0.2]])))
    assert np.allclose(H[0], [[2.0, 3.0], [3.0, 0.0]], atol=1e-10)


def patch_map_coordinate_oracle(m, p):
    """Dedup the physical lattice nodes of all sub-elements."""
    loc = np.array(simplex_lattice(2, p), dtype=float) / p
    seen = {}
    maps = []
    for kind, i, j in sub_cells(m):
        sub = sub_cell_ref_verts(kind, i, j, m)
        J = np.column_stack((sub[1] - sub[0], sub[2] - sub[0]))
        pts = loc @ J.T + sub[0]
        ids = []
        for pt in pts:
            key = tuple(np.round(pt, 12))
            if key not in seen:
                seen[key] = len(seen)
            ids.append(seen[key])
        maps.append(ids)
    return len(seen), maps, seen


@pytest.mark.parametrize("m,p,expect", [(1, 2, 6), (2, 1, 6), (3, 2, 28), (2, 2, 15)])
def test_patch_dof_map_counts(m, p, expect):
    macro = build_structured_macro_mesh(2, 1, m).macro_elements[0]
    dofmap = build_patch_dof_map(macro, p)
    assert dofmap.n_dofs == expect == patch_dof_count(2, m, p)
    count, _, _ = patch_map_coordinate_oracle(m, p)
    assert count == expect


def test_patch_dof_map_m1_identity():
    macro = build_structured_macro_mesh(2, 1, 1).macro_elements[0]
    dofmap = build_patch_dof_map(macro, 3)
    assert len(dofmap.cell_maps) == 1
    assert np.array_equal(np.sort(dofmap.cell_maps[0]), np.arange(dofmap.n_dofs))


@pytest.mark.parametrize("m,p", [(2, 1), (2, 2), (3, 2)])
def test_patch_dof_map_matches_coordinate_dedup(m, p):
    macro = build_structured_macro_mesh(2, 1, m).macro_elements[0]
    dofmap = build_patch_dof_map(macro, p)
    _, oracle_maps, _ = patch_map_coordinate_oracle(m, p)
    # both maps must induce the same node-sharing pattern
    ref = dofmap.node_ref_coords
    for cm, om, (kind, i, j) in zip(dofmap.cell_maps, oracle_maps, sub_cells(m)):
        sub = sub_cell_ref_verts(kind, i, j, m)
        J = np.column_stack((sub[1] - sub[0], sub[2] - sub[0]))
        loc = np.array(simplex_lattice(2, p), dtype=float) / p
        pts = loc @ J.T + sub[0]
        assert np.abs(ref[cm] - pts).max() < 1e-12


def test_quadrature_examples():
    rule = quadrature_rule(2, 1)
    assert rule.points.shape == (1, 3)
    assert np.allclose(rule.points[0], [1 / 3, 1 / 3, 1 / 3])
    assert rule.weights[0] == pytest.approx(0.5)

    rule = quadrature_rule(2, 2)
    xy = rule.points_ref
    assert float(np.sum(rule.weights * xy[:, 0] * xy[:, 1])) == pytest.approx(
        1.0 / 24.0, abs=1e-14)

    assert quadrature_rule(2, 5).weights.sum() == pytest.approx(0.5)
    assert quadrature_rule(3, 5).weights.sum() == pytest.approx(1.0 / 6.0)
    with pytest.raises(ValueError):
        quadrature_rule(2, 21)


def test_cached_reference_arrays_read_only():
    """Shared tables are built once; an in-place write raises instead of
    corrupting every later caller."""
    rule, val, grad, hess = reference_tables(2, 5)
    assert reference_tables(2, 5)[1] is val
    assert rule is quadrature_rule(2, 5)
    psi = trace_basis(3, 2)
    assert trace_basis(3, 2) is psi
    mesh = build_structured_macro_mesh(2, 1, 2)
    dofmap = build_patch_dof_map(mesh.macro_elements[0], 2)
    before = val.copy()
    for arr in (rule.points, rule.points_ref, rule.weights, val, grad, hess,
                quadrature_rule(1, 3).weights, psi.nodes, psi.breakpoints,
                dofmap.cell_maps[0], dofmap.edge_nodes, dofmap.node_lattice):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] += 1
    assert np.array_equal(reference_tables(2, 5)[1], before)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
def test_quadrature_monomial_exactness(d, degree):
    from math import factorial

    rule = quadrature_rule(d, degree)
    pts = rule.points[:, 1:]
    for exps in np.ndindex(*([degree + 1] * d)):
        if sum(exps) > degree:
            continue
        val = rule.weights.copy()
        for c, e in enumerate(exps):
            val = val * pts[:, c] ** e
        # int over simplex of prod x_c^{e_c} = prod(e_c!) / (sum e_c + d)!
        exact = 1.0
        for e in exps:
            exact *= factorial(e)
        exact /= factorial(sum(exps) + d)
        assert float(val.sum()) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("m_f,p,expect", [(1, 2, 3), (2, 2, 5), (4, 3, 13)])
def test_trace_dof_counts(m_f, p, expect):
    basis = TraceBasis(m_f, p)
    assert basis.n_dofs == expect
    # 1D coordinate-dedup oracle
    nodes = set()
    for seg in range(m_f):
        for k in range(p + 1):
            nodes.add(round(seg / m_f + k / (m_f * p), 12))
    assert len(nodes) == expect


def test_trace_basis_kronecker_and_pou():
    basis = TraceBasis(3, 2)
    V = basis.eval(basis.nodes)
    assert np.abs(V - np.eye(basis.n_dofs)).max() < 1e-10
    s = np.linspace(0, 1, 40)
    assert np.abs(basis.eval(s).sum(axis=1) - 1.0).max() < 1e-12


def test_face_trace_map():
    mesh = build_structured_macro_mesh(2, 2, 2)
    face = mesh.interior_faces()[0]
    basis = face_trace_map(face, 2, mesh=mesh)
    assert basis.n_dofs == face.m_f * 2 + 1

    # corrupt one side's parametrization: orientation check must fire
    face.left.t0 += 0.25
    with pytest.raises(OrientationError):
        face_trace_map(face, 2, mesh=mesh)
    face.left.t0 -= 0.25


@pytest.mark.parametrize("m,p", [(1, 2), (2, 2), (2, 3)])
def test_patch_space_reproduces_polynomials(m, p):
    macro = build_structured_macro_mesh(2, 1, m).macro_elements[0]
    dofmap = build_patch_dof_map(macro, p)
    amap = macro.affine_map()
    nodes = amap.to_physical(dofmap.node_ref_coords)

    def u(x):
        return (x[:, 0] + 0.5 * x[:, 1]) ** p + x[:, 1]

    coeffs = u(nodes)
    basis = LagrangeBasis(2, p)
    rng = np.random.default_rng(11)
    ref = random_ref_points(rng, 50)
    # locate each point's sub-cell by brute force and evaluate there
    for pt in ref:
        for cell_idx, (kind, i, j) in enumerate(sub_cells(m)):
            sub = sub_cell_ref_verts(kind, i, j, m)
            J = np.column_stack((sub[1] - sub[0], sub[2] - sub[0]))
            loc = np.linalg.solve(J, pt - sub[0])
            if loc.min() >= -1e-12 and loc.sum() <= 1 + 1e-12:
                phys = amap.to_physical(pt[None, :])
                val = basis.eval(loc[None, :]) @ coeffs[dofmap.cell_maps[cell_idx]]
                assert abs(val[0] - u(phys)[0]) < 1e-10
                break
        else:
            pytest.fail("point not located in any sub-cell")


@pytest.mark.parametrize("m,p", [(2, 2), (3, 2)])
def test_trace_compatibility(m, p):
    """Edge restriction of a patch function equals its trace-basis expansion."""
    macro = build_structured_macro_mesh(2, 1, m).macro_elements[0]
    dofmap = build_patch_dof_map(macro, p)
    amap = macro.affine_map()
    nodes = amap.to_physical(dofmap.node_ref_coords)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(dofmap.n_dofs)
    theta = TraceBasis(m, p)
    for k in range(3):
        edge_coeffs = coeffs[dofmap.edge_nodes[k]]
        pa, pb = macro.edge_endpoints(k)
        t = np.linspace(0, 1, 23)
        vals = theta.eval(t) @ edge_coeffs
        # the edge-node coordinates must equal the trace nodes along the edge
        edge_pts = nodes[dofmap.edge_nodes[k]]
        expect = pa[None, :] + theta.nodes[:, None] * (pb - pa)[None, :]
        assert np.abs(edge_pts - expect).max() < 1e-12
        # and the expansion interpolates the patch values at the trace nodes
        assert np.abs(theta.eval(theta.nodes) @ edge_coeffs - edge_coeffs).max() < 1e-10
        assert np.isfinite(vals).all()
