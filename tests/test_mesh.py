"""Mesh construction, skeleton matching and dyadic refinement."""

import dataclasses

import numpy as np
import pytest
from conftest import CLASS_MESHES, random_adapted_mesh, skewed_mesh, skewed_verts
from reference_mesh import (
    face_sides,
    loop_affine_map,
    loop_assemble_mesh,
    loop_macro_faces,
    loop_refine,
    loop_structured_mesh,
)

from mehdg.adaptivity import error_indicator, mark
from mehdg.assembly import StabilizationConfig
from mehdg.bench import l2_error, make_benchmark
from mehdg.fem_basis import quadrature_rule
from mehdg.mesh import (
    _ROUND,
    EDGE_VERTS,
    DegenerateSimplexError,
    MacroMesh,
    SkeletonError,
    _assemble_mesh,
    _simplex_geometry,
    build_structured_macro_mesh,
    export_text,
    export_vtk,
    refine_macros,
    sub_cell_jacobians,
    sub_cell_quadrature,
    sub_cell_ref_verts,
    sub_cells,
)
from mehdg.schur_solver import SolverConfig, solve


def interior_face_formula(n):
    # A_2 n^2 + B_2 * 2 * n (n-1) with A_2 = B_2 = 1
    return n**2 + 2 * n * (n - 1)


def brute_force_interior_faces(mesh):
    """Count interior faces by pairwise macro-edge matching on coordinates."""
    edges = {}
    for e, verts in enumerate(mesh.verts):
        for a, b in EDGE_VERTS:
            key = tuple(sorted((tuple(np.round(verts[a], 12)), tuple(np.round(verts[b], 12)))))
            edges.setdefault(key, []).append(e)
    return sum(1 for v in edges.values() if len(v) == 2)


def n_interior(mesh):
    return int((mesh.face_tag == "interior").sum())


def test_counts_basic():
    mesh = build_structured_macro_mesh(2, 1, 1)
    assert len(mesh.verts) == 2
    assert n_interior(mesh) == 1

    mesh = build_structured_macro_mesh(2, 2, 1)
    assert len(mesh.verts) == 8
    assert n_interior(mesh) == 8

    mesh = build_structured_macro_mesh(2, 2, 2)
    assert len(mesh.verts) == 8
    assert len(mesh.verts) * len(list(sub_cells(mesh.m))) == 32


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_face_count_formula(n):
    mesh = build_structured_macro_mesh(2, n, 1)
    assert n_interior(mesh) == interior_face_formula(n)
    assert brute_force_interior_faces(mesh) == interior_face_formula(n)


def test_face_sharing_invariant():
    mesh = build_structured_macro_mesh(2, 3, 2)
    interior = mesh.face_tag == "interior"
    assert np.array_equal(mesh.face_right >= 0, interior)
    assert np.all(mesh.face_left[interior] // 3 != mesh.face_right[interior] // 3)


def test_bad_arguments():
    with pytest.raises(ValueError):
        build_structured_macro_mesh(4, 1, 1)
    with pytest.raises(ValueError):
        build_structured_macro_mesh(2, 0, 1)
    with pytest.raises(ValueError):
        build_structured_macro_mesh(2, 1, 0)
    with pytest.raises(ValueError):
        build_structured_macro_mesh(3, 2, 1)  # meshes are 2-D only


def test_build_rejects_non_integer_n_and_m():
    for n, m in ((2, 1.5), (2.5, 1), (2, 2.0), (True, 1), (2, np.bool_(True)),
                 (np.float64(2.0), 1)):
        with pytest.raises(ValueError):
            build_structured_macro_mesh(2, n, m)
    mesh = build_structured_macro_mesh(2, np.int64(2), np.int32(3))
    assert (mesh.n, mesh.m) == (2, 3) and type(mesh.m) is int


def test_simplex_geometry():
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    h = 0.25
    J, det, normals, diameter = _simplex_geometry(np.stack((ref, h * ref)))
    assert np.allclose(J[0], np.eye(2))
    assert det.tolist() == pytest.approx([1.0, h**2])
    # hypotenuse = edge 0 (opposite vertex 0)
    assert np.allclose(normals[1, 0], np.array([1.0, 1.0]) / np.sqrt(2))
    assert diameter.tolist() == pytest.approx([np.sqrt(2), h * np.sqrt(2)])

    with pytest.raises(DegenerateSimplexError):
        _simplex_geometry(np.array([[[0, 0], [1, 1], [2, 2]]], dtype=float))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_vertex_raises(bad):
    """A NaN or inf vertex coordinate raises DegenerateSimplexError from the
    geometry, not an edge-matching error about unresolved edges."""
    raw = [[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], [(0.0, 0.0), (1.0, 1.0), (bad, 1.0)]]
    with pytest.raises(DegenerateSimplexError, match="non-finite"):
        _assemble_mesh(raw, 1, [0, 0], 1, None)


# (macro vertices, reference points, error bound in units of cond(J) eps):
# two well-shaped macros at hand-picked points, bounded by 1e-15 absolute;
# and a thin, skewed macro (aspect ratio 2.7e3, cond(J) 4e3), where ad - bc
# cancels, at the points of a quadrature rule
GEOMETRY_CASES = {
    "regular": (np.array([[[0.1, 0.2], [0.9, 0.35], [0.3, 0.8]],
                          [[0.9, 0.35], [1.0, 1.0], [0.3, 0.8]]]),
                np.array([[0.2, 0.3], [0.6, 0.1], [1.0 / 3.0, 1.0 / 3.0], [0.0, 1.0]]), None),
    "thin": (np.array([[[0.1, 0.2], [0.9, 0.35], [0.65994, 0.305295]]]),
             quadrature_rule(5).points_ref, 4.0),
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sub_cell_geometry_matches_per_cell_oracle(m):
    """The batched class Jacobians, |det| and the mapped points, and the
    inverses of sub_cell_jacobians, reproduce each sub-cell of each macro
    mapped vertex by vertex through that macro's map.  On the thin macro
    the errors in |det| (relative), in jinv @ jac - I and in the points
    (relative to the vertices) stay below 4 cond(jac) eps."""
    cells = list(sub_cells(m))
    for case, (verts, xi, bound) in GEOMETRY_CASES.items():
        maps = [loop_affine_map(v) for v in verts]
        if case == "thin":
            edges = np.linalg.norm(verts[0] - np.roll(verts[0], -1, axis=0), axis=1)
            assert edges.max() ** 2 / (2.0 * abs(maps[0][1])) >= 1e3
        jacobians = np.stack([J for J, _, _ in maps])
        quad = sub_cell_quadrature(jacobians, verts[:, 0], m, xi)
        jinv = {kind: q.jinv for kind, q in sub_cell_jacobians(jacobians, m).items()}
        assert sorted(quad) == (["up"] if m == 1 else ["down", "up"])
        assert sorted(c for q in quad.values() for c in q.cells) == list(range(m**2))
        for kind, q in quad.items():
            assert q.points.shape == (len(verts), len(q.cells), len(xi), 2)
            for e, (J, _, _) in enumerate(maps):
                tol_inv = tol_det = tol_pts = 1e-15
                if bound is not None:
                    tol_inv = bound * np.linalg.cond(q.jac[e]) * np.finfo(float).eps
                    tol_det, tol_pts = tol_inv * q.det[e], tol_inv * np.abs(verts[e]).max()
                for c, cell in zip(q.cells, q.points[e]):
                    assert cells[c][0] == kind
                    ref = sub_cell_ref_verts(*cells[c], m)
                    sub = ref @ J.T + verts[e, 0]
                    jac = np.column_stack((sub[1] - sub[0], sub[2] - sub[0]))
                    assert np.abs(q.jac[e] - jac).max() <= 1e-15
                    assert abs(q.det[e] - abs(np.linalg.det(jac))) <= tol_det
                    assert np.abs(jinv[kind][e] @ jac - np.eye(2)).max() <= tol_inv
                    pts = (ref[0] + xi @ (ref[1:] - ref[0])) @ J.T + verts[e, 0]
                    assert np.abs(cell - pts).max() <= tol_pts


def test_macro_geometry_is_stored_and_read_only():
    mesh = build_structured_macro_mesh(2, 1, 2)
    for arr in (mesh.verts[0], mesh.jacobians[0], mesh.normals[0]):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 4)])
def test_volume_conservation(n, m):
    mesh = build_structured_macro_mesh(2, n, m)
    total = 0.0
    for J, v0 in zip(mesh.jacobians, mesh.verts[:, 0]):
        vol = abs(np.linalg.det(J)) / 2
        assert vol == pytest.approx(1.0 / (2 * n**2), rel=1e-14)
        subs = [sub_cell_ref_verts(*cell, m) @ J.T + v0 for cell in sub_cells(m)]
        assert len(subs) == m**2
        sub_vol = sum(
            abs(np.linalg.det(np.column_stack((s[1] - s[0], s[2] - s[0])))) / 2
            for s in subs
        )
        assert sub_vol == pytest.approx(vol, rel=1e-14)
        total += vol
    assert total == pytest.approx(1.0, rel=1e-14)


def test_skeleton_duality():
    """On every face, each side's edge at its (t0, t1) recovers the face's
    two vertices, and the sub-face endpoints recovered from either side of
    an interior face are identical point sets; on a uniform mesh and on an
    adapted one with hanging faces."""
    for mesh in (build_structured_macro_mesh(2, 2, 2), random_adapted_mesh(2)):
        m = mesh.m
        for f in range(len(mesh.face_tag)):
            v0, v1 = mesh.face_verts[f]
            sets = []
            for side in face_sides(mesh, f):
                pa, pb = mesh.verts[side.macro, list(EDGE_VERTS[side.edge])]
                for t, target in ((side.t0, v0), (side.t1, v1)):
                    assert np.linalg.norm(pa + t * (pb - pa) - target) <= 1e-10
                pts = set()
                for k in range(m + 1):
                    t = side.t0 + (side.t1 - side.t0) * k / m
                    pts.add(tuple(np.round(pa + t * (pb - pa), 12)))
                sets.append(pts)
            direct = {tuple(np.round(v0 + k / m * (v1 - v0), 12)) for k in range(m + 1)}
            assert all(pts == direct for pts in sets)
            assert len(sets) == (2 if mesh.face_tag[f] == "interior" else 1)
        assert (mesh.face_parent >= 0).any() or mesh.levels.max() == 0


def test_normals_antiparallel():
    mesh = build_structured_macro_mesh(2, 2, 1)
    interior = mesh.face_tag == "interior"
    edge_normals = mesh.normals.reshape(-1, 2)
    nl = edge_normals[mesh.face_left[interior]]
    nr = edge_normals[mesh.face_right[interior]]
    assert np.allclose(nl, -nr, atol=1e-14)


def test_refine_empty_is_identity():
    mesh = build_structured_macro_mesh(2, 2, 2)
    assert refine_macros(mesh, set()) is mesh


def test_refine_one_of_two():
    mesh = build_structured_macro_mesh(2, 1, 1)
    fine = refine_macros(mesh, {0})
    assert len(fine.verts) == 5
    hanging = np.flatnonzero(fine.face_parent >= 0)
    # the shared diagonal is covered by two hanging half-edge faces
    assert len(hanging) == 2
    for f in hanging:
        assert fine.face_tag[f] == "interior"
        levels = {int(fine.levels[s.macro]) for s in face_sides(fine, f)}
        assert levels == {0, 1}


def test_refine_all_twice_matches_n4():
    mesh = build_structured_macro_mesh(2, 1, 1)
    for _ in range(2):
        mesh = refine_macros(mesh, set(range(len(mesh.verts))))
    ref = build_structured_macro_mesh(2, 4, 1)
    assert len(mesh.verts) == len(ref.verts) == 32
    assert not (mesh.face_parent >= 0).any()
    assert brute_force_interior_faces(mesh) == brute_force_interior_faces(ref)
    assert n_interior(mesh) == n_interior(ref)


def test_refine_idempotent_outside_one_ring():
    mesh = build_structured_macro_mesh(2, 3, 2)
    fine = refine_macros(mesh, {0})
    # macros kept verbatim appear first, in original order, bitwise identical
    kept = np.arange(1, len(mesh.verts))
    assert np.array_equal(fine.verts[:kept.size], mesh.verts[kept])
    assert np.array_equal(fine.levels[:kept.size], mesh.levels[kept])
    assert fine.m == mesh.m


def test_two_to_one_closure():
    mesh = build_structured_macro_mesh(2, 2, 1)
    mesh = refine_macros(mesh, {0})
    mesh = refine_macros(mesh, {len(mesh.verts) - 1})
    inner = mesh.face_right >= 0
    la = mesh.levels[mesh.face_left[inner] // 3]
    lb = mesh.levels[mesh.face_right[inner] // 3]
    assert np.all(np.abs(la - lb) <= 1)


def test_hanging_level_gap():
    mesh = refine_macros(build_structured_macro_mesh(2, 2, 2), {0, 3})
    hanging = mesh.face_parent >= 0
    assert hanging.any()
    la = mesh.levels[mesh.face_left[hanging] // 3]
    lb = mesh.levels[mesh.face_right[hanging] // 3]
    assert np.all(np.abs(la - lb) == 1)
    # the parent is the coarse side's edge
    parent = mesh.face_parent[hanging]
    assert np.all(mesh.levels[parent // 3] == np.minimum(la, lb))
    assert np.array_equal(parent, mesh.face_left[hanging])


def test_deterministic_rebuild():
    a = build_structured_macro_mesh(2, 3, 2)
    b = build_structured_macro_mesh(2, 3, 2)
    assert np.array_equal(a.face_verts, b.face_verts)
    assert np.array_equal(a.face_tag, b.face_tag)
    assert np.array_equal(a.face_left, b.face_left)


def test_export_text():
    mesh = build_structured_macro_mesh(2, 1, 1)
    text = export_text(mesh)
    lines = text.strip().split("\n")
    nv = sum(1 for ln in lines if ln.startswith("v "))
    ne = sum(1 for ln in lines if ln.startswith("e "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert (nv, ne, nf) == (4, 2, len(mesh.face_tag))


def _read_vtk_triangles(path):
    """(cells, 3, 2) point coordinates of each VTK triangle, read through
    its CELLS connectivity."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile") and lines[3] == "DATASET UNSTRUCTURED_GRID"
    npts = int(lines[4].split()[1])
    pts = np.array([[float(v) for v in ln.split()] for ln in lines[5:5 + npts]])
    assert np.all(pts[:, 2] == 0.0)
    ncells = int(lines[5 + npts].split()[1])
    conn = np.array([[int(v) for v in ln.split()] for ln in lines[6 + npts:6 + npts + ncells]])
    assert np.all(conn[:, 0] == 3)
    assert lines[6 + npts + ncells] == f"CELL_TYPES {ncells}"
    assert lines[7 + npts + ncells:] == ["5"] * ncells
    return pts[conn[:, 1:], :2]


def test_export_vtk(tmp_path):
    """Each VTK triangle is a sub-cell mapped by the loop oracle's affine map
    of its macro: macro by macro, and within a macro in sub_cells order with
    the vertices of sub_cell_ref_verts; on a uniform, a skewed and an
    adapted mesh."""
    for mesh in (build_structured_macro_mesh(2, 1, 2), skewed_mesh(3, 3),
                 random_adapted_mesh(2)):
        path = tmp_path / "mesh.vtk"
        export_vtk(mesh, str(path))
        tris = _read_vtk_triangles(path)
        cells = list(sub_cells(mesh.m))
        assert len(tris) == len(mesh.verts) * len(cells)
        for e, verts in enumerate(mesh.verts):
            J = loop_affine_map(verts)[0]
            for c, cell in enumerate(cells):
                want = sub_cell_ref_verts(*cell, mesh.m) @ J.T + verts[0]
                assert np.abs(tris[e * len(cells) + c] - want).max() <= 1e-15


def test_boundary_tagger():
    def tagger(mid):
        return "N" if mid[1] < 1e-12 else "D"

    mesh = build_structured_macro_mesh(2, 2, 1, boundary_tagger=tagger)
    tags = mesh.face_tag[mesh.face_tag != "interior"].tolist()
    assert tags.count("N") == 2
    assert tags.count("D") == 6

    def bad(mid):
        return "X"

    with pytest.raises(Exception):
        build_structured_macro_mesh(2, 1, 1, boundary_tagger=bad)


def test_refine_rejects_non_integer_ids():
    mesh = build_structured_macro_mesh(2, 2, 1)
    for bad in ([1.5], [True], [np.float64(2.0)], [np.bool_(True)], [-1], [8]):
        with pytest.raises(ValueError):
            refine_macros(mesh, bad)
    fine = refine_macros(mesh, [np.int64(1)])
    assert len(fine.verts) > len(mesh.verts)


def _assert_same_mesh(new, ref, exact):
    """Every field of two meshes: topology, integer and string fields equal,
    of the same kind; float fields bitwise equal if `exact`, else within
    1e-15 relative.  Every array is read-only."""
    assert new.n == ref.n and new.boundary_tagger is ref.boundary_tagger
    assert new.m == ref.m and type(new.m) is type(ref.m)
    k, nf = len(ref.verts), len(ref.face_tag)
    shapes = {"verts": (k, 3, 2), "vertex_ids": (k, 3), "levels": (k,), "jacobians": (k, 2, 2),
              "normals": (k, 3, 2), "diameter": (k,), "face_verts": (nf, 2, 2),
              "face_left": (nf,), "face_right": (nf,), "face_t": (nf, 2, 2),
              "face_tag": (nf,), "face_parent": (nf,)}
    for fld in dataclasses.fields(MacroMesh):
        a, b = getattr(new, fld.name), getattr(ref, fld.name)
        if not isinstance(b, np.ndarray):
            continue
        assert a.shape == b.shape and a.dtype.kind == b.dtype.kind
        assert a.shape == shapes.get(fld.name, a.shape) and not a.flags.writeable
        if a.dtype.kind != "f" or fld.name in ("vertices", "verts", "face_verts"):
            assert np.array_equal(a, b)
        elif exact:
            assert np.array_equal(a, b)
        else:
            assert np.all(np.abs(a - b) <= 1e-15 * np.abs(b))
    # the slot keys of the congruence classes, rounded to _ROUND digits
    assert np.array_equal(np.round(new.slot_table, _ROUND), np.round(ref.slot_table, _ROUND))


def _neumann_bottom(mid):
    return "N" if mid[1] < 1e-12 else "D"


def _uniform_pair(n, m):
    """Bitwise on dyadic meshes; at h = 1/3 and 1/5 the loop's norms of
    2-vectors (np.dot, which may fuse multiply and add) and the batched ones
    round differently."""
    yield (build_structured_macro_mesh(2, n, m), loop_structured_mesh(n, m),
           n in (1, 2, 8))


def _skewed_pair():
    raw = skewed_verts(3)
    k = len(raw)
    yield (_assemble_mesh(raw, 2, [0] * k, 3, None),
           loop_assemble_mesh(raw, 2, [0] * k, 3, None), False)


def _adapted_pairs(seed, tagger, levels=3):
    """`levels` levels of refinement of seeded random marks (the 2:1 closure
    adds macros at the later levels), from the n0 = 4, m = 2 mesh."""
    rng = np.random.default_rng(seed)
    new = build_structured_macro_mesh(2, 4, 2, boundary_tagger=tagger)
    ref = loop_structured_mesh(4, 2, boundary_tagger=tagger)
    for _ in range(levels):
        k = len(new.verts)
        marked = rng.choice(k, size=max(1, k // 5), replace=False).tolist()
        new, ref = refine_macros(new, marked), loop_refine(ref, marked)
        assert (new.face_parent >= 0).any()
        yield new, ref, True


ORACLE_MESHES = {
    **{f"uniform-{n}-{m}": (lambda n=n, m=m: _uniform_pair(n, m))
       for n in (1, 2, 3, 5, 8) for m in (1, 2, 4)},
    "skewed-3-2": _skewed_pair,
    **{f"adapted-{seed}-{name}": (lambda seed=seed, tagger=tagger: _adapted_pairs(seed, tagger))
       for seed in (0, 1, 2)
       for name, tagger in (("dirichlet", None), ("neumann", _neumann_bottom))},
    "adapted-4-level-neumann": lambda: _adapted_pairs(3, _neumann_bottom, levels=4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_mesh_matches_loop_reference(name):
    """Every field of the mesh equals that of the loop builder: topology
    exactly, floats bitwise on dyadic meshes and to 1e-15 relative on the
    others."""
    for new, ref, exact in ORACLE_MESHES[name]():
        _assert_same_mesh(new, ref, exact)
    if name.endswith("neumann"):
        assert (new.face_tag == "N").any()


def _loop_export_text(mesh):
    """export_text written line by line over the mesh's macros and faces."""
    lines = ["v %.17g %.17g" % (v[0], v[1]) for v in mesh.vertices]
    lines += [f"e {i} {j} {k} {e}" for e, (i, j, k) in enumerate(mesh.vertex_ids)]
    for f, tag in enumerate(mesh.face_tag):
        sides = face_sides(mesh, f)
        right = sides[1].macro if len(sides) == 2 else -1
        lines.append(f"f {sides[0].macro} {right} {tag}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_export_text_matches_loop_reference(seed):
    """On adapted meshes with hanging and Neumann faces, export_text of the
    arrays is byte-identical to the same dump of the loop builder's objects,
    and builds no objects."""
    for new, ref, _ in _adapted_pairs(seed, _neumann_bottom):
        assert export_text(new) == _loop_export_text(ref)
        assert "macro_elements" not in vars(new) and "skeleton" not in vars(new)
    assert (new.face_tag == "N").any()


def test_solve_and_adapt_build_no_mesh_objects():
    """Solving in mb and mf, the L2 error, the indicator, marking and
    refinement read only the mesh's arrays: no mesh of a two-level adaptive
    run, with hanging and Neumann faces, builds its macro or face objects."""
    case = make_benchmark("tanh", 0.05, (1.0, 2.0))
    problem = case.problem()
    problem.g_N = lambda x: np.cos(2 * x[:, 0]) - x[:, 1]
    meshes = [build_structured_macro_mesh(2, 4, 2, boundary_tagger=_neumann_bottom)]
    for _ in range(2):
        mesh = meshes[-1]
        for mode in ("mb", "mf"):
            sol, _ = solve(mesh, problem, StabilizationConfig(supg=True),
                           SolverConfig(tol=1e-8, mode=mode), 2)
        assert np.isfinite(l2_error(mesh, 2, sol, case.u_exact))
        meshes.append(refine_macros(mesh, mark(error_indicator(mesh, 2, sol), 0.5)))
    assert (meshes[-1].face_parent >= 0).any() and (meshes[-1].face_tag == "N").any()
    for mesh in meshes:
        assert "macro_elements" not in vars(mesh) and "skeleton" not in vars(mesh)


@pytest.mark.parametrize("raw", [
    # three macros on the edge (1, 0)-(0, 1)
    [[[0, 0], [1, 0], [0, 1]], [[1, 0], [1, 1], [0, 1]], [[1, 0], [0, 1], [0.8, 0.8]]],
    # interior edges that match nothing
    [[[0.2, 0.2], [0.8, 0.2], [0.2, 0.8]]],
], ids=["three-macros-on-an-edge", "unmatched-edges"])
def test_skeleton_errors_match_loop_reference(raw):
    k = len(raw)
    for build in (_assemble_mesh, loop_assemble_mesh):
        with pytest.raises(SkeletonError):
            build(np.array(raw, dtype=float), 1, [0] * k, 1, None)


# the unit square as the lower-left macro (level 0) and the four children
# (level 1) of the upper-right one, which leave two hanging faces on the
# diagonal; the third child covers the half of the diagonal at (0, 1)
_HANGING_DIAGONAL = [
    [[0, 0], [1, 0], [0, 1]],
    [[1, 0], [1, 0.5], [0.5, 0.5]], [[1, 0.5], [1, 1], [0.5, 1]],
    [[0.5, 0.5], [0.5, 1], [0, 1]], [[1, 0.5], [0.5, 1], [0.5, 0.5]],
]


@pytest.mark.parametrize("macros, levels, error", [
    ([0, 1, 2, 3, 4], [0, 1, 1, 1, 1], None),
    # the half of the diagonal at (0, 1) is not covered
    ([0, 1, 2, 4], [0, 1, 1, 1], "exactly two"),
    # the halves' only parent is on their own level
    ([0, 1, 2, 3, 4], [0, 0, 0, 0, 0], "unresolved"),
], ids=["two-hanging-faces", "one-fine-half", "parent-on-the-same-level"])
def test_hanging_match_matches_loop_reference(macros, levels, error):
    """The hanging-face match on the smallest mesh with hanging faces: built
    like the loop builder, and with one fine half missing or with a parent
    on the same level, refused with the loop builder's error."""
    raw = np.array([_HANGING_DIAGONAL[e] for e in macros], dtype=float)
    if error is None:
        new = _assemble_mesh(raw, 2, levels, 1, None)
        _assert_same_mesh(new, loop_assemble_mesh(raw, 2, levels, 1, None), True)
        assert np.count_nonzero(new.face_parent >= 0) == 2
        return
    for build in (_assemble_mesh, loop_assemble_mesh):
        with pytest.raises(SkeletonError, match=error):
            build(raw, 2, levels, 1, None)


def test_tagger_calls_match_loop_reference():
    """The tagger sees the same midpoints, bit for bit and in the same
    order, once per boundary face."""
    calls = {"new": [], "ref": []}

    def recorder(key):
        return lambda mid: calls[key].append(tuple(mid.tolist())) or _neumann_bottom(mid)

    new = build_structured_macro_mesh(2, 4, 2, boundary_tagger=recorder("new"))
    ref = loop_structured_mesh(4, 2, boundary_tagger=recorder("ref"))
    marks = [0, 5, 17]
    new, ref = refine_macros(new, marks), loop_refine(ref, marks)
    assert calls["new"] == calls["ref"]
    assert len(calls["new"]) == 16 + (new.face_tag != "interior").sum()


def _loop_congruence_key(mesh, e):
    """The per-macro class key: the Jacobian rounded entry by entry and the
    rounded face slots, found by a loop over the faces."""
    jac = tuple(round(float(v), _ROUND) for v in mesh.jacobians[e].flat)
    slots = [(side.edge, round(side.t0, _ROUND), round(side.t1, _ROUND))
             for _, side in loop_macro_faces(mesh, e)]
    return jac, tuple(slots)


@pytest.mark.parametrize("name", sorted(CLASS_MESHES))
def test_congruence_classes_match_per_macro_key(name):
    """congruence_classes groups the macros as a dict over the per-macro key
    does: the same classes, in order of first appearance, members by id."""
    mesh = CLASS_MESHES[name]()
    groups = {}
    for e in range(len(mesh.verts)):
        groups.setdefault(_loop_congruence_key(mesh, e), []).append(e)
    classes = mesh.congruence_classes()
    assert [c.tolist() for c in classes] == list(groups.values())


def test_records_read_by_the_benchmark_worker():
    """perfbench/worker.py counts the macros and hanging faces of a traced
    run through mesh.macro_elements and mesh.skeleton, and builds meshes
    with d as the first positional argument."""
    mesh = refine_macros(build_structured_macro_mesh(2, 2, 2), {0, 3})
    assert (mesh.face_parent >= 0).any()
    assert len(mesh.macro_elements) == len(mesh.verts)
    assert [e.level for e in mesh.macro_elements] == mesh.levels.tolist()
    assert sum(f.hanging for f in mesh.skeleton) == (mesh.face_parent >= 0).sum()
    assert [f.tag for f in mesh.skeleton] == mesh.face_tag.tolist()
    assert len(build_structured_macro_mesh(2, 3, 2).verts) == 18
