"""Mesh construction, skeleton matching and dyadic refinement."""

import numpy as np
import pytest

from mehdg.mesh import (
    DegenerateSimplexError,
    MacroElement,
    build_structured_macro_mesh,
    export_text,
    export_vtk,
    reference_to_physical,
    refine_macros,
    sub_cell_ref_verts,
    sub_cells,
)


def interior_face_formula(n):
    # A_2 n^2 + B_2 * 2 * n (n-1) with A_2 = B_2 = 1
    return n**2 + 2 * n * (n - 1)


def brute_force_interior_faces(mesh):
    """Count interior faces by pairwise macro-edge matching on coordinates."""
    edges = {}
    for e in mesh.macro_elements:
        for k in range(3):
            pa, pb = e.edge_endpoints(k)
            key = tuple(sorted((tuple(np.round(pa, 12)), tuple(np.round(pb, 12)))))
            edges.setdefault(key, []).append(e.id)
    return sum(1 for v in edges.values() if len(v) == 2)


def test_counts_basic():
    mesh = build_structured_macro_mesh(2, 1, 1)
    assert len(mesh.macro_elements) == 2
    assert len(mesh.interior_faces()) == 1

    mesh = build_structured_macro_mesh(2, 2, 1)
    assert len(mesh.macro_elements) == 8
    assert len(mesh.interior_faces()) == 8

    mesh = build_structured_macro_mesh(2, 2, 2)
    assert len(mesh.macro_elements) == 8
    assert sum(len(e.sub_elements()) for e in mesh.macro_elements) == 32


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_face_count_formula(n):
    mesh = build_structured_macro_mesh(2, n, 1)
    assert len(mesh.interior_faces()) == interior_face_formula(n)
    assert brute_force_interior_faces(mesh) == interior_face_formula(n)


def test_face_sharing_invariant():
    mesh = build_structured_macro_mesh(2, 3, 2)
    for face in mesh.skeleton:
        if face.tag == "interior":
            assert face.right is not None
            assert face.left.macro != face.right.macro
        else:
            assert face.right is None


def test_bad_arguments():
    with pytest.raises(ValueError):
        build_structured_macro_mesh(4, 1, 1)
    with pytest.raises(ValueError):
        build_structured_macro_mesh(2, 0, 1)
    with pytest.raises(ValueError):
        build_structured_macro_mesh(2, 1, 0)
    with pytest.raises(ValueError):
        build_structured_macro_mesh(3, 2, 1)  # meshes are 2-D only


def test_reference_to_physical():
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    amap = reference_to_physical(ref)
    assert np.allclose(amap.matrix, np.eye(2))
    assert amap.det == pytest.approx(1.0)

    h = 0.25
    amap = reference_to_physical(np.array([[0, 0], [h, 0], [0, h]], dtype=float))
    assert amap.det == pytest.approx(h**2)
    # hypotenuse = edge 0 (opposite vertex 0)
    assert np.allclose(amap.normals[0], np.array([1.0, 1.0]) / np.sqrt(2))

    with pytest.raises(DegenerateSimplexError):
        reference_to_physical(np.array([[0, 0], [1, 1], [2, 2]], dtype=float))


def test_affine_round_trip():
    verts = np.array([[0.2, 0.1], [0.7, 0.3], [0.4, 0.9]])
    amap = reference_to_physical(verts)
    pts = np.random.default_rng(3).random((10, 2)) * 0.3
    assert np.allclose(amap.to_reference(amap.to_physical(pts)), pts, atol=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_sub_cell_geometry_matches_per_cell_oracle(m):
    """The two shared class Jacobians and the cell origins reproduce each
    sub-cell mapped vertex by vertex through the macro map."""
    verts = np.array([[0.1, 0.2], [0.9, 0.35], [0.3, 0.8]])
    macro = MacroElement(id=0, vertex_ids=(0, 1, 2), verts=verts, m=m)
    amap = macro.affine_map()
    classes, cells = macro.sub_cell_geometry()
    assert len(cells) == m**2
    for (kind, i, j), (cell_kind, origin) in zip(sub_cells(m), cells):
        sub = amap.to_physical(sub_cell_ref_verts(kind, i, j, m))
        jac = np.column_stack((sub[1] - sub[0], sub[2] - sub[0]))
        J, Jinv, det = classes[cell_kind]
        assert cell_kind == kind
        assert np.abs(origin - sub[0]).max() <= 1e-15
        assert np.abs(J - jac).max() <= 1e-15
        assert abs(det - abs(np.linalg.det(jac))) <= 1e-15
        assert np.abs(Jinv @ jac - np.eye(2)).max() <= 1e-15


def test_macro_geometry_is_stored_and_read_only():
    macro = build_structured_macro_mesh(2, 1, 2).macro_elements[0]
    assert macro.affine_map() is macro.affine_map()
    for arr in (macro.verts, macro.affine_map().matrix, macro.affine_map().normals):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 4)])
def test_volume_conservation(n, m):
    mesh = build_structured_macro_mesh(2, n, m)
    total = 0.0
    for e in mesh.macro_elements:
        vol = e.volume
        assert vol == pytest.approx(1.0 / (2 * n**2), rel=1e-14)
        subs = e.sub_elements()
        assert len(subs) == m**2
        sub_vol = sum(
            abs(np.linalg.det(np.column_stack((s[1] - s[0], s[2] - s[0])))) / 2
            for s in subs
        )
        assert sub_vol == pytest.approx(vol, rel=1e-14)
        total += vol
    assert total == pytest.approx(1.0, rel=1e-14)


def test_skeleton_duality():
    """Sub-face endpoints recovered from either side are identical point sets."""
    mesh = build_structured_macro_mesh(2, 2, 2)
    for face in mesh.interior_faces():
        sets = []
        for side in face.sides():
            macro = mesh.macro_elements[side.macro]
            pa, pb = macro.edge_endpoints(side.edge)
            pts = set()
            for k in range(face.m_f + 1):
                t = side.t0 + (side.t1 - side.t0) * k / face.m_f
                pts.add(tuple(np.round(pa + t * (pb - pa), 12)))
            sets.append(pts)
        assert sets[0] == sets[1]
        direct = {tuple(np.round(sf[0], 12)) for sf in face.sub_faces}
        direct |= {tuple(np.round(sf[1], 12)) for sf in face.sub_faces}
        assert direct == sets[0]


def test_normals_antiparallel():
    mesh = build_structured_macro_mesh(2, 2, 1)
    for face in mesh.interior_faces():
        nl = mesh.macro_elements[face.left.macro].affine_map().normals[face.left.edge]
        nr = mesh.macro_elements[face.right.macro].affine_map().normals[face.right.edge]
        assert np.allclose(nl, -nr, atol=1e-14)
        assert np.allclose(face.normal, nl, atol=1e-14)


def test_refine_empty_is_identity():
    mesh = build_structured_macro_mesh(2, 2, 2)
    assert refine_macros(mesh, set()) is mesh


def test_refine_one_of_two():
    mesh = build_structured_macro_mesh(2, 1, 1)
    fine = refine_macros(mesh, {0})
    assert len(fine.macro_elements) == 5
    hanging = [f for f in fine.skeleton if f.hanging]
    # the shared diagonal is covered by two hanging half-edge faces
    assert len(hanging) == 2
    for f in hanging:
        assert f.tag == "interior"
        levels = {fine.macro_elements[s.macro].level for s in f.sides()}
        assert levels == {0, 1}


def test_refine_all_twice_matches_n4():
    mesh = build_structured_macro_mesh(2, 1, 1)
    for _ in range(2):
        mesh = refine_macros(mesh, set(range(len(mesh.macro_elements))))
    ref = build_structured_macro_mesh(2, 4, 1)
    assert len(mesh.macro_elements) == len(ref.macro_elements) == 32
    assert not any(f.hanging for f in mesh.skeleton)
    assert brute_force_interior_faces(mesh) == brute_force_interior_faces(ref)
    assert len(mesh.interior_faces()) == len(ref.interior_faces())


def test_refine_idempotent_outside_one_ring():
    mesh = build_structured_macro_mesh(2, 3, 2)
    fine = refine_macros(mesh, {0})
    refined_ids = {0}
    # macros kept verbatim appear first, in original order, bitwise identical
    kept = [e for e in mesh.macro_elements if e.id not in refined_ids]
    for old, new in zip(kept, fine.macro_elements):
        assert np.array_equal(old.verts, new.verts)
        assert old.m == new.m and old.level == new.level


def test_two_to_one_closure():
    mesh = build_structured_macro_mesh(2, 2, 1)
    mesh = refine_macros(mesh, {0})
    mesh = refine_macros(mesh, {len(mesh.macro_elements) - 1})
    for face in mesh.skeleton:
        if face.right is None:
            continue
        la = mesh.macro_elements[face.left.macro].level
        lb = mesh.macro_elements[face.right.macro].level
        assert abs(la - lb) <= 1


def test_hanging_level_gap():
    mesh = refine_macros(build_structured_macro_mesh(2, 2, 2), {0, 3})
    assert any(f.hanging for f in mesh.skeleton)
    for f in mesh.skeleton:
        if f.hanging:
            la = mesh.macro_elements[f.left.macro].level
            lb = mesh.macro_elements[f.right.macro].level
            assert abs(la - lb) == 1
            assert f.parent_edge is not None


def test_deterministic_rebuild():
    a = build_structured_macro_mesh(2, 3, 2)
    b = build_structured_macro_mesh(2, 3, 2)
    assert len(a.skeleton) == len(b.skeleton)
    for fa, fb in zip(a.skeleton, b.skeleton):
        assert np.array_equal(fa.verts, fb.verts)
        assert fa.tag == fb.tag and fa.left.macro == fb.left.macro


def test_export_text():
    mesh = build_structured_macro_mesh(2, 1, 1)
    text = export_text(mesh)
    lines = text.strip().split("\n")
    nv = sum(1 for ln in lines if ln.startswith("v "))
    ne = sum(1 for ln in lines if ln.startswith("e "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert (nv, ne, nf) == (4, 2, 2 + len(mesh.skeleton) - 2 + 0) or (
        nv, ne, nf) == (4, 2, len(mesh.skeleton))
    assert nf == len(mesh.skeleton)


def test_export_vtk(tmp_path):
    mesh = build_structured_macro_mesh(2, 1, 2)
    path = tmp_path / "mesh.vtk"
    export_vtk(mesh, str(path))
    body = path.read_text()
    assert body.startswith("# vtk DataFile")
    assert "CELL_TYPES 8" in body


def test_boundary_tagger():
    def tagger(mid):
        return "N" if mid[1] < 1e-12 else "D"

    mesh = build_structured_macro_mesh(2, 2, 1, boundary_tagger=tagger)
    tags = [f.tag for f in mesh.boundary_faces()]
    assert tags.count("N") == 2
    assert tags.count("D") == 6

    def bad(mid):
        return "X"

    with pytest.raises(Exception):
        build_structured_macro_mesh(2, 1, 1, boundary_tagger=bad)
