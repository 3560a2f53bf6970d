"""Mesh construction, skeleton matching and dyadic refinement."""

import numpy as np
import pytest
from conftest import CLASS_MESHES, skewed_verts
from reference_mesh import loop_assemble_mesh, loop_refine, loop_structured_mesh

from mehdg.adaptivity import error_indicator, mark
from mehdg.assembly import StabilizationConfig
from mehdg.bench import l2_error, make_benchmark
from mehdg.fem_basis import quadrature_rule
from mehdg.mesh import (
    _ROUND,
    DegenerateSimplexError,
    SkeletonError,
    _assemble_mesh,
    build_structured_macro_mesh,
    export_text,
    export_vtk,
    reference_to_physical,
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


def test_build_rejects_non_integer_n_and_m():
    for n, m in ((2, 1.5), (2.5, 1), (2, 2.0), (True, 1), (2, np.bool_(True)),
                 (np.float64(2.0), 1)):
        with pytest.raises(ValueError):
            build_structured_macro_mesh(2, n, m)
    mesh = build_structured_macro_mesh(2, np.int64(2), np.int32(3))
    assert (mesh.n, mesh.m) == (2, 3) and type(mesh.m) is int
    assert all(type(e.m) is int and e.m == 3 for e in mesh.macro_elements)


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


# (macro vertices, reference points, error bound in units of cond(J) eps):
# two well-shaped macros at hand-picked points, bounded by 1e-15 absolute;
# and a thin, skewed macro (aspect ratio 2.7e3, cond(J) 4e3), where ad - bc
# cancels, at the points of a quadrature rule
GEOMETRY_CASES = {
    "regular": (np.array([[[0.1, 0.2], [0.9, 0.35], [0.3, 0.8]],
                          [[0.9, 0.35], [1.0, 1.0], [0.3, 0.8]]]),
                np.array([[0.2, 0.3], [0.6, 0.1], [1.0 / 3.0, 1.0 / 3.0], [0.0, 1.0]]), None),
    "thin": (np.array([[[0.1, 0.2], [0.9, 0.35], [0.65994, 0.305295]]]),
             quadrature_rule(2, 5).points_ref, 4.0),
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
        maps = [reference_to_physical(v) for v in verts]
        if case == "thin":
            edges = np.linalg.norm(verts[0] - np.roll(verts[0], -1, axis=0), axis=1)
            assert edges.max() ** 2 / (2.0 * abs(maps[0].det)) >= 1e3
        jacobians = np.stack([a.matrix for a in maps])
        quad = sub_cell_quadrature(jacobians, verts[:, 0], m, xi)
        jinv = {kind: q.jinv for kind, q in sub_cell_jacobians(jacobians, m).items()}
        assert sorted(quad) == (["up"] if m == 1 else ["down", "up"])
        assert sorted(c for q in quad.values() for c in q.cells) == list(range(m**2))
        for kind, q in quad.items():
            assert q.points.shape == (len(verts), len(q.cells), len(xi), 2)
            for e, amap in enumerate(maps):
                tol_inv = tol_det = tol_pts = 1e-15
                if bound is not None:
                    tol_inv = bound * np.linalg.cond(q.jac[e]) * np.finfo(float).eps
                    tol_det, tol_pts = tol_inv * q.det[e], tol_inv * np.abs(verts[e]).max()
                for c, cell in zip(q.cells, q.points[e]):
                    assert cells[c][0] == kind
                    ref = sub_cell_ref_verts(*cells[c], m)
                    sub = amap.to_physical(ref)
                    jac = np.column_stack((sub[1] - sub[0], sub[2] - sub[0]))
                    assert np.abs(q.jac[e] - jac).max() <= 1e-15
                    assert abs(q.det[e] - abs(np.linalg.det(jac))) <= tol_det
                    assert np.abs(jinv[kind][e] @ jac - np.eye(2)).max() <= tol_inv
                    pts = amap.to_physical(ref[0] + xi @ (ref[1:] - ref[0]))
                    assert np.abs(cell - pts).max() <= tol_pts


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
    m = mesh.m
    for face in mesh.interior_faces():
        sets = []
        for side in face.sides():
            macro = mesh.macro_elements[side.macro]
            pa, pb = macro.edge_endpoints(side.edge)
            pts = set()
            for k in range(m + 1):
                t = side.t0 + (side.t1 - side.t0) * k / m
                pts.add(tuple(np.round(pa + t * (pb - pa), 12)))
            sets.append(pts)
        assert sets[0] == sets[1]
        direct = {tuple(np.round(face.verts[0] + k / m * (face.verts[1] - face.verts[0]), 12))
                  for k in range(m + 1)}
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


def test_refine_rejects_non_integer_ids():
    mesh = build_structured_macro_mesh(2, 2, 1)
    for bad in ([1.5], [True], [np.float64(2.0)], [np.bool_(True)], [-1], [8]):
        with pytest.raises(ValueError):
            refine_macros(mesh, bad)
    fine = refine_macros(mesh, [np.int64(1)])
    assert len(fine.macro_elements) > len(mesh.macro_elements)


def _assert_same_mesh(new, ref, exact):
    """Every field of two meshes: topology and integer fields equal, with the
    same Python types; float fields bitwise equal if `exact`, else within
    1e-15 relative."""

    def close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape
        if exact:
            assert np.array_equal(a, b)
        else:
            assert np.all(np.abs(a - b) <= 1e-15 * np.abs(b))

    def same(a, b):
        assert a == b and type(a) is type(b)

    assert (new.d, new.n) == (ref.d, ref.n) and new.boundary_tagger is ref.boundary_tagger
    same(new.m, ref.m)
    assert np.array_equal(new.vertices, ref.vertices)
    close(new.jacobians, ref.jacobians)
    close(new.slot_table, ref.slot_table)
    assert np.array_equal(new.slot_faces, ref.slot_faces)
    k, nf = len(ref.macro_elements), len(ref.skeleton)
    for name, shape in (("verts", (k, 3, 2)), ("vertex_ids", (k, 3)), ("levels", (k,)),
                        ("normals", (k, 3, 2)), ("diameter", (k,)), ("face_verts", (nf, 2, 2)),
                        ("face_left", (nf,)), ("face_right", (nf,)), ("face_t", (nf, 2, 2)),
                        ("face_tag", (nf,)), ("face_parent", (nf,))):
        arr = getattr(new, name)
        assert arr.shape == shape and not arr.flags.writeable
    assert len(new.macro_elements) == len(ref.macro_elements)
    for a, b in zip(new.macro_elements, ref.macro_elements):
        for name in ("id", "m", "level", "vertex_ids", "faces"):
            same(getattr(a, name), getattr(b, name))
        assert all(type(v) is int for v in a.vertex_ids)
        assert all(type(f) is int for fids in a.faces for f in fids)
        assert np.array_equal(a.verts, b.verts)
        ma, mb = a.affine_map(), b.affine_map()
        close(ma.matrix, mb.matrix)
        assert np.array_equal(ma.offset, mb.offset)
        close(ma.det, mb.det)
        assert type(ma.det) is float and type(a.diameter) is float
        close(ma.normals, mb.normals)
        close(a.diameter, b.diameter)
        assert np.array_equal(new.jacobians[a.id], ma.matrix)
        # the macro arrays against the loop's objects
        assert np.array_equal(new.verts[b.id], b.verts)
        assert new.vertex_ids[b.id].tolist() == list(b.vertex_ids)
        assert new.levels[b.id] == b.level
        close(new.normals[b.id], mb.normals)
        close(new.diameter[b.id], b.diameter)
    assert len(new.skeleton) == len(ref.skeleton)
    for f, g in zip(new.skeleton, ref.skeleton):
        for name in ("id", "tag", "hanging", "parent_edge"):
            same(getattr(f, name), getattr(g, name))
        assert np.array_equal(f.verts, g.verts)
        close(f.normal, g.normal)
        assert (f.right is None) == (g.right is None)
        for s, t in zip(f.sides(), g.sides()):
            same(s.macro, t.macro)
            same(s.edge, t.edge)
            assert type(s.t0) is float and type(s.t1) is float
            close([s.t0, s.t1], [t.t0, t.t1])
        # the face arrays against the loop's objects
        assert np.array_equal(new.face_verts[g.id], g.verts)
        assert new.face_left[g.id] == 3 * g.left.macro + g.left.edge
        assert new.face_right[g.id] == (-1 if g.right is None else 3 * g.right.macro + g.right.edge)
        close(new.face_t[g.id, 0], [g.left.t0, g.left.t1])
        if g.right is None:
            assert new.face_t[g.id, 1].tolist() == [-1.0, -1.0]
        else:
            close(new.face_t[g.id, 1], [g.right.t0, g.right.t1])
        assert new.face_tag[g.id] == g.tag
        assert new.face_parent[g.id] == (
            3 * g.parent_edge[0] + g.parent_edge[1] if g.hanging else -1)
    for macro in new.macro_elements:
        same(new.slot_keys(macro.id), ref.slot_keys(macro.id))


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


def _adapted_pairs(seed, tagger):
    """Three levels of refinement of seeded random marks (the 2:1 closure
    adds macros at the later levels), from the n0 = 4, m = 2 mesh."""
    rng = np.random.default_rng(seed)
    new = build_structured_macro_mesh(2, 4, 2, boundary_tagger=tagger)
    ref = loop_structured_mesh(4, 2, boundary_tagger=tagger)
    for _ in range(3):
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
}


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_mesh_matches_loop_reference(name):
    """Every field of the mesh equals that of the loop builder: topology
    exactly, floats bitwise on dyadic meshes and to 1e-15 relative on the
    others."""
    for new, ref, exact in ORACLE_MESHES[name]():
        _assert_same_mesh(new, ref, exact)
    if name.endswith("neumann"):
        assert any(f.tag == "N" for f in new.skeleton)


def _loop_export_text(mesh):
    """export_text written over the mesh's macro and face objects."""
    lines = ["v %.17g %.17g" % (v[0], v[1]) for v in mesh.vertices]
    lines += [f"e {i} {j} {k} {e.id}" for e in mesh.macro_elements for i, j, k in [e.vertex_ids]]
    lines += [f"f {f.left.macro} {f.right.macro if f.right is not None else -1} {f.tag}"
              for f in mesh.skeleton]
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
    assert len(calls["new"]) == 16 + len(new.boundary_faces())


def _loop_congruence_key(mesh, macro):
    """The per-macro class key: the Jacobian rounded entry by entry and the
    rounded face slots."""
    jac = tuple(round(float(v), _ROUND) for v in macro.affine_map().matrix.flat)
    slots = []
    for k in range(3):
        for fid in macro.faces[k]:
            face = mesh.skeleton[fid]
            side = face.left if face.left.macro == macro.id else face.right
            slots.append((k, round(side.t0, _ROUND), round(side.t1, _ROUND)))
    return jac, tuple(slots)


@pytest.mark.parametrize("name", sorted(CLASS_MESHES))
def test_congruence_classes_match_per_macro_key(name):
    """congruence_classes groups the macros as a dict over the per-macro key
    does: the same classes, in order of first appearance, members by id."""
    mesh = CLASS_MESHES[name]()
    groups = {}
    for macro in mesh.macro_elements:
        groups.setdefault(_loop_congruence_key(mesh, macro), []).append(macro.id)
    classes = mesh.congruence_classes()
    assert [c.tolist() for c in classes] == list(groups.values())
