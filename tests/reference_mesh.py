"""The macro mesh built by Python loops: one affine map per macro, vertex
and edge matching on coordinate tuples rounded one by one, and the 2:1
closure as a loop over faces.  Test oracle for the array passes of
mehdg.mesh."""

import numpy as np

from mehdg.mesh import (
    _ROUND,
    EDGE_VERTS,
    AffineMap,
    DegenerateSimplexError,
    FaceSide,
    MacroElement,
    MacroMesh,
    SkeletonError,
    SkeletonFace,
)


def _key(pt) -> tuple:
    return (round(float(pt[0]), _ROUND), round(float(pt[1]), _ROUND))


def loop_affine_map(verts: np.ndarray) -> AffineMap:
    """Affine map of one triangle, built vertex by vertex.  det is the
    scalar ad - bc on purpose, as in mehdg.mesh: it is exact on the dyadic
    coordinates of the test meshes, where np.linalg.det's LU can differ by
    one ulp from it."""
    verts = np.asarray(verts, dtype=float)
    J = np.column_stack((verts[1] - verts[0], verts[2] - verts[0]))
    det = float(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])
    if abs(det) < 1e-14:
        raise DegenerateSimplexError("zero-volume simplex")
    normals = np.empty((3, 2))
    for k in range(3):
        a, b = EDGE_VERTS[k]
        t = verts[b] - verts[a]
        nrm = np.array([t[1], -t[0]])
        if np.dot(nrm, verts[k] - verts[a]) > 0:
            nrm = -nrm
        normals[k] = nrm / np.linalg.norm(nrm)
    return AffineMap(J, verts[0].copy(), det, normals)


def loop_diameter(verts: np.ndarray) -> float:
    d01 = np.linalg.norm(verts[0] - verts[1])
    d12 = np.linalg.norm(verts[1] - verts[2])
    d20 = np.linalg.norm(verts[2] - verts[0])
    return float(max(d01, d12, d20))


def _on_square_boundary(pa, pb) -> bool:
    for c in range(2):
        for v in (0.0, 1.0):
            if abs(pa[c] - v) < 1e-12 and abs(pb[c] - v) < 1e-12:
                return True
    return False


def _edge_param(point, start, end) -> float:
    vec = end - start
    return float(np.dot(point - start, vec) / np.dot(vec, vec))


def _build_skeleton(macros, tagger) -> list:
    """Match macro edges into skeleton faces; resolves hanging half-edges."""
    records = []  # (macro id, local edge, pa, pb) in edge direction order
    by_key = {}
    for e in macros:
        e.faces = [[], [], []]
        for k in range(3):
            pa, pb = e.edge_endpoints(k)
            rid = len(records)
            records.append((e.id, k, pa, pb))
            key = tuple(sorted((_key(pa), _key(pb))))
            by_key.setdefault(key, []).append(rid)

    used = [False] * len(records)
    raw_faces = []

    def canonical(pa, pb):
        return (pa, pb) if _key(pa) <= _key(pb) else (pb, pa)

    def side_for(rid, v0, v1) -> FaceSide:
        eid, k, pa, pb = records[rid]
        return FaceSide(eid, k, _edge_param(v0, pa, pb), _edge_param(v1, pa, pb))

    for key, rids in by_key.items():
        if len(rids) == 2:
            r0, r1 = sorted(rids, key=lambda r: records[r][0])
            _, _, pa, pb = records[r0]
            v0, v1 = canonical(pa, pb)
            raw_faces.append(
                dict(verts=(v0, v1), left=side_for(r0, v0, v1),
                     right=side_for(r1, v0, v1), tag="interior",
                     hanging=False, parent=None)
            )
            used[r0] = used[r1] = True
        elif len(rids) > 2:
            raise SkeletonError("more than two macros share an edge")

    for rid, rec in enumerate(records):
        if used[rid]:
            continue
        eid, k, pa, pb = rec
        if _on_square_boundary(pa, pb):
            v0, v1 = canonical(pa, pb)
            mid = 0.5 * (np.asarray(pa) + np.asarray(pb))
            tag = tagger(mid) if tagger is not None else "D"
            if tag not in ("D", "N"):
                raise SkeletonError(f"invalid boundary tag {tag!r}")
            raw_faces.append(
                dict(verts=(v0, v1), left=side_for(rid, v0, v1), right=None,
                     tag=tag, hanging=False, parent=None)
            )
            used[rid] = True

    # remaining edges: fine half-edges matched against a coarse parent edge;
    # the parents themselves are consumed once both halves are found
    parent_use = {}
    for rid, rec in enumerate(records):
        if used[rid]:
            continue
        eid, k, pa, pb = rec
        cands = [
            (np.asarray(pa), np.asarray(pa) + 2.0 * (np.asarray(pb) - np.asarray(pa))),
            (2.0 * np.asarray(pa) - np.asarray(pb), np.asarray(pb)),
        ]
        match = None
        for ca, cb in cands:
            key = tuple(sorted((_key(ca), _key(cb))))
            for prid in by_key.get(key, []):
                peid = records[prid][0]
                if peid != eid and macros[peid].level == macros[eid].level - 1:
                    match = prid
                    break
            if match is not None:
                break
        if match is None:
            continue  # a coarse parent edge; consumed by its fine halves below
        v0, v1 = canonical(pa, pb)
        raw_faces.append(
            dict(verts=(v0, v1), left=side_for(match, v0, v1),
                 right=side_for(rid, v0, v1), tag="interior", hanging=True,
                 parent=(records[match][0], records[match][1]))
        )
        used[rid] = True
        parent_use[match] = parent_use.get(match, 0) + 1

    for prid, cnt in parent_use.items():
        if cnt != 2:
            raise SkeletonError("coarse edge not covered by exactly two fine edges")
        used[prid] = True
    if not all(used):
        raise SkeletonError("unresolved macro edges remain")

    raw_faces.sort(key=lambda f: (_key(f["verts"][0]), _key(f["verts"][1])))
    skeleton = []
    for fid, rf in enumerate(raw_faces):
        v0, v1 = (np.asarray(rf["verts"][0], float), np.asarray(rf["verts"][1], float))
        left = rf["left"]
        normal = macros[left.macro].affine_map().normals[left.edge].copy()
        face = SkeletonFace(
            id=fid, verts=np.array([v0, v1]), left=left, right=rf["right"],
            tag=rf["tag"], normal=normal,
            hanging=rf["hanging"], parent_edge=rf["parent"],
        )
        skeleton.append(face)
        for side in face.sides():
            macros[side.macro].faces[side.edge].append(fid)
    for e in macros:
        for k in range(3):
            e.faces[k].sort(key=lambda fid: _side_t0(skeleton[fid], e.id))
    return skeleton


def _side_t0(face, macro_id: int) -> float:
    for side in face.sides():
        if side.macro == macro_id:
            return min(side.t0, side.t1)
    raise KeyError(macro_id)


def _dedup_vertices(macros_raw):
    """Assign vertex ids by snapped coordinates; returns (vertices, id triples)."""
    vid = {}
    coords = []
    triples = []
    for verts in macros_raw:
        ids = []
        for v in verts:
            k = _key(v)
            if k not in vid:
                vid[k] = len(coords)
                coords.append(np.asarray(v, float))
            ids.append(vid[k])
        triples.append(tuple(ids))
    return np.array(coords), triples


def _slot_tables(macros, skeleton):
    """(slot_table, slot_faces): per macro, (edge, t0, t1) and the face id of
    each of its faces, edge by edge, padded with -1."""
    rows, fids = [], []
    for e in macros:
        row = []
        for k in range(3):
            for fid in e.faces[k]:
                face = skeleton[fid]
                side = face.left if face.left.macro == e.id else face.right
                row.append((k, side.t0, side.t1))
        rows.append(row)
        fids.append([fid for k in range(3) for fid in e.faces[k]])
    width = max(len(r) for r in rows)
    table = np.full((len(macros), width, 3), -1.0)
    faces = np.full((len(macros), width), -1, dtype=np.intp)
    for e, (row, ids) in enumerate(zip(rows, fids)):
        table[e, :len(row)] = row
        faces[e, :len(ids)] = ids
    return table, faces


def _as_arrays(macros, skeleton) -> dict:
    """The per-macro and per-face arrays of MacroMesh, read off the loop's
    objects one by one."""

    def record(side):
        return -1 if side is None else 3 * side.macro + side.edge

    return dict(
        verts=np.array([e.verts for e in macros]),
        vertex_ids=np.array([e.vertex_ids for e in macros]),
        levels=np.array([e.level for e in macros]),
        jacobians=np.array([e.affine_map().matrix for e in macros]),
        normals=np.array([e.affine_map().normals for e in macros]),
        diameter=np.array([e.diameter for e in macros]),
        face_verts=np.array([f.verts for f in skeleton]),
        face_left=np.array([record(f.left) for f in skeleton]),
        face_right=np.array([record(f.right) for f in skeleton]),
        face_t=np.array([[[s.t0, s.t1] if s is not None else [-1.0, -1.0]
                          for s in (f.left, f.right)] for f in skeleton]),
        face_tag=np.array([f.tag for f in skeleton]),
        face_parent=np.array([3 * f.parent_edge[0] + f.parent_edge[1] if f.hanging else -1
                              for f in skeleton]),
    )


def loop_assemble_mesh(macros_raw, m, levels, n, tagger) -> MacroMesh:
    """The mesh of the loops.  Its `macro_elements` and `skeleton` are the
    loop's own objects, put in place of the views of the arrays."""
    vertices, triples = _dedup_vertices(macros_raw)
    macros = []
    for i, raw in enumerate(macros_raw):
        verts = np.array(raw, dtype=float)
        macros.append(MacroElement(
            id=i, vertex_ids=triples[i], verts=verts, m=m, level=levels[i],
            amap=loop_affine_map(verts), diameter=loop_diameter(verts)))
    skeleton = _build_skeleton(macros, tagger)
    slot_table, slot_faces = _slot_tables(macros, skeleton)
    mesh = MacroMesh(2, n, m, vertices, **_as_arrays(macros, skeleton), slot_table=slot_table,
                     slot_faces=slot_faces, boundary_tagger=tagger)
    vars(mesh).update(macro_elements=macros, skeleton=skeleton)
    return mesh


def loop_structured_mesh(n: int, m: int, boundary_tagger=None) -> MacroMesh:
    h = 1.0 / n
    macros_raw = []
    for j in range(n):
        for i in range(n):
            p00 = np.array([i * h, j * h])
            p10 = np.array([(i + 1) * h, j * h])
            p11 = np.array([(i + 1) * h, (j + 1) * h])
            p01 = np.array([i * h, (j + 1) * h])
            macros_raw.append(np.array([p00, p10, p11]))
            macros_raw.append(np.array([p00, p11, p01]))
    return loop_assemble_mesh(macros_raw, m, [0] * len(macros_raw), n, boundary_tagger)


def loop_refine(mesh: MacroMesh, marked) -> MacroMesh:
    """Replace each marked macro by 4 children (edge midpoints) with 2:1 closure."""
    marked = set(marked)
    if not marked:
        return mesh
    levels = {e.id: e.level for e in mesh.macro_elements}
    changed = True
    while changed:
        changed = False
        for face in mesh.skeleton:
            if face.right is None:
                continue
            a, b = face.left.macro, face.right.macro
            la = levels[a] + (1 if a in marked else 0)
            lb = levels[b] + (1 if b in marked else 0)
            if la - lb >= 2 and b not in marked:
                marked.add(b)
                changed = True
            elif lb - la >= 2 and a not in marked:
                marked.add(a)
                changed = True

    macros_raw, lev_list = [], []
    for e in mesh.macro_elements:
        if e.id not in marked:
            macros_raw.append(e.verts)
            lev_list.append(e.level)
    for e in mesh.macro_elements:
        if e.id in marked:
            v0, v1, v2 = e.verts
            m01, m12, m02 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v0 + v2)
            for child in (
                np.array([v0, m01, m02]),
                np.array([m01, v1, m12]),
                np.array([m02, m12, v2]),
                np.array([m01, m12, m02]),
            ):
                macros_raw.append(child)
                lev_list.append(e.level + 1)
    return loop_assemble_mesh(macros_raw, mesh.m, lev_list, mesh.n, mesh.boundary_tagger)
