"""The macro mesh built by Python loops: one affine map per macro, vertex
and edge matching on coordinate tuples rounded one by one, and the 2:1
closure as a loop over faces.  Test oracle for the array passes of
mehdg.mesh."""

from typing import NamedTuple, Optional

import numpy as np

from mehdg.mesh import _ROUND, EDGE_VERTS, DegenerateSimplexError, MacroMesh, SkeletonError


class Macro(NamedTuple):
    id: int
    verts: np.ndarray  # (3, 2)
    level: int
    faces: list  # face ids per local edge, sorted along the edge


class Side(NamedTuple):
    macro: int
    edge: int  # local edge of that macro
    t0: float  # the face's first vertex lies at edge parameter t0
    t1: float  # and its second at t1


class Face(NamedTuple):
    verts: tuple  # (v0, v1), canonical order
    left: Side
    right: Optional[Side]  # None on the domain boundary
    tag: str
    parent: Optional[tuple]  # (macro, edge) of the coarse side of a hanging face


def _key(pt) -> tuple:
    return (round(float(pt[0]), _ROUND), round(float(pt[1]), _ROUND))


def loop_affine_map(verts: np.ndarray) -> tuple:
    """(J, det, normals) of one triangle, built vertex by vertex: x = J xi +
    verts[0], and the outward unit normal of each edge k, opposite vertex k.
    det is the scalar ad - bc on purpose, as in mehdg.mesh: it is exact on
    the dyadic coordinates of the test meshes, where np.linalg.det's LU can
    differ by one ulp from it."""
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
    return J, det, normals


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
    """Match macro edges into skeleton faces; resolves hanging half-edges.
    Fills each macro's face lists."""
    records = []  # (macro id, local edge, pa, pb) in edge direction order
    by_key = {}
    for e in macros:
        for k in range(3):
            a, b = EDGE_VERTS[k]
            pa, pb = e.verts[a], e.verts[b]
            rid = len(records)
            records.append((e.id, k, pa, pb))
            key = tuple(sorted((_key(pa), _key(pb))))
            by_key.setdefault(key, []).append(rid)

    used = [False] * len(records)
    raw_faces = []

    def canonical(pa, pb):
        return (pa, pb) if _key(pa) <= _key(pb) else (pb, pa)

    def side_for(rid, v0, v1) -> Side:
        eid, k, pa, pb = records[rid]
        return Side(eid, k, _edge_param(v0, pa, pb), _edge_param(v1, pa, pb))

    for key, rids in by_key.items():
        if len(rids) == 2:
            r0, r1 = sorted(rids, key=lambda r: records[r][0])
            _, _, pa, pb = records[r0]
            v0, v1 = canonical(pa, pb)
            raw_faces.append(Face((v0, v1), side_for(r0, v0, v1), side_for(r1, v0, v1),
                                  "interior", None))
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
            raw_faces.append(Face((v0, v1), side_for(rid, v0, v1), None, tag, None))
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
        raw_faces.append(Face((v0, v1), side_for(match, v0, v1), side_for(rid, v0, v1),
                              "interior", (records[match][0], records[match][1])))
        used[rid] = True
        parent_use[match] = parent_use.get(match, 0) + 1

    for prid, cnt in parent_use.items():
        if cnt != 2:
            raise SkeletonError("coarse edge not covered by exactly two fine edges")
        used[prid] = True
    if not all(used):
        raise SkeletonError("unresolved macro edges remain")

    raw_faces.sort(key=lambda f: (_key(f.verts[0]), _key(f.verts[1])))
    for fid, face in enumerate(raw_faces):
        for side in _sides(face):
            macros[side.macro].faces[side.edge].append(fid)
    for e in macros:
        for k in range(3):
            e.faces[k].sort(key=lambda fid: _side_t_low(raw_faces[fid], e.id))
    return raw_faces


def _sides(face) -> list:
    return [face.left] if face.right is None else [face.left, face.right]


def _side_of(face, macro_id: int) -> Side:
    for side in _sides(face):
        if side.macro == macro_id:
            return side
    raise KeyError(macro_id)


def _side_t_low(face, macro_id: int) -> float:
    side = _side_of(face, macro_id)
    return min(side.t0, side.t1)


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


def _slot_tables(macros, faces):
    """(slot_table, slot_faces): per macro, (edge, t0, t1) and the face id of
    each of its faces, edge by edge, padded with -1."""
    rows, fids = [], []
    for e in macros:
        sides = [(k, _side_of(faces[fid], e.id)) for k in range(3) for fid in e.faces[k]]
        rows.append([(k, side.t0, side.t1) for k, side in sides])
        fids.append([fid for k in range(3) for fid in e.faces[k]])
    width = max(len(r) for r in rows)
    table = np.full((len(macros), width, 3), -1.0)
    slot_faces = np.full((len(macros), width), -1, dtype=np.intp)
    for e, (row, ids) in enumerate(zip(rows, fids)):
        table[e, :len(row)] = row
        slot_faces[e, :len(ids)] = ids
    return table, slot_faces


def loop_assemble_mesh(macros_raw, m, levels, n, tagger) -> MacroMesh:
    """The mesh of the loops: every array read off the loop's records one
    by one."""
    vertices, triples = _dedup_vertices(macros_raw)
    macros = [Macro(i, np.array(raw, dtype=float), levels[i], [[], [], []])
              for i, raw in enumerate(macros_raw)]
    maps = [loop_affine_map(e.verts) for e in macros]
    faces = _build_skeleton(macros, tagger)
    slot_table, slot_faces = _slot_tables(macros, faces)

    def record(side):
        return -1 if side is None else 3 * side.macro + side.edge

    return MacroMesh(
        n, m, vertices,
        verts=np.array([e.verts for e in macros]),
        vertex_ids=np.array(triples),
        levels=np.array([e.level for e in macros]),
        jacobians=np.array([J for J, _, _ in maps]),
        normals=np.array([normals for _, _, normals in maps]),
        diameter=np.array([loop_diameter(e.verts) for e in macros]),
        slot_table=slot_table, slot_faces=slot_faces,
        face_verts=np.array([f.verts for f in faces], dtype=float),
        face_left=np.array([record(f.left) for f in faces]),
        face_right=np.array([record(f.right) for f in faces]),
        face_t=np.array([[[s.t0, s.t1] if s is not None else [-1.0, -1.0]
                          for s in (f.left, f.right)] for f in faces]),
        face_tag=np.array([f.tag for f in faces]),
        face_parent=np.array([-1 if f.parent is None else 3 * f.parent[0] + f.parent[1]
                              for f in faces]),
        boundary_tagger=tagger)


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
    """Replace each marked macro by 4 children (edge midpoints) with 2:1
    closure, as a loop over the faces' macro pairs."""
    marked = set(marked)
    if not marked:
        return mesh
    levels = mesh.levels.tolist()
    pairs = [(left // 3, right // 3)
             for left, right in zip(mesh.face_left.tolist(), mesh.face_right.tolist())
             if right >= 0]
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            la = levels[a] + (1 if a in marked else 0)
            lb = levels[b] + (1 if b in marked else 0)
            if la - lb >= 2 and b not in marked:
                marked.add(b)
                changed = True
            elif lb - la >= 2 and a not in marked:
                marked.add(a)
                changed = True

    macros_raw, lev_list = [], []
    for e, verts in enumerate(mesh.verts):
        if e not in marked:
            macros_raw.append(verts)
            lev_list.append(levels[e])
    for e, verts in enumerate(mesh.verts):
        if e in marked:
            v0, v1, v2 = verts
            m01, m12, m02 = 0.5 * (v0 + v1), 0.5 * (v1 + v2), 0.5 * (v0 + v2)
            for child in (
                np.array([v0, m01, m02]),
                np.array([m01, v1, m12]),
                np.array([m02, m12, v2]),
                np.array([m01, m12, m02]),
            ):
                macros_raw.append(child)
                lev_list.append(levels[e] + 1)
    return loop_assemble_mesh(macros_raw, mesh.m, lev_list, mesh.n, mesh.boundary_tagger)


def face_sides(mesh: MacroMesh, f: int) -> list:
    """The Sides of face f, read from the arrays: left, then right if any."""
    recs = (int(mesh.face_left[f]), int(mesh.face_right[f]))
    return [Side(rec // 3, rec % 3, t0, t1)
            for rec, (t0, t1) in zip(recs, mesh.face_t[f].tolist()) if rec >= 0]


def loop_macro_faces(mesh: MacroMesh, e: int) -> list:
    """[(face id, Side)] of the faces of macro e, edge by edge and along each
    edge by the lower of the side's t0 and t1: a loop over the sides of the
    faces whose edge records name e, not a read of the mesh's slot table."""
    touching = (mesh.face_left // 3 == e) | (mesh.face_right // 3 == e)
    found = []
    for f in np.flatnonzero(touching).tolist():
        for side in face_sides(mesh, f):
            if side.macro == e:
                found.append((side.edge, min(side.t0, side.t1), f, side))
    return [(f, side) for _, _, f, side in sorted(found)]
