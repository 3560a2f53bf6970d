"""Structured simplicial macro-element meshes of the unit square.

Each macro-element is a triangle subdivided uniformly into m^2 congruent
sub-triangles (red pattern).  The skeleton collects macro faces; after dyadic
refinement a coarse macro edge may be covered by two half-edge faces, each
flagged as hanging and carrying the fine side's trace resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

_ROUND = 12  # coordinate snapping digits for entity matching


class DegenerateSimplexError(ValueError):
    pass


class SkeletonError(ValueError):
    pass


def _key(pt) -> tuple:
    return (round(float(pt[0]), _ROUND), round(float(pt[1]), _ROUND))


@dataclass(frozen=True)
class AffineMap:
    """x = matrix @ xi + offset mapping the reference simplex to a physical one."""

    matrix: np.ndarray
    offset: np.ndarray
    det: float
    inverse: np.ndarray
    normals: np.ndarray  # (d+1, d) outward unit normals, face k opposite vertex k

    def to_physical(self, ref_pts: np.ndarray) -> np.ndarray:
        return ref_pts @ self.matrix.T + self.offset

    def to_reference(self, phys_pts: np.ndarray) -> np.ndarray:
        return (phys_pts - self.offset) @ self.inverse.T


def reference_to_physical(verts: np.ndarray) -> AffineMap:
    """Affine map for a triangle given its (3,2) vertex array."""
    verts = np.asarray(verts, dtype=float)
    J = np.column_stack((verts[1] - verts[0], verts[2] - verts[0]))
    det = float(np.linalg.det(J))
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
    offset, inverse = verts[0].copy(), np.linalg.inv(J)
    for arr in (J, offset, inverse, normals):
        arr.flags.writeable = False  # a macro's map is shared by every caller
    return AffineMap(J, offset, det, inverse, normals)


# local edge k is opposite vertex k; direction fixed as below
EDGE_VERTS = ((1, 2), (2, 0), (0, 1))


def sub_cells(m: int) -> Iterator[tuple[str, int, int]]:
    """Deterministic enumeration of the m^2 red-pattern sub-triangles."""
    for j in range(m):
        for i in range(m - j):
            yield ("up", i, j)
            if i + j <= m - 2:
                yield ("down", i, j)


# m times the Jacobians of the two red-pattern congruence classes in macro
# reference coordinates, in the vertex order of sub_cell_ref_verts
_CLASS_JACOBIANS = {
    "up": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "down": np.array([[0.0, -1.0], [1.0, 1.0]]),
}


def sub_cell_ref_verts(kind: str, i: int, j: int, m: int) -> np.ndarray:
    """Sub-triangle vertices in macro reference coordinates (unit triangle)."""
    h = 1.0 / m
    if kind == "up":
        return np.array([[i * h, j * h], [(i + 1) * h, j * h], [i * h, (j + 1) * h]])
    return np.array(
        [[(i + 1) * h, j * h], [(i + 1) * h, (j + 1) * h], [i * h, (j + 1) * h]]
    )


@dataclass
class MacroElement:
    id: int
    vertex_ids: tuple
    verts: np.ndarray  # (3, 2), read-only: map and diameter are built from it once
    m: int
    level: int = 0
    # face ids per local edge, sorted along the edge (2 entries when the
    # neighbor is one level finer)
    faces: list = field(default_factory=lambda: [[], [], []])

    def __post_init__(self):
        self.verts = np.array(self.verts, dtype=float)
        self.verts.flags.writeable = False
        self._amap = reference_to_physical(self.verts)
        d01 = np.linalg.norm(self.verts[0] - self.verts[1])
        d12 = np.linalg.norm(self.verts[1] - self.verts[2])
        d20 = np.linalg.norm(self.verts[2] - self.verts[0])
        self.diameter = float(max(d01, d12, d20))

    @property
    def volume(self) -> float:
        return abs(self._amap.det) / 2.0

    def affine_map(self) -> AffineMap:
        return self._amap

    def sub_cell_geometry(self) -> tuple[dict, list]:
        """(classes, cells) of the m^2 sub-cells, each mapped from the
        reference triangle by x = jac @ xi + origin.

        `classes` maps "up" and "down" to (jac, jac^-1, |det jac|), the class
        Jacobians composed with the macro map; `cells` lists (kind, origin)
        in sub_cells() order, origin being the image of reference vertex 0."""
        amap = self._amap
        classes = {}
        for kind, jref in _CLASS_JACOBIANS.items():
            jac = amap.matrix @ (jref / self.m)
            classes[kind] = (jac, np.linalg.inv(jac), abs(float(np.linalg.det(jac))))
        cells = [
            (kind, amap.to_physical(sub_cell_ref_verts(kind, i, j, self.m)[0:1])[0])
            for kind, i, j in sub_cells(self.m)
        ]
        return classes, cells

    def sub_elements(self) -> list[np.ndarray]:
        """Physical vertex arrays of the m^2 sub-triangles (enumeration order
        matches fem_basis.build_patch_dof_map)."""
        return [
            self._amap.to_physical(sub_cell_ref_verts(kind, i, j, self.m))
            for kind, i, j in sub_cells(self.m)
        ]

    def edge_endpoints(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        a, b = EDGE_VERTS[k]
        return self.verts[a], self.verts[b]


@dataclass
class FaceSide:
    macro: int
    edge: int  # local edge index of that macro
    t0: float  # face parameter s=0 maps to edge parameter t0
    t1: float  # face parameter s=1 maps to edge parameter t1


@dataclass
class SkeletonFace:
    id: int
    verts: np.ndarray  # (2, 2), canonical (lexicographically sorted) order
    left: FaceSide
    right: Optional[FaceSide]  # None on domain boundary
    tag: str  # 'interior', 'D' or 'N'
    m_f: int  # sub-face count of the finer side
    normal: np.ndarray  # outward unit normal of the left macro
    hanging: bool = False
    parent_edge: Optional[tuple] = None  # (macro id, local edge) of the coarse side

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.verts[1] - self.verts[0]))

    @property
    def sub_faces(self) -> list[np.ndarray]:
        pts = [
            self.verts[0] + (k / self.m_f) * (self.verts[1] - self.verts[0])
            for k in range(self.m_f + 1)
        ]
        return [np.array([pts[k], pts[k + 1]]) for k in range(self.m_f)]

    @property
    def is_boundary(self) -> bool:
        return self.right is None

    def sides(self) -> list[FaceSide]:
        return [self.left] if self.right is None else [self.left, self.right]


@dataclass
class MacroMesh:
    d: int
    n: int
    vertices: np.ndarray
    macro_elements: list
    skeleton: list
    boundary_tagger: Optional[Callable] = None

    @property
    def levels(self) -> np.ndarray:
        return np.array([e.level for e in self.macro_elements])

    def interior_faces(self) -> list[SkeletonFace]:
        return [f for f in self.skeleton if f.tag == "interior"]

    def boundary_faces(self) -> list[SkeletonFace]:
        return [f for f in self.skeleton if f.tag != "interior"]


def _on_square_boundary(pa, pb) -> bool:
    for c in range(2):
        for v in (0.0, 1.0):
            if abs(pa[c] - v) < 1e-12 and abs(pb[c] - v) < 1e-12:
                return True
    return False


def _edge_param(point, start, end) -> float:
    vec = end - start
    return float(np.dot(point - start, vec) / np.dot(vec, vec))


def _build_skeleton(macros: Sequence[MacroElement], tagger: Optional[Callable]) -> list:
    """Match macro edges into skeleton faces; resolves hanging half-edges."""
    records = []  # (macro id, local edge, pa, pb) in edge direction order
    by_key: dict[tuple, list[int]] = {}
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
        t0 = _edge_param(v0, pa, pb)
        t1 = _edge_param(v1, pa, pb)
        return FaceSide(eid, k, t0, t1)

    # matched pairs and boundary edges
    for key, rids in by_key.items():
        if len(rids) == 2:
            r0, r1 = sorted(rids, key=lambda r: records[r][0])
            _, _, pa, pb = records[r0]
            v0, v1 = canonical(pa, pb)
            mf = max(macros[records[r0][0]].m, macros[records[r1][0]].m)
            raw_faces.append(
                dict(verts=(v0, v1), left=side_for(r0, v0, v1),
                     right=side_for(r1, v0, v1), tag="interior", m_f=mf,
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
                     tag=tag, m_f=macros[eid].m, hanging=False, parent=None)
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
                 right=side_for(rid, v0, v1), tag="interior",
                 m_f=macros[eid].m, hanging=True,
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
            tag=rf["tag"], m_f=rf["m_f"], normal=normal,
            hanging=rf["hanging"], parent_edge=rf["parent"],
        )
        skeleton.append(face)
        for side in face.sides():
            macros[side.macro].faces[side.edge].append(fid)
    for e in macros:
        for k in range(3):
            e.faces[k].sort(key=lambda fid: _side_t0(skeleton[fid], e.id))
    return skeleton


def _side_t0(face: SkeletonFace, macro_id: int) -> float:
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


def _assemble_mesh(macros_raw, m_list, levels, n, tagger) -> MacroMesh:
    vertices, triples = _dedup_vertices(macros_raw)
    macros = [
        MacroElement(id=i, vertex_ids=triples[i], verts=macros_raw[i],
                     m=m_list[i], level=levels[i])
        for i in range(len(macros_raw))
    ]
    skeleton = _build_skeleton(macros, tagger)
    return MacroMesh(2, n, vertices, macros, skeleton, boundary_tagger=tagger)


def build_structured_macro_mesh(
    d: int, n: int, m: int, boundary_tagger: Optional[Callable] = None,
) -> MacroMesh:
    """Structured macro mesh of the unit square with 2*n^2 macro triangles."""
    if d != 2:
        raise ValueError(f"unsupported dimension {d}: meshes are 2-D only")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")

    h = 1.0 / n
    macros_raw = []
    for j in range(n):
        for i in range(n):
            p00 = np.array([i * h, j * h])
            p10 = np.array([(i + 1) * h, j * h])
            p11 = np.array([(i + 1) * h, (j + 1) * h])
            p01 = np.array([i * h, (j + 1) * h])
            # diagonal fixed from (i, j) to (i+1, j+1)
            macros_raw.append(np.array([p00, p10, p11]))
            macros_raw.append(np.array([p00, p11, p01]))
    k = len(macros_raw)
    return _assemble_mesh(macros_raw, [m] * k, [0] * k, n, boundary_tagger)


def refine_macros(mesh: MacroMesh, marked) -> MacroMesh:
    """Replace each marked macro by 4 children (edge midpoints) with 2:1 closure."""
    if mesh.d != 2:
        raise ValueError("refinement supports d=2 only")
    marked = set(marked)
    for mid in marked:
        if mid < 0 or mid >= len(mesh.macro_elements):
            raise ValueError(f"invalid macro id {mid}")
    if not marked:
        return mesh

    levels = {e.id: e.level for e in mesh.macro_elements}
    # closure: keep level difference across every face at most 1
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

    macros_raw, m_list, lev_list = [], [], []
    for e in mesh.macro_elements:
        if e.id not in marked:
            macros_raw.append(e.verts)
            m_list.append(e.m)
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
                m_list.append(e.m)
                lev_list.append(e.level + 1)
    return _assemble_mesh(macros_raw, m_list, lev_list, mesh.n, mesh.boundary_tagger)


def export_text(mesh: MacroMesh) -> str:
    """Plain-text dump: `v x y`, `e i j k macro_id`, `f left right tag`."""
    lines = []
    for v in mesh.vertices:
        lines.append("v %.17g %.17g" % (v[0], v[1]))
    for e in mesh.macro_elements:
        i, j, k = e.vertex_ids
        lines.append(f"e {i} {j} {k} {e.id}")
    for f in mesh.skeleton:
        right = f.right.macro if f.right is not None else -1
        lines.append(f"f {f.left.macro} {right} {f.tag}")
    return "\n".join(lines) + "\n"


def export_vtk(mesh: MacroMesh, path: str) -> None:
    """Legacy-VTK export of the sub-element triangulation."""
    pts = []
    tris = []
    for e in mesh.macro_elements:
        for sub in e.sub_elements():
            base = len(pts)
            pts.extend(sub.tolist())
            tris.append((base, base + 1, base + 2))
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmehdg mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(pts)} double\n")
        for p in pts:
            fh.write("%.17g %.17g 0\n" % (p[0], p[1]))
        fh.write(f"CELLS {len(tris)} {4 * len(tris)}\n")
        for t in tris:
            fh.write("3 %d %d %d\n" % t)
        fh.write(f"CELL_TYPES {len(tris)}\n")
        fh.write("\n".join("5" for _ in tris) + "\n")
