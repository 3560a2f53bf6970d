"""Structured simplicial macro-element meshes of the unit square.

Each macro-element is a triangle subdivided uniformly into m^2 congruent
sub-triangles (red pattern), with one m for the whole mesh.  The skeleton
collects macro faces; after dyadic refinement a coarse macro edge may be
covered by two half-edge faces, each flagged as hanging.  Every face carries
the same trace space, m segments of degree p.

A mesh is one table of read-only arrays: per macro its vertices, level,
affine Jacobian, normals, diameter and face slots, and per face its
vertices, the edge records of its sides, their edge parameters, its tag and,
on a hanging face, the coarse edge.  It is built in a few array passes over
its stacked (k, 3, 2) macro vertices: the affine maps of all macros in one
pass, vertex ids from the coordinates snapped to _ROUND digits, and the 3k
macro edges matched as sorted pairs of vertex ids by one stable argsort.
The halves of a hanging coarse edge, interior edges that no other edge
matches, find their parent by two searchsorted calls, one in the snapped
vertices and one in the sorted edge codes.  No step loops over edges or
vertices in Python; only the boundary tagger is called once per boundary
face.  The solver, the CLI and adaptivity read the arrays directly.
Quadrature points are mapped into the sub-cells of all macros at once by
sub_cell_quadrature: per sub-cell kind, one GEMM of the points in macro
reference coordinates with the Jacobians of all macros side by side, then
the offsets.  The 2x2 determinants are ad - bc and the inverses
adjugate / det, in closed form over the whole stack (numpy's det and inv
make one LAPACK call per 2x2 matrix); only sub_cell_jacobians, whose callers
need physical gradients, inverts the sub-cell Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

_ROUND = 12  # coordinate snapping digits for entity matching


class DegenerateSimplexError(ValueError):
    pass


class SkeletonError(ValueError):
    pass


# local edge k is opposite vertex k; direction fixed as below
EDGE_VERTS = ((1, 2), (2, 0), (0, 1))
_EDGE_A, _EDGE_B = np.array(EDGE_VERTS).T


def _det2(J: np.ndarray) -> np.ndarray:
    """Determinants (...,) of a stack of 2x2 matrices (..., 2, 2): ad - bc."""
    return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]


_ADJUGATE_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _inv2(J: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2x2 matrices (..., 2, 2) with the determinants
    `det`: the adjugate [[d, -b], [-c, a]] over det."""
    return J[..., ::-1, ::-1].swapaxes(-1, -2) * (_ADJUGATE_SIGN / det[..., None, None])


def _simplex_geometry(verts: np.ndarray):
    """Affine Jacobians (k, 2, 2), their determinants, outward unit normals
    (k, 3, 2) and diameters (k,) of all triangles of a (k, 3, 2) vertex
    array, in one pass.  A non-finite vertex coordinate, or a zero-volume
    triangle, raises DegenerateSimplexError."""
    if not np.isfinite(verts).all():
        raise DegenerateSimplexError("non-finite vertex coordinate")
    J = np.stack((verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]), axis=-1)
    det = _det2(J)
    if np.any(np.abs(det) < 1e-14):
        raise DegenerateSimplexError("zero-volume simplex")
    t = verts[:, _EDGE_B] - verts[:, _EDGE_A]
    length = np.linalg.norm(t, axis=-1)
    normals = np.stack((t[..., 1], -t[..., 0]), axis=-1)
    normals[det < 0] *= -1.0  # clockwise: (t_y, -t_x) points inward
    normals /= length[..., None]
    return J, det, normals, length.max(axis=1)


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


@cache
def _kind_cells(m: int) -> dict:
    """Per sub-cell kind that has cells: (indices into sub_cells() order,
    their (cells, 3, 2) reference vertices), read-only."""
    cells = list(sub_cells(m))
    out = {}
    for kind in _CLASS_JACOBIANS:
        sel = np.array([c for c, cell in enumerate(cells) if cell[0] == kind], dtype=int)
        if sel.size:
            verts = np.array([sub_cell_ref_verts(*cells[c], m) for c in sel])
            sel.flags.writeable = verts.flags.writeable = False
            out[kind] = (sel, verts)
    return out


class SubCellJacobians(NamedTuple):
    """The class Jacobians of the sub-cells of one kind ("up" or "down") of
    n macros."""

    cells: np.ndarray  # (cells,) indices into sub_cells() order
    jac: np.ndarray  # (n, 2, 2) class Jacobian composed with each macro map
    jinv: np.ndarray  # (n, 2, 2)
    det: np.ndarray  # (n,) |det jac|


class SubCellQuadrature(NamedTuple):
    """Reference points mapped into the sub-cells of one kind ("up" or
    "down") of n macros; each sub-cell is x = jac @ xi + its origin."""

    cells: np.ndarray  # (cells,) indices into sub_cells() order
    jac: np.ndarray  # (n, 2, 2) class Jacobian composed with each macro map
    det: np.ndarray  # (n,) |det jac|
    points: np.ndarray  # (n, cells, npts, 2) physical images of the points


def _kind_jacobians(jacobians: np.ndarray, m: int) -> Iterator[tuple]:
    """(kind, cells, class Jacobians composed with each macro map, their
    signed determinants) per kind that has cells (m = 1 has no "down")."""
    for kind, (sel, _) in _kind_cells(m).items():
        jac = jacobians @ (_CLASS_JACOBIANS[kind] / m)
        yield kind, sel, jac, _det2(jac)


def sub_cell_jacobians(jacobians: np.ndarray, m: int) -> dict:
    """SubCellJacobians per kind that has cells (m = 1 has no "down") of
    the macros with the stacked affine Jacobians (n, 2, 2), split into m^2
    sub-cells each."""
    return {kind: SubCellJacobians(sel, jac, _inv2(jac, det), np.abs(det))
            for kind, sel, jac, det in _kind_jacobians(jacobians, m)}


def sub_cell_quadrature(jacobians: np.ndarray, offsets: np.ndarray, m: int,
                        points_ref: np.ndarray) -> dict:
    """Map `points_ref` (npts, 2), given on the reference triangle, into
    every sub-cell of each macro x = jacobians[i] @ xi + offsets[i], split
    into m^2 sub-cells; returns a SubCellQuadrature per kind that has cells
    (m = 1 has no "down")."""
    n, npts = len(jacobians), len(points_ref)
    # (2, 2n): column 2i + r is row r of macro i's Jacobian
    maps = jacobians.transpose(2, 0, 1).reshape(2, 2 * n)
    # a point (x, y) is viewed as one complex number, so that moving the
    # macro axis to the front copies whole points, not pairs of floats
    shift = np.ascontiguousarray(offsets, dtype=float).view(np.complex128)  # (n, 1)
    out = {}
    for kind, sel, jac, det in _kind_jacobians(jacobians, m):
        verts = _kind_cells(m)[kind][1]
        # points in macro reference coordinates, then mapped by every macro
        # in one GEMM: (cells npts, 2) @ (2, 2n)
        ref = verts[:, None, 0] + points_ref @ (verts[0, 1:] - verts[0, 0])
        mapped = (ref.reshape(-1, 2) @ maps).view(np.complex128)  # (cells npts, n)
        points = np.empty((n, len(mapped)), dtype=np.complex128)
        np.add(mapped.T, shift, out=points)
        points = points.view(float).reshape(n, len(sel), npts, 2)
        out[kind] = SubCellQuadrature(sel, jac, np.abs(det), points)
    return out


# the records of MacroMesh.macro_elements and .skeleton
class MacroElement(NamedTuple):
    id: int
    level: int


class SkeletonFace(NamedTuple):
    id: int
    tag: str  # 'interior', 'D' or 'N'
    hanging: bool


@dataclass
class MacroMesh:
    """A macro mesh as one table of arrays, all read-only.  Edge record
    3e + k is local edge k of macro e."""

    n: int
    m: int  # red-pattern subdivision of every macro
    vertices: np.ndarray  # (vertices, 2) in order of first appearance
    # per macro
    verts: np.ndarray  # (k, 3, 2); each macro maps xi to jacobians @ xi + verts[:, 0]
    vertex_ids: np.ndarray  # (k, 3) rows of vertices
    levels: np.ndarray  # (k,) refinement levels
    jacobians: np.ndarray  # (k, 2, 2) affine Jacobians
    normals: np.ndarray  # (k, 3, 2) outward unit normals, edge k opposite vertex k
    diameter: np.ndarray  # (k,) longest edge
    # (k, slots, 3): (edge, t0, t1) of each face slot of a macro, edge by
    # edge and along each edge; rows past its last slot are -1
    slot_table: np.ndarray
    slot_faces: np.ndarray  # (k, slots): the face of each slot, -1 past the last
    # per face, faces ordered by their vertices
    face_verts: np.ndarray  # (faces, 2, 2), lexicographically sorted
    # (faces,) edge records of the sides: left is the lower macro id, or the
    # coarse side of a hanging face; right is -1 on the domain boundary
    face_left: np.ndarray
    face_right: np.ndarray
    # (faces, 2, 2): per side, the edge parameters (t0, t1) at which the
    # face's vertices lie on that side's edge; -1 where there is no right side
    face_t: np.ndarray
    face_tag: np.ndarray  # (faces,) 'interior', 'D' or 'N'
    face_parent: np.ndarray  # (faces,) coarse edge record of a hanging face, -1 elsewhere
    boundary_tagger: Optional[Callable] = None

    def __post_init__(self):
        for val in vars(self).values():
            if isinstance(val, np.ndarray):
                val.flags.writeable = False

    # Records of the macro and face counts that perfbench/worker.py reads in
    # its traced runs; they go once the worker reads len(verts) and
    # face_parent instead (ROADMAP, item 2).
    @cached_property
    def macro_elements(self) -> list:
        return [MacroElement(e, level) for e, level in enumerate(self.levels.tolist())]

    @cached_property
    def skeleton(self) -> list:
        return [SkeletonFace(f, tag, parent >= 0) for f, (tag, parent) in enumerate(
            zip(self.face_tag.tolist(), self.face_parent.tolist()))]

    def congruence_classes(self) -> list:
        """Macro ids grouped by geometric class: the affine Jacobian and the
        slot table row, rounded to _ROUND digits.  Macros of one class
        have the same local operators A, B and C; rounding keeps ulp noise in
        the vertices from splitting a class.  Classes come in order of first
        appearance, and each class lists its macros by id."""
        k = len(self.jacobians)
        key = np.concatenate((self.jacobians.reshape(k, 4), self.slot_table.reshape(k, -1)),
                             axis=1)
        key = np.round(key, _ROUND) + 0.0  # + 0.0 turns -0.0 into 0.0
        order, new = _row_runs(key)  # stable: a class's first macro leads it
        first = order[new]
        rank = np.empty(first.size, dtype=np.intp)
        rank[np.argsort(first)] = np.arange(first.size)
        label = np.empty(k, dtype=np.intp)
        label[order] = rank[np.cumsum(new) - 1]
        members = np.argsort(label, kind="stable")
        return np.split(members, np.cumsum(np.bincount(label))[:-1])


def _row_runs(rows: np.ndarray):
    """The rows of a 2-D array in lexicographic order, by a stable sort, and
    whether each of them differs from the one before it: the first of a run
    of equal rows."""
    order = np.lexsort(rows.T[::-1])
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(rows[order[1:]] != rows[order[:-1]], axis=1)
    return order, new


def _dedup_vertices(verts: np.ndarray):
    """Vertex ids of the (k, 3, 2) macro vertices by coordinates snapped to
    _ROUND digits.  Returns the vertex coordinates in order of first
    appearance, the (k, 3) ids in that order, the (k, 3) ranks of the
    snapped coordinates in lexicographic order, and those coordinates."""
    pts = verts.reshape(-1, 2)
    snap = np.round(pts, _ROUND) + 0.0  # + 0.0 turns -0.0 into 0.0
    order, new = _row_runs(snap)  # stable: first appearance leads
    lex = np.empty(order.size, dtype=np.intp)
    lex[order] = np.cumsum(new) - 1
    first = order[new]
    by_appearance = np.argsort(first)
    vid = np.empty(first.size, dtype=np.intp)
    vid[by_appearance] = np.arange(first.size)
    return (pts[first[by_appearance]], vid[lex].reshape(-1, 3), lex.reshape(-1, 3),
            snap[first])


def _on_square_boundary(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Whether each edge pa[i]-pb[i] lies on one side of the unit square."""
    lo = np.maximum(np.abs(pa), np.abs(pb))
    hi = np.maximum(np.abs(pa - 1.0), np.abs(pb - 1.0))
    return (np.minimum(lo, hi) < 1e-12).any(axis=1)


def _match_edges(pa, pb, ends, level, snapped, tagger):
    """Match the macro edges into skeleton faces.  Edge record 3e + k is
    local edge k of macro e, from pa[3e + k] to pb[3e + k]; `ends` holds the
    ranks of its two vertices among the `snapped` vertex coordinates, which
    are in lexicographic order.  Edges are matched by one stable sort of
    their codes, the sorted pairs of ranks: a run of two equal codes is an
    interior face, and an edge of one macro is a boundary face on the unit
    square, or else a fine half of a coarse edge.  Returns, per face in
    canonical vertex order (the order of the codes): the left and right
    records (right -1 on the boundary; left is the lower macro id, or the
    coarse side of a hanging face), the coarse record of a hanging face (-1
    elsewhere), the record whose endpoints are the face vertices, and the
    tags."""
    nv, nrec = len(snapped), len(ends)
    code = ends.min(axis=1) * nv + ends.max(axis=1)
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    # whether the next record in code order has the same edge
    same = np.zeros(nrec, dtype=bool)
    same[:-1] = sorted_code[1:] == sorted_code[:-1]
    if np.any(same[1:] & same[:-1]):
        raise SkeletonError("more than two macros share an edge")
    run_start = np.ones(nrec, dtype=bool)
    run_start[1:] = ~same[:-1]
    start = np.flatnonzero(run_start)  # one run per edge
    rec = order[start]  # its first record, the lower macro id
    pair = same[start]
    single = np.flatnonzero(~pair)
    on_bnd = _on_square_boundary(pa[rec[single]], pb[rec[single]])
    bnd, loose = single[on_bnd], single[~on_bnd]  # runs

    left, right = rec.copy(), np.full(rec.size, -1)
    right[pair] = order[start[pair] + 1]
    parent = np.full(rec.size, -1)
    tags = np.full(rec.size, "interior")
    # the tagger sees the boundary faces in record order
    by_record = bnd[np.argsort(rec[bnd])]
    bnd_tags = [tagger(mid) if tagger is not None else "D"
                for mid in 0.5 * (pa[rec[by_record]] + pb[rec[by_record]])]
    for tag in bnd_tags:
        if tag not in ("D", "N"):
            raise SkeletonError(f"invalid boundary tag {tag!r}")
    tags[by_record] = bnd_tags
    keep = np.ones(rec.size, dtype=bool)
    if loose.size:
        fine, coarse = _match_hanging(pa, pb, ends, level, snapped, rec[loose],
                                      order, sorted_code)
        hanging = loose[fine]
        left[hanging], right[hanging], parent[hanging] = coarse, rec[hanging], coarse
        # the parents are consumed by their fine halves
        uses = np.bincount(coarse, minlength=nrec)
        if np.any(uses[coarse] != 2):
            raise SkeletonError("coarse edge not covered by exactly two fine edges")
        if not np.all(fine | (uses[rec[loose]] > 0)):
            raise SkeletonError("unresolved macro edges remain")
        keep[loose[~fine]] = False
    return left[keep], right[keep], parent[keep], rec[keep], tags[keep]


def _match_hanging(pa, pb, ends, level, snapped, loose, order, sorted_code):
    """The coarse parent edge of each loose edge record: an edge one level
    coarser, of another macro, that doubles the loose edge beyond its end b
    or else beyond its end a; the first of those records, in record order,
    wins.  Returns a mask of the loose records that have a parent, and the
    parents of those."""
    nv = len(snapped)
    a, b = ends[loose].T
    # the far end of each candidate parent, snapped, and its rank among the
    # snapped vertices; a point is viewed as one complex number, which numpy
    # orders lexicographically
    far = np.round(np.stack((pa[loose] + 2.0 * (pb[loose] - pa[loose]),
                             2.0 * pa[loose] - pb[loose])), _ROUND)
    far = far.view(np.complex128)[..., 0]  # (2, loose)
    table = snapped.view(np.complex128)[:, 0]
    rank = np.minimum(np.searchsorted(table, far), nv - 1)
    # the candidates (a, far 0) and (far 1, b), and the at most two records
    # of each code
    lo, hi = np.stack((a, rank[1])), np.stack((rank[0], b))
    cand = np.minimum(lo, hi) * nv + np.maximum(lo, hi)
    g = np.searchsorted(sorted_code, cand)
    pos = np.minimum(np.stack((g, g + 1), axis=1), len(order) - 1)  # (2, 2, loose)
    found = (table[rank] == far)[:, None] & (sorted_code[pos] == cand[:, None])
    prid = order[pos].reshape(4, -1)
    e = loose // 3
    valid = found.reshape(4, -1) & (prid // 3 != e) & (level[prid // 3] == level[e] - 1)
    fine = valid.any(axis=0)
    coarse = prid[valid.argmax(axis=0), np.arange(loose.size)]
    return fine, coarse[fine]


def _assemble_mesh(macros_raw, m: int, levels, n, tagger) -> MacroMesh:
    verts = np.array(macros_raw, dtype=float).reshape(-1, 3, 2)
    k = len(verts)
    level = np.array(levels, dtype=int)
    jacobians, _, normals, diameter = _simplex_geometry(verts)
    vertices, vid, lex, snapped = _dedup_vertices(verts)
    pa = verts[:, _EDGE_A].reshape(-1, 2)
    pb = verts[:, _EDGE_B].reshape(-1, 2)
    ends = np.stack((lex[:, _EDGE_A].ravel(), lex[:, _EDGE_B].ravel()), axis=1)
    left, right, parent, vrec, tags = _match_edges(pa, pb, ends, level, snapped, tagger)

    swap = (ends[vrec, 0] > ends[vrec, 1])[:, None, None]
    face_verts = np.stack((pa[vrec], pb[vrec]), axis=1)
    face_verts = np.where(swap, face_verts[:, ::-1], face_verts)
    has_right = right >= 0
    sides = np.concatenate((left, right[has_right]))  # edge records
    side_face = np.concatenate((np.arange(left.size), np.flatnonzero(has_right)))
    # edge parameter of each face vertex along each side's edge
    vec = pb[sides, None] - pa[sides, None]
    t = ((face_verts[side_face] - pa[sides, None]) * vec).sum(axis=-1) / (vec * vec).sum(axis=-1)
    face_t = np.full((left.size, 2, 2), -1.0)
    face_t[:, 0] = t[:left.size]
    face_t[has_right, 1] = t[left.size:]

    # face slots: each macro's faces edge by edge, and along each edge by
    # the lower of the side's t0 and t1
    order = np.lexsort((side_face, t.min(axis=1), sides))
    sides, side_face, t = sides[order], side_face[order], t[order]
    owner = sides // 3
    n_slots = np.bincount(owner, minlength=k)
    slot = np.arange(sides.size) - (np.cumsum(n_slots) - n_slots)[owner]
    slot_table = np.full((k, n_slots.max(), 3), -1.0)
    slot_table[owner, slot] = np.column_stack((sides % 3, t))
    slot_faces = np.full((k, n_slots.max()), -1, dtype=np.intp)
    slot_faces[owner, slot] = side_face
    return MacroMesh(
        n, m, vertices, verts=verts, vertex_ids=vid, levels=level, jacobians=jacobians,
        normals=normals, diameter=diameter, slot_table=slot_table, slot_faces=slot_faces,
        face_verts=face_verts, face_left=left, face_right=right, face_t=face_t,
        face_tag=tags, face_parent=parent, boundary_tagger=tagger)


# the x and y grid offsets of the vertices p00, p10, p11, p00, p11, p01 of
# the two macros of a square
_SQUARE_DI = np.array([0, 1, 1, 0, 1, 0])
_SQUARE_DJ = np.array([0, 0, 1, 0, 1, 1])


def build_structured_macro_mesh(
    d: int, n: int, m: int, boundary_tagger: Optional[Callable] = None,
) -> MacroMesh:
    """Structured macro mesh of the unit square with 2*n^2 macro triangles."""
    if d != 2:
        raise ValueError(f"unsupported dimension {d}: meshes are 2-D only")
    for name, val in (("n", n), ("m", m)):
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)) or val < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {val!r}")
    n, m = int(n), int(m)

    x = np.arange(n + 1) * (1.0 / n)
    j, i = np.divmod(np.arange(n * n)[:, None], n)
    # per square (i, j), row by row: the diagonal from (i, j) to (i+1, j+1)
    # splits it into (p00, p10, p11) and (p00, p11, p01)
    verts = np.stack((x[i + _SQUARE_DI], x[j + _SQUARE_DJ]), axis=-1).reshape(-1, 3, 2)
    return _assemble_mesh(verts, m, np.zeros(len(verts), dtype=int), n, boundary_tagger)


# vertices of the 4 children of a macro, as indices into
# (v0, v1, v2, m01, m12, m02) with mab the midpoint of va and vb
_CHILDREN = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]])


def refine_macros(mesh: MacroMesh, marked) -> MacroMesh:
    """Replace each marked macro by 4 children (edge midpoints) with 2:1 closure."""
    k = len(mesh.verts)
    marked = list(marked)
    for mid in marked:
        if (isinstance(mid, bool) or not isinstance(mid, (int, np.integer))
                or not 0 <= mid < k):
            raise ValueError(f"invalid macro id {mid!r}")
    if not marked:
        return mesh

    level = mesh.levels
    refine = np.zeros(k, dtype=bool)
    refine[marked] = True
    # closure: keep the level difference across every face at most 1
    inner = mesh.face_right >= 0
    a, b = mesh.face_left[inner] // 3, mesh.face_right[inner] // 3
    while True:
        new = level + refine
        need = np.zeros(k, dtype=bool)
        need[b[new[a] - new[b] >= 2]] = True
        need[a[new[b] - new[a] >= 2]] = True
        need &= ~refine
        if not need.any():
            break
        refine |= need

    keep, split = np.flatnonzero(~refine), np.flatnonzero(refine)
    v = mesh.verts[split]
    mids = 0.5 * (v[:, [0, 1, 0]] + v[:, [1, 2, 2]])
    children = np.concatenate((v, mids), axis=1)[:, _CHILDREN].reshape(-1, 3, 2)
    return _assemble_mesh(
        np.concatenate((mesh.verts[keep], children)), mesh.m,
        np.concatenate((level[keep], np.repeat(level[split] + 1, 4))),
        mesh.n, mesh.boundary_tagger)


def export_text(mesh: MacroMesh) -> str:
    """Plain-text dump: `v x y`, `e i j k macro_id`, `f left right tag`."""
    lines = ["v %.17g %.17g" % (x, y) for x, y in mesh.vertices.tolist()]
    lines += [f"e {i} {j} {k} {e}" for e, (i, j, k) in enumerate(mesh.vertex_ids.tolist())]
    right = np.where(mesh.face_right >= 0, mesh.face_right // 3, -1)
    lines += [f"f {left} {r} {tag}" for left, r, tag in zip(
        (mesh.face_left // 3).tolist(), right.tolist(), mesh.face_tag.tolist())]
    return "\n".join(lines) + "\n"


def export_vtk(mesh: MacroMesh, path: str) -> None:
    """Legacy-VTK export of the sub-element triangulation."""
    ref = np.array([sub_cell_ref_verts(*cell, mesh.m) for cell in sub_cells(mesh.m)])
    pts = (ref @ mesh.jacobians[:, None].swapaxes(-1, -2) + mesh.verts[:, None, :1]).reshape(-1, 2)
    ntri = len(pts) // 3
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmehdg mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {len(pts)} double\n")
        fh.writelines("%.17g %.17g 0\n" % (x, y) for x, y in pts.tolist())
        fh.write(f"CELLS {ntri} {4 * ntri}\n")
        fh.writelines("3 %d %d %d\n" % (t, t + 1, t + 2) for t in range(0, 3 * ntri, 3))
        fh.write(f"CELL_TYPES {ntri}\n" + "5\n" * ntri)
