"""Loop form of the local and face assembly, the reference for
assembly.assemble_classes and assembly.face_operators.

Per sub-cell and per face slot, every block is added into A, B and C with its
own np.ix_ scatter; the face slots come from a loop over the sides of every
face (reference_mesh.loop_macro_faces), not from the mesh's slot table; the face
matrices are formed from the trace bases at each call, from the face's own
(unrounded) edge parameters; the load is a quadrature over the one macro, and
the Dirichlet data is projected face by face with a solve on the trace mass.
The face block D and R_hat of one face come from its sides one by one.  It
shares no cache with the batched assembly except the reference tables, the
dof map and the trace bases.
"""

import numpy as np
from reference_mesh import face_sides, loop_macro_faces

from mehdg.assembly import (
    _face_breaks,
    _quad_degree,
    _sub_cell_tables,
    stabilization_tau,
)
from mehdg.fem_basis import (
    patch_dof_map,
    piecewise_quad,
    reference_tables,
    trace_basis,
    trace_mass,
    trace_quadrature,
)
from mehdg.mesh import sub_cell_quadrature, sub_cells


def loop_face_slots(mesh, e, p):
    """[(face id, slice of B columns / C rows)] over the faces of macro e,
    edge by edge and along each edge, m p + 1 columns each."""
    nd = mesh.m * p + 1
    return [(fid, slice(i * nd, (i + 1) * nd))
            for i, (fid, _) in enumerate(loop_macro_faces(mesh, e))]


def _boundary_values(verts, g, m, p):
    """(s, w, V, g at the face points) at the boundary-data quadrature of
    the face with vertices verts."""
    s, w, V = trace_quadrature(m, p, max(p + 2, 6))
    x = verts[0][None, :] + s[:, None] * (verts[1] - verts[0])[None, :]
    return s, w, V, np.asarray(g(x), dtype=float)


def _project_dirichlet(verts, g, m, p):
    _, w, V, gx = _boundary_values(verts, g, m, p)
    return np.linalg.solve(trace_mass(m, p), V.T @ (w * gx))


def _length(verts) -> float:
    return float(np.linalg.norm(verts[1] - verts[0]))


def reference_assemble_face(mesh, fid, p, problem):
    """(D, R_hat) of one unknown face: D from the sum over its sides of
    (a.n - tau) times the face mass, R_hat the g_N load on a Neumann face."""
    coef = 0.0
    for side in face_sides(mesh, fid):
        nrm = mesh.normals[side.macro, side.edge]
        tau = stabilization_tau(problem.a, nrm, problem.kappa, mesh.diameter[side.macro])
        coef += float(np.dot(problem.a, nrm)) - tau
    verts = mesh.face_verts[fid]
    D = coef * _length(verts) * trace_mass(mesh.m, p)
    R_hat = np.zeros(D.shape[0])
    if mesh.face_tag[fid] == "N":
        if problem.g_N is None:
            raise ValueError("Neumann face present but g_N not provided")
        _, w, V, gx = _boundary_values(verts, problem.g_N, mesh.m, p)
        R_hat = V.T @ (w * _length(verts) * gx)
    return D, R_hat


def reference_assemble_macro(mesh, e, p, problem, stab, quad_degree=None):
    """Dense A, B, C and R_u of macro-element e."""
    m = mesh.m
    dofmap = patch_dof_map(m, p)
    Q = dofmap.n_dofs
    nloc = 3 * Q
    off = (0, Q, 2 * Q)  # q_x, q_y, u blocks

    J, normals, diameter = mesh.jacobians[e], mesh.normals[e], mesh.diameter[e]
    a = problem.a
    kappa = problem.kappa
    quad_degree = _quad_degree(p, stab, quad_degree)
    tables = {kind: {key: val[0] for key, val in tb.items()} for kind, tb in _sub_cell_tables(
        J[None], m, p, problem, stab, quad_degree).items()}

    A = np.zeros((nloc, nloc))
    for cm, (kind, _, _) in zip(dofmap.cell_maps, sub_cells(m)):
        tb = tables[kind]
        ix_u = off[2] + cm
        A[np.ix_(off[0] + cm, off[0] + cm)] += tb["M"]
        A[np.ix_(off[1] + cm, off[1] + cm)] += tb["M"]
        for c in range(2):
            A[np.ix_(off[c] + cm, ix_u)] += -tb["K"][c]
            A[np.ix_(ix_u, off[c] + cm)] += -kappa * tb["K"][c]
            A[np.ix_(ix_u, ix_u)] += -a[c] * tb["K"][c]
        if stab.supg:
            A[np.ix_(ix_u, ix_u)] += tb["S"]

    theta = trace_basis(m, p)
    face_slots = loop_face_slots(mesh, e, p)
    nc = face_slots[-1][1].stop
    B = np.zeros((nloc, nc))
    C = np.zeros((nc, nloc))
    for (fid, slot), (_, side) in zip(face_slots, loop_macro_faces(mesh, e)):
        k = side.edge
        nrm = normals[k]
        tau = stabilization_tau(a, nrm, kappa, diameter)
        an = float(np.dot(a, nrm))
        s, w = piecewise_quad(_face_breaks(side.t0, side.t1, m), p + 1)
        TH = theta.eval(side.t0 + (side.t1 - side.t0) * s)
        PS = theta.eval(s)
        wl = w * _length(mesh.face_verts[fid])
        W = TH.T @ (wl[:, None] * PS)
        Me = TH.T @ (wl[:, None] * TH)
        en = dofmap.edge_nodes[k]
        ix_u = off[2] + en
        cols = np.arange(slot.start, slot.stop)
        for c in range(2):
            A[np.ix_(ix_u, off[c] + en)] += kappa * nrm[c] * Me
            B[np.ix_(off[c] + en, cols)] += nrm[c] * W
            C[np.ix_(cols, off[c] + en)] += kappa * nrm[c] * W.T
        A[np.ix_(ix_u, ix_u)] += tau * Me
        B[np.ix_(ix_u, cols)] += (an - tau) * W
        C[np.ix_(cols, ix_u)] += tau * W.T

    rule = reference_tables(p, quad_degree)[0]
    R = np.zeros(nloc)
    quad = sub_cell_quadrature(J[None], mesh.verts[e, :1], m, rule.points_ref)
    for kind, q in quad.items():
        tb = tables[kind]
        for c, cell in enumerate(q.cells):
            fvals = np.asarray(problem.f(q.points[0, c]), dtype=float)
            np.add.at(R, off[2] + dofmap.cell_maps[cell], tb["test"].T @ (fvals * tb["wd"]))
    G = np.zeros(nc)
    for fid, slot in face_slots:
        if mesh.face_tag[fid] == "D":
            G[slot] = _project_dirichlet(mesh.face_verts[fid], problem.g_D, m, p)
    return A, B, C, R - B @ G
