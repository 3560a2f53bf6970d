"""Block assembly: local operators, face operators, stabilization, SUPG."""

import numpy as np
import pytest

from conftest import (
    CLASS_MESHES,
    assemble_one,
    face_length,
    face_mass_oracle,
    macro_nodes,
    neumann_right,
    poly_case,
)

from mehdg.assembly import (
    ProblemData,
    StabilizationConfig,
    face_operators,
    project_dirichlet,
    stabilization_tau,
    supg_parameter,
)
from mehdg.fem_basis import (
    LagrangeBasis,
    TraceBasis,
    quadrature_rule,
)
from mehdg.mesh import build_structured_macro_mesh, refine_macros
from mehdg.schur_solver import SolverConfig, solve

import reference_hdg
from reference_assembly import loop_face_slots, reference_assemble_face, reference_assemble_macro


def make_problem(a=(1.0, 2.0), kappa=1.0, f=None, g=None, g_N=None):
    zero = lambda x: np.zeros(np.atleast_2d(x).shape[0])
    return ProblemData(a=np.asarray(a, float), kappa=kappa,
                       f=f or zero, g_D=g or zero, g_N=g_N)


NO_STAB = StabilizationConfig()


def test_problem_data_validation():
    with pytest.raises(ValueError):
        make_problem(kappa=0.0)
    with pytest.raises(ValueError):
        make_problem(kappa=-1.0)
    for kappa in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            make_problem(kappa=kappa)
    for a in ((1.0, float("nan")), (float("inf"), 0.0), (1.0, 2.0, 3.0), (1.0,)):
        with pytest.raises(ValueError):
            make_problem(a=a)
    with pytest.raises(ValueError):
        StabilizationConfig(supg=True, supg_variant="bogus")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["f", "g_D", "g_N"])
def test_non_finite_problem_data_is_named(name, bad):
    """A NaN or inf from f, g_D or g_N at one of its points stops solve()
    with a ValueError that names the callable, in mb and mf, before the
    trace solve sees it."""
    mesh = build_structured_macro_mesh(2, 2, 2, boundary_tagger=neumann_right)
    problem = poly_case(2).problem()
    problem.g_N = lambda x: np.sin(3.0 * x[:, 1])
    good = getattr(problem, name)

    def poisoned(x):
        values = np.array(good(x), dtype=float)
        values[len(values) // 2] = bad
        return values

    setattr(problem, name, poisoned)
    for mode in ("mb", "mf"):
        with pytest.raises(ValueError, match=rf"^{name} returned non-finite values$"):
            solve(mesh, problem, NO_STAB, SolverConfig(mode=mode), 2)


def test_qq_block_is_vector_mass():
    mesh = build_structured_macro_mesh(2, 1, 1)
    op = assemble_one(mesh, 0, 1, make_problem(a=(0.0, 0.0)), NO_STAB)
    Q = op.R_u.size // 3
    assert Q == 3
    # direct quadrature mass matrix on the physical triangle
    rule = quadrature_rule(4)
    basis = LagrangeBasis(2, 1)
    V = basis.eval(rule.points_ref)
    M = V.T @ ((rule.weights * abs(np.linalg.det(mesh.jacobians[0])))[:, None] * V)
    A = np.asarray(op.A)
    assert np.abs(A[:Q, :Q] - M).max() < 1e-13
    assert np.abs(A[Q:2 * Q, Q:2 * Q] - M).max() < 1e-13
    assert np.abs(A[:Q, Q:2 * Q]).max() == 0.0


def test_constant_state_q_residual():
    """u = 1, q = 0, uhat = 1: the q-equation residual vanishes (divergence
    theorem)."""
    mesh = build_structured_macro_mesh(2, 2, 2)
    for e in range(2):
        op = assemble_one(mesh, e, 2, make_problem(), NO_STAB)
        Q = op.R_u.size // 3
        U = np.concatenate([np.zeros(2 * Q), np.ones(Q)])
        res = np.asarray(op.A) @ U + op.B @ np.ones(op.B.shape[1])
        assert np.abs(res[:2 * Q]).max() < 1e-12


def test_operator_sizes_m2_vs_m1():
    mesh2 = build_structured_macro_mesh(2, 1, 2)
    mesh1 = build_structured_macro_mesh(2, 1, 1)
    op2 = assemble_one(mesh2, 0, 2, make_problem(), NO_STAB)
    op1 = assemble_one(mesh1, 0, 2, make_problem(), NO_STAB)
    assert np.asarray(op2.A).shape == (45, 45)
    assert np.asarray(op1.A).shape == (18, 18)


def test_storage_mode():
    import scipy.sparse as sp

    mesh = build_structured_macro_mesh(2, 1, 8)
    op = assemble_one(mesh, 0, 1, make_problem(), NO_STAB)
    assert sp.issparse(op.A)
    mesh = build_structured_macro_mesh(2, 1, 4)
    op = assemble_one(mesh, 0, 1, make_problem(), NO_STAB)
    assert isinstance(op.A, np.ndarray)


@pytest.mark.parametrize("m", [3, 5, 6])
def test_conforming_face_breaks(m):
    """On a conforming face the trace and macro-edge subdivisions coincide:
    m + 1 breakpoints, with no sliver interval from rounding."""
    from mehdg.assembly import _face_breaks

    mesh = build_structured_macro_mesh(2, 1, m)
    f = np.flatnonzero(mesh.face_tag == "interior")[0]
    for t0, t1 in mesh.face_t[f]:
        breaks = _face_breaks(t0, t1, m)
        assert breaks.size == m + 1
        assert np.diff(breaks).min() >= 1.0 / m - 1e-12


@pytest.mark.parametrize("name", sorted(CLASS_MESHES))
def test_assemble_macro_matches_loop_reference(name):
    """A, B, C and R_u of every macro, assembled as a one-macro class from
    the cached reference
    blocks, equal the per-cell and per-face loop assembly, with SUPG off and
    on (both variants), with nonzero f and g_D."""
    from mehdg.bench import make_benchmark

    mesh = CLASS_MESHES[name]()
    problem = make_benchmark("tanh", 0.05, (1.0, 2.0)).problem()
    for stab in (NO_STAB, StabilizationConfig(supg=True),
                 StabilizationConfig(supg=True, supg_variant="paper-plus")):
        for e in range(len(mesh.verts)):
            op = assemble_one(mesh, e, 2, problem, stab)
            A = op.A.toarray() if hasattr(op.A, "toarray") else op.A
            want = reference_assemble_macro(mesh, e, 2, problem, stab)
            for got, ref in zip((A, op.B, op.C, op.R_u), want):
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n,m,p,refine", [(2, 2, 2, {0, 3}), (3, 1, 3, ()), (2, 3, 1, {5})])
def test_face_operators_match_assemble_face(n, m, p, refine):
    """The vectorized pass gives every unknown face, in skeleton order, the D
    and R_hat of the per-face reference_assemble_face, on meshes with
    Neumann and hanging faces."""
    def tagger(mid):
        return "N" if mid[1] < 1e-12 or mid[0] > 1 - 1e-12 else "D"

    mesh = refine_macros(build_structured_macro_mesh(2, n, m, boundary_tagger=tagger),
                         refine)
    assert (mesh.face_tag == "N").any()
    assert bool(refine) == (mesh.face_parent >= 0).any()
    problem = make_problem(a=(1.0, -0.7), kappa=0.3,
                           g_N=lambda x: np.sin(3 * x[:, 0]) + x[:, 1] ** 2)
    faces = face_operators(mesh, p, problem)
    assert faces.ids.tolist() == [f for f, tag in enumerate(mesh.face_tag) if tag != "D"]
    nd = m * p + 1
    assert faces.D.shape == (len(faces.ids), nd, nd)
    assert faces.R_hat.shape == (len(faces.ids), nd)
    for fid, D, R_hat in zip(faces.ids.tolist(), faces.D, faces.R_hat):
        want_D, want_R = reference_assemble_face(mesh, fid, p, problem)
        assert np.abs(D - want_D).max() <= 1e-14 * np.abs(want_D).max()
        assert np.abs(R_hat - want_R).max() <= 1e-14 * max(np.abs(want_R).max(), 1e-300)
    with pytest.raises(ValueError):
        face_operators(mesh, p, make_problem())  # Neumann faces but no g_N


def test_interior_face_d_block():
    """a parallel to the face: D = -2 tau M_face."""
    mesh = build_structured_macro_mesh(2, 2, 2)
    problem = make_problem(a=(0.0, 1.0), kappa=0.3)
    vertical = [
        f for f in np.flatnonzero(mesh.face_tag == "interior")
        if abs(mesh.face_verts[f, 0, 0] - mesh.face_verts[f, 1, 0]) < 1e-12
    ]
    assert vertical
    faces = face_operators(mesh, 2, problem)
    row = {fid: i for i, fid in enumerate(faces.ids.tolist())}
    for f in vertical:
        D = faces.D[row[f]]
        ell = mesh.diameter[mesh.face_left[f] // 3]
        tau = 0.3 / ell  # a.n = 0
        M = face_mass_oracle(face_length(mesh, f), mesh.m, 2)
        assert np.abs(D + 2 * tau * M).max() < 1e-12 * max(1.0, np.abs(M).max())


def test_boundary_neumann_face():
    def tagger(mid):
        return "N" if mid[1] < 1e-12 else "D"

    mesh = build_structured_macro_mesh(2, 2, 1, boundary_tagger=tagger)
    problem = make_problem(a=(1.0, 2.0), kappa=0.5,
                           g_N=lambda x: np.zeros(np.atleast_2d(x).shape[0]))
    nface = np.flatnonzero(mesh.face_tag == "N")[0]
    faces = face_operators(mesh, 2, problem)
    i = faces.ids.tolist().index(nface)
    assert np.abs(faces.R_hat[i]).max() == 0.0
    e, k = divmod(int(mesh.face_left[nface]), 3)
    nrm = mesh.normals[e, k]
    tau = stabilization_tau(problem.a, nrm, 0.5, mesh.diameter[e])
    an = float(np.dot(problem.a, nrm))
    M = face_mass_oracle(face_length(mesh, nface), mesh.m, 2)
    assert np.abs(faces.D[i] - (an - tau) * M).max() < 1e-12 * max(1.0, np.abs(M).max())


def test_neumann_rhs_nonzero():
    def tagger(mid):
        return "N" if mid[1] < 1e-12 else "D"

    mesh = build_structured_macro_mesh(2, 1, 1, boundary_tagger=tagger)
    problem = make_problem(g_N=lambda x: np.ones(np.atleast_2d(x).shape[0]))
    nface = np.flatnonzero(mesh.face_tag == "N")[0]
    faces = face_operators(mesh, 1, problem)
    R_hat = faces.R_hat[faces.ids.tolist().index(nface)]
    # integral of each hat function times 1 over the face: sums to its length
    assert R_hat.sum() == pytest.approx(face_length(mesh, nface), rel=1e-12)


def test_missing_neumann_data():
    def tagger(mid):
        return "N" if mid[1] < 1e-12 else "D"

    mesh = build_structured_macro_mesh(2, 1, 1, boundary_tagger=tagger)
    assert (mesh.face_tag == "N").any()
    with pytest.raises(ValueError):
        face_operators(mesh, 1, make_problem())


def test_stabilization_tau_examples():
    assert stabilization_tau(np.array([1.0, 1.0]), np.array([1.0, 0.0]),
                             0.0, 1.0) == pytest.approx(1.0)
    assert stabilization_tau(np.zeros(2), np.array([1.0, 0.0]),
                             1.0, 0.5) == pytest.approx(2.0)
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert stabilization_tau(np.array([1.0, 1.0]), n, 0.4, 1.0) == pytest.approx(
        np.sqrt(2.0) + 0.4)
    # elementwise over many sides, as the batched assembly calls it
    many = stabilization_tau(np.array([1.0, 1.0]), np.array([[1.0, 0.0], n]), 0.4,
                             np.array([0.5, 1.0]))
    assert many == pytest.approx([1.8, np.sqrt(2.0) + 0.4])
    # tau <= 0 (kappa < 0 set past ProblemData's check) is refused, also by
    # the batched assembly and the face pass
    with pytest.raises(ValueError):
        stabilization_tau(np.zeros(2), np.array([[1.0, 0.0]]), -1.0, np.ones(1))
    mesh = build_structured_macro_mesh(2, 1, 1)
    problem = make_problem(a=(0.0, 0.0))
    problem.kappa = -1.0
    with pytest.raises(ValueError, match="nonpositive"):
        assemble_one(mesh, 0, 1, problem, NO_STAB)
    with pytest.raises(ValueError, match="nonpositive"):
        face_operators(mesh, 1, problem)


def test_supg_parameter():
    a = np.array([1.0, 1.0])
    # advection-dominated limit: tau -> h / (2 |a|)
    val = supg_parameter(0.1, a, 1e-5)
    assert val == pytest.approx(0.1 / (2 * np.sqrt(2.0)), rel=1e-3)
    assert abs(val - 0.03536) < 1e-4
    # diffusion limit: minus variant vanishes like Pe/3, plus variant blows up
    pe_small = supg_parameter(1e-6, a, 1.0)
    h = 1e-6
    pe = np.sqrt(2.0) * h / 2.0
    assert pe_small == pytest.approx(h / (2 * np.sqrt(2.0)) * pe / 3.0, rel=1e-6)
    plus = supg_parameter(1e-6, a, 1.0, variant="paper-plus")
    assert plus > 100 * pe_small
    # zero velocity
    assert supg_parameter(0.1, np.zeros(2), 1.0) == 0.0
    # both variants agree at large Peclet
    hi_m = supg_parameter(0.1, a, 1e-9)
    hi_p = supg_parameter(0.1, a, 1e-9, variant="paper-plus")
    assert hi_m == pytest.approx(hi_p, rel=1e-6)
    # continuity across the series/closed-form switch points
    for pe_edge, scale in ((1e-4, 2.0 * 1e-4 / np.sqrt(2.0)),
                           (30.0, 2.0 * 30.0 / np.sqrt(2.0))):
        lo = supg_parameter(scale * (1 - 1e-6), a, 1.0)
        hi = supg_parameter(scale * (1 + 1e-6), a, 1.0)
        assert lo == pytest.approx(hi, rel=1e-4)
    # elementwise over h, one value in each branch, as the batched tables call it
    hs = np.array([1e-6, 0.1, 100.0])
    for variant in ("classical-minus", "paper-plus"):
        assert np.array_equal(supg_parameter(hs, a, 1.0, variant),
                              [supg_parameter(h, a, 1.0, variant) for h in hs])


def test_supg_length_scale_keeps_p2_accurate():
    """SUPG uses the sub-cell length h / p: at kappa = 0.05, a = (1, 2),
    p = 2, n = 16, m = 2 the stabilized L2 error stays within 3x the
    unstabilized one (with the length h it was 3.1e4 against 1.2e-3).  The
    trace system is solved directly, so no preconditioner is involved."""
    import scipy.sparse.linalg as spla

    from mehdg.bench import l2_error, make_benchmark
    from mehdg.schur_solver import (
        Solution, SolverConfig, assemble_schur_explicit, assemble_system, condense,
        reconstruct_interior,
    )

    case = make_benchmark("tanh", 0.05, (1.0, 2.0))
    mesh = build_structured_macro_mesh(2, 16, 2)
    err = {}
    for supg in (False, True):
        classes, faces = assemble_system(mesh, case.problem(), StabilizationConfig(supg=supg), 2)
        sys = condense(mesh, classes, faces, SolverConfig())
        uhat = spla.spsolve(assemble_schur_explicit(sys).tocsc(), sys.f_vec)
        solution = Solution(local=reconstruct_interior(sys, uhat), uhat=uhat, report=None)
        err[supg] = l2_error(mesh, 2, solution, case.u_exact)
    assert err[False] < 2e-3
    assert err[True] <= 3.0 * err[False]


def test_project_dirichlet_constant_and_linear():
    mesh = build_structured_macro_mesh(2, 2, 2)
    ones = lambda x: np.ones(np.atleast_2d(x).shape[0])
    xfun = lambda x: np.atleast_2d(x)[:, 0]
    boundary = mesh.face_verts[mesh.face_tag != "interior"]
    for verts in boundary:
        coeffs = project_dirichlet(verts, ones, mesh.m, 2)
        assert np.abs(coeffs - 1.0).max() < 1e-12
    xaxis = [v for v in boundary if abs(v[0][1]) < 1e-12 and abs(v[1][1]) < 1e-12]
    assert xaxis
    for verts in xaxis:
        coeffs = project_dirichlet(verts, xfun, mesh.m, 2)
        psi = TraceBasis(mesh.m, 2)
        nodes_x = verts[0][0] + psi.nodes * (verts[1][0] - verts[0][0])
        assert np.abs(coeffs - nodes_x).max() < 1e-12


def test_project_dirichlet_tanh_vs_least_squares():
    mesh = build_structured_macro_mesh(2, 2, 2)
    case = poly_case(1)  # only for structure; use the tanh profile directly
    g = lambda x: 0.5 * (1 + np.tanh((np.atleast_2d(x)[:, 1]
                                      - 2 * np.atleast_2d(x)[:, 0] + 0.4) / 0.4))
    verts = mesh.face_verts[mesh.face_tag != "interior"][0]
    coeffs = project_dirichlet(verts, g, mesh.m, 2)
    # independent dense least-squares fit at 200 sample points
    psi = TraceBasis(mesh.m, 2)
    s = (np.arange(200) + 0.5) / 200
    V = psi.eval(s)
    x = verts[0][None, :] + s[:, None] * (verts[1] - verts[0])[None, :]
    fit, *_ = np.linalg.lstsq(V, g(x), rcond=None)
    # the two fits agree to projection accuracy (how far g lies from the space)
    resid = np.abs(V @ coeffs - g(x)).max()
    assert resid < 1e-3
    assert np.abs(coeffs - fit).max() < 0.1 * resid


def test_projection_idempotent():
    mesh = build_structured_macro_mesh(2, 1, 2)
    verts = mesh.face_verts[mesh.face_tag != "interior"][0]
    psi = TraceBasis(mesh.m, 2)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(psi.n_dofs)

    def g(x):
        x = np.atleast_2d(x)
        d = verts[1] - verts[0]
        s = (x - verts[0]) @ d / (d @ d)
        return psi.eval(s) @ coeffs

    proj = project_dirichlet(verts, g, mesh.m, 2)
    assert np.abs(proj - coeffs).max() < 1e-11


def _field_permutation(mesh, p):
    """Permutation sending reference-implementation dof order to ours,
    matched per element by physical node coordinates."""
    ours = macro_nodes(mesh, p)[0]
    tri = reference_hdg.TriLagrange(p)
    verts = mesh.verts[0]
    J = np.column_stack((verts[1] - verts[0], verts[2] - verts[0]))
    theirs = tri.nodes @ J.T + verts[0]
    ours_key = {tuple(np.round(pt, 12)): i for i, pt in enumerate(ours)}
    perm = np.array([ours_key[tuple(np.round(pt, 12))] for pt in theirs])
    return perm


def test_m1_blocks_match_reference():
    """m=1 assembly coincides with the independent single-element reference
    after a dof permutation."""
    p = 2
    kappa, a = 0.7, np.array([1.0, 2.0])
    mesh = build_structured_macro_mesh(2, 1, 1)
    zero = lambda x: np.zeros(np.atleast_2d(x).shape[0])
    problem = make_problem(a=a, kappa=kappa)
    op = assemble_one(mesh, 0, p, problem, NO_STAB)

    # rebuild the element block with the reference code's quadrature loops
    tris = reference_hdg.make_triangulation(1)
    faces, _ = reference_hdg.make_faces(tris)
    nb = reference_hdg.TriLagrange(p).nb
    # run the reference assembly and slice out element 0's diagonal block
    out_n = 1
    sol_sys = _reference_block_system(out_n, p, kappa, a)
    K, face_off, nloc = sol_sys
    perm_nodes = _field_permutation(mesh, p)
    Q = op.R_u.size // 3
    perm = np.concatenate([perm_nodes, perm_nodes + Q, perm_nodes + 2 * Q])
    A_ref = K[0:nloc, 0:nloc]
    A_ours = np.asarray(op.A)
    assert np.abs(A_ref - A_ours[np.ix_(perm, perm)]).max() < 1e-12

    # interior-face coupling columns (the diagonal face)
    fid_ref = [fi for fi, f in enumerate(faces) if not f["boundary"]][0]
    fo = face_off[fid_ref]
    B_ref = K[0:nloc, fo:fo + p + 1]
    C_ref = K[fo:fo + p + 1, 0:nloc]
    interior = np.flatnonzero(mesh.face_tag == "interior")[0]
    slot = dict(loop_face_slots(mesh, 0, p))[interior]
    assert np.abs(B_ref - op.B[perm][:, slot]).max() < 1e-12
    assert np.abs(C_ref - op.C[slot, :][:, perm]).max() < 1e-12


def _reference_block_system(n, p, kappa, a):
    """Assemble the reference global matrix, returning (K, face offsets, nloc)."""
    import numpy as np

    tris = reference_hdg.make_triangulation(n)
    faces, _ = reference_hdg.make_faces(tris)
    tri = reference_hdg.TriLagrange(p)
    seg = reference_hdg.SegLagrange(p)
    nb, nf = tri.nb, seg.nb
    nel = len(tris)
    qp, qw = reference_hdg.tri_quadrature(p + 3)
    sq, sw = reference_hdg.seg_quadrature(p + 3)
    nloc = 3 * nb
    face_off = {}
    pos = nel * nloc
    for fi, face in enumerate(faces):
        if not face["boundary"]:
            face_off[fi] = pos
            pos += nf
    K = np.zeros((pos, pos))
    face_of_edge = {}
    for fi, face in enumerate(faces):
        for (e, k) in face["adj"]:
            face_of_edge[(e, k)] = fi
    for e, verts in enumerate(tris):
        J = np.column_stack((verts[1] - verts[0], verts[2] - verts[0]))
        det = abs(np.linalg.det(J))
        Ji = np.linalg.inv(J)
        diam = max(np.linalg.norm(verts[i] - verts[j])
                   for i, j in ((0, 1), (1, 2), (2, 0)))
        V = tri.val(qp)
        GXr, GYr = tri.grad(qp)
        GX = GXr * Ji[0, 0] + GYr * Ji[1, 0]
        GY = GXr * Ji[0, 1] + GYr * Ji[1, 1]
        wd = qw * det
        M = V.T @ (wd[:, None] * V)
        KX = GX.T @ (wd[:, None] * V)
        KY = GY.T @ (wd[:, None] * V)
        o = e * nloc
        oqx, oqy, ou = o, o + nb, o + 2 * nb
        K[oqx:oqx + nb, oqx:oqx + nb] += M
        K[oqy:oqy + nb, oqy:oqy + nb] += M
        K[oqx:oqx + nb, ou:ou + nb] += -KX
        K[oqy:oqy + nb, ou:ou + nb] += -KY
        K[ou:ou + nb, oqx:oqx + nb] += -kappa * KX
        K[ou:ou + nb, oqy:oqy + nb] += -kappa * KY
        K[ou:ou + nb, ou:ou + nb] += -(a[0] * KX + a[1] * KY)
        for k in range(3):
            ia, ib = ((1, 2), (2, 0), (0, 1))[k]
            pa, pb = verts[ia], verts[ib]
            t = pb - pa
            nrm = np.array([t[1], -t[0]])
            if np.dot(nrm, verts[k] - pa) > 0:
                nrm = -nrm
            nrm = nrm / np.linalg.norm(nrm)
            tau = abs(np.dot(a, nrm)) + kappa / diam
            an = float(np.dot(a, nrm))
            fi = face_of_edge[(e, k)]
            v0, v1 = faces[fi]["pts"]
            length = np.linalg.norm(v1 - v0)
            Xf = v0[None, :] + sq[:, None] * (v1 - v0)[None, :]
            ref = (Xf - verts[0]) @ Ji.T
            Vt = tri.val(ref)
            Vs = seg.val(sq)
            wl = sw * length
            Mtt = Vt.T @ (wl[:, None] * Vt)
            W = Vt.T @ (wl[:, None] * Vs)
            Mss = Vs.T @ (wl[:, None] * Vs)
            K[ou:ou + nb, oqx:oqx + nb] += kappa * nrm[0] * Mtt
            K[ou:ou + nb, oqy:oqy + nb] += kappa * nrm[1] * Mtt
            K[ou:ou + nb, ou:ou + nb] += tau * Mtt
            if not faces[fi]["boundary"]:
                fo = face_off[fi]
                K[oqx:oqx + nb, fo:fo + nf] += nrm[0] * W
                K[oqy:oqy + nb, fo:fo + nf] += nrm[1] * W
                K[ou:ou + nb, fo:fo + nf] += (an - tau) * W
                K[fo:fo + nf, oqx:oqx + nb] += kappa * nrm[0] * W.T
                K[fo:fo + nf, oqy:oqy + nb] += kappa * nrm[1] * W.T
                K[fo:fo + nf, ou:ou + nb] += tau * W.T
                K[fo:fo + nf, fo:fo + nf] += (an - tau) * Mss
    return K, face_off, nloc


def test_adjoint_structure_a_zero():
    """With a = 0, C is determined by B up to transposes and kappa/tau signs."""
    kappa = 0.7
    mesh = build_structured_macro_mesh(2, 2, 2)
    problem = make_problem(a=(0.0, 0.0), kappa=kappa)
    for e in range(3):
        op = assemble_one(mesh, e, 2, problem, NO_STAB)
        Q = op.R_u.size // 3
        B_q, B_u = op.B[:2 * Q], op.B[2 * Q:]
        C_q, C_u = op.C[:, :2 * Q], op.C[:, 2 * Q:]
        assert np.abs(C_q - kappa * B_q.T).max() < 1e-12
        assert np.abs(C_u + B_u.T).max() < 1e-12


def test_quadrature_order_stability():
    mesh = build_structured_macro_mesh(2, 1, 2)
    case = poly_case(2)
    p = 2
    op1 = assemble_one(mesh, 0, p, case.problem(),
                         NO_STAB, quad_degree=2 * p + 1)
    op2 = assemble_one(mesh, 0, p, case.problem(),
                         NO_STAB, quad_degree=2 * p + 3)
    scale = np.abs(np.asarray(op1.A)).max()
    assert np.abs(np.asarray(op1.A) - np.asarray(op2.A)).max() < 1e-12 * scale
    assert np.abs(op1.B - op2.B).max() < 1e-12 * scale
    assert np.abs(op1.C - op2.C).max() < 1e-12 * scale
    assert np.abs(op1.R_u - op2.R_u).max() < 1e-12 * max(1.0, np.abs(op1.R_u).max())


@pytest.mark.parametrize("supg", [False, True])
@pytest.mark.parametrize("degree,p", [(1, 1), (2, 2), (3, 3)])
def test_block_residual_patch_test(degree, p, supg):
    """Exact polynomial data satisfies the uncondensed block equations."""
    case = poly_case(degree, kappa=0.9, a=(1.0, 2.0))
    mesh = build_structured_macro_mesh(2, 2, 2)
    stab = StabilizationConfig(supg=supg)
    psi = TraceBasis(mesh.m, p)

    def trace_values(f):
        v0, v1 = mesh.face_verts[f]
        return case.u_exact(v0[None, :] + psi.nodes[:, None] * (v1 - v0)[None, :])

    trace_rows = {}
    for e, nodes in enumerate(macro_nodes(mesh, p)):
        op = assemble_one(mesh, e, p, case.problem(), stab)
        ustar = case.u_exact(nodes)
        qstar = -case.grad_u(nodes)
        U = np.concatenate([qstar[:, 0], qstar[:, 1], ustar])
        res = np.asarray(op.A) @ U - op.R_u
        for fid, slot in loop_face_slots(mesh, e, p):
            if mesh.face_tag[fid] != "D":
                res += op.B[:, slot] @ trace_values(fid)
                seg = trace_rows.setdefault(fid, np.zeros(slot.stop - slot.start))
                seg += op.C[slot] @ U
        assert np.abs(res).max() < 1e-10

    for f in np.flatnonzero(mesh.face_tag != "D"):
        D, R_hat = reference_assemble_face(mesh, f, p, case.problem())
        res = trace_rows[f] + D @ trace_values(f) - R_hat
        assert np.abs(res).max() < 1e-10
