"""Condensation, matrix-free Schur application, GMRES and reconstruction."""

import threading
import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CLASS_MESHES,
    assemble_one,
    coarse_prolongation,
    macro_nodes,
    neumann_right,
    over_coarse_factors,
    poly_case,
    random_adapted_mesh,
)
from reference_assembly import loop_face_slots
from reference_mesh import face_sides

from mehdg.assembly import StabilizationConfig, face_operators
from mehdg.bench import make_benchmark
from mehdg.fem_basis import TraceBasis
from mehdg.mesh import build_structured_macro_mesh, refine_macros
from mehdg.schur_solver import (
    CHUNK_MACROS,
    MAX_WORKERS,
    SingularFaceBlock,
    SingularLocalBlock,
    SolverConfig,
    WorkerPool,
    _apply_cab,
    apply_schur,
    assemble_schur_explicit,
    assemble_system,
    coarse_space,
    condense,
    gmres,
    reconstruct_interior,
    solve,
)

NO_STAB = StabilizationConfig()
# The class meshes plus one whose classes have four slot counts (15, 20, 25
# and 30 B columns at m = p = 2), so that condense sets up several groups
ORACLE_MESHES = {**CLASS_MESHES, "adapted-random-2": lambda: random_adapted_mesh(2)}


def build_system(n, m, p, case=None, workers=1, tol=1e-6):
    case = case or poly_case(2)
    mesh = build_structured_macro_mesh(2, n, m)
    config = SolverConfig(tol=tol, workers=workers)
    classes, faces = assemble_system(mesh, case.problem(), NO_STAB, p)
    sys = condense(mesh, classes, faces, config)
    return mesh, sys


def unknown_faces(sys):
    """(face id, first trace dof) of each unknown face, in trace order."""
    fids = np.flatnonzero(sys.face_start >= 0)
    return list(zip(fids.tolist(), sys.face_start[fids].tolist()))


def dense_D(mesh, sys, p):
    """The block-diagonal D as a dense array: each face block of
    face_operators placed at its face's trace dofs by face_start."""
    faces = face_operators(mesh, p, poly_case(2).problem())
    D = np.zeros((sys.zhat, sys.zhat))
    for fid, block in zip(faces.ids.tolist(), faces.D):
        start = sys.face_start[fid]
        D[start:start + sys.nd, start:start + sys.nd] = block
    return D


def slot_diagonal_mask(ns, nd):
    """(ns nd, ns nd) mask of the slot-diagonal blocks of a class block."""
    return np.kron(np.eye(ns, dtype=bool), np.ones((nd, nd), dtype=bool))


def per_macro_oracle(mesh, sys, p, problem=None):
    """Per macro, in id order: its operators assembled as a one-macro class,
    the mask of its B columns on unknown faces and their indices in the
    trace vector."""
    problem = problem or poly_case(2).problem()
    for e in range(len(mesh.verts)):
        op = assemble_one(mesh, e, p, problem, NO_STAB)
        mask = np.zeros(op.B.shape[1], dtype=bool)
        idx = []
        for fid, slot in loop_face_slots(mesh, e, p):
            start = int(sys.face_start[fid])
            if start >= 0:
                mask[slot] = True
                idx.extend(range(start, start + sys.nd))
        yield op, mask, np.array(idx, dtype=np.int64)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=2.0)
    with pytest.raises(TypeError):  # face-block Jacobi is the one preconditioner
        SolverConfig(preconditioner="block")
    with pytest.raises(ValueError):
        SolverConfig(mode="magic")
    for name in ("restart", "maxiter", "workers"):
        for bad in (0, -1, 2.5, 3.0, True, np.bool_(True), "4", None):
            with pytest.raises(ValueError):
                SolverConfig(**{name: bad})
        assert getattr(SolverConfig(**{name: np.int64(3)}), name) == 3
    assert SolverConfig(workers=MAX_WORKERS).workers == MAX_WORKERS
    for workers in (MAX_WORKERS + 1, 10**9):
        with pytest.raises(ValueError):
            SolverConfig(workers=workers)


@pytest.mark.parametrize("p", [True, np.bool_(True), 2.5, 2.0, "2", None],
                         ids=["True", "numpy-True", "2.5", "2.0", "str", "None"])
def test_solve_refuses_non_integer_p(p):
    """solve() and assemble_system refuse a bool or non-integer p by name,
    as SolverConfig does for restart, maxiter and workers: p=True used to
    solve as p = 1 and report "p": true, and p=2.5 raised TypeError from
    inside assembly.  A numpy integer is accepted."""
    mesh = build_structured_macro_mesh(2, 1, 1)
    problem = poly_case(2).problem()
    with pytest.raises(ValueError, match=r"^p must be an integer, got "):
        solve(mesh, problem, NO_STAB, SolverConfig(), p)
    with pytest.raises(ValueError, match=r"^p must be an integer, got "):
        assemble_system(mesh, problem, NO_STAB, p)
    solution, _ = solve(mesh, problem, NO_STAB, SolverConfig(), np.int64(1))
    assert solution.report.p == 1 and solution.report.converged


@pytest.mark.parametrize("name", sorted(CLASS_MESHES))
def test_class_operators_match_per_macro_assembly(name):
    """Every class's A, B and C equal those of each member macro assembled
    as a one-macro class,
    and each member's R_u row equals that macro's own R_u, with SUPG off and
    on (both variants); after condense, each member's row of its slot
    group's face_ids lists that macro's slot faces."""
    from mehdg.bench import make_benchmark

    mesh = CLASS_MESHES[name]()
    p = 2
    problem = make_benchmark("tanh", 0.05, (1.0, 2.0)).problem()
    problem.g_N = lambda x: np.sin(3.0 * x[:, 1])
    for stab in (NO_STAB, StabilizationConfig(supg=True),
                 StabilizationConfig(supg=True, supg_variant="paper-plus")):
        classes, faces = assemble_system(mesh, problem, stab, p)
        ids = sorted(e for cls in classes for e in cls.macro_ids.tolist())
        assert ids == list(range(len(mesh.verts)))
        for cls in classes:
            A = cls.A.toarray() if hasattr(cls.A, "toarray") else cls.A
            for r, e in enumerate(cls.macro_ids):
                op = assemble_one(mesh, e, p, problem, stab)
                Ae = op.A.toarray() if hasattr(op.A, "toarray") else op.A
                for got, want in ((A, Ae), (cls.B, op.B), (cls.C, op.C),
                                  (cls.R_u[r], op.R_u)):
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    sys = condense(mesh, classes, faces, SolverConfig())
    for group in sys.groups:
        # the group's member rows: its classes' macros, class by class
        rows = np.concatenate([cls.macro_ids for cls in sys.classes
                               if cls.K_fold.shape == group.K_fold.shape[1:]])
        assert len(rows) == len(group.face_ids)
        for e, face_ids in zip(rows.tolist(), group.face_ids):
            assert face_ids.tolist() == [fid for fid, _ in loop_face_slots(mesh, e, p)]
    if name.startswith("uniform"):
        assert len(classes) == 2  # one class per diagonal direction
    if name == "adapted-2-level":
        assert (mesh.face_parent >= 0).any()
        assert any(cls.macro_ids.size > 1 for cls in classes)
    if name == "adapted-random-neumann":
        assert len(classes) >= 8
        assert (mesh.face_parent >= 0).any() and (mesh.face_tag == "N").any()


def test_assembly_batches_all_classes(monkeypatch):
    """On an adapted mesh with many classes, assemble_system builds the
    sub-cell tables once, calls f once per sub-cell kind (m = 2 has both)
    and g_D once, whatever the class count: no per-class loop."""
    from mehdg import assembly

    mesh = random_adapted_mesh(1, neumann_right)
    problem = poly_case(2).problem()
    problem.g_N = lambda x: np.zeros(len(x))
    calls = {"tables": 0, "f": 0, "g_D": 0}
    tables, f, g_D = assembly._sub_cell_tables, problem.f, problem.g_D

    def count(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(assembly, "_sub_cell_tables", count("tables", tables))
    problem.f, problem.g_D = count("f", f), count("g_D", g_D)
    for stab in (NO_STAB, StabilizationConfig(supg=True)):
        calls.update(tables=0, f=0, g_D=0)
        classes, _ = assemble_system(mesh, problem, stab, 2)
        assert len(classes) >= 8
        assert calls == {"tables": 1, "f": 2, "g_D": 1}


@pytest.mark.parametrize("name", ["uniform-2-4", "uniform-1-8", "skewed-3-2", "adapted-2-level",
                                  "adapted-random-2"])
def test_fused_apply_matches_dense_oracle(name):
    """Each class's K_fold and trace_idx, the face blocks S_FF and the
    matrix-free apply against S = D - sum C A^-1 B formed densely from every
    macro's own assembly with np.linalg.solve: K_fold is C A^-1 B with its
    slot-diagonal blocks zeroed, trace_idx the macro's trace dofs (-1 on
    Dirichlet slots), S_FF the face-diagonal blocks of S.  On the adapted
    meshes the classes fall into several slot-count groups."""
    mesh = ORACLE_MESHES[name]()
    p = 2
    classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, p)
    if name == "uniform-2-4":
        assert all(isinstance(cls.A, np.ndarray) for cls in classes)  # dense storage
    if name == "uniform-1-8":
        assert all(hasattr(cls.A, "toarray") for cls in classes)  # sparse storage
    sys = condense(mesh, classes, faces, SolverConfig())
    counts = {group.face_ids.shape[1] for group in sys.groups}  # slots per macro
    if name == "adapted-2-level":
        assert (mesh.face_parent >= 0).any()
        assert counts == {3, 4}
    if name == "adapted-random-2":
        assert counts == {3, 4, 5, 6}
    owner = {e: (cls, r) for cls in sys.classes for r, e in enumerate(cls.macro_ids.tolist())}
    S = np.zeros((sys.zhat, sys.zhat))
    for fid, start in unknown_faces(sys):
        S[start:start + sys.nd, start:start + sys.nd] = faces.D[faces.ids == fid][0]
    for e, (op, mask, gi) in enumerate(per_macro_oracle(mesh, sys, p)):
        A = op.A.toarray() if hasattr(op.A, "toarray") else op.A
        K = op.C @ np.linalg.solve(A, op.B)
        S[np.ix_(gi, gi)] -= K[np.ix_(mask, mask)]
        K[slot_diagonal_mask(len(K) // sys.nd, sys.nd)] = 0.0
        cls, r = owner[e]
        assert np.abs(cls.K_fold - K).max() <= 1e-11 * np.abs(K).max()
        assert np.array_equal(cls.trace_idx[r][mask], gi)
        assert (cls.trace_idx[r][~mask] == -1).all()
    for _, start in unknown_faces(sys):
        S_FF = S[start:start + sys.nd, start:start + sys.nd]
        got = sys.S_blocks[start // sys.nd]
        assert np.abs(got - S_FF).max() <= 1e-11 * np.abs(S_FF).max()
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(sys.zhat)
        want = S @ x
        assert np.linalg.norm(apply_schur(sys, x) - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["uniform-4-2", "adapted-random-2"])
def test_classes_are_views_of_their_slot_group(name):
    """condense stores each slot count's set-up once: every class's K_fold
    and trace_idx share memory with exactly its block and its member rows of
    one SlotGroup, and with no other rows of any group; each group has its
    own slot count, and the member counts sum to the macro count."""
    mesh = ORACLE_MESHES[name]()
    classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, 2)
    sys = condense(mesh, classes, faces, SolverConfig())
    assert sum(int(group.members.sum()) for group in sys.groups) == len(mesh.verts)
    assert len({group.face_ids.shape[1] for group in sys.groups}) == len(sys.groups)
    if name == "adapted-random-2":
        assert len(sys.groups) == 4
    owners = []
    for group in sys.groups:
        ends = np.cumsum(group.members)
        for g, (size, end) in enumerate(zip(group.members, ends)):
            owner, = [c for c, cls in enumerate(sys.classes)
                      if np.shares_memory(cls.K_fold, group.K_fold[g])]
            cls = sys.classes[owner]
            assert cls.K_fold.shape == group.K_fold[g].shape
            assert len(cls.macro_ids) == len(cls.trace_idx) == size
            assert np.shares_memory(cls.trace_idx, group.trace_idx[end - size:end])
            others = [group.trace_idx[:end - size], group.trace_idx[end:]]
            others += [other.trace_idx for other in sys.groups if other is not group]
            assert not any(np.shares_memory(cls.trace_idx, other) for other in others)
            owners.append(owner)
    assert sorted(owners) == list(range(len(sys.classes)))


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_reconstruction_and_rhs_match_dense_oracle(name):
    """For a random uhat, reconstruct_interior equals each macro's own
    np.linalg.solve(A, R_u - B uhat), and f equals R_hat minus the scattered
    C A^-1 R_u, on meshes with dense and sparse A, hanging and Neumann
    faces, and classes of up to four slot counts."""
    mesh = ORACLE_MESHES[name]()
    p = 2
    problem = poly_case(2).problem()
    problem.g_N = lambda x: np.sin(3.0 * x[:, 1])
    classes, faces = assemble_system(mesh, problem, NO_STAB, p)
    if name == "uniform-1-8":
        assert all(sp.issparse(cls.A) for cls in classes)
    sys = condense(mesh, classes, faces, SolverConfig())
    uhat = np.random.default_rng(11).standard_normal(sys.zhat)
    local = reconstruct_interior(sys, uhat)
    f = np.zeros(sys.zhat)
    for fid, R_hat in zip(faces.ids.tolist(), faces.R_hat):
        f[sys.face_start[fid]:sys.face_start[fid] + sys.nd] = R_hat
    for e, (op, mask, gi) in enumerate(per_macro_oracle(mesh, sys, p, problem)):
        A = op.A.toarray() if hasattr(op.A, "toarray") else op.A
        R_u = op.R_u.ravel()  # the one-macro stack
        want = np.linalg.solve(A, R_u - op.B[:, mask] @ uhat[gi])
        assert np.abs(local[e] - want).max() <= 1e-11 * np.abs(want).max()
        f[gi] -= op.C[mask] @ np.linalg.solve(A, R_u)
    assert np.abs(sys.f_vec - f).max() <= 1e-11 * np.abs(f).max()


def _reachable(obj, seen=None):
    """obj and every object reachable from it through attributes, dict
    values, lists and tuples, each once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        items = vars(obj).values()
    else:
        return
    for item in items:
        yield from _reachable(item, seen)


@pytest.mark.parametrize("name", ["adapted-2-level", "uniform-1-8"])
@pytest.mark.parametrize("mode", ["mb", "mf"])
def test_one_local_solve_per_class(monkeypatch, mode, name):
    """solve() factors and solves each class's A exactly once, dense or
    sparse, in either mode, and keeps no factor: neither a SuperLU object
    nor an (lu, piv) pair is reachable from the condensed system."""
    from mehdg import schur_solver

    calls = []
    real = schur_solver._solve_local

    def counted(A, rhs, macro):
        calls.append(macro)
        return real(A, rhs, macro)

    monkeypatch.setattr(schur_solver, "_solve_local", counted)
    mesh = CLASS_MESHES[name]()
    _, sys = solve(mesh, poly_case(2).problem(), NO_STAB,
                   SolverConfig(tol=1e-10, mode=mode), 2)
    assert len(sys.classes) >= 2
    assert sorted(calls) == sorted(int(cls.macro_ids[0]) for cls in sys.classes)
    for obj in _reachable(sys):
        assert not isinstance(obj, spla.SuperLU)
        assert not (isinstance(obj, tuple) and len(obj) == 2
                    and all(isinstance(x, np.ndarray) for x in obj)
                    and obj[1].dtype.kind == "i")


def test_condense_zero_data():
    zero_case = poly_case(1)
    zero_case = type(zero_case)(
        name="zero", kappa=1.0, a=zero_case.a,
        u_exact=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        grad_u=lambda x: np.zeros((np.atleast_2d(x).shape[0], 2)),
        f=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
    )
    _, sys = build_system(2, 2, 2, case=zero_case)
    assert np.abs(sys.f_vec).max() == 0.0


def test_condense_single_cell_dof_count():
    mesh, sys = build_system(1, 1, 1)
    assert sys.zhat == 2  # one interior face, p + 1 trace dofs


@pytest.mark.parametrize("m,p", [(2, 2), (3, 1)])
def test_trace_numbering_matches_offsets_loop(m, p):
    """face_start, trace_idx and the R_hat part of f equal a face-by-face
    numbering loop, on a mesh with Dirichlet, Neumann and hanging faces."""
    def tagger(mid):
        return "N" if mid[1] < 1e-12 or mid[0] > 1 - 1e-12 else "D"

    case = poly_case(2)
    problem = case.problem()
    problem.g_N = lambda x: np.cos(2 * x[:, 0]) - x[:, 1]
    mesh = refine_macros(build_structured_macro_mesh(2, 3, m, boundary_tagger=tagger),
                         [1, 4, 9])
    assert set(mesh.face_tag.tolist()) == {"interior", "D", "N"}
    assert (mesh.face_parent >= 0).any()
    classes, faces = assemble_system(mesh, problem, NO_STAB, p)
    sys = condense(mesh, classes, faces, SolverConfig())

    # the numbering loop: unknown faces in skeleton order, m p + 1 dofs each
    offsets, pos = {}, 0
    for fid, tag in enumerate(mesh.face_tag):
        if tag == "D":
            continue
        offsets[fid] = pos
        pos += m * p + 1
    assert sys.zhat == pos and sys.nd == m * p + 1
    assert sys.face_start.tolist() == [offsets.get(f, -1) for f in range(len(mesh.face_tag))]
    for cls in sys.classes:
        for r, e in enumerate(cls.macro_ids.tolist()):
            want = np.full(len(cls.K_fold), -1, dtype=np.int64)
            for fid, slot in loop_face_slots(mesh, e, p):
                if fid in offsets:
                    want[slot] = np.arange(offsets[fid], offsets[fid] + sys.nd)
            assert np.array_equal(cls.trace_idx[r], want)

    # f = R_hat - C A^-1 R_u: with zero local loads only R_hat is left
    classes, faces = assemble_system(mesh, problem, NO_STAB, p)
    for cls in classes:
        cls.R_u = np.zeros_like(cls.R_u)
    sys = condense(mesh, classes, faces, SolverConfig())
    want = np.zeros(sys.zhat)
    for fid, R_hat in zip(faces.ids.tolist(), faces.R_hat):
        want[offsets[fid]:offsets[fid] + sys.nd] = R_hat
    assert np.abs(want).max() > 0
    assert np.array_equal(sys.f_vec, want)


def test_global_dof_counting_oracle():
    for n, m, p in ((2, 2, 2), (4, 1, 3), (2, 4, 2)):
        mesh, sys = build_system(n, m, p)
        expect = sum(m * p + 1 for tag in mesh.face_tag if tag != "D")
        assert sys.zhat == expect


def test_manufactured_linear_trace():
    """u* = x + y with a = 0: trace dofs reproduce u* exactly."""
    case = poly_case(1, a=(0.0, 0.0))
    mesh, sys = build_system(2, 2, 2, case=case)
    S = assemble_schur_explicit(sys)

    uhat = spla.spsolve(S.tocsc(), sys.f_vec)
    basis = TraceBasis(mesh.m, 2)
    for fid, start in unknown_faces(sys):
        v0, v1 = mesh.face_verts[fid]
        pts = v0[None, :] + basis.nodes[:, None] * (v1 - v0)[None, :]
        assert np.abs(uhat[start:start + sys.nd] - case.u_exact(pts)).max() < 1e-10


def test_apply_schur_zero_and_linearity():
    _, sys = build_system(2, 2, 2)
    assert np.abs(apply_schur(sys, np.zeros(sys.zhat))).max() == 0.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal(sys.zhat)
    y = rng.standard_normal(sys.zhat)
    lhs = apply_schur(sys, 2.0 * x + 3.0 * y)
    rhs = 2.0 * apply_schur(sys, x) + 3.0 * apply_schur(sys, y)
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("n,m,p", [(2, 1, 1), (2, 2, 2), (3, 2, 3)])
def test_matrix_free_matches_explicit(n, m, p):
    _, sys = build_system(n, m, p)
    S = assemble_schur_explicit(sys)
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.standard_normal(sys.zhat)
        mf = apply_schur(sys, x)
        mb = S @ x
        assert np.linalg.norm(mf - mb) <= 1e-10 * np.linalg.norm(mb)


def test_two_macro_call_counts():
    """On the two-macro mesh one operator application is exactly two macro
    computations plus one face reduction, although the two macros (one per
    red-pattern kind) are two classes of one macro each."""
    _, sys = build_system(1, 1, 1)
    assert [cls.macro_ids.tolist() for cls in sys.classes] == [[0], [1]]
    before = sys.counters
    apply_schur(sys, np.ones(sys.zhat))
    assert sys.counters["macro_apply"] - before["macro_apply"] == 2
    assert sys.counters["face_reduce"] - before["face_reduce"] == 1


def n_chunks(sys):
    """The chunks of the matrix-free apply: each stacked product holds
    len(idx) of them, a 2-D one (a class's short last chunk) one."""
    return sum(len(idx) if idx.ndim == 3 else 1
               for products in sys.partitions for _, idx, _ in products)


def loop_apply_cab(sys, uhat):
    """_apply_cab as a loop over the chunks of CHUNK_MACROS macros of each
    class: per chunk, the gathered trace values times K_fold, the outputs
    concatenated in class and row order and summed into the trace dofs."""
    upad = np.append(uhat, 0.0)
    vhat = [(upad[cls.trace_idx[i:i + CHUNK_MACROS]] @ cls.K_fold.T).ravel()
            for cls in sys.classes for i in range(0, len(cls.trace_idx), CHUNK_MACROS)]
    return np.bincount(sys.reduce_dst, np.concatenate(vhat), minlength=sys.zhat + 1)[:-1]


# mesh, and whether some class ends in a short chunk
APPLY_MESHES = {
    "uniform-4-2": (lambda: build_structured_macro_mesh(2, 4, 2), False),
    "uniform-4-4": (lambda: build_structured_macro_mesh(2, 4, 4), False),
    "uniform-3-3": (lambda: build_structured_macro_mesh(2, 3, 3), True),
    "adapted-random-2": (lambda: random_adapted_mesh(2), True),
}


@pytest.mark.parametrize("name", sorted(APPLY_MESHES))
def test_apply_cab_matches_chunk_loop_for_any_worker_count(name):
    """The batched apply equals the per-chunk loop bitwise for 1, 2, 3 and
    8 workers, on meshes whose classes end in short chunks and with more
    partitions than some classes have chunks; the products of partition w
    write the outputs of exactly the chunks j = w mod workers."""
    build, ragged = APPLY_MESHES[name]
    mesh = build()
    classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, 2)
    sizes = [len(cls.macro_ids) for cls in classes]
    assert any(s % CHUNK_MACROS for s in sizes) == ragged
    uhat = np.random.default_rng(3).standard_normal(faces.R_hat.size)
    expect = None
    for workers in (1, 2, 3, 8):
        classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, 2)
        sys = condense(mesh, classes, faces, SolverConfig(workers=workers))
        if expect is None:
            expect = loop_apply_cab(sys, uhat)
        assert len(sys.partitions) == workers
        assert n_chunks(sys) == sum(-(-s // CHUNK_MACROS) for s in sizes)
        # chunk j, numbered class by class, belongs to partition j mod workers
        first = np.cumsum([0] + [-(-s // CHUNK_MACROS) for s in sizes])
        chunk = np.concatenate([
            np.repeat(first[c] + np.arange(s) // CHUNK_MACROS, cls.trace_idx.shape[1])
            for c, (s, cls) in enumerate(zip(sizes, sys.classes))])
        upad = np.append(uhat, 0.0)
        for w, products in enumerate(sys.partitions):
            sys.apply_out[...] = np.nan
            for K_fold, idx, out in products:
                np.matmul(upad[idx], K_fold.T, out=out)
            assert np.array_equal(~np.isnan(sys.apply_out), chunk % workers == w)
        sys.apply_out[...] = np.nan
        for _ in range(2):  # the output buffer is reused across calls
            got = _apply_cab(sys, uhat)
            assert np.array_equal(got, expect)
        assert np.array_equal(loop_apply_cab(sys, uhat), expect)


def test_call_counts_exact_with_workers():
    """Counts stay exact when the chunks of macros are split over eight
    partitions: the counter counts macros, not chunks or classes."""
    mesh, sys = build_system(3, 2, 1, workers=8)
    assert n_chunks(sys) > len(sys.classes)
    x = np.ones(sys.zhat)
    before = sys.counters
    for _ in range(20):
        apply_schur(sys, x)
    assert sys.counters["macro_apply"] - before["macro_apply"] == 20 * len(mesh.verts)
    assert sys.counters["face_reduce"] - before["face_reduce"] == 20 * len(unknown_faces(sys))


def dense_D_and_CAB(mesh, sys, p):
    """Dense D and C A^-1 B, the latter built from each macro's own
    assembly."""
    CAB = np.zeros((sys.zhat, sys.zhat))
    for op, mask, gi in per_macro_oracle(mesh, sys, p):
        CAB[np.ix_(gi, gi)] += op.C[mask] @ np.linalg.solve(op.A, op.B[:, mask])
    return dense_D(mesh, sys, p), CAB


def test_preconditioned_operator_structure():
    """The explicit S equals D - C A^-1 B from a dense oracle built from each
    macro's own assembly."""
    mesh, sys = build_system(1, 1, 1)
    S = assemble_schur_explicit(sys).toarray()
    D, CAB = dense_D_and_CAB(mesh, sys, 1)
    assert np.abs(S - (D - CAB)).max() < 1e-11 * np.abs(S).max()


def dense_preconditioner(sys, S):
    """The dense M whose inverse P is: the face-diagonal blocks of the dense
    S."""
    M = np.zeros_like(S)
    for _, start in unknown_faces(sys):
        block = slice(start, start + sys.nd)
        M[block, block] = S[block, block]
    return M


@pytest.mark.parametrize("mode", [pytest.param("mb", id="block-mb"),
                                  pytest.param("mf", id="block-mf")])
def test_solve_folds_dinv_into_operator(monkeypatch, mode):
    """The operator and right-hand side that solve() gives gmres are
    M^-1 S and M^-1 f against the dense oracle, M the face-diagonal blocks of
    S, in both modes."""
    from mehdg import schur_solver

    calls = []

    def spy(apply_op, rhs, config):
        calls.append((apply_op, rhs.copy()))
        return gmres(apply_op, rhs, config)

    monkeypatch.setattr(schur_solver, "gmres", spy)
    mesh = build_structured_macro_mesh(2, 2, 1)
    solution, sys = solve(mesh, poly_case(2).problem(), NO_STAB,
                          SolverConfig(tol=1e-10, mode=mode), 1)
    assert solution.report.converged and solution.report.iterations > 0
    (op, rhs), = calls
    D, CAB = dense_D_and_CAB(mesh, sys, 1)
    S = D - CAB
    M = dense_preconditioner(sys, S)
    assert len(unknown_faces(sys)) > 1 and np.abs(M - S).max() > 0.1 * np.abs(S).max()
    f = np.linalg.solve(M, sys.f_vec)
    assert np.abs(rhs - f).max() < 1e-11 * np.abs(f).max()
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.standard_normal(sys.zhat)
        ref = np.linalg.solve(M, S @ x)
        assert np.abs(op(x) - ref).max() < 1e-11 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("n,m,p,mode,iters,coarse_factor", over_coarse_factors({
    "8-1-2-mb-two-level": (8, 1, 2, "mb", 19), "4-4-2-mf-two-level": (4, 4, 2, "mf", 13),
}), indirect=["coarse_factor"])
def test_folded_solve_matches_unfolded_gmres(n, m, p, mode, iters, coarse_factor):
    """The folded solve keeps the iteration count of BENCH_multiplicative.json
    and the trace of GMRES run on the multiplicative two-level
    M = P + Q_c - P S Q_c, Q_c = Pc S_c^-1 Pc^T, times the unfolded
    matrix-free S (the additive M = P + Q_c took 25 and 23), with S_c
    factored densely by getrf and sparsely by splu."""
    config = SolverConfig(tol=1e-10, mode=mode)
    mesh = build_structured_macro_mesh(2, n, m)
    solution, sys = solve(mesh, make_benchmark("tanh", 0.4, (1.0, 1.0)).problem(),
                          NO_STAB, config, p)
    coarse = coarse_space(sys)
    assert solution.report.coarse_dofs == coarse.dofs > 0
    Pc = coarse_prolongation(sys, coarse)

    def P(v):
        return (sys.P_blocks @ v.reshape(-1, sys.nd, 1)).ravel()

    def M(v):
        Qc_v = Pc @ coarse.lu.solve(Pc.T @ v)
        return P(v) + Qc_v - P(apply_schur(sys, Qc_v))

    uhat, info = gmres(lambda v: M(apply_schur(sys, v)), M(sys.f_vec), config)
    assert solution.report.iterations == info["iterations"] == iters
    assert np.linalg.norm(solution.uhat - uhat) <= 1e-12 * np.linalg.norm(uhat)


@pytest.mark.parametrize("name", ["uniform-3-2", "skewed-3-2", "adapted-2-level",
                                  "adapted-random-2"])
def test_block_preconditioner_inverts_face_blocks_of_s(name):
    """Each stored P_F inverts the face-diagonal block of
    S = D - C A^-1 B formed densely from each macro's own assembly, the face
    product with P_blocks is P v, each class's K_fold has zero
    slot-diagonal blocks, and the explicit P S built from the classes (per
    slot-count group) equals P times the dense S, with no entry stored
    twice; so does the explicit S."""
    mesh = ORACLE_MESHES[name]()
    p = 2
    classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, p)
    sys = condense(mesh, classes, faces, SolverConfig())
    if name == "adapted-2-level":
        assert (mesh.face_parent >= 0).any()
    D, CAB = dense_D_and_CAB(mesh, sys, p)
    S = D - CAB
    P = np.zeros_like(S)
    for _, start in unknown_faces(sys):
        block = slice(start, start + sys.nd)
        S_FF = S[block, block]
        P_F = sys.P_blocks[start // sys.nd]
        assert np.abs(np.linalg.inv(P_F) - S_FF).max() <= 1e-11 * np.abs(S_FF).max()
        P[block, block] = P_F
    x = np.random.default_rng(3).standard_normal(sys.zhat)
    Px = P @ x
    assert np.abs((sys.P_blocks @ x.reshape(-1, sys.nd, 1)).ravel() - Px).max() <= (
        1e-14 * np.abs(Px).max())
    nd = sys.nd
    for cls in sys.classes:
        assert not cls.K_fold[slot_diagonal_mask(len(cls.K_fold) // nd, nd)].any()
    PS = P @ S
    for got, want in ((assemble_schur_explicit(sys, fold=True), PS),
                      (assemble_schur_explicit(sys), S)):
        assert np.abs(got.toarray() - want).max() <= 1e-11 * np.abs(want).max()
        nf = sys.zhat // nd
        block_rows = np.repeat(np.arange(nf), np.diff(got.indptr))
        assert len(np.unique(block_rows * nf + got.indices)) == len(got.indices)


@pytest.mark.parametrize("name", ["uniform-3-2", "skewed-3-2", "adapted-2-level"])
def test_explicit_schur_block_structure(name):
    """The explicit S and P S are block-sparse with nd x nd blocks: one
    diagonal block per unknown face, and one block per member and ordered
    pair of its distinct unknown slots, k (k - 1) for a member with k unknown
    slots (Dirichlet slots and hanging faces included).  Each block row
    starts with its diagonal block: S_FF, or exactly the identity in P S."""
    mesh = CLASS_MESHES[name]()
    classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, 2)
    sys = condense(mesh, classes, faces, SolverConfig())
    if name == "adapted-2-level":
        assert (mesh.face_parent >= 0).any()
    assert (mesh.face_tag == "D").any()
    nd = sys.nd
    k = np.concatenate([(cls.trace_idx[:, ::nd] >= 0).sum(axis=1) for cls in sys.classes])
    assert k.min() < k.max()  # some members have Dirichlet slots
    for fold in (False, True):
        got = assemble_schur_explicit(sys, fold=fold)
        assert got.format == "bsr" and got.blocksize == (nd, nd)
        assert len(got.indices) == sys.zhat // nd + int((k * (k - 1)).sum())
        first = got.indptr[:-1]
        assert np.array_equal(got.indices[first], np.arange(sys.zhat // nd))
        want = np.broadcast_to(np.eye(nd), sys.S_blocks.shape) if fold else sys.S_blocks
        assert np.array_equal(got.data[first], want)


@pytest.mark.parametrize("supg", [False, True], ids=["plain", "supg"])
@pytest.mark.parametrize("name", ["uniform-4-2", "skewed-3-2", "adapted-2-level",
                                  "adapted-random-neumann"])
def test_block_mf_matches_mb_and_dense_solve(name, supg):
    """At tol 1e-12, the mf and mb traces agree to 1e-12
    relative, and both agree with a dense solve of S, on uniform, skewed and
    adapted meshes (hanging and Neumann faces), with SUPG off and on."""
    mesh = CLASS_MESHES[name]()
    problem = make_benchmark("tanh", 0.05, (1.0, 2.0)).problem()
    problem.g_N = lambda x: np.sin(3.0 * x[:, 1])
    stab = StabilizationConfig(supg=supg)
    uhat = {}
    for mode in ("mf", "mb"):
        solution, sys = solve(mesh, problem, stab,
                              SolverConfig(tol=1e-12, mode=mode), 2)
        assert solution.report.converged
        uhat[mode] = solution.uhat
    assert np.linalg.norm(uhat["mf"] - uhat["mb"]) <= 1e-12 * np.linalg.norm(uhat["mb"])
    dense = np.linalg.solve(assemble_schur_explicit(sys).toarray(), sys.f_vec)
    for u in uhat.values():
        assert np.linalg.norm(u - dense) <= 1e-10 * np.linalg.norm(dense)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), p=st.integers(1, 3),
       a=st.tuples(*[st.floats(-1.0, 1.0, allow_subnormal=False)] * 2),
       log_kappa=st.floats(-6.0, 0.0), supg=st.booleans(), adapted=st.booleans())
@example(n=1, m=1, p=1, a=(1.0, 2.0), log_kappa=0.0, supg=False, adapted=False)  # no coarse
@example(n=3, m=3, p=3, a=(0.5, -0.3), log_kappa=0.0, supg=True, adapted=True)  # coarse
def test_mf_mb_and_sparse_direct_agree(n, m, p, a, log_kappa, supg, adapted):
    """On random (n, m, p) up to 3, velocity a, log-uniform kappa in
    [1e-6, 1], SUPG off and on, and an optional random adapted level, the
    mf and mb traces at GMRES tol 1e-12 and a sparse direct solve of the
    explicit S agree to 1e-8 relative, with and without the coarse space.
    The two examples pin one solve without a coarse space and one with."""
    mesh = (random_adapted_mesh(1, n=n, m=m) if adapted
            else build_structured_macro_mesh(2, n, m))
    problem = poly_case(2, kappa=10.0**log_kappa, a=a).problem()
    stab = StabilizationConfig(supg=supg)
    uhat = {}
    for mode in ("mf", "mb"):
        solution, sys = solve(mesh, problem, stab, SolverConfig(tol=1e-12, mode=mode), p)
        assert solution.report.converged
        uhat[mode] = solution.uhat
    direct = spla.spsolve(assemble_schur_explicit(sys).tocsc(), sys.f_vec)
    for u in uhat.values():
        assert np.linalg.norm(u - direct) <= 1e-8 * np.linalg.norm(direct)


def test_face_factorization_kinds():
    """Every face block D_F = c_F M_F is negative definite; placed at its
    face's trace dofs by face_start, the blocks form block_diag(D_F) in
    trace order, and the explicit S holds S_FF at the same places."""
    mesh = build_structured_macro_mesh(2, 2, 2)
    classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, 2)
    sys = condense(mesh, classes, faces, SolverConfig())
    assert np.array_equal(dense_D(mesh, sys, 2), sla.block_diag(*faces.D))
    S = assemble_schur_explicit(sys).toarray()
    for fid, D, S_FF in zip(faces.ids.tolist(), faces.D, sys.S_blocks):
        assert np.linalg.eigvalsh(D).max() < 0
        block = slice(sys.face_start[fid], sys.face_start[fid] + sys.nd)
        assert np.array_equal(S[block, block], S_FF)


def slot_diagonal_sums(mesh, p):
    """Per unknown face, the sum of the slot-diagonal blocks of K that
    S_FF = D_F - sums subtracts, and a fresh assembly of the same system to
    condense.  The sums are read as D_F - S_FF from a condensed copy whose
    D_F are zero, so that they are exact: D_F = sums gives S_FF = 0."""
    classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, p)
    faces.D[...] = 0.0
    sums = faces.D - condense(mesh, classes, faces, SolverConfig()).S_blocks
    return sums, assemble_system(mesh, poly_case(2).problem(), NO_STAB, p)


@pytest.mark.parametrize("bad", ["tiny-pivot", "nan"])
def test_near_singular_face_block(bad):
    """A face whose S_FF has a pivot below 1e-13 of its largest entry, or
    a NaN, raises SingularFaceBlock naming that face."""
    mesh = build_structured_macro_mesh(2, 1, 1)
    sums, (classes, faces) = slot_diagonal_sums(mesh, 1)
    if bad == "nan":
        faces.D[0] = np.nan
    else:
        faces.D[0] = sums[0] + np.diag([1.0] + [1e-15] * (faces.D.shape[1] - 1))
    with pytest.raises(SingularFaceBlock) as err:
        condense(mesh, classes, faces, SolverConfig())
    assert err.value.args == (int(faces.ids[0]),)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_local_block():
    """A singular class block A is refused, naming the class's first macro:
    the last class of the two-macro mesh, and on an adapted mesh a class of
    several macros that is neither the first class nor has the first
    class's slot count."""
    case = poly_case(2)
    mesh = build_structured_macro_mesh(2, 1, 1)
    classes, faces = assemble_system(mesh, case.problem(), NO_STAB, 1)
    cls = classes[-1]
    cls.A = np.zeros_like(cls.A)
    with pytest.raises(SingularLocalBlock) as err:
        condense(mesh, classes, faces, SolverConfig())
    assert err.value.args == (int(cls.macro_ids[0]),)

    mesh = CLASS_MESHES["adapted-2-level"]()
    classes, faces = assemble_system(mesh, case.problem(), NO_STAB, 2)
    later = [c for c in classes if c.B.shape[1] != classes[0].B.shape[1]]  # other slot count
    cls = max(later, key=lambda c: len(c.macro_ids))
    assert len(cls.macro_ids) > 1 and int(cls.macro_ids[0]) != int(classes[0].macro_ids[0])
    cls.A = cls.A.copy()
    cls.A[:, 3] = 0.0
    with pytest.raises(SingularLocalBlock) as err:
        condense(mesh, classes, faces, SolverConfig())
    assert err.value.args == (int(cls.macro_ids[0]),)


@pytest.mark.parametrize("m", [2, 8], ids=["dense", "sparse"])
def test_nonfinite_local_block(m):
    """A NaN in a class block A, dense or sparse, is refused with a
    ValueError that names the class's first macro, before any factorization
    can turn it into NaN local solutions."""
    mesh = build_structured_macro_mesh(2, 1, m)
    classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, 1)
    cls = classes[-1]
    assert sp.issparse(cls.A) == (m > 4)
    cls.A = cls.A.copy()
    if m > 4:
        cls.A.data[0] = np.nan
    else:
        cls.A[1, 2] = np.nan
    with pytest.raises(ValueError, match=f"macro {int(cls.macro_ids[0])} is not finite"):
        condense(mesh, classes, faces, SolverConfig())


def test_singular_sparse_local_block():
    """With sparse storage (m > 4) an exactly singular A raises the same
    named error, not SuperLU's RuntimeError."""
    mesh = build_structured_macro_mesh(2, 1, 8)
    classes, faces = assemble_system(mesh, poly_case(2).problem(), NO_STAB, 1)
    assert sp.issparse(classes[0].A)
    classes[0].A = classes[0].A * 0.0
    with pytest.raises(SingularLocalBlock):
        condense(mesh, classes, faces, SolverConfig())


def test_singular_schur_face_block():
    """A face whose S_FF = D_F - sum K_ss is singular while D_F is not
    raises SingularFaceBlock naming that face."""
    mesh = build_structured_macro_mesh(2, 2, 1)
    sums, (classes, faces) = slot_diagonal_sums(mesh, 1)
    faces.D[0][:, -1] = sums[0][:, -1]  # S_FF of face 0 gets a zero column
    assert np.linalg.cond(faces.D[0]) < 1e6
    with pytest.raises(SingularFaceBlock) as err:
        condense(mesh, classes, faces, SolverConfig())
    assert err.value.args == (int(faces.ids[0]),)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_face_block():
    """An exactly zero S_FF (an LU with a zero pivot) raises
    SingularFaceBlock."""
    mesh = build_structured_macro_mesh(2, 1, 1)
    sums, (classes, faces) = slot_diagonal_sums(mesh, 1)
    faces.D[0] = sums[0]
    with pytest.raises(SingularFaceBlock):
        condense(mesh, classes, faces, SolverConfig())


def test_gmres_identity():
    rhs = np.array([3.0, -1.0, 2.0])
    x, info = gmres(lambda v: v, rhs, SolverConfig(tol=1e-12))
    assert info["converged"] and info["iterations"] == 1
    assert np.abs(x - rhs).max() < 1e-12


def test_gmres_diagonal():
    d = np.arange(1.0, 6.0)
    x, info = gmres(lambda v: d * v, np.ones(5), SolverConfig(tol=1e-12))
    assert info["converged"] and info["iterations"] <= 5
    assert np.abs(x - 1.0 / d).max() < 1e-10


def test_gmres_no_convergence():
    d = np.arange(1.0, 101.0)
    cfg = SolverConfig(tol=1e-14, maxiter=3, restart=3)
    x, info = gmres(lambda v: d * v, np.ones(100), cfg)
    assert not info["converged"]
    assert info["iterations"] == 3
    assert len(info["residual_history"]) >= 2


def test_gmres_stagnation_stops():
    """A 90-degree rotation gives a zero Krylov correction at restart 1: the
    first cycle leaves the residual where it was, so the solve stops.  On
    the singular diag(1, 1, 0, 0) with b outside its range, a cycle blows x
    up and raises the true residual: the solve stops and returns the x that
    cycle started from, no worse than x = 0."""
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x, info = gmres(lambda v: rot @ v, np.array([1.0, 0.0]),
                    SolverConfig(restart=1, maxiter=2000))
    assert not info["converged"] and info["reason"] == "stagnation"
    assert info["iterations"] <= 2
    assert np.array_equal(x, np.zeros(2))
    A = np.diag([1.0, 1.0, 0.0, 0.0])
    b = np.array([1.0, 1.0, 1.0, 0.0])
    for restart in (2, 100):
        x, info = gmres(lambda v: A @ v, b, SolverConfig(restart=restart))
        assert info["reason"] == "stagnation"
        assert np.linalg.norm(b - A @ x) <= np.linalg.norm(b)


def _mgs_gmres_iterations(A, b, M, restart, tol, maxiter):
    """Reference restarted GMRES: modified Gram-Schmidt, least squares by
    lstsq, the same preconditioned stopping test.  Returns the count."""
    bnorm = np.linalg.norm(M(b))
    x, it = np.zeros(b.size), 0
    while it < maxiter:
        r = M(b - A @ x)
        beta = np.linalg.norm(r)
        if beta / bnorm <= tol:
            break
        V = np.zeros((restart + 1, b.size))
        H = np.zeros((restart + 1, restart))
        V[0] = r / beta
        for k in range(restart):
            w = M(A @ V[k])
            for i in range(k + 1):
                H[i, k] = V[i] @ w
                w = w - H[i, k] * V[i]
            H[k + 1, k] = np.linalg.norm(w)
            V[k + 1] = w / H[k + 1, k]
            it += 1
            e1 = np.zeros(k + 2)
            e1[0] = beta
            y = np.linalg.lstsq(H[:k + 2, :k + 1], e1, rcond=None)[0]
            if np.linalg.norm(H[:k + 2, :k + 1] @ y - e1) / bnorm <= tol:
                break
        x = x + V[:k + 1].T @ y
    return it


def _grcar(n):
    return np.eye(n) - np.eye(n, k=-1) + sum(np.eye(n, k=j) for j in (1, 2, 3))


def _random_cond(n, cond):
    rng = np.random.default_rng(1)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return U @ np.diag(np.logspace(0, -np.log10(cond), n)) @ V.T


@pytest.mark.parametrize("name,restart", [("grcar", 40), ("cond-1e4", 100)])
def test_gmres_orthogonalization(name, restart):
    """Fixed hard matrices, 100 x 100: Grcar (highly nonnormal; restarted
    GMRES needs hundreds of iterations) and a random matrix of condition
    1e4 (full GMRES needs all 100 steps; one Gram-Schmidt pass loses
    orthogonality there and takes a second cycle).  GMRES reaches tol 1e-12
    in the true preconditioned residual, in the iterations MGS needs.  The
    preconditioner M is folded into the operator and the right-hand side."""
    n, tol = 100, 1e-12
    G = _grcar(n) if name == "grcar" else _random_cond(n, 1e4)
    d = np.linspace(1.0, 4.0, n)
    M = lambda v: v / d
    b = np.random.default_rng(0).standard_normal(n)
    cfg = SolverConfig(tol=tol, restart=restart, maxiter=2000)
    x, info = gmres(lambda v: M(G @ v), M(b), cfg)
    assert info["converged"]
    assert np.linalg.norm(M(b - G @ x)) <= 10 * tol * np.linalg.norm(M(b))
    ref = _mgs_gmres_iterations(G, b, M, restart, tol, cfg.maxiter)
    assert abs(info["iterations"] - ref) <= 1
    assert info["iterations"] >= n  # neither case is easy


def _numpy_givens_gmres(apply_op, rhs, config):
    """gmres with the Givens rotations on numpy scalars indexed in H and V,
    H, cs, sn and g allocated per restart cycle: the arithmetic that gmres
    must reproduce bit for bit."""
    n = rhs.size
    x = np.zeros(n)
    history = []
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual_history": [0.0], "converged": True,
                   "reason": "converged"}
    it = 0
    converged = stagnated = breakdown = False
    beta_start = np.inf
    while it < config.maxiter and not converged:
        r = rhs - apply_op(x)
        beta = float(np.linalg.norm(r))
        if not history:
            history.append(beta)
        if beta / bnorm <= config.tol:
            converged = True
            break
        if beta >= beta_start:
            stagnated = True
            break
        beta_start = beta
        V = np.zeros((config.restart + 1, n))
        H = np.zeros((config.restart + 1, config.restart))
        cs = np.zeros(config.restart)
        sn = np.zeros(config.restart)
        g = np.zeros(config.restart + 1)
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        breakdown = False
        for k in range(config.restart):
            wv = np.array(apply_op(V[k]), dtype=float)
            Vk = V[:k + 1]
            h = Vk @ wv
            wv -= h @ Vk
            h2 = Vk @ wv
            wv -= h2 @ Vk
            H[:k + 1, k] = h + h2
            H[k + 1, k] = float(np.linalg.norm(wv))
            if H[k + 1, k] > 1e-300:
                V[k + 1] = wv / H[k + 1, k]
            else:
                breakdown = True
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            denom = float(np.hypot(H[k, k], H[k + 1, k]))
            if denom == 0.0:
                k_used = k + 1
                breakdown = True
                break
            cs[k], sn[k] = H[k, k] / denom, H[k + 1, k] / denom
            H[k, k] = denom
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            it += 1
            res = abs(g[k + 1])
            history.append(res)
            k_used = k + 1
            if res / bnorm <= config.tol:
                converged = True
                break
            if breakdown or it >= config.maxiter:
                break
        if k_used > 0:
            y = sla.solve_triangular(H[:k_used, :k_used], g[:k_used])
            x = x + V[:k_used].T @ y
        if breakdown and not converged:
            break
    if not converged and not stagnated:
        r = rhs - apply_op(x)
        converged = float(np.linalg.norm(r)) / bnorm <= config.tol
    return x, {"iterations": it, "residual_history": history, "converged": converged}


def _gmres_case(name):
    """(operator, rhs, config), each preconditioned by folding M in: the
    matrices of test_gmres_orthogonalization, or the (8,1,2) mb trace
    system under its face-block preconditioner P."""
    if name == "8-1-2-mb":
        _, sys = build_system(8, 1, 2, case=make_benchmark("tanh", 0.4, (1.0, 1.0)))
        S = assemble_schur_explicit(sys)
        def P(v):
            return (sys.P_blocks @ v.reshape(-1, sys.nd, 1)).ravel()
        return lambda v: P(S @ v), P(sys.f_vec), SolverConfig(tol=1e-10)
    n = 100
    G = _grcar(n) if name == "grcar" else _random_cond(n, 1e4)
    d = np.linspace(1.0, 4.0, n)
    return (lambda v: (G @ v) / d, np.random.default_rng(0).standard_normal(n) / d,
            SolverConfig(tol=1e-12, restart=40 if name == "grcar" else 100, maxiter=2000))


@pytest.mark.parametrize("name", ["grcar", "cond-1e4", "8-1-2-mb"])
def test_gmres_matches_numpy_givens_reference(name):
    """x, the iteration count and the residual history are bitwise those of
    the rotations on numpy scalars."""
    op, b, cfg = _gmres_case(name)
    x, info = gmres(op, b, cfg)
    x_ref, ref = _numpy_givens_gmres(op, b, cfg)
    assert np.array_equal(x, x_ref)
    assert info["iterations"] == ref["iterations"] > 50
    assert info["residual_history"] == ref["residual_history"]
    assert info["converged"] and ref["converged"]


def test_gmres_basis_sized_by_the_trace_not_by_restart(monkeypatch):
    """A restart length above the trace size changes nothing: the Krylov
    space has at most n dimensions, so the basis and H are sized by
    min(restart, n).  On the (4, 1, 1) mesh (80 trace dofs, 45 iterations)
    restart 2000 gives restart 100's uhat bitwise, and gmres allocates
    under 4 MiB at its peak (an H of 2001 x 2000 floats takes 32 MB)."""
    import tracemalloc

    from mehdg import schur_solver

    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return gmres(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(schur_solver, "gmres", traced)
    mesh = build_structured_macro_mesh(2, 4, 1)
    problem = make_benchmark("tanh", 1.0, (1.0, 2.0)).problem()
    uhat = {}
    for restart in (100, 2000):
        sol, _ = solve(mesh, problem, NO_STAB,
                       SolverConfig(mode="mb", tol=1e-10, restart=restart), 1)
        assert sol.report.converged and sol.report.iterations == 45
        assert sol.report.dof_global == 80
        uhat[restart] = sol.uhat
    assert np.array_equal(uhat[100], uhat[2000])
    assert len(peaks) == 2 and max(peaks) < 4 * 2**20


def test_gmres_first_cycle_skips_the_operator(monkeypatch):
    """GMRES starts at x = 0, where the residual is the right-hand side,
    and does not apply the operator there: on (8,1,2) mb it runs once per
    iteration and once more for the true residual that confirms
    convergence, never on a zero vector."""
    from mehdg import schur_solver

    calls = []

    def counted(apply_op, rhs, config):
        def op(v):
            calls.append(not v.any())
            return apply_op(v)
        return gmres(op, rhs, config)

    monkeypatch.setattr(schur_solver, "gmres", counted)
    solution, _ = solve(build_structured_macro_mesh(2, 8, 1),
                        make_benchmark("tanh", 0.4, (1.0, 1.0)).problem(), NO_STAB,
                        SolverConfig(tol=1e-10, mode="mb"), 2)
    assert solution.report.converged and solution.report.coarse_dofs > 0
    assert solution.report.iterations == 19
    assert len(calls) == 19 + 1 and not any(calls)


def test_gmres_zero_rhs():
    x, info = gmres(lambda v: 2 * v, np.zeros(4), SolverConfig())
    assert info["converged"] and np.abs(x).max() == 0.0


def test_gmres_confirms_convergence_by_true_residual():
    """b outside the range of the singular diag(1, 1, 0, 0): the Hessenberg
    matrix of the first cycle is singular to rounding, so its residual
    estimate reaches tol while x blows up.  The solve does not report
    convergence: the x it returns is not within tol."""
    A = np.diag([1.0, 1.0, 0.0, 0.0])
    b = np.array([1.0, 1.0, 1.0, 0.0])
    config = SolverConfig(tol=1e-10)
    x, info = gmres(lambda v: A @ v, b, config)
    assert min(info["residual_history"]) <= config.tol * np.linalg.norm(b)
    assert not info["converged"] and info["reason"] != "converged"
    assert np.linalg.norm(b - A @ x) > config.tol * np.linalg.norm(b)


def test_gmres_zero_operator_breaks_down():
    """A zero operator gives a zero diagonal in H at the first step: the
    solve stops as a breakdown, with x = 0, instead of raising from the
    triangular solve."""
    x, info = gmres(lambda v: 0.0 * v, np.ones(4), SolverConfig())
    assert not info["converged"] and info["reason"] == "breakdown"
    assert info["iterations"] == 0 and np.array_equal(x, np.zeros(4))


def test_explicit_schur_vs_dense_elimination():
    """The explicit S equals the Schur complement of the full uncondensed
    system assembled macro by macro; each class here has four macros."""
    p = 1
    mesh, sys = build_system(2, 2, p)
    assert [cls.macro_ids.size for cls in sys.classes] == [4, 4]
    S = assemble_schur_explicit(sys).toarray()
    # dense block-elimination oracle over the full uncondensed system
    ops = list(per_macro_oracle(mesh, sys, p))
    nloc = [op.R_u.size for op, _, _ in ops]
    ntot = sum(nloc) + sys.zhat
    K = np.zeros((ntot, ntot))
    off = np.concatenate([[0], np.cumsum(nloc)])
    zoff = off[-1]
    for e, (op, mask, gi) in enumerate(ops):
        K[off[e]:off[e + 1], off[e]:off[e + 1]] = np.asarray(op.A)
        K[off[e]:off[e + 1], zoff + gi] = op.B[:, mask]
        K[zoff + gi, off[e]:off[e + 1]] = op.C[mask]
    K[zoff:, zoff:] += dense_D(mesh, sys, p)
    Auu = K[:zoff, :zoff]
    S_oracle = K[zoff:, zoff:] - K[zoff:, :zoff] @ np.linalg.solve(Auu, K[:zoff, zoff:])
    assert np.abs(S - S_oracle).max() < 1e-11 * np.abs(S_oracle).max()


def test_explicit_schur_adjacency():
    mesh, sys = build_system(3, 1, 1)
    S = assemble_schur_explicit(sys).toarray()
    # face id -> set of adjacent macros
    adj = {fid: {s.macro for s in face_sides(mesh, fid)} for fid, _ in unknown_faces(sys)}
    owner = np.empty(sys.zhat, dtype=int)
    for fid, start in unknown_faces(sys):
        owner[start:start + sys.nd] = fid
    nz = np.argwhere(np.abs(S) > 1e-14)
    for i, j in nz:
        assert adj[owner[i]] & adj[owner[j]], "coupling between unrelated faces"


def test_explicit_schur_symmetry():
    case = poly_case(2, a=(0.0, 0.0))
    _, sys = build_system(2, 2, 2, case=case)
    S = assemble_schur_explicit(sys).toarray()
    assert np.abs(S - S.T).max() < 1e-10 * np.abs(S).max()


def test_reconstruct_zero():
    zero_case = poly_case(1)
    zero_case = type(zero_case)(
        name="zero", kappa=1.0, a=zero_case.a,
        u_exact=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        grad_u=lambda x: np.zeros((np.atleast_2d(x).shape[0], 2)),
        f=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
    )
    _, sys = build_system(2, 2, 2, case=zero_case)
    out = reconstruct_interior(sys, np.zeros(sys.zhat))
    assert max(np.abs(v).max() for v in out) < 1e-14


def test_reconstruct_patch_test_nodal_values():
    case = poly_case(1, a=(0.0, 0.0))
    mesh, solution, _, _ = _solve_case(case, 2, 2, 2)
    for e, nodes in enumerate(macro_nodes(mesh, 2)):
        assert np.abs(solution.u[e] - case.u_exact(nodes)).max() < 1e-9


def _solve_case(case, n, m, p, **kw):
    mesh = build_structured_macro_mesh(2, n, m)
    config = SolverConfig(tol=kw.pop("tol", 1e-12), mode=kw.pop("mode", "mb"),
                          workers=kw.pop("workers", 1), **kw)
    solution, sys = solve(mesh, case.problem(), NO_STAB, config, p)
    return mesh, solution, sys, config


def test_full_system_residual():
    case = poly_case(3, kappa=0.4)
    tol = 1e-8
    mesh = build_structured_macro_mesh(2, 2, 2)
    config = SolverConfig(tol=tol, mode="mf")
    solution, sys = solve(mesh, case.problem(), NO_STAB, config, 2)
    rhs_norm = max(np.linalg.norm(sys.f_vec), 1e-300)
    # trace-equation residual of the condensed system
    res = apply_schur(sys, solution.uhat) - sys.f_vec
    assert np.linalg.norm(res) <= 10 * tol * rhs_norm
    # each macro's own local equations hold for the reconstruction
    for e, (op, mask, gi) in enumerate(per_macro_oracle(mesh, sys, 2, case.problem())):
        lr = (np.asarray(op.A) @ solution.local[e] + op.B[:, mask] @ solution.uhat[gi]
              - op.R_u)
        assert np.abs(lr).max() < 1e-9 * max(1.0, np.abs(op.R_u).max())


def test_determinism_across_workers():
    case = poly_case(2)
    ref = None
    for workers in (1, 2, 8):
        _, solution, _, _ = _solve_case(case, 2, 2, 2, workers=workers, tol=1e-10)
        if ref is None:
            ref = solution.uhat
        else:
            assert np.array_equal(ref, solution.uhat)


def test_preconditioner_soundness():
    """On the advection-dominated benchmark the preconditioned solve needs
    no more iterations than GMRES on the explicit S."""
    case = make_benchmark("tanh", 1e-5, (1.0, 1.0))
    for p in (1, 2, 3):
        for m in (1, 2):
            mesh = build_structured_macro_mesh(2, 8 // m, m)
            cfg = SolverConfig(tol=1e-6, mode="mb")
            sol, sys = solve(mesh, case.problem(), NO_STAB, cfg, p)
            S = assemble_schur_explicit(sys)
            _, info = gmres(lambda v: S @ v, sys.f_vec, cfg)
            assert sol.report.iterations <= info["iterations"]


def test_linearity_scaling():
    case = poly_case(2, kappa=0.8)
    scaled = type(case)(
        name="scaled", kappa=case.kappa, a=case.a,
        u_exact=lambda x: 3.0 * case.u_exact(x),
        grad_u=lambda x: 3.0 * case.grad_u(x),
        f=lambda x: 3.0 * case.f(x),
    )
    _, s1, _, _ = _solve_case(case, 2, 2, 2)
    _, s3, _, _ = _solve_case(scaled, 2, 2, 2)
    assert np.abs(s3.uhat - 3.0 * s1.uhat).max() < 1e-12 * max(
        1.0, np.abs(s3.uhat).max())
    for e in range(len(s1.local)):
        assert np.abs(s3.local[e] - 3.0 * s1.local[e]).max() < 1e-11 * max(
            1.0, np.abs(s3.local[e]).max())


def test_solve_report_record(monkeypatch):
    _, solution, _, _ = _solve_case(poly_case(2), 2, 2, 2)
    rec = solution.report.to_record()
    for key in ("p", "m", "n", "dof_local", "dof_global", "iterations",
                "converged", "tol", "mode", "n_classes",
                "t_assemble_s", "t_init_s", "t_local_s", "t_global_s",
                "t_schur_s", "t_reconstruct_s", "coarse_dofs", "t_coarse_s", "lbf"):
        assert key in rec
    assert rec["coarse_dofs"] == 0 and rec["t_coarse_s"] == 0.0  # 40 trace dofs: too small
    assert rec["converged"] is True
    assert rec["t_schur_s"] > 0.0  # mode mb builds S
    assert rec["t_local_s"] == 0.0  # and applies no matrix-free operator
    assert rec["t_reconstruct_s"] == solution.report.t_reconstruct_s > 0.0
    assert rec["t_assemble_s"] == solution.report.t_assemble_s > 0.0
    assert rec["n_classes"] == 2  # a uniform mesh: one class per diagonal
    assert 0.0 < rec["lbf"] <= 1.0
    assert rec["dof_local"] == sum(
        3 * ((2 * m_p + 2) * (2 * m_p + 1) // 2) for m_p in [2] * 8)
    _, solution, _, _ = _solve_case(poly_case(2), 2, 2, 2, mode="mf")
    rec = solution.report.to_record()
    assert rec["t_schur_s"] == 0.0  # mode mf builds no S
    assert rec["t_local_s"] > 0.0  # its applies are timed on their own
    # a mesh with 528 trace dofs at mesh Peclet number 0.31 gets the coarse
    # space: (8 + 1)^2 vertices less the two corners that no unknown face
    # touches
    _, solution, _, _ = _solve_case(make_benchmark("tanh", 0.4, (1.0, 1.0)), 8, 1, 2, tol=1e-10)
    rec = solution.report.to_record()
    assert rec["coarse_dofs"] == 79 and rec["t_coarse_s"] > 0.0
    # in mf under the coarse space, the right-hand side's correction applies
    # the operator once before GMRES: that apply, here slowed to 0.2 s, is
    # set-up (t_init_s), not one of the applies inside GMRES (t_local_s), so
    # t_global_s, GMRES wall time less t_local_s, stays positive
    from mehdg import schur_solver

    real, calls = schur_solver._apply_cab, []

    def first_apply_slow(sys, uhat):
        calls.append(len(calls))
        if len(calls) == 1:
            time.sleep(0.2)
        return real(sys, uhat)

    monkeypatch.setattr(schur_solver, "_apply_cab", first_apply_slow)
    _, solution, _, _ = _solve_case(make_benchmark("tanh", 0.4, (1.0, 1.0)), 8, 1, 2,
                                    tol=1e-10, mode="mf")
    rec = solution.report.to_record()
    assert rec["coarse_dofs"] == 79 and rec["converged"] is True
    # one apply for the right-hand side, two per GMRES operator call: one per
    # iteration and one for the true residual that confirms convergence
    assert len(calls) == 1 + 2 * (rec["iterations"] + 1)
    assert rec["t_init_s"] >= 0.2 and 0.0 < rec["t_local_s"] < 0.2
    assert rec["t_global_s"] > 0.0


def test_worker_pool_static_partition():
    """Every call runs each partition once, starting one partition later
    than the call before; the partition of the work itself is the
    caller's (for the apply, _apply_partitions)."""
    pool = WorkerPool(3)
    seen = []
    pool.run(seen.append)
    assert seen == [0, 1, 2]
    pool.run(seen.append)
    pool.run(seen.append)
    assert seen[3:] == [1, 2, 0, 2, 0, 1]  # each call starts one partition later
    assert pool.busy.shape == (3,)
    assert 0.0 < pool.lbf <= 1.0


def test_worker_pool_leaves_first_call_out_of_lbf():
    """A pool's first call, a solve's first apply, refills the caches that
    the set-up evicted on whichever partition runs first; WorkerPool runs it
    but keeps its time out of `busy`, so a cost that only the first call
    pays on one partition does not lower the LBF."""

    def spin(seconds):
        t0 = time.thread_time()
        while time.thread_time() - t0 < seconds:
            pass

    cold = [True]

    def task(w):
        if cold[0] and w == 0:
            cold[0] = False
            spin(0.05)  # 12.5 times a partition's work, on partition 0 alone
        spin(0.004)

    pool = WorkerPool(4)
    assert pool.run(task) is None
    assert not cold[0] and pool.calls == 1 and not pool.busy.any()
    for _ in range(3):
        pool.run(task)
    assert (pool.busy >= 3 * 0.004).all()
    assert pool.lbf >= 0.8


def test_worker_pool_runs_on_calling_thread():
    out = []
    WorkerPool(4).run(lambda _: out.append(threading.get_ident()))
    assert out == [threading.get_ident()] * 4
