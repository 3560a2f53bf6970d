"""Closed-form complexity and memory model, plus measured-vs-model checks."""

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import assemble_one, poly_case

from mehdg.assembly import StabilizationConfig
from mehdg.costmodel import (
    CostInputs,
    dependent_quantities,
    memory_estimate,
    operation_counts,
)
from mehdg.mesh import build_structured_macro_mesh


def test_input_validation():
    with pytest.raises(ValueError):
        CostInputs(d=4, n=1, m=1, p=1)
    with pytest.raises(ValueError):
        CostInputs(d=2, n=0, m=1, p=1)
    with pytest.raises(ValueError):
        CostInputs(d=2, n=1, m=1, p=1, arithmetic="banded")


def test_dependent_quantities_examples():
    rep = dependent_quantities(CostInputs(d=2, n=2, m=1, p=1))
    assert rep.N == 8
    assert rep.Q_d == 3
    assert rep.D_faces == 8
    assert rep.sparsity == 1.0

    rep = dependent_quantities(CostInputs(d=3, n=1, m=2, p=2))
    assert rep.N == 6
    assert rep.Q_d == 35
    assert rep.D_faces == 6

    rep = dependent_quantities(CostInputs(d=2, n=1, m=4, p=2, arithmetic="sparse"))
    assert rep.sparsity == pytest.approx(25.0 / 45.0)


def test_sparsity_clamped():
    rep = dependent_quantities(CostInputs(d=2, n=1, m=1, p=2, arithmetic="sparse"))
    assert rep.sparsity == 1.0  # raw ratio 25/6 clamps to 1


def test_face_count_matches_mesh():
    for n in (1, 2, 3, 4):
        rep = dependent_quantities(CostInputs(d=2, n=n, m=1, p=1))
        mesh = build_structured_macro_mesh(2, n, 1)
        assert rep.D_faces == (mesh.face_tag == "interior").sum()
        assert rep.N == len(mesh.verts)


def test_operation_count_examples():
    counts = operation_counts(2, 2, 2, 1)
    assert counts["mehdg"]["init"] == 4 * 4**6 == 16384
    assert counts["hdg"]["init"] == 16 * 3**6 == 11664

    counts = operation_counts(2, 1, 4, 2)
    assert counts["mehdg"]["step2"] == 10**4 == 10000
    assert counts["hdg"]["step2"] == 16 * 4**4 == 4096

    # m = 1 degenerates to the standard scheme for every row
    counts = operation_counts(2, 3, 1, 2)
    assert counts["mehdg"] == counts["hdg"]
    counts = operation_counts(3, 2, 1, 3)
    assert counts["mehdg"] == counts["hdg"]


def test_operation_count_formula_rows():
    assert operation_counts(2, 2, 2, 2)["mehdg"]["init"] == 4 * 6**6
    for d, nb, mb, p in ((2, 2, 2, 1), (2, 2, 2, 2), (2, 3, 4, 2), (3, 1, 2, 3)):
        me = operation_counts(d, nb, mb, p)["mehdg"]
        base = mb * p + d
        assert me["init"] == nb**d * base ** (3 * d)
        assert me["step1"] == me["step3"] == nb**d * base ** (2 * d - 1)
        assert me["step2"] == nb**d * base ** (2 * d)
        assert me["step4"] == nb**d * (base - 1) ** (2 * d - 2)


def test_memory_examples():
    mem = memory_estimate(CostInputs(d=2, n=1, m=1, p=1))
    assert mem["A_block"] == 9 * 8 == 72

    mem = memory_estimate(CostInputs(d=2, n=1, m=2, p=2))
    assert mem["A_block"] == 15**2 * 8 == 1800

    mem = memory_estimate(CostInputs(d=2, n=1, m=4, p=2, arithmetic="sparse"))
    assert mem["A_block"] == pytest.approx((25.0 / 45.0) * 45**2 * 8) == 9000


def test_memory_totals_structure():
    inputs = CostInputs(d=2, n=2, m=2, p=2)
    rep = dependent_quantities(inputs)
    mem = memory_estimate(inputs)
    assert mem["BC_block"] == rep.sparsity * 3 * rep.Q_dm1 * rep.Q_d * 8
    assert mem["D_block"] == rep.Q_dm1**2 * 8
    assert mem["total"] == rep.N * (mem["A_block"] + mem["BC_block"]) + \
        rep.D_faces * mem["D_block"]


@pytest.mark.parametrize("m,p", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_measured_dense_a_block_bytes(m, p):
    """The stored dense A block is (d+1) x (d+1) scalar blocks of the model
    size each."""
    mesh = build_structured_macro_mesh(2, 2, m)
    case = poly_case(1)
    op = assemble_one(mesh, 0, p, case.problem(), StabilizationConfig())
    model = memory_estimate(CostInputs(d=2, n=2, m=m, p=p))["A_block"]
    assert op.A.nbytes == 9 * model  # (d+1)^2 scalar blocks


@pytest.mark.parametrize("m,p", [(8, 1), (8, 2)])
def test_measured_sparse_fill_below_model(m, p):
    """Sparsity constant is an upper estimate of the measured fill."""
    mesh = build_structured_macro_mesh(2, 1, m)
    case = poly_case(1)
    op = assemble_one(mesh, 0, p, case.problem(), StabilizationConfig())
    assert sp.issparse(op.A)
    rep = dependent_quantities(CostInputs(d=2, n=1, m=m, p=p, arithmetic="sparse"))
    measured = op.A.nnz / (3 * rep.Q_d) ** 2
    assert measured <= rep.sparsity + 1e-12


def test_global_dofs_match_counting_formula():
    from mehdg.schur_solver import SolverConfig, assemble_system, condense

    case = poly_case(2)
    p = 2
    for n, m in ((4, 1), (2, 2)):
        mesh = build_structured_macro_mesh(2, n, m)
        classes, faces = assemble_system(
            mesh, case.problem(), StabilizationConfig(), p)
        sys = condense(mesh, classes, faces, SolverConfig())
        rep = dependent_quantities(CostInputs(d=2, n=n, m=m, p=p))
        # all-Dirichlet boundary: unknown faces are exactly the interior ones
        assert sys.zhat == rep.D_faces * (m * p + 1)

