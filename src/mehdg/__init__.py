"""Macro-element hybridized DG solver for steady linear advection-diffusion."""

from .adaptivity import AdaptState, IndicatorField, adapt, error_indicator, mark
from .assembly import (
    FaceBlocks,
    LocalOperators,
    ProblemData,
    StabilizationConfig,
    assemble_classes,
    project_dirichlet,
    stabilization_tau,
    supg_parameter,
)
from .bench import (
    BenchmarkCase,
    l2_error,
    make_benchmark,
    run_adapt,
    run_compare,
    run_convergence,
    run_cost,
)
from .costmodel import (
    CostInputs,
    CostReport,
    dependent_quantities,
    memory_estimate,
    operation_counts,
)
from .fem_basis import (
    LagrangeBasis,
    PatchDofMap,
    QuadratureRule,
    TraceBasis,
    patch_dof_count,
    patch_dof_map,
    quadrature_rule,
)
from .mesh import (
    MacroMesh,
    build_structured_macro_mesh,
    export_text,
    refine_macros,
)
from .schur_solver import (
    CondensedSystem,
    Solution,
    SolveReport,
    SolverConfig,
    apply_schur,
    assemble_schur_explicit,
    condense,
    gmres,
    reconstruct_interior,
    solve,
)

__version__ = "0.1.0"
