"""Macro-element hybridized DG solver for steady linear advection-diffusion."""

from .adaptivity import AdaptState, IndicatorField, adapt, error_indicator, mark
from .assembly import (
    FaceBlocks,
    LocalOperators,
    ProblemData,
    StabilizationConfig,
    assemble_classes,
    assemble_macro,
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
    build_patch_dof_map,
    face_trace_map,
    patch_dof_count,
    quadrature_rule,
)
from .mesh import (
    MacroElement,
    MacroMesh,
    SkeletonFace,
    build_structured_macro_mesh,
    export_text,
    refine_macros,
    reference_to_physical,
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
