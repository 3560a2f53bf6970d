"""Gradient-based error indication, bulk marking and the adapt loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fem_basis import patch_dof_map, reference_tables
from .mesh import MacroMesh, refine_macros, sub_cell_jacobians
from .schur_solver import SolverConfig, solve


@dataclass
class IndicatorField:
    eta: np.ndarray  # one nonnegative value per macro

    @property
    def total(self) -> float:
        return float(np.sqrt(np.sum(self.eta**2)))


def error_indicator(mesh: MacroMesh, p: int, solution) -> IndicatorField:
    """eta_K = h_K * ||grad u_h||_{L2(K)} per macro K.  Per sub-cell kind,
    the reference gradients of u_h at the points of all (macro, cell) rows
    are one GEMM; their weighted second moments per macro, through the
    macro's 2x2 metric J^-1 J^-T, give |grad u_h|^2 integrated."""
    rule, _, gref, _ = reference_tables(p, max(2 * p - 2, 1))
    nq, nb = gref.shape[:2]
    cell_maps = patch_dof_map(mesh.m, p).cell_maps
    n = len(mesh.verts)
    # (nb, 2 nq): d/dxi of the basis at every point, then d/deta
    gflat = gref.transpose(1, 2, 0).reshape(nb, 2 * nq)
    acc = np.zeros(n)
    for q in sub_cell_jacobians(mesh.jacobians, mesh.m).values():
        g = (solution.u[:, cell_maps[q.cells]].reshape(-1, nb) @ gflat).reshape(n, -1, 2, nq)
        w = np.tile(rule.weights, g.shape[1])
        gx, gy = g[:, :, 0].reshape(n, -1), g[:, :, 1].reshape(n, -1)
        metric = q.jinv @ q.jinv.swapaxes(1, 2)
        acc += q.det * (metric[:, 0, 0] * (gx * gx @ w) + 2.0 * metric[:, 0, 1] * (gx * gy @ w)
                        + metric[:, 1, 1] * (gy * gy @ w))
    return IndicatorField(eta=mesh.diameter * np.sqrt(acc))


def mark(indicator: IndicatorField, theta: float) -> set:
    """Doerfler bulk marking: smallest set with sum eta^2 >= theta^2 * total^2,
    ties broken by macro id."""
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    eta2 = indicator.eta**2
    target = theta**2 * float(eta2.sum())
    if target == 0.0:
        return set()
    order = np.argsort(-eta2, kind="stable")  # ties by macro id
    # the shortest prefix whose running sum reaches the target, without a
    # zero eta: the running sums never decrease
    k = np.searchsorted(np.cumsum(eta2[order]), target * (1.0 - 1e-12)) + 1
    return set(order[:min(k, np.count_nonzero(eta2))].tolist())


@dataclass
class AdaptState:
    mesh: MacroMesh
    level: int
    history: list = field(default_factory=list)


def adapt(
    mesh: MacroMesh,
    problem,
    stab,
    config: SolverConfig,
    p: int,
    levels: int,
    theta: float = 0.5,
    error_fn: Optional[Callable] = None,
) -> AdaptState:
    """Loop solve -> indicate -> mark -> refine for `levels` steps.

    error_fn(mesh, solution) may supply an L2 error against a known exact
    solution; otherwise NaN is recorded."""
    if levels < 0:
        raise ValueError("levels must be at least 0")
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    state = AdaptState(mesh=mesh, level=0)
    for lvl in range(levels + 1):
        solution, _ = solve(mesh, problem, stab, config, p)
        ind = error_indicator(mesh, p, solution)
        err = float(error_fn(mesh, solution)) if error_fn is not None else float("nan")
        state.history.append(
            {
                "level": lvl,
                "n_macros": len(mesh.verts),
                "dof_local": solution.report.dof_local,
                "dof_global": solution.report.dof_global,
                "l2_error": err,
                "eta_total": ind.total,
            }
        )
        state.mesh = mesh
        state.level = lvl
        if lvl == levels:
            break
        mesh = refine_macros(mesh, mark(ind, theta))
    return state
