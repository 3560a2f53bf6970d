"""Gradient-based error indication, bulk marking and the adapt loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fem_basis import _patch_dof_map, reference_tables
from .mesh import MacroMesh, refine_macros, sub_cell_jacobians
from .schur_solver import SolverConfig, solve


@dataclass
class IndicatorField:
    eta: np.ndarray  # one nonnegative value per macro

    @property
    def total(self) -> float:
        return float(np.sqrt(np.sum(self.eta**2)))


def error_indicator(mesh: MacroMesh, p: int, solution) -> IndicatorField:
    """eta_K = h_K * ||grad u_h||_{L2(K)} per macro K, one gradient einsum
    per sub-cell kind over all macros."""
    rule, _, gref, _ = reference_tables(p, max(2 * p - 2, 1))
    cell_maps = _patch_dof_map(mesh.m, p).cell_maps
    acc = np.zeros(len(mesh.verts))
    for q in sub_cell_jacobians(mesh.jacobians, mesh.m).values():
        grad = np.einsum("ncb,qbj,njk->ncqk", solution.u[:, cell_maps[q.cells]],
                         gref, q.jinv, optimize=True)
        acc += np.einsum("ncqk,q->n", grad**2, rule.weights) * q.det
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
    order = sorted(range(eta2.size), key=lambda e: (-eta2[e], e))
    marked = set()
    acc = 0.0
    for e in order:
        if eta2[e] == 0.0:
            break
        marked.add(e)
        acc += float(eta2[e])
        if acc >= target * (1.0 - 1e-12):
            break
    return marked


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
