"""Closed-form complexity and memory model for the macro-element scheme.

Counts are leading-order terms, not cycle-accurate measurements.  The block
naming follows the solver layout [A B; C D]; some treatments label the
off-diagonal blocks [A B^T; B C] instead — same objects, different letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial


_AB = {2: (1, 1), 3: (6, 2)}  # face-count constants (A_d, B_d)


@dataclass
class CostInputs:
    d: int
    n: int
    m: int
    p: int
    arithmetic: str = "dense"  # 'dense' | 'sparse'

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError("d must be 2 or 3")
        if min(self.n, self.m, self.p) < 1:
            raise ValueError("n, m, p must be >= 1")
        if self.arithmetic not in ("dense", "sparse"):
            raise ValueError(f"unknown arithmetic mode {self.arithmetic!r}")


@dataclass
class CostReport:
    N: int
    M_d: int
    Q_d: int
    Q_dm1: int
    D_faces: int
    sparsity: float


def dependent_quantities(inputs: CostInputs) -> CostReport:
    d, n, m, p = inputs.d, inputs.n, inputs.m, inputs.p
    A_d, B_d = _AB[d]
    N = factorial(d) * n**d
    M_d = m**d
    Q_d = comb(m * p + d, d)
    Q_dm1 = comb(m * p + d - 1, d - 1)
    D_faces = A_d * n**d + B_d * d * n ** (d - 1) * (n - 1)
    sparsity = _sparsity(d, m, p, inputs.arithmetic)
    return CostReport(
        N=N, M_d=M_d, Q_d=Q_d, Q_dm1=Q_dm1, D_faces=D_faces, sparsity=sparsity,
    )


def _sparsity(d: int, m: int, p: int, arithmetic: str) -> float:
    if arithmetic == "dense":
        return 1.0
    return min(1.0, (2 * p + 1) ** d / comb(m * p + d, d))


def operation_counts(d: int, n_bar: int, m_bar: int, p: int) -> dict:
    """Leading-order operation counts, macro-element scheme vs the m=1 scheme
    on the equivalent mesh (n = m_bar * n_bar)."""
    if d not in (2, 3):
        raise ValueError("d must be 2 or 3")
    me = {
        "init": n_bar**d * (m_bar * p + d) ** (3 * d),
        "step1": n_bar**d * (m_bar * p + d) ** (2 * d - 1),
        "step2": n_bar**d * (m_bar * p + d) ** (2 * d),
        "step3": n_bar**d * (m_bar * p + d) ** (2 * d - 1),
        "step4": n_bar**d * (m_bar * p + d - 1) ** (2 * d - 2),
    }
    hd = {
        "init": m_bar**d * n_bar**d * (p + d) ** (3 * d),
        "step1": m_bar**d * n_bar**d * (p + d) ** (2 * d - 1),
        "step2": m_bar**d * n_bar**d * (p + d) ** (2 * d),
        "step3": m_bar**d * n_bar**d * (p + d) ** (2 * d - 1),
        # face step: squared face-dof count, base (p + d - 1) as in the
        # macro column so that m_bar = 1 degenerates to the same numbers
        "step4": m_bar**d * n_bar**d * (p + d - 1) ** (2 * d - 2),
    }
    return {"mehdg": me, "hdg": hd}


def memory_estimate(inputs: CostInputs) -> dict:
    """Double-precision byte estimates for the stored blocks."""
    d, m, p = inputs.d, inputs.m, inputs.p
    rep = dependent_quantities(inputs)
    s = rep.sparsity
    s_dm1 = 1.0 if inputs.arithmetic == "dense" else min(
        1.0, (2 * p + 1) ** (d - 1) / rep.Q_dm1
    )
    A_block = s * rep.Q_d**2 * 8
    BC_block = s * (d + 1) * rep.Q_dm1 * rep.Q_d * 8
    D_block = s_dm1 * rep.Q_dm1**2 * 8
    return {
        "A_block": A_block,
        "BC_block": BC_block,
        "D_block": D_block,
        "total": rep.N * (A_block + BC_block) + rep.D_faces * D_block,
    }

