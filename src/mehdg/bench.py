"""Benchmark problems, error measurement and study drivers (CSV output)."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .adaptivity import adapt
from .assembly import ProblemData, StabilizationConfig
from .costmodel import CostInputs, dependent_quantities, memory_estimate, operation_counts
from .fem_basis import build_patch_dof_map, reference_tables
from .mesh import MacroMesh, build_structured_macro_mesh
from .schur_solver import SolverConfig, solve


@dataclass
class BenchmarkCase:
    name: str
    kappa: float
    a: np.ndarray
    u_exact: Callable
    grad_u: Callable
    f: Callable

    @property
    def peclet(self) -> float:
        return float(np.linalg.norm(self.a)) * 1.0 / self.kappa  # L = 1

    def problem(self) -> ProblemData:
        return ProblemData(a=self.a, kappa=self.kappa, f=self.f, g_D=self.u_exact)


def _sech2(z: np.ndarray) -> np.ndarray:
    zc = np.clip(z, -350.0, 350.0)
    return 1.0 / np.cosh(zc) ** 2


def make_benchmark(name: str, kappa: float, a) -> BenchmarkCase:
    """Manufactured benchmark cases on the unit square."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    a = np.asarray(a, dtype=float)
    ax, ay = float(a[0]), float(a[1])

    if name == "tanh":
        k = kappa

        def u_exact(x):
            x = np.atleast_2d(x)
            return 0.5 * (1.0 + np.tanh((x[:, 1] - 2.0 * x[:, 0] + 0.4) / k))

        def grad_u(x):
            x = np.atleast_2d(x)
            z = (x[:, 1] - 2.0 * x[:, 0] + 0.4) / k
            s2 = 0.5 * _sech2(z) / k
            return np.column_stack((-2.0 * s2, s2))

        def f(x):
            x = np.atleast_2d(x)
            z = (x[:, 1] - 2.0 * x[:, 0] + 0.4) / k
            s2 = _sech2(z)
            adv = 0.5 * s2 * (ay - 2.0 * ax) / k
            lap = -5.0 * s2 * np.tanh(z) / k**2
            return adv - k * lap

        case = BenchmarkCase(name, kappa, a, u_exact, grad_u, f)
        # when a is parallel to the layer direction (1, 2) the advective term
        # drops out and f is independent of a
        if abs(ax * 2.0 - ay) < 1e-14 and (ax != 0 or ay != 0):
            pts = np.random.default_rng(0).random((20, 2))
            adv = np.einsum("c,qc->q", a, case.grad_u(pts))
            scale = np.linalg.norm(a) * np.abs(case.grad_u(pts)).max() + 1e-30
            assert np.abs(adv).max() <= 1e-10 * scale
        return case

    polys = {
        "poly1": (
            lambda x, y: x + y,
            lambda x, y: (np.ones_like(x), np.ones_like(x)),
            lambda x, y: np.zeros_like(x),
        ),
        "poly2": (
            lambda x, y: x**2 + x * y + y**2,
            lambda x, y: (2 * x + y, x + 2 * y),
            lambda x, y: 4.0 * np.ones_like(x),
        ),
        "poly3": (
            lambda x, y: x**3 + x * y**2 + y**3 + x**2,
            lambda x, y: (3 * x**2 + y**2 + 2 * x, 2 * x * y + 3 * y**2),
            lambda x, y: 8 * x + 6 * y + 2,
        ),
    }
    if name in polys:
        uf, gf, lf = polys[name]

        def u_exact(x):
            x = np.atleast_2d(x)
            return uf(x[:, 0], x[:, 1])

        def grad_u(x):
            x = np.atleast_2d(x)
            gx, gy = gf(x[:, 0], x[:, 1])
            return np.column_stack((gx, gy))

        def f(x):
            x = np.atleast_2d(x)
            gx, gy = gf(x[:, 0], x[:, 1])
            return ax * gx + ay * gy - kappa * lf(x[:, 0], x[:, 1])

        return BenchmarkCase(name, kappa, a, u_exact, grad_u, f)

    raise ValueError(f"unknown benchmark {name!r}")


def audit_source(case: BenchmarkCase, npts: int = 100, seed: int = 1234) -> float:
    """Finite-difference audit of the manufactured source; returns the max
    absolute defect of div(a u) - kappa lap(u) - f at random points.

    The gradient uses the complex-step trick (machine precision) and the
    Laplacian a fourth-order central stencil, so the audit noise floor sits
    well below 1e-8 for O(1) data."""
    rng = np.random.default_rng(seed)
    pts = 0.05 + 0.9 * rng.random((npts, 2))

    def u(q):
        return case.u_exact(q)

    hc = 1e-20
    grad = np.empty((npts, 2))
    for c, e in enumerate(np.eye(2)):
        grad[:, c] = np.imag(u(pts + 1j * hc * e)) / hc

    h = 1e-3
    lap = np.zeros(npts)
    for e in np.eye(2):
        lap += (
            -u(pts + 2 * h * e) + 16 * u(pts + h * e) - 30 * u(pts)
            + 16 * u(pts - h * e) - u(pts - 2 * h * e)
        ) / (12 * h**2)
    defect = grad @ case.a - case.kappa * lap - case.f(pts)
    return float(np.abs(defect).max())


def l2_error(mesh: MacroMesh, p: int, solution, u_exact: Callable) -> float:
    """Elementwise quadrature of (u_h - u*)^2 with exactness >= 2p+2."""
    rule, val, _, _ = reference_tables(p, 2 * p + 2)
    acc = 0.0
    for e, macro in enumerate(mesh.macro_elements):
        dofmap = build_patch_dof_map(macro, p)
        u = solution.u_coeffs(e)
        classes, cells = macro.sub_cell_geometry()
        for cm, (kind, origin) in zip(dofmap.cell_maps, cells):
            Jc, _, det = classes[kind]
            pts = rule.points_ref @ Jc.T + origin
            uh = val @ u[cm]
            diff = uh - np.asarray(u_exact(pts), dtype=float)
            acc += float(np.sum(rule.weights * det * diff**2))
    return math.sqrt(acc)


def u_nodal_max(solution) -> float:
    return max(float(solution.u_coeffs(e).max()) for e in range(len(solution.local)))


CONV_COLUMNS = [
    "p", "m", "n", "h", "dof_local", "dof_global", "l2_error", "rate",
    "iterations", "t_init_s", "t_solve_s",
]


def run_convergence(
    case: BenchmarkCase,
    p_list: Sequence[int],
    m: int,
    n_list: Sequence[int],
    config: Optional[SolverConfig] = None,
    stab: Optional[StabilizationConfig] = None,
    out: Optional[str] = None,
) -> list:
    """One solve per (p, n); observed rate compares successive rows."""
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n list must be strictly increasing")
    config = config or SolverConfig()
    stab = stab or StabilizationConfig()
    rows = []
    for p in p_list:
        prev = None
        for n in n_list:
            mesh = build_structured_macro_mesh(2, n, m)
            solution, _ = solve(mesh, case.problem(), stab, config, p)
            err = l2_error(mesh, p, solution, case.u_exact)
            rate = None
            if prev is not None and prev[1] > 0 and err > 0:
                rate = math.log(prev[1] / err) / math.log(n / prev[0])
            rep = solution.report
            rows.append(
                {
                    "p": p, "m": m, "n": n, "h": 1.0 / (n * m),
                    "dof_local": rep.dof_local, "dof_global": rep.dof_global,
                    "l2_error": err, "rate": rate,
                    "iterations": rep.iterations, "t_init_s": rep.t_init_s,
                    "t_solve_s": rep.t_local_s + rep.t_global_s,
                }
            )
            prev = (n, err)
    if out is not None:
        write_csv(rows, CONV_COLUMNS, out)
    return rows


def run_compare(
    case: BenchmarkCase,
    p: int,
    n: int,
    m: int,
    tolerances: Sequence[float] = (1e-2, 1e-6),
    config: Optional[SolverConfig] = None,
    stab: Optional[StabilizationConfig] = None,
    out: Optional[str] = None,
) -> list:
    """Matrix-based vs matrix-free iteration counts at each tolerance."""
    base = config or SolverConfig()
    stab = stab or StabilizationConfig()
    mesh = build_structured_macro_mesh(2, n, m)
    rows = []
    for tol in tolerances:
        iters = {}
        for mode in ("mb", "mf"):
            cfg = replace(base, tol=tol, mode=mode)
            solution, _ = solve(mesh, case.problem(), stab, cfg, p)
            rep = solution.report
            iters[mode] = rep.iterations
            rows.append(
                {
                    "p": p, "m": m, "n": n, "tol": tol, "mode": mode,
                    "iterations": rep.iterations, "converged": rep.converged,
                    "t_solve_s": rep.t_local_s + rep.t_global_s,
                }
            )
        if abs(iters["mb"] - iters["mf"]) > 1:
            raise RuntimeError(
                f"iteration parity violated at tol {tol}: {iters}"
            )
    if out is not None:
        write_csv(
            rows,
            ["p", "m", "n", "tol", "mode", "iterations", "converged", "t_solve_s"],
            out,
        )
    return rows


ADAPT_COLUMNS = ["level", "n_macros", "dof_local", "dof_global", "l2_error", "eta_total"]


def run_adapt(
    case: BenchmarkCase,
    p: int,
    m: int,
    n0: int,
    levels: int,
    theta: float = 0.5,
    config: Optional[SolverConfig] = None,
    stab: Optional[StabilizationConfig] = None,
    out: Optional[str] = None,
) -> list:
    config = config or SolverConfig()
    stab = stab or StabilizationConfig()
    mesh = build_structured_macro_mesh(2, n0, m)
    state = adapt(
        mesh, case.problem(), stab, config, p, levels, theta,
        error_fn=lambda msh, sol: l2_error(msh, p, sol, case.u_exact),
    )
    if out is not None:
        write_csv(state.history, ADAPT_COLUMNS, out)
    return state.history


COST_COLUMNS = [
    "d", "n", "m", "p", "N", "Q", "D", "sparsity", "init", "step1", "step2",
    "step3", "step4", "mem_A", "mem_BC", "mem_D", "mem_total",
]


def run_cost(
    d: int, nm: int, p: int, arithmetic: str = "dense",
    m_list: Optional[Sequence[int]] = None, out: Optional[str] = None,
) -> list:
    """Cost-model sweep over macro sizes m at fixed n*m = nm."""
    if nm < 1:
        raise ValueError("nm must be at least 1")
    if m_list is None:
        m_list = [m for m in (1, 2, 4, 8, 16) if m <= nm and nm % m == 0]
    rows = []
    for m in m_list:
        n = nm // m
        inputs = CostInputs(d=d, n=n, m=m, p=p, arithmetic=arithmetic)
        rep = dependent_quantities(inputs)
        ops = operation_counts(d, n, m, p)["mehdg"]
        mem = memory_estimate(inputs)
        rows.append(
            {
                "d": d, "n": n, "m": m, "p": p, "N": rep.N, "Q": rep.Q_d,
                "D": rep.D_faces, "sparsity": rep.sparsity,
                "init": ops["init"], "step1": ops["step1"],
                "step2": ops["step2"], "step3": ops["step3"],
                "step4": ops["step4"], "mem_A": mem["A_block"],
                "mem_BC": mem["BC_block"], "mem_D": mem["D_block"],
                "mem_total": mem["total"],
            }
        )
    if out is not None:
        write_csv(rows, COST_COLUMNS, out)
    return rows


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(rows: list, columns: Sequence[str], out) -> None:
    """All floats printed with 17 significant digits for bit-stable output."""
    own = isinstance(out, (str, bytes))
    fh = open(out, "w", newline="") if own else out
    try:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
    finally:
        if own:
            fh.close()


def rows_to_csv(rows: list, columns: Sequence[str]) -> str:
    buf = io.StringIO()
    write_csv(rows, columns, buf)
    return buf.getvalue()


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        out = []
        for rec in reader:
            row = {}
            for key, raw in zip(header, rec):
                if raw == "":
                    row[key] = None
                elif raw in ("True", "False"):
                    row[key] = raw == "True"
                else:
                    try:
                        row[key] = int(raw)
                    except ValueError:
                        try:
                            row[key] = float(raw)
                        except ValueError:
                            row[key] = raw
            out.append(row)
        return out
