#!/usr/bin/env python3
"""Rerun the measurements of the two-level trace preconditioner.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/twolevel_grid.py [SECTION ...]

It measures whichever `mehdg` is importable, so pointing PYTHONPATH at
another checkout's src measures that checkout.  With no SECTION it runs all
of them and prints one JSON object, keyed by section:

  grid     the rows of BENCH_twolevel.json's Peclet grid with mesh Peclet
           number <= 8 (270 configs; solve() in mode mb, tol 1e-8, restart
           100, maxiter 10000, tanh, SUPG classical-minus off and on), under
           solve()'s own rule; next to each: the additive form's iterations
           with the coarse space forced on, and face-block Jacobi's, both
           read from that file
  hsweep   tanh, kappa 0.4, a = (1, 1), m = 1, p = 2, n = 8 ... 64, tol
           1e-10, modes mb and mf
  table    the solve() table configs of ROADMAP.md, same problem and tol
  size_m4  the m = 4 rows of BENCH_twolevel.json's size sweep: solve()
           process CPU time with the coarse space forced on and off, 20
           pairs per config after one warm-up pair, alternating which side
           runs first, |a| = sqrt(2) at angles 2 pi frac(0.3 + r 0.618034)
           for pair r
  dense    the coarse sizes of the dense-factor crossover: tanh, kappa 0.4,
           p = 2, (n, m) = (8, 1), (4, 4), (12, 1), (8, 2), (16, 1),
           (4, 8), (10, 2), (8, 4), modes mb and mf, tol 1e-10, coarse
           space on: solve() process CPU time with S_c factored densely
           (getrf) and sparsely (splu), pairs and angles as in size_m4; the
           summary names the COARSE_DENSE_MAX_DOFS, from the coarse sizes
           measured, that minimizes the summed median CPU time
  band     the configs of both Peclet sweeps of BENCH_twolevel.json with
           2 <= Pe < 8 (mb, tol 1e-8): solve() wall time with the coarse
           space forced on and off, 3 alternated pairs, median

hsweep and table report iterations, the fastest and the median solve() wall
time of 3 runs in this process, the median t_coarse_s, and the relative
distance of uhat from spsolve of the explicit S; hsweep also the mf-mb
distance.  Forcing the coarse space on or off sets solve()'s rule constants
COARSE_MIN_TRACE_DOFS and COARSE_MAX_PECLET for the one call; forcing the
dense or the sparse factor of S_c sets COARSE_DENSE_MAX_DOFS.
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse.linalg as spla

from mehdg import schur_solver
from mehdg.assembly import StabilizationConfig
from mehdg.bench import make_benchmark
from mehdg.mesh import build_structured_macro_mesh
from mehdg.schur_solver import SolverConfig, assemble_schur_explicit, solve

ROOT = Path(__file__).resolve().parent.parent
TABLE = [(8, 1, 2, "mb"), (4, 4, 2, "mf"), (8, 4, 2, "mf"), (16, 2, 3, "mb"), (16, 2, 3, "mf"),
         (32, 1, 2, "mf"), (32, 1, 3, "mb"), (64, 1, 2, "mb"), (64, 1, 2, "mf")]
SMOOTH = ("tanh", 0.4, (1.0, 1.0))


@contextmanager
def coarse_forced(on: bool):
    """solve()'s rule constants set so that it always (on) or never (off)
    adds the coarse space."""
    saved = schur_solver.COARSE_MIN_TRACE_DOFS, schur_solver.COARSE_MAX_PECLET
    schur_solver.COARSE_MIN_TRACE_DOFS = 0 if on else 1 << 62
    schur_solver.COARSE_MAX_PECLET = math.inf
    try:
        yield
    finally:
        schur_solver.COARSE_MIN_TRACE_DOFS, schur_solver.COARSE_MAX_PECLET = saved


@contextmanager
def dense_forced(on: bool):
    """coarse_space's size rule set so that it always (on) or never (off)
    factors S_c densely."""
    saved = schur_solver.COARSE_DENSE_MAX_DOFS
    schur_solver.COARSE_DENSE_MAX_DOFS = 1 << 62 if on else -1
    try:
        yield
    finally:
        schur_solver.COARSE_DENSE_MAX_DOFS = saved


def twolevel_bench() -> dict:
    return json.loads((ROOT / "BENCH_twolevel.json").read_text())


def grid() -> list:
    rows = []
    for n, m, p, kappa, supg, a, pe, block_it, additive_it, _, _ in twolevel_bench()[
            "peclet_grid"]["rows"]:
        if pe > 8:
            continue
        mesh = build_structured_macro_mesh(2, n, m)
        t0 = time.perf_counter()
        sol, _ = solve(mesh, make_benchmark("tanh", kappa, a).problem(),
                       StabilizationConfig(supg=supg),
                       SolverConfig(tol=1e-8, mode="mb", maxiter=10000), p)
        wall = time.perf_counter() - t0
        rep = sol.report
        rows.append({"n": n, "m": m, "p": p, "kappa": kappa, "supg": supg, "a": a,
                     "peclet": pe, "coarse_dofs": rep.coarse_dofs,
                     "iterations": rep.iterations, "converged": rep.converged,
                     "additive_iters": additive_it, "block_iters": block_it,
                     "solve_s": round(wall, 5), "t_coarse_s": round(rep.t_coarse_s, 5)})
    used = [r for r in rows if r["coarse_dofs"]]
    ratios = [r["iterations"] / r["additive_iters"] for r in used]
    return {"rows": rows, "summary": {
        "configs": len(rows), "use_coarse": len(used),
        "all_converged": all(r["converged"] for r in rows),
        "fewer_than_additive": sum(r["iterations"] < r["additive_iters"] for r in used),
        "more_than_additive": sum(r["iterations"] > r["additive_iters"] for r in used),
        "iter_ratio_median": round(statistics.median(ratios), 3) if ratios else None,
        "iter_ratio_max": round(max(ratios), 3) if ratios else None,
        "no_coarse_equal_block": all(r["iterations"] == r["block_iters"]
                                     for r in rows if not r["coarse_dofs"])}}


def timed_solves(n, m, p, mode, repeats=3) -> dict:
    mesh = build_structured_macro_mesh(2, n, m)
    problem = make_benchmark(*SMOOTH).problem()
    walls, coarse_s = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sol, sys_ = solve(mesh, problem, StabilizationConfig(),
                          SolverConfig(tol=1e-10, mode=mode), p)
        walls.append(time.perf_counter() - t0)
        coarse_s.append(sol.report.t_coarse_s)
    direct = spla.spsolve(assemble_schur_explicit(sys_).tocsc(), sys_.f_vec)
    rep = sol.report
    return {"n": n, "m": m, "p": p, "mode": mode, "trace_dofs": rep.dof_global,
            "coarse_dofs": rep.coarse_dofs, "iterations": rep.iterations,
            "converged": rep.converged, "solve_s_best": round(min(walls), 4),
            "solve_s_median": round(statistics.median(walls), 4),
            "t_coarse_s": round(statistics.median(coarse_s), 4),
            "rel_diff_vs_spsolve": float(np.linalg.norm(sol.uhat - direct)
                                         / np.linalg.norm(direct)),
            "uhat": sol.uhat}


def hsweep() -> list:
    rows = []
    for n in (8, 16, 32, 64):
        pair = {mode: timed_solves(n, 1, 2, mode) for mode in ("mb", "mf")}
        gap = float(np.linalg.norm(pair["mf"]["uhat"] - pair["mb"]["uhat"])
                    / np.linalg.norm(pair["mb"]["uhat"]))
        for row in pair.values():
            row.pop("uhat")
            rows.append({**row, "rel_diff_mf_mb": gap})
    return rows


def table() -> list:
    rows = []
    for cfg in TABLE:
        row = timed_solves(*cfg)
        row.pop("uhat")
        rows.append(row)
    return rows


def paired_cpu(mesh, p, mode, forced, pairs=20) -> tuple:
    """solve() process CPU seconds and iterations per side of `forced` (a
    context manager of one bool), in alternated pairs after one warm-up
    pair, on tanh, kappa 0.4, |a| = sqrt(2) at angles 2 pi frac(0.3 + r
    0.618034) for pair r."""
    cpu = {True: [], False: []}
    iters = {True: [], False: []}
    for r in range(pairs + 1):
        angle = 2 * math.pi * ((0.3 + r * 0.618034) % 1.0)
        problem = make_benchmark("tanh", 0.4, (math.sqrt(2) * math.cos(angle),
                                               math.sqrt(2) * math.sin(angle))).problem()
        for on in ((True, False) if r % 2 else (False, True)):
            with forced(on):
                c0 = time.process_time()
                sol, _ = solve(mesh, problem, StabilizationConfig(),
                               SolverConfig(tol=1e-10, mode=mode), p)
                seconds = time.process_time() - c0
            if r:  # pair 0 is the warm-up
                cpu[on].append(seconds)
                iters[on].append(sol.report.iterations)
    return cpu, iters, sol.report.coarse_dofs


def size_m4(pairs=20) -> list:
    rows = []
    for row in twolevel_bench()["size_sweep"]["rows"]:
        if row["m"] != 4:
            continue
        mesh = build_structured_macro_mesh(2, row["n"], 4)
        cpu, iters, _ = paired_cpu(mesh, row["p"], row["mode"], coarse_forced, pairs)
        diff = [1e3 * (t - b) for t, b in zip(cpu[True], cpu[False])]
        rows.append({"n": row["n"], "m": 4, "p": row["p"], "mode": row["mode"],
                     "trace_dofs": row["trace_dofs"],
                     "iters_block": statistics.mean(iters[False]),
                     "iters_twolevel": statistics.mean(iters[True]),
                     "cpu_ms_block": round(1e3 * statistics.median(cpu[False]), 3),
                     "cpu_ms_twolevel": round(1e3 * statistics.median(cpu[True]), 3),
                     "median_pair_diff_ms": round(statistics.median(diff), 3),
                     "twolevel_faster": f"{sum(d < 0 for d in diff)}/{pairs}",
                     "additive_median_pair_diff_ms": row["median_pair_diff_ms"],
                     "additive_twolevel_faster": row["twolevel_faster"]})
    return rows


def dense(pairs=20) -> dict:
    rows = []
    for n, m in ((8, 1), (4, 4), (12, 1), (8, 2), (16, 1), (4, 8), (10, 2), (8, 4)):
        mesh = build_structured_macro_mesh(2, n, m)
        for mode in ("mb", "mf"):
            with coarse_forced(True):
                cpu, iters, dofs = paired_cpu(mesh, 2, mode, dense_forced, pairs)
            diff = [1e3 * (d - s) for d, s in zip(cpu[True], cpu[False])]
            rows.append({"n": n, "m": m, "p": 2, "mode": mode, "coarse_dofs": dofs,
                         "same_iterations": iters[True] == iters[False],
                         "cpu_ms_splu": round(1e3 * statistics.median(cpu[False]), 3),
                         "cpu_ms_getrf": round(1e3 * statistics.median(cpu[True]), 3),
                         "median_pair_diff_ms": round(statistics.median(diff), 3),
                         "getrf_faster": f"{sum(d < 0 for d in diff)}/{pairs}"})
    # the size rule that minimizes the summed median CPU time of all rows:
    # dense up to each measured coarse size in turn
    sizes = sorted({r["coarse_dofs"] for r in rows})
    totals = {t: round(sum(r["cpu_ms_getrf"] if r["coarse_dofs"] <= t else r["cpu_ms_splu"]
                           for r in rows), 3) for t in [0] + sizes}
    return {"rows": rows, "summary": {"summed_cpu_ms_by_max_dofs": totals,
                                      "best_max_dofs": min(totals, key=totals.get)}}


def band(pairs=3) -> dict:
    bench = twolevel_bench()
    rows = []
    for sweep in ("peclet_grid", "kappa_sweep"):
        for n, m, p, kappa, supg, a, pe, *_ in bench[sweep]["rows"]:
            if not 2 <= pe < 8:
                continue
            mesh = build_structured_macro_mesh(2, n, m)
            problem = make_benchmark("tanh", kappa, a).problem()
            wall = {True: [], False: []}
            iters = {}
            for r in range(pairs):
                for on in ((True, False) if r % 2 else (False, True)):
                    with coarse_forced(on):
                        t0 = time.perf_counter()
                        sol, _ = solve(mesh, problem, StabilizationConfig(supg=supg),
                                       SolverConfig(tol=1e-8, mode="mb", maxiter=10000), p)
                        wall[on].append(time.perf_counter() - t0)
                    iters[on] = sol.report.iterations
            rows.append({"sweep": sweep, "n": n, "m": m, "p": p, "kappa": kappa,
                         "supg": supg, "a": a, "peclet": pe, "block_iters": iters[False],
                         "twolevel_iters": iters[True],
                         "block_s": round(statistics.median(wall[False]), 5),
                         "twolevel_s": round(statistics.median(wall[True]), 5)})
    by_mesh = {}
    for r in rows:
        by_mesh.setdefault(f"{r['n']},{r['m']}", []).append(r["twolevel_s"] / r["block_s"])
    ratios = [r["twolevel_s"] / r["block_s"] for r in rows]
    return {"rows": rows, "summary": {
        "configs": len(rows),
        "twolevel_faster": sum(x < 1.0 for x in ratios),
        "time_ratio_median": round(statistics.median(ratios), 3),
        "time_ratio_median_by_mesh": {k: round(statistics.median(v), 3)
                                      for k, v in by_mesh.items()},
        "twolevel_fewer_iters": sum(r["twolevel_iters"] < r["block_iters"] for r in rows)}}


SECTIONS = {"grid": grid, "hsweep": hsweep, "table": table, "size_m4": size_m4,
            "dense": dense, "band": band}


def main(argv=None) -> int:
    names = list(sys.argv[1:] if argv is None else argv) or list(SECTIONS)
    unknown = [s for s in names if s not in SECTIONS]
    if unknown:
        print(f"unknown section(s) {unknown}; choose from {list(SECTIONS)}", file=sys.stderr)
        return 2
    out = {"machine": {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__,
                       "mehdg": str(Path(schur_solver.__file__).parent)}}
    for name in names:
        t0 = time.perf_counter()
        out[name] = SECTIONS[name]()
        out["machine"][f"{name}_wall_s"] = round(time.perf_counter() - t0, 1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
