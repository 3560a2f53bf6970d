"""One benchmark process: set up a workload, run its ops, report.

Started by run.py with OPENBLAS_NUM_THREADS=1 in its environment.  It imports
mehdg from the checkout's src/, builds the inputs, runs one warm-up op and
prints READY with its set-up time, the CPU time it has used so far.  It then runs the measured
ops (closed loop, one client: each op starts when the previous one ends) and
prints one line `RESULT <json>`.

An op is one row of the paper's studies: build the mesh, solve(), l2_error
against the manufactured solution; adaptive workloads also run
error_indicator, mark and refine_macros.  Ops call mehdg through module
attributes, so the traced run (spans.py) wraps exactly the calls the untraced
run makes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg as sla  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

from mehdg import adaptivity, bench, schur_solver  # noqa: E402
from mehdg import mesh as mesh_mod  # noqa: E402
from mehdg.assembly import StabilizationConfig  # noqa: E402
from mehdg.costmodel import operation_counts  # noqa: E402

from spans import Tracer  # noqa: E402

# Kronecker sequence step: the first N draws cover [0, 1) evenly for any N,
# so per-run statistics depend little on the seed.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
POOL_OPS = 4  # uniform ops replayed at the other worker count for pool_speedup
# peak_rss_mib is read after this many measured ops, so that it measures a
# fixed amount of work: freed heap is not always returned to the OS (m=4
# solves keep about 4 MiB each), and a figure taken at the end of the run
# would grow with throughput
RSS_OPS = 12

# Calibration loop: fixed work that runs no mehdg code, timed in CPU time
# between the measured ops.  On a shared host a CPU-second does more or less
# work as other tenants load the same core and caches, by up to 40% over
# minutes, and this loop slows with the interpreter-bound part of an op
# (README.md, Noise).  Gated times are divided by the loop's median CPU time
# over CAL_NOMINAL_S, about its CPU time on the 2-vCPU Xeon VM on which the
# benchmark was defined.
CAL_NOMINAL_S = 0.02
CAL_SHARE = 0.06  # calibration CPU time after an op, as a share of the op's
CAL_PY_STEPS = 60_000
CAL_SOLVES = 800
_cal = np.random.default_rng(0).standard_normal((13, 12))
_CAL_FACTOR = sla.cho_factor(_cal[:12] @ _cal[:12].T + 12.0 * np.eye(12))
_CAL_RHS = _cal[12]


def calibrate() -> float:
    """CPU seconds of one calibration loop: a dict loop and small LAPACK
    solves through scipy's wrappers, the two kinds of work assembly does."""
    c0 = time.process_time()
    table, acc = {}, 0
    for i in range(CAL_PY_STEPS):
        table[i & 1023] = acc
        acc += i
    for _ in range(CAL_SOLVES):
        sla.cho_solve(_CAL_FACTOR, _CAL_RHS)
    return time.process_time() - c0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    p: int
    mode: str
    tol: float
    workers: int
    maxiter: int  # a few times the iteration count when this benchmark was defined
    l2_bound: tuple  # per adaptive level; one entry for uniform workloads
    supg: bool = False
    levels: int = 0  # adaptive levels per cycle; 0 for uniform refinement
    theta: float = 0.5

    @property
    def cycle(self) -> int:
        return self.levels + 1


# L2 bounds sit about 25% above the largest error seen over all advection
# directions (uniform) or 10% above each level's error (adaptive).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hdg-mb", n=8, m=1, p=2, mode="mb", tol=1e-10, workers=1,
                 maxiter=500, l2_bound=(3.1e-4,)),
        Workload("macro-mf", n=4, m=4, p=2, mode="mf", tol=1e-10, workers=2,
                 maxiter=400, l2_bound=(1.35e-4,)),
        Workload("adapt-supg", n=4, m=2, p=2, mode="mb", tol=1e-6, workers=1,
                 maxiter=100, supg=True, levels=5,
                 l2_bound=(0.113, 0.094, 0.087, 0.085, 0.081, 0.072)),
    )
}
KAPPA_SMOOTH = 0.4
KAPPA_LAYER = math.sqrt(5.0) * 1e-10  # Pe = 1e10 for a = (1, 2)


@dataclass
class Outcome:
    op: int
    level: int
    seconds: float  # wall time
    cpu: float  # CPU time of the process, all threads
    ok: bool
    reason: str = ""
    iterations: int = -1
    l2: float = float("nan")
    digest: str = ""
    meta: dict = field(default_factory=dict)  # traced runs only

    def row(self) -> dict:
        return {"op": self.op, "level": self.level, "seconds": self.seconds,
                "cpu": self.cpu, "ok": self.ok, "reason": self.reason,
                "iterations": self.iterations, "l2": self.l2,
                "digest": self.digest}


class OpStream:
    """The seeded op sequence of one workload.

    Uniform workloads draw op k's advection direction at angle
    2*pi*frac(u0 + k*GOLDEN), |a| = sqrt(2).  The adaptive workload runs
    levels 0..levels as consecutive ops on one problem a = s*(1, 2), with
    s = 0.5 + 1.5*frac(u0 + c*GOLDEN) for cycle c, then restarts on the
    coarse mesh.  u0 comes from the seed; mehdg sees only the ProblemData."""

    def __init__(self, wl: Workload, seed: int, workers: int):
        self.wl = wl
        self.cfg = schur_solver.SolverConfig(
            tol=wl.tol, mode=wl.mode, workers=workers, maxiter=wl.maxiter)
        self.stab = StabilizationConfig(supg=wl.supg)
        self.u0 = float(np.random.default_rng(seed).random())
        self.k = 0
        self.mesh = None  # adaptive: mesh for the next level
        self.case = None

    def _draw(self, j: int) -> float:
        return (self.u0 + j * GOLDEN) % 1.0

    def _inputs(self, level: int):
        if self.wl.levels == 0:
            ang = 2.0 * math.pi * self._draw(self.k)
            a = math.sqrt(2.0) * np.array([math.cos(ang), math.sin(ang)])
            self.case = bench.make_benchmark("tanh", KAPPA_SMOOTH, a)
        elif level == 0:
            s = 0.5 + 1.5 * self._draw(self.k // self.wl.cycle)
            self.case = bench.make_benchmark("tanh", KAPPA_LAYER, (s, 2.0 * s))
        return self.case, self.case.problem()

    def step(self, tracer: Tracer = None) -> Outcome:
        wl, p = self.wl, self.wl.p
        op, level = self.k, self.k % wl.cycle
        case, problem = self._inputs(level)
        self.k += 1
        if tracer is not None:
            tracer.op = op
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with tracer.span("op") if tracer is not None else nullcontext():
                if level == 0:
                    mesh = mesh_mod.build_structured_macro_mesh(2, wl.n, wl.m)
                else:
                    mesh = self.mesh
                sol, system = schur_solver.solve(mesh, problem, self.stab, self.cfg, p)
                err = bench.l2_error(mesh, p, sol, case.u_exact)
                if wl.levels:
                    ind = adaptivity.error_indicator(mesh, p, sol)
                    self.mesh = None
                    if level < wl.levels:
                        self.mesh = mesh_mod.refine_macros(
                            mesh, adaptivity.mark(ind, wl.theta))
        except Exception as exc:  # a raising op is a counted failure
            seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
            if level < wl.levels:  # the rest of this cycle has no mesh
                self.k += wl.cycle - 1 - level
            return Outcome(op, level, seconds, cpu, False,
                           f"{type(exc).__name__}: {exc}")
        seconds, cpu = time.perf_counter() - t0, time.process_time() - c0

        rep = sol.report
        bound = wl.l2_bound[level]
        reason = ""
        if not rep.converged:
            reason = f"GMRES did not converge in {rep.iterations} iterations"
        elif not np.all(np.isfinite(sol.uhat)):
            reason = "non-finite trace"
        elif not err <= bound:
            reason = f"L2 error {err:.4e} above bound {bound:.4e}"
        out = Outcome(op, level, seconds, cpu, not reason, reason, rep.iterations,
                      float(err), hashlib.sha256(sol.uhat.tobytes()).hexdigest()[:16])
        if tracer is not None:
            counters = getattr(system, "counters", {})
            out.meta = {
                "macros": len(mesh.macro_elements),
                "hanging": sum(1 for f in mesh.skeleton if getattr(f, "hanging", False)),
                "dof_global": rep.dof_global,
                "dof_local": rep.dof_local,
                "lbf": rep.lbf,
                "macro_apply": counters.get("macro_apply", 0),
                "face_reduce": counters.get("face_reduce", 0),
                "stored_bytes": stored_bytes(system) + tracer.result_bytes.get(op, 0),
            }
        return out


def stored_bytes(obj, seen=None) -> int:
    """Computed bytes of every array reachable from the solver state, each
    array once.  The mesh and the thread pool are not solver storage."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (str, bytes, int, float, bool, np.generic, type(None))):
        return 0
    if isinstance(obj, (mesh_mod.MacroMesh, schur_solver.WorkerPool)):
        return 0
    if isinstance(obj, spla.SuperLU):
        return sum(stored_bytes(x, seen) for x in (obj.L, obj.U, obj.perm_r, obj.perm_c))
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(stored_bytes(x, seen) for x in items)


def install_spans(tracer: Tracer) -> None:
    """Wrap the public functions that an op and solve() call, at the module
    attributes through which they are called."""
    S = schur_solver
    for module, attr, name in (
        (mesh_mod, "build_structured_macro_mesh", "mesh.build"),
        (mesh_mod, "refine_macros", "mesh.refine"),
        (S, "solve", "schur_solver.solve"),
        (S, "assemble_system", "assembly.system"),
        (S, "assemble_macro", "assembly.macro"),
        (S, "assemble_face", "assembly.face"),
        (S, "condense", "schur_solver.condense"),
        (S, "reconstruct_interior", "schur_solver.reconstruct"),
        (adaptivity, "error_indicator", "adaptivity.indicator"),
        (adaptivity, "mark", "adaptivity.mark"),
        (bench, "l2_error", "bench.l2_error"),
    ):
        tracer.patch(module, attr, name)
    tracer.patch(S, "assemble_schur_explicit", "schur_solver.schur_explicit",
                 on_result=lambda mat: tracer.count_bytes(stored_bytes(mat)))
    # mode mb never calls apply_schur: trace the callables gmres receives
    tracer.patch_callable_args(
        S, "gmres", "schur_solver.gmres",
        {"apply_op": "schur_solver.apply", "precond": "schur_solver.precond"})


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(make_stream, n_ops=None, seconds=None, tracer=None, cal=None):
    """Run n_ops ops, or whole cycles until `seconds` have passed.  When
    `cal` is a list, run calibration loops after each op, at least one and
    about CAL_SHARE of the op's CPU time, and append their CPU times; they
    sample the machine's speed evenly over the ops' time.  Returns the
    outcomes and the peak RSS after RSS_OPS ops (or at the end, if fewer
    ran)."""
    stream = make_stream()
    outs = []
    rss = None
    t0 = time.perf_counter()
    while True:
        if n_ops is not None:
            if len(outs) >= n_ops:
                break
        elif time.perf_counter() - t0 >= seconds and stream.k % stream.wl.cycle == 0:
            break
        outs.append(stream.step(tracer))
        if len(outs) == RSS_OPS:
            rss = peak_rss_mib()
        if cal is not None:
            reps = max(1, round(CAL_SHARE * outs[-1].cpu / CAL_NOMINAL_S))
            cal.extend(calibrate() for _ in range(reps))
    return outs, rss if rss is not None else peak_rss_mib()


def p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(outs: list, cal: list, rss: float) -> tuple:
    """Gated metrics, the calibration scale, and raw-time figures that are
    only reported.  Wall time counts the seconds in which the hypervisor runs
    other tenants on our CPUs (steal) and CPU time does not; what a
    CPU-second buys still drifts with the host's load, which the calibration
    loop measures (README.md, Noise)."""
    ok = [o for o in outs if o.ok] or outs  # all failed: time them anyway
    walls, cpus = [o.seconds for o in ok], [o.cpu for o in ok]
    passed = sum(o.ok for o in outs)
    ops_per_cpu_s = passed / sum(o.cpu for o in outs)
    scale = statistics.median(cal) / CAL_NOMINAL_S  # above 1 on a slow CPU
    metrics = {
        "ops_per_cal_s": (ops_per_cpu_s * scale, "1/s"),
        "peak_rss_mib": (rss, "MiB"),
        "pass_frac": (passed / len(outs), "ratio"),
    }
    info = {"ops_per_s": passed / sum(o.seconds for o in outs),
            "ops_per_cpu_s": ops_per_cpu_s, "cal_scale": scale,
            "op_s_p50": statistics.median(walls), "op_s_p90": p90(walls),
            "op_cpu_s_p50": statistics.median(cpus), "op_cpu_s_p90": p90(cpus)}
    return metrics, scale, info


def span_totals(tracer: Tracer):
    """Per op and span name: [calls, total seconds]; plus per-span self time
    for spans whose children all run on the calling thread."""
    per_op = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    child = defaultdict(float)
    for sid, name, t0, t1, parent, op in tracer.spans:
        acc = per_op[op][name]
        acc[0] += 1
        acc[1] += t1 - t0
        if parent is not None:
            child[parent] += t1 - t0
    self_time = defaultdict(lambda: defaultdict(float))
    for sid, name, t0, t1, parent, op in tracer.spans:
        if name in ("op", "schur_solver.solve", "schur_solver.gmres"):
            self_time[op][name] += (t1 - t0) - child[sid]
    return per_op, self_time


def layer_metrics(wl: Workload, tracer: Tracer, traced: list, untraced: list,
                  pool_speedup: float) -> tuple:
    per_op, self_time = span_totals(tracer)
    ops = [o for o in traced if o.meta]
    n = max(len(traced), 1)

    def total(name, op=None):
        if op is not None:
            return per_op[op][name][1]
        return sum(per_op[o][name][1] for o in per_op)

    def calls(name, op=None):
        if op is not None:
            return per_op[op][name][0]
        return sum(per_op[o][name][0] for o in per_op)

    def mean_meta(key):
        return statistics.fmean(o.meta[key] for o in ops) if ops else 0.0

    # cost model: measured seconds over modelled operations, at the mesh's
    # equivalent uniform size n_eff = sqrt(macros / 2)
    model_apply = model_face = model_init = 0.0
    for o in ops:
        cnt = operation_counts(2, math.sqrt(o.meta["macros"] / 2.0), wl.m, wl.p)["mehdg"]
        model_apply += calls("schur_solver.apply", o.op) * (
            cnt["step1"] + cnt["step2"] + cnt["step3"])
        model_face += calls("schur_solver.precond", o.op) * cnt["step4"]
        model_init += cnt["init"]

    def ns_per_op(seconds, count):
        return 1e9 * seconds / count if count else 0.0

    costs = {
        "costmodel.apply_ns_per_op": ns_per_op(total("schur_solver.apply"), model_apply),
        "costmodel.face_ns_per_op": ns_per_op(total("schur_solver.precond"), model_face),
        "costmodel.init_ns_per_op": ns_per_op(total("schur_solver.condense"), model_init),
    }
    best = min((v for v in costs.values() if v > 0), default=0.0)
    flags = [f"{k} is {v / best:.1f}x the best kernel" for k, v in costs.items()
             if best and v > 10.0 * best]

    op_wall = sum(total("op", o) for o in per_op)
    uncovered = sum(self_time[o]["op"] + self_time[o]["schur_solver.solve"]
                    for o in per_op)
    macro_calls = calls("assembly.macro")
    metrics = {
        "mesh.build_s": (total("mesh.build") / n, "s"),
        "mesh.refine_s": (total("mesh.refine") / n, "s"),
        "mesh.macros": (mean_meta("macros"), "count"),
        "mesh.hanging_faces": (mean_meta("hanging"), "count"),
        "assembly.system_s": (total("assembly.system") / n, "s"),
        "assembly.macro_calls": (macro_calls / n, "count"),
        "assembly.face_calls": (calls("assembly.face") / n, "count"),
        "assembly.macro_ms": (1e3 * total("assembly.macro") / macro_calls
                              if macro_calls else 0.0, "ms"),
        "schur_solver.condense_s": (total("schur_solver.condense") / n, "s"),
        "schur_solver.schur_explicit_s": (total("schur_solver.schur_explicit") / n, "s"),
        "schur_solver.apply_s": (total("schur_solver.apply") / n, "s"),
        "schur_solver.apply_calls": (calls("schur_solver.apply") / n, "count"),
        "schur_solver.precond_s": (total("schur_solver.precond") / n, "s"),
        "schur_solver.precond_calls": (calls("schur_solver.precond") / n, "count"),
        "schur_solver.gmres_self_s": (
            sum(self_time[o]["schur_solver.gmres"] for o in per_op) / n, "s"),
        "schur_solver.gmres_iters": (
            statistics.fmean(o.iterations for o in ops) if ops else 0.0, "count"),
        "schur_solver.reconstruct_s": (total("schur_solver.reconstruct") / n, "s"),
        "schur_solver.trace_dofs": (mean_meta("dof_global"), "count"),
        "schur_solver.local_dofs": (mean_meta("dof_local"), "count"),
        "schur_solver.macro_apply_count": (mean_meta("macro_apply"), "count"),
        "schur_solver.face_reduce_count": (mean_meta("face_reduce"), "count"),
        "schur_solver.stored_bytes": (mean_meta("stored_bytes"), "B"),
        "schur_solver.lbf": (mean_meta("lbf"), "ratio"),
        "schur_solver.pool_speedup": (pool_speedup, "ratio"),
        "adaptivity.indicator_s": (total("adaptivity.indicator") / n, "s"),
        "adaptivity.mark_s": (total("adaptivity.mark") / n, "s"),
        "bench.l2_error_s": (total("bench.l2_error") / n, "s"),
        **{k: (v, "ns") for k, v in costs.items()},
        "trace.coverage": (1.0 - uncovered / op_wall if op_wall else 0.0, "ratio"),
        "trace.overhead": (
            statistics.median(o.cpu for o in traced)
            / statistics.median(o.cpu for o in untraced) - 1.0, "ratio"),
    }
    return metrics, flags


def traced_run(wl: Workload, args, make) -> tuple:
    """Untraced pass for half the run, traced replay of the same ops, then a
    traced replay of the first ops at the other worker count for
    pool_speedup."""
    notes = []
    untraced = run_pass(make, n_ops=args.ops, seconds=args.seconds / 2)[0]
    tracer = Tracer()
    t_origin = time.perf_counter()
    install_spans(tracer)
    try:
        traced = run_pass(make, n_ops=len(untraced), tracer=tracer)[0]
    finally:
        tracer.restore()

    k = min(len(untraced), wl.cycle if wl.levels else POOL_OPS)
    other = 1 if wl.workers > 1 else 2
    pool_tracer = Tracer()
    install_spans(pool_tracer)
    try:
        pooled = run_pass(lambda: make(other), n_ops=k, tracer=pool_tracer)[0]
    finally:
        pool_tracer.restore()

    for label, outs in (("traced", traced), (f"workers={other}", pooled)):
        for u, t in zip(untraced, outs):
            if t.ok and (t.digest != u.digest or t.iterations != u.iterations):
                t.ok = False
                t.reason = (f"{label} op differs from untraced op: digest "
                            f"{t.digest} vs {u.digest}, iterations "
                            f"{t.iterations} vs {u.iterations}")
                notes.append(f"op {t.op}: {t.reason}")

    def solve_seconds(tr):
        return sum(t1 - t0 for _, name, t0, t1, _, op in tr.spans
                   if name == "schur_solver.solve" and op < k)

    own, alt = solve_seconds(tracer), solve_seconds(pool_tracer)
    t1, t2 = (own, alt) if wl.workers == 1 else (alt, own)
    speedup = t1 / t2 if t2 else 0.0

    metrics, flags = layer_metrics(wl, tracer, traced, untraced, speedup)
    notes += flags
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{wl.name}-seed{args.seed}.json", t_origin)
    return untraced + traced + pooled, metrics, notes


def versions() -> dict:
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    def make(workers=wl.workers):
        return OpStream(wl, args.seed, workers)

    warm = make().step()
    print(f"READY {time.process_time()!r}", flush=True)
    if args.setup_only:  # timing only; the measuring process reports failures
        return 0

    notes = [] if warm.ok else [f"warm-up op failed: {warm.reason}"]
    info = {}  # printed, not gated
    scale = None
    if args.trace:
        outs, metrics, more = traced_run(wl, args, make)
        notes += more
    else:
        cal = []
        outs, rss = run_pass(make, n_ops=args.ops, seconds=args.seconds, cal=cal)
        metrics, scale, info = end_to_end(outs, cal, rss)
    failed = [o for o in outs if not o.ok]
    notes += [f"op {o.op} (level {o.level}) failed: {o.reason}" for o in failed[:10]]
    ok_l2 = [o.l2 / wl.l2_bound[o.level] for o in outs if o.ok]
    result = {
        "attempted": len(outs),
        "failed": len(failed),
        "correct": warm.ok and not failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": versions(),
        "notes": notes,
        "max_l2_over_bound": max(ok_l2, default=0.0),
        "cal_scale": scale,
        "info": info,
        "ops": [o.row() for o in outs],
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
