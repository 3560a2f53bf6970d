#!/usr/bin/env python3
"""Per-op time and share of op time of named mehdg functions on a workload.

    OPENBLAS_NUM_THREADS=1 python3 tools/phase_share.py ROOT --workload macro-mf --seed 1 --ops 60

ROOT is the root of a checkout.  Its perfbench/worker.py is imported bound to
its own src/mehdg, as tools/ab_interleave.py does, and the workload's seeded
op stream (worker.OpStream) runs one warm-up op (an adaptive workload: one
cycle), then --ops measured ops.  The functions named in PHASES are replaced
at every module attribute through which they are called, the way perfbench's
span tracer wraps them, by wrappers that add up the calling thread's CPU
time.  Every PHASES function runs on the calling thread, so its time is set
against the op's process CPU time, which also counts the thread pool of a
multi-worker workload.  Times are inclusive: sub_cell_quadrature is also
counted inside _volume_load and l2_error, and _sub_cell_tables inside the
assembly.  With --repeats R the measured ops run R times, each time on a new
stream, and every figure is the median over the repeats.

It prints one JSON object: the op CPU time per op, and per phase its calls
per op, CPU ms per op and share of the op CPU time.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_interleave import load_worker  # noqa: E402

# (module, attribute) of each timed function in the mehdg package
PHASES = (
    ("mesh", "build_structured_macro_mesh"),
    ("mesh", "refine_macros"),
    ("mesh", "sub_cell_quadrature"),
    ("mesh", "sub_cell_jacobians"),
    ("assembly", "_sub_cell_tables"),
    ("assembly", "_volume_load"),
    ("bench", "l2_error"),
    ("adaptivity", "error_indicator"),
    ("schur_solver", "coarse_space"),
)


class PhaseTimer:
    """Thread CPU seconds and calls per wrapped function."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}

    def wrap(self, name: str, fn):
        self.seconds[name], self.calls[name] = 0.0, 0

        def timed(*args, **kwargs):
            t0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.thread_time() - t0
                self.calls[name] += 1

        return timed

    def reset(self) -> None:
        for name in self.seconds:
            self.seconds[name], self.calls[name] = 0.0, 0


def install(pkg: str, timer: PhaseTimer) -> None:
    """Wrap each PHASES function at every attribute of the package's modules
    bound to it (its defining module and the modules that import it)."""
    modules = [mod for key, mod in sys.modules.items() if key.startswith(pkg + ".")]
    for module, attr in PHASES:
        fn = getattr(sys.modules[f"{pkg}.{module}"], attr)
        timed = timer.wrap(attr, fn)
        for mod in modules:
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, timed)


def measure(worker, wl, seed: int, n_ops: int, timer: PhaseTimer) -> dict:
    """Op CPU seconds per op and the per-phase totals over n_ops ops of a
    new stream, after one warm-up op or cycle."""
    stream = worker.OpStream(wl, seed, wl.workers)
    for _ in range(wl.cycle if wl.levels else 1):
        stream.step()
    timer.reset()
    gc.collect()
    c0 = time.process_time()
    outs = [stream.step() for _ in range(n_ops)]
    op_cpu = (time.process_time() - c0) / n_ops
    return {"op_cpu_ms": 1e3 * op_cpu, "passed": sum(o.ok for o in outs),
            "phases": {name: {"calls_per_op": timer.calls[name] / n_ops,
                              "ms_per_op": 1e3 * timer.seconds[name] / n_ops,
                              "share": timer.seconds[name] / n_ops / op_cpu}
                       for name in timer.seconds}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=60)
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)
    if args.ops < 1 or args.repeats < 1:
        ap.error("--ops and --repeats must be at least 1")

    worker = load_worker(args.root.resolve(), "phase")
    if args.workload not in worker.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    wl = worker.WORKLOADS[args.workload]
    timer = PhaseTimer()
    install("_ab_phase_mehdg", timer)
    runs = [measure(worker, wl, args.seed, args.ops, timer) for _ in range(args.repeats)]

    def med(get):
        return statistics.median(get(r) for r in runs)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "root": str(args.root.resolve()),
        "ops": args.ops, "repeats": args.repeats,
        "passed": [r["passed"] for r in runs],
        "op_cpu_ms": med(lambda r: r["op_cpu_ms"]),
        "phases": {name: {key: med(lambda r: r["phases"][name][key])
                          for key in ("calls_per_op", "ms_per_op", "share")}
                   for name in timer.seconds},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
