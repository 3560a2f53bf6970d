#!/usr/bin/env python3
"""Per-op time and share of op time of named mehdg functions on a workload.

    OPENBLAS_NUM_THREADS=1 python3 tools/phase_share.py ROOT --workload macro-mf --seed 1 --ops 60
    OPENBLAS_NUM_THREADS=1 python3 tools/phase_share.py PARENT CHANGE --workload macro-mf --seed 1 --ops 60

ROOT is the root of a checkout.  Its perfbench/worker.py is imported bound to
its own src/mehdg, as tools/ab_interleave.py does, and the workload's seeded
op stream (worker.OpStream) runs one warm-up op (an adaptive workload: one
cycle), then --ops measured ops.  The functions named in PHASES are replaced
at every module attribute through which they are called, the way perfbench's
span tracer wraps them, by wrappers that add up the calling thread's CPU
time.  Every PHASES function runs on the calling thread, so its time is set
against the op's process CPU time, which also counts the thread pool of a
multi-worker workload.  Times are inclusive: sub_cell_quadrature is also
counted inside _volume_load and l2_error, _apply_cab inside gmres, and
_sub_cell_tables inside the assembly.  With --repeats R the measured ops run
R times, each time on a new stream, and every figure is the median over the
repeats.

With two roots, PARENT and CHANGE, both checkouts run side by side in this
process, each with its own wrappers.  Their measured ops run in alternating
blocks, as in tools/ab_interleave.py: one adaptive cycle, or OPS_PER_BLOCK
uniform ops, and which side goes first alternates from block to block, so a
drift in machine speed hits both sides alike.

It prints one JSON object: the op CPU time per op, and per phase its calls
per op, CPU ms per op and share of the op CPU time.  With two roots these
are given per side, under "sides", with the CHANGE / PARENT ratios of the
op CPU time and of each phase's ms per op.
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
from ab_interleave import load_worker, run_block  # noqa: E402

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
    ("schur_solver", "condense"),
    ("schur_solver", "assemble_schur_explicit"),
    ("schur_solver", "gmres"),
    ("schur_solver", "_apply_cab"),
    ("assembly", "assemble_classes"),
    ("mesh", "_match_edges"),
)

# uniform ops per block of the two-root mode, as tools/ab_interleave.py's
# default --ops-per-block
OPS_PER_BLOCK = 6


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


def measure(sides: dict, wl, seed: int, n_ops: int, block: int) -> dict:
    """Per side (tag: (worker, timer)), the op CPU ms per op and the
    per-phase totals over n_ops ops of a new stream, after one warm-up op or
    cycle.  The sides' ops run in alternating blocks of `block` ops."""
    streams = {tag: worker.OpStream(wl, seed, wl.workers) for tag, (worker, _) in sides.items()}
    for stream in streams.values():
        for _ in range(wl.cycle if wl.levels else 1):
            stream.step()
    for _, timer in sides.values():
        timer.reset()
    cpu, passed = dict.fromkeys(sides, 0.0), dict.fromkeys(sides, 0)
    tags = list(sides)
    for b, done in enumerate(range(0, n_ops, block)):
        for tag in (tags if b % 2 == 0 else tags[::-1]):
            seconds, _, ok, _ = run_block(streams[tag], min(block, n_ops - done))
            cpu[tag] += seconds
            passed[tag] += ok
    out = {}
    for tag, (_, timer) in sides.items():
        op_cpu = cpu[tag] / n_ops
        out[tag] = {"op_cpu_ms": 1e3 * op_cpu, "passed": passed[tag],
                    "phases": {name: {"calls_per_op": timer.calls[name] / n_ops,
                                      "ms_per_op": 1e3 * timer.seconds[name] / n_ops,
                                      "share": timer.seconds[name] / n_ops / op_cpu}
                               for name in timer.seconds}}
    return out


def summary(runs: list, root: Path) -> dict:
    """One side's repeats: the medians of every figure."""
    def med(get):
        return statistics.median(get(r) for r in runs)

    return {
        "root": str(root.resolve()),
        "passed": [r["passed"] for r in runs],
        "op_cpu_ms": med(lambda r: r["op_cpu_ms"]),
        "phases": {name: {key: med(lambda r: r["phases"][name][key])
                          for key in ("calls_per_op", "ms_per_op", "share")}
                   for name in runs[0]["phases"]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", type=Path, nargs="+", metavar="ROOT",
                    help="one checkout, or PARENT and CHANGE")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=60)
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args(argv)
    if len(args.roots) > 2:
        ap.error("give one root, or two: PARENT CHANGE")
    if args.ops < 1 or args.repeats < 1:
        ap.error("--ops and --repeats must be at least 1")

    tags = ("phase",) if len(args.roots) == 1 else ("parent", "change")
    sides = {}
    for tag, root in zip(tags, args.roots):
        worker = load_worker(root.resolve(), tag)
        if args.workload not in worker.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}")
        wl = worker.WORKLOADS[args.workload]
        sides[tag] = (worker, PhaseTimer())
        install(f"_ab_{tag}_mehdg", sides[tag][1])
    block = wl.cycle if wl.levels else OPS_PER_BLOCK
    runs = [measure(sides, wl, args.seed, args.ops, block) for _ in range(args.repeats)]
    result = {"workload": args.workload, "seed": args.seed, "ops": args.ops,
              "repeats": args.repeats}
    side = {tag: summary([r[tag] for r in runs], root) for tag, root in zip(tags, args.roots)}
    if len(tags) == 1:
        result.update(side["phase"])
    else:
        parent, change = side["parent"], side["change"]
        ratio = {}
        for name, phase in parent["phases"].items():
            ms = phase["ms_per_op"]
            ratio[name] = change["phases"][name]["ms_per_op"] / ms if ms else None
        result.update({"ops_per_block": block, "sides": side,
                       "op_cpu_ratio": change["op_cpu_ms"] / parent["op_cpu_ms"],
                       "ms_per_op_ratio": ratio})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
