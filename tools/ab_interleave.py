#!/usr/bin/env python3
"""Interleaved A/B timing of two checkouts in one process.

    python3 tools/ab_interleave.py PARENT CHANGE --workload adapt-supg --seed 1 --blocks 120

PARENT and CHANGE are roots of two checkouts (the same path twice gives an
A/A control).  Each checkout's perfbench/worker.py is imported bound to its
own src/mehdg, loaded under a private package name, so both run side by side
in this process on the same numpy, scipy and BLAS (run it with
OPENBLAS_NUM_THREADS=1, as perfbench does).  Both sides step the same seeded
op stream (worker.OpStream) in blocks of whole ops: one adaptive cycle, or
--ops-per-block uniform ops.  The blocks alternate, and which side goes first
alternates from block to block, so a drift in machine speed hits both sides
alike; garbage is collected before each block, outside the timed region.

It prints one JSON object: the per-block CPU-time ratio CHANGE / PARENT
(median, quartiles, and the blocks in which CHANGE was faster), each side's
median block CPU time, and each side's iteration total and passed-op count.
It exits 1 when the two sides' iteration totals or pass counts differ.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path


def _load(name: str, path: Path, package_dir: Path = None):
    spec = importlib.util.spec_from_file_location(
        name, path,
        submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_worker(root: Path, tag: str):
    """root's perfbench/worker.py, with `mehdg` and `spans` resolved to
    root's own copies while it is imported.  mehdg is loaded as the package
    _ab_<tag>_mehdg, so its relative imports stay inside that copy; the
    `mehdg` and `spans` names are released again afterwards."""
    pkg = f"_ab_{tag}_mehdg"
    _load(pkg, root / "src" / "mehdg" / "__init__.py", root / "src" / "mehdg")
    aliases = {"mehdg": sys.modules[pkg]}
    aliases.update({"mehdg" + key[len(pkg):]: mod for key, mod in sys.modules.items()
                    if key.startswith(pkg + ".")})
    aliases["spans"] = _load(f"_ab_{tag}_spans", root / "perfbench" / "spans.py")
    saved_path = list(sys.path)
    clashes = set(aliases) & set(sys.modules)
    if clashes:
        raise RuntimeError(f"modules already imported: {sorted(clashes)}")
    sys.modules.update(aliases)
    try:
        return _load(f"_ab_{tag}_worker", root / "perfbench" / "worker.py")
    finally:
        for key in aliases:
            del sys.modules[key]
        sys.path[:] = saved_path


def run_block(stream, n_ops: int) -> tuple:
    """CPU seconds, iterations and passed ops of the stream's next n_ops."""
    gc.collect()
    c0 = time.process_time()
    outs = [stream.step() for _ in range(n_ops)]
    cpu = time.process_time() - c0
    return cpu, sum(o.iterations for o in outs), sum(o.ok for o in outs)


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--blocks", type=int, default=120)
    ap.add_argument("--ops-per-block", type=int, default=6,
                    help="ops per block of a uniform workload (adaptive: one cycle)")
    args = ap.parse_args(argv)
    if args.blocks < 2 or args.ops_per_block < 1:
        ap.error("--blocks must be at least 2 and --ops-per-block at least 1")

    sides = {}
    for tag, root in (("parent", args.parent), ("change", args.change)):
        worker = load_worker(root.resolve(), tag)
        if args.workload not in worker.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}")
        wl = worker.WORKLOADS[args.workload]
        sides[tag] = worker.OpStream(wl, args.seed, wl.workers)
    n_ops = wl.cycle if wl.levels else args.ops_per_block

    for stream in sides.values():  # warm-up block: lazy caches, first-call costs
        run_block(stream, n_ops)
    cpu = {tag: [] for tag in sides}
    iters = dict.fromkeys(sides, 0)
    passed = dict.fromkeys(sides, 0)
    for b in range(args.blocks):
        for tag in (("parent", "change") if b % 2 == 0 else ("change", "parent")):
            seconds, it, ok = run_block(sides[tag], n_ops)
            cpu[tag].append(seconds)
            iters[tag] += it
            passed[tag] += ok

    ratios = [c / p for c, p in zip(cpu["change"], cpu["parent"])]
    q1, med, q3 = quartiles(ratios)
    agree = iters["parent"] == iters["change"] and passed["parent"] == passed["change"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "parent": str(args.parent.resolve()), "change": str(args.change.resolve()),
        "blocks": args.blocks, "ops_per_block": n_ops,
        "ratio_median": med, "ratio_q1": q1, "ratio_q3": q3,
        "change_faster_blocks": sum(r < 1.0 for r in ratios),
        "block_cpu_s_median": {t: statistics.median(v) for t, v in cpu.items()},
        "iterations": iters, "passed": passed, "attempted": args.blocks * n_ops,
        "agree": agree,
    }))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
