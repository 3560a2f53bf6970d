#!/usr/bin/env python3
"""Benchmark of the mehdg solver on three seeded, closed-loop workloads.

    python3 perfbench/run.py --workload hdg-mb --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in its own process with
OPENBLAS_NUM_THREADS=1 (worker.py), against mehdg imported from src/.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer ones
from a traced replay of the same ops.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Per-run
records (seed, versions, per-op rows) and span dumps go to perfbench/out/.

--ops N is the few-op mode of the self-test: N measured ops and a single
set-up, whatever --seconds says.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("hdg-mb", "macro-mf", "adapt-supg")
HELD_OUT_SEED = 910917  # kept out of tuning; confirm claims on it
SETUP_RUNS = 3  # fresh processes per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, set-up included
BLAS_THREADS = "1"


class WorkerError(RuntimeError):
    pass


def run_worker(args: list, deadline: float) -> tuple:
    """Start worker.py; return (its set-up CPU time, the wall time until it
    printed READY, the rest of its stdout)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = ready.split()
    if len(words) != 2 or words[0] != "READY" or code != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    return float(words[1]), setup, rest


def source_record() -> dict:
    """Commit (when the checkout is a git repository) and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None,
                    help="few-op mode: N measured ops and one set-up")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mehdg" / "__init__.py").is_file():
        print(f"perfbench: no mehdg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        print("perfbench: --seconds and --ops must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.ops is not None:
        worker_args += ["--ops", str(args.ops)]
    # set-up is timed in fresh processes; the last one goes on to measure
    n_setup = 1 if (args.trace or args.ops is not None) else SETUP_RUNS
    setups, setup_walls = [], []  # CPU and wall time per fresh process
    try:
        for _ in range(n_setup):
            last = len(setups) == n_setup - 1
            cpu, wall, out = run_worker(
                worker_args + ([] if last else ["--setup-only"]), deadline)
            setups.append(cpu)
            setup_walls.append(wall)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        print("perfbench: worker printed no result", file=sys.stderr)
        return 1
    res = json.loads(lines[-1][len("RESULT "):])
    if not args.trace:
        res["info"]["setup_cpu_s"] = statistics.median(setups)
        # set-up ran seconds before the measured ops: scale it as they are
        res["metrics"]["setup_s"] = {
            "value": statistics.median(setups) / res["cal_scale"], "unit": "s"}

    record = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, **source_record(),
        "python": platform.python_version(), **res.pop("record"),
        "nproc": os.cpu_count(), "openblas_num_threads": BLAS_THREADS,
        "setup_samples_s": setups, "setup_wall_samples_s": setup_walls,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"record": record, **res}, fh, indent=1)

    print(f"record: {json.dumps(record)}")
    print(f"{args.workload}: {res['attempted']} ops, {res['failed']} failed, "
          f"fail_frac {res['failed'] / res['attempted']:.4g}, "
          f"max L2/bound {res['max_l2_over_bound']:.3f}")
    for name, value in res["info"].items():
        print(f"info: {name} {value:.6g}")
    for note in res["notes"]:
        print(f"note: {note}")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"], "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
