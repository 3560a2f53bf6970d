#!/usr/bin/env python3
"""Self-test of the benchmark, in few-op mode.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs run.py with --trace 0 and
--trace 1 on a few ops, and --trace 0 again on the held-out seed.  Each run
must exit 0 and end with the result object: correct, no failed op, and every
metric that BENCHMARK.json names for that trace mode, with its unit and a
finite value.  Traced runs must also cover at least 95% of op time with
spans.  Last, run.py must refuse to run (non-zero exit, no result) from a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import HELD_OUT_SEED  # noqa: E402

SEED = 1
TIMEOUT_S = 300


def few_ops(workload: str) -> int:
    # the adaptive workload gets one whole cycle plus the restart
    return 7 if workload == "adapt-supg" else 2


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--ops", str(few_ops(workload))]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(proc, expected: dict, label: str) -> list:
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{label}: last line is not a JSON object"]
    errors = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{label}: result keys {sorted(res)}")
        return errors
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errors.append(f"{label}: correct={res['correct']} failed={res['failed']} "
                      f"attempted={res['attempted']}")
    got = res["metrics"]
    if set(got) != set(expected):
        errors.append(f"{label}: missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            errors.append(f"{label}: {name} unit {m.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{label}: {name} value {value!r}")
    coverage = got.get("trace.coverage", {}).get("value")
    if coverage is not None and not coverage >= 0.95:
        errors.append(f"{label}: trace.coverage {coverage} < 0.95")
    return errors


def check_bare_directory() -> list:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy2(path, bare / "perfbench")
        proc = run("hdg-mb", SEED, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit code {proc.returncode}, last line {last[0]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for wl in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((SEED, 0), (SEED, 1), (HELD_OUT_SEED, 0)):
            label = f"{wl} seed={seed} trace={trace}"
            found = check_result(run(wl, seed, trace), wanted[trace], label)
            print(f"{'FAIL' if found else 'ok  '} {label}", flush=True)
            errors += found
    found = check_bare_directory()
    print(f"{'FAIL' if found else 'ok  '} refuses to run without the sources")
    errors += found
    for err in errors:
        print(err, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
