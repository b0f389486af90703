"""Quick self-check of the benchmark itself, in well under a minute.

    python3 perfbench/selfcheck.py

Runs every workload on tiny inputs (a 20-wide inv-zeta slice, a 10^6 sieve,
the cheap headline operations with 40 verifier samples), untraced and
traced, through the same harness, output checks and metric code as the real
runs.  It checks the result objects against BENCHMARK.json, then checks
that a directory holding only the benchmark, with no program, exits
non-zero without printing a result.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import workloads


def _result_problems(summary: dict, want_units: dict,
                     failing: int, per_round: int) -> list:
    problems = []
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(summary)}")
    if not summary["correct"]:
        problems.append("outputs failed their checks")
    if summary["failed"] * per_round != failing * summary["attempted"]:
        problems.append(f"{summary['failed']} of {summary['attempted']} failed")
    units = {name: m["unit"] for name, m in summary["metrics"].items()}
    if units != want_units:
        problems.append(f"metrics {units} differ from BENCHMARK.json")
    for name, m in summary["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name} = {m['value']!r}")
    return problems


def check_bare_directory() -> list:
    """A copy of BENCHMARK.json and the benchmark alone must fail cleanly."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / run.HERE.name).mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / run.HERE.name)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "headline",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for workload in workloads.WORKLOADS:
        ops = workloads.operations(workload, 1, "panels.csv", tiny=True)
        failing = sum(op in workloads.EXPECTED_FAILURES for op in ops)
        for trace in (False, True):
            summary, found, _ = run.run_benchmark(workload, 1, 1.0, trace, tiny=True)
            found_bad = [f"{name}: {detail}" for name, ok, detail in found if not ok]
            bad = found_bad + _result_problems(summary, units[trace], failing,
                                               len(ops))
            print(f"{'FAIL' if bad else 'ok  '} {workload} trace={int(trace)}: "
                  f"{summary['attempted']} attempted, {summary['failed']} failed, "
                  f"{len(found)} checks", flush=True)
            problems += [f"{workload} trace={int(trace)}: {p}" for p in bad]
    problems += check_bare_directory()
    print(f"{'ok  ' if not problems else 'FAIL'} bare directory exits non-zero")
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
