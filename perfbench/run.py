"""Benchmark of the nearone CLI: one run of one workload, from a source checkout.

    python3 perfbench/run.py --workload inv-zeta --seed 1 --seconds 30 --trace 0

Measures set-up (interpreter start until nearone.cli is imported, in fresh
interpreters), then runs the workload in a fresh worker process (worker.py)
for --seconds, checks its outputs against computations made apart from the
program (checks.py), and prints one JSON object as the last line of stdout.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it wraps
the program's public functions (tracing.py) and reports per-layer metrics.

The program runs as shipped: NEARONE_WORKERS and BLAS thread settings are
removed from its environment, so it uses one worker and OpenBLAS's default
threads.  Exits 2 without a result when there is no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5        # before the workload, and as many after it
DEADLINE_S = 170.0        # a run must end within 180 s
CHECK_BUDGET_S = 25.0     # kept free for the output checks

_UNSET = ("NEARONE_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
          "MKL_NUM_THREADS", "PYTHONPATH")
_IMPORT_PROBE = "import nearone.cli, sys; sys.stdout.write('1'); sys.stdout.flush()"


class BenchError(Exception):
    pass


def program_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _UNSET}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(env: dict) -> float:
    """Wall time from starting an interpreter until nearone.cli is imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        ready = proc.stdout.read(1)
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
    if proc.returncode != 0 or ready != b"1":
        raise BenchError(f"importing nearone.cli failed: {err.decode()[-500:]}")
    return elapsed


def rounds_repeat_counts(trace: dict) -> list[str]:
    """Names of exact counts that differ between rounds of one run."""
    rounds = trace["round_counts"]
    return [name for name in tracing.EXACT_COUNTS
            if len({r.get(name, 0) for r in rounds}) > 1]


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> tuple[dict, list, list]:
    """One run: the result object, the (check, ok, detail) list and notes."""
    started = time.perf_counter()
    if not (SRC / "nearone" / "cli.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'nearone'} is missing")
    env = program_env()
    repeats = 1 if tiny else SETUP_REPEATS
    setup = [setup_seconds(env) for _ in range(repeats)]

    out_dir = OUT / f"{workload}{'-tiny' if tiny else ''}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--out", str(out_dir)]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny
    budget = DEADLINE_S - CHECK_BUDGET_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=env, timeout=budget,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {budget:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.decode()[-2000:]}")
    result = json.loads((out_dir / "result.json").read_text())

    found = checks.check(workload, seed, result["operations"], out_dir, tiny)
    # the host's speed drifts over tens of seconds: sample set-up on both
    # sides of the workload rather than in one burst
    setup += [setup_seconds(env) for _ in range(repeats)]
    found.append(("rounds-identical", not result["mismatches"],
                  f"{len(result['rounds'])} rounds; outputs differing between "
                  f"rounds: {result['mismatches'] or 'none'}"))
    notes = [f"set-up s: {', '.join(f'{s:.3f}' for s in setup)}",
             "round wall s: " + ", ".join(f"{r['wall_s']:.3f}" for r in result["rounds"]),
             "round cpu s: " + ", ".join(f"{r['cpu_s']:.3f}" for r in result["rounds"])]
    if trace:
        metrics = tracing.layer_metrics(result["trace"], result["import_s"])
        varying = rounds_repeat_counts(result["trace"])
        found.append(("counts-repeat", not varying,
                      f"counts differing between rounds: {varying or 'none'}; "
                      f"missing names: {result['trace']['missing'] or 'none'}"))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in result["rounds"]),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in result["rounds"]),
                      "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    summary = {
        "correct": all(ok for _, ok, _ in found),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return summary, found, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        summary, found, notes = run_benchmark(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, ok, detail in found:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    for note in notes:
        print(f"INFO {note}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
