#!/usr/bin/env python3
"""Before/after timings of two source trees on one benchmark workload.

Usage: python scripts/bench_zeta.py PARENT_SRC CHANGE_SRC [--workload W] [--pairs N]

PARENT_SRC and CHANGE_SRC are directories holding the `nearone` package
(the `src/` of two checkouts).  The script first runs the workload's probe
in interpreters with PYTHONPATH set to each tree:

- `inv-zeta` (the default; written to BENCH_zeta.json): the zeta engine at
  t = 1e2, 1e3, 1e4 and 3e4, through the integral's path `inv_abs_zeta_many
  (0.98, ts)` on three batches: `batch`, 257 points `np.linspace(t - 10, t)`
  (step 10/256, an exact progression); `progression`, one Romberg level of
  the panel [t - 10, t], the K = 128 nodes t - 10 + h (1, 3, ..., 255) with
  h = 10/256; and `descending`, the `batch` heights in descending order,
  which the engine's rule sends to blocks of one point (unfactored), as a
  control.  Then through the verifier's path: one chunk of the verifier's
  CHUNK_SAMPLES points, heights in [t - 10, t] and sigma spread over
  [0.95, 1.13] (`zeta_points`), with the derivative at abs_tol = 1e-6.
  Last, `level-run`: one Romberg level over a run of 50 adjacent panels of
  width 10 from 11020, 128 new nodes each (K = 6400), the integrand call
  that `integrate inv-zeta --from 11020 --to 11520` makes at its deepest
  common level.  Each row gives the truncation point N, the number of
  correction terms added and microseconds per point, the median of 7
  calls.  N is read off the return value of the engine's one pass
  `_evaluate`, through a spy; correction terms are counted by swapping the
  engine's Bernoulli table `_BFAC` for a tuple that remembers the highest
  entry read.  The engine probe starts
  one interpreter per tree and asks both for each row in turn, so the two
  trees time a row back to back.
- `headline` (written to BENCH_headline.json): the in-process seconds of
  `verify --samples 2000`, its costliest operation, over three calls of
  `nearone.cli.main`, and the interpreter's peak RSS (ru_maxrss).
- `sieve-1e8` (written to BENCH_sieve.json): the same for
  `mertens sieve-verify --limit 100000000`.  The two command probes run in
  a fresh interpreter per round, so the peak RSS is one round's.

Every probe runs PROBE_ROUNDS times per tree, alternating which tree goes
first, and every float it reports is the median of its rounds' values, so a
busy stretch of a shared host skews one round, not a whole tree.

With --pairs N > 0 (default 10) it then runs the workload N times on each
tree, `perfbench/run.py --workload W --seed i --seconds 30 --trace 0` from
the checkout that holds each src, alternating which tree runs first, and
records every run with the medians and quartiles of each side and the
pairs the change won on wall time.  The result goes to the workload's
BENCH file at the root of this repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEIGHTS = (1e2, 1e3, 1e4, 3e4)
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
RUN_SECONDS = 30         # the benchmark's run length (BENCHMARK.json)
PROBE_ROUNDS = 3

# A probe defines ROWS, row name -> function returning that row's JSON
# object; it prints the names, then answers one row per line of stdin.
SERVE = """
print(json.dumps(list(ROWS)), flush=True)
for line in sys.stdin:
    print(json.dumps(ROWS[line.strip()]()), flush=True)
"""

ENGINE_PROBE = """
import functools, json, statistics, sys, time
import numpy as np
import nearone.zeta as z
from nearone.verifier import CHUNK_SAMPLES


class Counting(tuple):
    top = -1

    def __getitem__(self, i):
        self.top = max(self.top, i)
        return tuple.__getitem__(self, i)


def median_us(fn, repeats, points):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / points * 1e6


# N and the correction terms added in the engine pass fn makes: N from
# the return value of _evaluate, the terms from the highest entry of the
# Bernoulli table read
def engine_choices(fn):
    plain, bfac, seen = z._evaluate, z._BFAC, []

    def spy(*args):
        out = plain(*args)
        seen.append(int(out[4]))
        return out

    z._evaluate, z._BFAC = spy, Counting(bfac)
    try:
        fn()
        return {"N": seen[-1], "correction_terms": z._BFAC.top}
    finally:
        z._evaluate, z._BFAC = plain, bfac


LEVEL = 10.0 / 256 * np.arange(1, 256, 2.0)     # a level's offsets in a panel


def batch_row(ts):
    batch = lambda: z.inv_abs_zeta_many(0.98, ts)
    return {"points": len(ts), **engine_choices(batch),
            "us_per_point": round(median_us(batch, 7, len(ts)), 3)}


def verifier_row(t):
    chunk_ts = np.linspace(t - 10.0, t, CHUNK_SAMPLES)
    chunk_sigmas = np.linspace(0.95, 1.13, CHUNK_SAMPLES)
    chunk = lambda: z.zeta_points(chunk_sigmas, chunk_ts, abs_tol=1e-6,
                                  with_prime=True)
    return {"points": CHUNK_SAMPLES, **engine_choices(chunk),
            "us_per_point": round(median_us(chunk, 7, CHUNK_SAMPLES), 3)}


ROWS = {}
for t in HEIGHTS:
    ts = np.linspace(t - 10.0, t, 257)
    ROWS[f"batch t={t:g}"] = functools.partial(batch_row, ts)
    ROWS[f"progression t={t:g}"] = functools.partial(batch_row, t - 10.0 + LEVEL)
    ROWS[f"descending t={t:g}"] = functools.partial(batch_row, ts[::-1])
    ROWS[f"verifier t={t:g}"] = functools.partial(verifier_row, t)
ROWS["level-run"] = functools.partial(
    batch_row, (11020.0 + 10.0 * np.arange(50)[:, None] + LEVEL).ravel())
"""


CLI_PROBE = """
import contextlib, io, json, resource, statistics, sys, time
import nearone.cli as cli

seconds = []
for _ in range(3):
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(ARGV)
    seconds.append(time.perf_counter() - start)
    if code != 0:
        sys.exit(f"{ARGV} exited {code}")
json.dump({"command": " ".join(ARGV), "seconds": [round(s, 4) for s in seconds],
           "median_s": round(statistics.median(seconds), 4),
           "peak_rss_mb": round(
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)},
          sys.stdout)
"""


def probe(src: Path, code: str):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def median_leaves(results: list):
    """One probe result from several rounds': each float is their median;
    every other entry is taken from the first round."""
    first = results[0]
    if isinstance(first, dict):
        return {k: median_leaves([r[k] for r in results]) for k in first}
    if isinstance(first, list):
        return [median_leaves(list(col)) for col in zip(*results)]
    return statistics.median(results) if isinstance(first, float) else first


def probe_rounds(trees: dict, code: str) -> dict:
    """Each tree's probe, PROBE_ROUNDS times in a fresh interpreter,
    alternating which goes first."""
    results = {side: [] for side in trees}
    for i in range(PROBE_ROUNDS):
        for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            results[side].append(probe(trees[side], code))
    return {side: median_leaves(runs) for side, runs in results.items()}


def row_rounds(trees: dict, code: str) -> dict:
    """Every row of a SERVE probe, PROBE_ROUNDS times per tree: one probe
    process per tree, the two trees timing each row back to back, and
    alternating which goes first."""
    procs = {side: subprocess.Popen(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for side, src in trees.items()}
    try:
        rows = [json.loads(proc.stdout.readline()) for proc in procs.values()][0]
        results = {side: {row: [] for row in rows} for side in trees}
        for i in range(PROBE_ROUNDS):
            for row in rows:
                for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                    procs[side].stdin.write(row + "\n")
                    procs[side].stdin.flush()
                    line = procs[side].stdout.readline()
                    if not line:
                        raise SystemExit(f"{side} probe stopped at row {row!r}")
                    results[side][row].append(json.loads(line))
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    return {side: {row: median_leaves(runs) for row, runs in by_row.items()}
            for side, by_row in results.items()}


# per workload: the report file, the probe's key in it, how the probe
# runs and its code
WORKLOADS = {
    "inv-zeta": ("BENCH_zeta.json", "engine", row_rounds,
                 f"HEIGHTS = {HEIGHTS!r}\n{ENGINE_PROBE}{SERVE}"),
    "headline": ("BENCH_headline.json", "verify", probe_rounds,
                 f"ARGV = {['verify', '--samples', '2000']!r}\n{CLI_PROBE}"),
    "sieve-1e8": ("BENCH_sieve.json", "sieve_verify", probe_rounds,
                  f"ARGV = {['mertens', 'sieve-verify', '--limit', '100000000']!r}"
                  f"\n{CLI_PROBE}"),
}


def workload_run(src: Path, workload: str, seed: int) -> dict:
    """One benchmark run of the workload from the checkout holding src."""
    run_py = src.parent / "perfbench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed",
         str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=src.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{run_py} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            **{m: summary["metrics"][m]["value"] for m in METRICS}}


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def workload_pairs(trees: dict, workload: str, pairs: int) -> dict:
    runs = []
    for seed in range(1, pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = workload_run(trees[side], workload, seed)
            print(f"{workload} seed {seed} {side}: wall {run[side]['wall_s']:.3f} s",
                  file=sys.stderr)
        runs.append(run)
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed i "
                   f"--seconds {RUN_SECONDS} --trace 0",
        "runs": runs,
        **{side: {m: spread([r[side][m] for r in runs]) for m in METRICS}
           for side in trees},
        "change_faster_wall_s": sum(r["change"]["wall_s"] < r["parent"]["wall_s"]
                                    for r in runs),
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="inv-zeta")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
    out_name, probe_key, rounds, probe_code = WORKLOADS[args.workload]
    report = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        probe_key: rounds(trees, probe_code),
    }
    if args.pairs > 0:
        report[args.workload.replace("-", "_")] = workload_pairs(
            trees, args.workload, args.pairs)
    (ROOT / out_name).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
