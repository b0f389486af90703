#!/usr/bin/env python3
"""Before/after timings of two source trees on one benchmark workload.

Usage: python scripts/bench_zeta.py PARENT_SRC CHANGE_SRC [--workload W] [--pairs N]

PARENT_SRC and CHANGE_SRC are directories holding the `nearone` package
(the `src/` of two checkouts).  For each tree, in a fresh interpreter with
PYTHONPATH set to it, the script first runs the workload's probe:

- `inv-zeta` (the default; written to BENCH_zeta.json): the zeta engine at
  t = 1e2, 1e3, 1e4 and 3e4, as a 257-point batch `inv_abs_zeta_many(0.98,
  ts)` over ts in [t - 10, t], the integral's path, and as the verifier's
  path: one chunk of as many points as the verifier's cap on points x N
  allows, heights in [t - 10, t] and sigma spread over [0.95, 1.13], with
  the derivative at abs_tol = 1e-6.  A tree whose engine has no per-point
  sigma batch (`zeta_points`) evaluates the chunk as the verifier then
  did, one `zeta_with_prime` call per point.  Each row gives the
  truncation point N, the number of correction terms added and the median
  microseconds per point.  Correction terms are counted by swapping the
  engine's Bernoulli table `_BFAC` for a tuple that remembers the highest
  entry read.
- `headline` (written to BENCH_headline.json): the in-process seconds of
  `verify --samples 2000`, its costliest operation, over three calls of
  `nearone.cli.main`.

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

ENGINE_PROBE = """
import json, statistics, sys, time
import numpy as np
import nearone.zeta as z


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


def terms_added(fn):
    plain, z._BFAC = z._BFAC, Counting(z._BFAC)
    try:
        fn()
        return z._BFAC.top
    finally:
        z._BFAC = plain


CHUNK_ELEMENTS = 1 << 17       # nearone.verifier.CHUNK_ELEMENTS
points_call = getattr(z, "zeta_points", None)


def verifier_path(sigmas, ts):
    # evaluate the chunk as the verifier does; return its truncation point N
    if points_call is None:
        return max(z.zeta_with_prime(complex(s, t), abs_tol=1e-6)[0].terms_used
                   for s, t in zip(sigmas, ts))
    return points_call(sigmas, ts, abs_tol=1e-6, with_prime=True)[4]


rows = []
for t in HEIGHTS:
    ts = np.linspace(t - 10.0, t, 257)
    batch = lambda: z.inv_abs_zeta_many(0.98, ts)
    n_chunk = max(1, CHUNK_ELEMENTS // z.zeta_many(0.98, [t], 1e-6)[2])
    chunk_ts = np.linspace(t - 10.0, t, n_chunk)
    chunk_sigmas = np.linspace(0.95, 1.13, n_chunk)
    chunk = lambda: verifier_path(chunk_sigmas, chunk_ts)
    rows.append({
        "t": t,
        "batch": {"points": len(ts), "N": int(z.zeta_many(0.98, ts[-1:], 1e-6)[2]),
                  "correction_terms": terms_added(batch),
                  "us_per_point": round(median_us(batch, 7, len(ts)), 3)},
        "verifier": {"points": n_chunk, "N": int(chunk()),
                     "correction_terms": terms_added(chunk),
                     "us_per_point": round(median_us(chunk, 7, n_chunk), 3)},
    })
json.dump(rows, sys.stdout)
"""


CLI_PROBE = """
import contextlib, io, json, statistics, sys, time
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
           "median_s": round(statistics.median(seconds), 4)}, sys.stdout)
"""

# per workload: the report file, the probe's key in it and the probe
WORKLOADS = {
    "inv-zeta": ("BENCH_zeta.json", "engine",
                 f"HEIGHTS = {HEIGHTS!r}\n{ENGINE_PROBE}"),
    "headline": ("BENCH_headline.json", "verify",
                 f"ARGV = {['verify', '--samples', '2000']!r}\n{CLI_PROBE}"),
}


def probe(src: Path, code: str):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


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
    out_name, probe_key, probe_code = WORKLOADS[args.workload]
    report = {
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        probe_key: {side: probe(src, probe_code) for side, src in trees.items()},
    }
    if args.pairs > 0:
        report[args.workload.replace("-", "_")] = workload_pairs(
            trees, args.workload, args.pairs)
    (ROOT / out_name).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
