"""Run one workload in a fresh interpreter and write what it measured.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Imports
nearone.cli, then repeats whole rounds of the workload's operations through
nearone.cli.main until another round would overrun --seconds (at least one
round).  Each round's wall and CPU time is measured around the operations
only; outputs are compared between rounds after each round's clock stops.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --out DIR [--trace] [--tiny]

writes DIR/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

# report fields that are measurements rather than results
_TIMING_FIELDS = ("runtime_seconds",)


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_op(main, argv: list[str]) -> tuple[int, str, str]:
    """One CLI invocation: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:              # a crash is a failed operation
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def _comparable(text: str) -> str:
    try:
        report = json.loads(text)
    except ValueError:
        return text
    for field in _TIMING_FIELDS:
        report.pop(field, None)
    return json.dumps(report, sort_keys=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    out_dir = Path(args.out)

    start = time.perf_counter()
    import nearone.cli as cli
    import_s = time.perf_counter() - start

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    ops = [list(op) for op in workloads.operations(
        args.workload, args.seed, str(out_dir / "panels.csv"), tiny=args.tiny)]
    first: list[dict] = []
    mismatches: list[str] = []
    rounds: list[dict] = []
    attempted = failed = 0

    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_round()
        results = []
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        for argv in ops:
            if tracer is None:
                results.append(run_op(cli.main, argv))
            else:
                results.append(tracer.call("cli.main", "cli", run_op, cli.main, argv))
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        rounds.append({"wall_s": wall, "cpu_s": cpu})

        for argv, (code, out, err) in zip(ops, results):
            attempted += 1
            failed += code != 0
            if len(rounds) == 1:
                first.append({"argv": argv, "code": code, "stdout": out,
                              "stderr": err})
        if len(rounds) > 1:
            for record, (code, out, _) in zip(first, results):
                if (code != record["code"]
                        or _comparable(out) != _comparable(record["stdout"])):
                    mismatches.append(" ".join(record["argv"]))
        del results

        typical = statistics.median(r["wall_s"] for r in rounds)
        if time.perf_counter() - begin + typical > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb(),
        "operations": first,
        "mismatches": sorted(set(mismatches)),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
