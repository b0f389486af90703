#!/usr/bin/env python3
"""Compare the JSON reports of a fixed list of CLI commands between two source trees.

Usage: python scripts/cli_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the `nearone` package (the
`src/` of two checkouts).  Each command below runs once per tree as
`python -m nearone.cli ...` with PYTHONPATH set to that directory, and the
two reports are walked leaf by leaf, skipping `runtime_seconds`.  Per
command the script prints `identical`, or the number of float leaves that
differ and the largest relative difference with its path.  Stdout that is
not JSON, such as the empty stdout of a rejected command, is compared as
text.  It exits 1 if a key, string, integer or boolean leaf differs, or an
exit code or non-JSON stdout does; float differences alone are reported for
the reader to judge.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

COMMANDS = (
    "constants a1",
    "constants a2",
    "constants a1 --family dirichlet",
    "constants a2 --family dirichlet",
    "constants a1 --family dedekind --abs-disc 5",
    "constants a2 --family dedekind --abs-disc 5",
    "optimize a1",
    "optimize a2",
    "optimize a1 --grid-step 0.005",
    "optimize a2 --grid-step 0.005",
    "optimize a2 --family dedekind --abs-disc 5",
    "optimize a1 --refine-rounds 2",
    "integrate envelope",
    "mertens bound",
    "mertens bound --epsilon0 0.5",
    "mertens bound --T1 3e7",
    "mertens bound --lambda 3",
    # kappa 0.99240 displays as 0.993 and 0.99933 as 0.9994; the second
    # bound has no crossover below 10^2000
    "mertens bound --sigma0 0.985",
    "mertens bound --sigma0 0.999 --epsilon0 0.5",
    "mertens crossover",
    "mertens derive-m",
    "mertens sieve-verify --limit 1000000",
    # four sieve windows, the last one 5 wide
    "mertens sieve-verify --limit 3145733",
    # windows 1 to 3 checked pointwise; the last, 5 wide, cleared from its
    # carries on the running maxima
    "mertens sieve-verify --limit 3145733 --A 1.0 --a 0.5 --B 100 --b 0.01",
    "profiles --family zeta",
    "profiles --family dirichlet",
    "profiles --family dedekind",
    "integrate inv-zeta",
    "integrate inv-zeta --from 11020 --to 11520",
    # N = 9118, the largest of the list: levels of up to 10 panels x 128
    # nodes in blocks of 16, their 80 heads in blocks of 9
    "integrate inv-zeta --from 29900 --to 30000",
    "verify",
    "verify --samples 2000",
    # 10 panels make one group of panels, run without a worker pool; 128
    # panels make two groups, one per spawned worker
    "integrate inv-zeta --from 0 --to 100 --threads 2",
    # one group of 64 panels from t = 0, factored down to its first level
    "integrate inv-zeta --from 0 --to 640",
    "integrate inv-zeta --from 10000 --to 11280 --threads 2",
    "verify --threads 2",
    # failure exits: reports with exit 1, then exit 1 with no stdout
    "constants a1 --T1 100",
    "mertens bound --sigma0 1.0 --epsilon0 0.5",
    "mertens sieve-verify --limit 3145733 --A 0.1 --a 0.5 --B 0 --b 0.5",
    "integrate inv-zeta --from 0 --to 40000",
    "optimize a2 --T1 4000",
    # flags the action does not read: usage errors (exit 64), no stdout
    "integrate envelope --panel-width 3",
    "constants a1 --C4 0.2",
    "mertens bound --A 3",
    # 401 samples: the first grid takes the odd one
    "verify --samples 401",
    # a bound below x already at x = 1: crossover_log10 null with its note
    "mertens crossover --A 0.5 --a 0.99 --B 0 --b 0.5",
    # worker counts above the task or CPU count start fewer processes
    "verify --threads 3",
    "integrate inv-zeta --from 0 --to 1280 --threads 3",
    # a family flag the zeta family does not read: usage error (exit 64)
    "constants a1 --q 7",
    # |M(x)| <= sqrt x: only the head is checked pointwise; the exact screen
    # clears windows 2 and 3, which the carries cannot, and the carries the
    # last, 5 wide
    "mertens sieve-verify --limit 3145733 --A 1 --a 0.5 --B 0 --b 0.5",
    # a head shorter than one window, and an empty M_spot
    "mertens sieve-verify --limit 50",
    # an interval far shorter than a panel still takes one panel
    "integrate inv-zeta --from 5 --to 5.000000000001",
    # C2 = 0.5 > 2 C1 fails the C2-range of the a1 statement under epsilon0:
    # exit 1 with no stdout
    "mertens bound --C1 0.1 --C2 0.5",
)
IGNORED_KEYS = frozenset({"runtime_seconds"})


def run(src: str, command: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "nearone.cli", *command.split()],
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def walk(old, new, path: str, floats: list, hard: list) -> None:
    """Collect (relative difference, path) of differing floats into floats
    and a description of every other difference into hard."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            hard.append(f"{path or '.'}: keys {sorted(old.keys() ^ new.keys())} "
                        "in one report only")
        for key in sorted(old.keys() & new.keys() - IGNORED_KEYS):
            walk(old[key], new[key], f"{path}.{key}", floats, hard)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            hard.append(f"{path}: length {len(old)} -> {len(new)}")
        for i, (a, b) in enumerate(zip(old, new)):
            walk(a, b, f"{path}[{i}]", floats, hard)
    elif type(old) is float and type(new) is float:
        diff = rel_diff(old, new)
        if diff:
            floats.append((diff, path))
    elif type(old) is not type(new) or old != new:
        hard.append(f"{path or '.'}: {old!r} -> {new!r}")


def compare(old_src: str, new_src: str, command: str) -> bool:
    """Print the verdict for one command; return True if only floats differ."""
    (old_code, old_out), (new_code, new_out) = (run(old_src, command),
                                                run(new_src, command))
    floats: list = []
    hard: list = []
    if old_code != new_code:
        hard.append(f"exit code {old_code} -> {new_code}")
    try:
        walk(json.loads(old_out), json.loads(new_out), "", floats, hard)
    except json.JSONDecodeError:
        if old_out != new_out:
            hard.append("non-JSON stdout differs")
    if not floats and not hard:
        print(f"{command}: identical")
    elif floats:
        worst, where = max(floats)
        print(f"{command}: {len(floats)} float leaves differ, largest "
              f"{worst:.3g} relative at {where}")
    for line in hard:
        print(f"{command}: {line}")
    return not hard


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 64
    old_src, new_src = (os.path.abspath(p) for p in argv)
    results = [compare(old_src, new_src, command) for command in COMMANDS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
