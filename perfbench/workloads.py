"""The benchmark's workloads: the CLI operations of one round, per seed.

An operation is one call of nearone.cli.main with bare CLI arguments.  A
round is every operation of the workload once; a run repeats whole rounds,
so the share of failing operations is the same in every run.

The program's inputs are the published ones and do not depend on the seed:
each workload reproduces a computation the paper reports.  The seed orders
the headline operations and picks which outputs the independent checks
recompute (see checks.py).
"""

from __future__ import annotations

import random

WORKLOADS = ("inv-zeta", "sieve-1e8", "headline")

INV_ZETA_SIGMA0 = 0.98
INV_ZETA_PANEL = 10.0
INV_ZETA_SLICE = (11020.0, 11520.0)
INV_ZETA_SLICE_TINY = (11500.0, 11520.0)

SIEVE_LIMIT = 100_000_000
SIEVE_LIMIT_TINY = 1_000_000

VERIFY_SAMPLES = 2000
VERIFY_SAMPLES_TINY = 40

# The bare Dirichlet defaults copy the zeta parameter set, which fails the
# T2-window and T2-floor hypotheses at q = 3: these exit 1 on every run.
EXPECTED_FAILURES = (
    ("constants", "a1", "--family", "dirichlet"),
    ("constants", "a2", "--family", "dirichlet"),
)

_HEADLINE_CHEAP = (
    ("constants", "a1"),
    ("constants", "a2"),
    ("constants", "a1", "--family", "dedekind", "--abs-disc", "5"),
    ("constants", "a2", "--family", "dedekind", "--abs-disc", "5"),
    *EXPECTED_FAILURES,
    ("optimize", "a1"),
    ("optimize", "a1", "--grid-step", "0.005"),
    ("integrate", "envelope"),
    ("mertens", "bound"),
    ("mertens", "crossover"),
)
_HEADLINE_LONG = (
    ("optimize", "a2"),
    ("optimize", "a2", "--grid-step", "0.005"),
)


def operations(workload: str, seed: int, panel_csv: str,
               tiny: bool = False) -> list[tuple[str, ...]]:
    """The argument lists of one round of the workload.

    panel_csv is where the inv-zeta operation writes its per-panel trace.
    tiny swaps in small inputs for the harness self-check.
    """
    if workload == "inv-zeta":
        lo, hi = INV_ZETA_SLICE_TINY if tiny else INV_ZETA_SLICE
        return [("integrate", "inv-zeta", "--sigma0", repr(INV_ZETA_SIGMA0),
                 "--from", repr(lo), "--to", repr(hi),
                 "--panel-width", repr(INV_ZETA_PANEL), "--trace", panel_csv)]
    if workload == "sieve-1e8":
        limit = SIEVE_LIMIT_TINY if tiny else SIEVE_LIMIT
        return [("mertens", "sieve-verify", "--limit", str(limit))]
    if workload == "headline":
        samples = VERIFY_SAMPLES_TINY if tiny else VERIFY_SAMPLES
        ops = list(_HEADLINE_CHEAP) + [("verify", "--samples", str(samples))]
        if not tiny:
            ops += _HEADLINE_LONG
        random.Random(seed).shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")
