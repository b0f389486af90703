"""Deterministic grid minimization of the bound constants a1 / a2.

The admissible box is scanned on a decimal grid (default step 0.01) over

    C1 in (0, 1],   C2 in (0, 2 C1],   and for the derivative target
    C4 = rho * C2 / 2.0001 with rho in (0, 1],

with every remaining hypothesis of the owning computation enforced per
candidate.  The winner is the lexicographically smallest tuple
(a, C1, C2, rho), which makes ties deterministic: when b1 <= 1 the
objective is flat in C1, and the smallest admissible C1 is reported.

Optional halving refinement re-scans a +-2-step box around the incumbent
at half the step, any number of rounds; candidate coordinates are always
exact decimals, so reported optima print as round grid values.  The
reported optimum is re-validated through compute_a1 / compute_a2, so it
satisfies the full hypothesis list by construction.

A CSV trace of every visited candidate (feasible or not) can be written
for audit; on the default grids it holds ~10^5..10^6 rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from .constants import (
    C4_GAP,
    NO_EDGE,
    REGION_STRETCH,
    ROOM,
    TARGET_LOG,
    TARGET_LOGDER,
    BoundConstants,
    BoundParams,
    _a1_value,
    _a2_value,
    compute_a1,
    compute_a2,
    compute_b1,
    edge_floor,
    loglog,
    statement_hypotheses,
)
from .errors import HypothesisError
from .profiles import LFunctionProfile


@dataclass(frozen=True)
class SearchSpec:
    """A minimization problem: target, profile, and the frozen parameters."""

    profile: LFunctionProfile
    target: str  # TARGET_LOG or TARGET_LOGDER
    C3: float
    T1: float
    T2: float
    t0: float
    grid_step: float = 0.01
    refine_rounds: int = 0

    def __post_init__(self):
        if self.target not in (TARGET_LOG, TARGET_LOGDER):
            raise HypothesisError("target", f"unknown target {self.target!r}")
        if not 0 < self.grid_step <= 0.1:
            raise HypothesisError(
                "grid-step", f"need 0 < grid_step <= 0.1, got {self.grid_step}")
        if self.refine_rounds < 0:
            raise HypothesisError(
                "refine-rounds", f"need refine_rounds >= 0, got {self.refine_rounds}")


def _decimal_range(step: Decimal, lo: float, hi: float) -> list[float]:
    """Exact-decimal grid of multiples of step inside [lo, hi], lo > 0."""
    if hi < lo:
        return []
    k = int(math.ceil(lo / float(step) - 1e-12))
    k = max(k, 1)
    out = []
    while True:
        v = float(k * step)
        if v > hi + 1e-15:
            break
        if v >= lo - 1e-15:
            out.append(v)
        k += 1
    return out


class _Trace:
    def __init__(self, path: str | Path | None):
        self._file = None
        self._writer = None
        if path is not None:
            self._file = open(path, "w", newline="")
            self._writer = csv.writer(self._file)
            self._writer.writerow(
                ["C1", "C2", "rho", "C4", "a", "b", "feasible", "reason"])

    def row(self, c1, c2, rho, c4, a, b, feasible, reason=""):
        if self._writer is not None:
            self._writer.writerow([c1, c2, rho, c4, a, b, int(feasible), reason])

    def close(self):
        if self._file is not None:
            self._file.close()


# Hypotheses no grid candidate can change: a failure empties the whole box.
# Their T1-floor is the edge-free part (edge NO_EDGE), so per candidate only
# the edge term of the floor remains to be checked.
CANDIDATE_FREE = ("C3-floor", "T1-floor", "T1-gap", "t0-floor", "T2-window",
                  "T2-floor")


def minimize(spec: SearchSpec,
             trace_path: str | Path | None = None) -> tuple[BoundParams, BoundConstants]:
    """Scan the grid, refine if requested, re-validate and return the winner.

    Raises HypothesisError("no-admissible-candidate") when nothing in the
    box satisfies the hypotheses.
    """
    prof, deriv = spec.profile, spec.target == TARGET_LOGDER
    for check in statement_hypotheses(CANDIDATE_FREE, prof, spec.target,
                                      C3=spec.C3, T1=spec.T1, T2=spec.T2,
                                      t0=spec.t0, edge=NO_EDGE):
        if not check.ok:
            raise HypothesisError("no-admissible-candidate",
                                  f"{check.name}: {check.detail}")

    m = prof.euler_order
    b_T1 = spec.T1 - 1 if deriv else spec.T1  # height the b-constant runs at
    ll_t1 = loglog(spec.T1)
    ll_b = loglog(b_T1)
    rate_den = 1 - 1 / (4 * spec.C3 * ll_b)
    shift = ROOM[spec.target]["shift"]

    trace = _Trace(trace_path)
    b_cache: dict[float, float] = {}

    def b_of(c1: float) -> float:
        b = b_cache.get(c1)
        if b is None:
            b = compute_b1(prof, c1, spec.C3, b_T1, spec.T2)
            b_cache[c1] = b
        return b

    def scan(step: Decimal, c1_box, c2_box, rho_box, best):
        for c1 in _decimal_range(step, *c1_box):
            b = b_of(c1)
            for c2 in _decimal_range(step, c2_box[0], min(c2_box[1], 2 * c1)):
                if deriv:
                    for rho in _decimal_range(step, *rho_box):
                        c4 = rho * (c2 / C4_GAP)
                        if spec.T1 < edge_floor(REGION_STRETCH * c2 + c4, shift):
                            trace.row(c1, c2, rho, c4, "", "", False, "T1-floor")
                            continue
                        rate = (2 * c2 + 1 / (2 * spec.C3)) / rate_den
                        a = _a2_value(m, c2, c4, b, rate, ll_t1, ll_b)
                        trace.row(c1, c2, rho, c4, a, b, True)
                        cand = (a, c1, c2, rho)
                        if best is None or cand < best:
                            best = cand
                else:
                    if spec.T1 < edge_floor(c2, shift):
                        trace.row(c1, c2, "", "", "", "", False, "T1-floor")
                        continue
                    rate = (2 * c2 + 1 / (2 * spec.C3)) / rate_den
                    a = _a1_value(m, c2, b, rate, ll_t1)
                    trace.row(c1, c2, "", "", a, b, True)
                    cand = (a, c1, c2, 1.0)
                    if best is None or cand < best:
                        best = cand
        return best

    try:
        step = Decimal(repr(spec.grid_step))
        best = scan(step, (0.0, 1.0), (0.0, 2.0), (0.0, 1.0), None)
        for _ in range(spec.refine_rounds):
            if best is None:
                break
            wide = 2 * float(step)
            _, c1s, c2s, rhos = best
            step = step / 2
            best = scan(step,
                        (max(c1s - wide, 0.0), min(c1s + wide, 1.0)),
                        (max(c2s - wide, 0.0), min(c2s + wide, 2.0)),
                        (max(rhos - wide, 0.0), min(rhos + wide, 1.0)),
                        best)
    finally:
        trace.close()

    if best is None:
        raise HypothesisError("no-admissible-candidate",
                              "every grid candidate violates a hypothesis")

    _, c1, c2, rho = best
    params = BoundParams(C1=c1, C2=c2, C3=spec.C3, T1=spec.T1, T2=spec.T2,
                         t0=spec.t0,
                         C4=rho * (c2 / C4_GAP) if deriv else None)
    constants = compute_a2(prof, params) if deriv else compute_a1(prof, params)
    return params, constants
