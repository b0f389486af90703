"""Deterministic grid minimization of the bound constants a1 / a2.

The admissible box is scanned on a decimal grid (default step 0.01) over

    C1 in (0, 1],   C2 in (0, 2 C1],   and for the derivative target
    C4 = rho * C2 / 2.0001 with rho in (0, 1],

so C1-range, C2-range and C4-range hold by construction.  The hypotheses
no candidate can change (CANDIDATE_FREE) are checked once up front, and
the edge term of the T1-floor once per (C2, rho) cell; compute_b1 then
takes checked inputs.  The winner is the lexicographically smallest tuple
(a, C1, C2, rho), which makes ties deterministic: when b1 <= 1 the
objective is flat in C1, and the smallest admissible C1 is reported.

Optional halving refinement re-scans a +-2-step box around the incumbent
at half the step, while the step stays >= MIN_STEP; candidate coordinates
are always exact decimals, so reported optima print as round grid values.
The reported optimum is re-validated through compute_constants, so it
satisfies the full hypothesis list by construction.

A scan is NumPy work in one block per C1.  The T1-floor feasibility of a
(C2, rho) cell, its C4 and its rate do not depend on C1, so they are
computed once per scan and only the feasible cells are kept, flat in scan
order.  The C2 grid of a C1 is a prefix of the scan's C2 grid, so its block
is a prefix of those cells; per C1 only b and a over the block remain.
The full (C1, C2, rho) grid is never built.

The screen calls the formulas of constants (c4_of, region_edge, rate,
edge_floor, _a1_value / _a2_value) on arrays of cells with this module's
_exp; the recheck and the trace call them on floats with math.exp.  np.exp
can differ from math.exp in the last digit, so the screen never decides.
Every cell whose screened floor lies within 1e-9 T1 of T1, and every cell
whose screened a lies within a relative 1e-12 of its block's minimum, is
recomputed on floats, and those values pick the winner.  The margins exceed
the screen's error of a few ulp by orders of magnitude, so the winner is
the one a scalar loop over every candidate picks, bit for bit.

A CSV trace of every visited candidate (feasible or not), with its scalar
a, can be written for audit: 10,100 rows for a1 and 1,010,000 for a2 on
the default grid, 8,040,000 for a2 at step 0.005.  A step whose first scan
would visit more than CANDIDATE_LIMIT candidates is refused up front.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .constants import (
    NO_EDGE,
    ROOM,
    TARGET_LOG,
    TARGET_LOGDER,
    BoundConstants,
    BoundParams,
    _a1_value,
    _a2_value,
    b_height,
    c4_of,
    compute_b1,
    compute_constants,
    edge_floor,
    loglog,
    rate,
    region_edge,
    statement_hypotheses,
)
from . import defaults
from .errors import DomainError, HypothesisError
from .profiles import LFunctionProfile

# Most candidates the first scan may visit: 12x the 8,040,000 of a2 at step
# 0.005.  The (C2, rho) feasibility array of a2 then stays below 4 MB.
CANDIDATE_LIMIT = 100_000_000
# Finest step a refinement round may reach.  _decimal_range admits grid
# values up to 1e-15 past the box to absorb the rounding of exact decimals,
# so finer steps put candidates outside it (C2 > 2 C1 after 45 rounds from
# 0.01) and then run out of distinct floats, each round's box doubling.
MIN_STEP = 4e-15


@dataclass(frozen=True)
class SearchSpec:
    """A minimization problem: target, profile, and the frozen parameters."""

    profile: LFunctionProfile
    target: str  # TARGET_LOG or TARGET_LOGDER
    C3: float
    T1: float
    T2: float
    t0: float
    grid_step: float = defaults.GRID_STEP
    refine_rounds: int = 0

    def __post_init__(self):
        if self.target not in (TARGET_LOG, TARGET_LOGDER):
            raise DomainError(f"unknown target {self.target!r}")
        if not 0 < self.grid_step <= 0.1:
            raise DomainError(
                f"need 0 < grid_step <= 0.1, got {self.grid_step}")
        # n C1 values, 2k C2 values at C1 = k step, n rho values for a2
        n = 1.0 / self.grid_step
        visits = n * (n + 1) * (n if self.target == TARGET_LOGDER else 1.0)
        if not visits <= CANDIDATE_LIMIT:  # checked before any list is built
            raise DomainError(
                f"resource limit exceeded: need at most {CANDIDATE_LIMIT} "
                f"candidates per scan; grid_step {self.grid_step!r} visits "
                f"about {visits:.3g}")
        if self.refine_rounds < 0:
            raise DomainError(
                f"need refine_rounds >= 0, got {self.refine_rounds}")
        finest = math.ldexp(self.grid_step, -self.refine_rounds)
        if not finest >= MIN_STEP:
            raise DomainError(
                f"resource limit exceeded: refinement steps must stay >= "
                f"{MIN_STEP}; {self.refine_rounds} rounds from grid_step "
                f"{self.grid_step!r} reach {finest:.3g}")


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


def _exp(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.exp saturating to +inf past 709: the screen's only inexact step."""
    with np.errstate(over="ignore"):
        return np.exp(x, out=out)


class _Trace:
    """CSV rows of visited candidates; callers write rows only if enabled."""

    def __init__(self, path: str | Path | None):
        self.enabled = path is not None
        self._file = None
        if self.enabled:
            self._file = open(path, "w", newline="")
            self._writer = csv.writer(self._file)
            self._writer.writerow(
                ["C1", "C2", "rho", "C4", "a", "b", "feasible", "reason"])

    def row(self, c1, c2, rho, c4, a, b, feasible, reason=""):
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
    shift = ROOM[spec.target]["shift"]
    b_T1 = b_height(spec.T1, spec.target)
    ll_t1 = loglog(spec.T1)
    ll_b = loglog(b_T1)

    trace = _Trace(trace_path)

    # A cell's edge and a through the constants formulas: on floats for the
    # recheck and the trace, on arrays of cells with _exp for the screen.
    def edge_of(c2, rho):
        return region_edge(c2, c4_of(c2, rho) if deriv else None)

    def a_of(c2, c4, b, r, exp=math.exp):
        return (_a2_value(m, c2, c4, b, r, ll_t1, ll_b, exp) if deriv
                else _a1_value(m, c2, b, r, ll_t1, exp))

    def a_exact(c2: float, rho: float, b: float) -> float:
        return a_of(c2, c4_of(c2, rho), b, rate(c2, spec.C3, ll_b))

    def t1_floor_ok(c2s: list, rhos: list) -> np.ndarray:
        """T1 >= edge_floor(edge, shift) per (C2, rho) cell; the scalar floor
        decides every cell the screen puts within 1e-9 T1 of T1."""
        c2 = np.reshape(c2s, (-1, 1))
        gap = edge_floor(edge_of(c2, np.array(rhos)), shift, _exp) - spec.T1
        ok = gap <= 0
        for i, j in zip(*np.nonzero(np.abs(gap) <= 1e-9 * spec.T1)):
            ok[i, j] = not spec.T1 < edge_floor(edge_of(c2s[i], rhos[j]), shift)
        return ok

    def trace_block(c1, b, c2s, rhos, feasible_rows):
        for c2, feasible_row in zip(c2s, feasible_rows):
            for rho, ok in zip(rhos, feasible_row):
                cells = (rho, c4_of(c2, rho)) if deriv else ("", "")
                if ok:
                    trace.row(c1, c2, *cells, a_exact(c2, rho, b), b, True)
                else:
                    trace.row(c1, c2, *cells, "", "", False, "T1-floor")

    def scan(step: Decimal, c1_box, c2_box, rho_box, best):
        c2s = _decimal_range(step, *c2_box)
        rhos = _decimal_range(step, *rho_box) if deriv else [1.0]
        c2_grid = np.array(c2s)
        feasible = t1_floor_ok(c2s, rhos)
        if trace.enabled:
            feasible_rows = feasible.tolist()
        # The feasible (C2, rho) cells in scan order, flat: a C1 whose C2
        # grid is the first n rows owns the cells with cell_i < n.
        cell_i, cell_j = np.nonzero(feasible)
        c2 = c2_grid[cell_i]
        c4 = c4_of(c2, np.asarray(rhos)[cell_j])
        r = rate(c2, spec.C3, ll_b)
        for c1 in _decimal_range(step, *c1_box):
            b = compute_b1(prof, c1, spec.C3, b_T1, spec.T2)
            hi = min(c2_box[1], 2 * c1)  # as _decimal_range bounds the C2 grid
            n = (0 if hi < c2_box[0]
                 else int(np.searchsorted(c2_grid, hi + 1e-15, side="right")))
            if trace.enabled:
                trace_block(c1, b, c2s[:n], rhos, feasible_rows)
            k = int(np.searchsorted(cell_i, n))
            a = a_of(c2[:k], c4[:k], b, r[:k], _exp)
            # The scalar formula decides among every cell the screen puts
            # within 1e-12 of the block minimum, and raises as the scalar
            # code would wherever the screen overflowed.
            a_min = a.min(initial=np.inf)
            close = (a <= a_min + abs(a_min) * 1e-12) | (a == np.inf)
            for cell in np.nonzero(close)[0]:
                i, j = cell_i[cell], cell_j[cell]
                cand = (a_exact(c2s[i], rhos[j], b), c1, c2s[i], rhos[j])
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
                         C4=c4_of(c2, rho) if deriv else None)
    return params, compute_constants(prof, params, spec.target)
