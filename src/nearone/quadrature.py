"""Romberg quadrature on fixed panels for the reciprocal-zeta and envelope integrals.

Romberg's method builds the trapezoid refinements T_i with step
(b - a) / 2^i, reusing previous evaluations, and Richardson-extrapolates

    R[i][0] = T_i,
    R[i][j] = R[i][j-1] + (R[i][j-1] - R[i-1][j-1]) / (4^j - 1),

so the diagonal R[i][i] has error O(h^(2i+2)) for smooth integrands.  The
iteration stops when successive diagonal entries differ by at most
rel_tol * |R[i][i]|; that difference is reported as the error estimate.

Long intervals are split into consecutive panels of fixed width (default
10 for the reciprocal-zeta integral), each with its own Romberg tableau,
convergence test and evaluation count.  The panels are integrated in
fixed groups of GROUP_PANELS = 64 consecutive panels, and a group
advances all of its open panels one level at a time (_romberg_panels):

- Level 0 evaluates the group's edges in one call.  Adjacent panels share
  an edge, so it is evaluated once, but each panel still counts both of
  its ends among its evaluations.
- Level i >= 1 makes one integrand call per run: a maximal run of
  adjacent open panels of equal width.  With h = width / 2^i, the run's
  new nodes a_k + h (1, 3, 5, ...) over its panels' left edges a_k form
  one progression of step 2h, exact when the edges and width are short
  in binary, as the integer edges and default width 10 are; the zeta
  engine then factors its main sum over the whole run (nearone.zeta).
  A run of more than CALL_NODES = 8192 new nodes is passed in calls of
  8192 consecutive nodes, each again a progression, so one call holds
  at most 8192 points however deep the level and however many panels
  stay open; the split depends on the level and the run alone.

Each panel's nodes, trapezoid sum and tableau are computed with the same
arithmetic in the same order as a lone panel's, and a panel leaves its
run once it converges, so an integrand that maps each abscissa on its own,
such as the envelope's, gives the lone panels' results bit for bit.  The
zeta engine's values depend on the batch, through its truncation point
and block heads, but only within its error bound.  A panel still open
after max_levels raises ConvergenceError naming its interval, once the
whole group has run its levels.  The driver checks rel_tol > 0 and
MIN_LEVELS <= max_levels <= MAX_LEVELS_CAP, whatever the entry point.
romberg() is the one-panel call of the same driver.

The groups, not the panels, are the work units farmed out to worker
processes.  They are fixed by the panel index alone, so every integrand
call, and hence every bit of every panel's result, is the same for every
worker count; the merge adds per-panel values with exact compensated
summation (math.fsum) in ascending panel order.

The envelope integrand u^(a1 * loglog u / (log u)^(2 sigma0 - 1)) is
integrated after the substitution u = e^v, which turns it into

    exp(v + a1 * v^(2 (1 - sigma0)) * log v)  dv,

a well-conditioned integrand on short v-panels (default width 1/2); the
substitution requires v = log u > 1, hence the lower limit must satisfy
lo >= e^2.

Integrand evaluators passed to romberg() must be vectorized: they are
called with a one-dimensional numpy array of abscissae and must return
an array of the same shape.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import defaults
from .errors import ConvergenceError, DomainError
from .parallel import parallel_map
from .zeta import inv_abs_zeta_many

__all__ = [
    "QuadratureResult",
    "romberg",
    "integrate_inv_abs_zeta",
    "integrate_envelope",
    "envelope_integrand_log_space",
]

MIN_LEVELS = 3
MAX_LEVELS_CAP = 24
T_CEILING = 3.0e4
LO_FLOOR_ENVELOPE = math.exp(2.0)
# Most panels one integral may split into; the defaults use 1152 and 16.
PANEL_LIMIT = 100_000
# Consecutive panels integrated together, a level at a time, per task.
GROUP_PANELS = 64
# Most abscissae per integrand call; a power of two, so that a level's
# calls split a run only between panels, or a deep panel into equal parts.
CALL_NODES = 8192


@dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, and work count of one integration run."""

    value: float
    error_estimate: float
    panels: int
    evaluations: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.error_estimate) or self.error_estimate < 0.0:
            raise DomainError("error_estimate must be finite and non-negative")
        if self.evaluations < self.panels:
            raise DomainError("evaluations must be at least the panel count")


def romberg(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
            rel_tol: float, max_levels: int = defaults.MAX_LEVELS) -> QuadratureResult:
    """Integrate a vectorized evaluator over [a, b] by Romberg extrapolation.

    Converged when successive diagonal entries differ by at most
    rel_tol * |value|; the last diagonal difference is the error estimate.
    Raises ConvergenceError("non-convergent ...") if max_levels is reached
    first.  This is the one-panel call of _romberg_panels.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite a < b; got [{a!r}, {b!r}]")
    return _romberg_panels(f, [a, b], rel_tol, max_levels)[0]


def _values(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """f at the abscissae xs, at most CALL_NODES of them to a call."""
    parts = []
    for start in range(0, xs.size, CALL_NODES):
        chunk = xs[start:start + CALL_NODES]
        vals = np.asarray(f(chunk), dtype=np.float64)
        if vals.shape != chunk.shape or not np.all(np.isfinite(vals)):
            raise DomainError(
                "integrand returned a malformed or non-finite batch")
        parts.append(vals)
    return np.concatenate(parts)


def _romberg_panels(f: Callable[[np.ndarray], np.ndarray], edges: list[float],
                    rel_tol: float, max_levels: int) -> list[QuadratureResult]:
    """Romberg on each panel [edges[k], edges[k+1]], all panels a level at
    a time (module docstring); one result per panel.

    Raises ConvergenceError naming the first panel still open after
    max_levels levels.
    """
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise DomainError(f"rel_tol must be positive; got {rel_tol!r}")
    if not (MIN_LEVELS <= max_levels <= MAX_LEVELS_CAP):
        raise DomainError(
            f"max_levels must lie in [{MIN_LEVELS}, {MAX_LEVELS_CAP}]; "
            f"got {max_levels!r}")
    xs = np.asarray(edges, dtype=np.float64)
    ends = _values(f, xs)
    widths = [b - a for a, b in zip(edges, edges[1:])]
    # each panel's last tableau row R[i-1][0..i-1] and diagonal difference
    rows = [[w * float(ends[k] + ends[k + 1]) / 2.0]
            for k, w in enumerate(widths)]
    diffs = [math.inf] * len(widths)
    results: list[Optional[QuadratureResult]] = [None] * len(widths)
    open_panels = list(range(len(widths)))

    for i in range(1, max_levels + 1):
        m = 2 ** (i - 1)                        # new nodes per panel
        runs = [[open_panels[0]]]
        for k in open_panels[1:]:
            if k == runs[-1][-1] + 1 and widths[k] == widths[runs[-1][0]]:
                runs[-1].append(k)
            else:
                runs.append([k])
        for run in runs:
            h = widths[run[0]] / 2.0 ** i
            offsets = h * np.arange(1, 2 ** i, 2, dtype=np.float64)
            vals = _values(f, (xs[run][:, None] + offsets).ravel())
            for r, k in enumerate(run):
                prev = rows[k]
                trap = prev[0] / 2.0 + h * float(np.sum(vals[r * m:(r + 1) * m]))
                row = [trap]
                for j in range(1, i + 1):
                    row.append(row[j - 1]
                               + (row[j - 1] - prev[j - 1]) / (4.0 ** j - 1.0))
                diffs[k] = abs(row[i] - prev[i - 1])
                rows[k] = row
                if diffs[k] <= rel_tol * abs(row[i]):
                    # both ends and 2^i - 1 interior nodes
                    results[k] = QuadratureResult(row[i], diffs[k], 1, 2 ** i + 1)
        open_panels = [k for k in open_panels if results[k] is None]
        if not open_panels:
            return results

    k = open_panels[0]
    raise ConvergenceError(
        f"non-convergent on [{edges[k]!r}, {edges[k + 1]!r}] after "
        f"{max_levels} levels; last diagonal difference {diffs[k]:.3e}")


def _envelope_log_space(expo: float, a1: float, vs: np.ndarray) -> np.ndarray:
    vs = np.asarray(vs, dtype=np.float64)
    return np.exp(vs + a1 * vs ** expo * np.log(vs))


def envelope_integrand_log_space(sigma0: float, a1: float) -> Callable[[np.ndarray], np.ndarray]:
    """Return v -> exp(v + a1 * v^(2(1-sigma0)) * log v), the u = e^v image.

    The evaluator is a partial of a module-level function, so it pickles
    into worker processes.
    """
    return functools.partial(_envelope_log_space, 2.0 * (1.0 - sigma0), a1)


def _panel_edges(lo: float, hi: float, width: float) -> list[float]:
    count = (hi - lo) / width - 1e-12
    if not count <= PANEL_LIMIT:  # checked before any list is built
        raise DomainError(
            f"resource limit exceeded: need at most {PANEL_LIMIT} panels; "
            f"got {count:.3g} of width {width!r} on [{lo!r}, {hi!r}]")
    count = max(1, math.ceil(count))  # callers pass lo < hi, however close
    edges = [lo + k * width for k in range(count)]
    edges.append(hi)
    return edges


def _eval_group(task) -> list[QuadratureResult]:
    return _romberg_panels(*task)


def _run_panels(f: Callable[[np.ndarray], np.ndarray], edges: list[float],
                rel_tol: float, max_levels: int, workers: int,
                trace_path: Optional[str]) -> QuadratureResult:
    """Romberg on each panel [edges[k], edges[k+1]], GROUP_PANELS panels
    to a task; f must pickle."""
    tasks = [(f, edges[g:g + GROUP_PANELS + 1], rel_tol, max_levels)
             for g in range(0, len(edges) - 1, GROUP_PANELS)]
    results = [r for group in parallel_map(_eval_group, tasks, workers)
               for r in group]
    value = math.fsum(r.value for r in results)
    err = math.fsum(r.error_estimate for r in results)
    evals = sum(r.evaluations for r in results)
    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lo", "hi", "value", "error_estimate", "evaluations"])
            for lo, hi, r in zip(edges, edges[1:], results):
                writer.writerow([repr(lo), repr(hi), repr(r.value),
                                 repr(r.error_estimate), r.evaluations])
    return QuadratureResult(value, err, len(results), evals)


def integrate_inv_abs_zeta(sigma0: float, lo: float, hi: float,
                           panel_width: float = defaults.PANEL_WIDTH,
                           rel_tol: float = defaults.INV_ZETA_REL_TOL,
                           max_levels: int = defaults.MAX_LEVELS,
                           workers: int = 1,
                           trace_path: Optional[str] = None) -> QuadratureResult:
    """Integrate 1/|zeta(sigma0 + iu)| over [lo, hi] on consecutive panels.

    The error estimate is the sum of per-panel estimates; the value is an
    exact compensated sum over ascending panel index, independent of the
    evaluation order and worker count.  A panel that fails to converge
    propagates ConvergenceError naming its interval.
    """
    if not (0.9 <= sigma0 < 1.0):
        raise DomainError(f"sigma0={sigma0!r} outside [0.9, 1.0)")
    if not (0.0 <= lo <= hi <= T_CEILING):
        raise DomainError(f"need 0 <= lo <= hi <= {T_CEILING}; got [{lo!r}, {hi!r}]")
    if not (math.isfinite(panel_width) and panel_width > 0.0):
        raise DomainError(f"panel_width must be positive; got {panel_width!r}")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 0, 0)
    return _run_panels(functools.partial(inv_abs_zeta_many, sigma0),
                       _panel_edges(lo, hi, panel_width), rel_tol, max_levels,
                       workers, trace_path)


def integrate_envelope(sigma0: float, a1: float, lo: float, hi: float,
                       rel_tol: float = defaults.ENVELOPE_REL_TOL,
                       max_levels: int = defaults.MAX_LEVELS,
                       panel_width_v: float = defaults.V_PANEL_WIDTH,
                       workers: int = 1,
                       trace_path: Optional[str] = None) -> QuadratureResult:
    """Integrate u^(a1 loglog u / (log u)^(2 sigma0 - 1)) du over [lo, hi].

    Evaluated in log space (u = e^v) on v-panels of width panel_width_v.
    Requires lo >= e^2 so the inner logarithm stays positive; a1 = 0
    degenerates to the integrand 1.
    """
    if not (0.5 < sigma0 < 1.0):
        raise DomainError(f"sigma0={sigma0!r} outside (0.5, 1.0)")
    if not (math.isfinite(a1) and a1 >= 0.0):
        raise DomainError(f"a1 must be non-negative; got {a1!r}")
    if not (lo >= LO_FLOOR_ENVELOPE and hi > lo and math.isfinite(hi)):
        raise DomainError(
            f"need e^2 <= lo < hi < inf; got [{lo!r}, {hi!r}]")
    if not (math.isfinite(panel_width_v) and panel_width_v > 0.0):
        raise DomainError(f"panel_width_v must be positive; got {panel_width_v!r}")
    return _run_panels(envelope_integrand_log_space(sigma0, a1),
                       _panel_edges(math.log(lo), math.log(hi), panel_width_v),
                       rel_tol, max_levels, workers, trace_path)
