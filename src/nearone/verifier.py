"""Empirical spot checks of the near-1-line bounds against actual zeta values.

The two display inequalities under test, for s = sigma + it with c = 1,

    |log zeta(s)|        <= a1 (b1 log(c|t|))^(2(1-sigma)) loglog(c|t|)
    |zeta'/zeta(s)|      <= a2 (b2 log(c|t|))^(2(1-sigma)) (loglog(c|t|))^2

hold on the strip

    sigma in [1/2 + A/loglog(c|t|), 1 + B/loglog(c|t|)]

with (A, B) = (0.5, 0.5) for the first and (1.0051, 0.3349) for the second,
conditionally on a zero-free box reaching up to height t.  Zeros of zeta are
verified on the critical line far beyond t = 3*10^4, so on the sampled window
[10^4, 3*10^4] the hypothesis is known and the inequalities are testable.

Only the consequence |log|zeta|| <= |log zeta| is checked for the first
inequality: the imaginary part of log zeta needs branch tracking that this
module deliberately avoids, so a pass here is a necessary condition, not a
reproof.  The second inequality is checked in full since |zeta'/zeta| needs
no branch choice.

Sampling is deterministic low-discrepancy: t is log-uniform through a Halton
sequence in base 2, and sigma is placed by a base-3 Halton value either
across the strip's interior (INTERIOR_GRID) or alternately on its two edges
(REGION_EDGES).  Edge samples on the right boundary sigma = 1 + B/loglog t
are additionally compared against the unconditional Euler-product bounds

    |log zeta|     <= logloglog(c|t|) + log(1/B) + gamma B / loglog(t0)
    |zeta'/zeta|   <= (1/B) loglog(c|t|)

which must dominate the observations there.

A sample counts as a violation only when the observed quantity exceeds the
bound by more than the propagated engine error (the evaluations carry
certified absolute error bounds), so a red result cannot be an artifact of
the evaluator's own tolerance.

Evaluation is batched.  The samples of all checks are sorted by (kind, |t|)
and cut into consecutive chunks whose points times truncation point N
(set by the chunk's largest |t|) stay within CHUNK_ELEMENTS; each chunk is
one engine call with sigma per point, and the chunks go to the worker
pool.  The chunks depend on the samples alone, so the report's bits do not
depend on the worker count.  A sample's value and bound can differ in the
last digits from a single-point call, whose N follows its own height,
always within the two certified bounds.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
import statistics
from dataclasses import dataclass

from .constants import elementary_bounds, loglog
from .defaults import (
    DISPLAY_A1,
    DISPLAY_A2,
    DISPLAY_B1,
    DISPLAY_B2,
    LOG_REGION,
    LOGDER_REGION,
    VERIFY_ABS_TOL,
    VERIFY_SAMPLES,
)
from .errors import ConvergenceError, DomainError
from .parallel import parallel_map
from .zeta import truncation_point, zeta_points
# The per-sample entry points stay importable from here, where
# perfbench/tracing.py looks them up; the checks themselves run in batches.
from .zeta import zeta, zeta_with_prime  # noqa: F401

T_FLOOR = 1.0e4
T_CEILING = 3.0e4

_EDGE_TOL = 1.0e-12
# Cap on points x N per engine call, the size of its (points x terms)
# matrix: 2 MB of complex128, which keeps the peak memory of a run near
# that of single-point calls while amortizing the per-call overhead.
CHUNK_ELEMENTS = 1 << 17


class SigmaMode(enum.Enum):
    """How sigma is placed inside the admissible strip."""

    REGION_EDGES = "region-edges"
    INTERIOR_GRID = "interior-grid"


def _halton(index: int, base: int) -> float:
    """The index-th element of the van der Corput sequence in the base."""
    f = 1.0
    r = 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def strip_edges(region: tuple[float, float, float], t: float) -> tuple[float, float]:
    """Admissible sigma interval [1/2 + A/loglog(ct), 1 + B/loglog(ct)]."""
    A, B, c = region
    ll = loglog(c * abs(t))
    return 0.5 + A / ll, 1.0 + B / ll


@dataclass(frozen=True)
class SampleGrid:
    """A deterministic batch of (sigma, t) samples inside one strip.

    t_values lie in [10^4, 3*10^4]; each sigma_values[i] is admissible for
    t_values[i] under the region (A, B, c).  Construction is by build_grid;
    the invariants are re-checked here so hand-built grids stay honest.
    """

    t_values: tuple[float, ...]
    sigma_values: tuple[float, ...]
    sigma_mode: SigmaMode
    region: tuple[float, float, float]
    seed: int = 0

    def __post_init__(self) -> None:
        A, B, c = self.region
        if not (A > 0.0 and B > 0.0 and c >= 1.0):
            raise DomainError(f"region needs A > 0, B > 0, c >= 1; got {self.region!r}")
        if len(self.t_values) != len(self.sigma_values):
            raise DomainError("t_values and sigma_values must align")
        if not self.t_values:
            raise DomainError("grid must contain at least one sample")
        for sigma, t in zip(self.sigma_values, self.t_values):
            if not (T_FLOOR <= t <= T_CEILING):
                raise DomainError(f"t={t!r} outside [{T_FLOOR}, {T_CEILING}]")
            lo, hi = strip_edges(self.region, t)
            if not (lo - _EDGE_TOL <= sigma <= hi + _EDGE_TOL):
                raise DomainError(
                    f"sigma={sigma!r} outside the strip [{lo!r}, {hi!r}] at t={t!r}")

    def __len__(self) -> int:
        return len(self.t_values)

    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.sigma_values, self.t_values))


def build_grid(n_samples: int, region: tuple[float, float, float],
               sigma_mode: SigmaMode, seed: int = 0) -> SampleGrid:
    """Low-discrepancy (sigma, t) samples, reproducible from the seed.

    t is log-uniform over [10^4, 3*10^4] via Halton base 2 and sigma via
    Halton base 3, both read from index seed+1 onward, so the same seed
    always yields the same grid.  REGION_EDGES alternates samples between
    the strip's left and right boundaries instead of spreading sigma.
    """
    if n_samples < 1:
        raise DomainError(f"need at least one sample, got {n_samples!r}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed!r}")
    log_lo, log_hi = math.log(T_FLOOR), math.log(T_CEILING)
    ts = []
    sigmas = []
    for k in range(n_samples):
        idx = seed + k + 1
        u = _halton(idx, 2)
        t = math.exp(log_lo + u * (log_hi - log_lo))
        lo, hi = strip_edges(region, t)
        if sigma_mode is SigmaMode.REGION_EDGES:
            sigma = lo if k % 2 == 0 else hi
        else:
            v = _halton(idx, 3)
            sigma = lo + v * (hi - lo)
        ts.append(t)
        sigmas.append(sigma)
    return SampleGrid(t_values=tuple(ts), sigma_values=tuple(sigmas),
                      sigma_mode=sigma_mode, region=region, seed=seed)


def _bound_value(kind: str, sigma: float, t: float, a: float, b: float,
                 c: float) -> float:
    L = math.log(c * abs(t))
    ll = loglog(c * abs(t))
    power = ll if kind == "log" else ll ** 2
    return a * (b * L) ** (2.0 * (1.0 - sigma)) * power


def _sample_error(exc: Exception, task: tuple) -> Exception:
    """exc re-raised as its own type, prefixed with the sample it concerns."""
    _, sigma, t = task[:3]
    return type(exc)(f"sample (sigma={sigma!r}, t={t!r}): {exc}")


def _eval_chunk(chunk: list) -> list[dict]:
    """Evaluate a chunk of samples in one engine call; top-level so worker
    pools can pickle it.

    Each task is (kind, sigma, t, a, b, A, B, c, abs_tol) with kind "log"
    or "logder"; the tasks of one chunk share kind and abs_tol.  Returns
    the per-sample records in chunk order.  An engine failure, or a |zeta|
    indistinguishable from zero, raises naming the sample it concerns.
    """
    kind, abs_tol = chunk[0][0], chunk[0][8]
    try:
        values, bounds, primes, bounds_p, _ = zeta_points(
            [task[1] for task in chunk], [task[2] for task in chunk],
            abs_tol=abs_tol, with_prime=kind == "logder")
    except (ConvergenceError, DomainError) as exc:
        raise _sample_error(exc, chunk[exc.index or 0]) from exc
    values, bounds = values.tolist(), bounds.tolist()
    if primes is not None:
        primes, bounds_p = primes.tolist(), bounds_p.tolist()
    records = []
    for i, task in enumerate(chunk):
        _, sigma, t, a, b, _, B, c, _ = task
        value, err = values[i], bounds[i]
        abs_v = abs(value)
        if abs_v <= err:
            raise _sample_error(DomainError("|zeta| indistinguishable from zero"),
                                task)
        if kind == "log":
            observed = abs(math.log(abs_v))
            slack = err / (abs_v - err)
        else:
            observed = abs(primes[i] / value)
            slack = (bounds_p[i] + observed * err) / (abs_v - err)
        bound = _bound_value(kind, sigma, t, a, b, c)
        record = {
            "sigma": sigma,
            "t": t,
            "observed": observed,
            "bound": bound,
            "ratio": bound / observed if observed > 0.0 else math.inf,
            "engine_slack": slack,
            "ok": observed <= bound + slack,
        }
        ll = loglog(c * abs(t))
        if sigma >= 1.0 + B / ll - _EDGE_TOL:
            elem_log, elem_logder = elementary_bounds(1, B, c, t, T_FLOOR)
            elem = elem_log if kind == "log" else elem_logder
            record["elementary_bound"] = elem
            record["elementary_ok"] = observed <= elem + slack
        records.append(record)
    return records


def _eval_sample(task: tuple) -> dict:
    """The record of one sample: _eval_chunk on a chunk of one."""
    return _eval_chunk([task])[0]


def _chunks(tasks: list) -> list[list[int]]:
    """Task positions sorted by (kind, |t|) and cut into consecutive runs.

    A run holds tasks of one kind, and its points times the truncation
    point of its largest |t| stay within CHUNK_ELEMENTS unless it is a
    single task.  The runs depend on the tasks alone, never on the worker
    count.
    """
    runs: list[list[int]] = []
    last_kind = None
    for i in sorted(range(len(tasks)),
                    key=lambda i: (tasks[i][0], abs(tasks[i][2]))):
        kind, t = tasks[i][0], abs(tasks[i][2])
        if (kind == last_kind
                and (len(runs[-1]) + 1) * truncation_point(t) <= CHUNK_ELEMENTS):
            runs[-1].append(i)
        else:
            runs.append([i])
            last_kind = kind
    return runs


def _check_report(kind: str, grid: SampleGrid, a: float, b: float,
                  abs_tol: float, records: list[dict]) -> dict:
    """Roll the per-sample records of one check up into its report."""
    A, B, c = grid.region
    violations = [r for r in records if not r["ok"]]
    elem_records = [r for r in records if "elementary_bound" in r]
    elem_violations = [r for r in elem_records if not r["elementary_ok"]]
    ratios = [r["ratio"] for r in records]
    return {
        "check": "log-zeta" if kind == "log" else "logder-zeta",
        "a": a,
        "b": b,
        "region": {"A": A, "B": B, "c": c},
        "sigma_mode": grid.sigma_mode.value,
        "seed": grid.seed,
        "abs_tol": abs_tol,
        "samples": len(records),
        "violations": len(violations),
        "first_violation": violations[0] if violations else None,
        "elementary_checked": len(elem_records),
        "elementary_violations": len(elem_violations),
        "min_ratio": min(ratios),
        "median_ratio": statistics.median(ratios),
        "records": records,
    }


def _run_checks(specs: list[tuple], abs_tol: float, workers: int) -> list[dict]:
    """One report per (kind, grid, a, b) spec, every sample on one pool.

    Pooling the samples of all checks pays the workers' start-up once.
    The samples travel in chunks (_chunks), one engine call each, and
    their records are put back in sample order.
    """
    if not (abs_tol > 0.0):
        raise DomainError(f"abs_tol must be positive, got {abs_tol!r}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers!r}")
    tasks = []
    for kind, grid, a, b in specs:
        if not (a > 0.0 and b > 0.0):
            raise DomainError(
                f"bound constants must be positive; got a={a!r}, b={b!r}")
        A, B, c = grid.region
        tasks += [(kind, sigma, t, a, b, A, B, c, abs_tol)
                  for sigma, t in grid.samples()]
    runs = _chunks(tasks)
    results = parallel_map(_eval_chunk, [[tasks[i] for i in run] for run in runs],
                           workers)
    ordered = [None] * len(tasks)
    for run, run_records in zip(runs, results):
        for i, record in zip(run, run_records):
            ordered[i] = record
    records = iter(ordered)
    return [_check_report(kind, grid, a, b, abs_tol,
                          list(itertools.islice(records, len(grid))))
            for kind, grid, a, b in specs]


def check_log_bound(grid: SampleGrid, a1: float, b1: float,
                    abs_tol: float = VERIFY_ABS_TOL, workers: int = 1) -> dict:
    """Test |log|zeta(sigma+it)|| <= a1 (b1 log ct)^(2(1-sigma)) loglog ct.

    Returns a report with per-sample records, the violation count and
    margin statistics (min and median of bound/observed).  Engine failures
    propagate annotated with the offending sample.
    """
    return _run_checks([("log", grid, a1, b1)], abs_tol, workers)[0]


def check_logder_bound(grid: SampleGrid, a2: float, b2: float,
                       abs_tol: float = VERIFY_ABS_TOL, workers: int = 1) -> dict:
    """Test |zeta'/zeta(sigma+it)| <= a2 (b2 log ct)^(2(1-sigma)) (loglog ct)^2.

    Right-edge samples are additionally required to sit under the
    unconditional Euler-product bound (1/B) loglog(ct); see the module
    docstring.  Report shape matches check_log_bound.
    """
    return _run_checks([("logder", grid, a2, b2)], abs_tol, workers)[0]


def default_verification(samples: int = VERIFY_SAMPLES,
                         abs_tol: float = VERIFY_ABS_TOL,
                         workers: int = 1) -> dict:
    """The standard suite: both inequalities at their published constants.

    The budget is split across four grids (interior and edge placement for
    each inequality).  Returns the four check reports plus roll-up counts;
    all_ok is True only with zero violations of both the tested bounds and
    the right-edge elementary bounds.
    """
    if samples < 4:
        raise DomainError(f"need at least 4 samples, got {samples!r}")
    per = samples // 4
    checks = _run_checks([
        ("log", build_grid(per, LOG_REGION, SigmaMode.INTERIOR_GRID, seed=0),
         DISPLAY_A1, DISPLAY_B1),
        ("log", build_grid(per, LOG_REGION, SigmaMode.REGION_EDGES, seed=1000),
         DISPLAY_A1, DISPLAY_B1),
        ("logder", build_grid(per, LOGDER_REGION, SigmaMode.INTERIOR_GRID,
                              seed=2000), DISPLAY_A2, DISPLAY_B2),
        ("logder", build_grid(per, LOGDER_REGION, SigmaMode.REGION_EDGES,
                              seed=3000), DISPLAY_A2, DISPLAY_B2),
    ], abs_tol, workers)
    total_violations = sum(c["violations"] for c in checks)
    elementary_violations = sum(c["elementary_violations"] for c in checks)
    return {
        "total_samples": sum(c["samples"] for c in checks),
        "total_violations": total_violations,
        "elementary_violations": elementary_violations,
        "all_ok": total_violations == 0 and elementary_violations == 0,
        "checks": checks,
    }


def dump_samples_csv(report: dict, path: str) -> None:
    """Write the per-sample records of one check report as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sigma", "t", "observed", "bound", "ratio"])
        for r in report["records"]:
            writer.writerow([repr(r["sigma"]), repr(r["t"]),
                             repr(r["observed"]), repr(r["bound"]),
                             repr(r["ratio"])])
