"""Euler-Maclaurin evaluation of the Riemann zeta function and its derivative.

For s = sigma + it with sigma > 0 and s != 1, every truncation point
N >= 2 gives the exact decomposition

    zeta(s) = sum_{n=1}^{N-1} n^(-s) + N^(1-s)/(s-1) + N^(-s)/2
              + sum_{k=1}^{K} T_k(s, N) + R_K(s, N),

    T_k(s, N) = B_{2k}/(2k)! * N^(1-s-2k) * prod_{j=0}^{2k-2} (s+j),

with B_{2k} the Bernoulli numbers (see nearone.bernoulli).  The remainder
after K correction terms obeys the classical estimate, valid for
sigma > -(2K+1):

    |R_K(s, N)| <= |T_{K+1}(s, N)| * |s + 2K + 1| / (sigma + 2K + 1).

The estimate holds for every N >= 2, so N only trades the cost of the
main sum against the decay of the correction terms.  With t the largest
|t| of a batch, the engine takes (truncation_point)

    N = max(20, min(ceil(1.1 t), 20 + ceil(t / 2))),

which is ceil(1.1 t) up to t = 33 and about 20 + t/2 above.  Then every
point of the batch has |s| < 2N, so |s| / (2 pi N) < 1/pi.  Since
|T_{k+1} / T_k| < (|s| + 2k)^2 / (2 pi N)^2, each correction term is
more than 9 times smaller than the one before while |s| + 2k < 2N,
which holds for k <= 10 everywhere and for k <= 19 when t > 33.  The
engine adds correction terms until every point's remainder estimate is
at or below its rounding floor (below), or until the terms run out, and
stops early only if every point's remainder plus floor fits its budget.
Unless the terms run out, a reported bound is therefore at most twice the rounding
floor and does not depend on abs_tol once abs_tol is reachable: abs_tol
only decides whether the result is accepted.  At most 14 terms were used
over 14 values of sigma in [0.401, 2.999], 201 heights in [0, 1e5] and
abs_tol from 1e-13 to 1e-6.  If the remainder after 20 terms still
misses its budget, the engine raises ConvergenceError naming sigma, t
and N.

Derivative.  zeta'(s) is evaluated by differentiating every piece term by
term: the main sum acquires -log n weights, the two tail terms are
differentiated in closed form, and each correction term satisfies
T_k'(s) = T_k(s) * (sum_{j=0}^{2k-2} 1/(s+j) - log N).  The remainder of
the differentiated series is bounded through the Cauchy integral formula
on the circle |w - s| = rho with rho = 5e-4:

    |R_K'(s)| <= max_{|w-s|=rho} |R_K(w)| / rho,

and the right side is majorized by the remainder estimate evaluated with
Re w >= sigma - rho and |w| <= |s| + rho, computed in log space to avoid
overflow of the intermediate product.

Rounding allowance.  Reported error bounds add a worst-case model of the
double-precision rounding error.  Writing eps for the unit roundoff step
(2^-52), S1 for an integral upper bound on sum n^(-sigma), and M for the
total magnitude of all accumulated terms, the model charges

    eps * ((log2 N + 28) * M  +  2 |t| log N * S1).

The main sum exponentiates -s log n to n^(-s) and adds the terms with
NumPy's pairwise row sum: 8 accumulators over leaves of 128 scalars (64
complex terms), then halving.  In units of eps/2, (log2 N + 28) * M
covers, per unit of M: at most log2 N + 14 additions on any term's path
through that sum; 5 for exp, cos/sin and their product per term; 3 sigma
log n for the rounded real exponent, whose n^(-sigma)-weighted mean stays
below log2 N + 4 for sigma in [0.4, 3] and N <= 2^20 (checked
numerically); 12 for the two tail terms and their additions; 20 for at
most 20 correction terms; and 1 for their own rounding, as they total
below M / 100.  That is 2 log2 N + 56.  The second part covers the phase
error: -t log n is computed with relative error below 2 eps (log n and
the product each contribute at most one unit).  The derivative model
weights every term by log N and charges 38 instead of 28, ample for the
extra rounding of log n and of the product.  The summation order is
fixed by N alone, so the bits do not depend on BLAS threads or on the
worker count.  This floor is what makes very small tolerances unreachable
at large |t|; the engine raises ConvergenceError("tolerance unreachable
...") rather than returning a bound it cannot honor.

Per-point sigma.  A batch may give each point its own sigma
(zeta_points, used by the verifier); a shared sigma stays a Python float
throughout, so the shared-sigma paths do not touch the per-point
arithmetic.  The model's claims hold point by point for every sigma in
[0.4, 3].  Each point has its own row of the (points x terms) matrix and
its own pairwise row sum, whose order depends on N alone.  S1, M, the
phase floor, the remainder ratios and the Cauchy-circle term are
computed from that point's sigma.  The one numerical premise, the
n^(-sigma)-weighted mean of 3 sigma log n, was checked for every sigma
in [0.4, 3] at each N <= 2^20.  The shared N only makes a point's sum
longer than its own height needs, and the model charges it through
log2 N.

Supported domain: sigma in [0.4, 3], |t| <= 1e5, |s - 1| >= 1e-3; the
derivative additionally keeps a 1e-3 margin from the sigma and t edges.
Negative t is folded to positive by the reflection zeta(conj s) =
conj(zeta(s)).  All evaluation is pure and safe for concurrent callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .bernoulli import BERNOULLI_EVEN
from .errors import ConvergenceError, DomainError

__all__ = [
    "ComplexPoint",
    "EvaluatedValue",
    "zeta",
    "zeta_prime",
    "zeta_with_prime",
    "zeta_many",
    "zeta_points",
    "truncation_point",
    "inv_abs_zeta",
    "inv_abs_zeta_many",
    "SIGMA_MIN",
    "SIGMA_MAX",
    "T_MAX",
    "POLE_MARGIN",
    "ZETA_FLOOR",
]

SIGMA_MIN = 0.4
SIGMA_MAX = 3.0
T_MAX = 1.0e5
POLE_MARGIN = 1.0e-3
EDGE_MARGIN = 1.0e-3          # extra boundary distance required by zeta_prime
DERIV_RADIUS = 5.0e-4         # Cauchy circle radius; < EDGE_MARGIN by design
MIN_ABS_TOL = 1.0e-13
DEFAULT_ABS_TOL = 1.0e-10
ZETA_FLOOR = 1.0e-3           # |zeta| guard for the reciprocal integrand
INV_REL_TOL = 9.0e-9          # internal target giving 1/|zeta| rel err <= 1e-8

_EPS = math.ulp(1.0)          # 2^-52
_PHASE_ROUNDING = 2.0
_SUM_SLACK = 28.0
_SUM_SLACK_PRIME = 38.0
_CHUNK = 1 << 21              # max elements of the (points x terms) matrix

# B_{2k}/(2k)! for the 21 terms examined (at most 20 are added), exact
# rationals rounded once to double.
_BFAC = tuple(
    float(Fraction(num, den) / math.factorial(2 * k))
    for k, (num, den) in enumerate(BERNOULLI_EVEN[:21], start=1)
)
_LOG_ABS_BFAC = tuple(math.log(abs(b)) for b in _BFAC)


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = sigma + it of the complex plane."""

    sigma: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise DomainError("ComplexPoint requires finite coordinates")

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class EvaluatedValue:
    """An evaluation result with a rigorous absolute error bound.

    terms_used is the truncation point N of the main Dirichlet sum.
    """

    value: complex
    abs_error_bound: float
    terms_used: int

    def __post_init__(self) -> None:
        if not (self.abs_error_bound >= 0.0 and math.isfinite(self.abs_error_bound)):
            raise DomainError("abs_error_bound must be finite and non-negative")
        if self.terms_used < 1:
            raise DomainError("terms_used must be a positive integer")


def _power_sum_bound(N: int, a):
    """Upper bound for sum_{n=1}^{N-1} n^(-a) via integral comparison, a > 0.

    a is a float or an array of them, bounded elementwise.
    """
    if np.ndim(a) == 0:
        if abs(a - 1.0) < 1.0e-12:
            return 1.0 + math.log(N)
        return 1.0 + (N ** (1.0 - a) - 1.0) / (1.0 - a)
    near = np.abs(a - 1.0) < 1.0e-12
    d = np.where(near, 1.0, 1.0 - a)
    return np.where(near, 1.0 + math.log(N), 1.0 + (N ** d - 1.0) / d)


def _coerce_point(s: Union[ComplexPoint, complex, float]) -> tuple[float, float]:
    if isinstance(s, ComplexPoint):
        return float(s.sigma), float(s.t)
    z = complex(s)
    return z.real, z.imag


def _check_domain(sigma: float, t: float, margin: float = 0.0) -> None:
    if not (math.isfinite(sigma) and math.isfinite(t)):
        raise DomainError(f"non-finite coordinates sigma={sigma!r}, t={t!r}")
    if sigma < SIGMA_MIN + margin or sigma > SIGMA_MAX - margin:
        raise DomainError(
            f"sigma={sigma!r} outside supported strip "
            f"[{SIGMA_MIN + margin}, {SIGMA_MAX - margin}]")
    if abs(t) > T_MAX - margin:
        raise DomainError(f"|t|={abs(t)!r} exceeds supported height {T_MAX - margin}")
    if abs(complex(sigma, t) - 1.0) < POLE_MARGIN:
        raise DomainError(
            f"s={complex(sigma, t)!r} within {POLE_MARGIN} of the pole at s=1")


def _check_heights(sigma: float, ts: Sequence[float]) -> np.ndarray:
    """Validate a batch of heights sharing sigma; return it as an array.

    Only the largest |t| can exceed T_MAX and only the smallest can come
    within POLE_MARGIN of s = 1, so those two entries are checked; argmax
    and argmin return the first NaN, which _check_domain rejects.
    """
    arr = np.asarray(ts, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("ts must be one-dimensional")
    if len(arr):
        abs_t = np.abs(arr)
        for i in (np.argmax(abs_t), np.argmin(abs_t)):
            _check_domain(sigma, float(arr[i]))
    return arr


def _check_tol(abs_tol: float) -> None:
    if not (math.isfinite(abs_tol) and abs_tol >= MIN_ABS_TOL):
        raise DomainError(f"abs_tol must be >= {MIN_ABS_TOL}; got {abs_tol!r}")


def truncation_point(tmax: float) -> int:
    """The main sum's N for a batch whose largest |t| is tmax."""
    return max(20, min(math.ceil(1.1 * tmax), 20 + math.ceil(tmax / 2)))


def _at_point(exc: Exception, index: int) -> Exception:
    """exc with the batch position of the point it names attached."""
    exc.index = index
    return exc


def _evaluate(sigma, ts: np.ndarray, abs_tol: float, rel_tol: float,
              want_prime: bool):
    """One Euler-Maclaurin pass over a batch of points sigma + i ts.

    sigma is a float shared by every point or an array aligned with ts.
    A float stays a Python float throughout, so shared-sigma batches get
    the same bits whatever else the engine is asked to do.  N is
    truncation_point(max |t|), so callers should pass heights of
    comparable magnitude.  Negative heights are evaluated at |t| and
    conjugated.  Returns (values, primes, bounds, bounds_prime, N) with
    primes/bounds_prime None unless want_prime.  Raises ConvergenceError,
    with the failing point's position as its index, if some point's
    tolerance sits below the rounding model, or if the remainder still
    misses its budget after the last correction term.
    """
    per_point = np.ndim(sigma) > 0
    neg = ts < 0.0
    ts = np.abs(ts)
    N = truncation_point(float(np.max(ts, initial=0.0)))
    npts = len(ts)
    lnN = math.log(N)
    log2N = math.log2(N)

    n = np.arange(1, N, dtype=np.float64)
    logn = np.log(n)

    values = np.empty(npts, dtype=np.complex128)
    primes = np.empty(npts, dtype=np.complex128) if want_prime else None
    bounds = np.empty(npts, dtype=np.float64)
    bounds_p = np.empty(npts, dtype=np.float64) if want_prime else None

    def point_at(i):
        """sigma, t of point i of the chunk (sc, tc), for error messages."""
        return f"sigma={float(sc[i]) if per_point else sc!r}, t={float(tc[i])!r}"

    def budget(rem, val, mag, slack, phase_floor):
        """Rounding floor of one track of the chunk (sc, tc), and where rem
        fits in the budget above it; ConvergenceError where the budget is
        at or below the floor."""
        floor = _EPS * (log2N + slack) * mag + phase_floor
        basis = np.maximum(abs_tol, rel_tol * np.maximum(np.abs(val), ZETA_FLOOR))
        bad = basis <= floor
        if np.any(bad):
            i = int(np.argmax(bad))
            raise _at_point(ConvergenceError(
                f"tolerance unreachable: rounding floor {floor[i]:.3e} exceeds "
                f"the budget {basis[i]:.3e} at {point_at(i)}"), start + i)
        return floor, rem <= basis - floor

    rows = max(1, _CHUNK // max(N - 1, 1))
    for start in range(0, npts, rows):
        tc = ts[start:start + rows]
        sc = sigma[start:start + rows] if per_point else sigma
        s = sc + 1j * tc
        terms = np.multiply.outer(-s, logn)
        np.exp(terms, out=terms)                    # n^(-s)
        main = terms.sum(axis=1)
        if want_prime:
            terms *= logn
            main_p = -terms.sum(axis=1)
        del terms

        S1 = _power_sum_bound(N, sc)
        sm1 = s - 1.0
        abs_sm1 = np.abs(sm1)
        abs_s = np.abs(s)
        nphase = np.exp(-1j * tc * lnN)
        n1s = N ** (1.0 - sc)                       # N^(1-sigma)
        npow = n1s * nphase
        half = 0.5 * N ** (-sc)

        value = main + npow / sm1 + half * nphase
        mag = S1 + n1s / abs_sm1 + half
        phase_floor = _PHASE_ROUNDING * _EPS * tc * lnN * S1

        if want_prime:
            prime = (main_p
                     + npow * (-lnN / sm1 - 1.0 / sm1 ** 2)
                     - lnN * half * nphase)
            magp = (lnN * S1
                    + n1s * (lnN / abs_sm1 + 1.0 / abs_sm1 ** 2)
                    + lnN * half)
            phase_floor_p = phase_floor * lnN
            psum = 1.0 / s
            logpoly_rho = np.log(abs_s + DERIV_RADIUS)

        # Correction terms.  Q_k = N^(1-s-2k) * prod_{j<=2k-2}(s+j); at
        # iteration k the remainder of stopping with k-1 terms is checked
        # through T_k before T_k is added.  The loop ends once every point
        # fits its budget and every remainder is settled at or below its
        # rounding floor, or the last term is reached.
        Q = npow / (N * N) * s
        for k in range(1, len(_BFAC) + 1):
            Tk = _BFAC[k - 1] * Q
            abs_Tk = np.abs(Tk)
            rem = abs_Tk * (abs_s + (2 * k - 1)) / (sc + (2 * k - 1))
            floor_v, fits = budget(rem, value, mag, _SUM_SLACK, phase_floor)
            settled = rem <= floor_v
            if want_prime:
                log_rem_p = (_LOG_ABS_BFAC[k - 1]
                             + (1.0 - (sc - DERIV_RADIUS) - 2 * k) * lnN
                             + logpoly_rho
                             + np.log((abs_s + DERIV_RADIUS + 2 * k - 1)
                                      / (sc - DERIV_RADIUS + 2 * k - 1))
                             - math.log(DERIV_RADIUS))
                rem_p = np.exp(log_rem_p)
                floor_p, fits_p = budget(rem_p, prime, magp, _SUM_SLACK_PRIME,
                                         phase_floor_p)
                fits = fits & fits_p
                settled = settled & (rem_p <= floor_p)
            if np.all(fits) and (np.all(settled) or k == len(_BFAC)):
                break
            if k == len(_BFAC):
                i = int(np.argmin(fits))
                raise _at_point(ConvergenceError(
                    f"tolerance unreachable: correction terms exhausted at "
                    f"{point_at(i)}, N={N}"), start + i)

            value = value + Tk
            mag = mag + abs_Tk
            f1 = s + (2 * k - 1)
            f2 = s + 2 * k
            if want_prime:
                Tkp = Tk * (psum - lnN)
                prime = prime + Tkp
                magp = magp + np.abs(Tkp)
                psum = psum + 1.0 / f1 + 1.0 / f2
                logpoly_rho = (logpoly_rho
                               + np.log(abs_s + DERIV_RADIUS + 2 * k - 1)
                               + np.log(abs_s + DERIV_RADIUS + 2 * k))
            Q = Q * f1 * f2 / (N * N)

        values[start:start + rows] = value
        bounds[start:start + rows] = rem + floor_v
        if want_prime:
            primes[start:start + rows] = prime
            bounds_p[start:start + rows] = rem_p + floor_p

    values = np.where(neg, np.conj(values), values)
    if want_prime:
        primes = np.where(neg, np.conj(primes), primes)
    return values, primes, bounds, bounds_p, N


def _eval_scalar(sigma: float, t: float, abs_tol: float, want_prime: bool):
    """[zeta] or [zeta, zeta'] at sigma + it, as EvaluatedValues."""
    values, primes, bounds, bounds_p, N = _evaluate(
        sigma, np.array([t]), abs_tol, 0.0, want_prime)
    tracks = [(values, bounds), (primes, bounds_p)][:2 if want_prime else 1]
    return [EvaluatedValue(complex(v[0]), float(b[0]), N) for v, b in tracks]


def zeta(s: Union[ComplexPoint, complex, float],
         abs_tol: float = DEFAULT_ABS_TOL) -> EvaluatedValue:
    """Evaluate zeta(s) with |value - zeta(s)| <= abs_error_bound <= abs_tol.

    Raises DomainError outside the supported strip and ConvergenceError
    when abs_tol sits below the attainable rounding floor.
    """
    _check_tol(abs_tol)
    sigma, t = _coerce_point(s)
    _check_domain(sigma, t)
    return _eval_scalar(sigma, t, abs_tol, False)[0]


def zeta_prime(s: Union[ComplexPoint, complex, float],
               abs_tol: float = DEFAULT_ABS_TOL) -> EvaluatedValue:
    """Evaluate zeta'(s) with |value - zeta'(s)| <= abs_error_bound <= abs_tol.

    Requires s at distance >= 1e-3 from the strip boundary so the Cauchy
    circle of radius 5e-4 used by the remainder bound stays inside.
    """
    return zeta_with_prime(s, abs_tol)[1]


def zeta_with_prime(s: Union[ComplexPoint, complex, float],
                    abs_tol: float = DEFAULT_ABS_TOL
                    ) -> tuple[EvaluatedValue, EvaluatedValue]:
    """Evaluate zeta(s) and zeta'(s) together, sharing the main sum."""
    _check_tol(abs_tol)
    sigma, t = _coerce_point(s)
    _check_domain(sigma, t, margin=EDGE_MARGIN)
    value, prime = _eval_scalar(sigma, t, abs_tol, True)
    return value, prime


def zeta_many(sigma: float, ts: Sequence[float],
              abs_tol: float = DEFAULT_ABS_TOL) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate zeta(sigma + it) for a batch of heights of similar size.

    One truncation point serves the whole batch (set by max |t|), so this
    is intended for clustered heights such as quadrature nodes of one
    panel.  Returns (values, abs_error_bounds, terms_used).
    """
    _check_tol(abs_tol)
    arr = _check_heights(sigma, ts)
    values, _, bounds, _, N = _evaluate(sigma, arr, abs_tol, 0.0, False)
    return values, bounds, N


def zeta_points(sigmas: Sequence[float], ts: Sequence[float],
                abs_tol: float = DEFAULT_ABS_TOL, with_prime: bool = False):
    """zeta (and zeta' if with_prime) at the points sigmas[i] + i ts[i].

    One engine pass serves the batch, with sigma per point and one
    truncation point set by max |t|, so heights should be of similar size.
    Each point is checked as zeta, or zeta_with_prime if with_prime,
    checks it.  Returns (values, bounds, primes, bounds_prime, terms_used)
    with primes/bounds_prime None unless with_prime.  A DomainError or
    ConvergenceError about one point carries its position as `index`.
    """
    _check_tol(abs_tol)
    sig = np.asarray(sigmas, dtype=np.float64)
    arr = np.asarray(ts, dtype=np.float64)
    if sig.ndim != 1 or sig.shape != arr.shape:
        raise DomainError("sigmas and ts must be aligned one-dimensional sequences")
    margin = EDGE_MARGIN if with_prime else 0.0
    for i, (sigma, t) in enumerate(zip(sig.tolist(), arr.tolist())):
        try:
            _check_domain(sigma, t, margin)
        except DomainError as exc:
            exc.index = i
            raise
    values, primes, bounds, bounds_p, N = _evaluate(sig, arr, abs_tol, 0.0,
                                                    with_prime)
    return values, bounds, primes, bounds_p, N


def inv_abs_zeta(sigma0: float, t: float) -> float:
    """Return 1/|zeta(sigma0 + it)| with relative error <= 1e-8.

    sigma0 must lie in [0.9, 1.0); t of either sign is accepted since
    |zeta| is even in t.  Raises DomainError if |zeta| falls below the
    1e-3 guard (cannot happen for sigma0 in this range at moderate t, but
    checked unconditionally) and propagates engine errors.
    """
    return float(inv_abs_zeta_many(sigma0, [t])[0])


def inv_abs_zeta_many(sigma0: float, ts: Sequence[float]) -> np.ndarray:
    """Vectorized inv_abs_zeta over clustered heights (one shared N)."""
    if not (0.9 <= sigma0 < 1.0):
        raise DomainError(f"sigma0={sigma0!r} outside [0.9, 1.0)")
    arr = _check_heights(sigma0, ts)
    values, _, bounds, _, _ = _evaluate(sigma0, arr, 0.0, INV_REL_TOL, False)
    abs_v = np.abs(values)
    bad = abs_v - bounds < ZETA_FLOOR
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(
            f"|zeta({sigma0!r} + {abs(float(arr[i]))!r}i)| = {float(abs_v[i]):.6f} "
            f"is below the {ZETA_FLOOR} reciprocal guard")
    return 1.0 / abs_v
