"""Euler-Maclaurin evaluation of the Riemann zeta function and its derivative.

For s = sigma + it with sigma > 0 and s != 1, every truncation point
N >= 2 gives the exact decomposition

    zeta(s) = sum_{n=1}^{N-1} n^(-s) + N^(1-s)/(s-1) + N^(-s)/2
              + sum_{k=1}^{K} T_k(s, N) + R_K(s, N),

    T_k(s, N) = B_{2k}/(2k)! * N^(1-s-2k) * prod_{j=0}^{2k-2} (s+j),

with B_{2k} the Bernoulli numbers, computed exactly at import from their
recurrence (_bernoulli) and rounded once to double.  The remainder
after K correction terms obeys the classical estimate, valid for
sigma > -(2K+1):

    |R_K(s, N)| <= |T_{K+1}(s, N)| * |s + 2K + 1| / (sigma + 2K + 1).

The estimate holds for every N >= 2, so N only trades the cost of the
main sum against the decay of the correction terms.  The engine picks N
once per batch, before the main sum, from the batch's least and largest
sigma, its largest |t| = t and whether zeta' is wanted (main_sum_terms):
the smallest N >= 20 at which, at both corners (least sigma, t) and
(largest sigma, t), the remainder estimate after 18 correction terms,
and with zeta' the Cauchy-circle bound below, is at most 1/1000 of a
lower bound of that point's rounding floor (below).  That lower bound is
eps (log2 N + 28 + 2 t log N) S1 for the value and log N times it for
zeta'.  The remainder falls and the floor grows with N, so a bisection
over [20, 20 + ceil(t / 2)] finds N; no point of the supported domain
reaches the top of that bracket.  Neither abs_tol nor rel_tol enters the
rule, so N and the bits depend on sigma, the heights and the zeta' track
alone.  At sigma = 0.98, N is 3148, 3609 and 9118 at t = 1e4, 11520 and
3e4 (3641, 4173 and 10503 with zeta').  Every bound stays rigorous
whatever N is, since the loop below checks the remainder as it goes; the
rule only decides where the work goes.  Since |T_{k+1} / T_k| <
(|s| + 2k)^2 / (2 pi N)^2, the decay per term follows from
(|s| + 2k) / (2 pi N).  That is about 0.5 for sigma near 1 (0.51 at
t = 11520), so each term is about 4 times smaller than the one before;
over the whole domain it stays below 0.87 for k <= 19 (the worst corner
is sigma = 3, t = 1e5), so each term is at least 1.3 times smaller.

The engine adds correction terms until every point's remainder estimate
is at or below its rounding floor, or until the terms run out, and stops
at the first such term where every point's remainder plus floor fits its
budget.  Unless the terms run out, a reported bound is therefore at most
twice the rounding floor, and every abs_tol at or above the bound
returned at the first settled term returns the same bits: abs_tol only
decides whether that result is accepted.  A smaller reachable abs_tol
adds terms past it.  The default, defaults.ZETA_ABS_TOL = 1e-6, sits
above the rounding floor of zeta and zeta' for every sigma of the strip
and |t| <= 3e4.  Over 14 values of sigma in [0.401, 2.999], 201 heights
in [0, 1e5] and abs_tol from 1e-13 to 1e-6, at most 15 terms were added,
except where the returned bound came within 14% of abs_tol: there the
remainder had to fit the thin budget left above the floor, and up to 20
were added.  If the remainder after 20 terms still misses its budget,
the engine raises ConvergenceError naming sigma, t and N, or, where that
remainder has already settled at or below the rounding floor, naming the
floor, the remainder and the budget: the tolerance then sits within the
remainder of the floor.

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

    eps * ((log2 N + 28 + extra) * M  +  2 |t| log N * S1),

where extra counts the exps and products by which a term's path through
the main sum exceeds one exp (below).  A term n^(-s) taken as the one exp
of -s log n is charged 28; the main sum adds the terms with NumPy's
pairwise row sum: 8 accumulators over leaves of 128 scalars (64 complex
terms), then halving.  In units of eps/2, (log2 N + 28) * M covers, per
unit of M: at most log2 N + 14 additions on any term's path through that
sum; 5 for exp, cos/sin and their product per term; 3 sigma log n for the
rounded real exponent, whose n^(-sigma)-weighted mean stays below
log2 N + 4 for sigma in [0.4, 3] and N <= 2^20 (checked numerically); 12
for the two tail terms and their additions; 20 for at most 20 correction
terms; and 1 for their own rounding, as they total below M / 100 (below
M / 1000 over the sweep above).  That is 2 log2 N + 56.  The second part
covers the phase error: -t log n is computed with relative error below
2 eps (log n and the product each contribute at most one unit).  The
derivative model weights every term by log N and charges 38 instead of
28, ample for the extra rounding of log n and of the product.  The
summation order is fixed by N alone, so the bits do not depend on BLAS
threads or on the worker count.  This floor is what makes very small
tolerances unreachable at large |t|; the engine raises
ConvergenceError("tolerance unreachable ...") rather than returning a
bound it cannot honor.

Main sum in blocks.  The main sum is formed one block of B consecutive
points at a time (_main_sums).  With t_h the head of a block and
d_j = t_{h+j} - t_h, the exact identity

    n^(-(sigma + i t_{h+j})) = n^(-(sigma + i t_h)) * n^(-i d_j)

gives every row of the block as the head's row times the shared row of
offset d_j.  One rule on the batch (_block_size) takes
B = min(ceil(sqrt K), 16) when sigma is shared, K >= 8, the heights
ascend, every block has the offsets of the first, and each offset
t_{h+j} - t_h is an exact float difference, which an error-free TwoSum of
t_{h+j} and -t_h checks point by point.  A Romberg level's new nodes
a_k + h (1, 3, 5, ...) over a run of adjacent panels of equal width
(nearone.quadrature) pass it when the edges and h are short in binary, a
run that starts at t = 0 included.  Every other batch takes B = 1:
per-point sigma, fewer than 8 points, a single point, or a progression
whose step is not binary-exact.  The heads t_h are themselves an
ascending progression, and the same rule on them gives B2 (1 if they do
not pass it, as fewer than 8 heads never do): with t_H the head of a
block of B2 heads and e_k = t_{H+k} - t_H, each head's row is the
super-head's row n^(-(sigma + i t_H)) times the shared row of offset e_k,
formed when its block is reached.  A batch of K points therefore costs
ceil(K / (B B2)) + B2 + B exp rows instead of K: 46 at K = 3584 (B = 16,
B2 = 15) where one level took 224 + 16.  At most 2B + B2 + 2 rows of N
terms are held at once whatever the batch's size (fine and coarse
offsets, one block, the super-head's row and the head's); B and B2 are at
most 16, so that is at most 50 rows (2.9 MB at N = 3609, t = 11520), for a
Romberg level of one panel or of a run of 64 panels alike.  Each row is
then summed by the same pairwise row sum.  Each factored level adds one
exp and one complex product to a term's path: 5 units of eps/2 for the
exp and 3 for the product, whose normwise error is at most sqrt(5)
units.  Such batches therefore charge extra = 4 per factored level: with
B2 = 1, two exps and a product, 32 instead of 28 and 42 instead of 38 for
the derivative; with B2 > 1, three exps and two products, extra = 8.
The phase charge is unchanged: the rounded phases -t_H log n, -e_k log n
and -d_j log n are each off by at most 2 eps times their size, and since
t_H, e_k and d_j are >= 0 and sum exactly to t, their errors add to at
most 2 eps t log n.  This is why the heights must ascend; they are folded
to |t| first, so every head is >= 0.

Multiplicative main sum.  With B = 1 the rows use that n^(-s) is
completely multiplicative, so only the primes take exps, about
1 / log N of the terms.  The points go _ROW_GROUP = 8 at a time
(_power_columns): term 1 is exactly 1.0; each prime p < N takes
exp(-s log p), the same expression and bits as a single-exp term; then,
one doubling level [2^j, 2^(j+1)) at a time, each composite c takes the
product of the terms at spf(c), its smallest prime factor, and at
c / spf(c), both below 2^j, so a level is one gather, multiply and
scatter.  Each row is then summed by the same pairwise row sum.  The
smallest-prime-factor plan (_factor_plan) depends on N alone; it is built
on first use, sized to the largest N asked for so far (rounded up to a
multiple of 4096), never changed once built, and sliced for each N.  A group holds its terms twice, by term and
by row for the row sum, plus one level's gathers, at most one group's
worth: under 3 _ROW_GROUP = 24 rows of N terms (4 MB at N = 10503).  Term
n passes through Omega(n) exps and Omega(n) - 1 complex products, Omega(n)
counting the prime factors with multiplicity: 8 Omega(n) - 3 units of
eps/2 against the single exp's 5.  The real exponents' charge, 3 sigma log
p per factor, and the phase charge, 2 eps t log p per factor, sum over the
factors to the single exp's 3 sigma log n and 2 eps t log n.  Since
Omega(n) <= Omega_N = floor(log2(N - 1)), such batches charge
extra = 4 (Omega_N - 1) on both tracks: 40 at N = 3609 and 48 at
N = 10503.  The products' second-order terms, below (4 Omega_N eps)^2 of
a term, are far inside one unit.  The larger floor leaves N unchanged, since
main_sum_terms plans against the single-exp floor, a lower bound of it.

Entry points.  zeta_points is the one batch entry; zeta and
zeta_with_prime are its float-sigma batch of one, and inv_abs_zeta_many
feeds the reciprocal integral.  All run the one pass _evaluate, whose
main sum takes the factored blocks (integrals' Romberg levels) or the
multiplicative rows (single points and the verifier's chunks).

Per-point sigma.  zeta_points takes sigma as a float shared by every point
or as a sequence aligned with the heights (the verifier's chunks).  A
sequence whose entries are all equal is passed on as that shared sigma,
so a batch's path and bits depend on its points, not on how sigma was
passed.  A shared sigma stays a Python float throughout, so shared-sigma
batches do not touch the per-point arithmetic.  The model's claims hold
point by point for every sigma in [0.4, 3].  Each point has its own row
and its own pairwise row sum, whose order depends on N alone; its terms do
not depend on the other points of its group.  S1, M, the phase floor,
the remainder ratios and the Cauchy-circle term are computed from that
point's sigma.  The one numerical premise, the n^(-sigma)-weighted mean of
3 sigma log n, was checked for every sigma in [0.4, 3] at each N <= 2^20.
The shared N only makes a point's sum longer than its own height needs,
and the model charges it through log2 N.

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

from .defaults import ZETA_ABS_TOL
from .errors import ConvergenceError, DomainError

__all__ = [
    "EvaluatedValue",
    "zeta",
    "zeta_with_prime",
    "zeta_points",
    "main_sum_terms",
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
EDGE_MARGIN = 1.0e-3          # extra boundary distance required for zeta'
DERIV_RADIUS = 5.0e-4         # Cauchy circle radius; < EDGE_MARGIN by design
MIN_ABS_TOL = 1.0e-13
ZETA_FLOOR = 1.0e-3           # |zeta| guard for the reciprocal integrand
INV_REL_TOL = 9.0e-9          # internal target giving 1/|zeta| rel err <= 1e-8

_EPS = math.ulp(1.0)          # 2^-52
_PHASE_ROUNDING = 2.0
_SUM_SLACK = 28.0
_SUM_SLACK_PRIME = 38.0
_FACTORED_SLACK = 4.0         # added to both per factored level
_MIN_FACTORED = 8             # fewest points of a batch with B > 1
_MAX_BLOCK = 16               # largest B and B2: at most 50 rows held
_ROW_GROUP = 8                # rows built at once where B = 1
_PLAN_TERMS = 18              # correction terms N is chosen for: two to spare
_PLAN_SHARE = 0.001           # their remainder's share of the rounding floor


def _bernoulli(m_max: int) -> list[Fraction]:
    """B_0 .. B_{m_max} as exact fractions, from the recurrence
    sum_{j=0}^{m} C(m+1, j) B_j = 0; B_m = 0 for odd m >= 3, so those
    terms of the sum are skipped."""
    B = [Fraction(1), Fraction(-1, 2)]
    for m in range(2, m_max + 1):
        B.append(Fraction(0) if m % 2 else -sum(
            math.comb(m + 1, j) * B[j] for j in range(m) if B[j]) / (m + 1))
    return B


# B_{2k}/(2k)! for the 21 terms examined (at most 20 are added), exact
# rationals rounded once to double.
_BFAC = tuple(float(b / math.factorial(2 * k))
              for k, b in enumerate(_bernoulli(42)[2::2], start=1))
_LOG_ABS_BFAC = tuple(math.log(abs(b)) for b in _BFAC)


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


def _check_points(sigma, ts, margin: float = 0.0) -> np.ndarray:
    """Check the batch sigma + i ts as _check_domain checks each point;
    return ts as an array.  sigma is shared or aligned with ts.  The first
    point that fails raises _check_domain's DomainError, with the point's
    position as its index.
    """
    arr = np.asarray(ts, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("ts must be one-dimensional")
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), arr.shape)
    # _check_domain's comparisons, false wherever a coordinate is NaN
    with np.errstate(invalid="ignore"):
        ok = ((sig >= SIGMA_MIN + margin) & (sig <= SIGMA_MAX - margin)
              & (np.abs(arr) <= T_MAX - margin)
              & (np.hypot(sig - 1.0, arr) >= POLE_MARGIN))
    for i in np.flatnonzero(~ok).tolist():
        try:
            _check_domain(float(sig[i]), float(arr[i]), margin)
        except DomainError as exc:
            raise _at_point(exc, i)
    return arr


def _check_tol(abs_tol: float) -> None:
    if not (math.isfinite(abs_tol) and abs_tol >= MIN_ABS_TOL):
        raise DomainError(f"abs_tol must be >= {MIN_ABS_TOL}; got {abs_tol!r}")


def main_sum_terms(sigma_lo: float, sigma_hi: float, tmax: float,
                   want_prime: bool) -> int:
    """The main sum's N for a batch with sigma in [sigma_lo, sigma_hi] and
    largest |t| tmax: the smallest N in [20, 20 + ceil(tmax / 2)] at
    which, at both corners (sigma_lo, tmax) and (sigma_hi, tmax), the
    remainder estimate after _PLAN_TERMS correction terms, and the zeta'
    Cauchy bound if want_prime, is at most _PLAN_SHARE of a lower bound of
    that track's rounding floor (module docstring).  No batch of the
    supported domain needs the bracket's top.
    """
    k = _PLAN_TERMS + 1             # T_k bounds the remainder after k - 1
    j = np.arange(2.0 * k - 1)      # the factors s + j of T_k
    # per corner, each track's log bound as c - e log N, and the power p
    # of log N in its floor
    corners = []
    for sigma in {sigma_lo, sigma_hi}:
        abs_s = math.hypot(sigma, tmax)
        tracks = [(_LOG_ABS_BFAC[k - 1]
                   + float(np.log(np.hypot(sigma + j, tmax)).sum())
                   + math.log((abs_s + 2 * k - 1) / (sigma + 2 * k - 1)),
                   sigma + 2 * k - 1, 0)]
        if want_prime:
            r = DERIV_RADIUS
            tracks.append((_LOG_ABS_BFAC[k - 1]
                           + float(np.log(abs_s + r + j).sum())
                           + math.log((abs_s + r + 2 * k - 1)
                                      / (sigma - r + 2 * k - 1))
                           - math.log(r),
                           sigma - r + 2 * k - 1, 1))
        corners.append((sigma, tracks))

    def enough(N: int) -> bool:
        lnN = math.log(N)
        for sigma, tracks in corners:
            log_floor = math.log(
                _PLAN_SHARE * _EPS * _power_sum_bound(N, sigma)
                * (math.log2(N) + _SUM_SLACK + _PHASE_ROUNDING * tmax * lnN))
            if any(c - e * lnN > log_floor + p * math.log(lnN)
                   for c, e, p in tracks):
                return False
        return True

    lo, hi = 20, 20 + math.ceil(tmax / 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if enough(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _at_point(exc: Exception, index: int) -> Exception:
    """exc with the batch position of the point it names attached."""
    exc.index = index
    return exc


def _block_size(sigma, ts: np.ndarray) -> int:
    """B if the main sum of the batch sigma + i ts is factored in blocks of
    B points (module docstring), else 0."""
    K = len(ts)
    if np.ndim(sigma) > 0 or K < _MIN_FACTORED:
        return 0
    B = min(math.isqrt(K - 1) + 1, _MAX_BLOCK)  # ceil(sqrt K), capped
    head = np.repeat(ts[::B], B)[:K]
    d = ts - head
    # TwoSum of ts and -head: err is the rounding error of d
    back = d + head
    err = (ts - back) - (head + (d - back))
    # ascending from ts[0] >= 0, so every head is >= 0
    if (ts[0] >= 0.0 and np.all(ts[1:] > ts[:-1]) and np.all(err == 0.0)
            and np.all(d == d[np.arange(K) % B])):
        return B
    return 0


# The plan of the multiplicative main sum (_factor_plan): (limit, primes,
# composites, their smallest prime factors, their cofactors), each as
# indices n - 1 into a row of terms n < limit, the composites ascending.
# Built on first use, and replaced by a larger one, never changed, when a
# larger N is asked for; the limit is that N rounded up to a multiple of
# 4096, so a run of growing N rebuilds it rarely.  Sliced for each N, it
# gives the same indices whatever its limit.
_plan = None


def _factor_plan(N: int):
    """Indices n - 1 of the primes p < N, and per doubling level
    [2^j, 2^(j+1)) those of its composites c < N with those of spf(c) and
    c / spf(c), both below 2^j."""
    global _plan
    plan = _plan
    if plan is None or plan[0] < N:
        limit = -(-N // 4096) * 4096
        spf = np.zeros(limit, dtype=np.intp)    # 0 at 0, 1 and the primes
        for p in range(2, math.isqrt(limit - 1) + 1):
            if not spf[p]:
                tail = spf[p * p::p]
                tail[tail == 0] = p
        comp = np.flatnonzero(spf)
        plan = (limit, np.flatnonzero(spf[2:] == 0) + 1, comp - 1,
                spf[comp] - 1, comp // spf[comp] - 1)
        for index in plan[1:]:
            index.flags.writeable = False
        _plan = plan
    _, primes, comp, spf, cof = plan
    edges = np.searchsorted(comp, [(1 << j) - 1 for j in
                                   range(2, (N - 1).bit_length())] + [N - 1])
    levels = [(comp[a:b], spf[a:b], cof[a:b])
              for a, b in zip(edges[:-1].tolist(), edges[1:].tolist())]
    return primes[:np.searchsorted(primes, N - 1)], levels


def _power_columns(cols: np.ndarray, neg_s: np.ndarray, logn: np.ndarray,
                   primes, levels) -> None:
    """Fill cols[n - 1], n < N, with the terms n^(-s) of the points
    s = -neg_s, from the plan _factor_plan(N) of the terms logn: exps at
    the primes, then each composite c as the product of the terms at
    spf(c) and c / spf(c), one doubling level at a time."""
    # one item of items per n, so each factor of a level is one gather
    items = cols.view(np.dtype((np.void, cols.itemsize * len(neg_s)))).ravel()
    cols[0] = 1.0
    cols[primes] = np.exp(np.multiply.outer(logn[primes], neg_s))
    for c, a, b in levels:
        product = items[a].view(np.complex128)
        product *= items[b].view(np.complex128)
        items[c] = product.view(items.dtype)


def _main_sums(sigma, ts: np.ndarray, B: int, B2: int, logn: np.ndarray,
               want_prime: bool):
    """The main sums of _evaluate, sum n^(-s) and -sum log n n^(-s) over
    the terms logn (module docstring).  For B > 1, one block of B
    consecutive points at a time: the row of point h + j is the head row
    n^(-s_h) times the shared row n^(-i d_j).  The head rows of B2
    consecutive blocks are a super-head row n^(-s_H), which takes one exp,
    times the shared rows n^(-i e_k) of the heads' offsets; B2 = 1 gives
    every head its own exp.  For B = 1, _ROW_GROUP points at a time:
    _power_columns builds their terms by term, and they are copied to rows
    for the row sums.
    """
    K = len(ts)
    main = np.empty(K, dtype=np.complex128)
    main_p = np.empty_like(main) if want_prime else None

    def add_sums(lo, terms):
        main[lo:lo + len(terms)] = terms.sum(axis=1)
        if want_prime:
            terms *= logn
            main_p[lo:lo + len(terms)] = -terms.sum(axis=1)

    def offset_rows(offsets):
        rows = np.multiply.outer(-1j * offsets, logn)
        return np.exp(rows, out=rows)           # n^(-i d) per offset d

    if B > 1:
        heads = ts[::B]
        fine = offset_rows(ts[:B] - ts[0])
        coarse = offset_rows(heads[:B2] - heads[0])
        top = np.empty(len(logn), dtype=np.complex128)
        head = np.empty_like(top)
        block = np.empty_like(fine)
        for i, lo in enumerate(range(0, K, B)):
            k = i % B2
            if k == 0:
                np.multiply(logn, -(sigma + 1j * ts[lo]), out=top)
                np.exp(top, out=top)                    # n^(-s_H)
            np.multiply(top, coarse[k], out=head)       # n^(-s_h)
            add_sums(lo, np.multiply(fine[:K - lo], head,
                                     out=block[:K - lo]))
    else:
        plan = _factor_plan(len(logn) + 1)
        neg_s = -(sigma + 1j * ts)
        G = min(K, _ROW_GROUP)
        rows = np.empty((G, len(logn)), dtype=np.complex128)
        cols = np.empty((len(logn), G), dtype=np.complex128)
        for lo in range(0, K, _ROW_GROUP):
            lo = min(lo, K - G)     # the last group may overlap the one before
            _power_columns(cols, neg_s[lo:lo + G], logn, *plan)
            np.copyto(rows, cols.T)
            add_sums(lo, rows)
    return main, main_p


def _evaluate(sigma, ts: np.ndarray, abs_tol: float, rel_tol: float,
              want_prime: bool):
    """One Euler-Maclaurin pass over a batch of points sigma + i ts.

    sigma is a float shared by every point or an array aligned with ts.
    A float stays a Python float throughout, so shared-sigma batches get
    the same bits whatever else the engine is asked to do.  N is
    main_sum_terms of the batch's sigma range and max |t|, so callers
    should pass heights of comparable magnitude.  Negative heights are
    evaluated at |t| and conjugated.  The main sum goes in blocks of
    _block_size points, their heads in blocks of _block_size heads, or in
    multiplicative rows if it returns 0 (_main_sums); the rest is
    vectorized over the batch.  Returns (values, bounds, primes,
    bounds_prime, N) with primes/bounds_prime None unless want_prime.
    Raises ConvergenceError, with the failing point's position as its
    index, if some point's tolerance sits below the rounding model, or if
    the remainder still misses its budget after the last correction term
    (budget's message if that remainder has settled at or below the
    floor).
    """
    neg = ts < 0.0
    ts = np.abs(ts)
    N = main_sum_terms(float(np.min(sigma, initial=SIGMA_MAX)),
                       float(np.max(sigma, initial=SIGMA_MIN)),
                       float(np.max(ts, initial=0.0)), want_prime)
    lnN = math.log(N)
    log2N = math.log2(N)
    logn = np.log(np.arange(1, N, dtype=np.float64))

    def point_at(i):
        """sigma, t of point i, for error messages."""
        return (f"sigma={float(sigma[i]) if np.ndim(sigma) else sigma!r}, "
                f"t={float(ts[i])!r}")

    def budget(rem, val, mag, slack, phase_floor, last):
        """Rounding floor of one track, and where rem fits in the budget
        above it.  ConvergenceError where the budget is at or below the
        floor or, at the last term, where rem has settled at or below the
        floor but the budget leaves less than rem above it."""
        floor = _EPS * (log2N + slack) * mag + phase_floor
        basis = np.maximum(abs_tol, rel_tol * np.maximum(np.abs(val), ZETA_FLOOR))
        fits = rem <= basis - floor
        bad = basis <= floor
        if last:
            bad |= ~fits & (rem <= floor)
        if np.any(bad):
            i = int(np.argmax(bad))
            settled = "" if basis[i] <= floor[i] else (
                f" plus the settled remainder {rem[i]:.3e}")
            raise _at_point(ConvergenceError(
                f"tolerance unreachable: rounding floor {floor[i]:.3e}{settled} "
                f"exceeds the budget {basis[i]:.3e} at {point_at(i)}"), i)
        return floor, fits

    B = _block_size(sigma, ts) or 1
    # the heads ts[::B] in blocks of B2 by the same rule
    B2 = (_block_size(sigma, ts[::B]) or 1) if B > 1 else 1
    main, main_p = _main_sums(sigma, ts, B, B2, logn, want_prime)
    # per term, one exp and product per factor past the first: one per
    # factored level for B > 1, and Omega(n) - 1 <= floor(log2(N - 1)) - 1
    # for B = 1
    factors = 1 + (B2 > 1) if B > 1 else (N - 1).bit_length() - 2
    extra = _FACTORED_SLACK * factors

    s = sigma + 1j * ts
    S1 = _power_sum_bound(N, sigma)
    sm1 = s - 1.0
    abs_sm1 = np.abs(sm1)
    abs_s = np.abs(s)
    nphase = np.exp(-1j * ts * lnN)
    n1s = N ** (1.0 - sigma)                    # N^(1-sigma)
    npow = n1s * nphase
    half = 0.5 * N ** (-sigma)

    value = main + npow / sm1 + half * nphase
    mag = S1 + n1s / abs_sm1 + half
    phase_floor = _PHASE_ROUNDING * _EPS * ts * lnN * S1

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
        last = k == len(_BFAC)
        Tk = _BFAC[k - 1] * Q
        abs_Tk = np.abs(Tk)
        rem = abs_Tk * (abs_s + (2 * k - 1)) / (sigma + (2 * k - 1))
        floor_v, fits = budget(rem, value, mag, _SUM_SLACK + extra,
                                phase_floor, last)
        settled = rem <= floor_v
        if want_prime:
            log_rem_p = (_LOG_ABS_BFAC[k - 1]
                         + (1.0 - (sigma - DERIV_RADIUS) - 2 * k) * lnN
                         + logpoly_rho
                         + np.log((abs_s + DERIV_RADIUS + 2 * k - 1)
                                  / (sigma - DERIV_RADIUS + 2 * k - 1))
                         - math.log(DERIV_RADIUS))
            rem_p = np.exp(log_rem_p)
            floor_p, fits_p = budget(rem_p, prime, magp,
                                     _SUM_SLACK_PRIME + extra,
                                     phase_floor_p, last)
            fits = fits & fits_p
            settled = settled & (rem_p <= floor_p)
        if fits.all() and (last or settled.all()):
            break
        if last:
            i = int(np.argmin(fits))
            raise _at_point(ConvergenceError(
                f"tolerance unreachable: correction terms exhausted at "
                f"{point_at(i)}, N={N}"), i)

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

    values = np.where(neg, np.conj(value), value)
    if not want_prime:
        return values, rem + floor_v, None, None, N
    primes = np.where(neg, np.conj(prime), prime)
    return values, rem + floor_v, primes, rem_p + floor_p, N


def _scalar(s: Union[complex, float], abs_tol: float, want_prime: bool):
    """[zeta] or [zeta, zeta'] at the point s, as EvaluatedValues: the
    float-sigma batch of one."""
    z = complex(s)
    values, bounds, primes, bounds_p, N = zeta_points(z.real, [z.imag],
                                                      abs_tol, want_prime)
    tracks = [(values, bounds), (primes, bounds_p)][:2 if want_prime else 1]
    return [EvaluatedValue(complex(v[0]), float(b[0]), N) for v, b in tracks]


def zeta(s: Union[complex, float],
         abs_tol: float = ZETA_ABS_TOL) -> EvaluatedValue:
    """Evaluate zeta(s) with |value - zeta(s)| <= abs_error_bound <= abs_tol.

    Raises DomainError outside the supported strip and ConvergenceError
    when abs_tol sits below the attainable rounding floor.
    """
    return _scalar(s, abs_tol, False)[0]


def zeta_with_prime(s: Union[complex, float],
                    abs_tol: float = ZETA_ABS_TOL
                    ) -> tuple[EvaluatedValue, EvaluatedValue]:
    """Evaluate zeta(s) and zeta'(s) together, sharing the main sum.

    Both satisfy |value - exact| <= abs_error_bound <= abs_tol.  s must lie
    at distance >= 1e-3 from the strip boundary so the Cauchy circle of
    radius 5e-4 used by the derivative's remainder bound stays inside.
    """
    return tuple(_scalar(s, abs_tol, True))


def zeta_points(sigma: Union[float, Sequence[float]], ts: Sequence[float],
                abs_tol: float = ZETA_ABS_TOL, with_prime: bool = False):
    """zeta (and zeta' if with_prime) at the points sigma + i ts.

    sigma is a float shared by every point or a sequence aligned with ts.
    One engine pass serves the batch, with one truncation point set by
    the sigma range and max |t| (main_sum_terms), so heights should be of
    similar size.  K ascending heights in blocks with equal exact
    offsets, such as one Romberg level a + h (1, 3, 5, ...) at a shared
    sigma, take the factored main sum of the module docstring: blocks of
    B = ceil(sqrt K) points up to K = 256 and B = 16 above, whose heads
    factor by the same rule in blocks of B2, so about K/(B B2) + B2 + B
    rows of exps instead of K (46 at K = 3584).  Other batches take the
    multiplicative main sum, with exps at the primes only.  A sequence of
    equal sigmas counts as that shared sigma.  Each point must lie in the
    supported domain, with the derivative's edge margin if with_prime.  Returns (values, bounds,
    primes, bounds_prime, terms_used) with primes/bounds_prime None unless
    with_prime.  A DomainError or ConvergenceError about one point carries
    its position as `index`.
    """
    _check_tol(abs_tol)
    if np.ndim(sigma) == 0:
        sigma = float(sigma)
    else:
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.ndim != 1 or sigma.shape != np.shape(ts):
            raise DomainError(
                "sigmas and ts must be aligned one-dimensional sequences")
        if sigma.size and np.all(sigma == sigma[0]):
            sigma = float(sigma[0])             # one sigma is a shared sigma
    arr = _check_points(sigma, ts, EDGE_MARGIN if with_prime else 0.0)
    return _evaluate(sigma, arr, abs_tol, 0.0, with_prime)


def inv_abs_zeta_many(sigma0: float, ts: Sequence[float]) -> np.ndarray:
    """1/|zeta(sigma0 + it)| at each height t of ts, relative error <= 1e-8.

    sigma0 must lie in [0.9, 1.0); t of either sign is accepted since
    |zeta| is even in t.  One engine pass with one truncation point serves
    the batch, so heights should be clustered, as the nodes of one
    quadrature panel are; a Romberg level takes the factored main sum,
    about K/(B B2) + B2 + B rows of exps for K nodes (see zeta_points).
    Raises DomainError if some |zeta| falls below the 1e-3 guard (cannot
    happen for sigma0 in this range at moderate t, but checked
    unconditionally) and propagates engine errors.
    """
    if not (0.9 <= sigma0 < 1.0):
        raise DomainError(f"sigma0={sigma0!r} outside [0.9, 1.0)")
    arr = _check_points(sigma0, ts)
    values, bounds, _, _, _ = _evaluate(sigma0, arr, 0.0, INV_REL_TOL, False)
    abs_v = np.abs(values)
    bad = abs_v - bounds < ZETA_FLOOR
    if np.any(bad):
        i = int(np.argmax(bad))
        raise DomainError(
            f"|zeta({sigma0!r} + {abs(float(arr[i]))!r}i)| = {float(abs_v[i]):.6f} "
            f"is below the {ZETA_FLOOR} reciprocal guard")
    return 1.0 / abs_v
