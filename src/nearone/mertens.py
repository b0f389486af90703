"""Explicit Mertens-function bounds from the reciprocal-zeta exponent.

Pipeline.  With b the zeta b-constant at parameters (C1, C3, T1, T2) and
R = R(C2, C3, T1) the exponential rate, the reciprocal-zeta exponent at
sigma0 is

    epsilon0 = (1/C2) * b^(2(1-sigma0))
               * exp((1 + log+ b / loglog T1) * R)
               * loglog T1 / (log T1)^(2 sigma0 - 1),

so that 1/|zeta(sigma0 + it)| <= t^epsilon0 for T2-window heights.  When
epsilon0 < 1, a Perron-type argument with smoothing parameter
lambda in (0, T1] converts an upper bound I for the integral
int_0^T1 du / |zeta(sigma0 + iu)| into the fully explicit estimate

    |M(x)| <= coef_kappa * x^kappa + coef_sigma0 * x^sigma0 + 1,

    kappa        = (sigma0 + epsilon0) / (1 + epsilon0),
    coef_sigma0  = I * (1 + lambda/T1)^sigma0 / (pi * sigma0),
    coef_kappa   = 1 + (lambda^epsilon0 / pi) * (1 + lambda/T1)^sigma0
                     * (1/epsilon0 + (2 / (lambda (1 - epsilon0)))
                        * (1 + lambda/T1)),

valid for x >= x_min = (T1/lambda)^((1+epsilon0)/(1-sigma0)).  kappa is
the optimal smoothing exponent, and lambda = 2 sits within a percent of
the numerical minimum of coef_kappa.

Partial summation turns any |M(u)| <= A u^a + B u^b (0 < a, b < 1) into

    |sum_{n<=x} mu(n)/n| <= A_m / x^(1-a) + B_m / x^(1-b),
    A_m = A (1 + 1/(1-a)),   B_m = B (1 + 1/(1-b)),

and the bound beats the trivial |M(x)| <= x exactly above the crossover
point x* solving A x^a + B x^b = x.  The published coefficient products
are reproduced digit for digit by carrying the derivation in decimal
arithmetic, since their displayed forms are exact decimals.

Verification.  A segmented Mobius sieve fills mu(n), the Mertens prefix
sums M(n), and the prefix sums of mu(n)/n up to a desk-scale limit, and
the verifier confirms the explicit bounds (and the trivial bound they
extend) at every integer point.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from decimal import Decimal
from typing import Optional

import numpy as np

from .constants import (
    ROOM,
    TARGET_LOG,
    HypothesisCheck,
    _require,
    check_hypotheses,
    compute_b1,
    compute_R,
    loglog,
    logplus,
    statement_hypotheses,
    window_edge,
)
from . import defaults
from .errors import DomainError, NoCrossoverError
from .profiles import profile_zeta

__all__ = [
    "MertensBoundSpec",
    "MobiusTable",
    "epsilon0_hypotheses",
    "compute_epsilon0",
    "mertens_bound",
    "default_T2",
    "mertens_from_first_principles",
    "derive_m_bound",
    "crossover_trivial",
    "sieve_mobius",
    "verify_bound_on_range",
]

SIEVE_LIMIT = 200_000_000
_SEGMENT = 1 << 20
_CROSSOVER_CEILING = 2000.0  # log10 search window upper end


@dataclass(frozen=True)
class MertensBoundSpec:
    """The explicit |M(x)| <= coef_kappa x^kappa + coef_sigma0 x^sigma0 + 1.

    lam is the smoothing parameter lambda.  x_min routinely exceeds the
    double-precision range, so log10_x_min is the canonical field and the
    x_min property may overflow to inf.
    """

    sigma0: float
    lam: float
    epsilon0: float
    kappa: float
    coef_sigma0: float
    coef_kappa: float
    additive_one: float
    log10_x_min: float

    def __post_init__(self) -> None:
        if not (0.5 < self.sigma0 < 1.0):
            raise DomainError(f"sigma0={self.sigma0!r} outside (0.5, 1)")
        if not (0.0 < self.epsilon0 < 1.0):
            raise DomainError(f"epsilon0={self.epsilon0!r} outside (0, 1)")
        if not (self.sigma0 < self.kappa < 1.0):
            raise DomainError(f"kappa={self.kappa!r} outside (sigma0, 1)")
        if not (self.coef_sigma0 > 0.0 and self.coef_kappa > 0.0):
            raise DomainError("coefficients must be positive")

    @property
    def x_min(self) -> float:
        return 10.0 ** self.log10_x_min if self.log10_x_min < 308 else math.inf

    def as_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d


@dataclass
class MobiusTable:
    """mu(n), M(n) = sum mu, and sum mu(n)/n for 1 <= n <= limit.

    Arrays are indexed directly by n (entry 0 is unused).
    """

    limit: int
    mu: np.ndarray        # int8
    M_prefix: np.ndarray  # int64
    m_prefix: np.ndarray  # float64

    def M(self, x: int) -> int:
        return int(self.M_prefix[x])

    def m(self, x: int) -> float:
        return float(self.m_prefix[x])


def epsilon0_hypotheses(sigma0: float, C2: float, C3: float,
                        T1: float, T2: float) -> list[HypothesisCheck]:
    """Hypothesis block for the reciprocal-zeta Mertens bound, every condition named.

    These are the sigma0 conditions plus the log statement's for zeta at
    t0 = T1.  The T1-floor also needs T1 >= exp(e^(1/(2 sigma0 - 1))),
    which is its edge term at edge 1/(2 (2 sigma0 - 1)).
    """
    edge = max(C2, 0.5 / (2.0 * sigma0 - 1.0)) if sigma0 > 0.5 else math.inf
    return statement_hypotheses(
        ("sigma0-range", "sigma0-floor", "T1-floor", "T1-gap", "T2-window",
         "T2-floor"), profile_zeta(), TARGET_LOG,
        sigma0=sigma0, C2=C2, C3=C3, T1=T1, T2=T2, t0=T1, edge=edge)


def compute_epsilon0(sigma0: float, C1: float, C2: float, C3: float,
                     T1: float, T2: float) -> float:
    """Exponent epsilon0 with 1/|zeta(sigma0+it)| <= t^epsilon0 on the window.

    Raises HypothesisError naming the violated condition, including
    "epsilon0-applicability" when the computed exponent reaches 1.
    """
    _require(epsilon0_hypotheses(sigma0, C2, C3, T1, T2))
    b = compute_b1(profile_zeta(), C1, C3, T1, T2)
    rate = compute_R(C2, C3, T1)
    ll = loglog(T1)
    eps0 = ((1.0 / C2) * b ** (2.0 * (1.0 - sigma0))
            * math.exp((1.0 + logplus(b) / ll) * rate)
            * ll / math.log(T1) ** (2.0 * sigma0 - 1.0))
    _require(check_hypotheses(("epsilon0-applicability",), epsilon0=eps0))
    return eps0


def mertens_bound(sigma0: float, lam: float, T1: float, epsilon0: float,
                  integral_bound: float) -> MertensBoundSpec:
    """Assemble the explicit bound from epsilon0 and the integral bound I."""
    _require(check_hypotheses(("epsilon0-applicability", "lambda-range"),
                              epsilon0=epsilon0, lam=lam, T1=T1))
    if not (integral_bound > 0.0 and math.isfinite(integral_bound)):
        raise DomainError(f"integral bound must be positive; got {integral_bound!r}")
    if not (0.5 < sigma0 < 1.0):
        raise DomainError(f"sigma0={sigma0!r} outside (0.5, 1)")
    growth = (1.0 + lam / T1) ** sigma0
    coef_sigma0 = integral_bound * growth / (math.pi * sigma0)
    coef_kappa = 1.0 + (lam ** epsilon0 / math.pi) * growth * (
        1.0 / epsilon0 + (2.0 / (lam * (1.0 - epsilon0))) * (1.0 + lam / T1))
    kappa = (sigma0 + epsilon0) / (1.0 + epsilon0)
    log10_x_min = (1.0 + epsilon0) / (1.0 - sigma0) * math.log10(T1 / lam)
    return MertensBoundSpec(sigma0=sigma0, lam=lam, epsilon0=epsilon0,
                            kappa=kappa, coef_sigma0=coef_sigma0,
                            coef_kappa=coef_kappa, additive_one=1.0,
                            log10_x_min=log10_x_min)


def default_T2(T1: float, C3: float) -> float:
    """The window edge T1 - C3 loglog T1 - 1/2, the largest admissible T2."""
    return window_edge(T1, C3, 1.0, ROOM[TARGET_LOG]["margin"])


def mertens_from_first_principles(sigma0: float = defaults.SIGMA0,
                                  C1: float = defaults.MERTENS_C1,
                                  C2: float = defaults.MERTENS_C2,
                                  C3: float = defaults.C3,
                                  T1: float = defaults.MERTENS_T1,
                                  T2: Optional[float] = None,
                                  lam: float = defaults.LAMBDA,
                                  integral_bound: float = defaults.INTEGRAL_BOUND,
                                  ) -> tuple[float, MertensBoundSpec]:
    """End-to-end: epsilon0 from the b-constant, then the explicit bound."""
    if T2 is None:
        T2 = default_T2(T1, C3)
    eps0 = compute_epsilon0(sigma0, C1, C2, C3, T1, T2)
    return eps0, mertens_bound(sigma0, lam, T1, eps0, integral_bound)


def _check_two_term(A: float, a_exp: float, B: float, b_exp: float) -> None:
    """Domain of a bound A u^a + B u^b: 0 < a, b < 1, A > 0 and B >= 0."""
    if not (0.0 < a_exp < 1.0 and 0.0 < b_exp < 1.0):
        raise DomainError(f"exponents must lie in (0, 1); got {a_exp!r}, {b_exp!r}")
    if not (A > 0.0 and B >= 0.0):
        raise DomainError(f"need A > 0 and B >= 0; got A={A!r}, B={B!r}")


def derive_m_bound(A: float, a_exp: float, B: float, b_exp: float
                   ) -> tuple[float, float]:
    """Partial-summation transfer |M| <= A u^a + B u^b to the mu(n)/n sums.

    Returns (A (1 + 1/(1-a)), B (1 + 1/(1-b))).  The products are carried
    in decimal arithmetic so that decimally-exact inputs give the exact
    published products (e.g. 555.71 * 101 = 56126.71 with no binary
    rounding residue).
    """
    _check_two_term(A, a_exp, B, b_exp)
    one = Decimal(1)
    A_m = float(Decimal(repr(A)) * (one + one / (one - Decimal(repr(a_exp)))))
    B_m = float(Decimal(repr(B)) * (one + one / (one - Decimal(repr(b_exp)))))
    return A_m, B_m


def _log10_bound(y: float, A: float, a_exp: float, B: float, b_exp: float) -> float:
    """log10(A 10^(a y) + B 10^(b y)), stable for huge y."""
    la = math.log10(A) + a_exp * y
    if B == 0.0:
        return la
    lb = math.log10(B) + b_exp * y
    hi, lo = (la, lb) if la >= lb else (lb, la)
    return hi + math.log10(1.0 + 10.0 ** (lo - hi))


def crossover_trivial(A: float, a_exp: float, B: float, b_exp: float) -> float:
    """log10 of the unique x* > 1 where A x^a + B x^b falls to x.

    The gap g(y) = log10(A 10^(a y) + B 10^(b y)) - y is strictly
    decreasing (both exponents are below 1), so bisection on y = log10 x
    finds the root.  Raises NoCrossoverError if the bound is already
    below x at x = 1 ("no crossover above 1") or stays above x out to
    x = 10^2000.
    """
    _check_two_term(A, a_exp, B, b_exp)
    g = lambda y: _log10_bound(y, A, a_exp, B, b_exp) - y
    g0 = g(0.0)
    if g0 < 0.0:
        raise NoCrossoverError(
            f"bound is below x already at x=1 (gap {g0!r}): no crossover above 1")
    if g0 == 0.0:
        return 0.0
    hi = _CROSSOVER_CEILING
    if g(hi) > 0.0:
        raise NoCrossoverError(
            f"bound stays above x out to x = 10^{hi:.0f}: no crossover found")
    lo = 0.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _primes_upto(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def sieve_mobius(N: int) -> MobiusTable:
    """Segmented Mobius sieve with Mertens and mu(n)/n prefix sums.

    For each prime p <= sqrt(N) the sign flips on multiples of p and the
    tracked cofactor divides by p once; entries with a remaining cofactor
    above 1 flip once more (exactly one prime factor exceeds sqrt(N)),
    and multiples of p^2 are zeroed.  The mu(n)/n prefix accumulates in
    extended precision before rounding to double.
    """
    if not (1 <= N <= SIEVE_LIMIT):
        raise DomainError(
            f"resource limit exceeded: need 1 <= N <= {SIEVE_LIMIT}; got {N!r}")
    primes = _primes_upto(int(math.isqrt(N)))
    mu = np.zeros(N + 1, dtype=np.int8)
    M_prefix = np.zeros(N + 1, dtype=np.int64)
    m_prefix = np.zeros(N + 1, dtype=np.float64)
    carry_M = np.int64(0)
    carry_m = np.float128(0.0)

    for lo in range(1, N + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, N + 1)
        seg_mu = np.ones(hi - lo, dtype=np.int8)
        rem = np.arange(lo, hi, dtype=np.int64)
        for p in primes:
            start = ((lo + p - 1) // p) * p
            if start >= hi:
                continue
            sl = slice(start - lo, hi - lo, int(p))
            seg_mu[sl] = -seg_mu[sl]
            rem[sl] //= p
            p2 = int(p) * int(p)
            start2 = ((lo + p2 - 1) // p2) * p2
            if start2 < hi:
                seg_mu[start2 - lo: hi - lo: p2] = 0
        seg_mu[rem > 1] = -seg_mu[rem > 1]
        mu[lo:hi] = seg_mu
        M_prefix[lo:hi] = np.cumsum(seg_mu, dtype=np.int64) + carry_M
        carry_M = M_prefix[hi - 1]
        contrib = (seg_mu.astype(np.float128)
                   / np.arange(lo, hi, dtype=np.float128))
        running = np.cumsum(contrib) + carry_m
        m_prefix[lo:hi] = running.astype(np.float64)
        carry_m = running[-1]

    return MobiusTable(limit=N, mu=mu, M_prefix=M_prefix, m_prefix=m_prefix)


def verify_bound_on_range(table: MobiusTable, A: float, a_exp: float,
                          B: float, b_exp: float) -> dict:
    """Check |M(x)| <= A x^a + B x^b, the derived mu(n)/n bound, and |M(x)| <= x
    for every integer 1 <= x <= table.limit.

    Returns a report dict with the violation count, the first violating x
    (None expected), worst observed ratios, and the runtime.
    """
    A_m, B_m = derive_m_bound(A, a_exp, B, b_exp)
    start = time.monotonic()
    N = table.limit
    violations = 0
    first_violation = None
    max_ratio_M = 0.0
    max_ratio_m = 0.0
    max_ratio_trivial = 0.0
    step = 10_000_000
    for lo in range(1, N + 1, step):
        hi = min(lo + step, N + 1)
        x = np.arange(lo, hi, dtype=np.float64)
        bound_M = A * x ** a_exp + B * x ** b_exp
        bound_m = A_m * x ** (a_exp - 1.0) + B_m * x ** (b_exp - 1.0)
        abs_M = np.abs(table.M_prefix[lo:hi]).astype(np.float64)
        abs_m = np.abs(table.m_prefix[lo:hi])
        bad = (abs_M > bound_M) | (abs_m > bound_m) | (abs_M > x)
        if np.any(bad):
            violations += int(np.count_nonzero(bad))
            if first_violation is None:
                first_violation = int(lo + int(np.argmax(bad)))
        max_ratio_M = max(max_ratio_M, float(np.max(abs_M / bound_M)))
        max_ratio_m = max(max_ratio_m, float(np.max(abs_m / bound_m)))
        max_ratio_trivial = max(max_ratio_trivial, float(np.max(abs_M / x)))
    return {
        "limit": N,
        "A": A, "a_exp": a_exp, "B": B, "b_exp": b_exp,
        "A_m": A_m, "B_m": B_m,
        "violations": violations,
        "first_violation": first_violation,
        "max_ratio_M": max_ratio_M,
        "max_ratio_m": max_ratio_m,
        "max_ratio_trivial": max_ratio_trivial,
        "runtime_seconds": time.monotonic() - start,
    }
