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
the numerical minimum of coef_kappa.  epsilon0 is the a1 bound of the log
statement at (sigma0, T1), with Euler order 1, divided by log T1.

Partial summation turns any |M(u)| <= A u^a + B u^b (0 < a, b < 1) into

    |sum_{n<=x} mu(n)/n| <= A_m / x^(1-a) + B_m / x^(1-b),
    A_m = A (1 + 1/(1-a)),   B_m = B (1 + 1/(1-b)),

and the bound beats the trivial |M(x)| <= x exactly above the crossover
point x* solving A x^a + B x^b = x.  The published coefficient products
are reproduced digit for digit by carrying the derivation in decimal
arithmetic, since their displayed forms are exact decimals.

mertens_report runs the whole chain, from the parameters through epsilon0
(unless it is given), the bound and its rounded-up display form, to the
transfer and the crossover of the displayed bound, and returns its report.

Verification.  A segmented Mobius sieve streams windows of 2^20 integers
from 1 to a desk-scale limit, and the verifier confirms the explicit bounds
(and the trivial bound they extend) at every integer point, carrying only
M and m = sum mu(n)/n from one window to the next.  One loop decides each
window after the first.  It is cleared from its carries alone if it can,
since |M(x)| <= |M(lo-1)| + the count of n in the window with mu(n) != 0,
and |m(x)| <= |m(lo-1)| + S/lo; only the carries then advance.  Any other
gets its prefix sums, and a second screen on their exact maxima decides
whether it is checked pointwise.  Memory is one window, whatever the limit.

Rounding of m(x).  The window k = ceil(x / S), S = 2^20, covers
lo <= n < lo + S with lo = (k-1) S + 1.  In float64 (unit roundoff
u = 2^-53) each term t_n = fl(mu(n)/n) is off by at most u/n, the
window's local sums c_n = fl(c_{n-1} + t_n) are formed from t_lo, and
m(x) = fl(m(lo-1) + c_x) adds the carried sum.  A rounded sum is off by
at most u times its size.  The exact local sums are bounded by 1 in
window 1 (|m(x)| <= 1 for every x) and by sum_{lo <= n < lo+S} 1/n
< 1/(k-1) beyond it, so window 1 adds at most u (S + H_S) <= u (S + 16)
to the error, window j >= 2 at most u (S + 1)/(j - 1), and each carry
addition at most u (1 + tiny).  The factors (1 + u)^S that compound the
errors stay below 1 + 2^-30.  Hence

    |fl m(x) - m(x)| <= E(x) = (1 + 2^-20) u (k + (S + 16)(1 + H_{k-1})),

with H_j the j-th harmonic number: about 1.2e-10 on window 1 and 7.1e-10
at x = 1e8.  The m(x) verdict adds E(x) to |m(x)|.

A window k >= 2 cleared from its carries hands on fl(m(lo-1) + c) with c
the pairwise sum of its terms, not a running sum.  Any order of summing S
terms errs by at most gamma_{S-1} sum |t_n|, gamma_j = j u / (1 - j u),
and sum |t_n| < 1/(k-1), so that carry keeps within the same
u (S + 1)/(k - 1) and E(x) still covers every later m(x).  Window 1, where
only the running sums are bounded by 1, is never screened this way.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from decimal import Decimal
from typing import Iterator, Optional

import numpy as np

from .constants import (
    ROOM,
    TARGET_LOG,
    BoundParams,
    HypothesisCheck,
    _require,
    ceil_decimals,
    ceil_sigfigs,
    check_hypotheses,
    compute_a1,
    loglog,
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
    "mertens_report",
    "derive_m_bound",
    "crossover_trivial",
    "crossover_report",
    "m_rounding_bound",
    "mobius_windows",
    "sieve_mobius",
    "verify_bound_on_range",
]

# Bounds the run time of a sieve (memory stays one window); keeping n below
# 2^31 is what keeps the signed int32 products of small primes exact.
SIEVE_LIMIT = 200_000_000
_WINDOW = 1 << 20
_PRESIEVE = (2, 3, 5, 7, 11, 13)  # copied into each window as one pattern
_SLICE = 1 << 16         # points per pass of the pointwise check
_UNIT = 2.0 ** -53       # unit roundoff of float64
_SCREEN_SLACK = 1e-12    # relative; scalar and array powers may round apart
_CROSSOVER_CEILING = 2000.0  # log10 search window upper end


@dataclass(frozen=True)
class MertensBoundSpec:
    """The explicit |M(x)| <= coef_kappa x^kappa + coef_sigma0 x^sigma0 + 1.

    lam is the smoothing parameter lambda.  x_min routinely exceeds the
    double-precision range, so only log10_x_min is kept.
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
        for name in ("coef_sigma0", "coef_kappa"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name}={value!r} must be positive and finite")

    def as_dict(self) -> dict:
        d = asdict(self)
        d["lambda"] = d.pop("lam")
        return d

    def display(self) -> dict:
        """Published display forms, rounded upward: coef_kappa at 2 decimals,
        coef_sigma0 at 3 significant figures, and kappa at 2 decimals or at
        the fewest more that keep it below 1 (0.99240 -> 0.993), so the
        displayed bound dominates the computed one and stays a valid pair."""
        places = 2
        while (kappa := ceil_decimals(self.kappa, places)) >= 1.0:
            places += 1  # ends by 17 places, where kappa rounds to itself
        return {"kappa": kappa,
                "coef_kappa": ceil_decimals(self.coef_kappa, 2),
                "coef_sigma0": ceil_sigfigs(self.coef_sigma0, 3)}


@dataclass
class MobiusTable:
    """mu(n), M(n) = sum mu and m(n) = sum mu(n)/n on the first window of [1, limit].

    The arrays cover 0 <= n <= head = min(limit, 2^20) and are indexed
    directly by n (entry 0 is 0).  verify_bound_on_range resumes the sieve
    from M(head) and m(head); beyond the head nothing is stored.
    """

    limit: int
    mu: np.ndarray        # int8
    M_prefix: np.ndarray  # int64
    m_prefix: np.ndarray  # float64

    @property
    def head(self) -> int:
        return len(self.M_prefix) - 1

    def _stored(self, x: int) -> int:
        if not (0 <= x <= self.head):
            raise DomainError(
                f"x={x!r} lies beyond the stored head 0 <= x <= {self.head}")
        return x

    def M(self, x: int) -> int:
        return int(self.M_prefix[self._stored(x)])

    def m(self, x: int) -> float:
        return float(self.m_prefix[self._stored(x)])


def epsilon0_hypotheses(sigma0: float, C2: float, C3: float,
                        T1: float) -> list[HypothesisCheck]:
    """The conditions the reciprocal-zeta exponent adds to the a1 statement.

    compute_epsilon0 checks the whole a1 statement for zeta at t0 = T1
    through compute_a1.  epsilon0 adds the sigma0 conditions and a second
    T1-floor, at edge 1/(2 (2 sigma0 - 1)) beside a1's at edge C2: it also
    needs T1 >= exp(e^(1/(2 sigma0 - 1))).
    """
    edge = 0.5 / (2.0 * sigma0 - 1.0) if sigma0 > 0.5 else math.inf
    return statement_hypotheses(
        ("sigma0-range", "sigma0-floor", "T1-floor"), profile_zeta(),
        TARGET_LOG, sigma0=sigma0, C2=C2, C3=C3, T1=T1, edge=edge)


def compute_epsilon0(sigma0: float, C1: float, C2: float, C3: float,
                     T1: float, T2: float) -> float:
    """Exponent epsilon0 with 1/|zeta(sigma0+it)| <= t^epsilon0 on the window.

    Raises HypothesisError naming the violated condition, including
    "epsilon0-applicability" when the computed exponent reaches 1.
    """
    _require(epsilon0_hypotheses(sigma0, C2, C3, T1))
    bc = compute_a1(profile_zeta(), BoundParams(C1, C2, C3, T1, T2, t0=T1))
    eps0 = (bc.a * bc.b ** (2.0 * (1.0 - sigma0))
            * loglog(T1) / math.log(T1) ** (2.0 * sigma0 - 1.0))
    _require(check_hypotheses(("epsilon0-applicability",), epsilon0=eps0))
    return eps0


def mertens_bound(sigma0: float, lam: float, T1: float, epsilon0: float,
                  integral_bound: float) -> MertensBoundSpec:
    """Assemble the explicit bound from epsilon0 and the integral bound I."""
    _require(check_hypotheses(
        ("sigma0-range", "epsilon0-applicability", "lambda-range"),
        sigma0=sigma0, epsilon0=epsilon0, lam=lam, T1=T1))
    if not (integral_bound > 0.0 and math.isfinite(integral_bound)):
        raise DomainError(f"integral bound must be positive; got {integral_bound!r}")
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


def mertens_report(sigma0: float = defaults.SIGMA0,
                   C1: float = defaults.MERTENS_C1,
                   C2: float = defaults.MERTENS_C2,
                   C3: float = defaults.C3,
                   T1: float = defaults.MERTENS_T1,
                   T2: Optional[float] = None,
                   lam: float = defaults.LAMBDA,
                   integral_bound: float = defaults.INTEGRAL_BOUND,
                   epsilon0: Optional[float] = None) -> dict:
    """The whole chain: epsilon0, the explicit bound and its display form,
    then the mu(n)/n transfer and the crossover of the displayed bound.

    T2 defaults to default_T2(T1, C3); a given epsilon0 skips its
    computation.  The report holds the resolved parameters, the bound, its
    display, m_transfer and crossover_log10, which is None with a
    crossover_note when the displayed bound has no crossover.
    """
    if T2 is None:
        T2 = default_T2(T1, C3)
    if epsilon0 is None:
        epsilon0 = compute_epsilon0(sigma0, C1, C2, C3, T1, T2)
    spec = mertens_bound(sigma0, lam, T1, epsilon0, integral_bound)
    display = spec.display()
    two_term = (display["coef_kappa"], display["kappa"],
                display["coef_sigma0"], sigma0)
    A_m, B_m = derive_m_bound(*two_term)
    return {
        "parameters": {"sigma0": sigma0, "C1": C1, "C2": C2, "C3": C3,
                       "T1": T1, "T2": T2, "lambda": lam,
                       "integral_bound": integral_bound, "epsilon0": epsilon0},
        "bound": spec.as_dict(),
        "display": display,
        "m_transfer": {"A_m": A_m, "B_m": B_m},
        **crossover_report(*two_term),
    }


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
    rounding residue).  Raises DomainError naming a product that exceeds
    the largest float.
    """
    _check_two_term(A, a_exp, B, b_exp)
    one = Decimal(1)
    A_m = float(Decimal(repr(A)) * (one + one / (one - Decimal(repr(a_exp)))))
    B_m = float(Decimal(repr(B)) * (one + one / (one - Decimal(repr(b_exp)))))
    for name, value in (("A_m", A_m), ("B_m", B_m)):
        if math.isinf(value):
            raise DomainError(f"{name} exceeds the largest float")
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


def crossover_report(A: float, a_exp: float, B: float, b_exp: float) -> dict:
    """The crossover entries of a report: crossover_log10 from
    crossover_trivial, or None with a crossover_note saying why when the
    bound has no crossover.  A missing crossover is an answer, not a
    failure."""
    try:
        return {"crossover_log10": crossover_trivial(A, a_exp, B, b_exp)}
    except NoCrossoverError as exc:
        return {"crossover_log10": None, "crossover_note": str(exc)}


def _primes_upto(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(n)) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def m_rounding_bound(x: int) -> float:
    """E(x), a bound on the rounding error of the streamed m(x) (module docstring).

    It is constant on each window: k = ceil(x / 2^20) is the window of x.
    """
    k = (x - 1) // _WINDOW + 1
    harmonic = math.fsum(1.0 / j for j in range(1, k))
    return (1.0 + 2.0 ** -20) * _UNIT * (k + (_WINDOW + 16) * (1.0 + harmonic))


def mobius_windows(N: int, lo: int = 1
                   ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (lo, mu, terms) for windows of 2^20 integers from lo up to N.

    mu and terms hold mu(n) and mu(n)/n in float64 for lo <= n < lo + len(mu).
    They are views of buffers that the next window overwrites.

    Each window holds a signed int32 product of small prime factors.  It
    starts as a copy of the pattern of the primes up to 13; each further
    prime p <= sqrt(N) multiplies its multiples by -p, and the multiples of
    every p^2 are zeroed.  A squarefree n has exactly one prime factor
    above sqrt(N) when |product| is not n, so mu(n) is the product's sign,
    negated there.  |product| divides n <= N < 2^31, so it cannot overflow.
    """
    if N >= 2 ** 31:
        raise DomainError(f"N={N!r} reaches 2^31, past the int32 products")
    primes = _primes_upto(int(math.isqrt(N)))
    sieved = primes[primes > _PRESIEVE[-1]]
    squares = primes * primes
    width = max(0, min(_WINDOW, N + 1 - lo))
    period = math.prod(_PRESIEVE)
    pattern = np.ones(period + width, dtype=np.int32)  # entry j: n = j (mod period)
    for p in _PRESIEVE:
        pattern[::p] *= -p
    offsets = np.arange(width, dtype=np.int32)
    prod_buf = np.empty(width, dtype=np.int32)
    flip_buf = np.empty(width, dtype=bool)
    mu_buf = np.empty(width, dtype=np.int8)
    m_buf = np.empty(width, dtype=np.float64)
    while lo <= N:
        size = min(width, N + 1 - lo)
        prod = prod_buf[:size]
        prod[:] = pattern[lo % period:][:size]
        for p, first in zip(sieved.tolist(), ((-lo) % sieved).tolist()):
            multiples = prod[first::p]
            np.multiply(multiples, -p, out=multiples)  # cheaper call than *=
        for q, first in zip(squares.tolist(), ((-lo) % squares).tolist()):
            if first < size:
                prod[first::q] = 0
        mu = np.sign(prod, out=mu_buf[:size], casting="unsafe")
        np.abs(prod, out=prod)
        prod -= offsets[:size]  # |product| - (n - lo), which is lo where |product| = n
        sign = np.not_equal(prod, lo, out=flip_buf[:size]).view(np.int8)
        sign *= -2
        sign += 1
        mu *= sign
        terms = np.add(offsets[:size], lo, out=m_buf[:size], dtype=np.float64)
        np.divide(mu, terms, out=terms)
        yield lo, mu, terms
        lo += size


def sieve_mobius(N: int) -> MobiusTable:
    """Sieve the first window of [1, N] into a MobiusTable.

    The table holds mu, M and m on 1 <= n <= min(N, 2^20), from whose
    last entries verify_bound_on_range streams the rest of the range
    through mobius_windows.
    """
    if not (1 <= N <= SIEVE_LIMIT):
        raise DomainError(
            f"resource limit exceeded: need 1 <= N <= {SIEVE_LIMIT}; got {N!r}")
    _, mu, terms = next(mobius_windows(N))
    mu = np.concatenate((np.zeros(1, mu.dtype), mu))
    return MobiusTable(limit=N, mu=mu, M_prefix=np.cumsum(mu, dtype=np.int64),
                       m_prefix=np.concatenate(([0.0], np.cumsum(terms))))


class _RangeCheck:
    """Running verdicts and worst ratios of the bound check, one window at a time."""

    def __init__(self, A: float, a_exp: float, B: float, b_exp: float,
                 A_m: float, B_m: float) -> None:
        self.bound_M = lambda x: A * x ** a_exp + B * x ** b_exp
        self.bound_m = lambda x: A_m * x ** (a_exp - 1.0) + B_m * x ** (b_exp - 1.0)
        self.violations = 0
        self.first_violation: Optional[int] = None
        self.max_ratio_M = 0.0
        self.max_ratio_m = 0.0
        self.max_ratio_trivial = 0.0

    def window(self, lo: int, M: np.ndarray, m: np.ndarray) -> None:
        """Check lo <= x < lo + len(M), pointwise unless the screen clears it.

        bound_M and x increase and bound_m decreases, so the exact maxima
        of |M| and |m| over the window, against bound_M(lo), lo and
        bound_m(last), bound every ratio in it.
        """
        last = lo + len(M) - 1
        err = m_rounding_bound(last)
        big_M = max(int(M.max()), -int(M.min()))
        big_m = max(float(m.max()), -float(m.min()))
        if not self._clears(lo, last, big_M, big_m, err):
            self.pointwise(lo, M, m, err)

    def carries_clear(self, lo: int, size: int, M: int, m: float,
                      nonzero: int) -> bool:
        """Whether the screen clears lo <= x < lo + size from the carries alone.

        M and m are the carries at lo - 1, and nonzero counts the n in the
        window with mu(n) != 0.  Then |M(x)| <= |M(lo - 1)| + nonzero, and
        |fl m(x)| <= |fl m(lo - 1)| + size/lo + 2 E(last), since each term
        is at most 1/lo and each rounded sum is within E of its exact value.
        These bound the window's maxima, so a window they clear is one the
        exact screen of window() clears too.
        """
        last = lo + size - 1
        err = m_rounding_bound(last)
        return self._clears(lo, last, abs(M) + nonzero,
                            abs(m) + size / lo + 2.0 * err, err)

    def _clears(self, lo: int, last: int, big_M: int, big_m: float,
                err: float) -> bool:
        """Whether a window whose |M| and |m| stay within big_M and big_m can
        neither violate nor raise a running maximum.  The relative slack
        covers the scalar and array powers rounding apart."""
        grow = 1.0 + _SCREEN_SLACK
        ceil_M = big_M / self.bound_M(float(lo)) * grow
        ceil_m = (big_m + err) / self.bound_m(float(last)) * grow
        return (ceil_M < 1.0 and ceil_M <= self.max_ratio_M
                and ceil_m < 1.0 and ceil_m <= self.max_ratio_m
                and big_M <= lo and big_M / lo <= self.max_ratio_trivial)

    def pointwise(self, lo: int, M: np.ndarray, m: np.ndarray, err: float) -> None:
        """Check every x of the window, in slices of _SLICE points so that
        the bound arrays stay small."""
        for start in range(0, len(M), _SLICE):
            abs_M = np.abs(M[start:start + _SLICE]).astype(np.float64)
            abs_m = np.abs(m[start:start + _SLICE])
            x = np.arange(lo + start, lo + start + len(abs_M), dtype=np.float64)
            bound_M = self.bound_M(x)
            bound_m = self.bound_m(x)
            bad = (abs_M > bound_M) | (abs_m + err > bound_m) | (abs_M > x)
            if np.any(bad):
                self.violations += int(np.count_nonzero(bad))
                if self.first_violation is None:
                    self.first_violation = lo + start + int(np.argmax(bad))
            self.max_ratio_M = max(self.max_ratio_M,
                                   float(np.max(abs_M / bound_M)))
            self.max_ratio_m = max(self.max_ratio_m,
                                   float(np.max(abs_m / bound_m)))
            self.max_ratio_trivial = max(self.max_ratio_trivial,
                                         float(np.max(abs_M / x)))


def verify_bound_on_range(table: MobiusTable, A: float, a_exp: float,
                          B: float, b_exp: float) -> dict:
    """Check |M(x)| <= A x^a + B x^b, the derived mu(n)/n bound, and |M(x)| <= x
    for every integer 1 <= x <= table.limit.

    The table's head is checked from its arrays and the rest is sieved
    window by window.  A window the carries clear only advances them: M by
    the int64 sum of mu, m by the pairwise float sum of mu(n)/n.  Any other
    gets its prefix sums and goes to the check's window().  An m(x) verdict
    charges the rounding bound E(x); max_ratio_m is the observed
    |m(x)| / bound.  Returns a report dict with the violation count, the
    first violating x (None expected), worst observed ratios, and the
    runtime.
    """
    A_m, B_m = derive_m_bound(A, a_exp, B, b_exp)
    start = time.monotonic()
    check = _RangeCheck(A, a_exp, B, b_exp, A_m, B_m)
    check.window(1, table.M_prefix[1:], table.m_prefix[1:])
    M, m = table.M(table.head), table.m(table.head)
    M_buf = np.empty(min(_WINDOW, table.limit - table.head), dtype=np.int64)
    for lo, mu, terms in mobius_windows(table.limit, table.head + 1):
        if check.carries_clear(lo, len(mu), M, m, int(np.count_nonzero(mu))):
            M += int(mu.sum(dtype=np.int64))
            m += float(terms.sum())
            continue
        window_M = M_buf[:len(mu)]
        window_M[:] = mu  # cast here: cumsum would cast into a temporary
        window_M[0] += M
        np.cumsum(window_M, out=window_M)
        window_m = np.cumsum(terms, out=terms)
        window_m += m
        check.window(lo, window_M, window_m)
        M, m = int(window_M[-1]), float(window_m[-1])
    return {
        "limit": table.limit,
        "A": A, "a_exp": a_exp, "B": B, "b_exp": b_exp,
        "A_m": A_m, "B_m": B_m,
        "violations": check.violations,
        "first_violation": check.first_violation,
        "max_ratio_M": check.max_ratio_M,
        "max_ratio_m": check.max_ratio_m,
        "max_ratio_trivial": check.max_ratio_trivial,
        "runtime_seconds": time.monotonic() - start,
    }
