"""Growth profiles for the L-functions the bound machinery accepts.

A profile packages the data (d, m, l, C, c, T) of a continuation estimate

    log|L(s)| <= (d/4) * log(c|t|) + l * loglog(c|t|) + log+ C

valid on 1/2 <= sigma, |t| >= T, where d is the degree, m the order of the
polynomial Euler product, l the power of the loglog factor and log+ u =
max(0, log u).  Three concrete families are provided:

* the Riemann zeta function, where the classical estimate
  |zeta(s)| <= (|t|/(2 pi))^((1-sigma)/2) * log|t| for |t| >= 50 gives
  (1, 1, 1, 1, 1, 50);
* Dirichlet L-functions of primitive non-principal characters mod q, where a
  smoothed Phragmen-Lindelof bound gives (1, 1, 1, 1, q, 7778) once the
  attached prefactor is checked to be <= 1;
* Dedekind zeta functions of a number field of degree n_K and absolute
  discriminant |Delta|, where the same bound applied to each archimedean
  factor gives (n_K, n_K, n_K, 1.9, 5.552 * |Delta|^(1/n_K), 7778).

The two prefactor functions expose the quantities that must stay below 1
(Dirichlet) and 1.9 (Dedekind) for those profiles to be valid; the profile
constructors evaluate them and fail loudly if the check does not clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, HypothesisError

# Euler-Mascheroni constant; kept well past float64 so the literal, not the
# arithmetic, is the precision bottleneck.
GAMMA_EULER = 0.57721566490153286060651209008240243104215933593992

# Defaults of the smoothing parameter and height floor under which both
# prefactors were sized.
ALPHA_DEFAULT = 1.8
T0_DEFAULT = 7778.0

# Conductor multiplier and amplitude of the Dedekind profile.
DEDEKIND_SCALE = 5.552
DEDEKIND_AMPLITUDE = 1.9

ZETA_MIN_HEIGHT = 50.0


def saturating_exp(x: float) -> float:
    """math.exp(x), or +inf where it overflows, so a named check fails."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LFunctionProfile:
    """Data (d, m, l, C, c, T) of one growth estimate.

    degree            d, total degree of the gamma factor
    euler_order       m, order of the polynomial Euler product
    log_power         l, exponent of the loglog factor
    amplitude         C, multiplicative constant (enters through log+ C)
    conductor_scale   c, multiplier of |t| inside every log
    min_height        T, the estimate is asserted for |t| >= T only
    """

    degree: float
    euler_order: int
    log_power: float
    amplitude: float
    conductor_scale: float
    min_height: float

    def __post_init__(self):
        if self.degree < 1:
            raise DomainError(f"degree must be >= 1, got {self.degree}")
        if self.euler_order < 1:
            raise DomainError(f"euler_order must be >= 1, got {self.euler_order}")
        if self.log_power < 0:
            raise DomainError(f"log_power must be >= 0, got {self.log_power}")
        if self.amplitude <= 0:
            raise DomainError(f"amplitude must be > 0, got {self.amplitude}")
        if self.conductor_scale < 1:
            raise DomainError(
                f"conductor_scale must be >= 1, got {self.conductor_scale}")
        # loglog(c*T) must exist for every height the profile admits
        if self.min_height <= math.e:
            raise DomainError(f"min_height must exceed e, got {self.min_height}")


def _smoothing(alpha: float, t0: float) -> tuple[float, float]:
    """(1/alpha) exp(alpha (1/2 + gamma/log t0)) and (2 + alpha/log t0)/t0,
    the growth and window factors both smoothed prefactors share."""
    if alpha <= 0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    floor = saturating_exp(2 * alpha)
    if t0 < floor:
        raise DomainError(f"t0 must be >= exp(2 alpha) = {floor:.3f}, got {t0}")
    log_t0 = math.log(t0)
    window = (2 + alpha / log_t0) / t0
    return (1 / alpha) * math.exp(alpha * (0.5 + GAMMA_EULER / log_t0)), window


def rademacher_prefactor_dirichlet(alpha: float = ALPHA_DEFAULT,
                                   t0: float = T0_DEFAULT) -> float:
    """Constant in front of (q|t|)^(1/4) log(q|t|) in the smoothed bound.

    Equals

        (1/alpha) exp(alpha (1/2 + gamma/log t0))
            * ((1/(2 pi)) sqrt(1 + ((2 + alpha/log t0)/t0)^2))^(1/4)

    and must be <= 1 for profile_dirichlet to be valid.  Requires
    t0 >= exp(2 alpha) so the smoothing window stays below the height floor.
    """
    growth, window = _smoothing(alpha, t0)
    return growth * ((1 / (2 * math.pi)) * math.sqrt(1 + window * window)) ** 0.25


def rademacher_prefactor_dedekind(n_k: int, alpha: float = ALPHA_DEFAULT,
                                  t0: float = T0_DEFAULT) -> float:
    """Constant in front of (c|t|)^(n_K/4) log^(n_K)(c|t|), c = 5.552 |Delta|^(1/n_K).

    The raw smoothed bound carries (|Delta|^(1/n_K) |t|)^(n_K/4); moving to
    the c-normalised form divides the prefactor by 5.552^(n_K/4), which is
    what makes the per-degree factor fall below 1:

        (3/(2 pi)^(1/4)) (1 + ((2 + alpha/log t0)/t0)^2)^(5/8)
            * ((1/alpha) exp(alpha (1/2 + gamma/log t0)) / 5.552^(1/4))^n_K

    The result must be <= 1.9 for profile_dedekind to be valid.
    """
    if n_k < 2:
        raise DomainError(f"n_k must be >= 2, got {n_k}")
    growth, window = _smoothing(alpha, t0)
    front = (3 / (2 * math.pi) ** 0.25) * (1 + window * window) ** 0.625
    per_degree = growth / DEDEKIND_SCALE ** 0.25
    try:
        return front * per_degree ** n_k
    except OverflowError:  # +inf, which the prefactor check rejects
        return math.inf


def profile_zeta() -> LFunctionProfile:
    """Profile (1, 1, 1, 1, 1, 50) of the Riemann zeta function."""
    return LFunctionProfile(degree=1, euler_order=1, log_power=1,
                            amplitude=1.0, conductor_scale=1.0,
                            min_height=ZETA_MIN_HEIGHT)


def profile_dirichlet(q: int, alpha: float = ALPHA_DEFAULT,
                      t0: float = T0_DEFAULT) -> LFunctionProfile:
    """Profile (1, 1, 1, 1, q, t0) of a primitive non-principal character mod q.

    Checks the smoothing prefactor is <= 1; with the defaults it evaluates to
    0.96920, and perturbing alpha or t0 may push it past 1, which raises.
    """
    if q < 3:
        raise DomainError(f"q must be an integer >= 3, got {q}")
    pref = rademacher_prefactor_dirichlet(alpha, t0)
    if not pref <= 1:  # a NaN prefactor fails too
        raise HypothesisError(
            "dirichlet-prefactor",
            f"prefactor {pref:.6f} > 1 at alpha={alpha}, t0={t0}")
    return LFunctionProfile(degree=1, euler_order=1, log_power=1,
                            amplitude=1.0, conductor_scale=float(q),
                            min_height=t0)


def profile_dedekind(n_k: int, abs_disc: float, alpha: float = ALPHA_DEFAULT,
                     t0: float = T0_DEFAULT) -> LFunctionProfile:
    """Profile (n_K, n_K, n_K, 1.9, 5.552 |Delta|^(1/n_K), t0) of a Dedekind zeta.

    Checks the c-normalised prefactor is <= 1.9.  abs_disc is the absolute
    value of the field discriminant; degree n_k >= 2 fields have
    |Delta| >= 3, which keeps conductor_scale > 5.552.
    """
    if n_k < 2:
        raise DomainError(f"n_k must be an integer >= 2, got {n_k}")
    if abs_disc < 3:
        raise DomainError(f"abs_disc must be >= 3, got {abs_disc}")
    pref = rademacher_prefactor_dedekind(n_k, alpha, t0)
    if not pref <= DEDEKIND_AMPLITUDE:  # a NaN prefactor fails too
        raise HypothesisError(
            "dedekind-prefactor",
            f"prefactor {pref:.6f} > {DEDEKIND_AMPLITUDE} at "
            f"alpha={alpha}, t0={t0}, n_k={n_k}")
    return LFunctionProfile(degree=float(n_k), euler_order=n_k,
                            log_power=float(n_k),
                            amplitude=DEDEKIND_AMPLITUDE,
                            conductor_scale=DEDEKIND_SCALE * abs_disc ** (1.0 / n_k),
                            min_height=t0)
