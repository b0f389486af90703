"""Reference values computed apart from the program, with mpmath and scipy.

Nothing here imports nearone: every value is an independent computation
that the program's output is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

GL_NODES = 96
MP_DPS = 15


def gl_inv_zeta_panel(sigma0: float, lo: float, hi: float,
                      nodes: int = GL_NODES) -> float:
    """Gauss-Legendre sum of 1/|zeta(sigma0 + it)| over [lo, hi], mpmath zeta."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    with mpmath.workdps(MP_DPS):
        total = mpmath.fsum(
            float(wi) / abs(mpmath.zeta(mpmath.mpc(sigma0, mid + half * float(xi))))
            for xi, wi in zip(x, w))
    return float(total * half)


def log_abs_zeta(sigma: float, t: float) -> float:
    """|log|zeta(sigma + it)||, as the verifier's log check observes it."""
    with mpmath.workdps(MP_DPS):
        return float(abs(mpmath.log(abs(mpmath.zeta(mpmath.mpc(sigma, t))))))


def abs_logder_zeta(sigma: float, t: float) -> float:
    """|zeta'/zeta(sigma + it)|, as the verifier's logder check observes it."""
    with mpmath.workdps(MP_DPS):
        s = mpmath.mpc(sigma, t)
        return float(abs(mpmath.zeta(s, derivative=1) / mpmath.zeta(s)))


def bound_value(kind: str, sigma: float, t: float, a: float, b: float) -> float:
    """a (b log t)^(2(1-sigma)) loglog(t)^k with k = 1 (log) or 2 (logder)."""
    L = math.log(t)
    power = 1 if kind == "log-zeta" else 2
    return a * (b * L) ** (2.0 * (1.0 - sigma)) * math.log(L) ** power


def envelope_quad(sigma0: float, a1: float, lo: float, hi: float) -> float:
    """scipy quad of exp(v + a1 v^(2(1-sigma0)) log v) over [log lo, log hi]."""
    from scipy.integrate import quad

    expo = 2.0 * (1.0 - sigma0)
    v0, v1 = math.log(lo), math.log(hi)
    f = lambda v: math.exp(v + a1 * v ** expo * math.log(v))
    # unit v-panels keep every piece well inside quad's default accuracy
    cuts = [v0] + [float(k) for k in range(math.floor(v0) + 1, math.ceil(v1))] + [v1]
    return math.fsum(quad(f, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
                     for a, b in zip(cuts, cuts[1:]))


def crossover_log10(A: float, a: float, B: float, b: float) -> float:
    """log10 x solving A x^a + B x^b = x, by mpmath root finding in log space."""
    with mpmath.workdps(30):
        A, a, B, b = (mpmath.mpf(repr(v)) for v in (A, a, B, b))
        g = lambda y: mpmath.log10(A * mpmath.power(10, a * y)
                                   + B * mpmath.power(10, b * y)) - y
        return float(mpmath.findroot(g, (600, 800), solver="anderson"))


def m_transfer(A: str, a: str, B: str, b: str) -> tuple[float, float]:
    """Exact A (1 + 1/(1-a)) and B (1 + 1/(1-b)) from decimal strings."""
    A, a, B, b = (Fraction(v) for v in (A, a, B, b))
    return float(A * (1 + 1 / (1 - a))), float(B * (1 + 1 / (1 - b)))


def mobius_upto(n: int) -> np.ndarray:
    """mu(k) for 0 <= k <= n by a plain sieve of Eratosthenes (entry 0 unused)."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    is_comp = np.zeros(n + 1, dtype=bool)
    for p in range(2, n + 1):
        if is_comp[p]:
            continue
        is_comp[2 * p::p] = True
        mu[p::p] *= -1
        if p * p <= n:
            mu[p * p::p * p] = 0
    return mu


def mertens_max_ratios(n: int, A: float, a: float, B: float, b: float
                       ) -> tuple[float, float, float]:
    """Max over 1 <= x <= n of |M|/(A x^a + B x^b), |m|/bound_m and |M|/x."""
    mu = mobius_upto(n)[1:]
    x = np.arange(1, n + 1, dtype=np.float64)
    M = np.cumsum(mu)
    m = np.cumsum(mu / x)
    A_m, B_m = A * (1 + 1 / (1 - a)), B * (1 + 1 / (1 - b))
    r_M = np.max(np.abs(M) / (A * x ** a + B * x ** b))
    r_m = np.max(np.abs(m) / (A_m * x ** (a - 1) + B_m * x ** (b - 1)))
    r_triv = np.max(np.abs(M) / x)
    return float(r_M), float(r_m), float(r_triv)
