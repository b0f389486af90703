"""Explicit bounds for zeta-like L-functions near the 1-line.

The package computes fully explicit constants (a, b) in conditional bounds
of the shape

    |log L(s)|   <= a1 (b1 log(c|t|))^(2(1-sigma)) loglog(c|t|)
    |L'/L(s)|    <= a2 (b2 log(c|t|))^(2(1-sigma)) (loglog(c|t|))^2

for Selberg-class functions with a polynomial Euler product (Riemann,
Dirichlet, Dedekind families built in), optimizes the tunable parameters,
and carries the Riemann-zeta case through to explicit Mertens-function
bounds: the exponent epsilon0 with 1/|zeta(sigma0+it)| <= t^epsilon0, the
resulting |M(x)| <= coef_kappa x^kappa + coef_sigma0 x^sigma0 + 1, the
partial-summation transfer to sum mu(n)/n, and a segmented Mobius sieve
that verifies the bounds on an initial range.  Supporting machinery: an
Euler-Maclaurin zeta engine with certified error bounds, Romberg panel
quadrature for the reciprocal-zeta and envelope integrals, and an
empirical spot-checker for the bounds themselves.

Modules

    profiles    growth-estimate data (d, m, l, C, c, T) per L-function family
    constants   the (a, b) constant chain and the table of named hypotheses
    defaults    published parameter sets, display values and shared defaults
    optimizer   deterministic grid search minimizing a1 or a2
    zeta        Euler-Maclaurin zeta and zeta' with rigorous error bounds
    quadrature  Romberg panels, reciprocal-zeta and envelope integrals
    mertens     epsilon0, explicit Mertens bounds, Mobius sieve verification
    verifier    low-discrepancy empirical checks against actual zeta values
    parallel    order-preserving map over spawned worker processes
    cli         `nearone` command-line entry point (JSON reports)
    errors      shared exception taxonomy
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    HypothesisError,
    NearOneError,
    NoCrossoverError,
)

__all__ = [
    "ConvergenceError",
    "DomainError",
    "HypothesisError",
    "NearOneError",
    "NoCrossoverError",
    "__version__",
]
