"""Published parameter sets, display values and shared defaults.

Each is written here once; the library and the command line import it.
"""

from __future__ import annotations

from .constants import TARGET_LOG, TARGET_LOGDER, BoundParams, c4_of

# Window constant of every published parameter set.
C3 = 1000.0

# Per family: (C1, C2) of the published a1 and a2 constants, then the
# heights (T1, T2, t0).  The Dirichlet profile's height floor puts its
# T2-floor at 7779, above the zeta T2.
_A1_POINT, _A2_POINT = (0.25, 0.5), (0.34, 0.67)
_FAMILIES = {
    "zeta": (_A1_POINT, _A2_POINT, (1e4, 7778.0, 1e4)),
    "dirichlet": (_A1_POINT, _A2_POINT, (1e4, 7788.0, 10544.05)),
    "dedekind": (_A1_POINT, (0.32, 0.64), (10188.0, 7794.0, 12128.0)),
}

# The parameter sets behind the published constants, per family and target.
CONSTANT_PARAMS = {
    (family, target): BoundParams(
        C1=C1, C2=C2, C3=C3, T1=T1, T2=T2, t0=t0,
        C4=c4_of(C2, 1.0) if target == TARGET_LOGDER else None)
    for family, (a1_point, a2_point, (T1, T2, t0)) in _FAMILIES.items()
    for target, (C1, C2) in ((TARGET_LOG, a1_point), (TARGET_LOGDER, a2_point))
}

# Decimal step of the optimizer's grid over (C1, C2[, rho]).
GRID_STEP = 0.01

# Published zeta constants and the (A, B, c) of their sigma-regions.
DISPLAY_A1 = 5.44
DISPLAY_B1 = 0.951
DISPLAY_A2 = 33.281
DISPLAY_B2 = 0.971
LOG_REGION = (0.5, 0.5, 1.0)
LOGDER_REGION = (1.0051, 0.3349, 1.0)

# The Mertens chain: parameters of epsilon0 (with the window constant C3),
# the smoothing parameter lambda, and the ceiling on
# int_0^T1 du / |zeta(sigma0 + iu)|.
SIGMA0 = 0.98
MERTENS_C1 = 0.5
MERTENS_C2 = 0.5
MERTENS_T1 = 2.6e7
LAMBDA = 2.0
INTEGRAL_BOUND = 5.95e14

# The published bound |M(x)| <= coef_kappa x^kappa + coef_sigma0 x^sigma0 + 1.
DISPLAY_COEF_KAPPA = 555.71
DISPLAY_KAPPA = 0.99
DISPLAY_COEF_SIGMA0 = 1.94e14

# Range [1, limit] over which `mertens sieve-verify` checks the bound.
SIEVE_VERIFY_LIMIT = 1_000_000

# Quadrature: panel widths in t and in v = log u, and the relative
# tolerances of the two integrals.
PANEL_WIDTH = 10.0
V_PANEL_WIDTH = 0.5
INV_ZETA_REL_TOL = 1e-6
ENVELOPE_REL_TOL = 1e-9

# (from, to, rel_tol) per integrand.  The integral up to T1 splits at this
# height: 1/|zeta| is integrated below it and the envelope above it.
INV_ZETA_HEIGHT = 11520.0
INTEGRALS = {
    "inv-zeta": (0.0, INV_ZETA_HEIGHT, INV_ZETA_REL_TOL),
    "envelope": (INV_ZETA_HEIGHT, MERTENS_T1, ENVELOPE_REL_TOL),
}

# Default abs_tol of the zeta engine's entry points.  It sits above the
# rounding floor of zeta and zeta' for every sigma of the engine's strip
# and |t| <= 3e4; the highest, 5.1e-7, is zeta' at sigma = 0.401, t = 3e4.
ZETA_ABS_TOL = 1.0e-6

# Empirical verifier: sample budget.
VERIFY_SAMPLES = 400
