"""Fully explicit constants (a, b) for bounds near the 1-line.

Given a growth profile (d, m, l, C, c, T) and tunable parameters
(C1, C2, C3, C4, T1, T2, t0), this module evaluates the closed-form
constants of the two bound shapes

    |log L(s)|      <= a1 * (b1 * log(c|t|))^(2(1-sigma)) * loglog(c|t|)
    |L'/L(s)|       <= a2 * (b2 * log(c|t|))^(2(1-sigma)) * (loglog(c|t|))^2

valid on the region 1/2 + A/loglog(c|t|) <= sigma <= 1 + B/loglog(c|t|)
for |t| >= t0, where (A, B) is reported as ``sigma_region``.  The central
ingredient is

    K(d, m, l, C, C1, t0') = d/4 + C1 d / (2 loglog t0')
        + (1 + 2 C1/loglog t0') * ( l loglog t0'/log t0'
            + (m/log t0') (logloglog t0' + log(1/C1)
                           + gamma C1/loglog t0')
            + log+ C / log t0' )

together with two window factors F1, F2 depending on (C3, T1), giving

    b1 = (K(d, m, l, C, C1, T2)/m) * F1 * F2 ,

and the exponential rate

    R(C2, C3, T1) = (2 C2 + 1/(2 C3)) / (1 - 1/(4 C3 loglog T1)) .

One body, ``compute_constants``, computes both targets: it takes b1 and R
at T1 - ROOM[target]["shift"], which is T1 for the log bound and T1 - 1
for the derivative bound, since that is assembled from log-bounds on a
unit strip below T1.  ``compute_a1`` and ``compute_a2`` name its targets.

Every hypothesis of the underlying statements is validated by name before
anything is computed; ``hypothesis_report`` exposes the full pass/fail list
for machine-readable reports.  All arithmetic is IEEE float64.  The display
helpers round up, which keeps a bound valid only where its exponent
2(1 - sigma) is nonnegative (see BoundConstants.display).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from decimal import Context, Decimal, ROUND_CEILING

from .errors import DomainError, HypothesisError
from .profiles import (GAMMA_EULER, LFunctionProfile, T0_DEFAULT,
                       DEDEKIND_AMPLITUDE, saturating_exp)

# Safety inflation of the derivative-bound prefactor; absorbs the +-1 shift
# of the imaginary part and the loglog inflation incurred when re-centering
# the local bound.
A2_INFLATION = 1.0002
# Left-edge stretch of the derivative sigma-region.
REGION_STRETCH = 1.00006
# C4 must stay strictly below C2/2; this divisor enforces the gap.
C4_GAP = 2.0001

# Floor under which the iterated logarithms in K are all positive and
# monotone: exp(e^2) ~ 1618.18.
ITERLOG_FLOOR = math.exp(math.e ** 2)

TARGET_LOG = "log"
TARGET_LOGDER = "logder"

# The derivative bound is assembled from log-bounds on a unit strip below
# T1, so it needs one more unit of room than the log bound: its T1-floor
# shifts by 1, its T1-gap must leave 1 and its T2-window margin grows from
# 1/2 to 3/2.
ROOM = {TARGET_LOG: {"shift": 0, "gap": 0.0, "margin": 0.5},
        TARGET_LOGDER: {"shift": 1, "gap": 1.0, "margin": 1.5}}


def loglog(x: float) -> float:
    """log(log(x)); the argument must exceed e."""
    if x <= math.e:
        raise DomainError(f"loglog needs x > e, got {x}")
    return math.log(math.log(x))


def logloglog(x: float) -> float:
    """log(log(log(x))); the argument must exceed e."""
    return math.log(loglog(x))


def logplus(x: float) -> float:
    """max(0, log x) for x > 0."""
    if x <= 0:
        raise DomainError(f"logplus needs x > 0, got {x}")
    return max(0.0, math.log(x))


def ceil_decimals(x: float, places: int) -> float:
    """Round x up (toward +inf) at the given number of decimal places; exact
    for every finite x, as the context holds every digit and a carry."""
    if not math.isfinite(x):
        raise DomainError(f"cannot round {x!r} for display")
    d = Decimal(repr(x))
    context = Context(prec=max(d.adjusted() + places + 2, 1))
    up = float(d.quantize(Decimal(1).scaleb(-places),
                          rounding=ROUND_CEILING, context=context))
    if math.isinf(up):
        raise DomainError(f"{x!r} rounded up at {places} decimal places "
                          f"exceeds the largest float")
    return up


def ceil_sigfigs(x: float, digits: int) -> float:
    """Round x up (toward +inf) at the given number of significant figures."""
    if digits < 1:
        raise DomainError(f"digits must be >= 1, got {digits}")
    if x == 0:
        return 0.0
    return ceil_decimals(x, digits - 1 - Decimal(repr(x)).adjusted())


@dataclass(frozen=True)
class BoundParams:
    """Tunable parameters of one constants computation.

    C4 is only meaningful for the derivative target and stays None
    otherwise.  t0 is the height floor of the region on which the final
    bound is asserted; T1, T2 are the interior heights the derivation runs
    through and C3 controls the window between them.
    """

    C1: float
    C2: float
    C3: float
    T1: float
    T2: float
    t0: float
    C4: float | None = None

    def as_dict(self) -> dict:
        d = asdict(self)
        if self.C4 is None:
            del d["C4"]
        return d


@dataclass(frozen=True)
class BoundConstants:
    """Computed constants of one bound, with the region they are valid on."""

    a: float
    b: float
    sigma_region: tuple[float, float]  # (A, B): 1/2 + A/loglog <= sigma <= 1 + B/loglog
    target: str

    def as_dict(self) -> dict:
        return {"a": self.a, "b": self.b,
                "sigma_region": list(self.sigma_region), "target": self.target}

    def display(self) -> dict:
        """Published display forms, rounded upward: a1 at 2 decimals, a2 at 3,
        b at 3.  A larger b enlarges the bound only where 2(1 - sigma) >= 0;
        where sigma > 1 the displayed pair may sit below the computed one."""
        places = 2 if self.target == TARGET_LOG else 3
        return {"a_display": ceil_decimals(self.a, places),
                "b_display": ceil_decimals(self.b, 3)}


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    ok: bool
    detail: str


# Per-candidate formulas, for a float or a NumPy array of grid cells; an
# array caller passes an exp that saturates to +inf, as saturating_exp does.

def c4_of(C2, rho):
    """C4 = rho C2/C4_GAP, rho in (0, 1]: C4-range holds for every rho."""
    return rho * (C2 / C4_GAP)


def region_edge(C2, C4=None):
    """Left edge A of the sigma-region: C2 for a1 (no C4), else 1.00006 C2 + C4."""
    return C2 if C4 is None else REGION_STRETCH * C2 + C4


def rate(C2, C3, ll_T1):
    """(2 C2 + 1/(2 C3)) / (1 - 1/(4 C3 ll_T1)), ll_T1 = loglog(T1)."""
    return (2 * C2 + 1 / (2 * C3)) / (1 - 1 / (4 * C3 * ll_T1))


def edge_floor(edge, shift, exp=saturating_exp):
    """exp(e^(2 edge)) + shift, the edge term of the T1-floor; past the float
    range it is +inf, so the T1-floor fails by name."""
    return exp(exp(2 * edge)) + shift


def window_edge(t0: float, C3: float, c: float, margin: float) -> float:
    """t0 - C3 loglog(c t0) - margin, the largest T2 the T2-window admits."""
    return t0 - C3 * loglog(c * t0) - margin


# The named hypotheses, one predicate each.  A caller passes every quantity
# of its statement as a keyword; a predicate reads those it constrains and
# returns (ok, detail) without raising.  Besides the parameters these are
# edge, the left edge A of the sigma-region (the T1-floor needs
# T1 >= exp(e^(2A))); m_over_d, c and T, the profile's Euler order over its
# degree, conductor scale and height floor; and the statement's ROOM.

def _sigma0_floor(sigma0, C2, T1, **_):
    if T1 <= math.e:
        return False, f"T1={T1} too small for loglog"
    floor = 0.5 + C2 / loglog(T1)
    return sigma0 >= floor, (f"need sigma0 >= 1/2 + C2/loglog(T1) = {floor!r}, "
                             f"got sigma0={sigma0!r}")


def _t1_floor(T1, C3, edge, m_over_d, shift, **_):
    floor = max(edge_floor(edge, shift),
                max(math.exp(4 * m_over_d), C3, ITERLOG_FLOOR) + shift)
    return T1 >= floor, f"need T1 >= {floor}, got T1={T1}"


def _t1_gap(T1, C3, gap, **_):
    if T1 <= math.e:
        return False, f"T1={T1} too small for loglog"
    slack = T1 - 2 * C3 * loglog(T1)
    return slack >= gap, f"need T1 - 2*C3*loglog(T1) >= {gap}, got {slack}"


def _t2_window(t0, T2, C3, c, margin, **_):
    if c * t0 <= math.e:
        return False, f"c*t0={c * t0} too small for loglog"
    win = window_edge(t0, C3, c, margin)
    return win >= T2, f"need t0 - C3*loglog(c*t0) - {margin} = {win} >= T2={T2}"


def _t2_floor(T2, T, **_):
    floor = max(T + 1, ITERLOG_FLOOR)
    return T2 >= floor, f"need T2 >= {floor}, got T2={T2}"


HYPOTHESES = (
    ("sigma0-range", lambda sigma0, **_: (
        0.5 < sigma0 < 1.0, f"need 1/2 < sigma0 < 1, got sigma0={sigma0!r}")),
    ("sigma0-floor", _sigma0_floor),
    ("C1-range", lambda C1, **_: (
        0 < C1 <= 1, f"need 0 < C1 <= 1, got C1={C1}")),
    ("C2-range", lambda C1, C2, **_: (
        0 < C2 <= 2 * C1, f"need 0 < C2 <= 2*C1={2 * C1}, got C2={C2}")),
    ("C3-floor", lambda C3, **_: (C3 >= 1, f"need C3 >= 1, got C3={C3}")),
    ("C4-range", lambda C2, C4, **_: (
        C4 is not None and 0 < C4 <= C2 / C4_GAP,
        f"need 0 < C4 <= C2/{C4_GAP}={C2 / C4_GAP}, got C4={C4}")),
    ("T1-floor", _t1_floor),
    ("T1-gap", _t1_gap),
    ("t0-floor", lambda t0, T1, **_: (
        t0 >= T1, f"need t0 >= T1={T1}, got t0={t0}")),
    ("T2-window", _t2_window),
    ("T2-floor", _t2_floor),
    ("epsilon0-applicability", lambda epsilon0, **_: (
        0.0 < epsilon0 < 1.0,
        f"need 0 < epsilon0 < 1, got epsilon0={epsilon0!r}")),
    ("lambda-range", lambda lam, T1, **_: (
        0.0 < lam <= T1, f"need 0 < lambda <= T1={T1!r}, got lambda={lam!r}")),
)

_HYPOTHESIS_NAMES = frozenset(name for name, _ in HYPOTHESES)

# An edge of 0 puts the T1-floor's edge term at e, below ITERLOG_FLOOR, so it
# drops out: the floor of a statement with no sigma-region.
NO_EDGE = 0.0

# the hypotheses of each statement; a2 adds C4-range to those of a1
_A1_HYPOTHESES = ("C1-range", "C2-range", "C3-floor", "T1-floor", "T1-gap",
                  "t0-floor", "T2-window", "T2-floor")
STATEMENT_HYPOTHESES = {TARGET_LOG: _A1_HYPOTHESES,
                        TARGET_LOGDER: _A1_HYPOTHESES + ("C4-range",)}


def check_hypotheses(names, **quantities) -> list[HypothesisCheck]:
    """Evaluate the named entries of HYPOTHESES, in table order; an unknown
    name raises DomainError instead of silently dropping its check."""
    unknown = set(names) - _HYPOTHESIS_NAMES
    if unknown:
        raise DomainError(f"unknown hypotheses {sorted(unknown)!r}")
    return [HypothesisCheck(name, bool(ok), detail)
            for name, predicate in HYPOTHESES if name in names
            for ok, detail in [predicate(**quantities)]]


def statement_hypotheses(names, profile: LFunctionProfile, target: str,
                         **quantities) -> list[HypothesisCheck]:
    """The named hypotheses of the a1 or a2 statement on a profile."""
    return check_hypotheses(
        names, m_over_d=profile.euler_order / profile.degree,
        c=profile.conductor_scale, T=profile.min_height, **ROOM[target],
        **quantities)


def hypothesis_report(profile: LFunctionProfile, params: BoundParams,
                      target: str) -> list[HypothesisCheck]:
    """Evaluate every named hypothesis of the chosen target; never raises.

    Checks whose prerequisites are unavailable (for example a loglog of an
    argument that is too small) are reported as failed rather than raising,
    so the report is always complete.
    """
    if target not in ROOM:
        raise DomainError(f"unknown target {target!r}")
    c4 = params.C4 if target == TARGET_LOGDER else None  # a1 has no C4
    return statement_hypotheses(STATEMENT_HYPOTHESES[target], profile, target,
                                edge=region_edge(params.C2, c4),
                                **asdict(params))


def _require(checks: list[HypothesisCheck]) -> None:
    for ch in checks:
        if not ch.ok:
            raise HypothesisError(ch.name, ch.detail)


def compute_K(profile: LFunctionProfile, C1: float, t0_prime: float) -> float:
    """The kernel K(d, m, l, C, C1, t0') of the b-constant.

    Requires 0 < C1 <= 1 and t0' >= max(T+1, exp(e^2)), the C1-range and
    T2-floor hypotheses at T2 = t0'; under these the result is guaranteed
    >= d/4 since every addend is nonnegative.
    """
    _require(statement_hypotheses(("C1-range", "T2-floor"), profile,
                                  TARGET_LOG, C1=C1, T2=t0_prime))
    d, m = profile.degree, profile.euler_order
    L = math.log(t0_prime)
    ll = loglog(t0_prime)
    lll = logloglog(t0_prime)
    return (d / 4 + C1 * d / (2 * ll)
            + (1 + 2 * C1 / ll)
            * (profile.log_power * ll / L
               + (m / L) * (lll + math.log(1 / C1) + GAMMA_EULER * C1 / ll)
               + logplus(profile.amplitude) / L))


def _window_factors(C3: float, T1: float) -> tuple[float, float]:
    L1 = math.log(T1)
    ll1 = loglog(T1)
    f1 = 1 + math.log(1 + (C3 * ll1 + 1.5) / T1) / L1
    f2 = 1 + math.log(1 + math.log(1 + (2 * C3 * ll1 + 1) / T1) / L1) / ll1
    return f1, f2


def compute_b1(profile: LFunctionProfile, C1: float, C3: float,
               T1: float, T2: float) -> float:
    """The b-constant (K(..., T2)/m) * F1(C3, T1) * F2(C3, T1), always >= d/(4m).

    T1 is the height b runs at (compute_constants passes T1 less the
    target's ROOM shift), so its hypotheses take the room of the log
    statement there.
    """
    _require(statement_hypotheses(
        ("C1-range", "C3-floor", "T1-floor", "T1-gap", "T2-floor"), profile,
        TARGET_LOG, C1=C1, C3=C3, T1=T1, T2=T2, edge=NO_EDGE))
    f1, f2 = _window_factors(C3, T1)
    return (compute_K(profile, C1, T2) / profile.euler_order) * f1 * f2


def compute_R(C2: float, C3: float, T1: float) -> float:
    """Exponential rate (2 C2 + 1/(2 C3)) / (1 - 1/(4 C3 loglog T1)).

    The rate needs only C2 > 0, so C2-range is checked with C1 unbounded;
    it has no sigma-region and no profile, so its T1-floor is
    max(C3, ITERLOG_FLOOR).
    """
    _require(check_hypotheses(("C2-range", "C3-floor", "T1-floor"),
                              C1=math.inf, C2=C2, C3=C3, T1=T1,
                              edge=NO_EDGE, m_over_d=0.0, shift=0))
    return rate(C2, C3, loglog(T1))


def _a1_value(m, C2, b, R, ll_t1, exp=math.exp):
    return (m / C2) * exp((1 + logplus(b) / ll_t1) * R)


def _a2_value(m, C2, C4, b2, R2, ll_t1, ll_t1m1, exp=math.exp):
    return (A2_INFLATION * m / (C2 * C4)) * exp(
        2 * C4 * (1 + logplus(b2) / ll_t1)
        + (1 + logplus(b2) / ll_t1m1) * R2)


def compute_constants(profile: LFunctionProfile, params: BoundParams,
                      target: str) -> BoundConstants:
    """Constants of the target's bound, with the region they are valid on.

    Validates the full hypothesis list of the target and raises
    HypothesisError naming the first violated condition.  The b-constant
    and the rate are evaluated at T1 - ROOM[target]["shift"].
    """
    _require(hypothesis_report(profile, params, target))
    p, m = params, profile.euler_order
    b_T1 = p.T1 - ROOM[target]["shift"]
    b = compute_b1(profile, p.C1, p.C3, b_T1, p.T2)
    R = compute_R(p.C2, p.C3, b_T1)
    if target == TARGET_LOG:
        a = _a1_value(m, p.C2, b, R, loglog(p.T1))
        return BoundConstants(a=a, b=b, sigma_region=(p.C2, p.C2), target=target)
    a = _a2_value(m, p.C2, p.C4, b, R, loglog(p.T1), loglog(b_T1))
    region = (region_edge(p.C2, p.C4), p.C4)
    return BoundConstants(a=a, b=b, sigma_region=region, target=target)


def compute_a1(profile: LFunctionProfile, params: BoundParams) -> BoundConstants:
    """Constants of the |log L| bound; region (C2, C2) around the 1-line."""
    return compute_constants(profile, params, TARGET_LOG)


def compute_a2(profile: LFunctionProfile, params: BoundParams) -> BoundConstants:
    """Constants of the |L'/L| bound; region (1.00006 C2 + C4, C4)."""
    return compute_constants(profile, params, TARGET_LOGDER)


def dedekind_split(C1: float, C3: float, T1: float, T2: float) -> tuple[float, float]:
    """Degree-independent split (K1, K2) of the Dedekind b-constant.

    For the degree-n_K Dedekind profile, b1 = K1 + K2/n_K: the kernel keeps
    the shape of the degree-1 case except for the amplitude term
    log(1.9)/log T2, whose weight decays like 1/n_K.  K1 is b1 of the
    degree-1 profile with amplitude 1, and K2 what amplitude 1.9 adds to
    it; both profiles carry the default height floor (min_height 7778).
    """
    def b1(amplitude: float) -> float:
        profile = LFunctionProfile(degree=1, euler_order=1, log_power=1,
                                   amplitude=amplitude, conductor_scale=1.0,
                                   min_height=T0_DEFAULT)
        return compute_b1(profile, C1, C3, T1, T2)

    k1 = b1(1.0)
    return k1, b1(DEDEKIND_AMPLITUDE) - k1


def elementary_bounds(euler_order: int, B: float, conductor_scale: float,
                      t: float, t0: float) -> tuple[float, float]:
    """Bounds on (|log L|, |L'/L|) valid for sigma >= 1 + B/loglog(c|t|).

    Away from the critical strip both follow from the Euler product alone:

        |log L|  <= m logloglog(c|t|) + m log(1/B) + m gamma B / loglog(t0)
        |L'/L|   <= (m/B) loglog(c|t|)

    for |t| >= t0.  Requires B > 0, c >= 1 and t0 > e^e so the iterated
    logs are positive.
    """
    if B <= 0:
        raise HypothesisError("B-positive", f"need B > 0, got {B}")
    if conductor_scale < 1:
        raise DomainError(f"conductor_scale must be >= 1, got {conductor_scale}")
    if t0 <= math.exp(math.e):
        raise HypothesisError("t0-loglog-floor", f"need t0 > e^e, got {t0}")
    if abs(t) < t0:
        raise HypothesisError("t-floor", f"need |t| >= t0={t0}, got t={t}")
    m = euler_order
    ct = conductor_scale * abs(t)
    log_bound = (m * logloglog(ct) + m * math.log(1 / B)
                 + m * GAMMA_EULER * B / loglog(t0))
    logder_bound = (m / B) * loglog(ct)
    return log_bound, logder_bound


def constants_report(profile: LFunctionProfile, params: BoundParams,
                     target: str) -> dict:
    """Machine-readable report: inputs, hypothesis list, computed constants.

    The constants block is present only when every hypothesis passes.
    Display values are rounded upward (2 decimals for a1, 3 for a2); see
    BoundConstants.display for where the rounded pair covers the bound.
    """
    checks = hypothesis_report(profile, params, target)
    report = {
        "target": target,
        "profile": asdict(profile),
        "parameters": params.as_dict(),
        "hypotheses": [asdict(ch) for ch in checks],
        "hypotheses_ok": all(ch.ok for ch in checks),
    }
    if report["hypotheses_ok"]:
        bc = compute_constants(profile, params, target)
        report["constants"] = {**bc.as_dict(), **bc.display()}
    return report
