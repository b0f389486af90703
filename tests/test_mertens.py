"""Tests for the explicit Mertens bound pipeline and the Mobius sieve.

Chain reference values (epsilon0, coefficients, crossover) were computed
with an independent 50-digit evaluation of the same closed forms and
frozen here; Mertens function spot values M(10^k) are classical.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nearone.constants import BoundParams, ceil_decimals, compute_a1, loglog
from nearone.errors import DomainError, HypothesisError, NoCrossoverError
from nearone.profiles import profile_zeta
from nearone import mertens
from nearone.mertens import (
    MertensBoundSpec,
    compute_epsilon0,
    crossover_trivial,
    default_T2,
    derive_m_bound,
    epsilon0_hypotheses,
    mertens_bound,
    m_rounding_bound,
    mertens_report,
    mobius_windows,
    sieve_mobius,
    verify_bound_on_range,
)

EPS0_ORACLE = 0.998851918717975160454122
T2_ORACLE = 25997161.96617350835
KAPPA_ORACLE = 0.9899942562964706200116843
COEF_SIGMA0_ORACLE = 193259588323242.9619575157
COEF_KAPPA_ORACLE = 555.7034124310972481672217
LOG10_XMIN_ORACLE = 710.9859659704752510237691
CROSSOVER_ORACLE = 714.3909528630345482130138
REL = 1e-12
WINDOW = 1 << 20
N_WINDOWS = 3 * WINDOW + 5   # four sieve windows, the last one 5 wide

M_KNOWN = {1: 1, 2: 0, 10: -1, 100: 1, 10**4: -23, 10**5: -48, 10**6: 212}
MU_FIRST_TEN = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


@pytest.fixture(scope="module")
def table_1e6():
    return sieve_mobius(10**6)


@pytest.fixture(scope="module")
def mu_windows():
    """mu(k) for 0 <= k <= N_WINDOWS, sieved over the whole range at once:
    every prime flips its multiples and zeroes the multiples of its square."""
    n = N_WINDOWS
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for p in np.flatnonzero(is_prime).tolist():
        mu[p::p] *= -1
        mu[p * p::p * p] = 0
    return mu


def test_default_T2_matches_window_edge():
    assert default_T2(2.6e7, 1.0e3) == pytest.approx(T2_ORACLE, rel=REL)


def test_epsilon0_matches_oracle():
    eps0 = compute_epsilon0(0.98, 0.5, 0.5, 1.0e3, 2.6e7, default_T2(2.6e7, 1.0e3))
    assert eps0 == pytest.approx(EPS0_ORACLE, rel=REL)
    assert eps0 < 1.0


def test_epsilon0_is_a1_bound_over_log_T1():
    """epsilon0 is the a1 bound a1 (b log T1)^(2(1-sigma0)) loglog T1 of the
    log statement at (sigma0, T1), divided by log T1."""
    T1 = 2.6e7
    T2 = default_T2(T1, 1.0e3)
    bc = compute_a1(profile_zeta(),
                    BoundParams(C1=0.5, C2=0.5, C3=1.0e3, T1=T1, T2=T2, t0=T1))
    a1_bound = (bc.a * (bc.b * math.log(T1)) ** (2.0 * (1.0 - 0.98))
                * loglog(T1))
    eps0 = compute_epsilon0(0.98, 0.5, 0.5, 1.0e3, T1, T2)
    assert eps0 == pytest.approx(a1_bound / math.log(T1), rel=1e-14)


def test_epsilon0_hypothesis_names_and_rejections():
    T2 = default_T2(2.6e7, 1.0e3)
    ok = epsilon0_hypotheses(0.98, 0.5, 1.0e3, 2.6e7)
    assert [c.name for c in ok] == ["sigma0-range", "sigma0-floor", "T1-floor"]
    assert all(c.ok for c in ok)
    cases = [
        (dict(sigma0=0.5), "sigma0-range"),
        (dict(sigma0=0.60), "sigma0-floor"),
        (dict(T1=1000.0, T2=900.0), "T1-floor"),
        (dict(T1=2000.0, T2=1619.0), "T1-gap"),
        (dict(T2=2.6e7), "T2-window"),
        (dict(T2=100.0), "T2-floor"),
        (dict(C1=0.1), "C2-range"),
    ]
    base = dict(sigma0=0.98, C1=0.5, C2=0.5, C3=1.0e3, T1=2.6e7, T2=T2)
    for override, name in cases:
        kw = dict(base)
        kw.update(override)
        with pytest.raises(HypothesisError) as err:
            compute_epsilon0(**kw)
        assert err.value.condition == name


def test_epsilon0_flags_bound_inapplicable():
    # at sigma0 close to the floor the exponent exceeds 1
    with pytest.raises(HypothesisError) as err:
        compute_epsilon0(0.68, 0.5, 0.5, 1.0e3, 2.6e7, default_T2(2.6e7, 1.0e3))
    assert err.value.condition == "epsilon0-applicability"


def test_mertens_bound_coefficients_match_oracle():
    rep = mertens_report()
    assert rep["parameters"]["epsilon0"] == pytest.approx(EPS0_ORACLE, rel=REL)
    assert rep["parameters"]["T2"] == pytest.approx(T2_ORACLE, rel=REL)
    bound = rep["bound"]
    assert bound["kappa"] == pytest.approx(KAPPA_ORACLE, rel=REL)
    assert bound["kappa"] <= 0.99
    assert bound["coef_sigma0"] == pytest.approx(COEF_SIGMA0_ORACLE, rel=REL)
    assert bound["coef_kappa"] == pytest.approx(COEF_KAPPA_ORACLE, rel=REL)
    assert bound["log10_x_min"] == pytest.approx(LOG10_XMIN_ORACLE, rel=REL)
    assert bound["additive_one"] == 1.0
    assert 710.0 <= bound["log10_x_min"] <= 712.0


def test_published_ceilings():
    rep = mertens_report()
    assert rep["display"] == {"kappa": 0.99, "coef_kappa": 555.71,
                              "coef_sigma0": 1.94e14}
    assert rep["m_transfer"] == {"A_m": 56126.71, "B_m": 9.894e15}
    assert rep["crossover_log10"] == pytest.approx(CROSSOVER_ORACLE, abs=1e-5)


@st.composite
def bound_specs(draw):
    sigma0 = draw(st.floats(0.5, 0.9999, exclude_min=True))
    kappa = draw(st.floats(sigma0, 1.0, exclude_min=True, exclude_max=True))
    coef = st.floats(1e-300, 1e300)
    return MertensBoundSpec(sigma0=sigma0, lam=2.0, epsilon0=0.5, kappa=kappa,
                            coef_sigma0=draw(coef), coef_kappa=draw(coef),
                            additive_one=1.0, log10_x_min=100.0)


def _spec_at(kappa):
    return MertensBoundSpec(sigma0=0.98, lam=2.0, epsilon0=0.5, kappa=kappa,
                            coef_sigma0=1.9e14, coef_kappa=555.7,
                            additive_one=1.0, log10_x_min=100.0)


@settings(max_examples=300, deadline=None, database=None)
@given(bound_specs())
@example(_spec_at(KAPPA_ORACLE))
@example(_spec_at(0.99))
@example(_spec_at(0.9924))
@example(_spec_at(0.99933))
@example(_spec_at(math.nextafter(1.0, 0.0)))
def test_display_rounds_up_and_keeps_kappa_below_one(spec):
    shown = spec.display()
    places = -Decimal(repr(shown["kappa"])).as_tuple().exponent
    assert spec.kappa <= shown["kappa"] < 1.0
    if spec.kappa <= 0.99:
        assert places <= 2
    else:  # the fewest decimals that stay below 1
        assert places == 2 or ceil_decimals(spec.kappa, places - 1) >= 1.0
    assert shown["coef_kappa"] >= spec.coef_kappa
    assert shown["coef_sigma0"] >= spec.coef_sigma0


def test_mertens_bound_rejections():
    with pytest.raises(HypothesisError) as err:
        mertens_bound(1.0, 2.0, 2.6e7, 0.5, 5.95e14)
    assert err.value.condition == "sigma0-range"
    with pytest.raises(HypothesisError) as err:
        mertens_bound(0.98, 2.0, 2.6e7, 1.0, 5.95e14)
    assert err.value.condition == "epsilon0-applicability"
    with pytest.raises(HypothesisError) as err:
        mertens_bound(0.98, 2.7e7, 2.6e7, 0.99, 5.95e14)
    assert err.value.condition == "lambda-range"
    with pytest.raises(DomainError):
        mertens_bound(0.98, 2.0, 2.6e7, 0.99, -1.0)
    # lambda = T1 boundary is accepted and doubles the growth factor
    spec = mertens_bound(0.98, 2.6e7, 2.6e7, 0.99, 5.95e14)
    assert spec.coef_sigma0 == pytest.approx(
        5.95e14 * 2.0 ** 0.98 / (math.pi * 0.98), rel=REL)


def test_lambda_two_sits_near_scan_minimum():
    rep = mertens_report()
    eps0 = rep["parameters"]["epsilon0"]
    lams = np.geomspace(0.05, 1.0e4, 400)
    coefs = np.array([
        mertens_bound(0.98, float(l), 2.6e7, eps0, 5.95e14).coef_kappa
        for l in lams])
    k = int(np.argmin(coefs))
    assert 0 < k < len(lams) - 1
    diffs = np.diff(coefs)
    assert np.all(diffs[:k] < 0.0)
    assert np.all(diffs[k:] > 0.0)
    assert rep["bound"]["coef_kappa"] <= 1.01 * float(coefs[k])


def test_x_min_increasing_in_epsilon0():
    prev = -math.inf
    for eps0 in np.linspace(0.3, 0.999, 25):
        spec = mertens_bound(0.98, 2.0, 2.6e7, float(eps0), 5.95e14)
        assert spec.log10_x_min > prev
        prev = spec.log10_x_min


def test_explicit_factor_decreasing_beyond_floor():
    sigma0 = 0.75
    floor = math.exp(math.exp(1.0 / (2.0 * sigma0 - 1.0)))
    f = lambda T1: loglog(T1) / math.log(T1) ** (2.0 * sigma0 - 1.0)
    for T1 in (floor, 2.0 * floor, 10.0 * floor, 1.0e7):
        assert f(2.0 * T1) < f(T1)


def test_derive_m_bound_exact_products():
    A_m, B_m = derive_m_bound(555.71, 0.99, 1.94e14, 0.98)
    assert A_m == 56126.71
    assert B_m == 9.894e15


def test_derive_m_bound_linearity_and_limit():
    A_m, B_m = derive_m_bound(555.71, 0.99, 1.94e14, 0.98)
    A_m2, B_m2 = derive_m_bound(2 * 555.71, 0.99, 2 * 1.94e14, 0.98)
    assert A_m2 == 2 * A_m
    assert B_m2 == 2 * B_m
    near2, _ = derive_m_bound(1.0, 1e-9, 1.0, 0.5)
    assert abs(near2 - 2.0) < 1e-8


def test_derive_m_bound_rejections():
    with pytest.raises(DomainError):
        derive_m_bound(1.0, 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        derive_m_bound(1.0, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        derive_m_bound(0.0, 0.5, 1.0, 0.5)
    with pytest.raises(DomainError, match="B_m exceeds"):
        derive_m_bound(1.0, 0.5, 1e308, 0.5)


def test_crossover_matches_oracle():
    got = crossover_trivial(555.71, 0.99, 1.94e14, 0.98)
    assert abs(got - CROSSOVER_ORACLE) < 1e-5
    assert abs(got - 714.4) < 0.1


def test_crossover_boundary_and_failure_cases():
    assert crossover_trivial(1.0, 0.5, 0.0, 0.5) == 0.0
    with pytest.raises(NoCrossoverError, match="above 1"):
        crossover_trivial(0.5, 0.99, 0.0, 0.5)
    with pytest.raises(NoCrossoverError):
        crossover_trivial(555.71, 0.9999, 0.0, 0.5)


def test_sieve_first_ten_and_known_values(table_1e6):
    assert table_1e6.mu[1:11].tolist() == MU_FIRST_TEN
    for x, expected in M_KNOWN.items():
        assert table_1e6.M(x) == expected


def test_sieve_against_brute_force_oracle(table_1e6):
    sympy = pytest.importorskip("sympy")
    for n in range(1, 10_001):
        assert int(table_1e6.mu[n]) == int(sympy.mobius(n))


def test_divisor_sum_identity(table_1e6):
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(404)
    ns = rng.integers(1, table_1e6.limit + 1, size=10_000)
    for n in ns:
        total = sum(int(table_1e6.mu[d]) for d in sympy.divisors(int(n)))
        assert total == (1 if n == 1 else 0)


def test_m_prefix_matches_compensated_recompute(table_1e6):
    for x in (12_345, 10**6):
        exact = math.fsum(int(table_1e6.mu[n]) / n for n in range(1, x + 1))
        assert abs(table_1e6.m(x) - exact) <= 1e-12


def test_verify_report_clean(table_1e6):
    rep = verify_bound_on_range(table_1e6, 555.71, 0.99, 1.94e14, 0.98)
    assert rep["violations"] == 0
    assert rep["first_violation"] is None
    assert 0.0 < rep["max_ratio_M"] < 1e-10
    assert 0.0 < rep["max_ratio_m"] < 1e-10
    assert rep["max_ratio_trivial"] == 1.0  # |M(1)| = 1 meets x = 1 exactly
    assert rep["A_m"] == 56126.71
    assert rep["runtime_seconds"] >= 0.0


def test_verify_detects_planted_violation():
    table = sieve_mobius(100)
    table.M_prefix[50] = 10**9
    rep = verify_bound_on_range(table, 555.71, 0.99, 1.94e14, 0.98)
    assert rep["violations"] == 1
    assert rep["first_violation"] == 50


def test_sieve_resource_limits():
    with pytest.raises(DomainError, match="resource limit"):
        sieve_mobius(200_000_001)
    with pytest.raises(DomainError):
        sieve_mobius(0)
    with pytest.raises(DomainError, match="2\\^31"):
        next(mobius_windows(2 ** 31, 2 ** 31 - WINDOW + 1))


def test_bound_spec_invariants():
    with pytest.raises(DomainError):
        MertensBoundSpec(sigma0=0.98, lam=2.0, epsilon0=1.2, kappa=0.99,
                         coef_sigma0=1.0, coef_kappa=1.0, additive_one=1.0,
                         log10_x_min=100.0)
    with pytest.raises(DomainError):
        MertensBoundSpec(sigma0=0.98, lam=2.0, epsilon0=0.5, kappa=0.97,
                         coef_sigma0=1.0, coef_kappa=1.0, additive_one=1.0,
                         log10_x_min=100.0)


@pytest.fixture
def checked(monkeypatch):
    """The first x of every window that the screen sends to the pointwise check."""
    los = []
    pointwise = mertens._RangeCheck.pointwise

    def counted(self, lo, *rest):
        los.append(lo)
        return pointwise(self, lo, *rest)

    monkeypatch.setattr(mertens._RangeCheck, "pointwise", counted)
    return los


@pytest.fixture
def carry_screens(monkeypatch):
    """(lo, M, m, cleared) of every window offered to the screen on the carries."""
    calls = []
    carries_clear = mertens._RangeCheck.carries_clear

    def recorded(self, lo, size, M, m, nonzero):
        cleared = carries_clear(self, lo, size, M, m, nonzero)
        calls.append((lo, M, m, cleared))
        return cleared

    monkeypatch.setattr(mertens._RangeCheck, "carries_clear", recorded)
    return calls


@pytest.fixture
def exact_screens(monkeypatch):
    """(lo, M, m at the window's end) of every window that reaches the
    exact screen, M copied out of the buffer the next window overwrites."""
    calls = []
    window = mertens._RangeCheck.window

    def recorded(self, lo, M, m):
        calls.append((lo, M.copy(), float(m[-1])))
        return window(self, lo, M, m)

    monkeypatch.setattr(mertens._RangeCheck, "window", recorded)
    return calls


# 0.001 sqrt x stays below 2 on the whole range, and every window after
# the head has |M(lo-1)| + #{mu(n) != 0} >= 2: none clears from its
# carries, so every window reaches the exact screen.
EVERY_WINDOW_EXACT = (0.001, 0.5, 0.0, 0.5)


def _check(A, a, B, b):
    """The running check of |M(x)| <= A x^a + B x^b, fed hand-made windows."""
    return mertens._RangeCheck(A, a, B, b, *derive_m_bound(A, a, B, b))


def test_screen_passes_a_window_that_only_raises_the_M_ratio(checked):
    check = _check(1.0, 0.5, 100.0, 0.01)
    check.window(1, np.array([1]), np.array([0.5]))  # trivial ratio 1
    M = np.zeros(1000, dtype=np.int64)
    M[-1] = 50
    check.window(WINDOW + 1, M, np.zeros(1000))
    assert checked == [1, WINDOW + 1]
    assert check.violations == 0
    assert check.max_ratio_M == pytest.approx(
        50.0 / check.bound_M(WINDOW + 1000.0), rel=REL)


def test_screen_passes_a_violation_below_the_running_max(checked):
    check = _check(1.0, 0.5, 0.0, 0.5)
    check.window(1, np.array([5]), np.array([0.5]))  # ratio 5 at x = 1
    M = np.zeros(100_000, dtype=np.int64)
    M[0] = 1025  # above sqrt(WINDOW + 1), below the window's last bound
    check.window(WINDOW + 1, M, np.zeros(100_000))
    assert checked == [1, WINDOW + 1]
    assert (check.violations, check.first_violation) == (2, 1)


def test_screen_passes_a_trivial_violation_under_a_loose_bound(checked):
    check = _check(555.71, 0.99, 1.94e14, 0.98)
    M = np.zeros(1000, dtype=np.int64)
    M[-1] = 10**9  # |M|/x = 1e6 at x = 1000, far below the bound
    check.window(1, M, np.full(1000, 0.5))
    M = np.zeros(1000, dtype=np.int64)
    M[0] = WINDOW + 2
    check.window(WINDOW + 1, M, np.zeros(1000))
    assert checked == [1, WINDOW + 1]
    assert (check.violations, check.first_violation) == (2, 1000)


def test_exact_screen_and_pointwise_check_follow_the_carry_screen(checked):
    """The carry bound |M| <= |M(lo-1)| + #{mu(n) != 0} is looser than the
    window's exact maxima: of two windows it cannot clear, the exact screen
    clears one and sends the other to the pointwise check."""
    check = _check(1.0, 0.5, 100.0, 0.01)
    check.window(1, np.array([1]), np.array([0.5]))  # ratios 1/101, 0.5/204
    alternating = np.resize(np.array([1, -1], dtype=np.int8), 1000)  # |M| <= 1
    rising = np.ones(1000, dtype=np.int8)                             # M to 1000
    for lo, mu in ((WINDOW + 1, alternating), (2 * WINDOW + 1, rising)):
        assert not check.carries_clear(lo, len(mu), 0, 0.0, len(mu))
        x = np.arange(lo, lo + len(mu), dtype=np.float64)
        check.window(lo, np.cumsum(mu, dtype=np.int64), np.cumsum(mu / x))
    assert checked == [1, 2 * WINDOW + 1]
    assert check.violations == 0
    assert check.max_ratio_M == pytest.approx(
        1000.0 / check.bound_M(2 * WINDOW + 1000.0), rel=REL)


def test_m_verdict_charges_the_rounding_bound():
    check = _check(1.0, 0.5, 0.0, 0.5)  # |m(x)| <= 3 x^(-1/2)
    check.window(1, np.array([0]), np.array([3.0 - m_rounding_bound(1) / 2]))
    assert (check.violations, check.first_violation) == (1, 1)
    assert check.max_ratio_m < 1.0


def _unscreened_report(mu, A, a, B, b):
    """Every x checked pointwise on whole-range prefix sums."""
    x = np.arange(1, len(mu), dtype=np.float64)
    M = np.cumsum(mu[1:])
    m = np.cumsum(mu[1:] / x)
    A_m, B_m = derive_m_bound(A, a, B, b)
    window_errs = [m_rounding_bound(k * WINDOW + 1)
                   for k in range((len(x) - 1) // WINDOW + 1)]
    err = np.repeat(window_errs, WINDOW)[:len(x)]
    bound_M = A * x ** a + B * x ** b
    bound_m = A_m * x ** (a - 1.0) + B_m * x ** (b - 1.0)
    abs_M = np.abs(M).astype(np.float64)
    abs_m = np.abs(m)
    bad = (abs_M > bound_M) | (abs_m + err > bound_m) | (abs_M > x)
    ratio_M = abs_M / bound_M
    return {
        "violations": int(np.count_nonzero(bad)),
        "first_violation": int(np.argmax(bad)) + 1 if bad.any() else None,
        "max_ratio_M": float(ratio_M.max()),
        "max_ratio_m": float(np.max(abs_m / bound_m)),
        "max_ratio_trivial": float(np.max(abs_M / x)),
        "argmax_M": int(np.argmax(ratio_M)) + 1,
        "bad_windows": sorted(set(((np.flatnonzero(bad)) // WINDOW).tolist())),
    }


# The published bound clears the screen after the head.  The two loose
# bounds are violated in the three full windows, not in the last 5 points
# (|M| <= 39 there); (1, 0.3, 0, 0.3) peaks in |M| / bound past the head.
# (1, 0.5, 100, 0.01) holds everywhere, and both its ratios peak at
# x = 1793918, so the last window passes the screen on the running maxima.
# |M(x)| <= sqrt x holds with ratios 1, 1/3 and 1, all at x = 1: the
# carries cannot clear windows 2 and 3, but their exact maxima can.
# bad_windows lists the violating windows and peak_window holds the
# largest |M| / bound, both counted from 0.
@pytest.mark.parametrize("bound,pointwise_windows,bad_windows,peak_window", [
    ((555.71, 0.99, 1.94e14, 0.98), [1], [], 0),
    ((0.1, 0.5, 0.0, 0.5), [1, WINDOW + 1, 2 * WINDOW + 1], [0, 1, 2], 0),
    ((1.0, 0.3, 0.0, 0.3), [1, WINDOW + 1, 2 * WINDOW + 1], [0, 1, 2], 1),
    ((1.0, 0.5, 100.0, 0.01), [1, WINDOW + 1, 2 * WINDOW + 1], [], 1),
    ((1.0, 0.5, 0.0, 0.5), [1], [], 0),
], ids=[f"bound{i}-pointwise_windows{i}" for i in range(5)])  # stable ids
def test_streamed_check_matches_unscreened_oracle(mu_windows, checked, bound,
                                                  pointwise_windows,
                                                  bad_windows, peak_window):
    rep = verify_bound_on_range(sieve_mobius(N_WINDOWS), *bound)
    want = _unscreened_report(mu_windows, *bound)
    assert checked == pointwise_windows
    for key in ("violations", "first_violation", "max_ratio_M",
                "max_ratio_trivial"):
        assert rep[key] == want[key], key
    # the two m sums round apart by at most E each
    A_m, B_m = derive_m_bound(*bound)
    bound_m_end = A_m * N_WINDOWS ** (bound[1] - 1.0) + B_m * N_WINDOWS ** (bound[3] - 1.0)
    assert abs(rep["max_ratio_m"] - want["max_ratio_m"]) <= (
        2.0 * m_rounding_bound(N_WINDOWS) / bound_m_end)
    assert want["bad_windows"] == bad_windows
    assert (want["argmax_M"] - 1) // WINDOW == peak_window


def test_m_rounding_bound_covers_window_ends(mu_windows, carry_screens,
                                             exact_screens):
    terms = (mu_windows[1:] / np.arange(1, N_WINDOWS + 1, dtype=np.float64)).tolist()
    M = np.cumsum(mu_windows)
    verify_bound_on_range(sieve_mobius(N_WINDOWS), *EVERY_WINDOW_EXACT)
    ends = [(lo + len(M_window) - 1, m_end)
            for lo, M_window, m_end in exact_screens]
    assert [x for x, _ in ends] == [WINDOW, 2 * WINDOW, 3 * WINDOW, N_WINDOWS]
    carry_screens.clear()  # that run offered its windows to the screen too
    # the published bound clears windows 3 and 4 from their carries; the
    # carry window 3 hands on is a pairwise sum, not a running sum
    verify_bound_on_range(sieve_mobius(N_WINDOWS), 555.71, 0.99, 1.94e14, 0.98)
    assert [(lo, cleared) for lo, _, _, cleared in carry_screens] == [
        (WINDOW + 1, False), (2 * WINDOW + 1, True), (3 * WINDOW + 1, True)]
    handed = [(lo - 1, M_carry, m_carry)
              for (_, _, _, cleared), (lo, M_carry, m_carry, _)
              in zip(carry_screens, carry_screens[1:]) if cleared]
    assert [x for x, _, _ in handed] == [3 * WINDOW]
    for x, M_carry, got in handed:
        assert M_carry == M[x]
        ends.append((x, got))
    for x, got in ends:
        exact = math.fsum(terms[:x])
        # each float term lies within 2^-53/n of mu(n)/n
        term_rounding = 2.0 ** -53 * (1.0 + math.log(x))
        assert abs(got - exact) + term_rounding <= m_rounding_bound(x)


def test_streamed_windows_match_the_unsegmented_sieve(mu_windows,
                                                     exact_screens):
    for lo, mu, terms in mobius_windows(N_WINDOWS):
        hi = lo + len(mu)
        assert np.array_equal(mu, mu_windows[lo:hi])
        assert np.array_equal(terms, mu / np.arange(lo, hi, dtype=np.float64))
    # the M that verify_bound_on_range streams, window by window
    verify_bound_on_range(sieve_mobius(N_WINDOWS), *EVERY_WINDOW_EXACT)
    M = np.cumsum(mu_windows)
    assert [lo for lo, _, _ in exact_screens] == [
        1, WINDOW + 1, 2 * WINDOW + 1, 3 * WINDOW + 1]
    for lo, M_window, _ in exact_screens:
        assert np.array_equal(M_window, M[lo:lo + len(M_window)])


def test_top_window_matches_sympy():
    """The last window below SIEVE_LIMIT, where the int32 products are largest
    and the presieved pattern starts at a far offset."""
    sympy = pytest.importorskip("sympy")
    lo = 190 * WINDOW + 1
    (got_lo, mu, _), = mobius_windows(mertens.SIEVE_LIMIT, lo)
    assert got_lo == lo and lo + len(mu) - 1 == mertens.SIEVE_LIMIT
    rng = np.random.default_rng(20)
    top = np.arange(mertens.SIEVE_LIMIT - 999, mertens.SIEVE_LIMIT + 1)
    sample = rng.integers(lo, mertens.SIEVE_LIMIT, 2000)
    for n in np.concatenate((top, sample)).tolist():
        assert int(mu[n - lo]) == int(sympy.mobius(n)), n


def test_table_stores_only_the_head():
    table = sieve_mobius(N_WINDOWS)
    assert table.head == WINDOW
    assert len(table.mu) == len(table.M_prefix) == len(table.m_prefix) == WINDOW + 1
    with pytest.raises(DomainError, match="beyond the stored head"):
        table.M(WINDOW + 1)
    with pytest.raises(DomainError):
        table.m(WINDOW + 1)
