"""Tests for the Euler-Maclaurin zeta engine.

Reference values were computed with an independent arbitrary-precision
evaluator at 35 significant digits and frozen here.  Every comparison
also asserts bound honesty: the true error must not exceed the reported
abs_error_bound.
"""

import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import nearone.zeta as zeta_engine
from nearone.defaults import ZETA_ABS_TOL
from nearone.errors import ConvergenceError, DomainError
from nearone.zeta import (
    EvaluatedValue,
    inv_abs_zeta_many,
    main_sum_terms,
    zeta,
    zeta_points,
    zeta_with_prime,
)

ZETA_2 = 1.64493406684822643647241516665
ZETA_098 = -49.4242425873268097535697722716
ZETA_098_100 = complex(1.65492043775052539032652930189,
                       -0.0675360318176235897873746369655)
ZETA_098_25_ABS = 0.481006042240820110282036144361
ZETA_04_75 = complex(1.1324314603068714379918789465,
                     0.415209058461108458365578556494)
ZETA_15_1000 = complex(0.975794674430821741613388903164,
                       -0.112142707051379374587220441014)
ZETA_098_11520 = complex(0.825045951653820870823321697996,
                         0.689058157476348246070744483495)
ZP_2 = -0.937548254315843753702574094568
ZP_09_300 = complex(-1.04930574271387571056214507233,
                    -0.103094842242076258829578590387)
ZP_11_25000 = complex(-0.937063246576872086776511618011,
                      -0.678113936460048767651813685843)
ZP_098_500 = complex(0.839839408105791455299991342242,
                     0.879966372701537195503427474901)
FIRST_ZERO_T = 14.1347251417346937904572519836
INV_098_0 = 1.0 / 49.4242425873268097535697722716

ZETA_CASES = [
    (2.0, 0.0, 1e-10, ZETA_2),
    (0.98, 0.0, 1e-10, ZETA_098),
    (0.98, 100.0, 1e-10, ZETA_098_100),
    (0.4, 7.5, 1e-10, ZETA_04_75),
    (1.5, 1000.25, 1e-9, ZETA_15_1000),
    (0.98, 11520.0, 1e-8, ZETA_098_11520),
    (0.98, -100.0, 1e-10, ZETA_098_100.conjugate()),
]

ZP_CASES = [
    (2.0, 0.0, 1e-8, ZP_2),
    (0.9, 300.5, 1e-8, ZP_09_300),
    (1.1, 25000.5, 1e-6, ZP_11_25000),
    (0.98, 500.0, 1e-8, ZP_098_500),
    (0.98, -500.0, 1e-8, ZP_098_500.conjugate()),
]


def test_zeta_two_matches_pi_squared_over_six():
    ev = zeta(2.0 + 0.0j, abs_tol=1e-10)
    assert abs(ev.value - math.pi ** 2 / 6) < 1e-10
    assert abs(ev.value - math.pi ** 2 / 6) <= ev.abs_error_bound


@pytest.mark.parametrize("sigma,t,tol,ref", ZETA_CASES)
def test_zeta_spot_values(sigma, t, tol, ref):
    ev = zeta(complex(sigma, t), abs_tol=tol)
    err = abs(ev.value - ref)
    assert err <= ev.abs_error_bound
    assert ev.abs_error_bound <= tol
    assert ev.terms_used == main_sum_terms(sigma, sigma, abs(t), False)


@pytest.mark.parametrize("sigma,t,tol,ref", ZP_CASES)
def test_zeta_prime_spot_values(sigma, t, tol, ref):
    _, ev = zeta_with_prime(complex(sigma, t), abs_tol=tol)
    err = abs(ev.value - ref)
    assert err <= ev.abs_error_bound
    assert ev.abs_error_bound <= tol


def test_first_zero_ordinate():
    ev = zeta(complex(0.5, FIRST_ZERO_T), abs_tol=1e-8)
    assert abs(ev.value) < 1e-6


def test_zeta_prime_central_difference():
    s = complex(0.98, 500.0)
    h = 1e-5
    hi = zeta(s + h, abs_tol=1e-10).value
    lo = zeta(s - h, abs_tol=1e-10).value
    central = (hi - lo) / (2 * h)
    _, ev = zeta_with_prime(s, abs_tol=1e-8)
    assert abs(ev.value - central) < 1e-6


def test_zeta_with_prime_consistent_with_separate_calls():
    s = complex(0.9, 300.5)
    ev_v, ev_p = zeta_with_prime(s, abs_tol=1e-8)
    # the value may carry extra correction terms; agree within bounds
    ev = zeta(s, abs_tol=1e-8)
    assert abs(ev_v.value - ev.value) <= ev_v.abs_error_bound + ev.abs_error_bound
    assert ev_v.terms_used == ev_p.terms_used


def test_conjugate_symmetry():
    rng = np.random.default_rng(20260814)
    for _ in range(12):
        sigma = float(rng.uniform(0.6, 2.5))
        t = float(rng.uniform(0.5, 2000.0))
        if abs(complex(sigma, t) - 1.0) < 2e-3:
            continue
        tol = 1e-9
        up = zeta(complex(sigma, t), abs_tol=tol)
        down = zeta(complex(sigma, -t), abs_tol=tol)
        assert abs(down.value - up.value.conjugate()) <= 2 * tol
        _, pu = zeta_with_prime(complex(sigma, t), abs_tol=1e-7)
        _, pd = zeta_with_prime(complex(sigma, -t), abs_tol=1e-7)
        assert pd.value == pu.value.conjugate()


def test_dirichlet_series_agreement_at_sigma_25():
    sigma, t = 2.5, 3.75
    M = 1_000_000
    n = np.arange(1, M + 1, dtype=np.float64)
    partial = np.sum(n ** (-sigma) * np.exp(-1j * t * np.log(n)))
    tail = M ** (1.0 - sigma) / (sigma - 1.0)
    ev = zeta(complex(sigma, t), abs_tol=1e-10)
    assert abs(ev.value - partial) <= ev.abs_error_bound + tail


def test_run_to_run_determinism():
    s = complex(0.77, 4321.25)
    a = zeta(s, abs_tol=1e-8)
    b = zeta(s, abs_tol=1e-8)
    assert a.value == b.value
    assert a.abs_error_bound == b.abs_error_bound
    assert a.terms_used == b.terms_used


def test_domain_rejections():
    with pytest.raises(DomainError):
        zeta(complex(0.39, 5.0))
    with pytest.raises(DomainError):
        zeta(complex(3.01, 5.0))
    with pytest.raises(DomainError):
        zeta(complex(1.5, 1.1e5))
    with pytest.raises(DomainError):
        zeta(complex(1.0, 5e-4))
    with pytest.raises(DomainError):
        zeta(complex(0.9995, 0.0))
    with pytest.raises(DomainError):
        zeta(2.0 + 0.0j, abs_tol=5e-14)
    with pytest.raises(DomainError, match="non-finite"):
        zeta(complex(math.nan, 0.0))


def test_zeta_prime_requires_boundary_margin():
    with pytest.raises(DomainError):
        zeta_with_prime(complex(0.4005, 5.0))
    with pytest.raises(DomainError):
        zeta_with_prime(complex(3.0, 5.0))
    zeta(complex(3.0, 5.0))  # plain zeta accepts the closed edge


def test_tolerance_unreachable_at_large_height():
    with pytest.raises(ConvergenceError, match="tolerance unreachable"):
        zeta(complex(0.98, 11520.0), abs_tol=1e-12)


def _inv_abs_zeta(sigma0, t):
    """1/|zeta(sigma0 + it)| from a batch of one height."""
    return float(inv_abs_zeta_many(sigma0, [t])[0])


def test_inv_abs_zeta_against_oracle():
    got = _inv_abs_zeta(0.98, 0.0)
    assert abs(got - INV_098_0) / INV_098_0 <= 1e-8
    got25 = _inv_abs_zeta(0.98, 25.0)
    assert abs(got25 - 1.0 / ZETA_098_25_ABS) * ZETA_098_25_ABS <= 1e-8
    assert _inv_abs_zeta(0.98, -25.0) == _inv_abs_zeta(0.98, 25.0)


def test_inv_abs_zeta_rejects_sigma0_outside_range():
    with pytest.raises(DomainError):
        _inv_abs_zeta(0.89, 10.0)
    with pytest.raises(DomainError):
        _inv_abs_zeta(1.0, 10.0)


def test_inv_abs_zeta_many_matches_scalar():
    ts = np.array([0.0, 25.0, 100.0])
    batch = inv_abs_zeta_many(0.98, ts)
    singles = np.array([_inv_abs_zeta(0.98, float(t)) for t in ts])
    assert np.allclose(batch, singles, rtol=3e-8, atol=0.0)


def test_shared_sigma_batch_within_bounds_of_scalar():
    ts = np.array([10.0, 250.5, 993.25])
    vals, bounds, none, none_p, terms = zeta_points(0.9, ts, abs_tol=1e-9)
    assert none is None and none_p is None
    assert terms == main_sum_terms(0.9, 0.9, ts.max(), False)
    for v, b, t in zip(vals, bounds, ts):
        ev = zeta(complex(0.9, float(t)), abs_tol=1e-9)
        assert abs(v - ev.value) <= b + ev.abs_error_bound
    with pytest.raises(DomainError):
        zeta_points(0.9, np.array([[1.0, 2.0]]))


def test_evaluated_value_invariants():
    with pytest.raises(DomainError):
        EvaluatedValue(1.0 + 0.0j, -1e-12, 20)
    with pytest.raises(DomainError):
        EvaluatedValue(1.0 + 0.0j, math.inf, 20)
    with pytest.raises(DomainError):
        EvaluatedValue(1.0 + 0.0j, 0.0, 0)


def test_bound_honesty_random_sample():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(73)
    checked = 0
    while checked < 25:
        sigma = round(float(rng.uniform(0.45, 2.8)), 4)
        t = round(float(rng.uniform(0.0, 5000.0)), 4)
        if abs(complex(sigma, t) - 1.0) < 2e-3:
            continue
        ev = zeta(complex(sigma, t), abs_tol=1e-8)
        ref = complex(mp.zeta(mp.mpc(repr(sigma), repr(t))))
        assert abs(ev.value - ref) <= ev.abs_error_bound
        checked += 1


@pytest.mark.parametrize("fn, sigma", [(zeta_points, 0.9), (inv_abs_zeta_many, 0.98)])
def test_batch_rejects_last_height_above_t_max_and_nan(fn, sigma):
    from nearone.zeta import T_MAX
    with pytest.raises(DomainError, match=repr(T_MAX + 1.0)) as info:
        fn(sigma, [9.0e4, 9.5e4, T_MAX + 1.0])
    assert info.value.index == 2
    with pytest.raises(DomainError, match="t=nan") as info:
        fn(sigma, [10.0, math.nan, 20.0])
    assert info.value.index == 1


def test_batch_rejects_point_near_pole_in_the_middle():
    with pytest.raises(DomainError, match="pole") as info:
        zeta_points(1.0, [5.0, -5e-4, 3.0])
    assert info.value.index == 1


_BITS_SCRIPT = """
import numpy as np
from nearone.zeta import inv_abs_zeta_many, zeta, zeta_with_prime
out = []
for t in (10234.5, 17000.25, 29876.5):
    out.append(zeta(complex(0.98, t), abs_tol=1e-6).value)
    out.extend(v.value for v in zeta_with_prime(complex(0.75, t), abs_tol=1e-6))
out.extend(inv_abs_zeta_many(0.98, np.linspace(11514.0, 11516.0, 9)))
for v in out:
    print(complex(v).real.hex(), complex(v).imag.hex())
"""


def test_bits_do_not_depend_on_blas_threads():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nearone
    src = str(Path(nearone.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _BITS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True)
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 18
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("sigma, t", [(0.98, 11515.3), (0.72, 29876.5),
                                      (1.02, 10234.5), (0.75, 20000.25)])
def test_against_mpmath_at_heights_in_use(sigma, t):
    mp = pytest.importorskip("mpmath")
    value, prime = zeta_with_prime(complex(sigma, t), abs_tol=1e-6)
    with mp.workdps(30):
        s = mp.mpc(repr(sigma), repr(t))
        refs = complex(mp.zeta(s)), complex(mp.zeta(s, derivative=1))
    for ev, ref in zip((value, prime), refs):
        assert abs(ev.value - ref) <= ev.abs_error_bound <= 1e-6


def _numpy_pairwise(a):
    """NumPy's pairwise sum of interleaved (re, im) scalars, as its C loop
    does it: 8 accumulators over leaves of at most 128 scalars, else halve."""
    n = len(a)
    if n < 8:
        re = im = 0.0
        for i in range(0, n, 2):
            re += a[i]
            im += a[i + 1]
        return re, im
    if n <= 128:
        r = list(a[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += a[i + j]
            i += 8
        re, im = (r[0] + r[2]) + (r[4] + r[6]), (r[1] + r[3]) + (r[5] + r[7])
        for i in range(i, n, 2):
            re += a[i]
            im += a[i + 1]
        return re, im
    half = n // 2 - (n // 2) % 8
    (re1, im1), (re2, im2) = _numpy_pairwise(a[:half]), _numpy_pairwise(a[half:])
    return re1 + re2, im1 + im2


@functools.lru_cache(maxsize=None)
def _pairwise_depth(n):
    """Most roundings any scalar passes through in that sum of n scalars."""
    if n <= 128:
        return n // 8 + 1 + (n % 8) // 2
    half = n // 2 - (n // 2) % 8
    return 1 + max(_pairwise_depth(half), _pairwise_depth(n - half))


def test_rounding_model_matches_numpy_row_sum():
    # the zeta docstring charges log2 N + 14 roundings for the main sum's
    # additions and log2 N + 4 for the n^(-sigma)-weighted mean of
    # 3 sigma log n, both in units of eps/2, for N <= 2^20
    rng = np.random.default_rng(5)
    rows = np.exp(rng.uniform(-3.0, 0.0, (2, 12672))
                  + 1j * rng.uniform(0.0, 100.0, (2, 12672)))
    for row, got in zip(rows, rows.sum(axis=1)):
        assert got == complex(*_numpy_pairwise(row.view(np.float64).tolist()))
    for N in list(range(20, 1 << 20, 911)) + [458760]:
        assert _pairwise_depth(2 * (N - 1)) <= math.log2(N) + 14
    for N in (20, 1000, 12673, 880000):
        n = np.arange(1, N, dtype=np.float64)
        for sigma in np.linspace(0.4, 3.0, 27):
            weights = n ** -sigma
            mean = 3.0 * sigma * np.dot(weights, np.log(n)) / weights.sum()
            assert mean <= math.log2(N) + 4


def _assert_factored_terms_within_charge(levels, two_level, seed):
    """Each term of the factored main sum of each batch ts of levels,
    blocks of B points and heads in blocks of B2 (two_level) or one exp
    per head, against mpmath: within the zeta docstring's charge of a
    single exp's 5 units of eps/2 plus 2 _FACTORED_SLACK per factored
    level (one exp and one complex product each), 3 sigma log n for the
    rounded real exponent, and the phase 2 eps t log n, all relative to
    n^(-sigma).  A one-element logn makes each main sum one term; at most
    64 points of a batch are checked, its first and last among them."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(seed)
    eps = math.ulp(1.0)
    units = 5 + 2 * zeta_engine._FACTORED_SLACK * (2 if two_level else 1)
    with mp.workdps(30):
        for ts in levels:
            B = zeta_engine._block_size(0.98, ts)
            B2 = zeta_engine._block_size(0.98, ts[::B])
            assert B and bool(B2) == two_level
            picks = np.unique(np.concatenate((
                [0, len(ts) - 1], rng.integers(0, len(ts), 62)))).tolist()
            for n in rng.integers(2, 15021, 12).tolist():
                sigma = float(rng.uniform(0.4, 3.0))
                logn = math.log(n)
                terms, _ = zeta_engine._main_sums(
                    sigma, ts, B, B2 or 1, np.array([logn]), False)
                for i in picks:
                    t = float(ts[i])
                    exact = mp.power(n, -mp.mpc(sigma, t))
                    charge = n ** -sigma * (
                        eps / 2 * (units + 3 * sigma * logn)
                        + 2 * eps * t * logn)
                    assert (abs(mp.mpc(complex(terms[i])) - exact)
                            <= charge), (n, sigma, t)


def test_factored_terms_within_the_per_term_charge():
    # one factored level: each head takes its own exp, so a term is two
    # exps and a complex product; batches of at most 56 points have fewer
    # than 8 heads, which do not factor
    levels = [_romberg_nodes(t - 10.0, 10.0, 32) for t in (100.0, 1e4, 3e4)]
    levels.append(15000.0 + 1000.0 * np.arange(49))    # offsets up to 6000
    _assert_factored_terms_within_charge(levels, False, 11)


def test_two_level_terms_within_the_per_term_charge():
    # two factored levels: a term is the super-head's exp times a coarse
    # offset's and a fine offset's, three exps and two complex products,
    # charged 5 + 2 * 2 _FACTORED_SLACK units; Romberg levels of 128
    # nodes (heads in blocks of 4) and a level of a run of 50 panels
    # (6400 nodes, heads in blocks of 16)
    levels = [_romberg_nodes(t - 10.0, 10.0, 128) for t in (100.0, 1e4, 3e4)]
    levels.append(_level_of_a_run())
    levels.append(15000.0 + 100.0 * np.arange(64))     # heads in blocks of 3
    _assert_factored_terms_within_charge(levels, True, 13)


def _omega(n):
    """Omega(n), the number of prime factors of n counted with
    multiplicity."""
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count


def test_multiplicative_terms_within_the_per_term_charge():
    # the zeta docstring charges a term of the multiplicative main sum,
    # the product of Omega(n) prime factors' exps, a single exp's 5 units
    # of eps/2 plus 2 _FACTORED_SLACK per factor past the first (one exp
    # and one complex product), 3 sigma log n for the rounded real
    # exponents and the phase 2 eps t log n, all relative to n^(-sigma)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(12)
    eps = math.ulp(1.0)
    N = 12289                               # terms through 2^12 * 3
    logn = np.log(np.arange(1, N, dtype=np.float64))
    sigma = np.concatenate(([0.4, 3.0, 0.98], rng.uniform(0.4, 3.0, 5)))
    ts = np.concatenate(([3e4, 0.0, 11520.0], rng.uniform(0.0, 3e4, 5)))
    cols = np.empty((N - 1, len(ts)), dtype=np.complex128)
    zeta_engine._power_columns(cols, -(sigma + 1j * ts), logn,
                               *zeta_engine._factor_plan(N))
    # where Omega(n) is largest, 2^13, 3^8 and 2^12 * 3, and a random few
    ns = [8192, 6561, 12288, 2, 4, 12281] + rng.integers(2, N, 24).tolist()
    assert max(map(_omega, ns)) == (N - 1).bit_length() - 1 == 13
    with mp.workdps(30):
        for n in ns:
            units = 5 + 2 * zeta_engine._FACTORED_SLACK * (_omega(n) - 1)
            logn_ = math.log(n)
            for s, t, term in zip(sigma.tolist(), ts.tolist(),
                                  cols[n - 1].tolist()):
                exact = mp.power(n, -mp.mpc(s, t))
                charge = n ** -s * (eps / 2 * (units + 3 * s * logn_)
                                    + 2 * eps * t * logn_)
                assert abs(mp.mpc(term) - exact) <= charge, (n, s, t)


def test_truncation_point_never_grows():
    # every point either returns with the N of main_sum_terms or stops at
    # the rounding floor; 20 correction terms are never exhausted
    returned = 0
    for sigma, t, tol in itertools.product(
            (0.401, 0.45, 0.5, 1.2, 2.999),
            (0.0, 5.0, 17.0, 18.0, 18.2, 19.0, 25.0, 26.0, 33.0, 34.0, 40.0,
             60.0, 100.0, 300.0, 1000.0, 3000.0, 1e4),
            (1e-13, 1e-12)):
        for fn in (zeta, zeta_with_prime):
            try:
                result = fn(complex(sigma, t), abs_tol=tol)
            except ConvergenceError as exc:
                assert str(exc).startswith("tolerance unreachable: rounding floor")
                continue
            N = main_sum_terms(sigma, sigma, t, fn is zeta_with_prime)
            for ev in result if isinstance(result, tuple) else (result,):
                assert ev.terms_used == N
            returned += 1
    assert returned > 0


def test_exhausted_correction_terms_name_the_point(monkeypatch):
    monkeypatch.setattr(zeta_engine, "_BFAC", zeta_engine._BFAC[:4])
    with pytest.raises(ConvergenceError, match="correction terms exhausted") as info:
        zeta(complex(0.5, 18.0), abs_tol=1e-12)
    assert "t=18.0" in str(info.value)
    assert "N=20" in str(info.value)


@pytest.mark.parametrize("s, abs_tol", [
    (complex(0.401, 999.99), 1e-9),     # N = 418
    (complex(0.72, 9999.9), 1e-8),      # N = 3731
])
def test_settled_remainder_over_budget_blames_the_rounding_floor(
        monkeypatch, s, abs_tol):
    # after 17 correction terms the remainder has settled below the
    # rounding floor, but the budget leaves less than it above the floor:
    # the floor is named, with the remainder and the budget, not the terms
    monkeypatch.setattr(zeta_engine, "_BFAC", zeta_engine._BFAC[:18])
    with pytest.raises(ConvergenceError) as info:
        zeta_with_prime(s, abs_tol=abs_tol)
    msg = str(info.value)
    assert msg.startswith("tolerance unreachable: rounding floor "), msg
    floor, rem, basis = (float(x) for x in re.findall(r"\d\.\d{3}e[-+]\d+", msg))
    assert rem <= floor < basis < floor + rem
    assert basis == abs_tol
    assert f"t={s.imag!r}" in msg
    assert info.value.index == 0


@pytest.mark.parametrize("ts, B", [
    ([20.0], 1),                                    # multiplicative rows
    ([20.0, 20.5, 21.0], 1),
    (20.0 + 0.125 * np.arange(8), 3),               # factored blocks
    (20.0 + 0.125 * np.arange(64), 8),              # and factored heads
])
def test_unreachable_tolerance_names_the_charged_floor(ts, B):
    # at the first correction term the floor is the module docstring's
    # eps ((log2 N + 28 + extra) M + 2 t log N S1): extra is 4 (Omega_N - 1)
    # with B = 1, 4 per factored level with B > 1; at sigma = 0.4, t = 20
    # its part of the floor is 8% (2.7% with one factored level, 5.2% with
    # two), far above the message's four digits
    sigma = 0.4
    ts = np.asarray(ts)
    assert zeta_engine._block_size(sigma, ts) == (B if B > 1 else 0)
    B2 = zeta_engine._block_size(sigma, ts[::B])    # the 8 heads of 64 points
    assert B2 == (3 if B == 8 else 0)
    N = main_sum_terms(sigma, sigma, float(np.max(ts)), False)
    with pytest.raises(ConvergenceError) as info:
        zeta_points(sigma, ts, abs_tol=1e-13)
    assert info.value.index == 0
    floor = float(re.findall(r"\d\.\d{3}e[-+]\d+", str(info.value))[0])
    t = float(ts[0])
    extra = 4 * ((N - 1).bit_length() - 2) if B == 1 else 4 * (1 + (B2 > 1))
    S1 = zeta_engine._power_sum_bound(N, sigma)
    M = S1 + N ** (1 - sigma) / abs(complex(sigma - 1, t)) + 0.5 * N ** -sigma
    eps = math.ulp(1.0)
    charged = eps * ((math.log2(N) + 28 + extra) * M + 2 * t * math.log(N) * S1)
    assert floor == pytest.approx(charged, rel=1e-3, abs=0.0)


def test_two_correction_terms_to_spare(monkeypatch):
    # the truncation sweep still returns or stops at the rounding floor
    # when the engine may add at most 17 correction terms instead of 20
    monkeypatch.setattr(zeta_engine, "_BFAC", zeta_engine._BFAC[:18])
    test_truncation_point_never_grows()


@pytest.mark.parametrize("sigma", [0.401, 0.72, 0.98, 1.5, 2.999])
def test_main_sum_terms_stays_below_its_bracket(sigma):
    # the bisection over [20, 20 + ceil(t / 2)] never needs the top: the
    # rule is met below it at every height, so the bracket caps nothing
    ts = np.concatenate([np.arange(0.0, 100.0, 0.5),
                         np.linspace(100.0, 99999.5, 800)])
    for t, want_prime in itertools.product(ts.tolist(), (False, True)):
        N = main_sum_terms(sigma, sigma, t, want_prime)
        assert N == 20 or N < 20 + math.ceil(t / 2), (t, want_prime, N)


def test_main_sum_terms_pinned_at_sigma_098():
    assert [main_sum_terms(0.98, 0.98, t, False)
            for t in (1e4, 11520.0, 3e4)] == [3148, 3609, 9118]
    assert [main_sum_terms(0.98, 0.98, t, True)
            for t in (1e4, 11520.0, 3e4)] == [3641, 4173, 10503]


@pytest.mark.parametrize("sigma", [0.401, 0.72, 0.98, 1.5, 2.999])
def test_main_sum_terms_over_the_strip(sigma):
    # N stays inside its bracket, depends on sigma, t and the zeta' track
    # only, and leaves the correction terms enough room: every tolerance
    # either returns or stops at the rounding floor
    returned = 0
    for t in (0.0, 18.2, 34.0, 100.0, 1e3, 1e4, 3e4, 99999.5):
        for fn in (zeta, zeta_with_prime):
            N = main_sum_terms(sigma, sigma, t, fn is zeta_with_prime)
            assert 20 <= N <= 20 + math.ceil(t / 2)
            for tol in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
                try:
                    result = fn(complex(sigma, t), abs_tol=tol)
                except ConvergenceError as exc:
                    assert str(exc).startswith(
                        "tolerance unreachable: rounding floor"), exc
                    continue
                for ev in result if isinstance(result, tuple) else (result,):
                    assert ev.terms_used == N
                returned += 1
    assert returned > 0


def test_bernoulli_recurrence_leading_values():
    B = zeta_engine._bernoulli(12)
    assert (B[2], B[4], B[12]) == (Fraction(1, 6), Fraction(-1, 30),
                                   Fraction(-691, 2730))


def test_bfac_matches_mpmath_bernoulli():
    # B_{2k}/(2k)! from an independent evaluator, correctly rounded once
    mp = pytest.importorskip("mpmath")
    assert len(zeta_engine._BFAC) == 21
    with mp.workprec(300):
        for k, b in enumerate(zeta_engine._BFAC, start=1):
            assert b == float(mp.bernoulli(2 * k) / mp.factorial(2 * k)), k


@pytest.mark.parametrize("sigma, t", [(0.98, 11515.3), (0.72, 29876.5),
                                      (1.02, 10234.5), (0.75, 20000.25)])
def test_bounds_do_not_depend_on_a_reachable_tolerance(sigma, t):
    # correction terms are added until the remainder reaches the rounding
    # floor, so abs_tol only decides whether the result is accepted
    loose = zeta_with_prime(complex(sigma, t), abs_tol=1e-6)
    tight = zeta_with_prime(complex(sigma, t), abs_tol=1e-7)
    assert loose == tight


def test_default_tolerance_is_reachable_up_to_t_3e4():
    # the old default 1e-10 failed here: floors 3.9e-10 and 1.5e-9
    for t in (1e4, 3e4):
        ev = zeta(complex(0.98, t))
        assert ev.abs_error_bound <= ZETA_ABS_TOL
        assert all(e.abs_error_bound <= ZETA_ABS_TOL
                   for e in zeta_with_prime(complex(0.98, t)))
    # every sigma of the strip, zeta' at its margin, up to t = 3e4
    for t in (0.5, 33.0, 1e3, 1e4, 2e4, 3e4):
        for sigma in (0.4, 0.9, 1.5, 3.0):
            zeta(complex(sigma, t))
        for sigma in (0.401, 0.9, 1.5, 2.999):
            zeta_with_prime(complex(sigma, t))


@pytest.mark.parametrize("fn", [zeta, zeta_with_prime])
def test_default_tolerance_keeps_the_bits_the_old_default_accepted(fn):
    # the engine stops at the first settled correction term that fits the
    # budget, so where the default's bounds fit within the old default
    # 1e-10 that call returns the same bits; where they do not, the old
    # call added terms past the settled one and agrees within both bounds
    same = 0
    for sigma in (0.401, 0.7, 0.98, 1.3, 2.0, 2.799):
        for t in (0.5, 20.0, 300.0, 2496.6, 1e4, 14439.1, 3e4):
            new = fn(complex(sigma, t))
            new = new if isinstance(new, tuple) else (new,)
            try:
                old = fn(complex(sigma, t), abs_tol=1e-10)
            except ConvergenceError:
                assert any(e.abs_error_bound > 1e-10 for e in new)
                continue
            old = old if isinstance(old, tuple) else (old,)
            if all(e.abs_error_bound <= 1e-10 for e in new):
                assert old == new
                same += 1
            else:
                for o, n in zip(old, new):
                    assert abs(o.value - n.value) <= (o.abs_error_bound
                                                      + n.abs_error_bound)
    assert same >= 15


@pytest.mark.parametrize("sigma", [0.45, 1.2, 2.9])
@pytest.mark.parametrize("t", [34.0, 60.0, 350.0, 2000.0])
def test_against_mpmath_at_tightest_reachable_tolerance(sigma, t):
    mp = pytest.importorskip("mpmath")
    for tol in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        try:
            value, prime = zeta_with_prime(complex(sigma, t), abs_tol=tol)
        except ConvergenceError as exc:
            assert str(exc).startswith("tolerance unreachable: rounding floor")
            continue
        break
    else:
        pytest.fail(f"no tolerance up to 1e-6 reachable at sigma={sigma}, t={t}")
    with mp.workdps(30):
        s = mp.mpc(repr(sigma), repr(t))
        refs = complex(mp.zeta(s)), complex(mp.zeta(s, derivative=1))
    for ev, ref in zip((value, prime), refs):
        assert ev.terms_used == main_sum_terms(sigma, sigma, t, True)
        assert abs(ev.value - ref) <= ev.abs_error_bound <= tol


# (sigma, t) from both verifier strips: |log zeta| (sigma in [0.72, 1.23]
# near t = 1e4) and |zeta'/zeta| (sigma in [0.95, 1.15]), heights close
# enough to share one truncation point as a verifier chunk does
STRIP_POINTS = [(0.73, 10234.5), (1.22, 10500.25), (0.96, 11000.75),
                (1.14, 11515.3), (1.0, -11800.5)]


def test_per_point_sigma_batch_matches_scalar_calls():
    sigmas, ts = zip(*STRIP_POINTS)
    values, bounds, primes, bounds_p, N = zeta_engine.zeta_points(
        sigmas, ts, abs_tol=1e-6, with_prime=True)
    assert N == main_sum_terms(min(sigmas), max(sigmas), max(map(abs, ts)),
                               True)
    for i, (sigma, t) in enumerate(STRIP_POINTS):
        value, prime = zeta_with_prime(complex(sigma, t), abs_tol=1e-6)
        assert abs(values[i] - value.value) <= bounds[i] + value.abs_error_bound
        assert abs(primes[i] - prime.value) <= bounds_p[i] + prime.abs_error_bound
    only_values, only_bounds, none, none_p, _ = zeta_engine.zeta_points(
        sigmas, ts, abs_tol=1e-6)
    assert none is None and none_p is None
    assert np.all(np.abs(only_values - values) <= only_bounds + bounds)


def test_per_point_sigma_batch_against_mpmath():
    mp = pytest.importorskip("mpmath")
    sigmas, ts = zip(*STRIP_POINTS)
    values, bounds, primes, bounds_p, _ = zeta_engine.zeta_points(
        sigmas, ts, abs_tol=1e-6, with_prime=True)
    with mp.workdps(30):
        for i, (sigma, t) in enumerate(STRIP_POINTS):
            s = mp.mpc(repr(sigma), repr(t))
            assert abs(values[i] - complex(mp.zeta(s))) <= bounds[i] <= 1e-6
            assert (abs(primes[i] - complex(mp.zeta(s, derivative=1)))
                    <= bounds_p[i] <= 1e-6)


def test_per_point_sigma_batch_of_one_sigma_matches_shared_sigma():
    ts = np.linspace(11514.0, 11516.0, 9)
    # a sequence of equal sigmas is passed on as the shared sigma
    per_point = zeta_engine.zeta_points(np.full(9, 0.98), ts, abs_tol=1e-6)
    shared = zeta_engine.zeta_points(0.98, ts, abs_tol=1e-6)
    assert np.allclose(per_point[0], shared[0], rtol=0.0, atol=1e-12)
    assert np.all(per_point[1] <= shared[1] * (1 + 1e-12))
    for got, ref in zip(per_point[:2], shared[:2]):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("sigma, t", [(2.0, 0.0), (0.98, -100.0),
                                      (0.45, 34.0), (1.14, 11515.3)])
def test_scalar_calls_equal_a_batch_of_one(sigma, t):
    # zeta and zeta_with_prime are the float-sigma batch of one, bit for bit
    values, bounds, primes, bounds_p, N = zeta_points(sigma, [t], abs_tol=1e-6,
                                                      with_prime=True)
    value, prime = zeta_with_prime(complex(sigma, t), abs_tol=1e-6)
    assert value == EvaluatedValue(complex(values[0]), float(bounds[0]), N)
    assert prime == EvaluatedValue(complex(primes[0]), float(bounds_p[0]), N)
    values, bounds, _, _, N = zeta_points(sigma, [t], abs_tol=1e-6)
    assert zeta(complex(sigma, t), abs_tol=1e-6) == EvaluatedValue(
        complex(values[0]), float(bounds[0]), N)


def test_per_point_batch_names_the_failing_point():
    with pytest.raises(DomainError, match="sigma=0.3") as exc:
        zeta_engine.zeta_points([0.8, 0.3, 0.8], [1e4, 1.0001e4, 1.2e4])
    assert exc.value.index == 1
    with pytest.raises(ConvergenceError, match="t=12000.0") as exc:
        zeta_engine.zeta_points([0.8, 0.8, 0.8], [1e4, 1.0001e4, 1.2e4],
                                abs_tol=9.0e-10)
    assert exc.value.index == 2
    with pytest.raises(DomainError):
        zeta_engine.zeta_points([0.8, 0.8], [1e4])


def _romberg_nodes(a, width, K):
    """The K new nodes a + h (1, 3, ..., 2K - 1), h = width / 2K, of one
    Romberg level on [a, a + width]."""
    return a + width / (2 * K) * np.arange(1, 2 * K, 2, dtype=np.float64)


def _direct_path(monkeypatch, *args):
    """_evaluate(*args) with _block_size stubbed to 0, so every block of
    the main sum is one point."""
    with monkeypatch.context() as m:
        m.setattr(zeta_engine, "_block_size", lambda sigma, ts: 0)
        return zeta_engine._evaluate(*args)


def _main_sum_calls(monkeypatch, *args):
    """_evaluate(*args) and, per call of _main_sums, the points, the block
    sizes B and B2 and the two main sums it returned."""
    calls = []
    plain = zeta_engine._main_sums

    def spy(sigma, ts, B, B2, logn, want_prime):
        main, main_p = plain(sigma, ts, B, B2, logn, want_prime)
        calls.append((len(ts), B, B2, main, main_p))
        return main, main_p

    with monkeypatch.context() as m:
        m.setattr(zeta_engine, "_main_sums", spy)
        return zeta_engine._evaluate(*args), calls


def _assert_factored_matches(monkeypatch, sigma, ts, want_prime, blocks,
                             mp_points):
    """(sigma, ts) goes through the main sum in one call with blocks of
    the given sizes (B, B2), and agrees with blocks of one point within
    both bounds, and with mpmath at mp_points."""
    mp = pytest.importorskip("mpmath")
    args = (sigma, ts, 1e-6, 0.0, want_prime)
    got, calls = _main_sum_calls(monkeypatch, *args)
    assert [call[:3] for call in calls] == [(len(ts), *blocks)]
    ref = _direct_path(monkeypatch, *args)
    tracks = [(0, 1), (2, 3)][:2 if want_prime else 1]
    for v, b in tracks:
        assert np.all(np.abs(got[v] - ref[v]) <= got[b] + ref[b])
        assert np.all(got[b] <= 1e-6)
    with mp.workdps(30):
        for i in mp_points:
            s = mp.mpc(repr(sigma), repr(float(ts[i])))
            assert abs(got[0][i] - complex(mp.zeta(s))) <= got[1][i]
            if want_prime:
                assert (abs(got[2][i] - complex(mp.zeta(s, derivative=1)))
                        <= got[3][i])


@pytest.mark.parametrize("t", [100.0, 1e4, 3e4])
def test_factored_batch_matches_direct_path_and_mpmath(monkeypatch, t):
    # 128 nodes in blocks of 12: ten full blocks and a last one of 8;
    # their 11 heads in blocks of 4, the last one of 3
    ts = _romberg_nodes(t - 10.0, 10.0, 128)
    assert zeta_engine._block_size(0.98, ts) == 12
    assert zeta_engine._block_size(0.98, ts[::12]) == 4
    _assert_factored_matches(monkeypatch, 0.98, ts, False, (12, 4),
                             [0, 11, 12, 47, 48, 119, 120, 127])


def test_factored_batch_of_full_blocks(monkeypatch):
    ts = _romberg_nodes(9990.0, 10.0, 64)
    assert zeta_engine._block_size(1.2, ts) == 8
    _assert_factored_matches(monkeypatch, 1.2, ts, False, (8, 3), [7, 63])


def test_factored_level_of_256_nodes(monkeypatch):
    # N = 9118 at t = 3e4, below its bracket's top of 15020; the whole
    # level is one batch in 16 blocks of 16, their heads in blocks of 4
    ts = _romberg_nodes(29990.0, 10.0, 256)
    assert (main_sum_terms(0.98, 0.98, ts[-1], False) == 9118
            < 20 + math.ceil(ts[-1] / 2) == 15020)
    _assert_factored_matches(monkeypatch, 0.98, ts, False, (16, 4),
                             [0, 15, 16, 255])


def _level_of_a_run():
    """The 50 x 128 new nodes of one Romberg level over 50 adjacent panels
    of width 10 from 11020: one progression of step 10/128."""
    a = 11020.0 + 10.0 * np.arange(50)
    return (a[:, None] + 10.0 / 256 * np.arange(1, 256, 2.0)).ravel()


def test_level_of_a_run_of_panels_takes_blocks_of_16(monkeypatch):
    # B stops at 16, and so does B2 for the 400 heads, so the main sum
    # holds at most 50 rows whatever K is
    ts = _level_of_a_run()
    assert np.all(np.diff(ts) == 10.0 / 128)
    assert zeta_engine._block_size(0.98, ts) == 16
    assert zeta_engine._block_size(0.98, ts[::16]) == 16
    _assert_factored_matches(monkeypatch, 0.98, ts, False, (16, 16),
                             [0, 15, 16, 255, 256, 6383, 6384, 6399])


def test_block_size_is_capped_above_256_points():
    # ceil(sqrt K) up to K = 256, so no batch of at most 256 points moves
    ts = 11020.0 + 10.0 / 256 * np.arange(1024.0)
    assert [zeta_engine._block_size(0.98, ts[:K])
            for K in (8, 9, 10, 255, 256, 257, 290, 1024)] == [
                3, 3, 4, 16, 16, 16, 16, 16]


def test_factored_derivative_track(monkeypatch):
    # two factored levels, as for test_factored_batch_matches_direct_path
    ts = _romberg_nodes(9990.0, 10.0, 128)
    _assert_factored_matches(monkeypatch, 0.98, ts, True, (12, 4),
                             [0, 47, 48, 127])


@pytest.mark.parametrize("want_prime", [False, True])
def test_single_level_factored_batch(monkeypatch, want_prime):
    # 48 nodes in blocks of 7 have 7 heads, too few to factor: each head
    # takes its own exp
    ts = _romberg_nodes(9990.0, 12.0, 48)
    assert zeta_engine._block_size(0.98, ts[::7]) == 0
    _assert_factored_matches(monkeypatch, 0.98, ts, want_prime, (7, 1),
                             [0, 6, 7, 47])


NODES = _romberg_nodes(11020.0, 10.0, 128)
# an exact progression from t = 0 whose first point moves off 0 by less
# than half an ulp of the step: every rounded offset is the step's
# multiple, but the first block's true offsets are 2^-60 short of it
FROM_ZERO = 10.0 / 128 * np.arange(128.0)
OFF_ZERO = np.concatenate(([2.0 ** -60], FROM_ZERO[1:]))


def test_block_size_checks_each_offset_is_exact():
    # a progression from 0 factors, although its heads are below half
    # of its heights; one inexact offset makes the whole batch direct
    assert zeta_engine._block_size(0.98, FROM_ZERO) == 12
    assert zeta_engine._block_size(0.98, _romberg_nodes(0.0, 10.0, 128)) == 12
    assert np.all(OFF_ZERO[:12] - OFF_ZERO[0] == FROM_ZERO[:12])
    assert zeta_engine._block_size(0.98, OFF_ZERO) == 0


@pytest.mark.parametrize("sigma, ts", [
    (0.98, NODES[::-1]),                              # descending
    (0.98, -NODES[::-1]),                             # descending once folded
    (0.98, np.linspace(11020.0, 11030.0, 100)),       # step 10/99 is inexact
    (0.98, OFF_ZERO),                                 # one inexact offset
    (0.98, NODES[:7]),                                # fewer than 8 points
    (np.full(128, 0.98), NODES),                      # sigma per point
    (np.linspace(0.95, 1.13, 128), NODES),            # as a verifier chunk
])
def test_direct_path_inputs_keep_their_bits(monkeypatch, sigma, ts):
    # blocks of one point give the main sums of the (points x terms)
    # matrix n^(-s) built in the documented order, bit for bit, with and
    # without the derivative track: exps at the primes, then each
    # composite n as the term at spf(n) times the term at n / spf(n), then
    # numpy's pairwise row sum
    assert zeta_engine._block_size(sigma, ts) == 0
    for want_prime in (False, True):
        N = main_sum_terms(np.min(sigma), np.max(sigma), np.abs(ts).max(),
                           want_prime)
        logn = np.log(np.arange(1, N, dtype=np.float64))
        spf = _smallest_prime_factors(N)
        neg_s = -(sigma + 1j * np.abs(ts))
        terms = np.empty((len(ts), N - 1), dtype=np.complex128)
        terms[:, 0] = 1.0
        for n in range(2, N):
            if spf[n] == n:
                terms[:, n - 1] = np.exp(neg_s * logn[n - 1])
        for n in range(4, N):
            if spf[n] != n:
                terms[:, n - 1] = (terms[:, spf[n] - 1]
                                   * terms[:, n // spf[n] - 1])
        _, calls = _main_sum_calls(monkeypatch, sigma, ts, 1e-6, 0.0,
                                   want_prime)
        [(K, B, B2, main, main_p)] = calls
        assert (K, B, B2) == (len(ts), 1, 1)
        assert main.tobytes() == terms.sum(axis=1).tobytes()
        if want_prime:
            assert main_p.tobytes() == (-(terms * logn).sum(axis=1)).tobytes()
        else:
            assert main_p is None


def _smallest_prime_factors(N):
    """spf[n], the least prime factor of each n in [2, N), by trial
    division."""
    spf = list(range(N))
    for n in range(4, N):
        spf[n] = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0),
                      n)
    return spf


def test_per_point_batch_bits_do_not_depend_on_the_order():
    # 40 points in 5 groups of _ROW_GROUP: permuted, every point lands in
    # another group or row, and keeps its bits on both tracks
    rng = np.random.default_rng(14)
    sigma = rng.uniform(0.95, 1.13, 40)
    ts = rng.uniform(11000.0, 11520.0, 40)
    assert len(ts) > 4 * zeta_engine._ROW_GROUP
    ref = zeta_points(sigma, ts, abs_tol=1e-6, with_prime=True)
    perm = rng.permutation(len(ts))
    got = zeta_points(sigma[perm], ts[perm], abs_tol=1e-6, with_prime=True)
    assert got[4] == ref[4]
    for g, r in zip(got[:4], ref[:4]):
        assert g.tobytes() == r[perm].tobytes()


def test_empty_batch_gives_empty_arrays():
    for sigma in (0.98, []):
        values, bounds, primes, bounds_p, _ = zeta_points(sigma, [],
                                                          with_prime=True)
        assert [len(a) for a in (values, bounds, primes, bounds_p)] == [0] * 4
    assert len(inv_abs_zeta_many(0.98, [])) == 0


def test_factor_plan_matches_trial_division_at_any_size(monkeypatch):
    # the plan's primes and levels follow from N alone, whether it was
    # built for this N or sliced from a larger one, and stay read-only
    N = 3609
    spf = _smallest_prime_factors(N)
    monkeypatch.setattr(zeta_engine, "_plan", None)
    fresh = zeta_engine._factor_plan(N)
    zeta_engine._factor_plan(20000)
    sliced = zeta_engine._factor_plan(N)
    for primes, levels in (fresh, sliced):
        assert (primes + 1).tolist() == [n for n in range(2, N) if spf[n] == n]
        for j, (c, a, b) in enumerate(levels, start=2):
            n = c + 1
            assert np.all((n >= 1 << j) & (n < min(N, 1 << (j + 1))))
            assert (a + 1).tolist() == [spf[m] for m in n.tolist()]
            assert np.all((a + 1) * (b + 1) == n) and np.all(b + 1 < 1 << j)
        assert sum(len(c) for c, _, _ in levels) == N - 2 - len(primes)
    assert not any(index.flags.writeable for index in zeta_engine._plan[1:])


def test_main_sums_hold_one_row_group(monkeypatch):
    # a 64-point batch of blocks of one point builds its terms
    # _ROW_GROUP points at a time, and holds no more than three groups of
    # rows (by term, by row, and one level's gathers), not 64 rows
    tracemalloc = pytest.importorskip("tracemalloc")
    sigma = np.linspace(0.95, 1.13, 64)
    ts = np.linspace(11000.0, 11520.0, 64)
    N = main_sum_terms(0.95, 1.13, 11520.0, True)
    logn = np.log(np.arange(1, N, dtype=np.float64))
    groups = []
    plain = zeta_engine._power_columns

    def spy(cols, neg_s, *args):
        groups.append(cols.shape)
        plain(cols, neg_s, *args)

    with monkeypatch.context() as m:
        m.setattr(zeta_engine, "_power_columns", spy)
        spied = zeta_engine._main_sums(sigma, ts, 1, 1, logn, True)
    assert groups == [(N - 1, zeta_engine._ROW_GROUP)] * 8
    tracemalloc.start()
    try:
        sums = zeta_engine._main_sums(sigma, ts, 1, 1, logn, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * zeta_engine._ROW_GROUP * 16 * (N - 1)
    for a, b in zip(spied, sums):
        assert a.tobytes() == b.tobytes()


def test_factored_main_sums_hold_at_most_50_rows():
    # blocks of 16 and heads in blocks of 16: the fine and coarse offset
    # rows, one block, the super-head's row and the head's, 2 B + B2 + 2 =
    # 50 rows of N terms, for 6400 points as for 256, besides the sums;
    # NumPy's buffer for logn cast to complex is one more row, and the
    # small arrays and Python objects stay below a further one
    tracemalloc = pytest.importorskip("tracemalloc")
    ts = _level_of_a_run()
    N = main_sum_terms(0.98, 0.98, float(ts[-1]), True)
    logn = np.log(np.arange(1, N, dtype=np.float64))
    tracemalloc.start()
    try:
        zeta_engine._main_sums(0.98, ts, 16, 16, logn, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 52 * 16 * (N - 1) + 2 * 16 * len(ts)


@pytest.mark.parametrize("fn", [zeta_points, inv_abs_zeta_many])
def test_nan_in_a_progression_is_a_domain_error(fn):
    ts = NODES.copy()
    ts[40] = math.nan
    assert zeta_engine._block_size(0.98, ts) == 0
    with pytest.raises(DomainError, match="t=nan") as info:
        fn(0.98, ts)
    assert info.value.index == 40
