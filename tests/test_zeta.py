"""Tests for the Euler-Maclaurin zeta engine.

Reference values were computed with an independent arbitrary-precision
evaluator at 35 significant digits and frozen here.  Every comparison
also asserts bound honesty: the true error must not exceed the reported
abs_error_bound.
"""

import functools
import itertools
import math

import numpy as np
import pytest

import nearone.zeta as zeta_engine
from nearone.errors import ConvergenceError, DomainError
from nearone.zeta import (
    ComplexPoint,
    EvaluatedValue,
    inv_abs_zeta,
    inv_abs_zeta_many,
    zeta,
    zeta_many,
    zeta_prime,
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


def _truncation_point(t):
    """The main sum's N for a batch whose largest height is |t|."""
    t = abs(t)
    return max(20, min(math.ceil(1.1 * t), 20 + math.ceil(t / 2)))

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
    ev = zeta(ComplexPoint(sigma, t), abs_tol=tol)
    err = abs(ev.value - ref)
    assert err <= ev.abs_error_bound
    assert ev.abs_error_bound <= tol
    assert ev.terms_used >= _truncation_point(t)


@pytest.mark.parametrize("sigma,t,tol,ref", ZP_CASES)
def test_zeta_prime_spot_values(sigma, t, tol, ref):
    ev = zeta_prime(ComplexPoint(sigma, t), abs_tol=tol)
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
    ev = zeta_prime(s, abs_tol=1e-8)
    assert abs(ev.value - central) < 1e-6


def test_zeta_with_prime_consistent_with_separate_calls():
    s = ComplexPoint(0.9, 300.5)
    ev_v, ev_p = zeta_with_prime(s, abs_tol=1e-8)
    # the prime path shares the exact code path of zeta_prime
    assert ev_p.value == zeta_prime(s, abs_tol=1e-8).value
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
        pu = zeta_prime(complex(sigma, t), abs_tol=1e-7)
        pd = zeta_prime(complex(sigma, -t), abs_tol=1e-7)
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
    s = ComplexPoint(0.77, 4321.25)
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
    with pytest.raises(DomainError):
        ComplexPoint(math.nan, 0.0)


def test_zeta_prime_requires_boundary_margin():
    with pytest.raises(DomainError):
        zeta_prime(complex(0.4005, 5.0))
    with pytest.raises(DomainError):
        zeta_prime(complex(3.0, 5.0))
    zeta(complex(3.0, 5.0))  # plain zeta accepts the closed edge


def test_tolerance_unreachable_at_large_height():
    with pytest.raises(ConvergenceError, match="tolerance unreachable"):
        zeta(complex(0.98, 11520.0), abs_tol=1e-12)


def test_inv_abs_zeta_against_oracle():
    got = inv_abs_zeta(0.98, 0.0)
    assert abs(got - INV_098_0) / INV_098_0 <= 1e-8
    got25 = inv_abs_zeta(0.98, 25.0)
    assert abs(got25 - 1.0 / ZETA_098_25_ABS) * ZETA_098_25_ABS <= 1e-8
    assert inv_abs_zeta(0.98, -25.0) == inv_abs_zeta(0.98, 25.0)


def test_inv_abs_zeta_rejects_sigma0_outside_range():
    with pytest.raises(DomainError):
        inv_abs_zeta(0.89, 10.0)
    with pytest.raises(DomainError):
        inv_abs_zeta(1.0, 10.0)


def test_inv_abs_zeta_many_matches_scalar():
    ts = np.array([0.0, 25.0, 100.0])
    batch = inv_abs_zeta_many(0.98, ts)
    singles = np.array([inv_abs_zeta(0.98, float(t)) for t in ts])
    assert np.allclose(batch, singles, rtol=3e-8, atol=0.0)


def test_zeta_many_within_bounds_of_scalar():
    ts = np.array([10.0, 250.5, 993.25])
    vals, bounds, terms = zeta_many(0.9, ts, abs_tol=1e-9)
    assert terms >= _truncation_point(ts.max())
    for v, b, t in zip(vals, bounds, ts):
        ev = zeta(complex(0.9, float(t)), abs_tol=1e-9)
        assert abs(v - ev.value) <= b + ev.abs_error_bound
    with pytest.raises(DomainError):
        zeta_many(0.9, np.array([[1.0, 2.0]]))


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


@pytest.mark.parametrize("fn, sigma", [(zeta_many, 0.9), (inv_abs_zeta_many, 0.98)])
def test_batch_rejects_last_height_above_t_max_and_nan(fn, sigma):
    from nearone.zeta import T_MAX
    with pytest.raises(DomainError, match=repr(T_MAX + 1.0)):
        fn(sigma, [9.0e4, 9.5e4, T_MAX + 1.0])
    with pytest.raises(DomainError, match="t=nan"):
        fn(sigma, [10.0, math.nan, 20.0])


def test_batch_rejects_point_near_pole_in_the_middle():
    with pytest.raises(DomainError, match="pole"):
        zeta_many(1.0, [5.0, -5e-4, 3.0])


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


def test_truncation_point_never_grows():
    # every point either returns with N = max(20, min(ceil(1.1|t|),
    # 20 + ceil(|t|/2))) or stops at the rounding floor; 20 correction
    # terms are never exhausted
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
            for ev in result if isinstance(result, tuple) else (result,):
                assert ev.terms_used == _truncation_point(t)
            returned += 1
    assert returned > 0


def test_exhausted_correction_terms_name_the_point(monkeypatch):
    monkeypatch.setattr(zeta_engine, "_BFAC", zeta_engine._BFAC[:4])
    with pytest.raises(ConvergenceError, match="correction terms exhausted") as info:
        zeta(complex(0.5, 18.0), abs_tol=1e-12)
    assert "t=18.0" in str(info.value)
    assert "N=20" in str(info.value)


def test_two_correction_terms_to_spare(monkeypatch):
    # the truncation sweep still returns or stops at the rounding floor
    # when the engine may add at most 17 correction terms instead of 20
    monkeypatch.setattr(zeta_engine, "_BFAC", zeta_engine._BFAC[:18])
    test_truncation_point_never_grows()


@pytest.mark.parametrize("sigma, t", [(0.98, 11515.3), (0.72, 29876.5),
                                      (1.02, 10234.5), (0.75, 20000.25)])
def test_bounds_do_not_depend_on_a_reachable_tolerance(sigma, t):
    # correction terms are added until the remainder reaches the rounding
    # floor, so abs_tol only decides whether the result is accepted
    loose = zeta_with_prime(complex(sigma, t), abs_tol=1e-6)
    tight = zeta_with_prime(complex(sigma, t), abs_tol=1e-7)
    assert loose == tight


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
        assert ev.terms_used == _truncation_point(t)
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
    assert N == _truncation_point(max(map(abs, ts)))
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


def test_per_point_sigma_batch_of_one_sigma_matches_zeta_many():
    ts = np.linspace(11514.0, 11516.0, 9)
    per_point = zeta_engine.zeta_points(np.full(9, 0.98), ts, abs_tol=1e-6)
    shared = zeta_many(0.98, ts, abs_tol=1e-6)
    assert np.allclose(per_point[0], shared[0], rtol=0.0, atol=1e-12)
    assert np.all(per_point[1] <= shared[1] * (1 + 1e-12))


def test_per_point_batch_names_the_failing_point():
    with pytest.raises(DomainError, match="sigma=0.3") as exc:
        zeta_engine.zeta_points([0.8, 0.3, 0.8], [1e4, 1.0001e4, 1.2e4])
    assert exc.value.index == 1
    with pytest.raises(ConvergenceError, match="t=12000.0") as exc:
        zeta_engine.zeta_points([0.8, 0.8, 0.8], [1e4, 1.0001e4, 1.2e4],
                                abs_tol=1.05e-9)
    assert exc.value.index == 2
    with pytest.raises(DomainError):
        zeta_engine.zeta_points([0.8, 0.8], [1e4])
