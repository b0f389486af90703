"""Acceptance suite: one test per published claim the package must reproduce.

Each criterion prints a single PASS/FAIL line (visible under pytest -s) and
asserts both the numerical claim and its runtime budget.  Criteria 4 and 9
are the expensive ones (full reciprocal-zeta integral to height 11520 and
the 10^8 sieve); everything else is seconds or less.
"""

import math
import time

import numpy as np
import pytest

from nearone.constants import (
    BoundParams,
    TARGET_LOG,
    TARGET_LOGDER,
    ceil_decimals,
    compute_a1,
    compute_a2,
    compute_b1,
    compute_K,
    dedekind_split,
)
from nearone.mertens import (
    crossover_trivial,
    derive_m_bound,
    mertens_report,
    sieve_mobius,
    verify_bound_on_range,
)
from nearone.optimizer import SearchSpec, minimize
from nearone.profiles import profile_dedekind, profile_zeta
from nearone.quadrature import integrate_envelope, integrate_inv_abs_zeta, romberg
from nearone.verifier import default_verification
from nearone.zeta import zeta

FIRST_ZERO_T = 14.1347251417346937904572519836


def _report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {number}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_zeta_constants():
    start = time.monotonic()
    log_params = BoundParams(C1=0.25, C2=0.5, C3=1000.0, T1=1e4,
                             T2=7778.0, t0=1e4)
    bc1 = compute_a1(profile_zeta(), log_params)
    der_params = BoundParams(C1=0.34, C2=0.67, C3=1000.0, T1=1e4,
                             T2=7778.0, t0=1e4, C4=0.67 / 2.0001)
    bc2 = compute_a2(profile_zeta(), der_params)
    elapsed = time.monotonic() - start
    ok = (0.95 < bc1.b < 0.951 and ceil_decimals(bc1.a, 2) == 5.44
          and 0.97 < bc2.b < 0.971 and ceil_decimals(bc2.a, 3) == 33.281
          and elapsed < 1.0)
    _report(1, ok,
            f"b1={bc1.b:.15g} a1->{ceil_decimals(bc1.a, 2)} "
            f"b2={bc2.b:.15g} a2->{ceil_decimals(bc2.a, 3)} "
            f"({elapsed:.3f}s)")


def test_criterion_02_dedekind_constants():
    start = time.monotonic()
    prof = profile_dedekind(2, 5)
    log_params = BoundParams(C1=0.25, C2=0.5, C3=1000.0, T1=10188.0,
                             T2=7794.0, t0=12128.0)
    bc1 = compute_a1(prof, log_params)
    der_params = BoundParams(C1=0.32, C2=0.64, C3=1000.0, T1=10188.0,
                             T2=7794.0, t0=12128.0, C4=0.64 / 2.0001)
    bc2 = compute_a2(prof, der_params)
    k1_log, k2_log = dedekind_split(0.25, 1000.0, 10188.0, 7794.0)
    k1_der, k2_der = dedekind_split(0.32, 1000.0, 10187.0, 7794.0)
    elapsed = time.monotonic() - start
    per1 = bc1.a / prof.degree
    per2 = bc2.a / prof.degree
    ok = (ceil_decimals(per1, 2) == 5.44
          and ceil_decimals(per2, 3) == 33.711
          and 0.949 + 0.0913 / 2 < bc1.b < 0.95 + 0.0914 / 2
          and 0.964 + 0.0961 / 2 < bc2.b < 0.965 + 0.0962 / 2
          and 0.949 < k1_log < 0.95 and 0.0913 < k2_log < 0.0914
          and 0.964 < k1_der < 0.965 and 0.0961 < k2_der < 0.0962
          and elapsed < 1.0)
    _report(2, ok,
            f"a1/n={ceil_decimals(per1, 2)} a2/n={ceil_decimals(per2, 3)} "
            f"b1={bc1.b:.15g} b2={bc2.b:.15g} ({elapsed:.3f}s)")


def test_criterion_03_optimizer_recovers_published_point():
    start = time.monotonic()
    p1, bc1 = minimize(SearchSpec(profile=profile_zeta(), target=TARGET_LOG,
                                  C3=1000.0, T1=1e4, T2=7778.0, t0=1e4))
    p2, bc2 = minimize(SearchSpec(profile=profile_zeta(), target=TARGET_LOGDER,
                                  C3=1000.0, T1=1e4, T2=7778.0, t0=1e4))
    elapsed = time.monotonic() - start
    ok = (abs(p1.C1 - 0.25) <= 0.01 + 1e-12 and abs(p1.C2 - 0.5) <= 0.01 + 1e-12
          and bc1.a <= 5.44
          and abs(p2.C1 - 0.34) <= 0.01 + 1e-12
          and abs(p2.C2 - 0.67) <= 0.01 + 1e-12
          and bc2.a <= 33.281
          and elapsed < 30.0)
    _report(3, ok,
            f"log optimum (C1,C2)=({p1.C1},{p1.C2}) a1={bc1.a:.6f}; "
            f"logder optimum ({p2.C1},{p2.C2}) a2={bc2.a:.6f} ({elapsed:.1f}s)")


def test_criterion_04_inv_zeta_integral_to_11520():
    start = time.monotonic()
    r = integrate_inv_abs_zeta(0.98, 0.0, 11520.0, panel_width=10.0,
                               rel_tol=1e-6, workers=1)
    elapsed = time.monotonic() - start
    certified = r.value + r.error_estimate
    ok = certified <= 12951.0 and r.error_estimate < 1.0 and elapsed <= 1800.0
    _report(4, ok,
            f"integral={r.value:.6f} err={r.error_estimate:.3g} "
            f"certified={certified:.6f} <= 12951 over {r.panels} panels "
            f"({elapsed:.0f}s single-threaded)")


def test_criterion_05_envelope_integral():
    start = time.monotonic()
    r = integrate_envelope(0.98, 5.44, 11520.0, 2.6e7)
    elapsed = time.monotonic() - start
    ceiling = 5.946e14
    certified = r.value + r.error_estimate
    ok = (certified <= ceiling and r.value >= 0.995 * ceiling
          and elapsed < 60.0)
    _report(5, ok,
            f"envelope={r.value:.6e} err={r.error_estimate:.3g} "
            f"within {(ceiling - r.value) / ceiling:.3%} below 5.946e14 "
            f"({elapsed:.2f}s)")


def test_criterion_06_mertens_pipeline():
    start = time.monotonic()
    rep = mertens_report()
    elapsed = time.monotonic() - start
    bound, shown = rep["bound"], rep["display"]
    ok = (bound["kappa"] <= 0.99 and shown["kappa"] == 0.99
          and shown["coef_kappa"] == 555.71
          and shown["coef_sigma0"] == 1.94e14
          and 710.0 <= bound["log10_x_min"] <= 712.0
          and elapsed < 1.0)
    _report(6, ok,
            f"kappa={bound['kappa']:.10f}->{shown['kappa']} "
            f"coef_kappa={bound['coef_kappa']:.6f}->{shown['coef_kappa']} "
            f"coef_sigma0={bound['coef_sigma0']:.6e}"
            f"->{shown['coef_sigma0']:.3e} "
            f"log10(x_min)={bound['log10_x_min']:.4f} ({elapsed:.3f}s)")


def test_criterion_07_m_transfer_and_crossover():
    A_m, B_m = derive_m_bound(555.71, 0.99, 1.94e14, 0.98)
    cross = crossover_trivial(555.71, 0.99, 1.94e14, 0.98)
    ok = (A_m == 56126.71 and B_m == 9.894e15
          and abs(cross - 714.4) <= 0.1)
    _report(7, ok,
            f"A_m={A_m!r} B_m={B_m!r} crossover log10(x*)={cross:.6f}")


def test_criterion_08_zeta_engine_oracles():
    start = time.monotonic()
    v2 = zeta(2.0, abs_tol=1e-12)
    basel_err = abs(v2.value - math.pi ** 2 / 6)
    at_zero = zeta(complex(0.5, FIRST_ZERO_T), abs_tol=1e-9)
    zero_mag = abs(at_zero.value)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(2024)
    agree = 0
    total = 200
    for _ in range(total):
        sigma = float(rng.uniform(0.45, 2.8))
        t = float(rng.uniform(0.0, 1000.0))
        if abs(complex(sigma, t) - 1.0) < 5e-3:
            t += 0.01
        got = zeta(complex(sigma, t), abs_tol=1e-9)
        truth = complex(mp.zeta(mp.mpc(sigma, t)))
        if abs(got.value - truth) <= got.abs_error_bound:
            agree += 1
    elapsed = time.monotonic() - start
    ok = basel_err < 1e-10 and zero_mag < 1e-6 and agree == total
    _report(8, ok,
            f"|zeta(2)-pi^2/6|={basel_err:.2e} |zeta(1/2+i t1)|={zero_mag:.2e} "
            f"oracle agreement {agree}/{total} ({elapsed:.1f}s)")


def test_criterion_09_sieve_verification_at_1e8():
    start = time.monotonic()
    table = sieve_mobius(100_000_000)
    report = verify_bound_on_range(table, 555.71, 0.99, 1.94e14, 0.98)
    elapsed = time.monotonic() - start
    ok = (report["violations"] == 0 and table.M(10) == -1
          and table.M(100) == 1 and elapsed < 300.0)
    _report(9, ok,
            f"x <= 1e8: violations={report['violations']} "
            f"M(10)={table.M(10)} M(100)={table.M(100)} "
            f"max|M|/bound={report['max_ratio_M']:.3e} ({elapsed:.0f}s)")


def test_criterion_10_empirical_bound_checks():
    start = time.monotonic()
    report = default_verification(samples=400)
    elapsed = time.monotonic() - start
    ok = (report["total_samples"] == 400 and report["total_violations"] == 0
          and report["elementary_violations"] == 0 and elapsed < 600.0)
    min_ratio = min(c["min_ratio"] for c in report["checks"])
    _report(10, ok,
            f"400 samples, violations={report['total_violations']}, "
            f"tightest bound/observed={min_ratio:.3f} ({elapsed:.1f}s)")


def test_criterion_11_property_suites():
    # Romberg: exact on quadratics, with a zero error estimate
    quad = romberg(lambda x: 3.0 * x * x, 0.0, 2.0, rel_tol=1e-10)
    exactness = quad.value == 8.0 and quad.error_estimate == 0.0

    # quadrature additivity on a split interval
    whole = integrate_inv_abs_zeta(0.98, 0.0, 80.0)
    left = integrate_inv_abs_zeta(0.98, 0.0, 37.0)
    right = integrate_inv_abs_zeta(0.98, 37.0, 80.0)
    additive = (abs(whole.value - (left.value + right.value))
                <= whole.error_estimate + left.error_estimate
                + right.error_estimate + 1e-9)

    # conjugate symmetry of the engine
    rng = np.random.default_rng(99)
    conjugate = True
    for _ in range(10):
        sigma = float(rng.uniform(0.5, 2.5))
        t = float(rng.uniform(0.5, 500.0))
        plus = zeta(complex(sigma, t), abs_tol=1e-10)
        minus = zeta(complex(sigma, -t), abs_tol=1e-10)
        if minus.value != plus.value.conjugate():
            conjugate = False
            break

    # K >= d/4 and b1 >= d/(4m) across randomized admissible parameters
    prof = profile_zeta()
    floors = True
    for _ in range(50):
        C1 = float(rng.uniform(0.05, 1.0))
        t0p = float(rng.uniform(7778.0, 1e6))
        if compute_K(prof, C1, t0p) < prof.degree / 4.0:
            floors = False
            break
        T1 = float(rng.uniform(10100.0, 1e6))
        b = compute_b1(prof, C1, 1000.0, T1, 7778.0)
        if b < prof.degree / (4.0 * prof.euler_order):
            floors = False
            break

    ok = exactness and additive and conjugate and floors
    _report(11, ok,
            f"romberg-exactness={exactness} additivity={additive} "
            f"conjugate-symmetry={conjugate} K,b1-floors={floors}")
