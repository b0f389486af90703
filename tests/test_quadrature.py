"""Tests for Romberg panel quadrature.

Integral reference values were computed with an independent
arbitrary-precision adaptive quadrature at 30 significant digits and
frozen here; the Gauss-Kronrod cross-check uses scipy when available.
"""

import csv
import math

import numpy as np
import pytest

import nearone.zeta as zeta_engine
from nearone.errors import ConvergenceError, DomainError
from nearone.quadrature import (
    CALL_NODES,
    GROUP_PANELS,
    PANEL_LIMIT,
    QuadratureResult,
    _panel_edges,
    _romberg_panels,
    _run_panels,
    envelope_integrand_log_space,
    integrate_envelope,
    integrate_inv_abs_zeta,
    romberg,
)
from nearone.zeta import inv_abs_zeta_many

INV_INTEGRAL_0_10 = 10.73523409961820064373
INV_INTEGRAL_0_100 = 112.3737422204433969998446
ENVELOPE_11520_1E5 = 140772530214.4804092337


def test_romberg_exact_on_squares_at_level_two():
    r = romberg(lambda x: x ** 2, 0.0, 1.0, 1e-10)
    assert abs(r.value - 1.0 / 3.0) < 1e-15
    assert r.error_estimate == 0.0
    assert r.evaluations == 5
    assert r.panels == 1


def test_romberg_sin_classical_value():
    r = romberg(np.sin, 0.0, math.pi, 1e-10)
    assert abs(r.value - 2.0) < 1e-10
    assert r.evaluations <= 65  # converged by level 6


def test_romberg_validation():
    with pytest.raises(DomainError):
        romberg(np.sin, 1.0, 1.0, 1e-8)
    with pytest.raises(DomainError):
        romberg(np.sin, 0.0, 1.0, 0.0)


def test_romberg_non_convergent():
    # a cusp inside the panel keeps Romberg's error at O(h^1.5)
    with pytest.raises(ConvergenceError,
                       match=r"non-convergent on \[0\.0, 1\.0\] after 16 levels"):
        romberg(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-12)


def test_reciprocal_zeta_panel_against_oracles():
    f = lambda us: np.array([inv_abs_zeta_many(0.98, [u])[0] for u in us])
    r = romberg(f, 0.0, 10.0, 1e-6)
    assert abs(r.value - INV_INTEGRAL_0_10) <= 1e-6 * INV_INTEGRAL_0_10
    scipy_integrate = pytest.importorskip("scipy.integrate")
    gk, gk_err = scipy_integrate.quad(
        lambda u: inv_abs_zeta_many(0.98, [u])[0], 0.0, 10.0)
    assert abs(r.value - gk) <= 1e-6 * abs(gk) + gk_err


def test_integrate_inv_abs_zeta_partial_range():
    r = integrate_inv_abs_zeta(0.98, 0.0, 100.0)
    assert r.panels == 10
    assert abs(r.value - INV_INTEGRAL_0_100) <= 1e-6 * INV_INTEGRAL_0_100
    assert abs(r.value - INV_INTEGRAL_0_100) <= r.error_estimate


def test_integrate_empty_interval():
    r = integrate_inv_abs_zeta(0.98, 0.0, 0.0)
    assert r.value == 0.0
    assert r.error_estimate == 0.0
    assert r.panels == 0
    assert r.evaluations == 0


def test_interval_far_shorter_than_a_panel_takes_one_panel():
    """(hi - lo) / width below the 1e-12 slack of the panel count still
    makes one panel, not an empty sum."""
    lo, hi = 5.0, 5.000000000001
    r = integrate_inv_abs_zeta(0.98, lo, hi)
    assert r.panels == 1
    assert r.value == pytest.approx(
        (hi - lo) * inv_abs_zeta_many(0.98, [5.0])[0], rel=1e-6)
    r = integrate_envelope(0.98, 5.44, 20.0, 20.0 * (1 + 1e-13))
    assert r.panels == 1
    assert r.value > 0.0


def test_integrate_validation():
    with pytest.raises(DomainError):
        integrate_inv_abs_zeta(0.89, 0.0, 10.0)
    with pytest.raises(DomainError):
        integrate_inv_abs_zeta(0.98, -1.0, 10.0)
    with pytest.raises(DomainError):
        integrate_inv_abs_zeta(0.98, 0.0, 3.1e4)
    with pytest.raises(DomainError):
        integrate_inv_abs_zeta(0.98, 10.0, 5.0)
    with pytest.raises(DomainError):
        integrate_inv_abs_zeta(0.98, 0.0, 10.0, panel_width=0.0)


def test_additivity_within_error_estimates():
    left = integrate_inv_abs_zeta(0.98, 0.0, 37.0)
    right = integrate_inv_abs_zeta(0.98, 37.0, 80.0)
    whole = integrate_inv_abs_zeta(0.98, 0.0, 80.0)
    gap = abs(left.value + right.value - whole.value)
    assert gap <= left.error_estimate + right.error_estimate + whole.error_estimate


def test_worker_count_does_not_change_result():
    serial = integrate_inv_abs_zeta(0.98, 0.0, 60.0)
    parallel = integrate_inv_abs_zeta(0.98, 0.0, 60.0, workers=2)
    assert parallel.value == serial.value
    assert parallel.error_estimate == serial.error_estimate
    assert parallel.evaluations == serial.evaluations


def test_worker_failure_names_its_panel():
    # 128 unit panels make two groups, one per spawned worker; the cusp of
    # sqrt at 0 keeps the first panel open past MAX_LEVELS
    edges = [float(k) for k in range(2 * GROUP_PANELS + 1)]
    with pytest.raises(ConvergenceError,
                       match=r"non-convergent on \[0\.0, 1\.0\] after 16 levels"):
        _run_panels(np.sqrt, edges, 1e-12, workers=2, trace_path=None)


def test_panel_trace_csv(tmp_path):
    path = tmp_path / "panels.csv"
    r = integrate_inv_abs_zeta(0.98, 0.0, 35.0, trace_path=str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lo", "hi", "value", "error_estimate", "evaluations"]
    body = rows[1:]
    assert len(body) == r.panels == 4
    assert float(body[-1][1]) == 35.0
    assert math.fsum(float(row[2]) for row in body) == r.value
    assert sum(int(row[4]) for row in body) == r.evaluations


def test_envelope_collapses_to_length_when_a1_zero():
    r = integrate_envelope(0.98, 0.0, 11520.0, 11620.0)
    assert abs(r.value - 100.0) <= 1e-8 * 100.0


def test_envelope_partial_against_oracle():
    r = integrate_envelope(0.98, 5.44, 11520.0, 1.0e5)
    assert abs(r.value - ENVELOPE_11520_1E5) <= 1e-6 * ENVELOPE_11520_1E5


def test_envelope_validation():
    with pytest.raises(DomainError):
        integrate_envelope(0.98, 5.44, 5.0, 100.0)  # lo < e^2
    with pytest.raises(DomainError):
        integrate_envelope(1.0, 5.44, 11520.0, 12000.0)
    with pytest.raises(DomainError):
        integrate_envelope(0.98, -1.0, 11520.0, 12000.0)
    with pytest.raises(DomainError):
        integrate_envelope(0.98, 5.44, 12000.0, 11520.0)


def test_envelope_monotone_panel_sandwich():
    g = envelope_integrand_log_space(0.98, 5.44)
    a, b = 2.5, 3.0
    r = romberg(g, a, b, 1e-10)
    lo_rect = (b - a) * float(g(np.array([a]))[0])
    hi_rect = (b - a) * float(g(np.array([b]))[0])
    assert lo_rect <= r.value <= hi_rect


def test_quadrature_result_invariants():
    with pytest.raises(DomainError):
        QuadratureResult(1.0, -1e-9, 1, 2)
    with pytest.raises(DomainError):
        QuadratureResult(1.0, math.inf, 1, 2)
    with pytest.raises(DomainError):
        QuadratureResult(1.0, 0.0, 3, 2)


def test_panel_count_is_capped_before_any_list_is_built():
    assert len(_panel_edges(0.0, float(PANEL_LIMIT), 1.0)) == PANEL_LIMIT + 1
    with pytest.raises(DomainError, match="resource limit exceeded"):
        _panel_edges(0.0, PANEL_LIMIT + 1.0, 1.0)
    with pytest.raises(DomainError, match="resource limit exceeded"):
        integrate_inv_abs_zeta(0.98, 0.0, 100.0, panel_width=1e-300)
    with pytest.raises(DomainError, match="resource limit exceeded"):
        integrate_inv_abs_zeta(0.98, 0.0, 100.0, panel_width=5e-324)
    with pytest.raises(DomainError, match="resource limit exceeded"):
        integrate_envelope(0.98, 5.44, 11520.0, 2.6e7, panel_width_v=1e-300)


def _level_calls(levels):
    """Integrand calls of one group after its edges, given each panel's
    level count: per level i >= 1, one per CALL_NODES new nodes of each
    maximal run of adjacent panels that take at least i levels."""
    calls = 0
    for i in range(1, max(levels) + 1):
        run = 0
        for lv in levels + [0]:
            if lv >= i:
                run += 1
            elif run:
                calls += -(-run * 2 ** (i - 1) // CALL_NODES)
                run = 0
    return calls


@pytest.mark.parametrize("lo, hi", [(11020.0, 11520.0), (29900.0, 30000.0),
                                    (0.0, 640.0)])
def test_one_factored_engine_call_per_run_and_level(monkeypatch, tmp_path,
                                                    lo, hi):
    calls = []
    plain = zeta_engine._main_sums

    def spy(sigma, ts, B, B2, logn, want_prime):
        calls.append((len(ts), B))
        return plain(sigma, ts, B, B2, logn, want_prime)

    monkeypatch.setattr(zeta_engine, "_main_sums", spy)
    path = tmp_path / "panels.csv"
    r = integrate_inv_abs_zeta(0.98, lo, hi, trace_path=str(path))
    with open(path, newline="") as fh:
        evals = [int(row[4]) for row in list(csv.reader(fh))[1:]]
    # a panel that stops at level L took 2 + (2^L - 1) evaluations
    levels = [int(math.log2(e - 1)) for e in evals]
    assert [2 + 2 ** lv - 1 for lv in levels] == evals
    assert sum(evals) == r.evaluations
    # one group: the edges once, then one call per run and level (and
    # per CALL_NODES nodes of it)
    assert r.panels <= GROUP_PANELS
    assert len(calls) == 1 + _level_calls(levels)
    assert len(calls) < r.panels * max(levels)
    assert calls[0][0] == r.panels + 1
    assert all(B > 1 for K, B in calls if K >= 8)


def test_worker_count_does_not_change_bits_across_groups(tmp_path):
    # 160 panels of width 1.25: three groups of 64, 64 and 32 panels
    assert len(_panel_edges(1000.0, 1200.0, 1.25)) - 1 > 2 * GROUP_PANELS
    paths = [tmp_path / f"w{w}.csv" for w in (1, 2)]
    serial, parallel = (
        integrate_inv_abs_zeta(0.98, 1000.0, 1200.0, panel_width=1.25,
                               workers=w, trace_path=str(path))
        for w, path in zip((1, 2), paths))
    assert serial.panels == 160
    assert parallel == serial
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_grouped_panels_equal_lone_panels_bit_for_bit():
    # an integrand evaluated point by point: panels that converge at
    # different levels split the runs, as does the wider last panel, yet
    # every panel keeps a lone panel's bits and evaluation count
    g = envelope_integrand_log_space(0.98, 5.44)
    f = lambda vs: g(vs) * (1.0 + np.cos(vs ** 2))
    edges = [2.5 + 0.25 * k for k in range(23)] + [8.4]
    grouped = _romberg_panels(f, edges, 1e-10)
    lone = [romberg(f, a, b, 1e-10) for a, b in zip(edges, edges[1:])]
    assert grouped == lone
    assert [r.evaluations for r in lone][7:12] == [33, 65, 65, 33, 65]


def test_non_convergent_panel_inside_a_group_is_named(monkeypatch):
    # panel [3.0, 4.0] oscillates; its neighbours are linear and converge
    # at level 1, so the failing panel runs on alone to MAX_LEVELS
    def f(x):
        return np.where((x > 3.0) & (x < 4.0), np.sin(40.0 * x), x)

    monkeypatch.setattr("nearone.quadrature.MAX_LEVELS", 3)
    with pytest.raises(ConvergenceError,
                       match=r"non-convergent on \[3\.0, 4\.0\] after 3 levels"):
        _romberg_panels(f, [float(k) for k in range(9)], 1e-12)


def test_integrals_check_rel_tol():
    # the check sits in the one driver, so the integrals run it too
    for rel_tol in (-1.0, 0.0, math.nan):
        with pytest.raises(DomainError):
            integrate_inv_abs_zeta(0.98, 0.0, 10.0, rel_tol=rel_tol)
        with pytest.raises(DomainError):
            integrate_envelope(0.98, 5.44, 11520.0, 2.6e7, rel_tol=rel_tol)


def test_integrand_calls_are_capped_at_call_nodes(monkeypatch):
    # kinks in every panel: none of the 64 converges, so every level
    # runs over the whole group, up to 64 x 2^15 new nodes at level 16
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sqrt(np.abs(np.sin(300.0 * x)))

    edges = [float(k) for k in range(GROUP_PANELS + 1)]
    with pytest.raises(ConvergenceError,
                       match=r"non-convergent on \[0\.0, 1\.0\] after 16 levels"):
        _romberg_panels(f, edges, 1e-12)
    assert max(sizes) == CALL_NODES
    assert sum(sizes) == GROUP_PANELS * 2 ** 16 + 1

    # the cap only splits the calls: a pointwise integrand keeps its bits
    g = envelope_integrand_log_space(0.98, 5.44)
    edges = [2.5 + 0.25 * k for k in range(23)] + [8.4]
    capped = _romberg_panels(g, edges, 1e-13)
    monkeypatch.setattr("nearone.quadrature.CALL_NODES", 4)
    assert _romberg_panels(g, edges, 1e-13) == capped
