from __future__ import annotations

import csv
import math
import os
import time
from decimal import Decimal

import numpy as np
import pytest

from nearone import optimizer
from nearone.constants import (
    C4_GAP,
    REGION_STRETCH,
    ROOM,
    TARGET_LOG,
    TARGET_LOGDER,
    BoundParams,
    _a1_value,
    _a2_value,
    compute_a1,
    compute_a2,
    compute_b1,
    edge_floor,
    hypothesis_report,
    loglog,
)
from nearone.defaults import CONSTANT_PARAMS
from nearone.errors import DomainError, HypothesisError
from nearone.optimizer import SearchSpec, _decimal_range, minimize
from nearone.profiles import profile_dedekind, profile_dirichlet, profile_zeta

ZETA_A1 = 5.43989546984349625535483
ZETA_A2 = 33.28043700094315930489463


def zeta_spec(target, **kw):
    return SearchSpec(profile=profile_zeta(), target=target, C3=1000.0,
                      T1=1e4, T2=7778.0, t0=1e4, **kw)


def test_zeta_log_optimum_is_frozen_grid_point():
    params, bc = minimize(zeta_spec(TARGET_LOG))
    assert (params.C1, params.C2) == (0.25, 0.5)
    assert math.isclose(bc.a, ZETA_A1, rel_tol=1e-12)
    assert bc.a <= 5.44
    # winner reproduces the direct computation bit for bit
    assert bc.a == compute_a1(profile_zeta(), params).a


def test_zeta_logder_optimum_is_frozen_grid_point():
    params, bc = minimize(zeta_spec(TARGET_LOGDER))
    assert (params.C1, params.C2) == (0.34, 0.67)
    assert params.C4 == 0.67 / 2.0001
    assert math.isclose(bc.a, ZETA_A2, rel_tol=1e-12)
    assert bc.a <= 33.281
    assert bc.a == compute_a2(profile_zeta(), params).a


def test_dedekind_logder_optimum():
    spec = SearchSpec(profile=profile_dedekind(2, 5), target=TARGET_LOGDER,
                      C3=1000.0, T1=10188.0, T2=7794.0, t0=12128.0)
    params, bc = minimize(spec)
    assert (params.C1, params.C2) == (0.32, 0.64)
    assert math.isclose(bc.a / 2, 33.710467110245, rel_tol=1e-11)


def test_dirichlet_log_optimum_matches_zeta_point():
    spec = SearchSpec(profile=profile_dirichlet(3), target=TARGET_LOG,
                      C3=1000.0, T1=1e4, T2=7788.0, t0=10544.05)
    params, bc = minimize(spec)
    assert (params.C1, params.C2) == (0.25, 0.5)
    assert bc.a <= 5.44


def test_refinement_never_worsens_and_stays_valid():
    coarse_params, coarse = minimize(zeta_spec(TARGET_LOG))
    refined_params, refined = minimize(zeta_spec(TARGET_LOG, refine_rounds=2))
    assert refined.a <= coarse.a
    # refined winner still passes the full hypothesis list
    compute_a1(profile_zeta(), refined_params)
    # sub-grid coordinates are halves of the coarse step
    assert round(refined_params.C2 / 0.0025, 6) == int(round(refined_params.C2 / 0.0025))


def test_minimize_is_deterministic():
    p1, c1 = minimize(zeta_spec(TARGET_LOG, grid_step=0.05))
    p2, c2 = minimize(zeta_spec(TARGET_LOG, grid_step=0.05))
    assert p1 == p2
    assert c1.a == c2.a


def test_trace_csv_written(tmp_path):
    path = tmp_path / "trace.csv"
    minimize(zeta_spec(TARGET_LOG, grid_step=0.05), trace_path=path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["C1", "C2", "rho", "C4", "a", "b", "feasible", "reason"]
    body = rows[1:]
    # candidates: C2 multiples of 0.05 in (0, 2*C1], C1 in (0, 1]
    assert len(body) == sum(min(2 * k, 40) for k in range(1, 21))
    feas = {r[6] for r in body}
    assert feas == {"0", "1"}


def test_no_admissible_candidate():
    spec = SearchSpec(profile=profile_zeta(), target=TARGET_LOG, C3=1000.0,
                      T1=1e4, T2=7778.0, t0=9000.0)  # t0 < T1
    with pytest.raises(HypothesisError) as err:
        minimize(spec)
    assert err.value.condition == "no-admissible-candidate"


# T1 = 1650 is left out: for a2 the C2-dependent T1-floor fails there first
@pytest.mark.parametrize("target", [TARGET_LOG, TARGET_LOGDER])
@pytest.mark.parametrize("field,value", [
    ("C3", 0.99), ("T1", 1617.0), ("T1", 4000.0), ("t0", 9999.0),
    ("T2", 7780.0), ("T2", 1000.0),
])
def test_candidate_free_failure_mirrors_hypothesis_report(target, field, value):
    fixed = {"C3": 1000.0, "T1": 1e4, "T2": 7778.0, "t0": 1e4, field: value}
    published = ({"C1": 0.25, "C2": 0.5} if target == TARGET_LOG
                 else {"C1": 0.34, "C2": 0.67, "C4": 0.67 / 2.0001})
    report = hypothesis_report(profile_zeta(), BoundParams(**published, **fixed),
                               target)
    first = next(check.name for check in report if not check.ok)
    with pytest.raises(HypothesisError) as err:
        minimize(SearchSpec(profile=profile_zeta(), target=target, **fixed))
    assert err.value.condition == "no-admissible-candidate"
    assert str(err.value).startswith(f"no-admissible-candidate: {first}:")


def test_spec_validation():
    with pytest.raises(DomainError):
        SearchSpec(profile=profile_zeta(), target="nope", C3=1000.0,
                   T1=1e4, T2=7778.0, t0=1e4)
    with pytest.raises(DomainError):
        zeta_spec(TARGET_LOG, grid_step=0.5)
    with pytest.raises(DomainError):
        zeta_spec(TARGET_LOG, refine_rounds=-1)


@pytest.mark.parametrize("target, step", [(TARGET_LOGDER, 1e-5),
                                          (TARGET_LOGDER, 0.002),
                                          (TARGET_LOG, 1e-5)])
def test_grid_too_fine_is_refused_before_any_work(target, step):
    # a2 at step 1e-5 would need a 149 GiB T1-floor array
    start = time.perf_counter()
    with pytest.raises(DomainError, match="resource limit exceeded"):
        minimize(zeta_spec(target, grid_step=step))
    assert time.perf_counter() - start < 1.0


def test_candidate_limit_leaves_room_for_the_grids_in_use():
    # a2 at step 0.005 is the largest grid in use: 8,040,000 candidates
    assert optimizer.CANDIDATE_LIMIT >= 10 * 8_040_000
    zeta_spec(TARGET_LOGDER, grid_step=0.0022)
    zeta_spec(TARGET_LOG, grid_step=0.00011)


@pytest.mark.parametrize("target, rounds", [(TARGET_LOG, 46),
                                            (TARGET_LOGDER, 60),
                                            (TARGET_LOG, 10 ** 20)])
def test_refinement_too_deep_is_refused_before_any_work(target, rounds):
    # below MIN_STEP the 1e-15 slack of _decimal_range admits C2 > 2 C1
    # (46 rounds) and each round's box doubles (60 rounds)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="resource limit exceeded"):
        minimize(zeta_spec(target, refine_rounds=rounds))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("target", [TARGET_LOG, TARGET_LOGDER])
def test_deepest_refinement_allowed_passes_every_hypothesis(target):
    # 41 rounds from 0.01 is the deepest allowed; minimize re-validates
    # the optimum through compute_a1 / compute_a2
    assert math.ldexp(0.01, -42) < optimizer.MIN_STEP <= math.ldexp(0.01, -41)
    params, bc = minimize(zeta_spec(target, refine_rounds=41))
    assert params.C2 <= 2 * params.C1
    assert bc.a == pytest.approx(ZETA_A1 if target == TARGET_LOG else ZETA_A2,
                                 rel=1e-4)


# --- Oracle: the scan as a per-candidate scalar loop -------------------------

ORACLE_PROFILES = {
    "zeta": profile_zeta,
    "dirichlet": lambda: profile_dirichlet(3),
    "dedekind": lambda: profile_dedekind(2, 5),
}


def oracle_spec(family, target, **kw):
    p = CONSTANT_PARAMS[(family, target)]
    return SearchSpec(profile=ORACLE_PROFILES[family](), target=target, C3=p.C3,
                      T1=p.T1, T2=p.T2, t0=p.t0, **kw)


def _reference_scan(spec, step, c1_box, c2_box, rho_box, best, b_of, row):
    """One scan as a scalar triple loop over (C1, C2, rho), visiting and
    tracing every candidate in order."""
    deriv = spec.target == TARGET_LOGDER
    m = spec.profile.euler_order
    b_T1 = spec.T1 - 1 if deriv else spec.T1
    ll_t1 = loglog(spec.T1)
    ll_b = loglog(b_T1)
    rate_den = 1 - 1 / (4 * spec.C3 * ll_b)
    shift = ROOM[spec.target]["shift"]
    for c1 in _decimal_range(step, *c1_box):
        b = b_of(c1)
        for c2 in _decimal_range(step, c2_box[0], min(c2_box[1], 2 * c1)):
            if deriv:
                for rho in _decimal_range(step, *rho_box):
                    c4 = rho * (c2 / C4_GAP)
                    if spec.T1 < edge_floor(REGION_STRETCH * c2 + c4, shift):
                        row(c1, c2, rho, c4, "", "", False, "T1-floor")
                        continue
                    rate = (2 * c2 + 1 / (2 * spec.C3)) / rate_den
                    a = _a2_value(m, c2, c4, b, rate, ll_t1, ll_b)
                    row(c1, c2, rho, c4, a, b, True)
                    cand = (a, c1, c2, rho)
                    if best is None or cand < best:
                        best = cand
            else:
                if spec.T1 < edge_floor(c2, shift):
                    row(c1, c2, "", "", "", "", False, "T1-floor")
                    continue
                rate = (2 * c2 + 1 / (2 * spec.C3)) / rate_den
                a = _a1_value(m, c2, b, rate, ll_t1)
                row(c1, c2, "", "", a, b, True)
                cand = (a, c1, c2, 1.0)
                if best is None or cand < best:
                    best = cand
    return best


def _reference_minimize(spec, trace_path=None):
    """minimize with _reference_scan; returns (params, constants, the C1 of
    every compute_b1 call in order)."""
    deriv = spec.target == TARGET_LOGDER
    b_T1 = spec.T1 - 1 if deriv else spec.T1
    b_calls = []

    def b_of(c1):
        b_calls.append(c1)
        return compute_b1(spec.profile, c1, spec.C3, b_T1, spec.T2)

    with open(trace_path or os.devnull, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["C1", "C2", "rho", "C4", "a", "b", "feasible", "reason"])

        def row(c1, c2, rho, c4, a, b, feasible, reason=""):
            writer.writerow([c1, c2, rho, c4, a, b, int(feasible), reason])

        step = Decimal(repr(spec.grid_step))
        best = _reference_scan(spec, step, (0.0, 1.0), (0.0, 2.0), (0.0, 1.0),
                               None, b_of, row)
        for _ in range(spec.refine_rounds):
            wide = 2 * float(step)
            _, c1s, c2s, rhos = best
            step = step / 2
            best = _reference_scan(spec, step,
                                   (max(c1s - wide, 0.0), min(c1s + wide, 1.0)),
                                   (max(c2s - wide, 0.0), min(c2s + wide, 2.0)),
                                   (max(rhos - wide, 0.0), min(rhos + wide, 1.0)),
                                   best, b_of, row)
    _, c1, c2, rho = best
    params = BoundParams(C1=c1, C2=c2, C3=spec.C3, T1=spec.T1, T2=spec.T2,
                         t0=spec.t0, C4=rho * (c2 / C4_GAP) if deriv else None)
    constants = (compute_a2(spec.profile, params) if deriv
                 else compute_a1(spec.profile, params))
    return params, constants, b_calls


@pytest.mark.parametrize("refine_rounds", [0, 2])
@pytest.mark.parametrize("grid_step", [0.05, 0.02])
@pytest.mark.parametrize("target", [TARGET_LOG, TARGET_LOGDER])
@pytest.mark.parametrize("family", sorted(ORACLE_PROFILES))
def test_minimize_matches_scalar_reference(family, target, grid_step, refine_rounds):
    spec = oracle_spec(family, target, grid_step=grid_step,
                       refine_rounds=refine_rounds)
    ref_params, ref, _ = _reference_minimize(spec)
    params, bc = minimize(spec)
    assert params == ref_params
    assert bc.a == ref.a and bc.b == ref.b


@pytest.mark.parametrize("refine_rounds", [0, 2])
@pytest.mark.parametrize("target", [TARGET_LOG, TARGET_LOGDER])
def test_trace_matches_scalar_reference_bytes(tmp_path, target, refine_rounds):
    spec = zeta_spec(target, grid_step=0.05, refine_rounds=refine_rounds)
    _reference_minimize(spec, trace_path=tmp_path / "ref.csv")
    minimize(spec, trace_path=tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def perturb_screen(monkeypatch, sign):
    """Scale every screened exp value by 1 + 1e-14 (sign "up"), 1 - 1e-14
    ("down") or either at random ("mixed"): far more than np.exp's
    last-digit differences from math.exp."""
    exp = optimizer._exp
    rng = np.random.default_rng(7)

    def perturbed(x, out=None):
        y = exp(x, out=out)
        factor = {"up": 1.0, "down": -1.0}.get(sign)
        if factor is None:
            factor = rng.choice([-1.0, 1.0], size=np.shape(y))
        y *= 1 + 1e-14 * factor
        return y

    monkeypatch.setattr(optimizer, "_exp", perturbed)


@pytest.mark.parametrize("sign", ["up", "down", "mixed"])
@pytest.mark.parametrize("target", [TARGET_LOG, TARGET_LOGDER])
def test_screen_error_never_decides_the_winner(monkeypatch, tmp_path, target, sign):
    """With b1 <= 1 the objective is flat in C1, so a screen that decided
    would report another C1."""
    spec = zeta_spec(target, grid_step=0.05, refine_rounds=1)
    ref_params, ref, _ = _reference_minimize(spec, trace_path=tmp_path / "ref.csv")
    perturb_screen(monkeypatch, sign)
    params, bc = minimize(spec, trace_path=tmp_path / "new.csv")
    assert params == ref_params and bc.a == ref.a
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert minimize(spec) == (params, bc)


@pytest.mark.parametrize("target,c2,rho", [(TARGET_LOG, 1.1, 1.0),
                                           (TARGET_LOGDER, 0.9, 0.4)])
def test_screen_error_never_decides_feasibility(monkeypatch, tmp_path, target,
                                                c2, rho):
    """T1 equal to one grid cell's floor: the cell is admissible (T1 >= floor)
    although the raised screen puts its floor above T1."""
    deriv = target == TARGET_LOGDER
    edge = REGION_STRETCH * c2 + rho * (c2 / C4_GAP) if deriv else c2
    spec = SearchSpec(profile=profile_zeta(), target=target, C3=1000.0,
                      T1=edge_floor(edge, ROOM[target]["shift"]), T2=7778.0,
                      t0=1e4, grid_step=0.05)
    _reference_minimize(spec, trace_path=tmp_path / "ref.csv")
    with open(tmp_path / "ref.csv", newline="") as fh:
        cell = [r for r in csv.DictReader(fh)
                if float(r["C2"]) == c2 and (not deriv or float(r["rho"]) == rho)]
    assert cell and all(r["feasible"] == "1" for r in cell)
    perturb_screen(monkeypatch, "up")
    minimize(spec, trace_path=tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("refine_rounds", [0, 2])
@pytest.mark.parametrize("target", [TARGET_LOG, TARGET_LOGDER])
def test_b_constant_computed_once_per_c1(monkeypatch, target, refine_rounds):
    # once per C1 of each scan; a refinement round computes b again for a
    # C1 an earlier round visited
    spec = zeta_spec(target, grid_step=0.05, refine_rounds=refine_rounds)
    *_, ref_calls = _reference_minimize(spec)
    calls = []

    def counting(profile, c1, *args):
        calls.append(c1)
        return compute_b1(profile, c1, *args)

    monkeypatch.setattr(optimizer, "compute_b1", counting)
    minimize(spec)
    assert calls == ref_calls
    if refine_rounds == 0:
        assert calls == [k / 20 for k in range(1, 21)]
