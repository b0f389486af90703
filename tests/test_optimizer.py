from __future__ import annotations

import csv
import math

import pytest

from nearone.constants import (
    TARGET_LOG,
    TARGET_LOGDER,
    BoundParams,
    compute_a1,
    compute_a2,
    hypothesis_report,
)
from nearone.errors import HypothesisError
from nearone.optimizer import SearchSpec, minimize
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
    with pytest.raises(HypothesisError):
        SearchSpec(profile=profile_zeta(), target="nope", C3=1000.0,
                   T1=1e4, T2=7778.0, t0=1e4)
    with pytest.raises(HypothesisError):
        zeta_spec(TARGET_LOG, grid_step=0.5)
    with pytest.raises(HypothesisError):
        zeta_spec(TARGET_LOG, refine_rounds=-1)
