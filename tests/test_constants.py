from __future__ import annotations

import math
from collections import Counter

import pytest

from nearone import constants
from nearone.constants import (
    STATEMENT_HYPOTHESES,
    BoundParams,
    TARGET_LOG,
    TARGET_LOGDER,
    ceil_decimals,
    ceil_sigfigs,
    compute_a1,
    compute_a2,
    compute_b1,
    compute_K,
    constants_report,
    dedekind_split,
    edge_floor,
    elementary_bounds,
    hypothesis_report,
    loglog,
    logloglog,
    logplus,
)
from nearone.errors import DomainError, HypothesisError
from nearone.profiles import profile_dedekind, profile_dirichlet, profile_zeta

# Frozen 50-digit recomputations of every published constant.  The float
# pipeline is expected to agree to ~1e-14 relative; 1e-12 leaves headroom.
ZETA_B1 = 0.9505983567005427502526281
ZETA_A1 = 5.43989546984349625535483
ZETA_B2 = 0.9709961755045386639407169
ZETA_A2 = 33.28043700094315930489463
DIR_B1 = 0.95052542125174294421
DIR_B2 = 0.97092160034722784377
DED_K1_LOG = 0.9498338898804869260374815
DED_K2_LOG = 0.0913957270968276611695255
DED_K1_DER = 0.9649993023088180058103448
DED_K2_DER = 0.09614761284777577065488552
DED2_B1 = 0.995531753428900757
DED2_B2 = 1.01307310873270589
DED2_A2_PER_DEG = 33.710467110245

REL = 1e-12


def zeta_log_params() -> BoundParams:
    return BoundParams(C1=0.25, C2=0.5, C3=1000.0, T1=1e4, T2=7778.0, t0=1e4)


def zeta_logder_params() -> BoundParams:
    return BoundParams(C1=0.34, C2=0.67, C3=1000.0, T1=1e4, T2=7778.0,
                       t0=1e4, C4=0.67 / 2.0001)


def dedekind_log_params() -> BoundParams:
    return BoundParams(C1=0.25, C2=0.5, C3=1000.0, T1=10188.0, T2=7794.0,
                       t0=12128.0)


def dedekind_logder_params() -> BoundParams:
    return BoundParams(C1=0.32, C2=0.64, C3=1000.0, T1=10188.0, T2=7794.0,
                       t0=12128.0, C4=0.64 / 2.0001)


def test_zeta_log_constants_match_oracle():
    bc = compute_a1(profile_zeta(), zeta_log_params())
    assert math.isclose(bc.b, ZETA_B1, rel_tol=REL)
    assert math.isclose(bc.a, ZETA_A1, rel_tol=REL)
    assert 0.95 < bc.b < 0.951
    assert bc.a <= 5.44
    assert ceil_decimals(bc.a, 2) == 5.44
    assert bc.sigma_region == (0.5, 0.5)


def test_zeta_logder_constants_match_oracle():
    bc = compute_a2(profile_zeta(), zeta_logder_params())
    assert math.isclose(bc.b, ZETA_B2, rel_tol=REL)
    assert math.isclose(bc.a, ZETA_A2, rel_tol=REL)
    assert 0.97 < bc.b < 0.971
    assert bc.a <= 33.281
    assert ceil_decimals(bc.a, 3) == 33.281
    A, B = bc.sigma_region
    assert math.isclose(A, 1.00006 * 0.67 + 0.67 / 2.0001, rel_tol=1e-15)
    assert math.isclose(B, 0.67 / 2.0001, rel_tol=1e-15)


def test_dirichlet_constants_share_zeta_display_values():
    prof = profile_dirichlet(3)
    bc1 = compute_a1(prof, BoundParams(C1=0.25, C2=0.5, C3=1000.0, T1=1e4,
                                       T2=7788.0, t0=10544.05))
    assert math.isclose(bc1.b, DIR_B1, rel_tol=REL)
    assert ceil_decimals(bc1.a, 2) == 5.44
    bc2 = compute_a2(prof, BoundParams(C1=0.34, C2=0.67, C3=1000.0, T1=1e4,
                                       T2=7788.0, t0=10544.05, C4=0.67 / 2.0001))
    assert math.isclose(bc2.b, DIR_B2, rel_tol=REL)
    assert ceil_decimals(bc2.a, 3) == 33.281


def test_dedekind_split_matches_oracle():
    k1, k2 = dedekind_split(0.25, 1000.0, 10188.0, 7794.0)
    assert math.isclose(k1, DED_K1_LOG, rel_tol=REL)
    assert math.isclose(k2, DED_K2_LOG, rel_tol=REL)
    assert 0.949 < k1 < 0.95
    assert 0.0913 < k2 < 0.0914
    k1d, k2d = dedekind_split(0.32, 1000.0, 10188.0 - 1, 7794.0)
    assert math.isclose(k1d, DED_K1_DER, rel_tol=REL)
    assert math.isclose(k2d, DED_K2_DER, rel_tol=REL)
    assert 0.964 < k1d < 0.965
    assert 0.0961 < k2d < 0.0962


@pytest.mark.parametrize("n_k", range(2, 11))
def test_dedekind_split_reconstructs_b1(n_k):
    prof = profile_dedekind(n_k, 5)
    k1, k2 = dedekind_split(0.25, 1000.0, 10188.0, 7794.0)
    direct = compute_b1(prof, 0.25, 1000.0, 10188.0, 7794.0)
    assert math.isclose(k1 + k2 / n_k, direct, rel_tol=1e-12)


def test_dedekind_degree2_constants():
    prof = profile_dedekind(2, 5)
    bc1 = compute_a1(prof, dedekind_log_params())
    assert math.isclose(bc1.b, DED2_B1, rel_tol=REL)
    assert 0.949 + 0.0913 / 2 < bc1.b < 0.95 + 0.0914 / 2
    assert ceil_decimals(bc1.a / 2, 2) == 5.44
    bc2 = compute_a2(prof, dedekind_logder_params())
    assert math.isclose(bc2.b, DED2_B2, rel_tol=REL)
    assert 0.964 + 0.0961 / 2 < bc2.b < 0.965 + 0.0962 / 2
    assert math.isclose(bc2.a / 2, DED2_A2_PER_DEG, rel_tol=1e-11)
    assert ceil_decimals(bc2.a / 2, 3) == 33.711


def test_K_lower_bound_property():
    # K >= d/4 for every admissible (C1, t0'); all addends are nonnegative
    import random
    rng = random.Random(1234)
    profiles = [profile_zeta(), profile_dirichlet(7), profile_dedekind(3, 23)]
    for prof in profiles:
        for _ in range(200):
            c1 = rng.uniform(1e-6, 1.0)
            t0p = math.exp(rng.uniform(math.log(7779), math.log(1e12)))
            assert compute_K(prof, c1, t0p) >= prof.degree / 4


def test_b1_lower_bound_property():
    import random
    rng = random.Random(99)
    for prof in (profile_zeta(), profile_dedekind(2, 5)):
        for _ in range(100):
            c1 = rng.uniform(1e-3, 1.0)
            t1 = math.exp(rng.uniform(math.log(9000), math.log(1e9)))
            t2 = rng.uniform(7779, t1 * 0.9)
            b = compute_b1(prof, c1, 1.0, t1, t2)
            assert b >= prof.degree / (4 * prof.euler_order)


def test_a1_strictly_decreasing_in_T2():
    # on a window where b1 > 1 the T2-dependence is live; K decreases in t0'
    prof = profile_zeta()
    vals = []
    for t2 in range(1650, 2200, 50):
        p = BoundParams(C1=0.25, C2=0.5, C3=1000.0, T1=1e4, T2=float(t2), t0=1e4)
        bc = compute_a1(prof, p)
        assert bc.b > 1
        vals.append(bc.a)
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_a2_strictly_decreasing_in_T2():
    prof = profile_dedekind(2, 5)
    vals = []
    for t2 in range(7779, 7795, 3):
        p = BoundParams(C1=0.32, C2=0.64, C3=1000.0, T1=10188.0, T2=float(t2),
                        t0=12128.0, C4=0.64 / 2.0001)
        bc = compute_a2(prof, p)
        assert bc.b > 1
        vals.append(bc.a)
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_hypothesis_report_is_complete():
    rep_log = hypothesis_report(profile_zeta(), zeta_log_params(), TARGET_LOG)
    rep_der = hypothesis_report(profile_zeta(), zeta_logder_params(), TARGET_LOGDER)
    assert [c.name for c in rep_log] == [
        "C1-range", "C2-range", "C3-floor", "T1-floor", "T1-gap",
        "t0-floor", "T2-window", "T2-floor"]
    assert [c.name for c in rep_der] == [
        "C1-range", "C2-range", "C3-floor", "C4-range", "T1-floor", "T1-gap",
        "t0-floor", "T2-window", "T2-floor"]
    assert all(c.ok for c in rep_log)
    assert all(c.ok for c in rep_der)


@pytest.mark.parametrize("field,value,condition", [
    ("C1", 0.0, "C1-range"),
    ("C1", 1.01, "C1-range"),
    ("C2", 0.0, "C2-range"),
    ("C2", 0.51, "C2-range"),  # C2 > 2*C1 once C1 drops to 0.25
    ("C3", 0.99, "C3-floor"),
    ("T1", 1617.0, "T1-floor"),
    ("t0", 9999.0, "t0-floor"),
    ("T2", 7780.0, "T2-window"),  # window tops out at 7779.17
    ("T2", 1000.0, "T2-floor"),
])
def test_single_perturbation_rejected_log(field, value, condition):
    base = zeta_log_params().as_dict()
    base[field] = value
    with pytest.raises(HypothesisError) as err:
        compute_a1(profile_zeta(), BoundParams(**base))
    assert err.value.condition == condition


def test_single_perturbation_rejected_logder():
    base = zeta_logder_params()
    bad_c4 = BoundParams(**{**base.as_dict(), "C4": base.C2 / 2})
    with pytest.raises(HypothesisError) as err:
        compute_a2(profile_zeta(), bad_c4)
    assert err.value.condition == "C4-range"
    # derivative window needs 3/2 of margin, t0 = T1 = 9999 leaves only ~7777.2
    squeezed = BoundParams(C1=0.34, C2=0.67, C3=1000.0, T1=9999.0, T2=7778.0,
                           t0=9999.0, C4=0.67 / 2.0001)
    with pytest.raises(HypothesisError) as err:
        compute_a2(profile_zeta(), squeezed)
    assert err.value.condition == "T2-window"


def test_T1_gap_rejected_by_name():
    p = BoundParams(C1=0.25, C2=0.25, C3=1000.0, T1=1650.0, T2=7778.0, t0=1e4)
    with pytest.raises(HypothesisError) as err:
        compute_a1(profile_zeta(), p)
    assert err.value.condition == "T1-gap"


def test_each_hypothesis_evaluated_once(monkeypatch):
    # the statement check is the only check: the formulas below it take
    # checked inputs and evaluate no predicate
    counts = Counter()

    def counted(name, predicate):
        def evaluate(**quantities):
            counts[name] += 1
            return predicate(**quantities)
        return evaluate

    monkeypatch.setattr(constants, "HYPOTHESES", tuple(
        (name, counted(name, predicate))
        for name, predicate in constants.HYPOTHESES))

    def evaluations(call, *args):
        counts.clear()
        call(*args)
        return dict(counts)

    once = {target: dict.fromkeys(names, 1)
            for target, names in STATEMENT_HYPOTHESES.items()}
    zeta = profile_zeta()
    for target, params in ((TARGET_LOG, zeta_log_params()),
                           (TARGET_LOGDER, zeta_logder_params())):
        assert evaluations(constants_report, zeta, params, target) == once[target]
    assert evaluations(compute_a1, zeta, zeta_log_params()) == once[TARGET_LOG]
    assert evaluations(compute_a2, zeta, zeta_logder_params()) == once[TARGET_LOGDER]
    assert evaluations(compute_b1, zeta, 0.25, 1000.0, 1e4, 7778.0) == {}
    assert evaluations(compute_K, zeta, 0.25, 7778.0) == {}
    assert evaluations(dedekind_split, 0.25, 1000.0, 10188.0, 7794.0) == {}


def test_elementary_bounds_formula():
    m, B, c, t, t0 = 1, 0.3349, 1.0, 2e4, 1e4
    log_b, logder_b = elementary_bounds(m, B, c, t, t0)
    gamma = 0.5772156649015329
    assert math.isclose(
        log_b, logloglog(t) + math.log(1 / B) + gamma * B / loglog(t0),
        rel_tol=1e-13)
    assert math.isclose(logder_b, (1 / B) * loglog(t), rel_tol=1e-15)
    # scales linearly with the Euler order
    log_b3, logder_b3 = elementary_bounds(3, B, c, t, t0)
    assert math.isclose(log_b3, 3 * log_b, rel_tol=1e-15)
    assert math.isclose(logder_b3, 3 * logder_b, rel_tol=1e-15)
    with pytest.raises(HypothesisError):
        elementary_bounds(1, 0.0, 1.0, 2e4, 1e4)
    with pytest.raises(HypothesisError):
        elementary_bounds(1, 0.3349, 1.0, 5e3, 1e4)


def test_elementary_t0_floor_is_not_the_table_t0_floor():
    # t0 <= e^e breaks the iterated logs; the table's "t0-floor" is t0 >= T1
    with pytest.raises(HypothesisError) as exc:
        elementary_bounds(1, 0.3349, 1.0, 20.0, 10.0)
    assert exc.value.condition == "t0-loglog-floor"


def test_iterated_log_domain_guards():
    for fn in (loglog, logloglog):
        with pytest.raises(DomainError):
            fn(math.e)
        with pytest.raises(DomainError):
            fn(1.0)
        fn(math.e + 1e-9)
    assert logplus(0.5) == 0.0
    assert logplus(1.0) == 0.0
    assert math.isclose(logplus(math.e), 1.0, rel_tol=1e-15)
    with pytest.raises(DomainError):
        logplus(0.0)


def test_ceil_helpers():
    assert ceil_decimals(5.431, 2) == 5.44
    assert ceil_decimals(5.44, 2) == 5.44
    assert ceil_decimals(-1.234, 2) == -1.23
    assert ceil_sigfigs(1.9325958832324296e14, 3) == 1.94e14
    assert ceil_sigfigs(555.70341243109725, 5) == 555.71
    assert ceil_sigfigs(0.0, 3) == 0.0
    with pytest.raises(DomainError):
        ceil_sigfigs(1.0, 0)


def test_constants_report_structure():
    rep = constants_report(profile_zeta(), zeta_log_params(), TARGET_LOG)
    assert rep["hypotheses_ok"] is True
    assert rep["constants"]["a_display"] == 5.44
    assert rep["parameters"]["C1"] == 0.25
    assert len(rep["hypotheses"]) == 8
    bad = constants_report(
        profile_zeta(),
        BoundParams(C1=0.25, C2=0.5, C3=1000.0, T1=1e4, T2=7780.0, t0=1e4),
        TARGET_LOG)
    assert bad["hypotheses_ok"] is False
    assert "constants" not in bad


def test_check_hypotheses_rejects_unknown_name_and_missing_quantity():
    from nearone.constants import check_hypotheses
    with pytest.raises(DomainError, match="T1-flor"):
        check_hypotheses(("C3-floor", "T1-flor"), C3=1000.0, T1=1e4)
    # the T1-floor has no default edge, profile or shift to fall back on
    with pytest.raises(TypeError):
        check_hypotheses(("T1-floor",), C3=1000.0, T1=1e4)
    [check] = check_hypotheses(("T1-floor",), C3=1000.0, T1=1e4, edge=0.5,
                               m_over_d=1.0, shift=0)
    assert check.ok


def test_edge_floor_saturates_past_the_float_range():
    # exp(2 * 3.2825) = 710.1 lies past the largest finite exp argument
    assert edge_floor(3.2825, 0) == math.inf
    assert edge_floor(3.2825, 1) == math.inf
    params = BoundParams(C1=0.25, C2=3.2825, C3=1000.0, T1=1e4, T2=7778.0, t0=1e4)
    checks = {ch.name: ch for ch in hypothesis_report(profile_zeta(), params,
                                                      TARGET_LOG)}
    assert not checks["C2-range"].ok
    assert not checks["T1-floor"].ok
    assert checks["T1-floor"].detail.startswith("need T1 >= inf")


def test_ceil_rounding_exact_for_huge_values():
    assert ceil_decimals(1e300, 2) == 1e300
    assert ceil_decimals(1.7976931348623157e308, 3) == 1.7976931348623157e308
    assert ceil_decimals(5e-324, 2) == 0.01
    assert ceil_decimals(999.999, 2) == 1000.0
    assert ceil_sigfigs(1e300, 40) == 1e300
    assert ceil_sigfigs(1.2345e300, 3) == 1.24e300


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_ceil_rounding_rejects_non_finite(x):
    with pytest.raises(DomainError):
        ceil_decimals(x, 2)
    with pytest.raises(DomainError):
        ceil_sigfigs(x, 3)


def test_ceil_rounding_past_the_largest_float_fails_by_value():
    with pytest.raises(DomainError, match="1.7976931348623157e\\+308"):
        ceil_sigfigs(1.7976931348623157e308, 3)
    with pytest.raises(DomainError, match="1.7976931348623157e\\+308"):
        ceil_decimals(1.7976931348623157e308, -306)
