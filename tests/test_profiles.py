from __future__ import annotations

import math

import pytest

from nearone.errors import DomainError, HypothesisError
from nearone.profiles import (
    ALPHA_DEFAULT,
    DEDEKIND_AMPLITUDE,
    DEDEKIND_SCALE,
    GAMMA_EULER,
    T0_DEFAULT,
    LFunctionProfile,
    profile_dedekind,
    profile_dirichlet,
    profile_zeta,
    rademacher_prefactor_dedekind,
    rademacher_prefactor_dirichlet,
)

# Frozen 50-digit recomputations of the two prefactors at the defaults.
PREF_DIRICHLET = 0.9691991376295132690948934
PREF_DEDEKIND = {
    2: 1.8935097434142467848,
    3: 1.8928367600428971944,
    5: 1.8914915107820535333,
    10: 1.8881325689756771969,
}


def test_gamma_euler_literal():
    # first 17 digits of the Euler-Mascheroni constant survive the float
    assert math.isclose(GAMMA_EULER, 0.5772156649015329, rel_tol=1e-15)


def test_dirichlet_prefactor_matches_oracle():
    v = rademacher_prefactor_dirichlet()
    assert math.isclose(v, PREF_DIRICHLET, rel_tol=1e-13)
    assert v <= 1


@pytest.mark.parametrize("n_k", sorted(PREF_DEDEKIND))
def test_dedekind_prefactor_matches_oracle(n_k):
    v = rademacher_prefactor_dedekind(n_k)
    assert math.isclose(v, PREF_DEDEKIND[n_k], rel_tol=1e-13)
    assert v <= DEDEKIND_AMPLITUDE


def test_dedekind_prefactor_decreases_with_degree():
    vals = [rademacher_prefactor_dedekind(n) for n in range(2, 30)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # the per-degree ratio stays below 1, so no degree can break the cap
    assert vals[-1] < DEDEKIND_AMPLITUDE


def test_prefactors_reject_small_t0():
    floor = math.exp(2 * ALPHA_DEFAULT)
    with pytest.raises(DomainError):
        rademacher_prefactor_dirichlet(t0=floor - 1)
    with pytest.raises(DomainError):
        rademacher_prefactor_dedekind(2, t0=floor - 1)
    # at the floor itself both are defined
    rademacher_prefactor_dirichlet(t0=floor)
    rademacher_prefactor_dedekind(2, t0=floor)


def test_prefactor_stays_below_one_on_t0_sweep():
    for t0 in (T0_DEFAULT, 1e4, 1e5, 1e6, 1e8):
        assert rademacher_prefactor_dirichlet(ALPHA_DEFAULT, t0) <= 1


def test_zeta_profile_fields():
    p = profile_zeta()
    assert (p.degree, p.euler_order, p.log_power) == (1, 1, 1)
    assert (p.amplitude, p.conductor_scale, p.min_height) == (1.0, 1.0, 50.0)


def test_dirichlet_profile_fields_and_guards():
    p = profile_dirichlet(101)
    assert p.conductor_scale == 101.0
    assert p.min_height == T0_DEFAULT
    with pytest.raises(DomainError):
        profile_dirichlet(2)
    # alpha large enough to push the prefactor over 1
    with pytest.raises(HypothesisError) as err:
        profile_dirichlet(3, alpha=5.0, t0=23000.0)
    assert err.value.condition == "dirichlet-prefactor"


def test_dedekind_profile_fields_and_guards():
    p = profile_dedekind(2, 5)
    assert p.degree == 2 and p.euler_order == 2 and p.log_power == 2
    assert p.amplitude == DEDEKIND_AMPLITUDE
    assert math.isclose(p.conductor_scale, DEDEKIND_SCALE * math.sqrt(5), rel_tol=1e-15)
    with pytest.raises(DomainError):
        profile_dedekind(1, 5)
    with pytest.raises(DomainError):
        profile_dedekind(2, 2)
    with pytest.raises(HypothesisError) as err:
        profile_dedekind(2, 5, alpha=5.0, t0=23000.0)
    assert err.value.condition == "dedekind-prefactor"


def test_profile_invariants_enforced():
    with pytest.raises(DomainError):
        LFunctionProfile(0.5, 1, 1, 1.0, 1.0, 50.0)
    with pytest.raises(DomainError):
        LFunctionProfile(1, 0, 1, 1.0, 1.0, 50.0)
    with pytest.raises(DomainError):
        LFunctionProfile(1, 1, 1, 0.0, 1.0, 50.0)
    with pytest.raises(DomainError):
        LFunctionProfile(1, 1, 1, 1.0, 0.5, 50.0)
    with pytest.raises(DomainError):
        LFunctionProfile(1, 1, 1, 1.0, 1.0, 2.0)


@pytest.mark.parametrize("family", ["dirichlet", "dedekind"])
def test_smoothing_floor_overflow_is_a_domain_error(family):
    """exp(2 alpha) past the float range is +inf, which every t0 fails."""
    with pytest.raises(DomainError, match=r"exp\(2 alpha\) = inf"):
        if family == "dirichlet":
            profile_dirichlet(3, alpha=400.0)
        else:
            profile_dedekind(2, 5, alpha=400.0)


def test_dedekind_prefactor_overflow_fails_by_name():
    assert rademacher_prefactor_dedekind(2, alpha=1e-300) == math.inf
    with pytest.raises(HypothesisError) as err:
        profile_dedekind(2, 5, alpha=1e-300)
    assert err.value.condition == "dedekind-prefactor"


@pytest.mark.parametrize("kw", [{"alpha": math.nan}, {"t0": math.nan}])
def test_nan_prefactor_fails_by_name(kw):
    with pytest.raises(HypothesisError) as err:
        profile_dirichlet(3, **kw)
    assert err.value.condition == "dirichlet-prefactor"
    with pytest.raises(HypothesisError) as err:
        profile_dedekind(2, 5, **kw)
    assert err.value.condition == "dedekind-prefactor"
