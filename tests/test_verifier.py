"""Tests for the empirical bound checker: grids, reports, edge bounds.

The single-sample reference value was computed with mpmath at 40 digits.
"""

import math

import pytest

from nearone.errors import ConvergenceError, DomainError
from nearone.verifier import (
    DISPLAY_A1,
    DISPLAY_A2,
    DISPLAY_B1,
    DISPLAY_B2,
    LOG_REGION,
    LOGDER_REGION,
    SampleGrid,
    SigmaMode,
    T_CEILING,
    T_FLOOR,
    _eval_chunk,
    _halton,
    build_grid,
    check_log_bound,
    check_logder_bound,
    default_verification,
    strip_edges,
)

# |log|zeta(0.75 + 10^4 i)|| at 30 digits
OBSERVED_075_1E4 = 0.452251483010859781317347315354


def test_halton_first_terms():
    assert [_halton(i, 2) for i in range(1, 5)] == [0.5, 0.25, 0.75, 0.125]
    assert [_halton(i, 3) for i in range(1, 4)] == pytest.approx(
        [1 / 3, 2 / 3, 1 / 9], abs=1e-15)


def test_build_grid_deterministic_and_admissible():
    g1 = build_grid(40, LOG_REGION, SigmaMode.INTERIOR_GRID, seed=7)
    g2 = build_grid(40, LOG_REGION, SigmaMode.INTERIOR_GRID, seed=7)
    assert g1.t_values == g2.t_values
    assert g1.sigma_values == g2.sigma_values
    g3 = build_grid(40, LOG_REGION, SigmaMode.INTERIOR_GRID, seed=8)
    assert g3.t_values != g1.t_values
    for sigma, t in g1.samples():
        assert T_FLOOR <= t <= T_CEILING
        lo, hi = strip_edges(LOG_REGION, t)
        assert lo <= sigma <= hi


def test_edges_mode_alternates_boundaries():
    g = build_grid(10, LOGDER_REGION, SigmaMode.REGION_EDGES, seed=0)
    for k, (sigma, t) in enumerate(g.samples()):
        lo, hi = strip_edges(LOGDER_REGION, t)
        assert sigma == (lo if k % 2 == 0 else hi)


def test_grid_invariants_enforced():
    with pytest.raises(DomainError):
        build_grid(0, LOG_REGION, SigmaMode.INTERIOR_GRID)
    with pytest.raises(DomainError):
        build_grid(4, LOG_REGION, SigmaMode.INTERIOR_GRID, seed=-1)
    with pytest.raises(DomainError):
        build_grid(4, (0.0, 0.5, 1.0), SigmaMode.INTERIOR_GRID)
    with pytest.raises(DomainError):
        SampleGrid(t_values=(1.0e4, 2.0e4), sigma_values=(0.8,),
                   sigma_mode=SigmaMode.INTERIOR_GRID, region=LOG_REGION)
    with pytest.raises(DomainError):
        SampleGrid(t_values=(5.0e3,), sigma_values=(0.8,),
                   sigma_mode=SigmaMode.INTERIOR_GRID, region=LOG_REGION)
    with pytest.raises(DomainError):
        SampleGrid(t_values=(1.0e4,), sigma_values=(0.6,),
                   sigma_mode=SigmaMode.INTERIOR_GRID, region=LOG_REGION)
    with pytest.raises(DomainError):
        SampleGrid(t_values=(), sigma_values=(),
                   sigma_mode=SigmaMode.INTERIOR_GRID, region=LOG_REGION)


def test_single_sample_against_oracle():
    grid = SampleGrid(t_values=(1.0e4,), sigma_values=(0.75,),
                      sigma_mode=SigmaMode.INTERIOR_GRID, region=LOG_REGION)
    rep = check_log_bound(grid, DISPLAY_A1, DISPLAY_B1)
    rec = rep["records"][0]
    assert rec["observed"] == pytest.approx(OBSERVED_075_1E4, abs=2e-6)
    L = math.log(1.0e4)
    expected_bound = DISPLAY_A1 * (DISPLAY_B1 * L) ** 0.5 * math.log(L)
    assert rec["bound"] == pytest.approx(expected_bound, rel=1e-12)
    assert rec["ratio"] == pytest.approx(rec["bound"] / rec["observed"], rel=1e-12)
    assert rec["ok"]


def test_log_bound_200_samples_zero_violations():
    grid = build_grid(200, LOG_REGION, SigmaMode.INTERIOR_GRID, seed=0)
    rep = check_log_bound(grid, DISPLAY_A1, DISPLAY_B1)
    assert rep["samples"] == 200
    assert rep["violations"] == 0
    assert rep["first_violation"] is None
    assert rep["min_ratio"] > 1.0
    assert rep["median_ratio"] >= rep["min_ratio"]


def test_logder_bound_200_samples_zero_violations():
    grid = build_grid(200, LOGDER_REGION, SigmaMode.INTERIOR_GRID, seed=0)
    rep = check_logder_bound(grid, DISPLAY_A2, DISPLAY_B2)
    assert rep["samples"] == 200
    assert rep["violations"] == 0
    assert rep["min_ratio"] > 1.0


def test_right_edge_dominated_by_elementary_bound():
    grid = build_grid(40, LOGDER_REGION, SigmaMode.REGION_EDGES, seed=0)
    rep = check_logder_bound(grid, DISPLAY_A2, DISPLAY_B2)
    assert rep["elementary_checked"] == 20
    assert rep["elementary_violations"] == 0
    edge_records = [r for r in rep["records"] if "elementary_bound" in r]
    assert len(edge_records) == 20
    for r in edge_records:
        assert r["observed"] <= r["elementary_bound"]
        # the unconditional right-edge bound is itself below the tested one
        assert r["elementary_bound"] <= r["bound"]


def test_conjugate_sample_gives_identical_observed():
    task_pos = ("logder", 1.0, 12345.0, DISPLAY_A2, DISPLAY_B2, *LOGDER_REGION)
    task_neg = ("logder", 1.0, -12345.0, DISPLAY_A2, DISPLAY_B2, *LOGDER_REGION)
    rec_pos = _eval_chunk([task_pos])[0]
    rec_neg = _eval_chunk([task_neg])[0]
    assert rec_neg["observed"] == rec_pos["observed"]
    assert rec_neg["bound"] == rec_pos["bound"]


def test_worker_count_does_not_change_report():
    grid = build_grid(24, LOG_REGION, SigmaMode.INTERIOR_GRID, seed=3)
    rep1 = check_log_bound(grid, DISPLAY_A1, DISPLAY_B1, workers=1)
    rep2 = check_log_bound(grid, DISPLAY_A1, DISPLAY_B1, workers=2)
    assert rep1 == rep2


def test_report_is_deterministic():
    grid = build_grid(12, LOGDER_REGION, SigmaMode.INTERIOR_GRID, seed=5)
    rep1 = check_logder_bound(grid, DISPLAY_A2, DISPLAY_B2)
    rep2 = check_logder_bound(grid, DISPLAY_A2, DISPLAY_B2)
    assert rep1 == rep2


def test_untrue_constant_is_flagged():
    grid = build_grid(10, LOG_REGION, SigmaMode.INTERIOR_GRID, seed=0)
    rep = check_log_bound(grid, 1e-3, DISPLAY_B1)
    assert rep["violations"] > 0
    assert rep["min_ratio"] < 1.0
    assert rep["first_violation"] is not None
    assert not rep["first_violation"]["ok"]


def test_engine_failure_names_the_sample(monkeypatch):
    grid = SampleGrid(t_values=(2.0e4,), sigma_values=(0.8,),
                      sigma_mode=SigmaMode.INTERIOR_GRID, region=LOG_REGION)
    monkeypatch.setattr("nearone.verifier.VERIFY_ABS_TOL", 1e-13)
    with pytest.raises(ConvergenceError, match="sample \\(sigma=0.8"):
        check_log_bound(grid, DISPLAY_A1, DISPLAY_B1)


def test_invalid_check_arguments():
    grid = build_grid(4, LOG_REGION, SigmaMode.INTERIOR_GRID)
    with pytest.raises(DomainError):
        check_log_bound(grid, -1.0, DISPLAY_B1)
    with pytest.raises(DomainError):
        check_log_bound(grid, DISPLAY_A1, DISPLAY_B1, workers=0)


def test_default_verification_rollup():
    rep = default_verification(samples=16)
    assert rep["total_samples"] == 16
    assert len(rep["checks"]) == 4
    modes = [(c["check"], c["sigma_mode"]) for c in rep["checks"]]
    assert modes == [
        ("log-zeta", "interior-grid"), ("log-zeta", "region-edges"),
        ("logder-zeta", "interior-grid"), ("logder-zeta", "region-edges")]
    assert rep["total_violations"] == 0
    assert rep["all_ok"]
    with pytest.raises(DomainError):
        default_verification(samples=3)


def test_sample_budget_not_divisible_by_four_is_spent_in_full():
    rep = default_verification(samples=7)
    assert rep["total_samples"] == 7
    assert [c["samples"] for c in rep["checks"]] == [2, 2, 2, 1]
    # each grid extends the one of a smaller budget
    rep4 = default_verification(samples=4)
    for check, check4 in zip(rep["checks"], rep4["checks"]):
        assert check["records"][0] == check4["records"][0]


def test_batch_wide_engine_error_names_no_sample(monkeypatch):
    monkeypatch.setattr("nearone.verifier.VERIFY_ABS_TOL", 1e-14)
    with pytest.raises(DomainError) as exc:
        default_verification(samples=4)
    assert str(exc.value).startswith("abs_tol must be >= ")


def _default_tasks(samples):
    """The tasks default_verification hands to the chunker."""
    tasks = []
    for kind, region, seed, mode in (
            ("log", LOG_REGION, 0, SigmaMode.INTERIOR_GRID),
            ("log", LOG_REGION, 1000, SigmaMode.REGION_EDGES),
            ("logder", LOGDER_REGION, 2000, SigmaMode.INTERIOR_GRID),
            ("logder", LOGDER_REGION, 3000, SigmaMode.REGION_EDGES)):
        grid = build_grid(samples // 4, region, mode, seed=seed)
        tasks += [(kind, sigma, t, 1.0, 1.0, *region)
                  for sigma, t in grid.samples()]
    return tasks


def test_chunks_respect_the_cap_and_cover_every_task():
    from nearone.verifier import CHUNK_SAMPLES, _chunks
    tasks = _default_tasks(400)
    runs = _chunks(tasks)
    assert sorted(i for run in runs for i in run) == list(range(len(tasks)))
    # 200 tasks of each kind: six full runs and one of 8 per kind
    assert CHUNK_SAMPLES == 32
    assert [len(run) for run in runs] == 2 * ([32] * 6 + [8])
    for run in runs:
        assert len({tasks[i][0] for i in run}) == 1
        heights = [abs(tasks[i][2]) for i in run]
        assert heights == sorted(heights)
    # each kind's runs follow one another in ascending height
    for kind in ("log", "logder"):
        order = [i for run in runs for i in run if tasks[i][0] == kind]
        heights = [abs(tasks[i][2]) for i in order]
        assert heights == sorted(heights)
    assert _chunks(tasks) == runs
    assert _chunks(list(reversed(tasks))) == [
        [len(tasks) - 1 - i for i in run] for run in runs]


def test_every_sample_agrees_with_its_own_engine_call():
    # a chunk's shared N moves a sample's observed value only within the
    # two certified engine slacks of the chunk's and its own call
    report = default_verification(samples=400)
    regions = {"log-zeta": ("log", LOG_REGION, DISPLAY_A1, DISPLAY_B1),
               "logder-zeta": ("logder", LOGDER_REGION, DISPLAY_A2,
                               DISPLAY_B2)}
    checked = 0
    for check in report["checks"]:
        kind, region, a, b = regions[check["check"]]
        for rec in check["records"]:
            own, = _eval_chunk([(kind, rec["sigma"], rec["t"], a, b, *region)])
            assert (abs(own["observed"] - rec["observed"])
                    <= own["engine_slack"] + rec["engine_slack"]), rec
            assert own["ok"] == rec["ok"]
            checked += 1
    assert checked == 400


def test_worker_count_does_not_change_a_report_of_many_chunks():
    rep1 = default_verification(samples=400, workers=1)
    rep2 = default_verification(samples=400, workers=2)
    assert rep1 == rep2
    assert rep1["all_ok"]


def test_failing_point_inside_a_chunk_is_named(monkeypatch):
    grid = SampleGrid(t_values=(1.0e4, 1.0001e4, 1.2e4),
                      sigma_values=(0.8, 0.8, 0.8),
                      sigma_mode=SigmaMode.INTERIOR_GRID, region=LOG_REGION)
    # one chunk; only the highest point's rounding floor exceeds abs_tol
    with monkeypatch.context() as patch:
        patch.setattr("nearone.verifier.VERIFY_ABS_TOL", 9.0e-10)
        with pytest.raises(ConvergenceError,
                           match="sample \\(sigma=0.8, t=12000.0\\)"):
            check_log_bound(grid, DISPLAY_A1, DISPLAY_B1)
    tasks = [("log", sigma, t, DISPLAY_A1, DISPLAY_B1, *LOG_REGION)
             for sigma, t in ((0.8, 1.0e4), (0.3, 1.0001e4), (0.8, 1.2e4))]
    from nearone.verifier import _eval_chunk
    with pytest.raises(DomainError, match="sample \\(sigma=0.3, t=10001.0\\)"):
        _eval_chunk(tasks)
