"""Tests for the empirical bound checker: grids, reports, edge bounds.

The single-sample reference value was computed with mpmath at 40 digits.
"""

import csv
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
    _eval_sample,
    _halton,
    build_grid,
    check_log_bound,
    check_logder_bound,
    default_verification,
    dump_samples_csv,
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
    task_pos = ("logder", 1.0, 12345.0, DISPLAY_A2, DISPLAY_B2,
                LOGDER_REGION[0], LOGDER_REGION[1], LOGDER_REGION[2], 1e-6)
    task_neg = ("logder", 1.0, -12345.0, DISPLAY_A2, DISPLAY_B2,
                LOGDER_REGION[0], LOGDER_REGION[1], LOGDER_REGION[2], 1e-6)
    rec_pos = _eval_sample(task_pos)
    rec_neg = _eval_sample(task_neg)
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


def test_engine_failure_names_the_sample():
    grid = SampleGrid(t_values=(2.0e4,), sigma_values=(0.8,),
                      sigma_mode=SigmaMode.INTERIOR_GRID, region=LOG_REGION)
    with pytest.raises(ConvergenceError, match="sample \\(sigma=0.8"):
        check_log_bound(grid, DISPLAY_A1, DISPLAY_B1, abs_tol=1e-13)


def test_invalid_check_arguments():
    grid = build_grid(4, LOG_REGION, SigmaMode.INTERIOR_GRID)
    with pytest.raises(DomainError):
        check_log_bound(grid, -1.0, DISPLAY_B1)
    with pytest.raises(DomainError):
        check_log_bound(grid, DISPLAY_A1, DISPLAY_B1, workers=0)
    with pytest.raises(DomainError):
        check_log_bound(grid, DISPLAY_A1, DISPLAY_B1, abs_tol=0.0)


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


def test_csv_dump_round_trips(tmp_path):
    grid = build_grid(6, LOG_REGION, SigmaMode.INTERIOR_GRID, seed=2)
    rep = check_log_bound(grid, DISPLAY_A1, DISPLAY_B1)
    path = tmp_path / "samples.csv"
    dump_samples_csv(rep, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sigma", "t", "observed", "bound", "ratio"]
    assert len(rows) == 7
    for row, rec in zip(rows[1:], rep["records"]):
        assert float(row[0]) == rec["sigma"]
        assert float(row[2]) == rec["observed"]
        assert float(row[3]) == rec["bound"]


def _default_tasks(samples):
    """The tasks default_verification hands to the chunker."""
    from nearone.verifier import VERIFY_ABS_TOL
    tasks = []
    for kind, region, seed, mode in (
            ("log", LOG_REGION, 0, SigmaMode.INTERIOR_GRID),
            ("log", LOG_REGION, 1000, SigmaMode.REGION_EDGES),
            ("logder", LOGDER_REGION, 2000, SigmaMode.INTERIOR_GRID),
            ("logder", LOGDER_REGION, 3000, SigmaMode.REGION_EDGES)):
        grid = build_grid(samples // 4, region, mode, seed=seed)
        tasks += [(kind, sigma, t, 1.0, 1.0, *region, VERIFY_ABS_TOL)
                  for sigma, t in grid.samples()]
    return tasks


def test_chunks_respect_the_cap_and_cover_every_task():
    from nearone.verifier import CHUNK_ELEMENTS, _chunks
    from nearone.zeta import truncation_point
    tasks = _default_tasks(400)
    runs = _chunks(tasks)
    assert sorted(i for run in runs for i in run) == list(range(len(tasks)))
    assert len(runs) > 4
    for run in runs:
        assert len({tasks[i][0] for i in run}) == 1
        heights = [abs(tasks[i][2]) for i in run]
        assert heights == sorted(heights)
        assert len(run) * truncation_point(heights[-1]) <= CHUNK_ELEMENTS
    assert _chunks(tasks) == runs


def test_worker_count_does_not_change_a_report_of_many_chunks():
    rep1 = default_verification(samples=400, workers=1)
    rep2 = default_verification(samples=400, workers=2)
    assert rep1 == rep2
    assert rep1["all_ok"]


def test_failing_point_inside_a_chunk_is_named():
    grid = SampleGrid(t_values=(1.0e4, 1.0001e4, 1.2e4),
                      sigma_values=(0.8, 0.8, 0.8),
                      sigma_mode=SigmaMode.INTERIOR_GRID, region=LOG_REGION)
    # one chunk; only the highest point's rounding floor exceeds abs_tol
    with pytest.raises(ConvergenceError,
                       match="sample \\(sigma=0.8, t=12000.0\\)"):
        check_log_bound(grid, DISPLAY_A1, DISPLAY_B1, abs_tol=1.05e-9)
    tasks = [("log", sigma, t, DISPLAY_A1, DISPLAY_B1, *LOG_REGION, 1e-6)
             for sigma, t in ((0.8, 1.0e4), (0.3, 1.0001e4), (0.8, 1.2e4))]
    from nearone.verifier import _eval_chunk
    with pytest.raises(DomainError, match="sample \\(sigma=0.3, t=10001.0\\)"):
        _eval_chunk(tasks)
