"""End-to-end tests of the command-line interface.

Everything runs in-process through main(argv) so exit codes and emitted
JSON are asserted directly.
"""

import json
import math

import pytest

from nearone.cli import main

INV_INTEGRAL_0_10 = 10.73523409961820064373
EPS0_ORACLE = 0.998851918717975160454122


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_constants_a1_bare_reproduces_published(capsys):
    code, rep = run_cli(capsys, ["constants", "a1"])
    assert code == 0
    assert rep["hypotheses_ok"]
    assert rep["constants"]["a"] <= 5.44
    assert rep["constants"]["a_display"] == 5.44
    assert 0.95 < rep["constants"]["b"] < 0.951
    assert rep["parameters"] == {"C1": 0.25, "C2": 0.5, "C3": 1000.0,
                                 "T1": 1e4, "T2": 7778.0, "t0": 1e4}
    assert rep["family"] == {"family": "zeta"}


def test_constants_a2_bare_reproduces_published(capsys):
    code, rep = run_cli(capsys, ["constants", "a2"])
    assert code == 0
    assert rep["constants"]["a_display"] == 33.281
    assert 0.97 < rep["constants"]["b"] < 0.971
    assert rep["parameters"]["C4"] == 0.67 / 2.0001


def test_constants_dedekind_reports_split(capsys):
    code, rep = run_cli(capsys, ["constants", "a1", "--family", "dedekind",
                                 "--abs-disc", "5"])
    assert code == 0
    degree = rep["profile"]["degree"]
    assert degree == 2.0
    assert math.ceil(100 * rep["constants"]["a"] / degree) / 100 == 5.44
    split = rep["b_split"]
    assert split["base"] == pytest.approx(0.9498338898804869, rel=1e-12)
    assert split["per_inverse_degree"] == pytest.approx(
        0.0913957270968276, rel=1e-12)
    assert rep["constants"]["b"] == pytest.approx(
        split["base"] + split["per_inverse_degree"] / degree, rel=1e-12)


@pytest.mark.parametrize("which,display,point", [
    ("a1", 5.44, (0.25, 0.5)),
    ("a2", 33.281, (0.34, 0.67)),
])
def test_dirichlet_bare_reproduces_published(capsys, which, display, point):
    code, rep = run_cli(capsys, ["constants", which, "--family", "dirichlet"])
    assert code == 0
    assert rep["constants"]["a_display"] == display
    code, rep = run_cli(capsys, ["optimize", which, "--family", "dirichlet"])
    assert code == 0
    opt = rep["optimum"]
    assert (opt["parameters"]["C1"], opt["parameters"]["C2"]) == point
    assert opt["a_display"] == display


def test_constants_hypothesis_failure_exits_one_with_report(capsys):
    code = main(["constants", "a1", "--T2", "99999999"])
    captured = capsys.readouterr()
    assert code == 1
    assert "T2-window" in captured.err
    rep = json.loads(captured.out)
    assert not rep["hypotheses_ok"]
    assert "constants" not in rep


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-subcommand"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["constants", "a1", "--nope", "1"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_bad_threads_value_exits_64(capsys):
    code = main(["integrate", "inv-zeta", "--from", "0", "--to", "0",
                 "--threads", "pancake"])
    assert code == 64
    assert "--threads" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_integrate_empty_interval_is_zero(capsys):
    code, rep = run_cli(capsys, ["integrate", "inv-zeta",
                                 "--from", "0", "--to", "0"])
    assert code == 0
    assert rep["result"]["value"] == 0.0
    assert rep["result"]["evaluations"] == 0
    assert rep["parameters"]["from"] == 0.0
    assert rep["parameters"]["to"] == 0.0


def test_integrate_short_range_matches_oracle(capsys):
    code, rep = run_cli(capsys, ["integrate", "inv-zeta",
                                 "--from", "0", "--to", "10"])
    assert code == 0
    res = rep["result"]
    assert res["value"] == pytest.approx(INV_INTEGRAL_0_10, rel=1e-6)
    assert abs(res["value"] - INV_INTEGRAL_0_10) <= res["error_estimate"]
    assert res["certified_upper"] == res["value"] + res["error_estimate"]
    assert res["panels"] == 1


def test_integrate_nonconvergence_exits_two(capsys):
    code = main(["integrate", "inv-zeta", "--from", "0", "--to", "10",
                 "--rel-tol", "1e-14", "--max-levels", "3"])
    assert code == 2
    assert "non-convergence" in capsys.readouterr().err


def test_mertens_bound_bare_reproduces_published(capsys):
    code, rep = run_cli(capsys, ["mertens", "bound"])
    assert code == 0
    assert rep["parameters"]["epsilon0"] == pytest.approx(EPS0_ORACLE, rel=1e-12)
    assert rep["display"] == {"kappa": 0.99, "coef_kappa": 555.71,
                              "coef_sigma0": 1.94e14}
    assert rep["m_transfer"] == {"A_m": 56126.71, "B_m": 9.894e15}
    assert rep["crossover_log10"] == pytest.approx(714.391, abs=1e-3)
    assert 710.0 <= rep["bound"]["log10_x_min"] <= 712.0
    assert rep["bound"]["kappa"] <= 0.99


def test_mertens_bound_explicit_epsilon0(capsys):
    code, rep = run_cli(capsys, ["mertens", "bound", "--epsilon0", "0.5"])
    assert code == 0
    assert rep["parameters"]["epsilon0"] == 0.5
    assert rep["bound"]["kappa"] == pytest.approx((0.98 + 0.5) / 1.5, rel=1e-15)


def test_mertens_inapplicable_epsilon0_exits_one(capsys):
    code = main(["mertens", "bound", "--sigma0", "0.68"])
    assert code == 1
    assert "epsilon0-applicability" in capsys.readouterr().err


def test_mertens_crossover_null_is_success(capsys):
    code, rep = run_cli(capsys, ["mertens", "crossover", "--A", "0.5",
                                 "--a", "0.99", "--B", "0", "--b", "0.5"])
    assert code == 0
    assert rep["crossover_log10"] is None
    assert "above 1" in rep["reason"]


def test_mertens_derive_m(capsys):
    code, rep = run_cli(capsys, ["mertens", "derive-m"])
    assert code == 0
    assert rep["A_m"] == 56126.71
    assert rep["B_m"] == 9.894e15


def test_mertens_sieve_verify_small(capsys):
    code, rep = run_cli(capsys, ["mertens", "sieve-verify",
                                 "--limit", "10000"])
    assert code == 0
    assert rep["violations"] == 0
    assert rep["M_spot"] == {"10": -1, "100": 1}


def test_verify_subcommand_with_csv(capsys, tmp_path):
    path = tmp_path / "records.csv"
    code, rep = run_cli(capsys, ["verify", "--samples", "8",
                                 "--csv", str(path)])
    assert code == 0
    assert rep["all_ok"]
    assert rep["total_samples"] == 8
    lines = path.read_text().splitlines()
    assert lines[0] == "check,sigma_mode,sigma,t,observed,bound,ratio"
    assert len(lines) == 9


def test_output_flag_writes_canonical_json(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(["--output", str(path), "constants", "a1"])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = path.read_text()
    rep = json.loads(text)
    assert text == json.dumps(rep, indent=2, sort_keys=True) + "\n"
    assert rep["constants"]["a_display"] == 5.44


def test_threads_resolution(capsys, monkeypatch):
    monkeypatch.setenv("NEARONE_WORKERS", "2")
    code, rep = run_cli(capsys, ["verify", "--samples", "4"])
    assert code == 0
    assert rep["parameters"]["workers"] == 2
    code, rep = run_cli(capsys, ["verify", "--samples", "4",
                                 "--threads", "3"])
    assert rep["parameters"]["workers"] == 3
    code, rep = run_cli(capsys, ["verify", "--samples", "4",
                                 "--threads", "auto"])
    assert rep["parameters"]["workers"] >= 1


def test_optimize_cli_coarse_grid(capsys):
    code, rep = run_cli(capsys, ["optimize", "a1", "--grid-step", "0.05"])
    assert code == 0
    opt = rep["optimum"]
    assert opt["parameters"]["C1"] == 0.25
    assert opt["parameters"]["C2"] == 0.5
    assert opt["a_display"] == 5.44
    assert rep["search"]["grid_step"] == 0.05


def test_profiles_dirichlet(capsys):
    code, rep = run_cli(capsys, ["profiles", "--family", "dirichlet",
                                 "--q", "5"])
    assert code == 0
    assert rep["profile"]["conductor_scale"] == 5.0
    assert rep["prefactor"] < rep["prefactor_ceiling"] == 1.0


def test_constants_overflowing_edge_fails_c2_range(capsys):
    code, rep = run_cli(capsys, ["constants", "a1", "--C2", "3.2825"])
    assert code == 1
    failed = [ch for ch in rep["hypotheses"] if not ch["ok"]]
    assert failed[0]["name"] == "C2-range"
    t1_floor = next(ch for ch in failed if ch["name"] == "T1-floor")
    assert t1_floor["detail"].startswith("need T1 >= inf")
    assert "constants" not in rep


@pytest.mark.parametrize("argv,message", [
    (["profiles", "--family", "dirichlet", "--alpha", "400"],
     "exp(2 alpha) = inf"),
    (["profiles", "--family", "dedekind", "--alpha", "400"],
     "exp(2 alpha) = inf"),
    (["profiles", "--family", "dedekind", "--alpha", "1e-300"],
     "dedekind-prefactor: prefactor inf"),
    (["integrate", "inv-zeta", "--from", "0", "--to", "100",
      "--panel-width", "1e-300"], "resource limit exceeded"),
    (["integrate", "envelope", "--panel-width-v", "1e-300"],
     "resource limit exceeded"),
])
def test_out_of_range_input_fails_by_name(capsys, argv, message):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [["constants", "a1", "--C2", "1e-300"],
                                  ["constants", "a2", "--C4", "1e-300"]])
def test_huge_constants_round_for_display(capsys, argv):
    code, rep = run_cli(capsys, argv)
    assert code == 0
    constants = rep["constants"]
    assert constants["a"] > 1e299
    assert constants["a_display"] >= constants["a"]
    assert constants["b_display"] >= constants["b"]


@pytest.mark.parametrize("argv", [["constants", "a1", "--C2", "nan"],
                                  ["constants", "a1", "--T1", "nan"],
                                  ["constants", "a2", "--C4", "nan"],
                                  ["constants", "a2", "--C4", "-inf"]])
def test_non_finite_float_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert argv[2] in err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("argv", [["constants", "a1"], ["constants", "a2"],
                                  ["optimize", "a1"], ["optimize", "a2"],
                                  ["integrate", "envelope"],
                                  ["mertens", "bound"], ["mertens", "derive-m"],
                                  ["mertens", "crossover"], ["verify"]])
def test_bare_reports_are_strict_json(capsys, argv):
    assert main(argv) == 0
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
