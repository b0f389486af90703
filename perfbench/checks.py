"""Output checks of each workload against computations made apart from the program.

Every check returns (name, ok, detail).  Nothing here imports nearone; the
references come from reference.py (mpmath, scipy, a plain Mobius sieve) and
from the paper's published numbers.  Checks run after the worker has ended,
outside every timed span.
"""

from __future__ import annotations

import csv
import json
import math
import random
from decimal import ROUND_CEILING, Decimal
from pathlib import Path

import reference
import workloads

REF_INV_ZETA = Path(__file__).with_name("ref_inv_zeta.json")
ENGINE_REL_ERR = 1e-8        # relative error of each 1/|zeta| value
LIVE_PANELS = 2              # inv-zeta panels recomputed with mpmath per run
LIVE_SAMPLES = 6             # verifier samples recomputed with mpmath per run
SMALL_SIEVE = (200_000, 1_000_000)


def _ceil(x: float, places: int) -> float:
    return float(Decimal(repr(x)).quantize(Decimal(1).scaleb(-places),
                                           rounding=ROUND_CEILING))


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


def _report(op: dict) -> dict:
    return json.loads(op["stdout"])


def check_inv_zeta(ops: dict, seed: int, panel_csv: Path, tiny: bool) -> list:
    (op,) = ops.values()
    rep = _report(op)["result"]
    with open(panel_csv, newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    stored = json.loads(REF_INV_ZETA.read_text())
    ref = {(p["lo"], p["hi"]): p["value"] for p in stored["panels"]}
    rule_gap = stored["top_panel_rule_gap"]
    lo, hi = workloads.INV_ZETA_SLICE_TINY if tiny else workloads.INV_ZETA_SLICE
    want_panels = round((hi - lo) / workloads.INV_ZETA_PANEL)
    tol = lambda value, err: err + ENGINE_REL_ERR * abs(value) + rule_gap

    out = [("inv-zeta.panels", rep["panels"] == want_panels == len(rows),
            f"{rep['panels']} panels, {len(rows)} CSV rows, want {want_panels}"),
           ("inv-zeta.csv-sum",
            math.fsum(r["value"] for r in rows) == rep["value"],
            "per-panel CSV values sum exactly to the reported value")]
    worst = max(abs(r["value"] - ref[(r["lo"], r["hi"])])
                / tol(r["value"], r["error_estimate"]) for r in rows)
    out.append(("inv-zeta.stored-panels", worst <= 1.0,
                f"worst |program - GL96| / allowance = {worst:.3f} over "
                f"{len(rows)} panels ({stored['command']})"))
    ref_total = math.fsum(ref[(r["lo"], r["hi"])] for r in rows)
    allowance = (rep["error_estimate"] + ENGINE_REL_ERR * rep["value"]
                 + rule_gap * len(rows))
    out.append(("inv-zeta.stored-total",
                _close(rep["value"], ref_total, allowance),
                f"program {rep['value']!r} vs GL96 {ref_total!r}, "
                f"allowance {allowance:.3g}"))
    picks = random.Random(seed).sample(rows, 1 if tiny else LIVE_PANELS)
    for r in picks:
        live = reference.gl_inv_zeta_panel(workloads.INV_ZETA_SIGMA0,
                                           r["lo"], r["hi"])
        out.append((f"inv-zeta.live-panel[{r['lo']:g},{r['hi']:g}]",
                    _close(r["value"], live, tol(r["value"], r["error_estimate"])),
                    f"program {r['value']!r} vs mpmath GL96 {live!r}"))
    return out


def check_sieve(ops: dict, seed: int, tiny: bool) -> list:
    (op,) = ops.values()
    rep = _report(op)
    limit = workloads.SIEVE_LIMIT_TINY if tiny else workloads.SIEVE_LIMIT
    A, a, B, b = "555.71", "0.99", "1.94e14", "0.98"
    n = random.Random(seed).randint(*SMALL_SIEVE) if not tiny else 100_000
    r_M, r_m, r_triv = reference.mertens_max_ratios(
        n, float(A), float(a), float(B), float(b))
    at_least = lambda got, want: got >= want * (1.0 - 1e-12)
    return [
        ("sieve.limit", rep["limit"] == limit, f"limit {rep['limit']}"),
        ("sieve.violations", rep["violations"] == 0
         and rep["first_violation"] is None, f"{rep['violations']} violations"),
        ("sieve.M-spot", rep["M_spot"] == {"10": -1, "100": 1},
         f"M(10), M(100) = {rep['M_spot']}"),
        ("sieve.max-ratio-trivial", rep["max_ratio_trivial"] == 1.0,
         f"{rep['max_ratio_trivial']!r}, exactly 1 since M(1) = 1"),
        ("sieve.max-ratios",
         at_least(rep["max_ratio_M"], r_M) and at_least(rep["max_ratio_m"], r_m)
         and at_least(rep["max_ratio_trivial"], r_triv),
         f"program ({rep['max_ratio_M']:.6g}, {rep['max_ratio_m']:.6g}) >= "
         f"plain sieve to {n} ({r_M:.6g}, {r_m:.6g})"),
        ("sieve.m-transfer",
         (rep["A_m"], rep["B_m"]) == reference.m_transfer(A, a, B, b),
         f"A_m, B_m = {rep['A_m']!r}, {rep['B_m']!r}"),
    ]


def _check_constants(rep: dict, degree: float, a_want: float,
                     places: int) -> tuple[bool, str]:
    """The published a is per degree, rounded up at the given places."""
    a = rep["constants"]["a"] / degree
    return _ceil(a, places) == a_want, f"a/{degree:g} = {a!r} -> {a_want}"


def check_headline(ops: dict, seed: int, tiny: bool) -> list:
    out = []
    get = lambda *argv: _report(ops[argv]) if argv in ops else None

    for argv, degree, want, places in (
            (("constants", "a1"), 1, 5.44, 2),
            (("constants", "a2"), 1, 33.281, 3),
            (("constants", "a1", "--family", "dedekind", "--abs-disc", "5"),
             2, 5.44, 2),
            (("constants", "a2", "--family", "dedekind", "--abs-disc", "5"),
             2, 33.711, 3)):
        ok, detail = _check_constants(get(*argv), degree, want, places)
        out.append((" ".join(argv), ok, detail))
    for argv, (want, places) in zip(workloads.EXPECTED_FAILURES,
                                    ((5.44, 2), (33.281, 3))):
        op = ops[argv]
        if op["code"] == 0:   # once the defaults are mended, check the values
            ok, detail = _check_constants(_report(op), 1, want, places)
        else:
            ok, detail = op["code"] == 1, f"exit {op['code']}: {op['stderr'].strip()}"
        out.append((" ".join(argv), ok, detail))

    coarse = {}
    for which, point, want in (("a1", (0.25, 0.5), 5.44),
                               ("a2", (0.34, 0.67), 33.281)):
        rep = get("optimize", which)
        if rep is None:
            continue
        opt = rep["optimum"]
        coarse[which] = opt["constants"]["a"]
        got = (opt["parameters"]["C1"], opt["parameters"]["C2"])
        out.append((f"optimize {which}", got == point and opt["a_display"] == want,
                    f"(C1, C2) = {got}, a -> {opt['a_display']}"))
        fine = get("optimize", which, "--grid-step", "0.005")
        if fine is not None:
            a_fine = fine["optimum"]["constants"]["a"]
            # the 0.005 grid contains the 0.01 grid, so it can only do better
            out.append((f"optimize {which} --grid-step 0.005",
                        a_fine <= coarse[which], f"a = {a_fine!r} <= {coarse[which]!r}"))

    env = get("integrate", "envelope")["result"]
    quad = reference.envelope_quad(0.98, 5.44, 11520.0, 2.6e7)
    out.append(("integrate envelope",
                _close(env["value"], quad, max(env["error_estimate"], 1e-12 * quad))
                and 0.995 * 5.946e14 <= env["value"]
                and env["certified_upper"] <= 5.946e14,
                f"{env['value']!r} vs scipy quad {quad!r}; ceiling 5.946e14"))

    bound = get("mertens", "bound")
    disp = bound["display"]
    A_m, B_m = reference.m_transfer("555.71", "0.99", "1.94e14", "0.98")
    out.append(("mertens bound",
                disp["coef_kappa"] == 555.71 and disp["coef_sigma0"] == 1.94e14
                and disp["kappa"] == 0.99
                and bound["m_transfer"] == {"A_m": A_m, "B_m": B_m},
                f"{disp['coef_kappa']} x^{disp['kappa']} + {disp['coef_sigma0']:g}"
                f" x^0.98; A_m = {bound['m_transfer']['A_m']!r}, "
                f"B_m = {bound['m_transfer']['B_m']!r}"))
    cross = reference.crossover_log10(555.71, 0.99, 1.94e14, 0.98)
    for argv in (("mertens", "bound"), ("mertens", "crossover")):
        got = get(*argv)["crossover_log10"]
        out.append((" ".join(argv) + " crossover",
                    abs(got - 714.4) <= 0.1 and _close(got, cross, 1e-5),
                    f"log10 x* = {got!r}, mpmath root {cross!r}"))

    ver_argv = next(a for a in ops if a[0] == "verify")
    ver = get(*ver_argv)
    samples = int(ver_argv[2])
    out.append(("verify", ver["all_ok"] and ver["total_samples"] == samples
                and ver["total_violations"] == 0,
                f"{ver['total_samples']} samples, {ver['total_violations']} "
                f"violations, all_ok {ver['all_ok']}"))
    records = [(c["check"], c["a"], c["b"], r) for c in ver["checks"]
               for r in c["records"]]
    for check, a, b, r in random.Random(seed).sample(records, LIVE_SAMPLES):
        fn = (reference.log_abs_zeta if check == "log-zeta"
              else reference.abs_logder_zeta)
        live = fn(r["sigma"], r["t"])
        bnd = reference.bound_value(check, r["sigma"], r["t"], a, b)
        ok = (_close(r["observed"], live, r["engine_slack"] + 1e-12 * live)
              and _close(r["bound"], bnd, 1e-12 * bnd)
              and r["ok"] == (live <= bnd))
        out.append((f"verify {check} sample t={r['t']:.3f}", ok,
                    f"observed {r['observed']!r} vs mpmath {live!r}; "
                    f"bound {r['bound']!r} vs {bnd!r}"))
    return out


def check(workload: str, seed: int, operations: list[dict], out_dir: Path,
          tiny: bool) -> list:
    """All output checks of one run; operations are the worker's first round."""
    ops = {tuple(op["argv"]): op for op in operations}
    expected = set(workloads.EXPECTED_FAILURES)
    out = []
    for argv, op in ops.items():
        if op["code"] != 0 and argv not in expected:
            out.append((" ".join(argv), False,
                        f"exit {op['code']}: {op['stderr'].strip()[-300:]}"))
    if out:
        return out
    if workload == "inv-zeta":
        return check_inv_zeta(ops, seed, out_dir / "panels.csv", tiny)
    if workload == "sieve-1e8":
        return check_sieve(ops, seed, tiny)
    return check_headline(ops, seed, tiny)
