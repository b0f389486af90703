"""Command-line entry point: every pipeline stage behind one executable.

Subcommands

    profiles    growth-estimate data of the built-in L-function families
    constants   explicit (a, b) bound constants with the hypothesis report
    optimize    grid search for the (C1, C2[, C4]) minimizing a
    integrate   reciprocal-zeta and envelope integrals (Romberg panels)
    mertens     epsilon0 -> explicit Mertens bound -> sieve verification
    verify      empirical spot checks of the bounds against zeta values

Reports are JSON (sorted keys, two-space indent) on stdout or --output;
every report embeds the fully resolved parameter set, defaults included,
so a run can be replayed from its own output.  Floats serialize through
repr and therefore carry 17 significant digits; where a published constant
is reproduced the report adds its rounded-up display form.  CSV is used
only for per-panel and per-sample traces (--trace / --csv).

Bare invocations reproduce the published numbers from the parameter sets
in nearone.defaults: `constants a1` prints the 5.44 bound and `constants
a2` the 33.281 bound, for the zeta family and, with `--family dirichlet`,
for characters mod 3 alike; `optimize a1|a2` recovers the published
(C1, C2); `integrate inv-zeta` gives the reciprocal-zeta integral ceiling,
`integrate envelope` the tail envelope below 5.946e14, `mertens bound` the
555.71 / 1.94e14 pair.

Exit codes: 0 success (including structured null results such as a missing
crossover), 1 violated hypothesis or domain error, 2 numerical
non-convergence, 64 usage errors.  Worker counts come from --threads, else
the NEARONE_WORKERS environment variable, else 1; "auto" means the CPU
count.  Workers are spawned processes, so each starts from a fresh import.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from typing import Optional

from .constants import (
    BoundParams,
    TARGET_LOG,
    TARGET_LOGDER,
    ceil_decimals,
    ceil_sigfigs,
    constants_report,
    dedekind_split,
)
from . import defaults
from .errors import ConvergenceError, NearOneError, NoCrossoverError
from .mertens import (
    compute_epsilon0,
    crossover_trivial,
    default_T2,
    derive_m_bound,
    mertens_bound,
    sieve_mobius,
    verify_bound_on_range,
)
from .optimizer import SearchSpec, minimize
from .profiles import (
    ALPHA_DEFAULT,
    DEDEKIND_AMPLITUDE,
    T0_DEFAULT,
    profile_dedekind,
    profile_dirichlet,
    profile_zeta,
    rademacher_prefactor_dedekind,
    rademacher_prefactor_dirichlet,
)
from .quadrature import integrate_envelope, integrate_inv_abs_zeta
from .verifier import default_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_USAGE = 64

_TARGETS = {"a1": TARGET_LOG, "a2": TARGET_LOGDER}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and +-inf are usage errors,
    so no report echoes a non-standard JSON token such as NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expects a finite number, got {text!r}")
    return value


def _resolve_workers(flag: Optional[str]) -> int:
    text = flag if flag is not None else os.environ.get("NEARONE_WORKERS", "1")
    if text == "auto":
        return os.cpu_count() or 1
    try:
        n = int(text)
    except ValueError:
        raise _UsageError(
            f"--threads expects a positive integer or 'auto', got {text!r}")
    if n < 1:
        raise _UsageError(f"--threads must be >= 1, got {n}")
    return n


def _build_profile(args) -> tuple[object, dict]:
    family = args.family
    if family == "zeta":
        return profile_zeta(), {"family": "zeta"}
    if family == "dirichlet":
        prof = profile_dirichlet(args.q, args.alpha, args.profile_t0)
        return prof, {"family": "dirichlet", "q": args.q, "alpha": args.alpha,
                      "profile_t0": args.profile_t0}
    prof = profile_dedekind(args.degree, args.abs_disc, args.alpha,
                            args.profile_t0)
    return prof, {"family": "dedekind", "degree": args.degree,
                  "abs_disc": args.abs_disc, "alpha": args.alpha,
                  "profile_t0": args.profile_t0}


def _cmd_profiles(args) -> tuple[dict, int]:
    prof, family_params = _build_profile(args)
    report = {
        "subcommand": "profiles",
        "parameters": family_params,
        "profile": dataclasses.asdict(prof),
    }
    if args.family == "dirichlet":
        report["prefactor"] = rademacher_prefactor_dirichlet(
            args.alpha, args.profile_t0)
        report["prefactor_ceiling"] = 1.0
    elif args.family == "dedekind":
        report["prefactor"] = rademacher_prefactor_dedekind(
            args.degree, args.alpha, args.profile_t0)
        report["prefactor_ceiling"] = DEDEKIND_AMPLITUDE
    return report, EXIT_OK


def _resolved_bound_params(args, target: str) -> BoundParams:
    given = {key: getattr(args, key)
             for key in ("C1", "C2", "C3", "T1", "T2", "t0", "C4")
             if getattr(args, key) is not None}
    if target == TARGET_LOG:
        given.pop("C4", None)  # only the derivative bound uses C4
    published = defaults.CONSTANT_PARAMS[(args.family, target)]
    return dataclasses.replace(published, **given)


def _cmd_constants(args) -> tuple[dict, int]:
    target = _TARGETS[args.which]
    prof, family_params = _build_profile(args)
    params = _resolved_bound_params(args, target)
    report = constants_report(prof, params, target)
    report["subcommand"] = "constants"
    report["family"] = family_params
    if args.family == "dedekind" and report["hypotheses_ok"]:
        k1, k2 = dedekind_split(params.C1, params.C3, params.T1, params.T2)
        report["b_split"] = {"base": k1, "per_inverse_degree": k2}
    if not report["hypotheses_ok"]:
        failed = next(ch for ch in report["hypotheses"] if not ch["ok"])
        print(f"error: hypothesis {failed['name']} failed: {failed['detail']}",
              file=sys.stderr)
        return report, EXIT_VALIDATION
    return report, EXIT_OK


def _cmd_optimize(args) -> tuple[dict, int]:
    target = _TARGETS[args.which]
    prof, family_params = _build_profile(args)
    published = defaults.CONSTANT_PARAMS[(args.family, target)]
    fixed = {k: getattr(args, k) if getattr(args, k) is not None
             else getattr(published, k) for k in ("C3", "T1", "T2", "t0")}
    spec = SearchSpec(profile=prof, target=target, grid_step=args.grid_step,
                      refine_rounds=args.refine_rounds, **fixed)
    params, bc = minimize(spec, trace_path=args.trace)
    report = {
        "subcommand": "optimize",
        "target": target,
        "family": family_params,
        "search": {**fixed, "grid_step": args.grid_step,
                   "refine_rounds": args.refine_rounds},
        "optimum": {
            "parameters": params.as_dict(),
            "constants": bc.as_dict(),
            **bc.display(),
        },
    }
    return report, EXIT_OK


def _cmd_integrate(args) -> tuple[dict, int]:
    workers = _resolve_workers(args.threads)
    if args.which == "inv-zeta":
        result = integrate_inv_abs_zeta(
            args.sigma0, args.lo, args.hi, panel_width=args.panel_width,
            rel_tol=args.rel_tol, max_levels=args.max_levels,
            workers=workers, trace_path=args.trace)
        own = {"panel_width": args.panel_width}
    else:
        result = integrate_envelope(
            args.sigma0, args.a1, args.lo, args.hi, rel_tol=args.rel_tol,
            max_levels=args.max_levels, panel_width_v=args.panel_width_v,
            workers=workers, trace_path=args.trace)
        own = {"a1": args.a1, "panel_width_v": args.panel_width_v}
    report = {
        "subcommand": "integrate",
        "integrand": args.which,
        "parameters": {
            "sigma0": args.sigma0, "from": args.lo, "to": args.hi,
            "rel_tol": args.rel_tol, "max_levels": args.max_levels,
            "workers": workers, **own,
        },
        "result": {
            "value": result.value,
            "error_estimate": result.error_estimate,
            "certified_upper": result.value + result.error_estimate,
            "panels": result.panels,
            "evaluations": result.evaluations,
        },
    }
    return report, EXIT_OK


def _cmd_mertens(args) -> tuple[dict, int]:
    if args.action == "bound":
        T2 = args.T2 if args.T2 is not None else default_T2(args.T1, args.C3)
        eps0 = args.epsilon0
        if eps0 is None:
            eps0 = compute_epsilon0(args.sigma0, args.C1, args.C2, args.C3,
                                    args.T1, T2)
        spec = mertens_bound(args.sigma0, args.lam, args.T1, eps0,
                             args.integral)
        kappa_display = ceil_decimals(spec.kappa, 2)
        coef_kappa_display = ceil_decimals(spec.coef_kappa, 2)
        coef_sigma0_display = ceil_sigfigs(spec.coef_sigma0, 3)
        A_m, B_m = derive_m_bound(coef_kappa_display, kappa_display,
                                  coef_sigma0_display, args.sigma0)
        report = {
            "subcommand": "mertens.bound",
            "parameters": {
                "sigma0": args.sigma0, "C1": args.C1, "C2": args.C2,
                "C3": args.C3, "T1": args.T1, "T2": T2, "lambda": args.lam,
                "integral_bound": args.integral, "epsilon0": eps0,
            },
            "bound": spec.as_dict(),
            "display": {
                "kappa": kappa_display,
                "coef_kappa": coef_kappa_display,
                "coef_sigma0": coef_sigma0_display,
            },
            "m_transfer": {"A_m": A_m, "B_m": B_m},
        }
        try:
            report["crossover_log10"] = crossover_trivial(
                coef_kappa_display, kappa_display, coef_sigma0_display,
                args.sigma0)
        except NoCrossoverError as exc:
            report["crossover_log10"] = None
            report["crossover_note"] = str(exc)
        return report, EXIT_OK

    # derive-m, crossover and sieve-verify take the bound A x^a + B x^b
    two_term = {"A": args.A, "a": args.a, "B": args.B, "b": args.b}
    if args.action == "derive-m":
        A_m, B_m = derive_m_bound(args.A, args.a, args.B, args.b)
        report = {
            "subcommand": "mertens.derive-m",
            "parameters": two_term,
            "A_m": A_m,
            "B_m": B_m,
        }
        return report, EXIT_OK

    if args.action == "crossover":
        report = {
            "subcommand": "mertens.crossover",
            "parameters": two_term,
        }
        try:
            report["crossover_log10"] = crossover_trivial(
                args.A, args.a, args.B, args.b)
        except NoCrossoverError as exc:
            # a missing crossover is an answer, not a failure
            report["crossover_log10"] = None
            report["reason"] = str(exc)
        return report, EXIT_OK

    # sieve-verify
    table = sieve_mobius(args.limit)
    report = verify_bound_on_range(table, args.A, args.a, args.B, args.b)
    report = {
        "subcommand": "mertens.sieve-verify",
        "parameters": {"limit": args.limit, **two_term},
        **report,
        "M_spot": {"10": table.M(10), "100": table.M(100)}
        if args.limit >= 100 else {},
    }
    if report["violations"]:
        print(f"error: bound-violation: {report['violations']} points, "
              f"first at x={report['first_violation']}", file=sys.stderr)
        return report, EXIT_VALIDATION
    return report, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    workers = _resolve_workers(args.threads)
    result = default_verification(samples=args.samples, abs_tol=args.abs_tol,
                                  workers=workers)
    report = {
        "subcommand": "verify",
        "parameters": {"samples": args.samples, "abs_tol": args.abs_tol,
                       "workers": workers},
        **result,
    }
    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "sigma_mode", "sigma", "t",
                             "observed", "bound", "ratio"])
            for check in report["checks"]:
                for r in check["records"]:
                    writer.writerow([check["check"], check["sigma_mode"],
                                     repr(r["sigma"]), repr(r["t"]),
                                     repr(r["observed"]), repr(r["bound"]),
                                     repr(r["ratio"])])
    if not report["all_ok"]:
        print(f"error: bound-violation: {report['total_violations']} bound "
              f"and {report['elementary_violations']} elementary violations",
              file=sys.stderr)
        return report, EXIT_VALIDATION
    return report, EXIT_OK


def _add_family_flags(parser) -> None:
    parser.add_argument("--family", choices=("zeta", "dirichlet", "dedekind"),
                        default="zeta")
    parser.add_argument("--q", type=int, default=3,
                        help="Dirichlet modulus (family dirichlet)")
    parser.add_argument("--degree", type=int, default=2,
                        help="number field degree (family dedekind)")
    parser.add_argument("--abs-disc", type=_finite_float, default=3.0,
                        help="absolute discriminant (family dedekind)")
    parser.add_argument("--alpha", type=_finite_float, default=ALPHA_DEFAULT)
    parser.add_argument("--profile-t0", type=_finite_float, default=T0_DEFAULT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nearone",
                     description="explicit near-1-line bounds for zeta-like "
                                 "L-functions and the Mertens function")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("profiles", help="growth-estimate profile data")
    _add_family_flags(p)
    p.set_defaults(handler=_cmd_profiles)

    p = sub.add_parser("constants", help="explicit bound constants")
    p.add_argument("which", choices=("a1", "a2"))
    _add_family_flags(p)
    for flag in ("C1", "C2", "C3", "C4", "T1", "T2", "t0"):
        p.add_argument(f"--{flag}", type=_finite_float, default=None)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("optimize", help="grid search minimizing a1 or a2")
    p.add_argument("which", choices=("a1", "a2"))
    _add_family_flags(p)
    for flag in ("C3", "T1", "T2", "t0"):
        p.add_argument(f"--{flag}", type=_finite_float, default=None)
    p.add_argument("--grid-step", type=_finite_float, default=0.01)
    p.add_argument("--refine-rounds", type=int, default=0)
    p.add_argument("--trace", default=None,
                   help="CSV trace of evaluated grid points")
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("integrate", help="Romberg panel integration")
    p.add_argument("which", choices=("inv-zeta", "envelope"))
    p.add_argument("--sigma0", type=_finite_float, default=defaults.SIGMA0)
    p.add_argument("--from", dest="lo", type=_finite_float, default=None)
    p.add_argument("--to", dest="hi", type=_finite_float, default=None)
    p.add_argument("--a1", type=_finite_float, default=defaults.DISPLAY_A1,
                   help="envelope growth constant (integrand envelope)")
    p.add_argument("--panel-width", type=_finite_float,
                   default=defaults.PANEL_WIDTH)
    p.add_argument("--panel-width-v", type=_finite_float,
                   default=defaults.V_PANEL_WIDTH)
    p.add_argument("--rel-tol", type=_finite_float, default=None)
    p.add_argument("--max-levels", type=int, default=defaults.MAX_LEVELS)
    p.add_argument("--threads", default=None)
    p.add_argument("--trace", default=None,
                   help="CSV trace of per-panel results")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("mertens", help="explicit Mertens-function bounds")
    p.add_argument("action",
                   choices=("bound", "derive-m", "crossover", "sieve-verify"))
    p.add_argument("--sigma0", type=_finite_float, default=defaults.SIGMA0)
    p.add_argument("--C1", type=_finite_float, default=defaults.MERTENS_C1)
    p.add_argument("--C2", type=_finite_float, default=defaults.MERTENS_C2)
    p.add_argument("--C3", type=_finite_float, default=defaults.C3)
    p.add_argument("--T1", type=_finite_float, default=defaults.MERTENS_T1)
    p.add_argument("--T2", type=_finite_float, default=None)
    p.add_argument("--lambda", dest="lam", type=_finite_float,
                   default=defaults.LAMBDA)
    p.add_argument("--integral", type=_finite_float,
                   default=defaults.INTEGRAL_BOUND)
    p.add_argument("--epsilon0", type=_finite_float, default=None,
                   help="skip the chain and use this exponent directly")
    p.add_argument("--A", type=_finite_float,
                   default=defaults.DISPLAY_COEF_KAPPA)
    p.add_argument("--a", type=_finite_float, default=defaults.DISPLAY_KAPPA)
    p.add_argument("--B", type=_finite_float,
                   default=defaults.DISPLAY_COEF_SIGMA0)
    p.add_argument("--b", type=_finite_float, default=defaults.SIGMA0)
    p.add_argument("--limit", type=int, default=1_000_000,
                   help="sieve range for sieve-verify")
    p.set_defaults(handler=_cmd_mertens)

    p = sub.add_parser("verify", help="empirical bound spot checks")
    p.add_argument("--samples", type=int, default=defaults.VERIFY_SAMPLES)
    p.add_argument("--abs-tol", type=_finite_float,
                   default=defaults.VERIFY_ABS_TOL)
    p.add_argument("--threads", default=None)
    p.add_argument("--csv", default=None,
                   help="write per-sample records here as CSV")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _fill_integrate_defaults(args) -> None:
    """Range defaults differ per integrand, so argparse can't own them."""
    for key, value in zip(("lo", "hi", "rel_tol"), defaults.INTEGRALS[args.which]):
        if getattr(args, key) is None:
            setattr(args, key, value)


def _emit(report: dict, path: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "integrate":
        _fill_integrate_defaults(args)
    try:
        report, code = args.handler(args)
    except _UsageError as exc:
        print(f"nearone: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except NearOneError as exc:  # violated hypotheses and domain errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _emit(report, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
