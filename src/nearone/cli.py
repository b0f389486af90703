"""Command-line entry point: every pipeline stage behind one executable.

Subcommands

    profiles    growth-estimate data of the built-in L-function families
    constants   explicit (a, b) bound constants with the hypothesis report
    optimize    grid search for the (C1, C2[, C4]) minimizing a
    integrate   reciprocal-zeta and envelope integrals (Romberg panels)
    mertens     epsilon0 -> explicit Mertens bound -> sieve verification
    verify      empirical spot checks of the bounds against zeta values

Each action has its own parser, which accepts only the flags its handler
reads (`nearone mertens bound --help` lists them).  Flags follow the
action, as in `nearone integrate envelope --a1 5.44`; only --output goes
before the subcommand.  Abbreviated flags are refused, so a flag of one
action is never read as a longer flag of another.

Reports are JSON (sorted keys, two-space indent) on stdout or --output;
every report embeds the fully resolved parameter set, defaults included,
so a run can be replayed from its own output.  The fixed caps a run used,
integrate's max_levels and verify's abs_tol, are reported with it but
are module constants, not flags.  Floats serialize through repr and
therefore carry 17 significant digits; where a published constant is
reproduced the report adds its rounded-up display form.  CSV is used
only for the per-panel and per-grid-point traces of --trace; verify's
per-sample records are in its report.

Bare invocations reproduce the published numbers from the parameter sets
in nearone.defaults: `constants a1` prints the 5.44 bound and `constants
a2` the 33.281 bound, for the zeta family and, with `--family dirichlet`,
for characters mod 3 alike; `optimize a1|a2` recovers the published
(C1, C2); `integrate inv-zeta` gives the reciprocal-zeta integral ceiling,
`integrate envelope` the tail envelope below 5.946e14, `mertens bound` the
555.71 / 1.94e14 pair.

Exit codes: 0 success (including structured null results such as a missing
crossover), 1 violated hypothesis or domain error, 2 numerical
non-convergence, 64 usage errors.  The worker count of integrate and
verify is --threads: a positive integer, or "auto" for the CPU count;
the default is 1.  Workers are spawned processes, so each starts from a
fresh import, and no run starts more of them than there are CPUs
(nearone.parallel).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Optional

from .constants import (
    BoundParams,
    TARGET_LOG,
    TARGET_LOGDER,
    b_height,
    constants_report,
    dedekind_split,
)
from . import defaults
from .errors import ConvergenceError, NearOneError
from .mertens import (
    crossover_report,
    derive_m_bound,
    mertens_report,
    sieve_mobius,
    verify_bound_on_range,
)
from .optimizer import SearchSpec, minimize
from .profiles import (
    ALPHA_DEFAULT,
    T0_DEFAULT,
    profile_dedekind,
    profile_dirichlet,
    profile_zeta,
    rademacher_prefactor_dedekind,
    rademacher_prefactor_dirichlet,
)
from .quadrature import MAX_LEVELS, integrate_envelope, integrate_inv_abs_zeta
from .verifier import VERIFY_ABS_TOL, default_verification

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_USAGE = 64

_TARGETS = {"a1": TARGET_LOG, "a2": TARGET_LOGDER}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64 and no flag
    abbreviations: --panel-width is unknown to envelope, not a prefix of
    its --panel-width-v."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs, allow_abbrev=False)

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


def _workers(text: str) -> int:
    """argparse type of --threads: a positive integer, or "auto" for the
    CPU count."""
    if text == "auto":
        return os.cpu_count() or 1
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects a positive integer or 'auto', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# The flags each family reads, with their defaults; zeta reads none.
_SMOOTHING = {"alpha": ALPHA_DEFAULT, "profile_t0": T0_DEFAULT}
_FAMILY_FLAGS = {
    "zeta": {},
    "dirichlet": {"q": 3, **_SMOOTHING},
    "dedekind": {"degree": 2, "abs_disc": 3.0, **_SMOOTHING},
}


def _build_profile(args) -> tuple[object, dict]:
    """The family's profile and its resolved parameters; a family flag the
    family does not read is a usage error."""
    family, read = args.family, _FAMILY_FLAGS[args.family]
    for key in ("q", "degree", "abs_disc", "alpha", "profile_t0"):
        if getattr(args, key) is not None and key not in read:
            build_parser().error(f"argument --{key.replace('_', '-')}: "
                                 f"not read by --family {family}")
    values = {key: default if getattr(args, key) is None else getattr(args, key)
              for key, default in read.items()}
    if family == "zeta":
        prof = profile_zeta()
    elif family == "dirichlet":
        prof = profile_dirichlet(values["q"], values["alpha"],
                                 values["profile_t0"])
    else:
        prof = profile_dedekind(values["degree"], values["abs_disc"],
                                values["alpha"], values["profile_t0"])
    return prof, {"family": family, **values}


def _cmd_profiles(args) -> tuple[dict, int]:
    prof, family_params = _build_profile(args)
    report = {
        "subcommand": "profiles",
        "parameters": family_params,
        "profile": dataclasses.asdict(prof),
    }
    if args.family == "dirichlet":
        report["prefactor"] = rademacher_prefactor_dirichlet(
            family_params["alpha"], family_params["profile_t0"])
    elif args.family == "dedekind":
        report["prefactor"] = rademacher_prefactor_dedekind(
            family_params["degree"], family_params["alpha"],
            family_params["profile_t0"])
    if args.family != "zeta":  # the profile checked prefactor <= amplitude
        report["prefactor_ceiling"] = prof.amplitude
    return report, EXIT_OK


def _resolved_bound_params(args, target: str) -> BoundParams:
    """The published parameter set of the family and target, with every
    flag given on the command line put over it."""
    given = {key: getattr(args, key)
             for key in ("C1", "C2", "C3", "T1", "T2", "t0", "C4")
             if getattr(args, key, None) is not None}
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
        k1, k2 = dedekind_split(params.C1, params.C3,
                                b_height(params.T1, target), params.T2)
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
    resolved = _resolved_bound_params(args, target)
    fixed = {k: getattr(resolved, k) for k in ("C3", "T1", "T2", "t0")}
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
    if args.which == "inv-zeta":
        result = integrate_inv_abs_zeta(
            args.sigma0, args.lo, args.hi, panel_width=args.panel_width,
            rel_tol=args.rel_tol, workers=args.threads, trace_path=args.trace)
        own = {"panel_width": args.panel_width}
    else:
        result = integrate_envelope(
            args.sigma0, args.a1, args.lo, args.hi, rel_tol=args.rel_tol,
            panel_width_v=args.panel_width_v, workers=args.threads,
            trace_path=args.trace)
        own = {"a1": args.a1, "panel_width_v": args.panel_width_v}
    report = {
        "subcommand": "integrate",
        "integrand": args.which,
        "parameters": {
            "sigma0": args.sigma0, "from": args.lo, "to": args.hi,
            "rel_tol": args.rel_tol, "max_levels": MAX_LEVELS,
            "workers": args.threads, **own,
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
    if args.which == "bound":
        report = mertens_report(args.sigma0, args.C1, args.C2, args.C3,
                                args.T1, args.T2, args.lam, args.integral,
                                args.epsilon0)
        return {"subcommand": "mertens.bound", **report}, EXIT_OK

    # derive-m, crossover and sieve-verify take the bound A x^a + B x^b
    two_term = (args.A, args.a, args.B, args.b)
    report = {"subcommand": f"mertens.{args.which}",
              "parameters": {"A": args.A, "a": args.a, "B": args.B, "b": args.b}}
    if args.which == "derive-m":
        report["A_m"], report["B_m"] = derive_m_bound(*two_term)
    elif args.which == "crossover":
        report.update(crossover_report(*two_term))
    else:  # sieve-verify
        table = sieve_mobius(args.limit)
        report["parameters"]["limit"] = args.limit
        report.update(verify_bound_on_range(table, *two_term))
        report["M_spot"] = ({"10": table.M(10), "100": table.M(100)}
                            if args.limit >= 100 else {})
        if report["violations"]:
            print(f"error: bound-violation: {report['violations']} points, "
                  f"first at x={report['first_violation']}", file=sys.stderr)
            return report, EXIT_VALIDATION
    return report, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    result = default_verification(samples=args.samples, workers=args.threads)
    report = {
        "subcommand": "verify",
        "parameters": {"samples": args.samples, "abs_tol": VERIFY_ABS_TOL,
                       "workers": args.threads},
        **result,
    }
    if not report["all_ok"]:
        print(f"error: bound-violation: {report['total_violations']} bound "
              f"and {report['elementary_violations']} elementary violations",
              file=sys.stderr)
        return report, EXIT_VALIDATION
    return report, EXIT_OK


def _add_family_flags(parser) -> None:
    """--family and the flags of the non-zeta families; each defaults to
    None, and _build_profile fills in the chosen family's defaults."""
    parser.add_argument("--family", choices=tuple(_FAMILY_FLAGS),
                        default="zeta")
    parser.add_argument("--q", type=int,
                        help="Dirichlet modulus (family dirichlet)")
    parser.add_argument("--degree", type=int,
                        help="number field degree (family dedekind)")
    parser.add_argument("--abs-disc", type=_finite_float,
                        help="absolute discriminant (family dedekind)")
    parser.add_argument("--alpha", type=_finite_float,
                        help="smoothing parameter (dirichlet, dedekind)")
    parser.add_argument("--profile-t0", type=_finite_float,
                        help="height floor (dirichlet, dedekind)")


def _add_floats(parser, flags: dict) -> None:
    """A finite-float flag --name per (name, default) of flags."""
    for flag, default in flags.items():
        parser.add_argument(f"--{flag}", type=_finite_float, default=default)


def _action_parsers(sub, command: str, actions, handler, help: str) -> dict:
    """The parser of each action of a command, by action; the action's name
    lands in args.which."""
    parsers = sub.add_parser(command, help=help).add_subparsers(
        dest="which", required=True)
    by_action = {action: parsers.add_parser(action) for action in actions}
    for parser in by_action.values():
        parser.set_defaults(handler=handler)
    return by_action


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built on the first call and then kept: one parser
    per action, declaring only the flags its handler reads."""
    parser = _Parser(prog="nearone",
                     description="explicit near-1-line bounds for zeta-like "
                                 "L-functions and the Mertens function")
    parser.add_argument("--output", default=None,
                        help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("profiles", help="growth-estimate profile data")
    _add_family_flags(p)
    p.set_defaults(handler=_cmd_profiles)

    constants = _action_parsers(sub, "constants", _TARGETS, _cmd_constants,
                                "explicit bound constants")
    for p in constants.values():
        _add_family_flags(p)
        _add_floats(p, dict.fromkeys(("C1", "C2", "C3", "T1", "T2", "t0")))
    _add_floats(constants["a2"], {"C4": None})  # only a2's bound reads C4

    for p in _action_parsers(sub, "optimize", _TARGETS, _cmd_optimize,
                             "grid search minimizing a1 or a2").values():
        _add_family_flags(p)
        _add_floats(p, dict.fromkeys(("C3", "T1", "T2", "t0")))
        p.add_argument("--grid-step", type=_finite_float,
                       default=defaults.GRID_STEP)
        p.add_argument("--refine-rounds", type=int,
                       default=SearchSpec.refine_rounds)
        p.add_argument("--trace", default=None,
                       help="CSV trace of evaluated grid points")

    integrate = _action_parsers(sub, "integrate", defaults.INTEGRALS,
                                _cmd_integrate, "Romberg panel integration")
    for which, p in integrate.items():
        lo, hi, rel_tol = defaults.INTEGRALS[which]
        _add_floats(p, {"sigma0": defaults.SIGMA0, "rel-tol": rel_tol})
        p.add_argument("--from", dest="lo", type=_finite_float, default=lo)
        p.add_argument("--to", dest="hi", type=_finite_float, default=hi)
        p.add_argument("--threads", type=_workers, default=1)
        p.add_argument("--trace", default=None,
                       help="CSV trace of per-panel results")
    _add_floats(integrate["inv-zeta"], {"panel-width": defaults.PANEL_WIDTH})
    _add_floats(integrate["envelope"], {"a1": defaults.DISPLAY_A1,
                                        "panel-width-v": defaults.V_PANEL_WIDTH})

    mertens = _action_parsers(
        sub, "mertens", ("bound", "derive-m", "crossover", "sieve-verify"),
        _cmd_mertens, "explicit Mertens-function bounds")
    _add_floats(mertens["bound"], {
        "sigma0": defaults.SIGMA0, "C1": defaults.MERTENS_C1,
        "C2": defaults.MERTENS_C2, "C3": defaults.C3,
        "T1": defaults.MERTENS_T1, "T2": None,
        "integral": defaults.INTEGRAL_BOUND})
    mertens["bound"].add_argument("--lambda", dest="lam", type=_finite_float,
                                  default=defaults.LAMBDA)
    mertens["bound"].add_argument(
        "--epsilon0", type=_finite_float, default=None,
        help="skip the chain and use this exponent directly")
    # the other actions take the bound A x^a + B x^b
    for which in ("derive-m", "crossover", "sieve-verify"):
        _add_floats(mertens[which], {
            "A": defaults.DISPLAY_COEF_KAPPA, "a": defaults.DISPLAY_KAPPA,
            "B": defaults.DISPLAY_COEF_SIGMA0, "b": defaults.SIGMA0})
    mertens["sieve-verify"].add_argument("--limit", type=int,
                                         default=defaults.SIEVE_VERIFY_LIMIT,
                                         help="sieve range")

    p = sub.add_parser("verify", help="empirical bound spot checks")
    p.add_argument("--samples", type=int, default=defaults.VERIFY_SAMPLES)
    p.add_argument("--threads", type=_workers, default=1)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _emit(report: dict, path: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
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
