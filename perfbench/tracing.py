"""Spans and counters around the program's public functions, from outside.

A Tracer replaces module attributes with wrappers, under the names their
callers look up (nearone.cli calls sieve_mobius as nearone.cli.sieve_mobius,
so that is the name wrapped).  Each wrapped call becomes a span: name, layer,
start, end and the span that was open when it began.  Spans stay in memory
and are written out by the worker when the run ends.  Counting-only wrappers
(called millions of times a round) record no span.

A layer's self time is the time its spans cover minus the time covered by
their direct child spans.  A name that no longer exists is recorded as
missing, and every metric that needs it is left out of the report.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Optional

_perf = time.perf_counter


def _batch_points(counts, args, kwargs, result):
    counts["zeta.batch_points"] += len(args[1])


def _scalar_terms(counts, args, kwargs, result):
    value = result[0] if isinstance(result, tuple) else result
    counts["zeta.scalar_terms"] += value.terms_used


def _romberg_evals(counts, args, kwargs, result):
    counts["quadrature.evaluations"] += result.evaluations


def _sieve_size(counts, args, kwargs, result):
    counts["mertens.sieve_ints"] += result.limit
    counts["mertens.table_bytes"] += (result.mu.nbytes + result.M_prefix.nbytes
                                      + result.m_prefix.nbytes)


def _check_size(counts, args, kwargs, result):
    counts["mertens.check_ints"] += result["limit"]


def _verifier_samples(counts, args, kwargs, result):
    counts["verifier.samples"] += result["total_samples"]


# (module, attribute, span name or None for a count-only wrapper, layer,
#  counter of calls, extra counting from the arguments and result; a
#  count-only wrapper has no extra counting)
WRAPPED = (
    ("nearone.cli", "constants_report", "constants", "constants",
     "constants.calls", None),
    ("nearone.cli", "dedekind_split", "constants", "constants",
     "constants.calls", None),
    ("nearone.cli", "minimize", "optimizer.minimize", "optimizer", None, None),
    ("nearone.optimizer", "compute_b1", None, None, "optimizer.b_calls", None),
    ("nearone.optimizer", "_Trace.row", None, None, "optimizer.candidates", None),
    ("nearone.cli", "integrate_inv_abs_zeta", "quadrature.integrate",
     "quadrature", None, None),
    ("nearone.cli", "integrate_envelope", "quadrature.integrate",
     "quadrature", None, None),
    ("nearone.quadrature", "romberg", "quadrature.romberg", "quadrature",
     "quadrature.panels", _romberg_evals),
    ("nearone.quadrature", "inv_abs_zeta_many", "zeta.batch", "zeta",
     "zeta.batch_calls", _batch_points),
    ("nearone.verifier", "zeta", "zeta.scalar", "zeta",
     "zeta.scalar_calls", _scalar_terms),
    ("nearone.verifier", "zeta_with_prime", "zeta.scalar", "zeta",
     "zeta.scalar_calls", _scalar_terms),
    ("nearone.cli", "sieve_mobius", "mertens.sieve", "mertens", None,
     _sieve_size),
    ("nearone.cli", "verify_bound_on_range", "mertens.check", "mertens", None,
     _check_size),
    ("nearone.cli", "default_verification", "verifier", "verifier", None,
     _verifier_samples),
)

# per-layer metric -> (unit, wrapped attributes it is computed from)
METRICS = {
    "cli.import_s": ("s", ()),
    "cli.self_s": ("s", ()),
    "zeta.batch_calls": ("count", ("nearone.quadrature.inv_abs_zeta_many",)),
    "zeta.batch_points": ("count", ("nearone.quadrature.inv_abs_zeta_many",)),
    "zeta.batch_s": ("s", ("nearone.quadrature.inv_abs_zeta_many",)),
    "zeta.batch_us_per_point": ("us", ("nearone.quadrature.inv_abs_zeta_many",)),
    "zeta.scalar_calls": ("count", ("nearone.verifier.zeta",
                                    "nearone.verifier.zeta_with_prime")),
    "zeta.scalar_s": ("s", ("nearone.verifier.zeta",
                            "nearone.verifier.zeta_with_prime")),
    "zeta.scalar_us_per_call": ("us", ("nearone.verifier.zeta",
                                       "nearone.verifier.zeta_with_prime")),
    "zeta.scalar_terms_mean": ("count", ("nearone.verifier.zeta",
                                         "nearone.verifier.zeta_with_prime")),
    "quadrature.panels": ("count", ("nearone.quadrature.romberg",)),
    "quadrature.evaluations": ("count", ("nearone.quadrature.romberg",)),
    "quadrature.evals_per_panel": ("count", ("nearone.quadrature.romberg",)),
    "quadrature.self_s": ("s", ("nearone.cli.integrate_inv_abs_zeta",
                                "nearone.cli.integrate_envelope",
                                "nearone.quadrature.romberg")),
    "mertens.sieve_s": ("s", ("nearone.cli.sieve_mobius",)),
    "mertens.sieve_ns_per_int": ("ns", ("nearone.cli.sieve_mobius",)),
    "mertens.table_bytes_per_int": ("B/int", ("nearone.cli.sieve_mobius",)),
    "mertens.check_s": ("s", ("nearone.cli.verify_bound_on_range",)),
    "mertens.check_ns_per_int": ("ns", ("nearone.cli.verify_bound_on_range",)),
    "verifier.samples": ("count", ("nearone.cli.default_verification",)),
    "verifier.self_s": ("s", ("nearone.cli.default_verification",)),
    "verifier.ms_per_sample": ("ms", ("nearone.cli.default_verification",)),
    "optimizer.minimize_s": ("s", ("nearone.cli.minimize",)),
    "optimizer.candidates": ("count", ("nearone.optimizer._Trace.row",)),
    "optimizer.us_per_candidate": ("us", ("nearone.cli.minimize",
                                          "nearone.optimizer._Trace.row")),
    "optimizer.b_calls": ("count", ("nearone.optimizer.compute_b1",)),
    "constants.calls": ("count", ("nearone.cli.constants_report",
                                  "nearone.cli.dedekind_split")),
    "constants.s": ("s", ("nearone.cli.constants_report",
                          "nearone.cli.dedekind_split")),
}

# counts that must repeat exactly from round to round and run to run
EXACT_COUNTS = ("zeta.batch_calls", "zeta.batch_points", "zeta.scalar_calls",
                "zeta.scalar_terms", "quadrature.panels",
                "quadrature.evaluations", "verifier.samples",
                "optimizer.candidates", "optimizer.b_calls", "constants.calls")


class Tracer:
    """Spans and running counters of one worker process.

    Counters run over the whole process; begin_round() marks them, so the
    counts of each round are differences of successive marks.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, layer, start, end, parent, round]
        self.totals: Counter = Counter()
        self.marks: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def begin_round(self) -> None:
        self.marks.append(dict(self.totals))

    def call(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, _perf(), 0.0, parent, len(self.marks) - 1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = _perf()
            self._stack.pop()

    def _wrapper(self, fn: Callable, span: Optional[str], layer: Optional[str],
                 counter: Optional[str], extra: Optional[Callable]) -> Callable:
        totals = self.totals
        if span is None and extra is None:
            # the optimizer calls these millions of times a round: keep it lean
            totals[counter] = 0

            def counted(*args, **kwargs):
                totals[counter] += 1
                return fn(*args, **kwargs)
            return counted

        def wrapped(*args, **kwargs):
            result = self.call(span, layer, fn, *args, **kwargs)
            if counter is not None:
                totals[counter] += 1
            if extra is not None:
                extra(totals, args, kwargs, result)
            return result
        return wrapped

    def install(self) -> None:
        """Wrap every name in WRAPPED that exists; record the others."""
        for module_name, attr, span, layer, counter, extra in WRAPPED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrapper(fn, span, layer, counter, extra))

    def dump(self) -> dict:
        marks = self.marks + [dict(self.totals)]
        rounds = [{name: end[name] - start.get(name, 0) for name in end}
                  for start, end in zip(marks, marks[1:])]
        return {"spans": self.spans, "round_counts": rounds,
                "missing": self.missing}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """num/den scaled; 0 when the layer did no work on this workload."""
    return num / den * scale if den else 0.0


def layer_metrics(trace: dict, import_s: float) -> dict:
    """Per-layer metrics per round from a worker's dumped trace.

    Times are totals over the run divided by the number of rounds; counts
    are those of one round (they are checked to repeat in every round).
    """
    spans = trace["spans"]
    rounds = max(len(trace["round_counts"]), 1)
    counts = Counter(trace["round_counts"][0]) if trace["round_counts"] else Counter()

    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = Counter()
    self_time = Counter()
    for (name, layer, start, end, parent, _), inner in zip(spans, child_time):
        total[name] += end - start
        self_time[layer] += end - start - inner
    per_round = lambda seconds: seconds / rounds

    c = counts
    values = {
        "cli.import_s": import_s,
        "cli.self_s": per_round(self_time["cli"]),
        "zeta.batch_calls": c["zeta.batch_calls"],
        "zeta.batch_points": c["zeta.batch_points"],
        "zeta.batch_s": per_round(total["zeta.batch"]),
        "zeta.batch_us_per_point": _ratio(per_round(total["zeta.batch"]),
                                          c["zeta.batch_points"], 1e6),
        "zeta.scalar_calls": c["zeta.scalar_calls"],
        "zeta.scalar_s": per_round(total["zeta.scalar"]),
        "zeta.scalar_us_per_call": _ratio(per_round(total["zeta.scalar"]),
                                          c["zeta.scalar_calls"], 1e6),
        "zeta.scalar_terms_mean": _ratio(c["zeta.scalar_terms"],
                                         c["zeta.scalar_calls"]),
        "quadrature.panels": c["quadrature.panels"],
        "quadrature.evaluations": c["quadrature.evaluations"],
        "quadrature.evals_per_panel": _ratio(c["quadrature.evaluations"],
                                             c["quadrature.panels"]),
        "quadrature.self_s": per_round(self_time["quadrature"]),
        "mertens.sieve_s": per_round(total["mertens.sieve"]),
        "mertens.sieve_ns_per_int": _ratio(per_round(total["mertens.sieve"]),
                                           c["mertens.sieve_ints"], 1e9),
        "mertens.table_bytes_per_int": _ratio(c["mertens.table_bytes"],
                                              c["mertens.sieve_ints"]),
        "mertens.check_s": per_round(total["mertens.check"]),
        "mertens.check_ns_per_int": _ratio(per_round(total["mertens.check"]),
                                           c["mertens.check_ints"], 1e9),
        "verifier.samples": c["verifier.samples"],
        "verifier.self_s": per_round(self_time["verifier"]),
        "verifier.ms_per_sample": _ratio(per_round(total["verifier"]),
                                         c["verifier.samples"], 1e3),
        "optimizer.minimize_s": per_round(total["optimizer.minimize"]),
        "optimizer.candidates": c["optimizer.candidates"],
        "optimizer.us_per_candidate": _ratio(per_round(total["optimizer.minimize"]),
                                             c["optimizer.candidates"], 1e6),
        "optimizer.b_calls": c["optimizer.b_calls"],
        "constants.calls": c["constants.calls"],
        "constants.s": per_round(total["constants"]),
    }
    missing = set(trace["missing"])
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, needs) in METRICS.items()
            if not missing.intersection(needs)}
