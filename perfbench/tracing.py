"""Spans around the calls into each bernlab layer, recorded by the benchmark.

The program is not instrumented.  Instead, for a traced episode, the
worker replaces every reference to a layer's public functions -- in the
package and in each bernlab module that imported them -- with a wrapper
that records a span and the operation counts that follow from the
arguments.  Calls between layers therefore nest: the self time of a
span is its duration minus the time its child spans cover.  The
wrappers are removed before results are checked, so checks record
nothing.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter


def _grow(key: str):
    """Count entries a memo table must add: the rise of the largest index seen."""

    def hook(counts: Counter, bound: inspect.BoundArguments) -> None:
        n = bound.arguments["n"]
        if n > counts[key + ".top"]:
            counts[key] += n - counts[key + ".top"]
            counts[key + ".top"] = n

    return hook


_rows_grown = _grow("combinatorics.rows_grown")


def _row_call(counts: Counter, bound: inspect.BoundArguments) -> None:
    counts["combinatorics.row_calls"] += 1
    _rows_grown(counts, bound)


def _split_call(counts: Counter, bound: inspect.BoundArguments) -> None:
    m, n = bound.arguments["m"], bound.arguments["n"]
    counts["bernoulli.split_calls"] += 1
    counts["bernoulli.split_terms"] += (m + 1) * (n + 1)


def _quad_call(counts: Counter, bound: inspect.BoundArguments) -> None:
    counts["quadrature.integrand_evals"] += bound.arguments["panels"] * bound.arguments["nodes"]


# (module, function, span name, count hook).  The span name of cli.run
# gets the subcommand appended.
LAYER_FUNCTIONS = (
    ("bernlab.combinatorics", "stirling2_row", "combinatorics", _row_call),
    ("bernlab.combinatorics", "stirling2", "combinatorics", _rows_grown),
    ("bernlab.bernoulli", "bernoulli_recurrence", "bernoulli.recurrence", _grow("bernoulli.table_entries_grown")),
    ("bernlab.bernoulli", "bernoulli_stirling_sum", "bernoulli.stirling_sum", None),
    ("bernlab.bernoulli", "bernoulli_split", "bernoulli.split", _split_call),
    ("bernlab.polylog", "polylog_neg_rf", "polylog.neg_rf", None),
    ("bernlab.polylog", "polylog_oracle", "polylog.oracle", None),
    ("bernlab.polylog", "rf_compose_reciprocal", "polylog.compose_reciprocal", None),
    ("bernlab.polylog", "rf_eval_exact", "polylog.eval_exact", None),
    ("bernlab.quadrature", "gauss_legendre", "quadrature.rule", None),
    ("bernlab.quadrature", "verify_integral", "quadrature.verify", _quad_call),
    ("bernlab.quadrature", "beta_quadrature_check", "quadrature.beta", _quad_call),
    ("bernlab.cli", "run", "cli.run", None),
)

# lru_cache'd layer functions whose cache_info() the traced run reports.
CACHED_FUNCTIONS = (
    ("bernlab.polylog", "polylog_neg_rf", "polylog.neg_rf_cache"),
    ("bernlab.polylog", "polylog_oracle", "polylog.oracle_cache"),
    ("bernlab.quadrature", "gauss_legendre", "quadrature.rule_cache"),
)


class Tracer:
    """Records spans [name, op, start, end, parent] while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str, hook):
        tracer = self
        signature = inspect.signature(fn)
        is_cli = span_name == "cli.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counts, bound)
            name = f"cli.run.{args[0][0]}" if is_cli and args and args[0] else span_name
            span = [name, tracer.op, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        """Replace every reference to a layer function in the loaded bernlab modules."""
        modules = [m for name, m in sys.modules.items() if name == "bernlab" or name.startswith("bernlab.")]
        for module_name, attr, span_name, hook in LAYER_FUNCTIONS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, span_name, hook)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, fn))

    def remove(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def cache_counts() -> dict[str, int]:
    """Hits and misses of the cached layer functions so far in this process."""
    out: dict[str, int] = {}
    for module_name, attr, key in CACHED_FUNCTIONS:
        info = getattr(getattr(sys.modules.get(module_name), attr, None), "cache_info", None)
        hits, misses = (info().hits, info().misses) if info else (0, 0)
        out[key + ".hits"] = hits
        out[key + ".misses"] = misses
    return out


def self_times(spans: list[list], factors: list[float]) -> Counter:
    """Self time per span name, duration minus child-span time, each span
    scaled by the normalisation factor of the operation it belongs to."""
    child = [0.0] * len(spans)
    for name, op, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: Counter = Counter()
    for (name, op, start, end, parent), inner in zip(spans, child):
        totals[name] += (end - start - inner) * factors[op]
    return totals
