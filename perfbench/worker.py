"""One benchmark episode in a fresh process: a cold bernlab, a closed loop.

Usage: python3 perfbench/worker.py < request.json

The request is {"ops": [...], "trace": bool}.  The
worker imports bernlab from the repository's src/ directory (there is
no install step), notes when the imports are done, then performs the
operations one after another, timing each.  Between operations it
times a fixed reference loop, so the caller can express times in
normalised seconds.  Only after the loop does it reduce each result to
a JSON digest for checking.  The reply is one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracing import Tracer, cache_counts

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seconds of operation time between two reference samples.
REFERENCE_INTERVAL_S = 0.02
REFERENCE_EDGE_SAMPLES = 3


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic, then building small objects.

    Slow phases of the machine hit allocation-heavy code harder than a
    plain arithmetic loop.  Of the reference loops tried on this
    benchmark (arithmetic, a big-integer multiply, Fraction sums, float
    Horner steps, small-object building), arithmetic plus object
    building left the least spread between episodes on all four
    workloads; the big-integer multiply left the most.
    """
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
    table = {}
    for i in range(600):
        table[str(i)] = (i, [i, acc])
    return len(table)


def load_bernlab():
    """Import bernlab and bernlab.cli from SRC and refuse any other copy."""
    if not (SRC / "bernlab" / "__init__.py").is_file():
        raise SystemExit(f"bernlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bernlab
    import bernlab.cli

    if Path(bernlab.__file__).resolve().parent != SRC / "bernlab":
        raise SystemExit(f"imported bernlab from {bernlab.__file__}, expected {SRC}")
    return bernlab


def peak_rss() -> int:
    """This process's peak resident memory in KiB.

    VmHWM starts afresh at exec; ru_maxrss, the fallback, also counts the
    parent's resident memory at fork on Linux.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# Rational points where polylog results are compared with the reference.
CHECK_POINTS = (Fraction(2, 3), Fraction(5))


def _frac(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def execute(bl, op):
    """Perform one operation through bernlab's public functions."""
    kind = op[0]
    if kind == "recurrence":
        return bl.bernoulli_recurrence(op[1])
    if kind == "stirling_sum":
        return bl.bernoulli_stirling_sum(op[1])
    if kind == "split":
        return bl.bernoulli_split(op[1], op[2])
    if kind == "neg_rf":
        return bl.polylog_neg_rf(op[1])
    if kind == "oracle":
        return bl.polylog_oracle(op[1]).negate_variable()
    if kind == "compose":
        return bl.rf_compose_reciprocal(bl.polylog_neg_rf(op[1]))
    if kind == "eval":
        return bl.rf_eval_exact(bl.polylog_neg_rf(op[1]), Fraction(op[2], op[3]))
    if kind == "rule":
        return bl.gauss_legendre(op[1])
    if kind == "verify":
        # Rule and both polylogs first, so verify_integral's own time is
        # mostly integrand evaluation.
        _, m, n, panels, nodes = op
        bl.gauss_legendre(nodes)
        bl.polylog_neg_rf(m)
        bl.polylog_neg_rf(n)
        return bl.verify_integral(m, n, panels, nodes)
    if kind == "beta":
        _, k, l, panels, nodes = op
        bl.gauss_legendre(nodes)
        return bl.beta_quadrature_check(k, l, panels, nodes)
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bl.cli.run(op[1])
        return code, out.getvalue()
    raise ValueError(f"unknown operation {kind!r}")


def digest(bl, op, result):
    """JSON form of a result, for a checker that does not import bernlab."""
    kind = op[0]
    if kind in ("recurrence", "stirling_sum", "split", "eval"):
        return _frac(result)
    if kind in ("neg_rf", "oracle", "compose"):
        return [_frac(bl.rf_eval_exact(result, t)) for t in CHECK_POINTS]
    if kind == "rule":
        return [list(result[0]), list(result[1])]
    if kind in ("verify", "beta"):
        return {"estimate": result.estimate, "rel_error": result.rel_error, "expected": _frac(result.expected)}
    return {"exit": result[0], "stdout": result[1]}


def run_episode(bl, ops: list, trace: bool = False) -> dict:
    """Run `ops` as a closed loop and return timings, digests and trace data."""
    latencies: list[float] = []
    results: list = []
    refs: list[list] = []  # [operations done before the sample, seconds]

    def sample_reference() -> None:
        start = time.perf_counter()
        reference_loop()
        refs.append([len(latencies), time.perf_counter() - start])

    caches_before = cache_counts()
    tracer = Tracer() if trace else contextlib.nullcontext()
    for _ in range(REFERENCE_EDGE_SAMPLES):
        sample_reference()
    since_ref = 0.0
    with tracer:
        for index, op in enumerate(ops):
            if trace:
                tracer.op = index
            start = time.perf_counter()
            try:
                result = execute(bl, op)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            elapsed = time.perf_counter() - start
            latencies.append(elapsed)
            results.append(result)
            since_ref += elapsed
            if since_ref >= REFERENCE_INTERVAL_S:
                sample_reference()
                since_ref = 0.0
    for _ in range(REFERENCE_EDGE_SAMPLES):
        sample_reference()
    peak_rss_kb = peak_rss()
    caches_after = cache_counts()

    digests = []
    for op, result in zip(ops, results):
        if isinstance(result, Exception):
            digests.append({"error": repr(result)})
            continue
        try:
            digests.append(digest(bl, op, result))
        except Exception as exc:  # a result that cannot even be read is a failure
            digests.append({"error": repr(exc)})
    reply = {
        "latencies": latencies,
        "references": refs,
        "peak_rss_kb": peak_rss_kb,
        "digests": digests,
        "caches": {k: caches_after[k] - caches_before[k] for k in caches_after},
    }
    if trace:
        reply["spans"] = tracer.spans
        reply["counts"] = {k: v for k, v in tracer.counts.items() if not k.endswith(".top")}
    return reply


def main() -> None:
    bl = load_bernlab()
    ready = time.perf_counter()
    request = json.load(sys.stdin)
    reply = run_episode(bl, request["ops"], request["trace"])
    reply["ready"] = ready
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
