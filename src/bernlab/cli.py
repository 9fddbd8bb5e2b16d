"""Command-line interface, b-file handling, and the benchmark harness.

Subcommands print to stdout in one of three formats (plain, csv, json)
and use the exit-code contract: 0 for success or PASS, 1 for a
verification FAIL, 2 for usage, parse, or data errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

from .bernoulli import (
    BernoulliTable,
    Recurrence,
    Split,
    StirlingSum,
    bernoulli,
    bernoulli_recurrence,
    bernoulli_split,
    bernoulli_stirling_sum,
)
from .combinatorics import stirling2, stirling2_row
from .polylog import polylog_neg_rf, rf_eval_exact
from .quadrature import (
    DEFAULT_NODES,
    DEFAULT_PANELS,
    QuadratureReport,
    beta_quadrature_check,
    verify_integral,
)

__all__ = [
    "BFileEntry",
    "BFileParseError",
    "BenchMismatchError",
    "BenchRow",
    "OeisRow",
    "MAX_BENCH_SUM",
    "parse_bfile",
    "render_bfile",
    "oeis_check",
    "bench_run",
    "build_parser",
    "run",
    "main",
]

MAX_BENCH_SUM = 200


def rational_json(q: Fraction) -> dict[str, str]:
    """Rationals go into JSON as decimal strings so nothing overflows a double."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


# ---------------------------------------------------------------------------
# b-files (OEIS-style "index value" lines)


class BFileEntry(NamedTuple):
    index: int
    value: int


class BFileParseError(ValueError):
    """Malformed b-file content; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def parse_bfile(text: str) -> list[BFileEntry]:
    """Parse b-file text: one 'index value' pair per line, '#' comments
    and blank lines ignored, indices strictly increasing."""
    entries: list[BFileEntry] = []
    last: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(lineno, f"expected 'index value', got {raw!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(lineno, f"non-integer token in {raw!r}") from None
        if last is not None and index <= last:
            raise BFileParseError(
                lineno, f"indices must be strictly increasing, got {index} after {last}"
            )
        last = index
        entries.append(BFileEntry(index, value))
    return entries


def render_bfile(entries: Sequence[BFileEntry]) -> str:
    """Inverse of parse_bfile (up to comments and blank lines)."""
    return "".join(f"{e.index} {e.value}\n" for e in entries)


@dataclass(frozen=True)
class OeisRow:
    n: int
    file_value: Fraction
    recurrence: Fraction
    split: Fraction
    ok: bool


def oeis_check(
    numerators: Sequence[BFileEntry], denominators: Sequence[BFileEntry], max_n: int
) -> list[OeisRow]:
    """Compare numerator/denominator b-file pairs against B_n computed by
    the recurrence and by the balanced split sum, for every 0 <= n <= max_n.

    Both files must cover the whole index range; a gap is a data error.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    nums = {e.index: e.value for e in numerators}
    dens = {e.index: e.value for e in denominators}
    rows: list[OeisRow] = []
    for n in range(max_n + 1):
        if n not in nums:
            raise ValueError(f"numerator file does not cover index {n}")
        if n not in dens:
            raise ValueError(f"denominator file does not cover index {n}")
        file_value = Fraction(nums[n], dens[n])
        rec = bernoulli_recurrence(n)
        spl = bernoulli_split(n // 2, n - n // 2)
        rows.append(OeisRow(n, file_value, rec, spl, file_value == rec and file_value == spl))
    return rows


# ---------------------------------------------------------------------------
# benchmark harness


class BenchMismatchError(RuntimeError):
    """Two strategies produced different rationals; the run is aborted."""


@dataclass(frozen=True)
class BenchRow:
    method: str
    n: int
    split_m: Optional[int]
    seconds: float
    result_hash: str


def _rational_hash(q: Fraction) -> str:
    return hashlib.blake2b(f"{q.numerator}/{q.denominator}".encode(), digest_size=8).hexdigest()


def _median_time(fn: Callable[[], Fraction], repeats: int) -> tuple[Fraction, float]:
    value = None
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return value, statistics.median(times)


def bench_run(
    max_sum: int,
    repeats: int = 5,
    whole_methods: Optional[dict[str, Callable[[int], Fraction]]] = None,
    split_fn: Optional[Callable[[int, int], Fraction]] = None,
) -> list[BenchRow]:
    """Time every strategy at every N <= max_sum; for the split sum, sweep
    all m = 0..N.  Each cell is the median of `repeats` runs on the
    monotonic clock.

    The recurrence is timed cold (a fresh table per run); the two
    Stirling-sum strategies are timed with the shared Stirling triangle
    pre-warmed, so they measure summation arithmetic rather than table
    growth.  Any disagreement between a timed result and the recurrence
    reference aborts with BenchMismatchError.
    """
    if max_sum < 0:
        raise ValueError(f"max_sum must be non-negative, got {max_sum}")
    if max_sum > MAX_BENCH_SUM:
        raise ValueError(f"max_sum is capped at {MAX_BENCH_SUM}, got {max_sum}")
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if whole_methods is None:
        whole_methods = {
            "recurrence": lambda k: BernoulliTable().value(k),
            "stirling-sum": bernoulli_stirling_sum,
        }
    if split_fn is None:
        split_fn = bernoulli_split
    stirling2_row(max_sum)  # warm the shared triangle once, outside the clocks
    rows: list[BenchRow] = []
    for n in range(max_sum + 1):
        reference = bernoulli_recurrence(n)
        for name, fn in whole_methods.items():
            value, seconds = _median_time(lambda: fn(n), repeats)
            if value != reference:
                raise BenchMismatchError(
                    f"method {name!r} disagrees at n={n}: {value} != {reference}"
                )
            rows.append(BenchRow(name, n, None, seconds, _rational_hash(value)))
        for m in range(n + 1):
            value, seconds = _median_time(lambda: split_fn(m, n - m), repeats)
            if value != reference:
                raise BenchMismatchError(
                    f"split ({m}, {n - m}) disagrees at n={n}: {value} != {reference}"
                )
            rows.append(BenchRow("split", n, m, seconds, _rational_hash(value)))
    return rows


# ---------------------------------------------------------------------------
# output helpers


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, indent=2))


def _report_payload(report: QuadratureReport, first: str, second: str, status: str, tol: float) -> dict:
    return {
        first: report.m,
        second: report.n,
        "estimate": report.estimate,
        "expected": rational_json(report.expected),
        "abs_error": report.abs_error,
        "rel_error": report.rel_error,
        "panels": report.panels,
        "nodes": report.nodes,
        "tol": tol,
        "status": status,
    }


def _emit_report(report: QuadratureReport, fmt: str, tol: float, names: tuple[str, str]) -> int:
    first, second = names
    ok = report.rel_error <= tol
    status = "PASS" if ok else "FAIL"
    if fmt == "plain":
        print(f"{first}={report.m} {second}={report.n} panels={report.panels} nodes={report.nodes}")
        print(f"estimate  = {report.estimate!r}")
        print(f"expected  = {report.expected} ({float(report.expected)!r})")
        print(f"abs_error = {report.abs_error:.3e}")
        print(f"rel_error = {report.rel_error:.3e} (tol {tol:g})")
        print(status)
    elif fmt == "csv":
        _emit_csv(
            (first, second, "estimate", "expected", "abs_error", "rel_error", "panels", "nodes", "status"),
            [(
                report.m,
                report.n,
                repr(report.estimate),
                str(report.expected),
                repr(report.abs_error),
                repr(report.rel_error),
                report.panels,
                report.nodes,
                status,
            )],
        )
    else:
        _emit_json(_report_payload(report, first, second, status, tol))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    if args.m is not None and args.method != "split":
        raise ValueError("--m only makes sense with --method split")
    if args.method == "split":
        m = args.n // 2 if args.m is None else args.m
        if m > args.n:
            raise ValueError(f"--m must not exceed n={args.n}, got {m}")
        method = Split(m, args.n - m)
    elif args.method == "stirling-sum":
        method = StirlingSum()
    else:
        method = Recurrence()
    value = bernoulli(args.n, method)
    if args.format == "plain":
        print(value)
    elif args.format == "csv":
        _emit_csv(("n", "value"), [(args.n, str(value))])
    else:
        _emit_json({"n": args.n, "value": rational_json(value)})
    return 0


def _cmd_stirling(args: argparse.Namespace) -> int:
    value = stirling2(args.n, args.k)
    if args.format == "plain":
        print(value)
    elif args.format == "csv":
        _emit_csv(("n", "k", "value"), [(args.n, args.k, value)])
    else:
        _emit_json({"n": args.n, "k": args.k, "value": str(value)})
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    values = [(n, bernoulli_recurrence(n)) for n in range(args.max + 1)]
    if args.format == "plain":
        for n, v in values:
            print(f"B_{n} = {v}")
    elif args.format == "csv":
        _emit_csv(("n", "value"), [(n, str(v)) for n, v in values])
    else:
        _emit_json(
            {"max": args.max, "values": [{"n": n, "value": rational_json(v)} for n, v in values]}
        )
    return 0


def _cmd_identity(args: argparse.Namespace) -> int:
    index = args.m + args.n
    split_value = bernoulli_split(args.m, args.n)
    oracle = bernoulli_recurrence(index)
    ok = split_value == oracle
    if args.format == "plain":
        print(f"B_{index} = {split_value}")
        print("MATCH" if ok else f"MISMATCH (recurrence gives {oracle})")
    elif args.format == "csv":
        _emit_csv(
            ("m", "n", "index", "split", "recurrence", "match"),
            [(args.m, args.n, index, str(split_value), str(oracle), str(ok).lower())],
        )
    else:
        _emit_json(
            {
                "m": args.m,
                "n": args.n,
                "index": index,
                "split": rational_json(split_value),
                "recurrence": rational_json(oracle),
                "match": ok,
            }
        )
    return 0 if ok else 1


def _cmd_polylog(args: argparse.Namespace) -> int:
    f = polylog_neg_rf(args.n)
    value = rf_eval_exact(f, args.at) if args.at is not None else None
    if args.format == "plain":
        print(f"Li_{{-{args.n}}}(-t) = {f.render('t')}")
        if value is not None:
            print(f"value at t = {args.at}: {value}")
    elif args.format == "csv":
        _emit_csv(
            ("n", "numerator", "denominator", "at", "value"),
            [(
                args.n,
                f.numerator.render("t"),
                f.denominator.render("t"),
                "" if args.at is None else str(args.at),
                "" if value is None else str(value),
            )],
        )
    else:
        _emit_json(
            {
                "n": args.n,
                "numerator": [str(c) for c in f.numerator.coeffs],
                "denominator": [str(c) for c in f.denominator.coeffs],
                "at": None if args.at is None else str(args.at),
                "value": None if value is None else rational_json(value),
            }
        )
    return 0


def _cmd_verify_integral(args: argparse.Namespace) -> int:
    report = verify_integral(args.m, args.n, args.panels, args.nodes)
    return _emit_report(report, args.format, args.tol, ("m", "n"))


def _cmd_beta_check(args: argparse.Namespace) -> int:
    report = beta_quadrature_check(args.k, args.l, args.panels, args.nodes)
    return _emit_report(report, args.format, args.tol, ("k", "l"))


def _cmd_oeis_check(args: argparse.Namespace) -> int:
    numerators = parse_bfile(Path(args.numerators).read_text())
    denominators = parse_bfile(Path(args.denominators).read_text())
    rows = oeis_check(numerators, denominators, args.max)
    all_ok = all(r.ok for r in rows)
    if args.format == "plain":
        for r in rows:
            if r.ok:
                print(f"n={r.n} PASS")
            else:
                print(
                    f"n={r.n} FAIL file={r.file_value} recurrence={r.recurrence} split={r.split}"
                )
        passed = sum(r.ok for r in rows)
        print(f"{passed}/{len(rows)} PASS")
    elif args.format == "csv":
        _emit_csv(
            ("n", "file_value", "recurrence", "split", "status"),
            [
                (r.n, str(r.file_value), str(r.recurrence), str(r.split), "PASS" if r.ok else "FAIL")
                for r in rows
            ],
        )
    else:
        _emit_json(
            {
                "max": args.max,
                "rows": [
                    {
                        "n": r.n,
                        "file_value": rational_json(r.file_value),
                        "recurrence": rational_json(r.recurrence),
                        "split": rational_json(r.split),
                        "ok": r.ok,
                    }
                    for r in rows
                ],
                "all_pass": all_ok,
            }
        )
    return 0 if all_ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = bench_run(args.max_sum)
    if args.format == "plain":
        print(f"{'method':<14}{'n':>4}{'split_m':>9}{'seconds':>14}  result_hash")
        for r in rows:
            m = "-" if r.split_m is None else str(r.split_m)
            print(f"{r.method:<14}{r.n:>4}{m:>9}{r.seconds:>14.3e}  {r.result_hash}")
    elif args.format == "csv":
        _emit_csv(
            ("method", "n", "split_m", "seconds", "result_hash"),
            [
                (r.method, r.n, "" if r.split_m is None else r.split_m, repr(r.seconds), r.result_hash)
                for r in rows
            ],
        )
    else:
        _emit_json(
            {
                "max_sum": args.max_sum,
                "rows": [
                    {
                        "method": r.method,
                        "n": r.n,
                        "split_m": r.split_m,
                        "seconds": r.seconds,
                        "result_hash": r.result_hash,
                    }
                    for r in rows
                ],
            }
        )
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError("value must be non-negative")
    return value


def _any_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _positive_int(text: str) -> int:
    value = _any_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "csv", "json"), default="plain", help="output format"
    )
    quad = argparse.ArgumentParser(add_help=False)
    quad.add_argument("--panels", type=_positive_int, default=DEFAULT_PANELS)
    quad.add_argument("--nodes", type=_positive_int, default=DEFAULT_NODES)

    parser = argparse.ArgumentParser(
        prog="bernlab",
        description="Exact Bernoulli/Stirling arithmetic with cross-verified strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("bernoulli", parents=[common], help="print B_n")
    p.add_argument("n", type=_nonneg_int)
    p.add_argument(
        "--method", choices=("recurrence", "stirling-sum", "split"), default="recurrence"
    )
    p.add_argument("--m", type=_nonneg_int, default=None, help="left split index; defaults to n//2")
    p.set_defaults(handler=_cmd_bernoulli)

    p = sub.add_parser("stirling", parents=[common], help="print S(n, k)")
    p.add_argument("n", type=_nonneg_int)
    p.add_argument("k", type=_any_int)
    p.set_defaults(handler=_cmd_stirling)

    p = sub.add_parser("table", parents=[common], help="print B_0..B_max")
    p.add_argument("what", choices=("bernoulli",))
    p.add_argument("--max", type=_nonneg_int, required=True)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser(
        "identity", parents=[common], help="evaluate the split sum for (m, n) and compare to B_(m+n)"
    )
    p.add_argument("m", type=_nonneg_int)
    p.add_argument("n", type=_nonneg_int)
    p.set_defaults(handler=_cmd_identity)

    p = sub.add_parser(
        "polylog", parents=[common], help="print Li_{-n}(-t) as a rational function of t"
    )
    p.add_argument("n", type=_nonneg_int)
    p.add_argument("--at", type=_fraction, default=None, help="also evaluate exactly at t")
    p.set_defaults(handler=_cmd_polylog)

    p = sub.add_parser(
        "verify-integral",
        parents=[common, quad],
        help="quadrature of the half-line integrand for (m, n) against its exact value",
    )
    p.add_argument("m", type=_nonneg_int)
    p.add_argument("n", type=_nonneg_int)
    p.add_argument("--tol", type=float, default=1e-6, help="rel_error bound for PASS")
    p.set_defaults(handler=_cmd_verify_integral)

    p = sub.add_parser(
        "beta-check",
        parents=[common, quad],
        help="quadrature of t^k/(1+t)^(k+l+2) against the exact Beta value",
    )
    p.add_argument("k", type=_nonneg_int)
    p.add_argument("l", type=_nonneg_int)
    p.add_argument("--tol", type=float, default=1e-8, help="rel_error bound for PASS")
    p.set_defaults(handler=_cmd_beta_check)

    p = sub.add_parser(
        "oeis-check", parents=[common], help="check b-file numerators/denominators against B_n"
    )
    p.add_argument("--numerators", required=True)
    p.add_argument("--denominators", required=True)
    p.add_argument("--max", type=_nonneg_int, required=True)
    p.set_defaults(handler=_cmd_oeis_check)

    p = sub.add_parser(
        "bench", parents=[common], help="time the strategies and sweep every split of each N"
    )
    p.add_argument("--max-sum", type=_nonneg_int, required=True, dest="max_sum")
    p.set_defaults(handler=_cmd_bench)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already wrote usage/help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except BFileParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
