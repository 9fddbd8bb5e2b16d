"""Command-line interface, b-file handling, and the benchmark harness.

Each subcommand handler computes its result and returns one `Output`
record: the plain-text lines, the CSV rows as dicts (the first row's
keys are the header), the JSON object and the exit code.  `run` prints
it through `_emit`, the only code that looks at `--format` (plain, csv
or json).  The argument parser is built once per process, on the first
`run` call, and reused by every later one; a request that starts with a
subcommand name is parsed by that subcommand's parser alone.  Exit-code
contract: 0 for success or PASS, 1 for a verification FAIL, 2 for usage,
parse, or data errors, and 141 (128 + SIGPIPE) from `main` when stdout
is closed early, as by `head`.
Size arguments above `MAX_SIZE`, an `oeis-check --max` above
`MAX_OEIS_CHECK`, a `polylog --at` value above `MAX_AT_DIGITS`, a bench
sweep above `MAX_BENCH_SUM`, quadrature rules above `MAX_PANELS` or
`MAX_NODES` and b-files longer than `MAX_BFILE_CHARS` are refused with
exit 2 before any work starts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import statistics
import sys
import time
# hashlib.blake2b is this object; importing hashlib also loads OpenSSL's
# libcrypto, which adds about 3.5 MB to every process's peak RSS.
from _blake2 import blake2b
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TextIO

from .bernoulli import (
    BernoulliTable,
    bernoulli_recurrence,
    bernoulli_split,
    bernoulli_stirling_sum,
)
from .combinatorics import stirling2
from .polylog import Polynomial, polylog_neg_rf, rf_eval_exact
from .quadrature import (
    DEFAULT_NODES,
    DEFAULT_PANELS,
    QuadratureReport,
    beta_quadrature_check,
    verify_integral,
)

__all__ = [
    "BenchMismatchError",
    "MAX_BENCH_SUM",
    "MAX_BFILE_CHARS",
    "MAX_NODES",
    "MAX_PANELS",
    "MAX_SIZE",
    "MAX_AT_DIGITS",
    "MAX_OEIS_CHECK",
    "oeis_check",
    "bench_run",
    "run",
    "main",
]

# Largest size argument a subcommand accepts (bernoulli n, stirling n,
# table --max, polylog n, identity m + n).  At the limit the slowest
# request is `polylog 1000`, about 0.55-1.0 s as a fresh process (Python
# 3.11, 2 vCPUs; growing the Stirling triangle takes about 0.16 s,
# polylog_neg_rf(1000) 0.27 s, rendering 0.09 s or a tenth, and CSV's
# cells or JSON's strings another 0.09 s; `--at 7/3` adds 3-6 ms).  It
# peaks at 42 MB in plain, 48 MB in JSON and 57 MB in CSV.  The
# triangle keeps rows 0..300 and one row in 16 above them, 17 MB at row
# 1000 where every row took 189 MB, so `stirling 1000 500` peaks at 35 MB,
# `identity 0 1000` at 39 MB and `identity 500 500`, about 0.39-0.42 s,
# at 27 MB; `table bernoulli --max 1000` (a cold Bernoulli table to 1000)
# takes 0.2-0.25 s and every other Bernoulli route under 0.55 s.
MAX_SIZE = 1000
# Largest exact value `polylog n --at t` computes, measured as (n + 1)
# times the digit count of t's numerator or denominator, whichever is
# longer.  The homogeneous forms of the value can have up to about
# log10(n!) digits more, the size of the largest coefficient (2568 at
# n = 1000).  The cap bounds the evaluation work; the interpreter's
# 4300-digit limit on int-to-str conversion bounds what prints.
# `polylog 1000 --at 99999999` (8008 under the cap) evaluates in 6 ms,
# and its 8830-digit numerator exits 2 with that limit named, in 1.0 s
# as a fresh process.  Cancelling the gcd shortens a value, but in a
# sweep of points built to cancel much (t or p + q next to a power of 2,
# 3, 6, 10 or a primorial, or next to a factorial; 19 orders from 1 to
# 1000) no value short enough to print measured more than 4806, so the
# cap refuses none.  An exponent beyond the cap (`--at 1e20000`) is
# refused while parsing, before Fraction builds the power of ten.
MAX_AT_DIGITS = 10_000
# Largest oeis-check --max.  Each index takes one balanced split, so the
# sweep grows about as max^4: with files complete to 1000, a fresh
# process took 0.38-0.39 s at 300, 0.66-0.7 s at 350, 1.0 s at 400,
# 2.4 s at 500 and 35 s at 1000.
MAX_OEIS_CHECK = 300
# Largest bench sweep; `bench --max-sum 60` takes about 0.5 s as a fresh process.
MAX_BENCH_SUM = 60
# Largest quadrature rule of verify-integral and beta-check.  Building a
# Gauss-Legendre rule grows about as nodes^2 (256 nodes take about
# 0.02 s, 1024 about 0.35 s), and each polylog form takes 0.5-0.7 us per
# node at order 12, so the largest rule, 1024 panels of 256 nodes, takes
# 0.33-0.43 s as a fresh process for verify-integral 0 12 (0.23-0.38 s
# when m = n, whose one form serves both factors, and 0.15-0.31 s for
# beta-check) and peaks at about 25 MB.
MAX_PANELS = 1024
MAX_NODES = 256
# Longest b-file oeis-check reads, in characters; a longer one (or an
# endless one, such as /dev/zero) is refused once the cap is passed.  A
# numerator file of every index whose numerator fits the interpreter's
# default 4300-digit int-str limit (0..2063) takes 2.0 MB and its
# denominator file 18 KB, so the cap admits all of it with room to spare
# while bounding the time one request spends reading.  Files are read in
# blocks and only entries up to --max are kept, so two files at the cap
# with one short line per index peak near the import baseline.
MAX_BFILE_CHARS = 8 * 2**20


def _shown(text: str) -> str:
    """repr of text for an error message, cut to its first 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


# ---------------------------------------------------------------------------
# b-files (OEIS-style "index value" lines)


def _bfile_entries(lines: Iterable[str], max_index: int) -> dict[int, int]:
    """{index: value} from b-file lines, keeping indices up to max_index:
    one 'index value' pair per line, '#' comments and blank lines ignored,
    indices strictly increasing.  Every line is parsed; a malformed one
    raises ValueError, its message starting 'line N: '."""
    entries: dict[int, int] = {}
    last: Optional[int] = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'index value', got {_shown(raw)}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            _check_str_digits(f"line {lineno}: a number in {_shown(raw)}", _longest_digit_run(line))
            raise ValueError(f"line {lineno}: non-integer token in {_shown(raw)}") from None
        if last is not None and index <= last:
            raise ValueError(
                f"line {lineno}: indices must be strictly increasing, got {index} after {last}"
            )
        last = index
        if index <= max_index:
            entries[index] = value
    return entries


def _bfile_lines(f: TextIO, path: str) -> Iterator[str]:
    r"""The lines str.splitlines gives for the text of f, read in blocks of
    2**16 characters; ValueError once more than MAX_BFILE_CHARS are read.
    A block is split with a sentinel "x" appended, so its last piece less
    the "x" is the unfinished line, empty when the block ended a line.
    f translates newlines, as open's text mode does by default, so no
    block edge falls inside a \r\n pair."""
    budget = MAX_BFILE_CHARS
    tail: list[str] = []  # the pieces of a line that runs on past its block
    while block := f.read(min(budget + 1, 2**16)):
        budget -= len(block)
        if budget < 0:
            raise ValueError(f"b-file {_shown(path)} is over the cap of {MAX_BFILE_CHARS} characters")
        lines = (block + "x").splitlines()
        last = lines.pop()[:-1]
        if lines and tail:
            lines[0] = "".join(tail) + lines[0]
            tail = []
        yield from lines
        tail.append(last)
    if any(tail):
        yield "".join(tail)


def _read_bfile(path: str, max_index: int) -> dict[int, int]:
    """The entries of the b-file at path with index <= max_index.

    The file is UTF-8, with or without a leading byte-order mark.  The
    whole file is parsed, one block at a time, but only those entries
    are kept.  A fault of the whole file, a length over the cap or bytes
    that do not decode, is reported ahead of a malformed line before it.
    """
    with open(path, encoding="utf-8-sig") as f:
        lines = _bfile_lines(f, path)
        try:
            return _bfile_entries(lines, max_index)
        except ValueError:
            for _ in lines:
                pass
            raise


def oeis_check(
    numerators: Mapping[int, int], denominators: Mapping[int, int], max_n: int
) -> list[dict]:
    """Compare numerator/denominator b-file pairs against B_n computed by
    the recurrence and by the balanced split sum, for every 0 <= n <= max_n.
    Returns one row per n, the JSON rows of oeis-check: a dict with keys
    n, file_value, recurrence, split (Fractions) and ok.

    Both files must cover the whole index range with nonzero denominators;
    a gap or a zero is a data error, raised before any value is computed.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be non-negative, got {max_n}")
    for n in range(max_n + 1):
        if n not in numerators:
            raise ValueError(f"numerator file does not cover index {n}")
        if n not in denominators:
            raise ValueError(f"denominator file does not cover index {n}")
        if denominators[n] == 0:
            raise ValueError(f"denominator file has 0 at index {n}")
    rows = []
    for n in range(max_n + 1):
        file_value = Fraction(numerators[n], denominators[n])
        rec = bernoulli_recurrence(n)
        spl = bernoulli_split(n // 2, n - n // 2)
        rows.append({"n": n, "file_value": file_value, "recurrence": rec, "split": spl,
                     "ok": file_value == rec and file_value == spl})
    return rows


# ---------------------------------------------------------------------------
# benchmark harness


class BenchMismatchError(RuntimeError):
    """Two strategies produced different rationals; the run is aborted."""


def _rational_hash(q: Fraction) -> str:
    return blake2b(f"{q.numerator}/{q.denominator}".encode(), digest_size=8).hexdigest()


def bench_run(
    max_sum: int,
    repeats: int = 5,
    split_fn: Optional[Callable[[int, int], Fraction]] = None,
) -> list[dict]:
    """Time every strategy at every N <= max_sum; for the split sum, sweep
    all m = 0..N.  Each cell is the median of `repeats` runs on the
    monotonic clock.  Returns one row per cell, the CSV and JSON rows of
    bench: a dict with keys method, n, split_m (None for the two
    whole-number methods), seconds and result_hash.

    The recurrence is timed cold (a fresh table per run); one untimed
    bernoulli_stirling_sum(max_sum) first grows the shared Stirling
    triangle and factorial memo as far as any cell reads them, so the
    two Stirling-sum strategies measure summation arithmetic rather than
    table growth.  Any disagreement between a timed result and the
    recurrence reference aborts with BenchMismatchError.
    """
    if max_sum < 0:
        raise ValueError(f"max_sum must be non-negative, got {max_sum}")
    if max_sum > MAX_BENCH_SUM:
        raise ValueError(f"max_sum is capped at {MAX_BENCH_SUM}, got {max_sum}")
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if split_fn is None:
        split_fn = bernoulli_split
    bernoulli_stirling_sum(max_sum)  # the warm-up, outside the clocks
    rows = []
    for n in range(max_sum + 1):
        reference = bernoulli_recurrence(n)
        # The lambdas look their route up when called, so a replaced
        # cli.BernoulliTable or cli.bernoulli_stirling_sum is what is timed.
        cells = [
            ("recurrence", None, lambda: BernoulliTable().value(n)),
            ("stirling-sum", None, lambda: bernoulli_stirling_sum(n)),
            *(("split", m, functools.partial(split_fn, m, n - m)) for m in range(n + 1)),
        ]
        for name, m, fn in cells:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                value = fn()
                times.append(time.perf_counter() - start)
            if value != reference:
                cell = f"method {name!r}" if m is None else f"split ({m}, {n - m})"
                raise BenchMismatchError(f"{cell} disagrees at n={n}: {value} != {reference}")
            rows.append({"method": name, "n": n, "split_m": m,
                         "seconds": statistics.median(times), "result_hash": _rational_hash(value)})
    return rows


# ---------------------------------------------------------------------------
# the output layer


class Output(NamedTuple):
    """One subcommand's result in every format `_emit` can print; `rows`
    is the CSV table, one dict per row, all with the same keys.  A plain
    line that is costly to build may be a function that returns it, which
    `_emit` calls only when it prints the plain format."""

    plain: list[str | Callable]
    rows: list[dict]
    json: dict
    code: int = 0


def _json_default(value: Fraction | Polynomial) -> dict[str, str] | list[str]:
    """Numbers go into JSON as decimal strings so nothing overflows a double."""
    if isinstance(value, Polynomial):
        return [str(c) for c in value.coeffs]
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _emit(output: Output, fmt: str) -> int:
    """Print `output` in `fmt` and return its exit code.

    JSON writes Fractions as {"num", "den"} decimal strings and
    Polynomials as the list of their coefficients' decimal strings; CSV
    writes the first row's keys as its header, then each row's values:
    Fractions with str, Polynomials as render("t"), bools as true/false
    and None as an empty cell.
    """
    if fmt == "plain":
        print(*(line() if callable(line) else line for line in output.plain), sep="\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(output.rows[0])
        writer.writerows(
            ["true" if v is True else "false" if v is False
             else v.render("t") if isinstance(v, Polynomial) else v for v in row.values()]
            for row in output.rows
        )
    else:
        print(json.dumps(output.json, indent=2, default=_json_default))
    return output.code


def _report_output(report: QuadratureReport, tol: float, first: str, second: str) -> Output:
    ok = report.rel_error <= tol
    status = "PASS" if ok else "FAIL"
    record = {
        first: report.m,
        second: report.n,
        "estimate": report.estimate,
        "expected": report.expected,
        "abs_error": report.abs_error,
        "rel_error": report.rel_error,
        "panels": report.panels,
        "nodes": report.nodes,
        "tol": tol,
        "status": status,
    }
    plain = [
        f"{first}={report.m} {second}={report.n} panels={report.panels} nodes={report.nodes}",
        f"estimate  = {report.estimate!r}",
        f"expected  = {report.expected} ({float(report.expected)!r})",
        f"abs_error = {report.abs_error:.3e}",
        f"rel_error = {report.rel_error:.3e} (tol {tol:g})",
        status,
    ]
    row = {key: value for key, value in record.items() if key != "tol"}
    return Output(plain, [row], record, 0 if ok else 1)


# ---------------------------------------------------------------------------
# subcommand handlers


def _check_size(name: str, value: int, limit: int = MAX_SIZE) -> None:
    if value > limit:
        raise ValueError(f"{name} is capped at {limit}, got {value}")


def _check_rule(args: argparse.Namespace) -> None:
    _check_size("--panels", args.panels, MAX_PANELS)
    _check_size("--nodes", args.nodes, MAX_NODES)


def _cmd_bernoulli(args: argparse.Namespace) -> Output:
    _check_size("n", args.n)
    if args.m is not None and args.method != "split":
        raise ValueError("--m only makes sense with --method split")
    if args.method == "split":
        m = args.n // 2 if args.m is None else args.m
        if m > args.n:
            raise ValueError(f"--m must not exceed n={args.n}, got {m}")
        value = bernoulli_split(m, args.n - m)
    elif args.method == "stirling-sum":
        value = bernoulli_stirling_sum(args.n)
    else:
        value = bernoulli_recurrence(args.n)
    record = {"n": args.n, "value": value}
    return Output([str(value)], [record], record)


def _cmd_stirling(args: argparse.Namespace) -> Output:
    _check_size("n", args.n)
    value = str(stirling2(args.n, args.k))
    record = {"n": args.n, "k": args.k, "value": value}
    return Output([value], [record], record)


def _cmd_table(args: argparse.Namespace) -> Output:
    _check_size("--max", args.max)
    values = [{"n": n, "value": bernoulli_recurrence(n)} for n in range(args.max + 1)]
    plain = [f"B_{row['n']} = {row['value']}" for row in values]
    return Output(plain, values, {"max": args.max, "values": values})


def _cmd_identity(args: argparse.Namespace) -> Output:
    index = args.m + args.n
    _check_size("m + n", index)
    split_value = bernoulli_split(args.m, args.n)
    oracle = bernoulli_recurrence(index)
    ok = split_value == oracle
    record = {"m": args.m, "n": args.n, "index": index,
              "split": split_value, "recurrence": oracle, "match": ok}
    plain = [f"B_{index} = {split_value}", "MATCH" if ok else f"MISMATCH (recurrence gives {oracle})"]
    return Output(plain, [record], record, 0 if ok else 1)


def _decimal_digits(x: int) -> int:
    """Number of decimal digits of |x|, without converting it to str."""
    x = abs(x)
    digits = int(x.bit_length() * math.log10(2)) + 1
    return digits - 1 if digits > 1 and x < 10 ** (digits - 1) else digits


def _longest_digit_run(text: str) -> int:
    """Length of the longest run of digits in text, ignoring '_' as int() does."""
    return max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0)


def _check_str_digits(what: str, digits: int, error: Callable[[str], Exception] = ValueError) -> None:
    """Refuse an int past the interpreter's int-str limit; 0 means none, as before 3.10.7."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and digits > limit:
        raise error(f"{what} has {digits} digits, over the interpreter's int-str limit of {limit}")


def _cmd_polylog(args: argparse.Namespace) -> Output:
    _check_size("n", args.n)
    if args.at is not None:
        t = args.at
        digits = max(_decimal_digits(t.numerator), _decimal_digits(t.denominator))
        _check_size("(n + 1) * digits of --at", (args.n + 1) * digits, MAX_AT_DIGITS)
        _check_str_digits("the point t", digits)  # an exponent's digits escape _fraction's check
    f = polylog_neg_rf(args.n)
    plain = [lambda: f"Li_{{-{args.n}}}(-t) = {f.render('t')}"]
    at = value = None
    if args.at is not None:
        at, value = str(args.at), rf_eval_exact(f, args.at)
        digits = max(_decimal_digits(value.numerator), _decimal_digits(value.denominator))
        _check_str_digits("the value at t", digits)
        plain.append(f"value at t = {at}: {value}")
    row = {"n": args.n, "numerator": f.numerator, "denominator": f.denominator, "at": at, "value": value}
    return Output(plain, [row], row)


def _cmd_verify_integral(args: argparse.Namespace) -> Output:
    _check_rule(args)
    report = verify_integral(args.m, args.n, args.panels, args.nodes)
    return _report_output(report, args.tol, "m", "n")


def _cmd_beta_check(args: argparse.Namespace) -> Output:
    _check_rule(args)
    report = beta_quadrature_check(args.k, args.l, args.panels, args.nodes)
    return _report_output(report, args.tol, "k", "l")


def _cmd_oeis_check(args: argparse.Namespace) -> Output:
    _check_size("--max", args.max, MAX_OEIS_CHECK)
    numerators = _read_bfile(args.numerators, args.max)
    denominators = _read_bfile(args.denominators, args.max)
    rows = oeis_check(numerators, denominators, args.max)
    passed = sum(r["ok"] for r in rows)
    all_ok = passed == len(rows)
    plain = [
        f"n={r['n']} PASS" if r["ok"]
        else f"n={r['n']} FAIL file={r['file_value']} recurrence={r['recurrence']} split={r['split']}"
        for r in rows
    ]
    plain.append(f"{passed}/{len(rows)} PASS")
    table = [{"n": r["n"], "file_value": r["file_value"], "recurrence": r["recurrence"],
              "split": r["split"], "status": "PASS" if r["ok"] else "FAIL"} for r in rows]
    payload = {"max": args.max, "rows": rows, "all_pass": all_ok}
    return Output(plain, table, payload, 0 if all_ok else 1)


def _cmd_bench(args: argparse.Namespace) -> Output:
    rows = bench_run(args.max_sum)
    plain = [f"{'method':<14}{'n':>4}{'split_m':>9}{'seconds':>14}  result_hash"]
    for r in rows:
        m = "-" if r["split_m"] is None else str(r["split_m"])
        plain.append(f"{r['method']:<14}{r['n']:>4}{m:>9}{r['seconds']:>14.3e}  {r['result_hash']}")
    return Output(plain, rows, {"max_sum": args.max_sum, "rows": rows})


# ---------------------------------------------------------------------------
# parser and entry point


def _nonneg_int(text: str) -> int:
    value = _any_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("value must be non-negative")
    return value


def _any_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        shown = _shown(text)
        _check_str_digits(shown, _longest_digit_run(text), argparse.ArgumentTypeError)
        raise argparse.ArgumentTypeError(f"{shown} is not an integer") from None


def _positive_int(text: str) -> int:
    value = _any_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and non-negative, got {text!r}")
    return value


# Fraction's string grammar as of Python 3.12.  Its groups are the digit
# runs Fraction reads with int(): numerator, denominator, decimal part and
# exponent.  Older interpreters read the same text once the underscores
# and spaces are taken out, so `--at` has one grammar on every interpreter.
_DIGITS = r"(\d+(?:_\d+)*)"
_RATIONAL = re.compile(
    rf"\s*[-+]?(?=\.?\d){_DIGITS}?"
    rf"(?:\s*/\s*{_DIGITS}|(?:\.{_DIGITS}?)?(?:[eE][-+]?{_DIGITS})?)\s*"
)


def _fraction(text: str) -> Fraction:
    shown = _shown(text)
    match = _RATIONAL.fullmatch(text)
    if not match:
        raise argparse.ArgumentTypeError(f"{shown} is not a rational number")
    exponent = match[4]
    # Only a prefix one digit longer than the cap is converted, so a huge
    # exponent is refused as quickly as a small one.
    cap_prefix = len(str(MAX_AT_DIGITS)) + 1
    if exponent and int("0" + exponent.replace("_", "").lstrip("0")[:cap_prefix]) > MAX_AT_DIGITS:
        raise argparse.ArgumentTypeError(
            f"{shown} has an exponent beyond the --at cap of {MAX_AT_DIGITS} digits"
        )
    _check_str_digits(f"a number in {shown}", _longest_digit_run(text), argparse.ArgumentTypeError)
    try:
        return Fraction(re.sub(r"[\s_]", "", text))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{shown} is not a rational number") from None


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """Return a new parser with every subcommand, and the subcommand
    parsers by name; `run` shares one pair per process, through `_parser`.

    Sharing is safe because parsing leaves them unchanged: each call gets a
    new Namespace, every default is immutable, and the handlers bound by
    `set_defaults` look up the routes they call each time they run.
    """
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
    # argparse reads "-..." as an option unless it looks like a negative
    # integer or decimal; take every "-<digit>" or "-.<digit>" as a value,
    # so `--at -7/3` and `--at -1e3` need no "=".  This is the one private
    # argparse attribute bernlab sets.
    p._negative_number_matcher = re.compile(r"^-\.?\d")
    p.set_defaults(handler=_cmd_polylog)

    p = sub.add_parser(
        "verify-integral",
        parents=[common, quad],
        help="quadrature of the half-line integrand for (m, n) against its exact value",
    )
    p.add_argument("m", type=_nonneg_int)
    p.add_argument("n", type=_nonneg_int)
    p.add_argument("--tol", type=_tolerance, default=1e-6, help="rel_error bound for PASS")
    p.set_defaults(handler=_cmd_verify_integral)

    p = sub.add_parser(
        "beta-check",
        parents=[common, quad],
        help="quadrature of t^k/(1+t)^(k+l+2) against the exact Beta value",
    )
    p.add_argument("k", type=_nonneg_int)
    p.add_argument("l", type=_nonneg_int)
    p.add_argument("--tol", type=_tolerance, default=1e-8, help="rel_error bound for PASS")
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

    return parser, sub.choices


_parser = functools.cache(_build_parser)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse argv and execute; returns the process exit code.

    When argv starts with a subcommand name, that subcommand's parser gets
    the rest directly, as the top-level parser would hand it on, and the
    top-level parser reports any words left over.  Every other argv (none,
    -h, an unknown name, an option first) goes to the top-level parser.
    A closed stdout raises BrokenPipeError rather than mapping to a code.
    """
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse already wrote usage/help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _emit(args.handler(args), args.format)
    except BrokenPipeError:
        raise
    except (BenchMismatchError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, BenchMismatchError) else 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:
        # As the SIGPIPE note in Python's signal docs does: point stdout at
        # devnull so the flush at exit cannot fail again.  141 = 128 +
        # SIGPIPE, the status a shell reports for `yes | head -n 1`.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
