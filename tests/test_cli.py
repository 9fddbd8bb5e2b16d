"""b-file handling, the bench harness, and the command-line surface.

CLI behaviour is exercised through run(argv), which returns the process
exit code and prints to stdout/stderr; capsys picks those up.  Exit-code
contract: 0 success or PASS, 1 verification FAIL, 2 usage/parse/data
errors.
"""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bernlab import bernoulli, cli, combinatorics, quadrature
from bernlab.bernoulli import bernoulli_recurrence
from bernlab.polylog import polylog_neg_rf, rf_eval_exact
from bernlab.cli import (
    BenchMismatchError,
    MAX_AT_DIGITS,
    MAX_BENCH_SUM,
    MAX_BFILE_CHARS,
    MAX_NODES,
    MAX_OEIS_CHECK,
    MAX_PANELS,
    MAX_SIZE,
    bench_run,
    main,
    oeis_check,
    run,
)
from support import CLI, environment, run_code

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
NUMERATORS = str(DATA_DIR / "bernoulli_numerators.txt")
DENOMINATORS = str(DATA_DIR / "bernoulli_denominators.txt")


def good_entries(max_n):
    nums = {n: bernoulli_recurrence(n).numerator for n in range(max_n + 1)}
    dens = {n: bernoulli_recurrence(n).denominator for n in range(max_n + 1)}
    return nums, dens


@pytest.fixture
def no_bernoulli_values(monkeypatch):
    """Fail the test if the CLI computes a Bernoulli number."""

    def refuse(*args):
        raise AssertionError("a Bernoulli value was computed")

    for name in ("bernoulli_recurrence", "bernoulli_split"):
        monkeypatch.setattr(cli, name, refuse)


def parse_bfile_text(text):
    """The entries of b-file text, parsed as oeis-check parses a file's
    lines, keeping every index these tests write."""
    return cli._bfile_entries(text.splitlines(), 10**9)


class TestParseBfile:
    def test_basic(self):
        text = "# leading comment\n0 1\n1 -1\n\n# interlude\n2 1\n"
        assert list(parse_bfile_text(text).items()) == [(0, 1), (1, -1), (2, 1)]

    def test_whitespace_tolerance(self):
        assert list(parse_bfile_text("  3   42  \n").items()) == [(3, 42)]

    def test_empty_text(self):
        assert list(parse_bfile_text("").items()) == []
        assert list(parse_bfile_text("# only a comment\n").items()) == []

    def test_non_integer_token(self):
        with pytest.raises(ValueError, match=r"^line 1: non-integer token"):
            parse_bfile_text("3 a")

    def test_line_numbers_count_comments_and_blanks(self):
        with pytest.raises(ValueError, match=r"^line 3: "):
            parse_bfile_text("# header\n\n1 2 3\n")

    def test_wrong_token_count(self):
        with pytest.raises(ValueError, match=r"^line 1: expected 'index value'"):
            parse_bfile_text("1 2 3")
        with pytest.raises(ValueError, match=r"^line 1: expected 'index value'"):
            parse_bfile_text("7")

    def test_non_increasing_indices(self):
        with pytest.raises(ValueError, match=r"^line 2: .*strictly increasing"):
            parse_bfile_text("0 1\n0 2\n")
        with pytest.raises(ValueError, match=r"^line 2: .*strictly increasing"):
            parse_bfile_text("5 3\n4 1\n")

    def test_messages_echo_a_short_prefix_of_the_line(self):
        line = "1 2 " + "3" * 5000
        with pytest.raises(ValueError) as exc_info:
            parse_bfile_text(line)
        assert str(exc_info.value) == f"line 1: expected 'index value', got {line[:40]!r}..."
        with pytest.raises(ValueError) as exc_info:
            parse_bfile_text("1 x" + "y" * 5000)
        assert str(exc_info.value) == f"line 1: non-integer token in '1 x{'y' * 37}'..."

    def test_value_past_the_digit_limit_names_it(self, set_str_digit_limit):
        set_str_digit_limit(4300)
        with pytest.raises(ValueError, match=(
            r"^line 2: a number in '3000 7{35}'\.\.\. has 4400 digits, "
            r"over the interpreter's int-str limit of 4300$"
        )):
            parse_bfile_text("0 1\n3000 " + "7" * 4400)
        assert parse_bfile_text("3000 " + "7_" * 2149 + "7") == {3000: int("7" * 2150)}
        set_str_digit_limit(0)
        assert parse_bfile_text("3000 " + "7" * 4400) == {3000: int("7" * 4400)}

    @given(
        st.lists(
            st.tuples(st.integers(-10**6, 10**6), st.integers(-(10**30), 10**30)),
            max_size=30,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_render_parse_roundtrip(self, pairs):
        entries = sorted(pairs)
        assert list(parse_bfile_text("".join(f"{i} {v}\n" for i, v in entries)).items()) == entries

    def test_shipped_fixtures_parse(self):
        nums = parse_bfile_text(Path(NUMERATORS).read_text())
        dens = parse_bfile_text(Path(DENOMINATORS).read_text())
        assert list(nums) == list(range(31))
        assert list(dens) == list(range(31))
        assert nums[12] == -691 and dens[12] == 2730


class TestOeisCheck:
    def test_all_rows_pass_on_good_data(self):
        nums, dens = good_entries(10)
        rows = oeis_check(nums, dens, 10)
        assert len(rows) == 11
        # The keys are oeis-check's JSON row keys, in order.
        assert all(list(r) == ["n", "file_value", "recurrence", "split", "ok"] for r in rows)
        assert all(r["ok"] for r in rows)
        assert rows[4]["file_value"] == rows[4]["recurrence"] == rows[4]["split"] == Fraction(-1, 30)

    def test_single_tampered_value_is_flagged(self):
        nums, dens = good_entries(8)
        nums[4] += 1
        rows = oeis_check(nums, dens, 8)
        assert [r["n"] for r in rows if not r["ok"]] == [4]
        assert rows[4]["file_value"] != rows[4]["recurrence"]

    def test_missing_index_is_a_data_error(self, no_bernoulli_values):
        nums, dens = good_entries(8)
        del nums[3]
        with pytest.raises(ValueError, match="does not cover index 3"):
            oeis_check(nums, dens, 8)
        nums, _ = good_entries(9)
        _, dens = good_entries(8)
        with pytest.raises(ValueError, match="denominator file does not cover index 9"):
            oeis_check(nums, dens, 9)

    def test_negative_max_rejected(self, no_bernoulli_values):
        with pytest.raises(ValueError):
            oeis_check(*good_entries(3), -1)

    def test_zero_denominator_is_a_data_error(self, no_bernoulli_values):
        nums, dens = good_entries(8)
        dens[5] = 0
        with pytest.raises(ValueError, match="^denominator file has 0 at index 5$"):
            oeis_check(nums, dens, 8)

    def test_each_index_is_checked_in_order_before_the_next(self, no_bernoulli_values):
        nums, dens = good_entries(8)
        dens[2] = 0
        del dens[6]
        with pytest.raises(ValueError, match="^denominator file has 0 at index 2$"):
            oeis_check(nums, dens, 8)
        dens[2] = 1
        del nums[6]
        with pytest.raises(ValueError, match="^numerator file does not cover index 6$"):
            oeis_check(nums, dens, 8)


class TestBenchRun:
    def test_row_shape(self):
        rows = bench_run(5, repeats=1)
        # per n: one row for each of the two whole-number methods,
        # then one per split m = 0..n
        assert len(rows) == sum(2 + n + 1 for n in range(6)) == 33
        for row in rows:
            # The keys are bench's CSV header and JSON row keys, in order.
            assert list(row) == ["method", "n", "split_m", "seconds", "result_hash"]
            assert row["seconds"] >= 0.0
            assert len(row["result_hash"]) == 16

    def test_methods_agree_via_hashes(self):
        rows = bench_run(4, repeats=1)
        by_n = {}
        for row in rows:
            by_n.setdefault(row["n"], set()).add(row["result_hash"])
        assert all(len(hashes) == 1 for hashes in by_n.values())

    def test_cell_order(self):
        # per n: recurrence, then stirling-sum, then split at m = 0..n;
        # only the split rows carry a split index
        expected = [
            cell
            for n in range(5)
            for cell in [("recurrence", n, None), ("stirling-sum", n, None)]
            + [("split", n, m) for m in range(n + 1)]
        ]
        assert [(r["method"], r["n"], r["split_m"]) for r in bench_run(4, repeats=1)] == expected

    def test_mismatching_split_aborts(self):
        def split_fn(m, k):
            return Fraction(0) if (m, k) == (1, 1) else cli.bernoulli_split(m, k)

        with pytest.raises(BenchMismatchError) as excinfo:
            bench_run(2, repeats=1, split_fn=split_fn)
        assert str(excinfo.value) == "split (1, 1) disagrees at n=2: 0 != 1/6"

    def test_mismatching_whole_method_aborts(self, monkeypatch):
        monkeypatch.setattr(cli, "bernoulli_stirling_sum", lambda n: Fraction(1, 3))
        with pytest.raises(BenchMismatchError) as excinfo:
            bench_run(2, repeats=1)
        assert str(excinfo.value) == "method 'stirling-sum' disagrees at n=0: 1/3 != 1"

    def test_mismatching_recurrence_aborts(self, monkeypatch):
        class SevenTable:
            def value(self, n):
                return 7

        monkeypatch.setattr(cli, "BernoulliTable", SevenTable)
        with pytest.raises(BenchMismatchError) as excinfo:
            bench_run(2, repeats=1)
        assert str(excinfo.value) == "method 'recurrence' disagrees at n=0: 7 != 1"

    def test_factorial_memo_is_warm_before_the_clocks(self, monkeypatch):
        # The Stirling-sum cells measure summation, not memo growth; the
        # stirling-sum cell at n = 0 alone would grow a fresh memo to 1.
        memo = bernoulli._FactorialMemo()
        monkeypatch.setattr(bernoulli, "_FACTORIALS", memo)
        covered = []

        def split_fn(m, k):
            if not covered:
                covered.append(memo.max_k)
            return cli.bernoulli_split(m, k)

        bench_run(6, repeats=1, split_fn=split_fn)
        assert covered == [7]

    def test_stirling_triangle_is_warm_before_the_clocks(self, monkeypatch):
        # The stirling-sum cell at n = 0 alone would grow a fresh triangle
        # to row 0; the warm-up grows it to the last row any cell reads.
        triangle = combinatorics.StirlingTriangle()
        monkeypatch.setattr(combinatorics, "_SHARED", triangle)
        covered = []

        def split_fn(m, k):
            if not covered:
                covered.append(triangle.max_n)
            return cli.bernoulli_split(m, k)

        bench_run(6, repeats=1, split_fn=split_fn)
        assert covered == [6]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bench_run(-1)
        with pytest.raises(ValueError):
            bench_run(MAX_BENCH_SUM + 1)
        with pytest.raises(ValueError):
            bench_run(3, repeats=0)


class TestStandardLibraryOnly:
    def test_bench_hashes_are_hashlib_blake2b(self):
        assert cli.blake2b is hashlib.blake2b
        for row in bench_run(3, repeats=1):
            q = bernoulli_recurrence(row["n"])
            digest = hashlib.blake2b(f"{q.numerator}/{q.denominator}".encode(), digest_size=8)
            assert row["result_hash"] == digest.hexdigest(), row

    def test_no_subcommand_loads_openssl_or_a_third_party_module(self):
        # A fresh process, since the test process has imported hashlib.
        # Modules the interpreter loaded at start-up (site hooks) are not
        # bernlab's, so only those loaded after it are checked.
        code = """
import contextlib, io, sys
before = set(sys.modules)
from bernlab.cli import run
argvs = [
    ["bench", "--max-sum", "2"], ["bernoulli", "10"], ["stirling", "5", "2"],
    ["table", "bernoulli", "--max", "5", "--format", "csv"], ["identity", "3", "5"],
    ["polylog", "3", "--at", "1/2", "--format", "json"], ["verify-integral", "1", "1"],
    ["beta-check", "2", "3"],
    ["oeis-check", "--numerators", sys.argv[1], "--denominators", sys.argv[2], "--max", "5"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv) for argv in argvs]
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(codes, "_hashlib" in sys.modules, sorted(loaded - {"bernlab"} - sys.stdlib_module_names))
"""
        proc = run_code(code, NUMERATORS, DENOMINATORS)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{[0] * 9} False []\n", "")


def run_measured(*argv):
    """`bernlab ARGV` in a fresh process; its stdout is followed by one line
    holding its exit status and its peak RSS in KiB (Linux's ru_maxrss).

    A child's ru_maxrss also counts the resident memory its parent had at
    exec, so a small launcher stands between pytest and the measured
    process and reads its os.wait4.
    """
    launcher = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:])\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    return run_code(launcher, sys.executable, "-c", CLI, *argv, timeout=120)


def run_capture(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Golden stdout of `polylog 12`, one entry per (format, --at): order 12
# has eight-digit coefficients and a 14-term binomial denominator.
POLYLOG_12_NUM = [
    0, -1, 4083, -478271, 10187685, -66318474, 162512286,
    -162512286, 66318474, -10187685, 478271, -4083, 1,
]
POLYLOG_12_DEN = [1, 13, 78, 286, 715, 1287, 1716, 1716, 1287, 715, 286, 78, 13, 1]
POLYLOG_12_NUM_TEXT = (
    "-t + 4083*t^2 - 478271*t^3 + 10187685*t^4 - 66318474*t^5 + 162512286*t^6"
    " - 162512286*t^7 + 66318474*t^8 - 10187685*t^9 + 478271*t^10 - 4083*t^11 + t^12"
)
POLYLOG_12_DEN_TEXT = (
    "1 + 13*t + 78*t^2 + 286*t^3 + 715*t^4 + 1287*t^5 + 1716*t^6 + 1716*t^7"
    " + 1287*t^8 + 715*t^9 + 286*t^10 + 78*t^11 + 13*t^12 + t^13"
)
POLYLOG_12_PLAIN = f"Li_{{-12}}(-t) = ({POLYLOG_12_NUM_TEXT})/({POLYLOG_12_DEN_TEXT})\n"
POLYLOG_12_CSV = f"n,numerator,denominator,at,value\n12,{POLYLOG_12_NUM_TEXT},{POLYLOG_12_DEN_TEXT},"
POLYLOG_12_JSON = (
    '{\n  "n": 12,\n  "numerator": [\n'
    + ",\n".join(f'    "{c}"' for c in POLYLOG_12_NUM)
    + '\n  ],\n  "denominator": [\n'
    + ",\n".join(f'    "{c}"' for c in POLYLOG_12_DEN)
    + "\n  ],\n"
)
POLYLOG_12_GOLDEN = {
    ("plain", None): POLYLOG_12_PLAIN,
    ("plain", "3/7"): POLYLOG_12_PLAIN + "value at t = 3/7: -2850661086/48828125\n",
    ("csv", None): POLYLOG_12_CSV + ",\n",
    ("csv", "3/7"): POLYLOG_12_CSV + "3/7,-2850661086/48828125\n",
    ("json", None): POLYLOG_12_JSON + '  "at": null,\n  "value": null\n}\n',
    ("json", "3/7"): POLYLOG_12_JSON
    + '  "at": "3/7",\n  "value": {\n    "num": "-2850661086",\n    "den": "48828125"\n  }\n}\n',
}


# Golden stdout of `polylog 40 --at=-7/3` and `polylog 100 --at=-7/3` in
# each format, one file per order and format: order 40's value at a
# negative non-integer point has a 65-digit numerator over 4^22, and
# order 100 has more coefficients than one Horner leaf of the exact
# evaluator, so its value comes from split halves.  `--at -7/3`, with a
# space, must print the same.
POLYLOG_40_GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Golden stdout and exit code of one invocation of every subcommand in
# every format, captured before the output layer was unified.  Only the
# values that do not reproduce are masked: the quadrature's float
# estimate and errors (their last bits follow the platform's libm) and
# the bench timings.
CLI_GOLDEN_ARGV = {
    "bernoulli": ["bernoulli", "12", "--method", "split", "--m", "5"],
    "stirling": ["stirling", "7", "3"],
    "table": ["table", "bernoulli", "--max", "2"],
    "identity": ["identity", "3", "5"],
    "polylog": ["polylog", "3", "--at", "1/2"],
    "verify-integral": ["verify-integral", "2", "2"],
    "beta-check": ["beta-check", "2", "3"],
    "oeis-check": ["oeis-check", "--numerators", NUMERATORS, "--denominators", DENOMINATORS, "--max", "1"],
    "bench": ["bench", "--max-sum", "0"],
}
NOISY_FIELDS = {
    "verify-integral": ("estimate", "abs_error", "rel_error"),
    "beta-check": ("estimate", "abs_error", "rel_error"),
    "bench": ("seconds",),
}


def mask_noisy(cmd, fmt, out):
    """Replace the NOISY_FIELDS values of `cmd`'s output with '*'."""
    keys = NOISY_FIELDS.get(cmd, ())
    if not keys:
        return out
    if fmt == "json":
        return re.sub(r'("(?:%s)": )[^,\n]+' % "|".join(keys), r"\1*", out)
    if fmt == "csv":
        header, *rows = out.splitlines()
        cols = {header.split(",").index(k) for k in keys}
        rows = [",".join("*" if i in cols else c for i, c in enumerate(r.split(","))) for r in rows]
        return "\n".join([header, *rows]) + "\n"
    if cmd == "bench":
        return re.sub(r"\d\.\d{3}e[-+]\d\d", "*.***e-**", out)
    return re.sub(r"(?m)^(estimate  = |abs_error = |rel_error = )\S+", r"\1*", out)


CLI_GOLDEN = {
    ("bernoulli", "plain"): (0, """\
-691/2730
"""),
    ("bernoulli", "csv"): (0, """\
n,value
12,-691/2730
"""),
    ("bernoulli", "json"): (0, """\
{
  "n": 12,
  "value": {
    "num": "-691",
    "den": "2730"
  }
}
"""),
    ("stirling", "plain"): (0, """\
301
"""),
    ("stirling", "csv"): (0, """\
n,k,value
7,3,301
"""),
    ("stirling", "json"): (0, """\
{
  "n": 7,
  "k": 3,
  "value": "301"
}
"""),
    ("table", "plain"): (0, """\
B_0 = 1
B_1 = -1/2
B_2 = 1/6
"""),
    ("table", "csv"): (0, """\
n,value
0,1
1,-1/2
2,1/6
"""),
    ("table", "json"): (0, """\
{
  "max": 2,
  "values": [
    {
      "n": 0,
      "value": {
        "num": "1",
        "den": "1"
      }
    },
    {
      "n": 1,
      "value": {
        "num": "-1",
        "den": "2"
      }
    },
    {
      "n": 2,
      "value": {
        "num": "1",
        "den": "6"
      }
    }
  ]
}
"""),
    ("identity", "plain"): (0, """\
B_8 = -1/30
MATCH
"""),
    ("identity", "csv"): (0, """\
m,n,index,split,recurrence,match
3,5,8,-1/30,-1/30,true
"""),
    ("identity", "json"): (0, """\
{
  "m": 3,
  "n": 5,
  "index": 8,
  "split": {
    "num": "-1",
    "den": "30"
  },
  "recurrence": {
    "num": "-1",
    "den": "30"
  },
  "match": true
}
"""),
    ("polylog", "plain"): (0, """\
Li_{-3}(-t) = (-t + 4*t^2 - t^3)/(1 + 4*t + 6*t^2 + 4*t^3 + t^4)
value at t = 1/2: 2/27
"""),
    ("polylog", "csv"): (0, """\
n,numerator,denominator,at,value
3,-t + 4*t^2 - t^3,1 + 4*t + 6*t^2 + 4*t^3 + t^4,1/2,2/27
"""),
    ("polylog", "json"): (0, """\
{
  "n": 3,
  "numerator": [
    "0",
    "-1",
    "4",
    "-1"
  ],
  "denominator": [
    "1",
    "4",
    "6",
    "4",
    "1"
  ],
  "at": "1/2",
  "value": {
    "num": "2",
    "den": "27"
  }
}
"""),
    ("verify-integral", "plain"): (0, """\
m=2 n=2 panels=16 nodes=32
estimate  = *
expected  = -1/30 (-0.03333333333333333)
abs_error = *
rel_error = * (tol 1e-06)
PASS
"""),
    ("verify-integral", "csv"): (0, """\
m,n,estimate,expected,abs_error,rel_error,panels,nodes,status
2,2,*,-1/30,*,*,16,32,PASS
"""),
    ("verify-integral", "json"): (0, """\
{
  "m": 2,
  "n": 2,
  "estimate": *,
  "expected": {
    "num": "-1",
    "den": "30"
  },
  "abs_error": *,
  "rel_error": *,
  "panels": 16,
  "nodes": 32,
  "tol": 1e-06,
  "status": "PASS"
}
"""),
    ("beta-check", "plain"): (0, """\
k=2 l=3 panels=16 nodes=32
estimate  = *
expected  = 1/60 (0.016666666666666666)
abs_error = *
rel_error = * (tol 1e-08)
PASS
"""),
    ("beta-check", "csv"): (0, """\
k,l,estimate,expected,abs_error,rel_error,panels,nodes,status
2,3,*,1/60,*,*,16,32,PASS
"""),
    ("beta-check", "json"): (0, """\
{
  "k": 2,
  "l": 3,
  "estimate": *,
  "expected": {
    "num": "1",
    "den": "60"
  },
  "abs_error": *,
  "rel_error": *,
  "panels": 16,
  "nodes": 32,
  "tol": 1e-08,
  "status": "PASS"
}
"""),
    ("oeis-check", "plain"): (0, """\
n=0 PASS
n=1 PASS
2/2 PASS
"""),
    ("oeis-check", "csv"): (0, """\
n,file_value,recurrence,split,status
0,1,1,1,PASS
1,-1/2,-1/2,-1/2,PASS
"""),
    ("oeis-check", "json"): (0, """\
{
  "max": 1,
  "rows": [
    {
      "n": 0,
      "file_value": {
        "num": "1",
        "den": "1"
      },
      "recurrence": {
        "num": "1",
        "den": "1"
      },
      "split": {
        "num": "1",
        "den": "1"
      },
      "ok": true
    },
    {
      "n": 1,
      "file_value": {
        "num": "-1",
        "den": "2"
      },
      "recurrence": {
        "num": "-1",
        "den": "2"
      },
      "split": {
        "num": "-1",
        "den": "2"
      },
      "ok": true
    }
  ],
  "all_pass": true
}
"""),
    ("bench", "plain"): (0, """\
method           n  split_m       seconds  result_hash
recurrence       0        -     *.***e-**  60b68d34e27ffb77
stirling-sum     0        -     *.***e-**  60b68d34e27ffb77
split            0        0     *.***e-**  60b68d34e27ffb77
"""),
    ("bench", "csv"): (0, """\
method,n,split_m,seconds,result_hash
recurrence,0,,*,60b68d34e27ffb77
stirling-sum,0,,*,60b68d34e27ffb77
split,0,0,*,60b68d34e27ffb77
"""),
    ("bench", "json"): (0, """\
{
  "max_sum": 0,
  "rows": [
    {
      "method": "recurrence",
      "n": 0,
      "split_m": null,
      "seconds": *,
      "result_hash": "60b68d34e27ffb77"
    },
    {
      "method": "stirling-sum",
      "n": 0,
      "split_m": null,
      "seconds": *,
      "result_hash": "60b68d34e27ffb77"
    },
    {
      "method": "split",
      "n": 0,
      "split_m": 0,
      "seconds": *,
      "result_hash": "60b68d34e27ffb77"
    }
  ]
}
"""),
}

# `identity 3 5` with a split sum that is off by one, in each format.
IDENTITY_MISMATCH_GOLDEN = {
    "plain": "B_8 = 29/30\nMISMATCH (recurrence gives -1/30)\n",
    "csv": "m,n,index,split,recurrence,match\n3,5,8,29/30,-1/30,false\n",
    "json": (
        '{\n  "m": 3,\n  "n": 5,\n  "index": 8,\n'
        '  "split": {\n    "num": "29",\n    "den": "30"\n  },\n'
        '  "recurrence": {\n    "num": "-1",\n    "den": "30"\n  },\n'
        '  "match": false\n}\n'
    ),
}


class TestBernoulliCommand:
    def test_plain_output_is_identical_across_methods(self, capsys):
        for n in range(61):
            _, base, _ = run_capture(capsys, "bernoulli", str(n))
            _, via_sum, _ = run_capture(capsys, "bernoulli", str(n), "--method", "stirling-sum")
            _, via_split, _ = run_capture(capsys, "bernoulli", str(n), "--method", "split")
            assert base == via_sum == via_split, n

    def test_plain_value(self, capsys):
        code, out, _ = run_capture(capsys, "bernoulli", "12")
        assert code == 0
        assert out == "-691/2730\n"

    def test_split_m_flag(self, capsys):
        code, out, _ = run_capture(capsys, "bernoulli", "12", "--method", "split", "--m", "5")
        assert code == 0 and out == "-691/2730\n"

    def test_json_output(self, capsys):
        code, out, _ = run_capture(capsys, "bernoulli", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 1, "value": {"num": "-1", "den": "2"}}

    def test_csv_output(self, capsys):
        code, out, _ = run_capture(capsys, "bernoulli", "4", "--format", "csv")
        assert code == 0
        assert out == "n,value\n4,-1/30\n"

    def test_m_without_split_is_a_usage_error(self, capsys):
        code, _, err = run_capture(capsys, "bernoulli", "4", "--m", "2")
        assert code == 2 and "error" in err

    def test_m_beyond_n_is_a_usage_error(self, capsys):
        code, _, err = run_capture(capsys, "bernoulli", "4", "--method", "split", "--m", "5")
        assert code == 2 and "must not exceed" in err

    def test_negative_n_rejected_by_the_parser(self, capsys):
        code, _, err = run_capture(capsys, "bernoulli", "-1")
        assert code == 2 and "non-negative" in err

    @pytest.mark.parametrize("argv,message", [
        (["bernoulli", "x"], "argument n: 'x' is not an integer"),
        (["bernoulli", "-1"], "argument n: value must be non-negative"),
        (["stirling", "3", "1.5"], "argument k: '1.5' is not an integer"),
        (["verify-integral", "1", "1", "--panels", "0"], "argument --panels: value must be positive"),
        (["verify-integral", "1", "1", "--panels", "y"], "argument --panels: 'y' is not an integer"),
    ])
    def test_integer_argument_messages(self, capsys, argv, message):
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")


class TestOtherValueCommands:
    def test_stirling(self, capsys):
        code, out, _ = run_capture(capsys, "stirling", "7", "3")
        assert code == 0 and out == "301\n"

    def test_stirling_csv(self, capsys):
        code, out, _ = run_capture(capsys, "stirling", "5", "2", "--format", "csv")
        assert code == 0 and out == "n,k,value\n5,2,15\n"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
    def test_stirling_at_the_size_cap_keeps_the_triangle_small(self):
        # The triangle keeps one row in 16 above row 300, so this request
        # peaks at about 35 MB; keeping every row to 1000 took 212 MB.
        n, k = MAX_SIZE, MAX_SIZE // 2
        value = sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1)) // factorial(k)
        proc = run_measured("stirling", str(n), str(k))
        *out, last = proc.stdout.splitlines()
        status, peak_kib = map(int, last.split())
        assert (out, status, proc.stderr) == ([str(value)], 0, "")
        assert peak_kib < 96 * 1024

    def test_table_plain(self, capsys):
        code, out, _ = run_capture(capsys, "table", "bernoulli", "--max", "4")
        assert code == 0
        assert out.splitlines() == [
            "B_0 = 1",
            "B_1 = -1/2",
            "B_2 = 1/6",
            "B_3 = 0",
            "B_4 = -1/30",
        ]

    def test_table_json(self, capsys):
        code, out, _ = run_capture(capsys, "table", "bernoulli", "--max", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["max"] == 2
        assert payload["values"][2] == {"n": 2, "value": {"num": "1", "den": "6"}}

    def test_table_rejects_unknown_subject(self, capsys):
        code, _, err = run_capture(capsys, "table", "fibonacci", "--max", "4")
        assert code == 2

    def test_identity_matches(self, capsys):
        code, out, _ = run_capture(capsys, "identity", "3", "5")
        assert code == 0
        assert out.splitlines() == ["B_8 = -1/30", "MATCH"]

    def test_identity_csv(self, capsys):
        code, out, _ = run_capture(capsys, "identity", "1", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["m", "n", "index", "split", "recurrence", "match"]
        assert rows[1] == ["1", "1", "2", "1/6", "1/6", "true"]

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_identity_at_the_limit_matches(self, capsys, fmt):
        m, n = MAX_SIZE // 2, MAX_SIZE - MAX_SIZE // 2
        code, out, err = run_capture(capsys, "identity", str(m), str(n), "--format", fmt)
        assert (code, err) == (0, "")
        b = bernoulli_recurrence(MAX_SIZE)
        if fmt == "plain":
            assert out == f"B_{MAX_SIZE} = {b}\nMATCH\n"
        elif fmt == "csv":
            assert list(csv.reader(io.StringIO(out)))[1] == [str(m), str(n), str(MAX_SIZE), str(b), str(b), "true"]
        else:
            payload = json.loads(out)
            assert payload["split"] == payload["recurrence"] == {"num": str(b.numerator), "den": str(b.denominator)}
            assert payload["match"] is True

    def test_polylog_plain(self, capsys):
        code, out, _ = run_capture(capsys, "polylog", "2")
        assert code == 0
        assert out == "Li_{-2}(-t) = (-t + t^2)/(1 + 3*t + 3*t^2 + t^3)\n"

    def test_polylog_plain_line_is_the_rendered_function(self, capsys):
        for n in range(61):
            code, out, _ = run_capture(capsys, "polylog", str(n))
            assert (code, out) == (0, f"Li_{{-{n}}}(-t) = {polylog_neg_rf(n).render('t')}\n"), n

    def test_polylog_with_evaluation(self, capsys):
        code, out, _ = run_capture(capsys, "polylog", "1", "--at", "1/2")
        assert code == 0
        assert out.splitlines()[1] == "value at t = 1/2: -2/9"

    def test_polylog_json(self, capsys):
        code, out, _ = run_capture(capsys, "polylog", "1", "--at", "1", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["numerator"] == ["0", "-1"]
        assert payload["denominator"] == ["1", "2", "1"]
        assert payload["value"] == {"num": "-1", "den": "4"}

    def test_polylog_pole_is_a_data_error(self, capsys):
        code, _, err = run_capture(capsys, "polylog", "2", "--at", "-1")
        assert code == 2 and "pole" in err

    def test_polylog_bad_rational_rejected(self, capsys):
        assert run_capture(capsys, "polylog", "2", "--at", "abc")[0] == 2
        assert run_capture(capsys, "polylog", "2", "--at", "1/0")[0] == 2
        assert run_capture(capsys, "polylog", "2", "--at", "-x")[0] == 2

    @pytest.mark.parametrize("fmt,at", sorted(POLYLOG_12_GOLDEN, key=str))
    def test_polylog_order_12_golden(self, capsys, fmt, at):
        argv = ["polylog", "12", "--format", fmt] + ([] if at is None else ["--at", at])
        assert run_capture(capsys, *argv) == (0, POLYLOG_12_GOLDEN[fmt, at], "")

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_polylog_order_40_at_negative_point_golden(self, capsys, fmt):
        golden = (POLYLOG_40_GOLDEN_DIR / f"polylog_40_at_-7_3.{fmt}").read_text()
        argv = ["polylog", "40", "--at=-7/3", "--format", fmt]
        assert run_capture(capsys, *argv) == (0, golden, "")

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_polylog_order_100_at_negative_point_golden(self, capsys, fmt):
        golden = (POLYLOG_40_GOLDEN_DIR / f"polylog_100_at_-7_3.{fmt}").read_text()
        argv = ["polylog", "100", "--at=-7/3", "--format", fmt]
        assert run_capture(capsys, *argv) == (0, golden, "")

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_polylog_negative_fraction_as_separate_argument(self, capsys, fmt):
        golden = (POLYLOG_40_GOLDEN_DIR / f"polylog_40_at_-7_3.{fmt}").read_text()
        argv = ["polylog", "40", "--at", "-7/3", "--format", fmt]
        assert run_capture(capsys, *argv) == (0, golden, "")


class TestQuadratureCommands:
    def test_verify_integral_passes(self, capsys):
        code, out, _ = run_capture(capsys, "verify-integral", "2", "2")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"
        assert "expected  = -1/30" in out

    def test_verify_integral_json(self, capsys):
        code, out, _ = run_capture(capsys, "verify-integral", "1", "1", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "PASS"
        assert payload["expected"] == {"num": "1", "den": "6"}
        assert payload["rel_error"] <= 1e-6
        assert (payload["panels"], payload["nodes"]) == (16, 32)

    def test_verify_integral_with_cranked_tolerance_fails(self, capsys):
        code, out, _ = run_capture(capsys, "verify-integral", "0", "0", "--tol", "1e-18")
        assert code == 1
        assert out.splitlines()[-1] == "FAIL"

    def test_verify_integral_scope_error(self, capsys):
        code, _, err = run_capture(capsys, "verify-integral", "7", "7")
        assert code == 2 and "scoped" in err

    def test_custom_panels_and_nodes(self, capsys):
        code, out, _ = run_capture(
            capsys, "verify-integral", "1", "2", "--panels", "4", "--nodes", "12"
        )
        assert code == 0
        assert "panels=4 nodes=12" in out

    def test_beta_check_passes(self, capsys):
        code, out, _ = run_capture(capsys, "beta-check", "2", "3")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"

    def test_beta_check_csv(self, capsys):
        code, out, _ = run_capture(capsys, "beta-check", "1", "1", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert code == 0
        assert rows[0][:2] == ["k", "l"]
        assert rows[1][3] == "1/6" and rows[1][-1] == "PASS"

    def test_beta_check_scope_error(self, capsys):
        code, _, err = run_capture(capsys, "beta-check", "15", "15")
        assert code == 2 and "scoped" in err

    @pytest.mark.parametrize("argv", [["verify-integral", "2", "2"], ["beta-check", "2", "3"]])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, argv, tol):
        code, out, err = run_capture(capsys, *argv, "--tol", tol)
        assert (code, out) == (2, "")
        assert "usage:" in err and "finite and non-negative" in err

    def test_tolerance_must_be_a_number(self, capsys):
        code, out, err = run_capture(capsys, "verify-integral", "2", "2", "--tol", "abc")
        assert (code, out) == (2, "")
        assert "argument --tol: invalid float value: 'abc'" in err

    def test_zero_tolerance_is_accepted(self, capsys):
        code, out, _ = run_capture(capsys, "beta-check", "0", "0", "--tol", "0")
        assert code in (0, 1) and "(tol 0)" in out

    @pytest.mark.parametrize("panels,nodes", [(MAX_PANELS, 2), (1, MAX_NODES)])
    def test_largest_rule_is_accepted(self, capsys, panels, nodes):
        code, out, err = run_capture(
            capsys, "beta-check", "2", "3", "--panels", str(panels), "--nodes", str(nodes)
        )
        assert (code, err) == (0, "")
        assert f"panels={panels} nodes={nodes}" in out


BLOCK = 2**16  # the characters cli._bfile_lines reads at a time
_ENDS = "\f\x85\u2028"
# b-file texts whose lines end on or run across the reader's block edges.
BLOCK_EDGE_TEXTS = {
    # \r is the file's last character of block 1 and \n its first of block 2
    "crlf-split-by-an-edge": "0 1\n#" + "x" * (BLOCK - 6) + "\r\n1 1\n",
    "four-blocks-without-newline": "".join(f"{i} 1" + _ENDS[i % 3] for i in range(30000)),
    "blocks-end-on-line-breaks": (
        "0 1\n#" + "x" * (BLOCK - 6) + "\n1 1\n#" + "x" * (BLOCK - 6) + "\x1d2 1\n"
    ),
    "unended-last-line-across-an-edge": "0 1\n1" + " " * BLOCK + "1",
}


class TestOeisCheckCommand:
    def test_shipped_fixtures_pass(self, capsys):
        code, out, _ = run_capture(
            capsys, "oeis-check", "--numerators", NUMERATORS,
            "--denominators", DENOMINATORS, "--max", "30",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=0 PASS"
        assert lines[-1] == "31/31 PASS"

    def test_cap_admits_the_shipped_files_and_is_tighter_than_max_size(self):
        # The sweep grows about as --max^4; MAX_SIZE would run a minute.
        assert 30 <= MAX_OEIS_CHECK < MAX_SIZE

    def test_json_shape(self, capsys):
        code, out, _ = run_capture(
            capsys, "oeis-check", "--numerators", NUMERATORS,
            "--denominators", DENOMINATORS, "--max", "12", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["all_pass"] is True
        assert payload["rows"][12]["file_value"] == {"num": "-691", "den": "2730"}

    def test_tampered_numerator_fails(self, capsys, tmp_path):
        lines = Path(NUMERATORS).read_text().splitlines()
        lines[-1] = "30 8615841276006"  # off by one
        bad = tmp_path / "nums.txt"
        bad.write_text("\n".join(lines) + "\n")
        code, out, _ = run_capture(
            capsys, "oeis-check", "--numerators", str(bad),
            "--denominators", DENOMINATORS, "--max", "30",
        )
        assert code == 1
        assert "n=30 FAIL" in out
        assert "30/31 PASS" in out

    def test_undercovered_range_is_a_data_error(self, capsys, no_bernoulli_values):
        for max_n in ("31", "40"):
            code, out, err = run_capture(
                capsys, "oeis-check", "--numerators", NUMERATORS,
                "--denominators", DENOMINATORS, "--max", max_n,
            )
            assert (code, out, err) == (2, "", "error: numerator file does not cover index 31\n")

    def test_missing_file_is_a_data_error(self, capsys):
        code, _, err = run_capture(
            capsys, "oeis-check", "--numerators", "/nonexistent/nums.txt",
            "--denominators", DENOMINATORS, "--max", "5",
        )
        assert code == 2 and "error" in err

    def test_value_past_the_digit_limit_exits_two(self, capsys, tmp_path, set_str_digit_limit):
        # the entry lies past --max, but the whole file is parsed
        set_str_digit_limit(4300)
        bad = tmp_path / "nums.txt"
        bad.write_text(Path(NUMERATORS).read_text() + "3000 " + "7" * 4400 + "\n")
        code, out, err = run_capture(
            capsys, "oeis-check", "--numerators", str(bad),
            "--denominators", DENOMINATORS, "--max", "1",
        )
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300
        assert err == (
            f"error: line 34: a number in '3000 {'7' * 35}'... has 4400 digits, "
            "over the interpreter's int-str limit of 4300\n"
        )

    def test_zero_denominator_exits_two(self, capsys, tmp_path, no_bernoulli_values):
        text = Path(DENOMINATORS).read_text()
        assert "\n7 1\n" in text
        bad = tmp_path / "dens.txt"
        bad.write_text(text.replace("\n7 1\n", "\n7 0\n"))
        code, out, err = run_capture(
            capsys, "oeis-check", "--numerators", NUMERATORS,
            "--denominators", str(bad), "--max", "10",
        )
        assert (code, out) == (2, "")
        assert err == "error: denominator file has 0 at index 7\n"

    def test_malformed_file_reports_its_line(self, capsys, tmp_path):
        bad = tmp_path / "nums.txt"
        bad.write_text("0 1\n1 one half\n")
        code, _, err = run_capture(
            capsys, "oeis-check", "--numerators", str(bad),
            "--denominators", DENOMINATORS, "--max", "1",
        )
        assert code == 2 and "line 2" in err

    def test_a_file_of_exactly_the_cap_is_read(self, capsys, tmp_path, monkeypatch):
        text = Path(NUMERATORS).read_text()
        monkeypatch.setattr(cli, "MAX_BFILE_CHARS", len(text))
        monkeypatch.chdir(tmp_path)
        Path("nums.txt").write_text(text)
        argv = ["oeis-check", "--numerators", "nums.txt", "--denominators", DENOMINATORS, "--max", "1"]
        code, out, err = run_capture(capsys, *argv)
        assert (code, out, err) == (0, "n=0 PASS\nn=1 PASS\n2/2 PASS\n", "")
        Path("nums.txt").write_text(text + "#")
        code, out, err = run_capture(capsys, *argv)
        assert (code, out, err) == (
            2, "", f"error: b-file 'nums.txt' is over the cap of {len(text)} characters\n"
        )

    def test_a_long_path_is_echoed_cut(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BFILE_CHARS", 10)
        nums = tmp_path / ("n" * 60 + ".txt")
        nums.write_text(Path(NUMERATORS).read_text())
        code, out, err = run_capture(
            capsys, "oeis-check", "--numerators", str(nums),
            "--denominators", DENOMINATORS, "--max", "1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: b-file {str(nums)[:40]!r}... is over the cap of 10 characters\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_an_endless_file_exits_two_in_a_fresh_process(self):
        proc = run_code(
            CLI, "oeis-check", "--numerators", "/dev/zero", "--denominators", DENOMINATORS, "--max", "1"
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", f"error: b-file '/dev/zero' is over the cap of {MAX_BFILE_CHARS} characters\n"
        )


    def test_lines_are_numbered_as_str_splitlines_numbers_them(self, capsys, tmp_path):
        # \f, \x1c, \x85, \u2028 and \v end a line for str.splitlines but
        # not for file iteration.  The file is read in blocks of 2**16
        # characters: one line runs across a block edge, and a \f ends
        # the second block.  Both keep the line count of the text read
        # whole, here and in the error message.
        block = 2**16
        text = "0 1\n1" + " " * (block + 100) + "1\n"
        text += "#" + "x" * (2 * block - 2 - len(text)) + "\x0c"
        assert len(text) == 2 * block
        text += "2 1\x1c3 1\x854 1\u20285 1\v6 1\r7 1\r\n8 1\n"
        path = tmp_path / "nums.txt"
        path.write_text(text, encoding="utf-8", newline="")
        whole = parse_bfile_text(path.read_text(encoding="utf-8"))
        assert list(whole) == list(range(9))
        assert cli._read_bfile(str(path), 10**9) == whole
        assert cli._read_bfile(str(path), 4) == {k: v for k, v in whole.items() if k <= 4}
        lineno = len(path.read_text(encoding="utf-8").splitlines()) + 1
        assert lineno == 11  # file iteration would make it 6
        path.write_text(text + "9 x\n", encoding="utf-8", newline="")
        code, out, err = run_capture(
            capsys, "oeis-check", "--numerators", str(path),
            "--denominators", DENOMINATORS, "--max", "1",
        )
        assert (code, out, err) == (2, "", f"error: line {lineno}: non-integer token in '9 x'\n")

    @pytest.mark.parametrize("text", BLOCK_EDGE_TEXTS.values(), ids=BLOCK_EDGE_TEXTS.keys())
    def test_block_edges_keep_the_lines_of_str_splitlines(self, capsys, tmp_path, text):
        path = tmp_path / "nums.txt"
        path.write_text(text, encoding="utf-8", newline="")
        whole = path.read_text(encoding="utf-8")  # newlines translated, as the reader reads them
        with open(path, encoding="utf-8") as f:
            assert list(cli._bfile_lines(f, str(path))) == whole.splitlines()
        assert len(parse_bfile_text(whole)) >= 2
        assert cli._read_bfile(str(path), 10**9) == parse_bfile_text(whole)
        path.write_text(text + "\nx y\n", encoding="utf-8", newline="")
        lineno = len(path.read_text(encoding="utf-8").splitlines())
        code, out, err = run_capture(
            capsys, "oeis-check", "--numerators", str(path),
            "--denominators", DENOMINATORS, "--max", "1",
        )
        assert (code, out, err) == (2, "", f"error: line {lineno}: non-integer token in 'x y'\n")

    def test_the_cap_outranks_a_malformed_line(self, capsys, tmp_path, monkeypatch):
        # a fault of the whole file is reported ahead of a malformed line
        monkeypatch.setattr(cli, "MAX_BFILE_CHARS", 100)
        monkeypatch.chdir(tmp_path)
        Path("nums.txt").write_text("0 1\n1 one half\n" + "# padding\n" * 20)
        code, out, err = run_capture(
            capsys, "oeis-check", "--numerators", "nums.txt",
            "--denominators", DENOMINATORS, "--max", "1",
        )
        assert (code, out, err) == (2, "", "error: b-file 'nums.txt' is over the cap of 100 characters\n")

    def test_an_undecodable_byte_outranks_a_malformed_line(self, capsys, tmp_path):
        bad = tmp_path / "nums.txt"
        bad.write_bytes(b"0 1\n1 one half\n" + b"2 3\n" * 20000 + b"\xff\n")
        code, out, err = run_capture(
            capsys, "oeis-check", "--numerators", str(bad),
            "--denominators", DENOMINATORS, "--max", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff in position ")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB is Linux's")
    def test_near_cap_files_keep_only_the_checked_entries(self, tmp_path):
        # Two files just under the cap with one short line per index: all
        # their entries and lines held at once take about 271 MB, while the
        # interpreter and bernlab alone take about 17 MB.
        path = tmp_path / "ones.txt"
        with open(path, "w") as f:
            f.writelines(f"{i} 1\n" for i in range(944413))
        assert MAX_BFILE_CHARS - 16 < path.stat().st_size <= MAX_BFILE_CHARS
        proc = run_measured("oeis-check", "--numerators", str(path), "--denominators", str(path), "--max", "1")
        assert proc.stdout.splitlines()[:-1] == ["n=0 PASS", "n=1 FAIL file=1 recurrence=-1/2 split=-1/2",
                                                 "1/2 PASS"]
        status, peak_kib = map(int, proc.stdout.splitlines()[-1].split())
        assert status == 1
        assert peak_kib < 64 * 1024


class TestBenchCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_capture(capsys, "bench", "--max-sum", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "n", "split_m", "seconds", "result_hash"]
        assert len(rows) == 1 + sum(2 + n + 1 for n in range(4))
        # every timing must parse as a non-negative float
        assert all(float(r[3]) >= 0.0 for r in rows[1:])

    def test_plain_output(self, capsys):
        code, out, _ = run_capture(capsys, "bench", "--max-sum", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["method", "n", "split_m", "seconds", "result_hash"]
        assert lines[1].startswith("recurrence")

    def test_json_output(self, capsys):
        code, out, _ = run_capture(capsys, "bench", "--max-sum", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["max_sum"] == 2
        assert payload["rows"][0]["method"] == "recurrence"
        assert payload["rows"][0]["split_m"] is None

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_mismatch_exits_one(self, capsys, monkeypatch, fmt):
        real = cli.bernoulli_split
        monkeypatch.setattr(cli, "bernoulli_split", lambda m, n: real(m, n) + 1)
        code, out, err = run_capture(capsys, "bench", "--max-sum", "2", "--format", fmt)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: split (0, 0) disagrees at n=0")

    def test_oversized_sweep_is_a_usage_error(self, capsys):
        code, _, err = run_capture(capsys, "bench", "--max-sum", "500")
        assert code == 2 and "capped" in err


class TestEntryPoint:
    def test_unknown_subcommand(self, capsys):
        assert run_capture(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run_capture(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_capture(capsys, "--help")[0] == 0
        assert run_capture(capsys, "bernoulli", "--help")[0] == 0

    def test_json_is_well_formed_for_every_subcommand(self, capsys):
        invocations = [
            ("bernoulli", "6"),
            ("stirling", "6", "3"),
            ("table", "bernoulli", "--max", "4"),
            ("identity", "2", "2"),
            ("polylog", "3"),
            ("verify-integral", "1", "1"),
            ("beta-check", "2", "2"),
            ("oeis-check", "--numerators", NUMERATORS, "--denominators", DENOMINATORS, "--max", "8"),
            ("bench", "--max-sum", "1"),
        ]
        for argv in invocations:
            code, out, _ = run_capture(capsys, *argv, "--format", "json")
            assert code == 0, argv
            json.loads(out)  # must parse

    def test_main_uses_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["bernlab", "bernoulli", "4"])
        with pytest.raises(SystemExit) as exc_info:
            main()
        assert exc_info.value.code == 0
        assert capsys.readouterr().out == "-1/30\n"

    @pytest.mark.parametrize("module", ["bernlab", "bernlab.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "bernoulli", "10"],
            env=environment(), capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "5/66\n", "")

    def test_closed_stdout_exits_like_sigpipe(self, tmp_path):
        # The table is several hundred KB, far more than one pipe buffer,
        # so bernlab is still writing when the reader goes away.
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI, "table", "bernoulli", "--max", "1000"],
                env=environment(), stdout=subprocess.PIPE, stderr=err,
            )
            first = proc.stdout.readline()
            proc.stdout.close()
            status = proc.wait(timeout=60)
        assert (first, status, (tmp_path / "stderr").read_text()) == (b"B_0 = 1\n", 141, "")

    def test_closed_stdout_is_not_a_data_error(self, monkeypatch):
        def closed(output, fmt):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "_emit", closed)
        with pytest.raises(BrokenPipeError):
            run(["bernoulli", "4"])


def oeis_golden_row(n, file_value, value, ok):
    return {"n": n, "file_value": file_value, "recurrence": value, "split": value, "ok": ok}


ONE, HALF, SIXTH = ({"num": "1", "den": str(d)} for d in (1, 2, 6))
MINUS_HALF = {"num": "-1", "den": "2"}
OEIS_CSV_HEADER = "n,file_value,recurrence,split,status\n"

# One-row tables and a table with a FAIL row: the CSV header is the first
# row's keys, so these pin it where the table is as short as it gets.
# JSON entries are the parsed objects; their bytes are json.dumps(..., indent=2).
SMALL_TABLE_GOLDEN = {
    ("table", "csv"): (0, "n,value\n0,1\n"),
    ("table", "json"): (0, {"max": 0, "values": [{"n": 0, "value": ONE}]}),
    ("oeis-check", "csv"): (0, OEIS_CSV_HEADER + "0,1,1,1,PASS\n"),
    ("oeis-check", "json"): (
        0, {"max": 0, "rows": [oeis_golden_row(0, ONE, ONE, True)], "all_pass": True}
    ),
    ("tampered", "csv"): (
        1, OEIS_CSV_HEADER + "0,1,1,1,PASS\n1,1/2,-1/2,-1/2,FAIL\n2,1/6,1/6,1/6,PASS\n"
    ),
    ("tampered", "json"): (1, {
        "max": 2,
        "rows": [
            oeis_golden_row(0, ONE, ONE, True),
            oeis_golden_row(1, HALF, MINUS_HALF, False),
            oeis_golden_row(2, SIXTH, SIXTH, True),
        ],
        "all_pass": False,
    }),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("cmd,fmt", sorted(SMALL_TABLE_GOLDEN))
    def test_smallest_tables_and_a_fail_row(self, capsys, tmp_path, cmd, fmt):
        text = Path(NUMERATORS).read_text()
        assert "\n1 -1\n" in text
        tampered = tmp_path / "nums.txt"
        tampered.write_text(text.replace("\n1 -1\n", "\n1 1\n"))
        argv = {
            "table": ["table", "bernoulli", "--max", "0"],
            "oeis-check": ["oeis-check", "--numerators", NUMERATORS, "--denominators", DENOMINATORS, "--max", "0"],
            "tampered": ["oeis-check", "--numerators", str(tampered), "--denominators", DENOMINATORS, "--max", "2"],
        }[cmd]
        code, expected = SMALL_TABLE_GOLDEN[cmd, fmt]
        if fmt == "json":
            expected = json.dumps(expected, indent=2) + "\n"
        assert run_capture(capsys, *argv, "--format", fmt) == (code, expected, "")

    @pytest.mark.parametrize("cmd,fmt", sorted(CLI_GOLDEN))
    def test_every_subcommand_in_every_format(self, capsys, cmd, fmt):
        code, out, err = run_capture(capsys, *CLI_GOLDEN_ARGV[cmd], "--format", fmt)
        assert (code, mask_noisy(cmd, fmt, out), err) == (*CLI_GOLDEN[cmd, fmt], "")

    @pytest.mark.parametrize("fmt", sorted(IDENTITY_MISMATCH_GOLDEN))
    def test_identity_mismatch_exits_one(self, capsys, monkeypatch, fmt):
        real = cli.bernoulli_split
        monkeypatch.setattr(cli, "bernoulli_split", lambda m, n: real(m, n) + 1)
        code, out, err = run_capture(capsys, "identity", "3", "5", "--format", fmt)
        assert (code, out, err) == (1, IDENTITY_MISMATCH_GOLDEN[fmt], "")


class TestCostGuards:
    """A size just above its limit exits 2 before any work starts: every
    route the handlers would call is replaced by one that fails the test."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work started past a cost guard")

        for name in (
            "bernoulli_recurrence", "bernoulli_split", "bernoulli_stirling_sum",
            "stirling2", "polylog_neg_rf", "rf_eval_exact", "_bfile_entries",
        ):
            monkeypatch.setattr(cli, name, refuse)
        for name in ("gauss_legendre", "_panel_rule", "_form_at_nodes"):
            monkeypatch.setattr(quadrature, name, refuse)

    @pytest.mark.parametrize("argv", [
        ["bernoulli", str(MAX_SIZE + 1)],
        ["bernoulli", str(MAX_SIZE + 1), "--method", "stirling-sum"],
        ["bernoulli", str(MAX_SIZE + 1), "--method", "split"],
        ["stirling", str(MAX_SIZE + 1), "1"],
        ["table", "bernoulli", "--max", str(MAX_SIZE + 1)],
        ["identity", str(MAX_SIZE // 2), str(MAX_SIZE - MAX_SIZE // 2 + 1)],
        ["polylog", str(MAX_SIZE + 1), "--at", "1/2"],
        ["oeis-check", "--numerators", NUMERATORS, "--denominators", DENOMINATORS,
         "--max", str(MAX_OEIS_CHECK + 1)],
    ])
    def test_size_past_the_limit_exits_two(self, capsys, argv):
        limit = MAX_OEIS_CHECK if argv[0] == "oeis-check" else MAX_SIZE
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"is capped at {limit}, got {limit + 1}" in err

    @pytest.mark.parametrize("argv,size", [
        (["polylog", "9", "--at", "1e1000"], 10 * 1001),
        (["polylog", "9", "--at", "-1/1" + "0" * 1000], 10 * 1001),
        (["polylog", "3", "--at", "1e5000"], 4 * 5001),
        (["polylog", "1000", "--at", "123456789/" + "7" * 3000], 1001 * 3000),
    ], ids=["9-at-1e1000", "9-at-1000-digit-q", "3-at-1e5000", "1000-at-3000-digit-q"])
    def test_polylog_value_past_the_limit_exits_two(self, capsys, argv, size):
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"(n + 1) * digits of --at is capped at {MAX_AT_DIGITS}, got {size}" in err

    @pytest.mark.parametrize("at", [
        f"1e{MAX_AT_DIGITS + 1}", f"1E-{MAX_AT_DIGITS + 1}", "2.5e+00000010001",
        "1e1000000000", "1e" + "9" * 5000,
    ], ids=["cap+1", "-(cap+1)", "padded-cap+1", "1e9", "5000-digit-exponent"])
    def test_polylog_exponent_past_the_limit_exits_two(self, capsys, monkeypatch, at):
        # Refused while parsing, before Fraction builds the power of ten.
        monkeypatch.setattr(cli, "Fraction", lambda text: pytest.fail("parsed past the cap"))
        code, out, err = run_capture(capsys, "polylog", "0", f"--at={at}")
        assert (code, out) == (2, "")
        assert f"has an exponent beyond the --at cap of {MAX_AT_DIGITS} digits" in err

    @pytest.mark.parametrize("n,at", [("0", "1e4300"), ("1", "1e-4300")])
    def test_polylog_point_past_the_digit_limit_exits_two(self, capsys, set_str_digit_limit, n, at):
        # Under the --at cap, but the exponent makes a part of 4301 digits.
        set_str_digit_limit(4300)
        assert run_capture(capsys, "polylog", n, "--at", at) == (
            2, "", "error: the point t has 4301 digits, over the interpreter's int-str limit of 4300\n"
        )

    @pytest.mark.parametrize("max_sum", [MAX_BENCH_SUM + 1, 201])
    def test_bench_sweep_past_the_limit_exits_two(self, capsys, max_sum):
        code, out, err = run_capture(capsys, "bench", "--max-sum", str(max_sum))
        assert (code, out) == (2, "")
        assert f"capped at {MAX_BENCH_SUM}, got {max_sum}" in err

    @pytest.mark.parametrize("cmd", ["verify-integral", "beta-check"])
    @pytest.mark.parametrize("flag,limit,value", [
        ("--panels", MAX_PANELS, MAX_PANELS + 1),
        ("--nodes", MAX_NODES, MAX_NODES + 1),
        ("--nodes", MAX_NODES, 100000),
    ])
    def test_quadrature_rule_past_the_limit_exits_two(self, capsys, cmd, flag, limit, value):
        code, out, err = run_capture(capsys, cmd, "2", "2", flag, str(value))
        assert (code, out) == (2, "")
        assert f"{flag} is capped at {limit}, got {value}" in err


class TestPolylogValueLimit:
    def test_value_at_the_limit_is_evaluated(self, capsys, monkeypatch):
        # q has 1000 digits, so order 9 is exactly at the limit.
        at = "-1/" + "9" * 1000
        assert 10 * 1000 == MAX_AT_DIGITS
        monkeypatch.setattr(cli, "rf_eval_exact", lambda f, t: Fraction(5))
        code, out, err = run_capture(capsys, "polylog", "9", "--at", at)
        assert (code, err) == (0, "")
        assert out.endswith(f"value at t = {at}: 5\n")

    def test_exponent_at_the_limit_parses(self):
        assert cli._fraction(f"-3e-{MAX_AT_DIGITS}") == Fraction(-3, 10**MAX_AT_DIGITS)
        assert cli._fraction(f"1.5E+0{MAX_AT_DIGITS}") == Fraction(15 * 10**(MAX_AT_DIGITS - 1))

    def test_decimal_digits(self):
        cases = [
            (0, 1), (1, 1), (-1, 1), (9, 1), (10, 2), (-12345, 5), (2**64, 20),
            (10**4300 - 1, 4300), (10**5000, 5001), (-(10**9999), 10000),
        ]
        cases += [(10**k + d, k + (d == 0)) for k in range(1, 80) for d in (-1, 0)]
        cases += [(2**k, len(str(2**k))) for k in range(300)]
        for x, digits in cases:
            assert cli._decimal_digits(x) == digits, digits

    @pytest.mark.parametrize("n,at", [
        ("3", "1e5000"), ("1000", "123456789/" + "7" * 3000),
    ], ids=["3-at-1e5000", "1000-at-3000-digit-q"])
    def test_huge_points_exit_two_quickly_in_a_fresh_process(self, n, at):
        start = time.perf_counter()
        proc = run_code(CLI, "polylog", n, "--at", at)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout) == (2, "")
        assert f"capped at {MAX_AT_DIGITS}" in proc.stderr
        assert elapsed < 2.0


@pytest.fixture
def set_str_digit_limit():
    """sys.set_int_max_str_digits for one test; the old limit comes back after it."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


class TestInterpreterDigitLimit:
    """The interpreter converts no int of more digits than its limit to or
    from str; an --at part or a value past it is refused by name."""

    def test_unprintable_value_names_the_limit(self, capsys, set_str_digit_limit):
        # (n + 1) * digits of --at is 5050, under MAX_AT_DIGITS, so the value
        # is evaluated; it has 5005 digits.
        set_str_digit_limit(4300)
        code, out, err = run_capture(capsys, "polylog", "100", "--at", "9" * 50)
        assert (code, out) == (2, "")
        assert err == (
            "error: the value at t has 5005 digits, over the interpreter's int-str limit of 4300\n"
        )

    def test_value_at_the_limit_prints(self, capsys, set_str_digit_limit):
        at = "123456789/1000"
        value = rf_eval_exact(polylog_neg_rf(80), Fraction(at))
        digits = max(len(str(value.numerator)), len(str(value.denominator)))
        set_str_digit_limit(digits)
        code, out, err = run_capture(capsys, "polylog", "80", "--at", at)
        assert (code, err) == (0, "")
        assert out.endswith(f"value at t = {at}: {value}\n")
        set_str_digit_limit(digits - 1)
        code, out, err = run_capture(capsys, "polylog", "80", "--at", at)
        assert (code, out) == (2, "")
        assert err.endswith(f"has {digits} digits, over the interpreter's int-str limit of {digits - 1}\n")

    def test_no_limit_prints_every_value(self, capsys, set_str_digit_limit):
        set_str_digit_limit(0)
        code, out, err = run_capture(capsys, "polylog", "100", "--at", "9" * 50)
        assert (code, err) == (0, "")
        assert out.endswith(f"{rf_eval_exact(polylog_neg_rf(100), Fraction('9' * 50))}\n")
        code, out, err = run_capture(capsys, "polylog", "0", "--at", "1e4300")
        assert (code, err) == (0, "")
        assert out.endswith(f"value at t = 1{'0' * 4300}: -1{'0' * 4300}/1{'0' * 4299}1\n")

    def test_point_at_the_limit_prints(self, capsys, set_str_digit_limit):
        set_str_digit_limit(4300)
        code, out, err = run_capture(capsys, "polylog", "0", "--at", "1e4299")
        assert (code, err) == (0, "")
        assert out.endswith(f"value at t = 1{'0' * 4299}: -1{'0' * 4299}/1{'0' * 4298}1\n")

    def test_over_long_at_part_names_the_limit(self, capsys, set_str_digit_limit):
        set_str_digit_limit(4300)
        code, out, err = run_capture(capsys, "polylog", "0", "--at", "1/" + "7" * 4400)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300
        assert err.endswith(
            f"argument --at: a number in '1/{'7' * 38}'... has 4400 digits, over the "
            "interpreter's int-str limit of 4300\n"
        )

    @pytest.mark.parametrize("argv,message", [
        (["stirling", "5", "7" * 4400], f"argument k: '{'7' * 40}'... has 4400 digits, over the "
         "interpreter's int-str limit of 4300"),
        (["bernoulli", "x" * 5000], f"argument n: '{'x' * 40}'... is not an integer"),
        (["stirling", "5", "7_" * 4400 + "7"], f"argument k: '{'7_' * 20}'... has 4401 digits, "
         "over the interpreter's int-str limit of 4300"),
    ], ids=["4400-digit-k", "5000-char-n", "underscored-k"])
    def test_over_long_integer_argument_echoes_a_short_prefix(
        self, capsys, set_str_digit_limit, argv, message
    ):
        set_str_digit_limit(4300)
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300
        assert err.endswith(f"error: {message}\n")

    def test_digit_run_at_the_limit_parses(self, set_str_digit_limit):
        set_str_digit_limit(4300)
        assert cli._fraction("-1/" + "7" * 4300) == Fraction(-1, int("7" * 4300))
        assert cli._fraction("7" * 2150 + "_" + "7" * 2150) == int("7" * 4300)

    def test_underscores_are_not_digits(self, set_str_digit_limit):
        set_str_digit_limit(4300)
        with pytest.raises(argparse.ArgumentTypeError, match=r"\.\.\. has 4401 digits, over"):
            cli._fraction("7_" * 4400 + "7")
        with pytest.raises(argparse.ArgumentTypeError, match=r"\.\.\. is not a rational number$"):
            cli._fraction("1_" * 2200 + "x")

    @pytest.mark.parametrize("at,message", [
        ("abc", "'abc' is not a rational number"),
        ("x" * 40, f"'{'x' * 40}' is not a rational number"),
        ("x" * 41, f"'{'x' * 40}'... is not a rational number"),
        ("1/0", "'1/0' is not a rational number"),
        ("x" * 5000, f"'{'x' * 40}'... is not a rational number"),
        ("1e" + "9" * 5000, f"'1e{'9' * 38}'... has an exponent beyond the --at cap"),
    ], ids=["word", "40-char-word", "41-char-word", "zero-denominator", "5000-char-word",
            "5000-digit-exponent"])
    def test_bad_at_messages_echo_a_short_prefix(self, capsys, at, message):
        code, out, err = run_capture(capsys, "polylog", "0", f"--at={at}")
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300
        assert f"argument --at: {message}" in err


class TestAtGrammar:
    """`--at` reads Fraction's grammar of Python 3.12 on every interpreter:
    underscores between digits, spaces around the slash."""

    @pytest.mark.parametrize("at,value", [
        ("1_0", Fraction(10)), ("1_0/3", Fraction(10, 3)), ("1 / 2", Fraction(1, 2)),
        ("1_0.5", Fraction(21, 2)), ("1e1_0", Fraction(10**10)), (" -7/3", Fraction(-7, 3)),
        ("+.5E-1 ", Fraction(1, 20)), ("007", Fraction(7)),
    ])
    def test_accepted(self, at, value):
        assert cli._fraction(at) == value

    @pytest.mark.parametrize("at", [
        "1__0", "_1", "1_", "3/-4", "0x10", "inf", "1/0", "1 2", "1/2.5", "1e", ".", "",
    ])
    def test_refused(self, at):
        with pytest.raises(argparse.ArgumentTypeError, match=r"is not a rational number$"):
            cli._fraction(at)

    def test_spaced_value_prints_like_the_plain_one(self, capsys):
        plain = run_capture(capsys, "polylog", "3", "--at", "1/2")
        assert plain[0] == 0
        assert run_capture(capsys, "polylog", "3", "--at", " 1 / 2 ") == plain
        assert run_capture(capsys, "polylog", "3", "--at", "0_1/0_2") == plain


class TestSharedParser:
    """Every `run` in a process parses with one parser, built on the first
    call, so no request may leave anything in it that changes a later one."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        cli._parser.cache_clear()
        yield
        cli._parser.cache_clear()

    # Parse errors, help pages, guard refusals and a refused --tol.
    OTHERS = [
        ["bernoulli", "-1"],
        ["stirling", "x", "1"],
        ["identity", "3"],
        ["identity", "3", "--format", "json"],
        ["--help"],
        ["verify-integral", "--help"],
        ["bernoulli", str(MAX_SIZE + 1), "--method", "split"],
        ["bench", "--max-sum", str(MAX_BENCH_SUM + 1), "--format", "csv"],
        ["beta-check", "2", "3", "--nodes", str(MAX_NODES + 1)],
        ["verify-integral", "2", "2", "--panels", "4", "--tol", "nan"],
    ]
    # Each subcommand with only its required arguments: its output changes
    # if an option of an earlier request stuck in the parser.
    PROBES = {**CLI_GOLDEN_ARGV, "bernoulli": ["bernoulli", "12"], "polylog": ["polylog", "3"]}

    def test_requests_leave_nothing_behind(self, capsys):
        def probe(cmd):
            code, out, err = run_capture(capsys, *self.PROBES[cmd])
            return code, mask_noisy(cmd, "plain", out), err

        first_probe, first_other = {}, {}
        for cmd in self.PROBES:
            cli._parser.cache_clear()
            first_probe[cmd] = probe(cmd)
        for argv in self.OTHERS:
            cli._parser.cache_clear()
            first_other[tuple(argv)] = run_capture(capsys, *argv)
        cli._parser.cache_clear()
        golden = sorted(CLI_GOLDEN)
        for i, (cmd, fmt) in enumerate(golden + golden[::-1]):
            code, out, err = run_capture(capsys, *CLI_GOLDEN_ARGV[cmd], "--format", fmt)
            assert (code, mask_noisy(cmd, fmt, out), err) == (*CLI_GOLDEN[cmd, fmt], ""), (i, cmd, fmt)
            argv = self.OTHERS[i % len(self.OTHERS)]
            assert run_capture(capsys, *argv) == first_other[tuple(argv)], (i, argv)
            for c in {cmd, argv[0]} & self.PROBES.keys():
                assert probe(c) == first_probe[c], (i, c)

    def test_run_builds_the_parser_once(self, capsys, monkeypatch):
        real = cli._build_parser
        calls = []
        monkeypatch.setattr(cli, "_build_parser", lambda: calls.append(1) or real())
        for n in range(20):
            assert run_capture(capsys, "bernoulli", str(n % 5))[0] == 0
        assert len(calls) == 1

    def test_import_builds_no_parser(self):
        proc = run_code("import bernlab.cli as c; print(c._parser.cache_info().currsize)")
        assert (proc.returncode, proc.stdout) == (0, "0\n")

    def test_build_parser_returns_a_new_parser(self):
        assert cli._build_parser() is not cli._build_parser()


def reference_run(argv):
    """`run` with one full parse by a new top-level parser, which hands the
    words after the subcommand name to that subcommand's parser itself."""
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return cli._emit(args.handler(args), args.format)
    except BenchMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


class TestDispatch:
    """`run` hands a request that starts with a subcommand name straight to
    that subcommand's parser; code, stdout and stderr must be what a full
    argparse pass gives, on whatever interpreter runs the suite."""

    EDGE_CASES = [
        [], ["-h"], ["--help"], ["bogus"], ["Bernoulli", "5"], ["bern", "5"],
        ["-x", "bernoulli", "5"], ["--format", "json", "bernoulli", "5"], ["bernoulli"],
        ["bernoulli", "5", "extra"], ["identity", "1", "2", "3", "4"],
        ["bench", "--max-sum", "1", "x"], ["bernoulli", "--", "5"], ["bernoulli", "5", "--", "6"],
        ["stirling", "--", "-3", "1"], ["bernoulli", "-h"], ["bernoulli", "5", "-h", "junk"],
        ["bernoulli", "5", "--meth", "split"], ["bernoulli", "5", "--format", "xml"],
        ["polylog", "3", "--at", "-7/3"],
    ]

    @pytest.mark.parametrize("argv", EDGE_CASES, ids=" ".join)
    def test_edge_cases_match_a_full_parse(self, capsys, argv):
        expected = reference_run(argv), *capsys.readouterr()
        assert run_capture(capsys, *argv) == expected

    @pytest.mark.parametrize("cmd,fmt", sorted(CLI_GOLDEN))
    def test_golden_requests_match_a_full_parse(self, capsys, cmd, fmt):
        argv = [*CLI_GOLDEN_ARGV[cmd], "--format", fmt]
        code = reference_run(argv)
        out, err = capsys.readouterr()
        expected = code, mask_noisy(cmd, fmt, out), err
        code, out, err = run_capture(capsys, *argv)
        assert (code, mask_noisy(cmd, fmt, out), err) == expected
