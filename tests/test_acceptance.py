"""Acceptance gate: ten cross-verification criteria, one test each.

Every test prints a single ``[criterion N] PASS/FAIL`` line (visible
with ``pytest tests/test_acceptance.py -v -s``) and enforces its stated
tolerance and, where one applies, its wall-clock budget.  Exact means
exact: rational equality, no epsilons.
"""

import csv
import io
import json
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

from bernlab.bernoulli import (
    bernoulli_recurrence,
    bernoulli_split,
    bernoulli_stirling_sum,
    zeta_nonpositive,
)
from bernlab.combinatorics import stirling2, stirling2_bruteforce
from bernlab.cli import BenchMismatchError, bench_run, run
from bernlab.exact_arith import beta_integer, binomial
from bernlab.polylog import (
    Polynomial,
    polylog_oracle,
    polylog_stirling_form,
)
from bernlab.quadrature import beta_quadrature_check, verify_integral

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
NUMERATORS = str(DATA_DIR / "bernoulli_numerators.txt")
DENOMINATORS = str(DATA_DIR / "bernoulli_denominators.txt")


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {label} ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"[criterion {number}] PASS {label} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_split_sum_equals_recurrence_on_the_full_grid():
    with criterion(1, "split sum = recurrence for all 0 <= m, n <= 30"):
        start = time.perf_counter()
        for m in range(31):
            for n in range(31):
                assert bernoulli_split(m, n) == bernoulli_recurrence(m + n), (m, n)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_degenerate_split_collapses_to_the_single_sum():
    with criterion(2, "split sum at m = 0 = single Stirling sum for n <= 30"):
        for n in range(31):
            assert bernoulli_split(0, n) == bernoulli_stirling_sum(n), n


def test_criterion_3_single_stirling_sum_matches_the_recurrence():
    with criterion(3, "single Stirling sum = recurrence for n <= 100 + spot values"):
        for n in range(101):
            assert bernoulli_stirling_sum(n) == bernoulli_recurrence(n), n
        assert bernoulli_stirling_sum(0) == 1
        assert bernoulli_stirling_sum(1) == Fraction(-1, 2)
        assert bernoulli_stirling_sum(12) == Fraction(-691, 2730)


def test_criterion_4_stirling_recurrence_agrees_with_partition_enumeration():
    with criterion(4, "Stirling triangle = exhaustive set-partition counts, n <= 12"):
        start = time.perf_counter()
        for n in range(13):
            for k in range(n + 1):
                assert stirling2_bruteforce(n, k) == stirling2(n, k), (n, k)
        assert time.perf_counter() - start < 30.0


def test_criterion_5_stirling_form_of_the_polylog_matches_the_derivative_oracle():
    with criterion(5, "polylog Stirling form = derivative oracle (orders 1..15); order 0 off by 1"):
        for n in range(1, 16):
            assert polylog_stirling_form(n) == polylog_oracle(n).negate_variable(), n
        # 1/(1+t) - (-t)/(1+t): the numerators differ by exactly the shared denominator.
        stirling = polylog_stirling_form(0)
        true = polylog_oracle(0).negate_variable()
        assert stirling.denominator == true.denominator == Polynomial([1, 1])
        diff = [a - b for a, b in zip_longest(stirling.numerator.coeffs, true.numerator.coeffs, fillvalue=0)]
        assert Polynomial(diff) == stirling.denominator


def test_criterion_6_integer_beta_values_and_their_quadrature():
    with criterion(6, "Beta values: binomial identity k,l <= 20; quadrature <= 1e-8 for k+l <= 12"):
        for k in range(21):
            for l in range(21):
                expected = Fraction(1, (k + l + 1) * binomial(k + l, l))
                assert beta_integer(k + 1, l + 1) == expected, (k, l)
        for k in range(13):
            for l in range(13 - k):
                report = beta_quadrature_check(k, l)
                assert report.rel_error <= 1e-8, (k, l, report.rel_error)


def test_criterion_7_halfline_integral_identity_at_desk_scale():
    with criterion(7, "quadrature of the half-line integrand: rel_error <= 1e-6 on 2 <= m+n <= 10"):
        start = time.perf_counter()
        for total in range(2, 11):
            for m in range(total + 1):
                report = verify_integral(m, total - m)
                assert report.expected == bernoulli_recurrence(total)
                assert report.rel_error <= 1e-6, (m, total - m, report.rel_error)
        for m, n, expected in ((0, 0, Fraction(1)), (0, 1, Fraction(1, 2)), (1, 0, Fraction(1, 2))):
            report = verify_integral(m, n)
            assert report.expected == expected
            assert report.rel_error <= 1e-10, (m, n, report.rel_error)
        assert time.perf_counter() - start < 10.0


def test_criterion_8_zeta_at_nonpositive_integers_ties_back_to_bernoulli():
    with criterion(8, "-N * zeta(1-N) = B_N exactly for 2 <= N <= 40 + special values"):
        for big_n in range(2, 41):
            assert -big_n * zeta_nonpositive(1 - big_n) == bernoulli_recurrence(big_n), big_n
        assert zeta_nonpositive(-1) == Fraction(-1, 12)
        assert zeta_nonpositive(-2) == 0
        assert zeta_nonpositive(0) == Fraction(-1, 2)


def test_criterion_9_every_split_of_a_fixed_total_is_consistent_and_bench_guards_it(capsys):
    with criterion(9, "split sweeps at N in {10, 20, 30} agree; bench CSV well-formed; mismatch aborts"):
        for total in (10, 20, 30):
            reference = bernoulli_recurrence(total)
            for m in range(total + 1):
                assert bernoulli_split(m, total - m) == reference, (m, total)
        code = run(["bench", "--max-sum", "5", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "n", "split_m", "seconds", "result_hash"]
        assert len(rows) == 1 + sum(2 + n + 1 for n in range(6))
        assert all(len(row) == 5 and float(row[3]) >= 0.0 for row in rows[1:])
        with pytest.raises(BenchMismatchError):
            bench_run(2, repeats=1, split_fn=lambda m, k: Fraction(0))


def test_criterion_10_cli_contract_on_a_fixed_invocation_matrix(capsys, tmp_path):
    with criterion(10, "CLI exit codes, b-file parsing, and JSON shape on the invocation matrix"):
        tampered = tmp_path / "tampered.txt"
        lines = Path(NUMERATORS).read_text().splitlines()
        lines[-1] = "30 8615841276006"
        tampered.write_text("\n".join(lines) + "\n")
        malformed = tmp_path / "malformed.txt"
        malformed.write_text("0 1\n1 one half\n")
        decreasing = tmp_path / "decreasing.txt"
        decreasing.write_text("1 -1\n0 1\n")

        matrix = [
            (["bernoulli", "12"], 0),
            (["bernoulli", "12", "--method", "stirling-sum"], 0),
            (["bernoulli", "12", "--method", "split", "--m", "5"], 0),
            (["bernoulli", "-3"], 2),
            (["bernoulli", "4", "--m", "1"], 2),
            (["stirling", "7", "3"], 0),
            (["table", "bernoulli", "--max", "6"], 0),
            (["identity", "4", "4"], 0),
            (["polylog", "3", "--at", "1/2"], 0),
            (["polylog", "3", "--at", "-1"], 2),
            (["verify-integral", "2", "2"], 0),
            (["verify-integral", "0", "0", "--tol", "1e-18"], 1),
            (["verify-integral", "7", "7"], 2),
            (["beta-check", "3", "4"], 0),
            (["beta-check", "15", "15"], 2),
            (["bench", "--max-sum", "500"], 2),
            (["oeis-check", "--numerators", NUMERATORS,
              "--denominators", DENOMINATORS, "--max", "30"], 0),
            (["oeis-check", "--numerators", str(tampered),
              "--denominators", DENOMINATORS, "--max", "30"], 1),
            (["oeis-check", "--numerators", str(malformed),
              "--denominators", DENOMINATORS, "--max", "1"], 2),
            (["oeis-check", "--numerators", str(decreasing),
              "--denominators", DENOMINATORS, "--max", "1"], 2),
            (["oeis-check", "--numerators", str(tmp_path / "missing.txt"),
              "--denominators", DENOMINATORS, "--max", "1"], 2),
            (["oeis-check", "--numerators", NUMERATORS,
              "--denominators", DENOMINATORS, "--max", "40"], 2),
            (["no-such-command"], 2),
            ([], 2),
        ]
        for argv, expected_code in matrix:
            assert run(argv) == expected_code, argv
            capsys.readouterr()  # drop the output; only the code is under test here

        json_matrix = [
            ["bernoulli", "8"],
            ["stirling", "6", "2"],
            ["table", "bernoulli", "--max", "4"],
            ["identity", "2", "3"],
            ["polylog", "2", "--at", "2"],
            ["verify-integral", "1", "1"],
            ["beta-check", "1", "2"],
            ["oeis-check", "--numerators", NUMERATORS,
             "--denominators", DENOMINATORS, "--max", "10"],
            ["bench", "--max-sum", "2"],
        ]
        for argv in json_matrix:
            assert run(argv + ["--format", "json"]) == 0, argv
            json.loads(capsys.readouterr().out)
