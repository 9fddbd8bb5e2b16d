"""The three Bernoulli strategies and zeta at non-positive integers."""

import inspect
import random
from fractions import Fraction
from math import comb, factorial, lcm

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from bernlab import bernoulli
from bernlab.bernoulli import (
    BernoulliTable,
    bernoulli_recurrence,
    bernoulli_split,
    bernoulli_stirling_sum,
    zeta_nonpositive,
)
from bernlab.cli import MAX_SIZE
from bernlab.combinatorics import stirling2, stirling2_row
from support import race

# First entries of the sequence under the B_1 = -1/2 convention.
FIRST_BERNOULLI = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
    Fraction(0),
    Fraction(7, 6),
]

# The zigzag numbers A_0..A_20 (OEIS A000111), the coefficients of
# sec t + tan t times n!.
ZIGZAG = [
    1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765,
    22368256, 199360981, 1903757312, 19391512145, 209865342976,
    2404879675441, 29088885112832, 370371188237525,
]


class TestRecurrence:
    def test_first_values(self):
        assert [bernoulli_recurrence(n) for n in range(15)] == FIRST_BERNOULLI

    def test_larger_spot_values(self):
        assert bernoulli_recurrence(16) == Fraction(-3617, 510)
        assert bernoulli_recurrence(30) == Fraction(8615841276005, 14322)

    def test_odd_indices_vanish(self):
        for k in range(1, 21):
            assert bernoulli_recurrence(2 * k + 1) == 0

    def test_even_values_alternate_in_sign(self):
        for k in range(1, 16):
            value = bernoulli_recurrence(2 * k)
            assert (-1) ** (k + 1) * value > 0, k

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_recurrence(-1)

    def test_fresh_table_matches_shared(self):
        fresh = BernoulliTable()
        fresh.extend_to(10)
        assert fresh.max_n == 10
        for n in range(61):
            assert fresh.value(n) == bernoulli_recurrence(n)

    def test_uneven_growth_matches_mpmath(self):
        table = BernoulliTable()
        # uneven steps, so growth resumes from the held Seidel row
        # between calls as well as stepping within them
        for top in (7, 97, 211, 400):
            table.extend_to(top)
        assert table.max_n == 400
        for n in range(401):
            assert table.value(n) == Fraction(*mpmath.bernfrac(n)), n

    def test_every_value_to_max_size_matches_mpmath(self):
        # odd indices >= 3 are stored by parity, even ones from the zigzag
        # numbers; B_0 and B_1 are seeded
        table = BernoulliTable()
        table.extend_to(MAX_SIZE)
        for n in range(MAX_SIZE + 1):
            assert table.value(n) == Fraction(*mpmath.bernfrac(n)), n

    def test_stepped_extension_matches_one_call(self):
        stepped = BernoulliTable()
        for top in (3, 7, 400, 500):
            stepped.extend_to(top)
        single = BernoulliTable()
        single.extend_to(500)
        assert stepped._values == single._values
        assert stepped._row == single._row

    def test_held_row_invariant(self):
        # the held Seidel row has max_n entries and ends in A_(max_n - 1);
        # B_0 and B_1 are seeded, so a fresh table already holds A_0
        fresh = BernoulliTable()
        assert (fresh.max_n, fresh._row) == (1, [1])
        stepped = BernoulliTable()
        for top in (2, 3, 4, 9, 10, 13, 21):
            stepped.extend_to(top)
            single = BernoulliTable()
            single.extend_to(top)
            for table in (stepped, single):
                assert table.max_n == len(table._row) == top
                assert table._row[-1] == ZIGZAG[top - 1], top

    def test_concurrent_extension_matches_one_call(self):
        shared = BernoulliTable()
        assert race(shared.extend_to, (50, 150, 250, 300)) == []
        reference = BernoulliTable()
        reference.extend_to(300)
        assert shared.max_n == 300
        for n in range(301):
            assert shared.value(n) == reference.value(n), n


class TestStirlingSum:
    def test_examples(self):
        # n = 0 leaves the Horner loop empty: the k = 0 term alone
        assert bernoulli_stirling_sum(0) == 1
        assert bernoulli_stirling_sum(1) == Fraction(-1, 2)
        assert bernoulli_stirling_sum(2) == Fraction(1, 6)
        assert bernoulli_stirling_sum(3) == 0
        assert bernoulli_stirling_sum(4) == Fraction(-1, 30)

    def test_matches_recurrence(self):
        for n in range(61):
            assert bernoulli_stirling_sum(n) == bernoulli_recurrence(n), n

    def test_matches_recurrence_up_to_400(self):
        for n in range(0, 401, 9):
            assert bernoulli_stirling_sum(n) == bernoulli_recurrence(n), n

    def test_every_value_to_400_matches_mpmath(self):
        for n in range(401):
            assert bernoulli_stirling_sum(n) == Fraction(*mpmath.bernfrac(n)), n

    @pytest.mark.parametrize("n", [401, 402, 641, 642])
    def test_matches_recurrence_past_400(self, n):
        # odd n leaves the lone k = 1 term after the paired Horner steps
        assert bernoulli_stirling_sum(n) == bernoulli_recurrence(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_stirling_sum(-2)


class TestFactorialMemo:
    """bernoulli._FACTORIALS, the memo of (k!)^2 and lcm(1..k) that the
    two Stirling-sum strategies read."""

    def test_entries_match_math_in_shuffled_steps(self):
        memo = bernoulli._FactorialMemo()
        assert (memo.max_k, memo.squares, memo.lcms) == (0, [1], [1])
        tops = [0, 1, 2, 3, 10, 64, 65, 250, 251, 400, 999, 1001]
        random.Random(24).shuffle(tops)
        for top in tops:  # steps down leave the memo as it is
            memo.extend_to(top)
        assert memo.max_k == 1001
        for k in range(1002):
            assert (memo.squares[k], memo.lcms[k]) == (factorial(k) ** 2, lcm(*range(1, k + 1))), k
        assert len(memo.squares) == len(memo.lcms) == 1002

    @pytest.fixture(params=[0, 5, 250, 1001], ids=lambda top: f"memo-at-{top}")
    def memo(self, request, monkeypatch):
        """A fresh memo grown to the given index, in place of the shared one."""
        memo = bernoulli._FactorialMemo()
        memo.extend_to(request.param)
        monkeypatch.setattr(bernoulli, "_FACTORIALS", memo)
        return memo

    def test_stirling_sum_reads_the_memo(self, memo):
        start = memo.max_k
        for n in (*range(401), 999, 1000):
            assert bernoulli_stirling_sum(n) == bernoulli_recurrence(n), n
        assert memo.max_k == max(start, 1001)

    @pytest.mark.parametrize("m, n", [
        (0, 0), (0, 400), (1, 121), (121, 1), (7, 130), (40, 200), (300, 1), (125, 125), (250, 250), (0, 1000),
    ])
    def test_split_reads_the_memo(self, memo, m, n):
        start = memo.max_k
        assert bernoulli_split(m, n) == bernoulli_recurrence(m + n)
        assert memo.max_k == max(start, m, n)

    def test_concurrent_extension_matches_one_call(self):
        shared = bernoulli._FactorialMemo()
        assert race(shared.extend_to, (50, 300, 700, 1001)) == []
        reference = bernoulli._FactorialMemo()
        reference.extend_to(1001)
        assert shared.max_k == 1001
        assert shared.squares == reference.squares
        assert shared.lcms == reference.lcms


def literal_split(m, n):
    """The split double sum with one Fraction per term, denominator
    (k+l+1) * C(k+l, l) as printed."""
    return sum(
        Fraction(
            (-1) ** (k + l) * factorial(k) * factorial(l) * stirling2(n, k) * stirling2(m, l),
            (k + l + 1) * comb(k + l, l),
        )
        for k in range(n + 1)
        for l in range(m + 1)
    )


class TestSplit:
    def test_examples(self):
        assert bernoulli_split(0, 0) == 1
        assert bernoulli_split(1, 1) == Fraction(1, 6)
        # the (k,l) = (1,1) and (2,1) terms contribute 1/6 - 1/6
        assert bernoulli_split(1, 2) == 0

    def test_m_zero_collapses_to_single_sum(self):
        for n in range(31):
            assert bernoulli_split(0, n) == bernoulli_stirling_sum(n), n

    def test_symmetry(self):
        for m in range(11):
            for n in range(11):
                assert bernoulli_split(m, n) == bernoulli_split(n, m)

    @pytest.mark.parametrize("m, n", [(1, 300), (300, 1), (40, 200), (200, 40), (0, 400), (400, 0)])
    def test_symmetry_on_skewed_large_pairs(self, m, n):
        # m > n swaps the rows, so both orientations run the same inner loop
        assert bernoulli_split(m, n) == bernoulli_split(n, m) == bernoulli_recurrence(m + n)

    def test_matches_recurrence_on_a_small_grid(self):
        # the full 31x31 grid runs in the acceptance suite
        for m in range(13):
            for n in range(13):
                assert bernoulli_split(m, n) == bernoulli_recurrence(m + n), (m, n)

    def test_matches_literal_formula(self):
        for total in range(25):
            for m in range(total + 1):
                assert bernoulli_split(m, total - m) == literal_split(m, total - m), (m, total - m)

    def test_matches_literal_formula_on_skewed_pairs(self):
        # the shorter row, m <= 2, leaves the inner Horner one to three steps;
        # the longer one, n <= 60, gives the outer Horner 1 to 31 steps of a
        # pair each, the last pair padded with S(n, n+1) = 0 when n is even
        for short in range(3):
            for long in range(61):
                assert bernoulli_split(short, long) == literal_split(short, long), (short, long)
                assert bernoulli_split(long, short) == literal_split(long, short), (long, short)

    # past the random grid: an even longer row, as in (1, 998), is padded
    # with S(n, n+1) = 0 to pair its terms; (0, 999) and (2, 401) are not
    @pytest.mark.parametrize("m, n", [
        (0, 250), (250, 0), (3, 240), (125, 125), (500, 500), (1, 998), (998, 1), (0, 999), (2, 401), (401, 2),
    ])
    def test_matches_recurrence_at_large_pairs(self, m, n):
        assert bernoulli_split(m, n) == bernoulli_recurrence(m + n)

    @given(st.integers(0, 120).flatmap(lambda total: st.tuples(st.integers(0, total), st.just(total))))
    @settings(max_examples=60, deadline=None)
    def test_matches_recurrence_on_random_pairs(self, pair):
        m, total = pair
        assert bernoulli_split(m, total - m) == bernoulli_recurrence(total)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_split(-1, 3)


class TestZetaNonpositive:
    def test_examples(self):
        assert zeta_nonpositive(-1) == Fraction(-1, 12)
        assert zeta_nonpositive(0) == Fraction(-1, 2)
        assert zeta_nonpositive(-2) == 0

    def test_relation_to_bernoulli(self):
        for n in range(2, 41):
            assert zeta_nonpositive(1 - n) == -bernoulli_recurrence(n) / n

    def test_trivial_zeros(self):
        for k in range(1, 16):
            assert zeta_nonpositive(-2 * k) == 0

    def test_zero_is_minus_b_plus_1_not_extrapolated(self):
        # extending zeta(1-n) = -B_n/n to n = 1 would give +1/2; -B+_1/1
        # is the correct -1/2 (equal to B_1 only by accident of sign
        # convention).
        assert zeta_nonpositive(0) == Fraction(-1, 2)
        assert zeta_nonpositive(0) != -bernoulli_recurrence(1) / 1

    def test_equals_the_two_case_formula_to_max_size(self):
        # zeta(0) = -1/2 as a special case, -B_N/N with N = 1 - s below it.
        for s in range(0, -MAX_SIZE, -1):
            n = 1 - s
            expected = Fraction(-1, 2) if s == 0 else -bernoulli_recurrence(n) / n
            assert zeta_nonpositive(s) == expected, s

    def test_positive_argument_rejected(self):
        with pytest.raises(ValueError):
            zeta_nonpositive(1)


# perfbench/tracing.py binds these arguments by name to count the work of a
# traced benchmark run, so a rename must fail here rather than there.
@pytest.mark.parametrize(
    "function, names",
    [
        (bernoulli_split, ["m", "n"]),
        (bernoulli_recurrence, ["n"]),
        (bernoulli_stirling_sum, ["n"]),
        (stirling2_row, ["n"]),
    ],
    ids=["bernoulli_split", "bernoulli_recurrence", "bernoulli_stirling_sum", "stirling2_row"],
)
def test_parameter_names_bound_by_the_benchmark_tracer(function, names):
    assert list(inspect.signature(function).parameters) == names
