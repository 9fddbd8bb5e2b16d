"""Stirling triangle, brute-force partition oracle, and Bell numbers."""

import random

import pytest

from bernlab.cli import MAX_SIZE
from bernlab.combinatorics import (
    BRUTE_FORCE_MAX_N,
    StirlingTriangle,
    bell,
    stirling2,
    stirling2_bruteforce,
    stirling2_row,
)
from support import race


class TestStirling2:
    def test_examples(self):
        assert stirling2(0, 0) == 1
        assert stirling2(4, 2) == 7
        assert stirling2(3, 5) == 0

    def test_rows(self):
        assert stirling2_row(0) == [1]
        assert stirling2_row(1) == [0, 1]
        assert stirling2_row(3) == [0, 1, 3, 1]

    def test_boundaries(self):
        for n in range(1, 61):
            assert stirling2(n, 0) == 0
            assert stirling2(n, 1) == 1
            assert stirling2(n, n) == 1
            assert stirling2(n, n + 1) == 0
        assert stirling2(7, -1) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 0)
        with pytest.raises(ValueError):
            stirling2_row(-3)

    def test_row_is_a_fresh_list(self):
        row = stirling2_row(5)
        row[2] = -999
        assert stirling2_row(5)[2] == stirling2(5, 2) != -999

    def test_shared_and_fresh_tables_agree(self):
        fresh = StirlingTriangle()
        for n in range(61):
            assert fresh.row(n) == stirling2_row(n)

    def test_triangle_grows_monotonically(self):
        tri = StirlingTriangle()
        tri.extend_to(4)
        assert tri.max_n == 4
        tri.extend_to(2)
        assert tri.max_n == 4  # never shrinks
        assert tri.value(9, 3) == stirling2(9, 3)
        assert tri.max_n == 9


def reference_rows(top):
    """Rows 0..top of S(n, k), each from the one before by
    S(m, k) = k S(m-1, k) + S(m-1, k-1), written out here."""
    rows = [[1]]
    for m in range(1, top + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)])
    return rows


@pytest.fixture(scope="module")
def reference():
    return reference_rows(MAX_SIZE)


@pytest.fixture(scope="module")
def full_triangle():
    tri = StirlingTriangle()
    tri.extend_to(MAX_SIZE)
    return tri


class TestKeptRows:
    # The triangle keeps rows 0..300, every 16th row above them and its top
    # row; every other row is regrown from the kept row below it on each read.

    def test_only_the_stated_rows_are_kept(self, full_triangle):
        kept = [n for n, row in enumerate(full_triangle._rows) if row is not None]
        assert kept == [*range(301), *range(304, MAX_SIZE, 16), MAX_SIZE]
        assert full_triangle.max_n == MAX_SIZE

    def test_every_row_to_400_in_shuffled_order(self, reference):
        tri = StirlingTriangle()
        order = list(range(401))
        random.Random(26).shuffle(order)
        for n in order:
            assert tri.row(n) == reference[n], n
        assert tri.max_n == 400

    def test_rows_of_a_triangle_grown_to_the_size_cap(self, full_triangle, reference):
        # The dense edge, a stride window with both of its kept ends, the
        # top rows and a sample of the sparse part.
        sample = random.Random(1000).sample(range(301, MAX_SIZE + 1), 40)
        for n in [*range(296, 306), *range(480, 513), *range(985, MAX_SIZE + 1), *sample]:
            assert full_triangle.row(n) == reference[n], n
        assert full_triangle.max_n == MAX_SIZE

    def test_a_regrown_row_is_a_fresh_list(self, full_triangle, reference):
        row = full_triangle.row(301)
        row[1] = -1
        assert full_triangle.row(301) == reference[301]

    def test_values_on_dropped_rows(self, full_triangle, reference):
        for n, k in [(301, 1), (303, 150), (319, 319), (500, 250), (991, 7), (999, 500), (999, 998)]:
            assert full_triangle.value(n, k) == reference[n][k], (n, k)
        assert full_triangle.value(999, 1000) == full_triangle.value(999, -1) == 0
        assert StirlingTriangle().value(455, 200) == reference[455][200]

    def test_reading_a_dropped_row_still_grows_through_extend_to(self, monkeypatch):
        # test_routes.py cuts the triangle off at extend_to; a row that is
        # regrown rather than grown must not slip past the cut.
        tri = StirlingTriangle()
        tri.extend_to(400)

        def refuse(self, n):
            raise AssertionError("extend_to was called")

        monkeypatch.setattr(StirlingTriangle, "extend_to", refuse)
        with pytest.raises(AssertionError):
            tri.row(350)
        with pytest.raises(AssertionError):
            tri.value(350, 3)

    def test_threads_reading_shuffled_rows_of_one_triangle(self, reference):
        tri = StirlingTriangle()
        samples = [random.Random(seed).sample(range(501), 40) for seed in range(4)]

        def read(rows):
            assert [n for n in rows if tri.row(n) != reference[n]] == []

        assert race(read, samples, switch_interval=1e-5) == []
        assert tri.max_n == max(map(max, samples))


class TestBruteForce:
    def test_examples(self):
        assert stirling2_bruteforce(4, 2) == 7
        assert stirling2_bruteforce(5, 5) == 1
        assert stirling2_bruteforce(6, 1) == 1

    def test_matches_recurrence_up_to_ten(self):
        # the full range up to BRUTE_FORCE_MAX_N runs in the acceptance suite
        for n in range(11):
            for k in range(n + 2):
                assert stirling2_bruteforce(n, k) == stirling2(n, k), (n, k)

    def test_out_of_range_k_is_zero(self):
        assert stirling2_bruteforce(4, -1) == 0
        assert stirling2_bruteforce(4, 5) == 0

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            stirling2_bruteforce(BRUTE_FORCE_MAX_N + 1, 2)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            stirling2_bruteforce(-1, 0)


class TestBell:
    def test_examples(self):
        assert bell(0) == 1
        assert bell(1) == 1
        assert bell(3) == 5
        assert bell(12) == 4213597

    def test_row_sums_match_bell_triangle(self):
        # bell() uses the Bell triangle, the row sum uses the Stirling
        # recurrence; agreement ties the two computations together.
        for n in range(31):
            assert sum(stirling2_row(n)) == bell(n)

    def test_partition_counts_sum_to_bell(self):
        for n in range(10):
            assert sum(stirling2_bruteforce(n, k) for k in range(n + 1)) == bell(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell(-1)
