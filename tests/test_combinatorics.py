"""Stirling triangle, brute-force partition oracle, and Bell numbers."""

import pytest

from bernlab import combinatorics
from bernlab.combinatorics import (
    BRUTE_FORCE_MAX_N,
    StirlingTriangle,
    bell,
    stirling2,
    stirling2_bruteforce,
    stirling2_row,
)


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

    def test_enumeration_reads_no_stirling_number(self, monkeypatch):
        # the oracle must count partitions, not replay the triangle
        row = stirling2_row(9)

        def refuse(*args):
            raise AssertionError("the enumeration must not read a Stirling number")

        monkeypatch.setattr(combinatorics, "stirling2", refuse)
        monkeypatch.setattr(combinatorics, "stirling2_row", refuse)
        monkeypatch.setattr(StirlingTriangle, "extend_to", refuse)
        combinatorics._block_counts.cache_clear()
        assert list(combinatorics._block_counts(9)) == row


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
