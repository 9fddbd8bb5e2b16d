"""Binomials with the zero convention and integer Beta values."""

from fractions import Fraction
from math import factorial

import pytest

from bernlab.exact_arith import beta_integer, binomial


class TestBinomial:
    def test_examples(self):
        assert binomial(4, 2) == 6
        assert binomial(7, 0) == 1
        assert binomial(10, 5) == 252

    def test_zero_outside_range(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-2, 0)

    def test_matches_pascal_triangle(self):
        row = [1]
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) == row[k], (n, k)
            row = [1] + [row[i] + row[i + 1] for i in range(n)] + [1]

    def test_factorial_identity(self):
        for n in range(31):
            for k in range(n + 1):
                assert binomial(n, k) * factorial(k) * factorial(n - k) == factorial(n)


class TestBetaInteger:
    def test_examples(self):
        assert beta_integer(1, 1) == 1
        assert beta_integer(2, 3) == Fraction(1, 12)
        assert beta_integer(3, 2) == Fraction(1, 12)

    def test_symmetry(self):
        for a in range(1, 14):
            for b in range(1, 14):
                assert beta_integer(a, b) == beta_integer(b, a)

    def test_factorial_and_binomial_forms_agree(self):
        # Beta(k+1, l+1) = k! l! / (k+l+1)! = 1 / ((k+l+1) C(k+l, l))
        for k in range(21):
            for l in range(21):
                value = beta_integer(k + 1, l + 1)
                assert value == Fraction(factorial(k) * factorial(l), factorial(k + l + 1))
                assert value == Fraction(1, (k + l + 1) * binomial(k + l, l))

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-2, 3)])
    def test_nonpositive_arguments_rejected(self, a, b):
        with pytest.raises(ValueError):
            beta_integer(a, b)
