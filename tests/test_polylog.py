"""Coefficient holders and the two polylogarithm constructions.

Both constructions build integer coefficients directly in lowest terms,
with no GCD.  Besides the cross-check between them, the tests pin the
facts that make this safe: the numerator of Li_{-n}(-t) is +-n! at the
pole t = -1, and t -> 1/t maps Li_{-n}(-t) to (-1)^(n+1) Li_{-n}(-t)
coefficient for coefficient.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial

import pytest

import bernlab.polylog
from bernlab.bernoulli import bernoulli_recurrence
from bernlab.polylog import (
    Polynomial,
    RationalFunction,
    polylog_neg_rf,
    polylog_oracle,
    polylog_stirling_form,
    rf_compose_reciprocal,
    rf_eval_exact,
)
from support import run_code

T = Polynomial([0, 1])
ONE = Polynomial([1])
ONE_PLUS_T = Polynomial([1, 1])


def one_plus_t(e):
    """(1+t)^e."""
    return Polynomial(comb(e, i) for i in range(e + 1))


def one_minus_x(e):
    """(1-x)^e."""
    return one_plus_t(e).negate_variable()


class TestPolynomial:
    def test_trailing_zeros_are_stripped(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).degree == -1
        assert Polynomial().is_zero()

    def test_negate_variable_is_an_involution(self):
        p = Polynomial([1, -2, 3, 4])
        assert p.negate_variable() == Polynomial([1, 2, 3, -4])
        assert p.negate_variable().negate_variable() == p

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Polynomial([1]).coeffs = ()

    def test_render(self):
        assert Polynomial([0, -1, 1]).render("t") == "-t + t^2"
        assert Polynomial([1, 3, 3, 1]).render("t") == "1 + 3*t + 3*t^2 + t^3"
        assert Polynomial([Fraction(-5, 66)]).render() == "-5/66"
        assert Polynomial().render() == "0"


class TestRationalFunctionCanonicalForm:
    def test_zero_is_zero_over_one(self):
        f = RationalFunction(Polynomial(), Polynomial([3, 1]))
        assert f.numerator.is_zero() and f.denominator == ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(ONE, Polynomial())


class TestValueSemantics:
    """Both types are frozen values: equal and hashed by their parts, and
    closed to assignment."""

    def test_rational_function_is_immutable(self):
        f = RationalFunction(Polynomial([0, -1, 1]), one_plus_t(3))
        with pytest.raises(AttributeError):
            f.numerator = ONE
        with pytest.raises(AttributeError):
            del f.denominator
        assert (f.numerator, f.denominator) == (Polynomial([0, -1, 1]), one_plus_t(3))

    def test_no_new_attribute_can_be_added(self):
        for value in (ONE, RationalFunction(T, ONE_PLUS_T)):
            with pytest.raises(AttributeError):
                value.extra = 1
            assert not hasattr(value, "extra")

    @pytest.mark.parametrize("value", [Polynomial([0, -1]), RationalFunction(T, ONE_PLUS_T)])
    def test_every_write_raises_attribute_error(self, value):
        before = repr(value)
        for field in dataclasses.fields(value):
            with pytest.raises(AttributeError):
                setattr(value, field.name, ONE)
            with pytest.raises(AttributeError):
                delattr(value, field.name)
        with pytest.raises(AttributeError):
            del value.extra
        assert repr(value) == before

    def test_pickle_and_deepcopy_round_trip(self):
        f = polylog_neg_rf(5)
        for copied in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert copied == f and hash(copied) == hash(f)
            assert copied.numerator.coeffs == f.numerator.coeffs

    def test_repr_shows_the_coefficients(self):
        assert repr(Polynomial([0, -1, 0])) == "Polynomial(coeffs=(0, -1))"
        assert repr(RationalFunction(T, ONE_PLUS_T)) == (
            "RationalFunction(numerator=Polynomial(coeffs=(0, 1)), "
            "denominator=Polynomial(coeffs=(1, 1)))"
        )

    def test_equal_values_hash_equal(self):
        a, b = Polynomial([1, 2, 0]), Polynomial((1, 2))
        assert a == b and a is not b and hash(a) == hash(b)
        f = RationalFunction(Polynomial([0, -1]), ONE_PLUS_T)
        assert f == polylog_neg_rf(0) and hash(f) == hash(polylog_neg_rf(0))
        for n in (1, 7, 40):
            assert len({polylog_stirling_form(n), polylog_oracle(n).negate_variable()}) == 1

    def test_never_equal_to_another_type(self):
        assert Polynomial([1]) != (1,) and (1,) != Polynomial([1])
        assert Polynomial([1]) != 1 and Polynomial() != ()
        for f in (RationalFunction(ONE), RationalFunction(Polynomial())):
            assert f != f.numerator and f.numerator != f


class TestStirlingForm:
    def test_order_one(self):
        assert polylog_stirling_form(1) == RationalFunction(Polynomial([0, -1]), one_plus_t(2))

    def test_order_two(self):
        assert polylog_stirling_form(2) == RationalFunction(
            Polynomial([0, -1, 1]), one_plus_t(3)
        )

    def test_order_zero_is_the_literal_sum(self):
        assert polylog_stirling_form(0) == RationalFunction(ONE, ONE_PLUS_T)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            polylog_stirling_form(-1)


class TestPolylogNegRf:
    def test_order_zero_is_the_geometric_series(self):
        assert polylog_neg_rf(0) == RationalFunction(Polynomial([0, -1]), ONE_PLUS_T)

    def test_order_one(self):
        assert polylog_neg_rf(1) == RationalFunction(Polynomial([0, -1]), one_plus_t(2))

    def test_order_three(self):
        assert polylog_neg_rf(3) == RationalFunction(
            Polynomial([0, -1, 4, -1]), one_plus_t(4)
        )

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            polylog_neg_rf(-2)
        with pytest.raises(ValueError, match=r"^polylog order must be non-negative, got -1$"):
            polylog_neg_rf(-1)

    def test_each_order_is_built_once(self):
        assert polylog_neg_rf(7) is polylog_neg_rf(7)
        assert polylog_neg_rf(0) is polylog_neg_rf(0)

    def test_cache_is_bounded(self):
        assert polylog_neg_rf.cache_info().maxsize is not None
        for n in range(40):
            polylog_neg_rf(n)
        assert polylog_neg_rf(0) == RationalFunction(Polynomial([0, -1]), ONE_PLUS_T)


class TestOracle:
    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match=r"^polylog order must be non-negative, got -1$"):
            polylog_oracle(-1)

    def test_base_case(self):
        assert polylog_oracle(0) == RationalFunction(T, one_minus_x(1))

    def test_first_derivative_step(self):
        assert polylog_oracle(1) == RationalFunction(T, one_minus_x(2))

    def test_second_derivative_step(self):
        # x(1+x)/(1-x)^3
        assert polylog_oracle(2) == RationalFunction(Polynomial([0, 1, 1]), one_minus_x(3))

    def test_agrees_with_stirling_form_after_substitution(self):
        for n in (*range(1, 41), 64, 100, 173, 250, 331, 500):
            assert polylog_stirling_form(n) == polylog_oracle(n).negate_variable(), n

    def test_order_zero_mismatch_is_exactly_one(self):
        # 1/(1+t) - (-t)/(1+t): the numerators differ by the shared denominator.
        stirling = polylog_stirling_form(0)
        true = polylog_oracle(0).negate_variable()
        assert stirling.denominator == true.denominator
        diff = [
            a - b
            for a, b in zip_longest(stirling.numerator.coeffs, true.numerator.coeffs, fillvalue=0)
        ]
        assert Polynomial(diff) == stirling.denominator

    def test_orders_in_any_sequence_match_the_stirling_form(self):
        # The loop starts from the order built last when it can, and
        # from order 0 when asked for a lower one.  polylog_neg_rf is the
        # true Li_{-n}(-t) at every order, 0 included.
        for n in (30, 5, 6, 31, 0, 12, 12, 40, 1):
            assert polylog_oracle(n).negate_variable() == polylog_neg_rf(n), n

    def test_both_constructions_meet_the_bernoulli_numbers(self):
        # Li_{-n}(-1) = (1 - 2^(n+1)) B+_(n+1) / (n+1) with B+_N = (-1)^N B_N;
        # with B_1 = -1/2 in its place the identity fails at n = 0 only.
        for n in range(201):
            expected = (1 - 2 ** (n + 1)) * (-1) ** (n + 1) * bernoulli_recurrence(n + 1)
            assert (n + 1) * rf_eval_exact(polylog_oracle(n), -1) == expected, n
            assert (n + 1) * rf_eval_exact(polylog_neg_rf(n), 1) == expected, n

    def test_cold_order_1000_in_a_fresh_process(self):
        # A recursive oracle ran out of stack near order 500.
        code = (
            "from math import comb, factorial\n"
            "from bernlab.polylog import polylog_oracle\n"
            "f = polylog_oracle(1000)\n"
            "den = tuple((-1) ** i * comb(1001, i) for i in range(1002))\n"
            "print(f.denominator.coeffs == den, sum(f.numerator.coeffs) == factorial(1000))\n"
        )
        proc = run_code(code, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True\n", "")

    def test_exact_evaluation_agrees_at_rational_points(self):
        for n in range(16):
            f = polylog_neg_rf(n)
            oracle = polylog_oracle(n)
            for t in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)):
                assert rf_eval_exact(f, t) == rf_eval_exact(oracle, -t), (n, t)


class TestEvaluation:
    def test_exact_examples(self):
        assert rf_eval_exact(polylog_neg_rf(0), 1) == Fraction(-1, 2)
        assert rf_eval_exact(polylog_neg_rf(2), 2) == Fraction(2, 27)

    def test_exact_pole_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rf_eval_exact(polylog_oracle(0), 1)
        # The numerator is +-n! at t = -1, so no factor of 1+t ever
        # cancels and every order keeps its full pole there.
        for n in range(41):
            f = polylog_neg_rf(n)
            assert f.denominator == one_plus_t(n + 1), n
            at_pole = sum(-c if i % 2 else c for i, c in enumerate(f.numerator.coeffs))
            assert abs(at_pole) == factorial(n), n
            with pytest.raises(ZeroDivisionError):
                rf_eval_exact(f, -1)


def horner_reference(f, t):
    """f(t) by Horner in Fractions, without rf_eval_exact."""
    t = Fraction(t)

    def value(coeffs):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    return value(f.numerator.coeffs) / value(f.denominator.coeffs)


BIG = 10**12
# Ints, a string, a float, negative p/q and p, q up to 10^12.  Only the
# oracle's pole x = 1 lies on the grid.
EVAL_POINTS = (
    0, 1, 2, "3/7", 0.25,
    Fraction(-5, 3), Fraction(-1, 2), Fraction(-7, 11),
    Fraction(BIG - 11, BIG), Fraction(1, BIG), Fraction(BIG, 7),
    Fraction(-BIG, BIG - 1), Fraction(-(BIG - 39), 999999999989),
)
HAND_BUILT = (
    RationalFunction(
        Polynomial([Fraction(1, 2), Fraction(-3, 4), 2]), Polynomial([Fraction(5, 4), 1])
    ),
    RationalFunction(Polynomial(), Polynomial([3, 1])),
    # numerator of higher degree than the denominator
    RationalFunction(Polynomial([1, -2, 0, 5, 7]), Polynomial([2, 1])),
    RationalFunction(Polynomial([0, 0, 0, -4])),
)


class TestExactEvaluationInIntegers:
    """rf_eval_exact against a Horner run in Fractions."""

    @staticmethod
    def assert_matches_reference(f, label, points=EVAL_POINTS):
        for t in points:
            got = rf_eval_exact(f, t)
            assert type(got) is Fraction, (label, t)
            assert got == horner_reference(f, t), (label, t)

    @pytest.mark.parametrize("n", range(61))
    def test_polylogs(self, n):
        self.assert_matches_reference(polylog_neg_rf(n), ("neg_rf", n))
        self.assert_matches_reference(rf_compose_reciprocal(polylog_neg_rf(n)), ("compose", n))
        off_the_oracle_pole = [t for t in EVAL_POINTS if Fraction(t) != 1]
        self.assert_matches_reference(polylog_oracle(n), ("oracle", n), off_the_oracle_pole)

    @pytest.mark.parametrize("index", range(len(HAND_BUILT)))
    def test_hand_built(self, index):
        self.assert_matches_reference(HAND_BUILT[index], index)

    @pytest.mark.parametrize("n", range(0, 61, 6))
    def test_poles_raise(self, n):
        for f, pole in (
            (polylog_neg_rf(n), -1),
            (rf_compose_reciprocal(polylog_neg_rf(n)), Fraction(-1)),
            (polylog_oracle(n), "1"),
        ):
            with pytest.raises(ZeroDivisionError, match="pole of rational function at t = "):
                rf_eval_exact(f, pole)


LEAF = bernlab.polylog._LEAF
# Orders next to one and two leaves: order n has n + 2 coefficients, so
# these cover runs just under, at and just over each split.
ORDERS_AT_THE_LEAF = sorted({k * LEAF + j for k in (1, 2) for j in range(-3, 2)})
LONG_HAND_BUILT = (
    # Fraction coefficients, both parts longer than the leaf
    RationalFunction(
        Polynomial(Fraction((-1) ** i * (i + 1), 2 * i + 3) for i in range(2 * LEAF + 5)),
        Polynomial(Fraction(7, i + 2) for i in range(LEAF + 3)),
    ),
    # numerator longer than the denominator (t - 4)(t + 1), which stays a
    # single leaf
    RationalFunction(
        Polynomial((i % 7) - 3 for i in range(3 * LEAF + 1)), Polynomial([-4, -3, 1])
    ),
)


def direct_reference(f, t):
    """f(t) as sum_i c_i p^i q^(d-i) over the same sum for the denominator,
    each term its own pow, and one Fraction at the end."""
    t = Fraction(t)
    p, q = t.numerator, t.denominator
    d = max(f.numerator.degree, f.denominator.degree)

    def form(coeffs):
        return sum(c * pow(p, i) * pow(q, d - i) for i, c in enumerate(coeffs))

    return Fraction(form(f.numerator.coeffs), form(f.denominator.coeffs))


class TestBinarySplitting:
    """Runs longer than the leaf are split in halves and recombined."""

    assert_matches_reference = staticmethod(TestExactEvaluationInIntegers.assert_matches_reference)

    @pytest.mark.parametrize("n", ORDERS_AT_THE_LEAF)
    def test_polylogs_next_to_the_leaf(self, n):
        self.assert_matches_reference(polylog_neg_rf(n), ("neg_rf", n))
        off_the_oracle_pole = [t for t in EVAL_POINTS if Fraction(t) != 1]
        self.assert_matches_reference(polylog_oracle(n), ("oracle", n), off_the_oracle_pole)

    @pytest.mark.parametrize("index", range(len(LONG_HAND_BUILT)))
    def test_hand_built_longer_than_the_leaf(self, index):
        self.assert_matches_reference(LONG_HAND_BUILT[index], index)

    @pytest.mark.parametrize("n", [2 * LEAF - 1, 2 * LEAF, 2 * LEAF + 1, 5 * LEAF])
    def test_poles_past_the_leaf_raise(self, n):
        for f, pole in (
            (polylog_neg_rf(n), -1),
            (polylog_oracle(n), "1"),
            (LONG_HAND_BUILT[1], 4),
        ):
            with pytest.raises(ZeroDivisionError, match=r"^pole of rational function at t = "):
                rf_eval_exact(f, pole)

    @pytest.mark.parametrize("n", [100, 300, 1000])
    def test_sampled_high_orders_against_direct_sums(self, n):
        # The oracle needs no Stirling triangle, whose row 1000 would hold
        # about 200 MB for the rest of the test run.
        f = polylog_oracle(n)
        # Each direct sum at order 1000 and p, q near 10^12 takes about 1 s.
        for t in (Fraction(-7, 3), Fraction(10**6 + 3, 999983), Fraction(-(10**6 + 3), 999983)):
            assert rf_eval_exact(f, t) == direct_reference(f, t), (n, t)

    @pytest.mark.parametrize("size", [LEAF, LEAF + 1, 2 * LEAF + 1, 5 * LEAF - 3])
    def test_split_forms_are_the_homogeneous_forms(self, size):
        # The two forms themselves, not only their quotient, against the
        # plain sum; odd lengths split into unequal halves.
        p, q = -7, 3
        num, den = tuple(range(-5, size - 5)), tuple((-1) ** i * (i + 9) for i in range(size))
        expected = tuple(
            sum(c * p**i * q ** (size - 1 - i) for i, c in enumerate(cs)) for cs in (num, den)
        )
        assert bernlab.polylog._form_pair_at(num, den, p, q) == expected


class TestComposeReciprocal:
    def test_examples(self):
        assert rf_compose_reciprocal(polylog_neg_rf(0)) == RationalFunction(
            Polynomial([-1]), ONE_PLUS_T
        )
        assert rf_compose_reciprocal(RationalFunction(ONE, ONE_PLUS_T)) == RationalFunction(
            T, ONE_PLUS_T
        )

    def test_fixed_point(self):
        # Li_{-n}(-1/t) = (-1)^(n+1) Li_{-n}(-t) for n >= 1, so the
        # reversal lands on the same lowest-terms coefficients up to sign;
        # n = 1 is a true fixed point.
        for n in range(1, 41):
            f = polylog_neg_rf(n)
            sign = (-1) ** (n + 1)
            expected = RationalFunction(
                Polynomial(sign * c for c in f.numerator.coeffs), f.denominator
            )
            assert rf_compose_reciprocal(f) == expected, n

    def test_involution_on_polylogs(self):
        for n in range(9):
            f = polylog_neg_rf(n)
            assert rf_compose_reciprocal(rf_compose_reciprocal(f)) == f, n

    def test_pointwise_meaning(self):
        for n in range(6):
            g = rf_compose_reciprocal(polylog_neg_rf(n))
            for t in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
                assert rf_eval_exact(g, t) == rf_eval_exact(polylog_neg_rf(n), 1 / t)

    def test_zero_function_passes_through(self):
        zero = RationalFunction(Polynomial())
        assert rf_compose_reciprocal(zero) == zero


class TestRendering:
    def test_function_render(self):
        assert polylog_neg_rf(2).render("t") == "(-t + t^2)/(1 + 3*t + 3*t^2 + t^3)"

    def test_polynomial_shortcut(self):
        assert RationalFunction(Polynomial([0, 2])).render("t") == "2*t"
