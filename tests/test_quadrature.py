"""Gauss-Legendre machinery and the half-line integral identity.

The float quadrature is cross-checked here against a fully symbolic
oracle: every integrand in scope is num(t)/(1+t)^d with integer
coefficients in lowest terms, so the half-line integral has an exact
closed form obtained by rewriting the numerator in the basis (1 + t)^j.
That gives the identity an arithmetic-only second route that never
touches floating point.  The oracle's polynomial arithmetic (a product,
division by t, synthetic division by 1 + t) lives here, on plain
integer coefficient lists.

Run as a script, this file rewrites golden/quadrature_estimates.jsonl
(see TestEstimateBits) from the bernlab on the path.
"""

import dataclasses
import json
import math
from array import array
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from bernlab.bernoulli import bernoulli_recurrence, bernoulli_split
from bernlab.combinatorics import stirling2
from bernlab.exact_arith import beta_integer
from bernlab.polylog import (
    Polynomial,
    RationalFunction,
    polylog_neg_rf,
    rf_compose_reciprocal,
    rf_eval_exact,
)
from bernlab.quadrature import (
    DEFAULT_NODES,
    DEFAULT_PANELS,
    MAX_BETA_SUM,
    MAX_IDENTITY_SUM,
    QuadratureReport,
    _form_at_nodes,
    _panel_rule,
    beta_quadrature_check,
    expected_integral_value,
    gauss_legendre,
    verify_integral,
)

P_T = Polynomial([0, 1])
# Every order pair verify_integral accepts.
IN_SCOPE = [(m, n) for m in range(MAX_IDENTITY_SUM + 1) for n in range(MAX_IDENTITY_SUM + 1 - m)]
# Every exponent pair beta_quadrature_check accepts.
BETA_SCOPE = [(k, s - k) for s in range(MAX_BETA_SUM + 1) for k in range(s + 1)]
# The rules of the benchmark's integral-quad workload, then those of its CLI requests.
BENCHMARK_RULES = [(16, 32), (8, 64), (32, 16), (8, 16), (4, 32), (16, 8)]
# Those plus small rules; (1, 1), (3, 7) and (5, 5) put a node at exactly 1/2.
GOLDEN_RULES = BENCHMARK_RULES + [(1, 1), (3, 7), (5, 5), (7, 2)]
ESTIMATES_GOLDEN = Path(__file__).resolve().parent / "golden" / "quadrature_estimates.jsonl"


def one_plus_t(e: int) -> Polynomial:
    """(1+t)^e."""
    return Polynomial(comb(e, i) for i in range(e + 1))


def coeff_product(a, b) -> list:
    """Coefficients of the product of two coefficient sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def divide_by_one_plus_t(coeffs) -> tuple[list, int]:
    """(quotient, remainder) of a polynomial divided by 1 + t (synthetic division at -1)."""
    acc = 0
    out = []
    for c in reversed(coeffs):
        acc = c - acc
        out.append(acc)
    remainder = out.pop()
    return out[::-1], remainder


def identity_integrand_rf(m: int, n: int) -> RationalFunction:
    """The identity integrand for orders (m, n) as an exact rational function."""
    left = rf_compose_reciprocal(polylog_neg_rf(m))
    right = polylog_neg_rf(n)
    num = coeff_product(left.numerator.coeffs, right.numerator.coeffs)
    den = coeff_product(left.denominator.coeffs, right.denominator.coeffs)
    assert num[0] == 0, "Li_{-n}(-t) vanishes at t = 0, so the product divides by t"
    return RationalFunction(Polynomial(num[1:]), Polynomial(den))


def exact_halfline_integral(f: RationalFunction) -> Fraction:
    """Integrate num(t)/(1+t)^d exactly over (0, infinity).

    Requires the denominator to be a power of (1 + t) and the numerator
    degree to sit at least two below it (decay like 1/t^2).  Writing
    num = sum c_j (1+t)^j via repeated division by (1 + t) and using
    integral_0^inf (1+t)^(j-d) dt = 1/(d - j - 1) gives the value.
    """
    d = f.denominator.degree
    if f.denominator != one_plus_t(d):
        raise ValueError("denominator is not a power of 1 + t")
    if f.numerator.degree > d - 2:
        raise ValueError("integrand does not decay fast enough to converge")
    num = list(f.numerator.coeffs)
    total = Fraction(0)
    j = 0
    while num:
        num, constant = divide_by_one_plus_t(num)
        total += Fraction(constant, d - j - 1)
        j += 1
    return total


def form_coeffs(n: int) -> tuple[float, ...]:
    """a_1..a_(n+1) of the form L_n as floats, zero-padded to n + 1 entries."""
    coeffs = polylog_neg_rf(n).numerator.coeffs[1:]
    return tuple(map(float, coeffs)) + (0.0,) * (n + 1 - len(coeffs))


def per_node_form(coeffs: tuple[float, ...], x: float, y: float) -> float:
    """sum_j c_j x^j y^(d-j) with d = len(coeffs) - 1, one node at a time.

    Horner in whichever of x/y and y/x is at most 1 (x/y on a tie),
    scaled by the d-th power of the larger: the per-node evaluation that
    _form_at_nodes must reproduce bit for bit.
    """
    if x > y:
        coeffs, x, y = coeffs[::-1], y, x
    acc, r = 0.0, x / y
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc * y ** (len(coeffs) - 1)


def estimate_hexes() -> dict[tuple[str, int, int], list[str]]:
    """float.hex() of every verify_integral estimate over IN_SCOPE and every
    beta_quadrature_check estimate over BETA_SCOPE, per GOLDEN_RULES rule."""
    out = {}
    for kind, check, pairs in (
        ("verify", verify_integral, IN_SCOPE),
        ("beta", beta_quadrature_check, BETA_SCOPE),
    ):
        for panels, nodes in GOLDEN_RULES:
            out[kind, panels, nodes] = [check(a, b, panels, nodes).estimate.hex() for a, b in pairs]
    return out


class TestExactOracleIsSelfConsistent:
    def test_simple_closed_forms(self):
        assert exact_halfline_integral(
            RationalFunction(Polynomial([1]), one_plus_t(2))
        ) == 1
        assert exact_halfline_integral(
            RationalFunction(Polynomial([1]), one_plus_t(3))
        ) == Fraction(1, 2)
        # t/(1+t)^4 = (1+t)^1*... -> 1/2 - 1/3
        assert exact_halfline_integral(
            RationalFunction(P_T, one_plus_t(4))
        ) == Fraction(1, 6)

    def test_divergent_integrand_rejected(self):
        with pytest.raises(ValueError):
            exact_halfline_integral(RationalFunction(Polynomial([1]), one_plus_t(1)))

    def test_non_power_denominator_rejected(self):
        with pytest.raises(ValueError):
            exact_halfline_integral(
                RationalFunction(Polynomial([1]), Polynomial([2, 2, 1, 1]))  # (2 + t^2)(1 + t)
            )


class TestIdentityHoldsExactly:
    """The integral identity verified in pure rational arithmetic."""

    def test_full_grid_matches_expected_values(self):
        for m in range(9):
            for n in range(9 - m):
                value = exact_halfline_integral(identity_integrand_rf(m, n))
                assert value == expected_integral_value(m, n), (m, n)

    def test_edge_orders_have_their_own_values(self):
        assert exact_halfline_integral(identity_integrand_rf(0, 0)) == 1
        assert exact_halfline_integral(identity_integrand_rf(0, 1)) == Fraction(1, 2)
        assert exact_halfline_integral(identity_integrand_rf(1, 0)) == Fraction(1, 2)
        # ... which is NOT the B_1 = -1/2 that the order-sum pattern suggests.
        assert exact_halfline_integral(identity_integrand_rf(1, 0)) != bernoulli_recurrence(1)

    def test_termwise_beta_expansion_reproduces_the_split_sum(self):
        # Expanding both factors in their Stirling forms turns the
        # integral into a double sum of Beta values; that sum must equal
        # the split evaluation exactly, term structure and all.
        for m in range(1, 10):
            for n in range(1, 10 - m + 1):
                total = Fraction(0)
                for k in range(1, m + 1):
                    for l in range(1, n + 1):
                        coeff = (
                            (-1) ** (k + l)
                            * factorial(k)
                            * factorial(l)
                            * stirling2(m, k)
                            * stirling2(n, l)
                        )
                        total += coeff * beta_integer(l + 1, k + 1)
                assert total == bernoulli_split(m, n), (m, n)
                assert total == bernoulli_recurrence(m + n), (m, n)


class TestGaussLegendre:
    def test_rule_shape(self):
        xs, ws = gauss_legendre(7)
        assert len(xs) == len(ws) == 7
        assert list(xs) == sorted(xs)
        assert all(w > 0 for w in ws)
        assert sum(ws) == pytest.approx(2.0, abs=1e-14)

    def test_symmetry(self):
        xs, ws = gauss_legendre(10)
        for i in range(10):
            assert xs[i] == pytest.approx(-xs[9 - i], abs=1e-15)
            assert ws[i] == pytest.approx(ws[9 - i], abs=1e-15)
        assert gauss_legendre(5)[0][2] == 0.0

    def test_two_point_rule_is_the_textbook_one(self):
        xs, ws = gauss_legendre(2)
        assert xs[1] == pytest.approx(3 ** -0.5, abs=1e-15)
        assert ws == pytest.approx((1.0, 1.0), abs=1e-15)

    def test_exact_through_degree_2n_minus_1(self):
        for nodes in (3, 8, 32):
            xs, ws = gauss_legendre(nodes)
            for degree in range(2 * nodes):
                estimate = sum(w * x**degree for x, w in zip(xs, ws))
                exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
                assert estimate == pytest.approx(exact, abs=5e-14), (nodes, degree)

    def test_degree_bound_is_sharp(self):
        xs, ws = gauss_legendre(2)
        estimate = sum(w * x**4 for x, w in zip(xs, ws))
        assert abs(estimate - 2.0 / 5.0) > 0.1

    def test_cached_and_immutable(self):
        assert gauss_legendre(32) is gauss_legendre(32)
        assert isinstance(gauss_legendre(32)[0], tuple)

    def test_bad_node_count_rejected(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestPanelRule:
    @pytest.mark.parametrize("panels,nodes", GOLDEN_RULES)
    def test_symmetric_about_one_half(self, panels, nodes):
        us, ws = _panel_rule(panels, nodes)
        size = panels * nodes
        assert len(us) == len(ws) == size
        assert list(us) == sorted(us) and 0.0 < us[0] and us[-1] < 1.0
        for j in range(size):
            assert abs(us[j] + us[size - 1 - j] - 1.0) <= 2 * math.ulp(1.0), (j, us[j])
            assert ws[j] == ws[size - 1 - j], j
        assert math.fsum(ws) == pytest.approx(1.0, abs=1e-14)

    def test_node_values_are_cached_with_a_bound(self):
        assert _form_at_nodes.cache_info().maxsize is not None
        assert _form_at_nodes(3, 8, 16) is _form_at_nodes(3, 8, 16)


class TestIntegrateHalfline:
    """Half-line integrals with closed forms, through the public checks."""

    def test_examples(self):
        # integral_0^inf t^k / (1+t)^(k+l+2) dt: 1/(1+t)^2, 1/(1+t)^3, t/(1+t)^4
        assert beta_quadrature_check(0, 0).estimate == pytest.approx(1.0, abs=1e-12)
        assert beta_quadrature_check(0, 1).estimate == pytest.approx(0.5, abs=1e-12)
        assert beta_quadrature_check(1, 1, panels=8).estimate == pytest.approx(1 / 6, abs=1e-10)

    def test_bad_panel_count_rejected(self):
        with pytest.raises(ValueError, match="at least one panel"):
            verify_integral(1, 1, panels=0)
        with pytest.raises(ValueError, match="at least one panel"):
            beta_quadrature_check(1, 1, panels=0)


class TestIntegrand:
    """The identity integrand's float factors: the forms L_n(u, 1-u) at a
    rule's nodes, where Li_{-n}(-t) = u * L_n(u, 1-u) for u = t/(1+t)."""

    def test_point_values(self):
        # Li_0(-t) = -u, Li_{-1}(-t) = -u(1-u), Li_{-2}(-t) = u(1-u)(2u-1)
        us, _ = _panel_rule(8, 16)
        assert list(_form_at_nodes(0, 8, 16)) == [-1.0] * len(us)
        for u, l1, l2 in zip(us, _form_at_nodes(1, 8, 16), _form_at_nodes(2, 8, 16)):
            assert l1 == pytest.approx(u - 1.0, abs=1e-15), u
            assert l2 == pytest.approx((1.0 - u) * (2.0 * u - 1.0), abs=1e-15), u

    def test_matches_the_exact_rational_function(self):
        # Each node value against L_n(u, 1-u) = Li_{-n}(-t) / u at the
        # exact node.  The bound scales with sum_i |a_i| u^(i-1) v^(n+1-i)
        # rather than |L_n|: near a zero of the form the relative error
        # reaches 7.5e-12, while the absolute one stays under 1.7 eps of
        # that sum.
        eps = math.ulp(1.0)
        for panels, nodes in BENCHMARK_RULES:
            us, _ = _panel_rule(panels, nodes)
            for n in range(MAX_IDENTITY_SUM + 1):
                f = polylog_neg_rf(n)
                a = [abs(float(c)) for c in f.numerator.coeffs[1:]]
                for u, value in zip(us, _form_at_nodes(n, panels, nodes)):
                    exact_u = Fraction(u)
                    exact = rf_eval_exact(f, exact_u / (1 - exact_u)) / exact_u
                    scale = sum(c * u**i * (1.0 - u) ** (n - i) for i, c in enumerate(a))
                    error = abs(Fraction(value) - exact)
                    assert error <= 4 * eps * scale, (n, panels, nodes, u, value)

    @pytest.mark.parametrize("panels,nodes", GOLDEN_RULES)
    def test_bits_match_a_per_node_evaluation(self, panels, nodes):
        us, _ = _panel_rule(panels, nodes)
        for n in range(MAX_IDENTITY_SUM + 1):
            coeffs = form_coeffs(n)
            expected = array("d", (per_node_form(coeffs, u, 1.0 - u) for u in us))
            assert _form_at_nodes(n, panels, nodes).tobytes() == expected.tobytes(), n

    @pytest.mark.parametrize("panels,nodes", [(1, 1), (3, 7), (5, 5)])
    def test_a_node_at_one_half_runs_horner_in_u_over_v(self, panels, nodes):
        # At u = v = 1/2 both ratios are 1 and the branches differ only in
        # the order of the sum.  Up to order 12 every partial sum is an
        # exact integer, so only a higher order shows which one ran: at
        # order 20 the two orders give values of opposite sign.
        j = list(_panel_rule(panels, nodes)[0]).index(0.5)
        coeffs = form_coeffs(20)
        by_u_over_v = per_node_form(coeffs, 0.5, 0.5)
        assert by_u_over_v != per_node_form(coeffs[::-1], 0.5, 0.5)
        assert _form_at_nodes(20, panels, nodes)[j] == by_u_over_v


class TestEstimateBits:
    """Every in-scope estimate on every GOLDEN_RULES rule keeps its bits.

    golden/quadrature_estimates.jsonl holds one line per check and rule,
    [check, panels, nodes, hexes], with the float.hex() of each estimate
    in IN_SCOPE or BETA_SCOPE order.  ROADMAP item 3 (exact form values
    at the nodes) changes these bits on purpose and regenerates the file
    by running this module as a script.
    """

    def test_every_estimate_matches_the_golden(self):
        golden = {}
        for line in ESTIMATES_GOLDEN.read_text().splitlines():
            kind, panels, nodes, hexes = json.loads(line)
            golden[kind, panels, nodes] = hexes
        actual = estimate_hexes()
        assert list(golden) == list(actual)
        for key, hexes in actual.items():
            pairs = IN_SCOPE if key[0] == "verify" else BETA_SCOPE
            assert len(golden[key]) == len(hexes) == len(pairs), key
            diff = [(p, want, got) for p, want, got in zip(pairs, golden[key], hexes) if want != got]
            assert not diff, (key, diff[:3])


class TestExpectedIntegralValue:
    def test_edge_orders(self):
        assert expected_integral_value(0, 0) == 1
        assert expected_integral_value(0, 1) == Fraction(1, 2)
        assert expected_integral_value(1, 0) == Fraction(1, 2)

    def test_general_orders_give_bernoulli_numbers(self):
        assert expected_integral_value(1, 1) == Fraction(1, 6)
        assert expected_integral_value(2, 1) == 0
        assert expected_integral_value(6, 6) == bernoulli_recurrence(12)
        for s in range(2, 61):
            assert expected_integral_value(s // 2, s - s // 2) == bernoulli_recurrence(s), s

    def test_negative_orders_rejected(self):
        with pytest.raises(ValueError):
            expected_integral_value(-1, 0)


class TestVerifyIntegral:
    def test_report_contents(self):
        report = verify_integral(1, 1)
        assert isinstance(report, QuadratureReport)
        assert (report.m, report.n) == (1, 1)
        assert report.expected == Fraction(1, 6)
        assert (report.panels, report.nodes) == (DEFAULT_PANELS, DEFAULT_NODES)
        assert report.estimate == pytest.approx(1 / 6, abs=1e-12)
        assert report.abs_error <= 1e-12

    def test_stored_fields(self):
        # the errors are derived from estimate and expected, not stored
        names = [f.name for f in dataclasses.fields(QuadratureReport)]
        assert names == ["m", "n", "estimate", "expected", "panels", "nodes"]

    def test_rel_error_definition(self):
        for report in (verify_integral(2, 1), verify_integral(0, 0), verify_integral(3, 3)):
            assert report.abs_error == abs(report.estimate - float(report.expected))
            assert report.rel_error == report.abs_error / max(
                1.0, abs(float(report.expected))
            )

    def test_zero_target_uses_absolute_error(self):
        report = verify_integral(2, 1)  # B_3 = 0
        assert report.expected == 0
        assert report.rel_error == report.abs_error
        assert report.abs_error <= 1e-12

    def test_grid_reaches_quadrature_precision(self):
        for m in range(7):
            for n in range(7 - m):
                report = verify_integral(m, n)
                assert report.rel_error <= 1e-10, (m, n, report.rel_error)

    @pytest.mark.parametrize("panels,nodes", BENCHMARK_RULES)
    def test_whole_scope_on_each_benchmark_rule(self, panels, nodes):
        for m, n in IN_SCOPE:
            report = verify_integral(m, n, panels, nodes)
            assert report.rel_error <= 1e-12, (m, n, panels, nodes, report.rel_error)

    @pytest.mark.parametrize("panels,nodes", BENCHMARK_RULES)
    def test_matches_the_halfline_route(self, panels, nodes):
        # verify_integral integrates in u from cached float forms; the
        # test-local oracle integrates the same integrand in t, exactly
        # and without reading a Bernoulli number.
        for m, n in IN_SCOPE:
            exact = exact_halfline_integral(identity_integrand_rf(m, n))
            report = verify_integral(m, n, panels, nodes)
            assert report.expected == exact, (m, n)
            assert abs(report.estimate - exact) <= 1e-12 * max(1, abs(exact)), (m, n)

    def test_symmetric_orders_agree(self):
        for m, n in ((0, 3), (1, 4), (2, 5)):
            assert verify_integral(m, n).estimate == pytest.approx(
                verify_integral(n, m).estimate, abs=1e-10
            )

    def test_doubling_panels_stays_at_the_noise_floor(self):
        base = verify_integral(3, 3, panels=DEFAULT_PANELS)
        fine = verify_integral(3, 3, panels=2 * DEFAULT_PANELS)
        assert base.abs_error <= 1e-12
        assert fine.abs_error <= base.abs_error + 1e-12

    def test_scope_cap(self):
        with pytest.raises(ValueError):
            verify_integral(7, MAX_IDENTITY_SUM - 7 + 1)
        verify_integral(6, MAX_IDENTITY_SUM - 6)  # boundary is in scope

    def test_negative_orders_rejected(self):
        with pytest.raises(ValueError):
            verify_integral(0, -2)


class TestBetaQuadratureCheck:
    def test_report_contents(self):
        report = beta_quadrature_check(1, 1)
        assert report.expected == Fraction(1, 6)
        assert report.expected == beta_integer(2, 2)
        assert report.rel_error <= 1e-12

    def test_grid_reaches_quadrature_precision(self):
        for k in range(9):
            for l in range(9 - k):
                report = beta_quadrature_check(k, l)
                assert report.expected == beta_integer(k + 1, l + 1)
                assert report.rel_error <= 1e-10, (k, l, report.rel_error)

    @pytest.mark.parametrize("panels,nodes", BENCHMARK_RULES)
    def test_whole_scope_on_each_benchmark_rule(self, panels, nodes):
        for s in range(MAX_BETA_SUM + 1):
            for k in range(s + 1):
                report = beta_quadrature_check(k, s - k, panels, nodes)
                assert report.rel_error <= 1e-12, (k, s - k, panels, nodes, report.rel_error)

    def test_scope_cap(self):
        with pytest.raises(ValueError):
            beta_quadrature_check(11, MAX_BETA_SUM - 11 + 1)
        beta_quadrature_check(10, MAX_BETA_SUM - 10)  # boundary is in scope

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            beta_quadrature_check(-1, 3)


if __name__ == "__main__":
    ESTIMATES_GOLDEN.write_text(
        "".join(json.dumps([*key, hexes]) + "\n" for key, hexes in estimate_hexes().items())
    )
