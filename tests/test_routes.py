"""Which shared state each route may read, checked by cutting off the rest,
and whether the routes of each quantity agree.

PRIMITIVES maps each piece of shared state to the attributes that, patched
to raise, cut it off, and to the caches above it; QUANTITIES maps each
quantity to one grid, a test of agreement and its routes, each with its
value at a grid point and the primitives it may read.  With every cache
cleared, a route must keep its values while all other primitives are cut
off, and must raise while any one it reads is.  Every two routes of a
quantity must agree on its grid, and the quantities that lack two routes
with disjoint primitives must be exactly KNOWN_GAPS."""

import math
from itertools import combinations
from operator import eq

import pytest

from bernlab import (
    BRUTE_FORCE_MAX_N, BernoulliTable, StirlingTriangle, bell, bernoulli, bernoulli_recurrence,
    bernoulli_split, bernoulli_stirling_sum, beta_integer, beta_quadrature_check, combinatorics,
    expected_integral_value, polylog, polylog_neg_rf, quadrature, stirling2, stirling2_bruteforce,
    stirling2_row, verify_integral, zeta_nonpositive,
)


class CutOff(Exception):
    """Raised by a primitive that is cut off."""


def cut_off(*args, **kwargs):
    raise CutOff


def emptied(cached):
    return lambda monkeypatch: cached.cache_clear()


def renewed(owner, name, new):
    """Shared state, replaced by new() until the test ends."""
    return lambda monkeypatch: monkeypatch.setattr(owner, name, new())


# The functions the Stirling form builds, and the quadrature's float forms of them.
POLYLOG_CACHES = [emptied(polylog_neg_rf), emptied(quadrature._form_at_nodes)]

# primitive: (cuts, caches)
PRIMITIVES = {
    "triangle": ([(StirlingTriangle, "extend_to")],
                 [renewed(combinatorics, "_SHARED", StirlingTriangle), *POLYLOG_CACHES]),
    "zigzag table": ([(BernoulliTable, "extend_to")], [renewed(bernoulli, "_SHARED_TABLE", BernoulliTable)]),
    "factorial memo": ([(bernoulli._FactorialMemo, "extend_to")],
                       [renewed(bernoulli, "_FACTORIALS", bernoulli._FactorialMemo)]),
    "partition enumeration": ([(combinatorics, "_block_counts")], [emptied(combinatorics._block_counts)]),
    "Stirling form": ([(polylog, "polylog_stirling_form")], POLYLOG_CACHES),
    "binomial rows": ([(polylog, "_one_plus_t_power"), (polylog, "comb")], POLYLOG_CACHES),
    "oracle recurrence": ([(polylog, "polylog_oracle")],
                          [renewed(polylog, "_oracle_front", lambda: polylog._ORACLE_BASE)]),
    "Gauss-Legendre": ([(quadrature, "gauss_legendre")],
                       [emptied(quadrature._panel_rule), emptied(quadrature._form_at_nodes)]),
}

ORDERS = [(0, 0), (0, 1), (1, 2), (5, 7)]
SUMS = {"triangle", "factorial memo"}
STIRLING = {"triangle", "Stirling form", "binomial rows"}


def close(a, b):
    """Within 1e-12, relative once past 1 as QuadratureReport.rel_error is,
    a report standing for its estimate; on ORDERS the reports are within
    1e-15 of the exact values."""
    return math.isclose(getattr(a, "estimate", a), getattr(b, "estimate", b), rel_tol=1e-12, abs_tol=1e-12)


# quantity: (grid, agree, {route: (value at a grid point, reads)})
QUANTITIES = {
    # B_(m+n), so the split takes each point as its (m, n)
    "B_n": ([(n // 2, n - n // 2) for n in range(41)] + [(3, 30), (100, 100)], eq, {
        "bernoulli_recurrence": (lambda m, n: bernoulli_recurrence(m + n), {"zigzag table"}),
        "bernoulli_stirling_sum": (lambda m, n: bernoulli_stirling_sum(m + n), SUMS),
        "bernoulli_split": (bernoulli_split, SUMS),
    }),
    "zeta(1 - N)": ([(s,) for s in range(0, -41, -1)], eq, {
        "zeta_nonpositive": (zeta_nonpositive, {"zigzag table"}),
    }),
    "S(n, k), n <= BRUTE_FORCE_MAX_N": ([(9, k) for k in range(10)], eq, {
        "stirling2": (stirling2, {"triangle"}),
        "stirling2_bruteforce": (stirling2_bruteforce, {"partition enumeration"}),
    }),
    "S(n, k), n > BRUTE_FORCE_MAX_N": ([(BRUTE_FORCE_MAX_N + 1, k) for k in range(BRUTE_FORCE_MAX_N + 2)],
                                       eq, {"stirling2 past BRUTE_FORCE_MAX_N": (stirling2, {"triangle"})}),
    # the row sums of S(n, k)
    "Bell numbers": ([(n,) for n in range(31)], eq, {
        "bell": (bell, set()),
        "stirling2_row": (lambda n: sum(stirling2_row(n)), {"triangle"}),
    }),
    # Li_{-n}(-t), and Li_{-n}(x) at x = -t
    "Li_{-n}(-t)": ([(n,) for n in (0, 1, 7, 40, 120)], eq, {
        "polylog_neg_rf": (polylog_neg_rf, STIRLING),
        "polylog_oracle": (lambda n: polylog.polylog_oracle(n).negate_variable(), {"oracle recurrence"}),
    }),
    "half-line integral": (ORDERS, close, {
        "verify_integral": (verify_integral, {"Gauss-Legendre", "zigzag table", *STIRLING}),
        "expected_integral_value": (expected_integral_value, {"zigzag table"}),
    }),
    # Beta(k + 1, l + 1)
    "Beta": (ORDERS, close, {
        "beta_integer": (lambda k, l: beta_integer(k + 1, l + 1), set()),
        "beta_quadrature_check": (beta_quadrature_check, {"Gauss-Legendre"}),
    }),
}

# The quantities without two routes that read disjoint primitives.  A
# change that opens or closes a gap changes this list with it.
KNOWN_GAPS = {
    # one route, on the zigzag table of B_n's reference route
    "zeta(1 - N)",
    # the partition enumeration stops at BRUTE_FORCE_MAX_N
    "S(n, k), n > BRUTE_FORCE_MAX_N",
    # the exact value has one route, which the quadrature report reads too
    "half-line integral",
}


def on_grid(value, grid):
    return lambda: [value(*point) for point in grid]


# route: (values on its quantity's grid, reads)
ROUTES = {
    route: (on_grid(value, grid), reads)
    for grid, _, routes in QUANTITIES.values() for route, (value, reads) in routes.items()
}


def clear_every_cache(monkeypatch):
    for _, caches in PRIMITIVES.values():
        for clear in caches:
            clear(monkeypatch)


@pytest.mark.parametrize("route", ROUTES)
def test_a_route_reads_nothing_outside_its_set(route, monkeypatch):
    values, reads = ROUTES[route]
    before = values()
    clear_every_cache(monkeypatch)
    for name, (cuts, _) in PRIMITIVES.items():
        for cut in cuts if name not in reads else ():
            monkeypatch.setattr(*cut, cut_off)
    assert values() == before


BITES = {
    f"{route}-{name}-{cut[1]}": (route, cut)
    for route, (_, reads) in ROUTES.items() for name in sorted(reads) for cut in PRIMITIVES[name][0]
}


@pytest.mark.parametrize("route, cut", BITES.values(), ids=BITES)
def test_each_cut_stops_every_route_that_reads_it(route, cut, monkeypatch):
    clear_every_cache(monkeypatch)
    monkeypatch.setattr(*cut, cut_off)
    with pytest.raises(CutOff):
        ROUTES[route][0]()


def test_every_primitive_has_a_reader():
    assert set().union(*(reads for _, reads in ROUTES.values())) == set(PRIMITIVES)


PAIRS = {
    f"{a} = {b}": (quantity, a, b)
    for quantity, (_, _, routes) in QUANTITIES.items() for a, b in combinations(routes, 2)
}


@pytest.mark.parametrize("quantity, a, b", PAIRS.values(), ids=PAIRS)
def test_every_two_routes_of_a_quantity_agree_on_its_grid(quantity, a, b):
    grid, agree, _ = QUANTITIES[quantity]
    for point, x, y in zip(grid, ROUTES[a][0](), ROUTES[b][0](), strict=True):
        assert agree(x, y), (point, x, y)


def test_the_quantities_without_two_independent_routes_are_the_known_gaps():
    gaps = {
        quantity for quantity, (_, _, routes) in QUANTITIES.items()
        if not any(routes[a][1].isdisjoint(routes[b][1]) for a, b in combinations(routes, 2))
    }
    assert gaps == KNOWN_GAPS
