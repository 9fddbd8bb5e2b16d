"""Which shared state each route may read, checked by cutting off the rest.

PRIMITIVES maps each piece of shared state to the attributes that, patched
to raise, cut it off, and to the caches above it; ROUTES maps each route
of each quantity to its values on a small grid and the primitives it may
read.  With every cache cleared, a route must keep its values while all
other primitives are cut off, and must raise while any one it reads is."""

import pytest

from bernlab import (
    BernoulliTable, StirlingTriangle, bell, bernoulli, bernoulli_recurrence, bernoulli_split,
    bernoulli_stirling_sum, beta_integer, beta_quadrature_check, combinatorics, expected_integral_value,
    polylog, polylog_neg_rf, quadrature, stirling2, stirling2_bruteforce, verify_integral, zeta_nonpositive,
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

# route: (values, reads), grouped by quantity
ROUTES = {
    # B_n
    "bernoulli_recurrence": (lambda: [bernoulli_recurrence(n) for n in (0, 1, 30, 200)], {"zigzag table"}),
    "bernoulli_stirling_sum": (lambda: [bernoulli_stirling_sum(n) for n in range(41)], SUMS),
    "bernoulli_split": (lambda: [bernoulli_split(m, n) for m, n in ((0, 0), (1, 2), (3, 30), (20, 20))], SUMS),
    # zeta(1 - N)
    "zeta_nonpositive": (lambda: [zeta_nonpositive(s) for s in range(0, -41, -1)], {"zigzag table"}),
    # S(n, k) and its row sums
    "stirling2": (lambda: [stirling2(9, k) for k in range(10)], {"triangle"}),
    "stirling2_bruteforce": (lambda: [stirling2_bruteforce(9, k) for k in range(10)], {"partition enumeration"}),
    "bell": (lambda: [bell(n) for n in range(31)], set()),
    # Li_{-n}(-t), and Li_{-n}(x), which is Li_{-n}(-t) at x = -t
    "polylog_neg_rf": (lambda: [polylog_neg_rf(n) for n in (0, 1, 7, 40)], STIRLING),
    "polylog_oracle": (lambda: [polylog.polylog_oracle(n) for n in (0, 1, 7, 40, 120)], {"oracle recurrence"}),
    # the half-line integral
    "verify_integral": (lambda: [verify_integral(m, n) for m, n in ORDERS],
                        {"Gauss-Legendre", "zigzag table", *STIRLING}),
    "expected_integral_value": (lambda: [expected_integral_value(m, n) for m, n in ORDERS], {"zigzag table"}),
    # Beta(k + 1, l + 1)
    "beta_integer": (lambda: [beta_integer(k + 1, l + 1) for k, l in ORDERS], set()),
    "beta_quadrature_check": (lambda: [beta_quadrature_check(k, l) for k, l in ORDERS], {"Gauss-Legendre"}),
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
