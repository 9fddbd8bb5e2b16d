"""Floating-point verification of the half-line integral identity

    integral_0^inf Li_{-m}(-1/t) * Li_{-n}(-t) / t dt  =  (-1)^(m+n) B_(m+n)

(B_(m+n) under the B_1 = +1/2 convention; see expected_integral_value)
and of the termwise Beta integrals behind it.

Strategy: substitute u = t/(1+t), which maps (0, inf) onto (0, 1) with
dt = du/(1-u)^2.  Every integrand assembled here becomes a polynomial in
u under that substitution, so composite Gauss-Legendre reaches machine
precision almost immediately; the quadrature never needs either
endpoint.  The identity and Beta checks integrate directly in u: the
identity integrand times dt is L_n(u, 1-u) * L_m(1-u, u) du (see
_form_at_nodes), and each form is evaluated once per order and rule, by
one float Horner loop over the rule's nodes, and cached, so a check is a
dot product of two cached vectors with the weights.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .bernoulli import bernoulli_recurrence
from .exact_arith import beta_integer
from .polylog import polylog_neg_rf

__all__ = [
    "MAX_IDENTITY_SUM",
    "MAX_BETA_SUM",
    "QuadratureReport",
    "gauss_legendre",
    "expected_integral_value",
    "verify_integral",
    "beta_quadrature_check",
]

DEFAULT_PANELS = 16
DEFAULT_NODES = 32

# Precision scope caps.  The float forms are built from the polylog
# numerators, whose coefficients alternate in sign and grow fast with the
# order, so beyond m+n = 12 an unbalanced pair loses enough to
# cancellation (rel error 5e-4 at (0, 30)) that the desk-scale
# tolerances stop being honest; the Beta integrands are tamer and keep a
# wider margin.
MAX_IDENTITY_SUM = 12
MAX_BETA_SUM = 20


@dataclass(frozen=True)
class QuadratureReport:
    """Outcome of one quadrature-versus-exact comparison.

    rel_error is abs_error / max(1, |expected|), i.e. plain absolute
    error whenever the target is small or zero.
    """

    m: int
    n: int
    estimate: float
    expected: Fraction
    panels: int
    nodes: int

    @property
    def abs_error(self) -> float:
        return abs(self.estimate - float(self.expected))

    @property
    def rel_error(self) -> float:
        return self.abs_error / max(1.0, abs(float(self.expected)))


@lru_cache(maxsize=None)
def gauss_legendre(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Abscissae and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Roots of the Legendre polynomial are found by Newton iteration from
    the Chebyshev-angle initial guesses, polished to 1e-15; weights are
    2 / ((1 - x^2) P_n'(x)^2).  Computed once per node count and cached
    as immutable tuples, so there is no table to ship and nothing to
    synchronize.
    """
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    xs = [0.0] * nodes
    ws = [0.0] * nodes
    for i in range(1, nodes // 2 + nodes % 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (nodes + 0.5))
        for _ in range(100):
            p, dp = _legendre_value_and_derivative(nodes, x)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        xs[i - 1] = -x
        ws[i - 1] = w
        xs[nodes - i] = x
        ws[nodes - i] = w
    return tuple(xs), tuple(ws)


def _legendre_value_and_derivative(n: int, x: float) -> tuple[float, float]:
    """(P_n(x), P_n'(x)) by the three-term recurrence; assumes |x| < 1."""
    p_prev, p = 1.0, x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


# A workload uses three rules; the largest rule (MAX_PANELS x MAX_NODES in
# the CLI) holds 4 MB.
@lru_cache(maxsize=8)
def _panel_rule(panels: int, nodes: int) -> tuple[array, array]:
    """Nodes u_j in (0, 1), ascending, and weights of the composite rule:
    `panels` equal panels of the `nodes`-point Gauss-Legendre rule.

    The rule is symmetric about 1/2, so node N-1-j is 1 - u_j up to
    rounding and carries the same weight.
    """
    if panels < 1:
        raise ValueError(f"need at least one panel, got {panels}")
    xs, ws = gauss_legendre(nodes)
    half = 0.5 / panels
    mids = [(2 * p + 1) * half for p in range(panels)]
    offsets = [half * x for x in xs]
    us = array("d", (mid + dx for mid in mids for dx in offsets))
    return us, array("d", [half * w for w in ws]) * panels


# Bounded to one workload's working set: every order verify_integral
# accepts, on three rules.  A vector of the largest rule holds 2 MB.
@lru_cache(maxsize=3 * (MAX_IDENTITY_SUM + 1))
def _form_at_nodes(n: int, panels: int, nodes: int) -> array:
    """L_n(u_j, 1 - u_j) at every node u_j of _panel_rule(panels, nodes).

    Write Li_{-n}(-t) = sum_{i>=1} a_i t^i / (1+t)^(n+1).  With u = t/(1+t)
    and v = 1 - u = 1/(1+t), each term is a_i u^i v^(n+1-i), so
    Li_{-n}(-t) = u * L_n(u, v) for the form L_n(u, v) =
    sum_{i>=1} a_i u^(i-1) v^(n+1-i) of degree n.  Replacing t by 1/t
    swaps u and v, so Li_{-m}(-1/t) = v * L_m(v, u), and since
    u*v/t = v^2 the identity integrand is L_n(u, v) * L_m(v, u) * v^2.
    That v^2 cancels against dt = du/(1-u)^2 = du/v^2.  Each node runs
    Horner in whichever of u/v and v/u is at most 1 (u/v on a tie) and
    scales by the n-th power of the larger, so no intermediate overflows
    at any node.
    """
    coeffs = polylog_neg_rf(n).numerator.coeffs[1:]
    coeffs = tuple(map(float, coeffs)) + (0.0,) * (n + 1 - len(coeffs))
    # Horner in r = u/v runs from a_(n+1) down to a_1; in r = v/u, up.
    down = coeffs[::-1]
    us, _ = _panel_rule(panels, nodes)
    # Straight into the array: a list of the largest rule's 262144 float
    # objects would add about 10 MB to the peak of its request.
    values = array("d")
    for u in us:
        v = 1.0 - u
        if u > v:
            cs, r, y = coeffs, v / u, u
        else:
            cs, r, y = down, u / v, v
        acc = 0.0
        for c in cs:
            acc = acc * r + c
        values.append(acc * y**n)
    return values


def expected_integral_value(m: int, n: int) -> Fraction:
    """Exact value of the half-line integral for orders (m, n).

    (-1)^(m+n) B_(m+n), the Bernoulli number under the B_1 = +1/2
    convention: B_(m+n) for m+n >= 2, and +1/2, not B_1, at m+n = 1,
    where the integral and the split sum part ways.
    """
    if m < 0 or n < 0:
        raise ValueError(f"orders must be non-negative, got ({m}, {n})")
    return (-1) ** (m + n) * bernoulli_recurrence(m + n)


def verify_integral(
    m: int, n: int, panels: int = DEFAULT_PANELS, nodes: int = DEFAULT_NODES
) -> QuadratureReport:
    """Quadrature of the identity integrand for (m, n) against its exact value."""
    if m < 0 or n < 0:
        raise ValueError(f"orders must be non-negative, got ({m}, {n})")
    if m + n > MAX_IDENTITY_SUM:
        raise ValueError(
            f"verify_integral is scoped to m + n <= {MAX_IDENTITY_SUM}, got {m + n}"
        )
    # The integrand times dt is L_n(u, 1-u) * L_m(1-u, u) du, and
    # L_m(1-u_j, u_j) is L_m at the mirrored node u_(N-1-j) = 1 - u_j.
    _, ws = _panel_rule(panels, nodes)
    right, left = _form_at_nodes(n, panels, nodes), _form_at_nodes(m, panels, nodes)
    # (w * a) * b at every node, fed to fsum without a list of terms.
    estimate = math.fsum(map(mul, map(mul, ws, right), reversed(left)))
    return QuadratureReport(m, n, estimate, expected_integral_value(m, n), panels, nodes)


def beta_quadrature_check(
    k: int, l: int, panels: int = DEFAULT_PANELS, nodes: int = DEFAULT_NODES
) -> QuadratureReport:
    """Quadrature of integral_0^inf t^k / (1+t)^(k+l+2) dt against
    beta_integer(k+1, l+1)."""
    if k < 0 or l < 0:
        raise ValueError(f"exponents must be non-negative, got ({k}, {l})")
    if k + l > MAX_BETA_SUM:
        raise ValueError(
            f"beta_quadrature_check is scoped to k + l <= {MAX_BETA_SUM}, got {k + l}"
        )
    # t^k / (1+t)^(k+l+2) dt = u^k (1-u)^l du
    us, ws = _panel_rule(panels, nodes)
    estimate = math.fsum(w * u**k * (1.0 - u) ** l for u, w in zip(us, ws))
    return QuadratureReport(k, l, estimate, beta_integer(k + 1, l + 1), panels, nodes)
