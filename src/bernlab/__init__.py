"""bernlab: exact Bernoulli and Stirling arithmetic with cross-verified
evaluation strategies.

The package computes Bernoulli numbers (B_1 = -1/2 convention) three
independent ways -- a table of zigzag numbers from the Seidel triangle,
a single alternating Stirling sum, and a two-index split sum -- and
verifies the split sum against a half-line integral identity evaluated
by composite Gauss-Legendre quadrature.  Supporting casts: Stirling
numbers of the second kind, Bell numbers, negative-order polylogarithms
as exact rational functions, integer-argument Beta values, and zeta at
non-positive integers.  Everything symbolic is arbitrary-precision
rational arithmetic; floats appear only inside the quadrature.
"""

from .bernoulli import (
    BernoulliTable,
    bernoulli_recurrence,
    bernoulli_split,
    bernoulli_stirling_sum,
    zeta_nonpositive,
)
from .combinatorics import (
    BRUTE_FORCE_MAX_N,
    StirlingTriangle,
    bell,
    stirling2,
    stirling2_bruteforce,
    stirling2_row,
)
from .exact_arith import beta_integer, binomial
from .polylog import (
    Polynomial,
    RationalFunction,
    polylog_neg_rf,
    polylog_oracle,
    polylog_stirling_form,
    rf_compose_reciprocal,
    rf_eval_exact,
)
from .quadrature import (
    MAX_BETA_SUM,
    MAX_IDENTITY_SUM,
    QuadratureReport,
    beta_quadrature_check,
    expected_integral_value,
    gauss_legendre,
    integrand,
    integrate_halfline,
    verify_integral,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_MAX_N",
    "BernoulliTable",
    "MAX_BETA_SUM",
    "MAX_IDENTITY_SUM",
    "Polynomial",
    "QuadratureReport",
    "RationalFunction",
    "StirlingTriangle",
    "bell",
    "bernoulli_recurrence",
    "bernoulli_split",
    "bernoulli_stirling_sum",
    "beta_integer",
    "beta_quadrature_check",
    "binomial",
    "expected_integral_value",
    "gauss_legendre",
    "integrand",
    "integrate_halfline",
    "polylog_neg_rf",
    "polylog_oracle",
    "polylog_stirling_form",
    "rf_compose_reciprocal",
    "rf_eval_exact",
    "stirling2",
    "stirling2_bruteforce",
    "stirling2_row",
    "verify_integral",
    "zeta_nonpositive",
]
