"""Exact arithmetic helpers: binomials with a zero convention and Beta
values at integer arguments.

Everything here is arbitrary precision and nothing ever rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["binomial", "beta_integer"]


def binomial(n: int, k: int) -> int:
    """Exact C(n, k), defined as 0 outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def beta_integer(a: int, b: int) -> Fraction:
    """Beta(a, b) = (a-1)! (b-1)! / (a+b-1)! for integers a, b >= 1.

    This is the exact value of the half-line integral of
    t^(a-1) / (1+t)^(a+b); it is symmetric in its arguments.
    """
    if a < 1 or b < 1:
        raise ValueError(f"beta_integer requires positive integer arguments, got ({a}, {b})")
    return Fraction(
        math.factorial(a - 1) * math.factorial(b - 1),
        math.factorial(a + b - 1),
    )
