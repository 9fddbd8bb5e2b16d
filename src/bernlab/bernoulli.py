"""Bernoulli numbers by three exact strategies, plus zeta values at
non-positive integers.

Convention: the generating function t/(e^t - 1) fixes B_1 = -1/2.  (The
"+1/2" convention belongs to t/(1 - e^-t) and is not used anywhere in
this package.)

The recurrence is the designated ground truth; the two Stirling-sum
strategies are the ones under test and must agree with it everywhere.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import lcm
from operator import add

from .combinatorics import stirling2_row

__all__ = [
    "BernoulliTable",
    "bernoulli_recurrence",
    "bernoulli_stirling_sum",
    "bernoulli_split",
    "zeta_nonpositive",
]


class BernoulliTable:
    """Memoized B_0..B_max from the recurrence

        B_0 = 1,   B_m = -(1/(m+1)) * sum_{j<m} C(m+1, j) B_j,

    which is what multiplying t/(e^t - 1) = sum B_j t^j / j! through by
    (e^t - 1) forces.

    Only m = 1 and even m are summed.  At odd m >= 3 the step stores 0
    without summing: t/(e^t - 1) + t/2 = (t/2) coth(t/2) is an even
    function, so every odd coefficient past t^1 vanishes.  The Pascal
    row still advances at those steps.

    The sum runs in integers.  Invariant: D is the lcm of the
    denominators of B_0..B_max, and every non-zero B_j is held as the
    int pair (j, B_j * D); the zero B_j (odd j >= 3) are not held.  A
    step therefore sums C(m+1, j) * (B_j * D), reading C(m+1, j) from a
    held Pascal row that advances by additions, and builds the one
    Fraction -sum / (D * (m+1)).  When B_m brings a new prime into D,
    the held numerators are multiplied by the small factor D_new / D.

    Extension happens under a lock; entries, once stored, never change,
    so a shared instance may be read from any thread.
    """

    def __init__(self, max_n: int = 0):
        self._values: list[Fraction] = [Fraction(1)]
        self._den = 1
        self._scaled: list[tuple[int, int]] = [(0, 1)]
        self._binom = [1, 2, 1]  # C(max_n + 2, j)
        self._lock = threading.Lock()
        if max_n > 0:
            self.extend_to(max_n)

    @property
    def max_n(self) -> int:
        return len(self._values) - 1

    def extend_to(self, n: int) -> None:
        with self._lock:
            while len(self._values) <= n:
                m = len(self._values)
                binom = self._binom
                self._binom = [1, *map(add, binom, binom[1:]), 1]
                if m > 1 and m & 1:
                    self._values.append(Fraction(0))
                    continue
                acc = sum(binom[j] * num for j, num in self._scaled)
                value = Fraction(-acc, self._den * (m + 1))
                self._values.append(value)
                if value:
                    den = lcm(self._den, value.denominator)
                    factor = den // self._den
                    if factor > 1:
                        self._scaled = [(j, num * factor) for j, num in self._scaled]
                        self._den = den
                    self._scaled.append((m, value.numerator * (den // value.denominator)))

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"Bernoulli index must be non-negative, got {n}")
        self.extend_to(n)
        return self._values[n]


_SHARED_TABLE = BernoulliTable()


def bernoulli_recurrence(n: int) -> Fraction:
    """Exact B_n from the shared recurrence table."""
    return _SHARED_TABLE.value(n)


def bernoulli_stirling_sum(n: int) -> Fraction:
    """Exact B_n as the single alternating Stirling sum

        B_n = sum_{k=0}^{n} (-1)^k k! S(n, k) / (k + 1).

    The terms sit over the common denominator L = lcm(1, ..., n+1), so
    with x_k = (-1)^k S(n, k) * (L / (k+1)) the numerator is
    sum_k k! x_k.  It is folded by Horner in k,

        h = (h + x_k) * k    for k = n, ..., 1,

    and the k = 0 term is added last, so no k! is carried: each step
    costs one multiply S(n, k) * (L / (k+1)) and one big-by-small
    multiply.  One Fraction is built at the end.
    """
    if n < 0:
        raise ValueError(f"Bernoulli index must be non-negative, got {n}")
    den = lcm(*range(1, n + 2))
    row = stirling2_row(n)
    h = 0
    for k in range(n, 0, -1):
        x = row[k] * (den // (k + 1))
        h = (h - x if k & 1 else h + x) * k
    return Fraction(h + row[0] * den, den)


def bernoulli_split(m: int, n: int) -> Fraction:
    """Exact B_(m+n) as the double sum

        sum_{k<=n} sum_{l<=m} (-1)^(k+l) k! l! S(n,k) S(m,l)
                              / ((k+l+1) * C(k+l, l)).

    Each term's denominator is evaluated in the equivalent factorial form
    k! l! / (k+l+1)!, so the sum sits over the common denominator
    (m+n+1)! and accumulates in pure integer arithmetic; one Fraction is
    built at the end.  With a_k = (-1)^k (k!)^2 S(n,k) and
    b_l = (-1)^l (l!)^2 S(m,l) the numerator is

        acc = sum_k a_k * sum_l b_l * (m+n+1)!/(k+l+1)!,

    and (m+n+1)!/(k+l+1)! is the product of i over k+l+2 <= i <= m+n+1.
    Splitting that product at k+m+1 nests two Horner schemes whose
    multipliers are the factors i themselves, all at most m+n+1:

        T_k = sum_l b_l * prod_{i=k+l+2}^{k+m+1} i,  by t = t*i + b_l
              for i = k+1, ..., k+m+1;
        acc = acc * (k+m+1) + a_k * T_k              for k = 0, ..., n.

    So each (k, l) step multiplies a big integer by a small one, and
    each k costs one big-by-big multiply, a_k * T_k.  The double sum is
    symmetric under swapping m and n, so m > n is swapped first: the
    inner Horner then runs over the shorter row and T_k stays small.
    """
    if m < 0 or n < 0:
        raise ValueError(f"split indices must be non-negative, got ({m}, {n})")
    if m > n:
        m, n = n, m
    fact = [1] * (m + n + 2)
    for i in range(1, m + n + 2):
        fact[i] = fact[i - 1] * i
    a = [(-1) ** k * fact[k] * fact[k] * s for k, s in enumerate(stirling2_row(n))]
    b = [(-1) ** l * fact[l] * fact[l] * s for l, s in enumerate(stirling2_row(m))]
    acc = 0
    for k, ak in enumerate(a):
        acc *= k + m + 1
        if ak:
            t = 0
            for i, bl in zip(range(k + 1, k + m + 2), b):
                t = t * i + bl
            acc += ak * t
    return Fraction(acc, fact[m + n + 1])


def zeta_nonpositive(s: int) -> Fraction:
    """Exact zeta(s) for integer s <= 0.

    zeta(0) = -1/2 is pinned directly; for s <= -1 the value is
    -B_N / N with N = 1 - s, which lands on 0 at every even negative
    argument (the trivial zeros).
    """
    if s > 0:
        raise ValueError(f"zeta_nonpositive requires s <= 0, got {s}")
    if s == 0:
        return Fraction(-1, 2)
    n = 1 - s
    return -bernoulli_recurrence(n) / n
