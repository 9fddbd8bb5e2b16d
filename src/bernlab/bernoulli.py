"""Bernoulli numbers by three exact strategies, plus zeta values at
non-positive integers.

Convention: the generating function t/(e^t - 1) fixes B_1 = -1/2.  The
"+1/2" convention of t/(1 - e^-t), B+_n = (-1)^n B_n, is read in two
places: zeta_nonpositive (zeta(1 - N) = -B+_N / N) and
quadrature.expected_integral_value (the half-line integral is B+_(m+n)).

The table, grown from the zigzag numbers of the Seidel triangle, is the
designated ground truth (the CLI calls this route `recurrence`); the two
Stirling-sum strategies are the ones under test and must agree with it
everywhere.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import accumulate
from math import gcd

from .combinatorics import stirling2_row

__all__ = [
    "BernoulliTable",
    "bernoulli_recurrence",
    "bernoulli_stirling_sum",
    "bernoulli_split",
    "zeta_nonpositive",
]


class BernoulliTable:
    """Memoized B_0..B_max from the zigzag numbers A_j, read off the
    Seidel (boustrophedon) triangle.

    sec t + tan t = sum A_j t^j / j!, and the odd-index A_j are the
    tangent numbers, so for even m >= 2

        B_m = (-1)^(m/2 - 1) * m * A_(m-1) / (4^(m/2) * (4^(m/2) - 1)),

    while every odd B_m with m >= 3 is 0: t/(e^t - 1) + t/2 is even.
    B_0 = 1 and B_1 = -1/2 are seeded, so a fresh table has max_n 1.

    The one piece of growth state is the last row of the triangle
    (Millar, Sloane & Young, "A new operation on sequences: the
    boustrophedon transform", JCTA 1996).
    Invariant: the held row has max_n entries and ends in A_(max_n - 1).
    A step m replaces it by [0, *accumulate(reversed(row))], which ends
    in A_(m-1), so each step costs m - 1 big-integer additions and
    builds at most one Fraction.  The route uses no Stirling number, so
    it shares nothing with the two Stirling-sum strategies it checks.

    Extension happens under a lock; entries, once stored, never change,
    so a shared instance may be read from any thread.
    """

    def __init__(self):
        self._values: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
        self._row = [1]  # A_0
        self._lock = threading.Lock()

    @property
    def max_n(self) -> int:
        return len(self._values) - 1

    def extend_to(self, n: int) -> None:
        with self._lock:
            for m in range(len(self._values), n + 1):
                self._row = row = [0, *accumulate(reversed(self._row))]
                if m & 1:
                    self._values.append(Fraction(0))
                    continue
                power = 1 << m  # 4^(m/2)
                value = Fraction(m * row[-1], power * (power - 1))
                self._values.append(value if m & 2 else -value)

    def value(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"Bernoulli index must be non-negative, got {n}")
        self.extend_to(n)
        return self._values[n]


_SHARED_TABLE = BernoulliTable()


class _FactorialMemo:
    """k!, (k!)^2 and lcm(1, ..., k) for 0 <= k <= max_k, in three lists
    indexed by k, for the two Stirling-sum strategies and nothing else.

    Growth to k costs one small multiply, one squaring and one gcd per
    new index.  As in BernoulliTable, extension happens under a lock and
    only appends, so a stored entry never changes and a caller that has
    extended to k may read entries up to k from any thread.
    """

    def __init__(self):
        self.factorials = [1]
        self.squares = [1]
        self.lcms = [1]  # lcm of the empty range
        self._lock = threading.Lock()

    @property
    def max_k(self) -> int:
        return len(self.lcms) - 1

    def extend_to(self, k: int) -> None:
        with self._lock:
            for i in range(len(self.lcms), k + 1):
                f = self.factorials[-1] * i
                self.factorials.append(f)
                self.squares.append(f * f)
                l = self.lcms[-1]
                self.lcms.append(l * (i // gcd(l, i)))


_FACTORIALS = _FactorialMemo()


def bernoulli_recurrence(n: int) -> Fraction:
    """Exact B_n from the shared zigzag table."""
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
    multiply.  One Fraction is built at the end.  L comes from a memo of
    lcm(1, ..., k) grown once per process, shared with bernoulli_split's
    factorials.
    """
    if n < 0:
        raise ValueError(f"Bernoulli index must be non-negative, got {n}")
    memo = _FACTORIALS
    memo.extend_to(n + 1)
    den = memo.lcms[n + 1]
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

    The squares (k!)^2 and (m+n+1)! come from a memo grown once per
    process, shared with bernoulli_stirling_sum's lcm.
    """
    if m < 0 or n < 0:
        raise ValueError(f"split indices must be non-negative, got ({m}, {n})")
    if m > n:
        m, n = n, m
    memo = _FACTORIALS
    memo.extend_to(m + n + 1)
    squares = memo.squares
    a = [-q * s if k & 1 else q * s for k, (q, s) in enumerate(zip(squares, stirling2_row(n)))]
    b = [-q * s if l & 1 else q * s for l, (q, s) in enumerate(zip(squares, stirling2_row(m)))]
    acc = 0
    for k, ak in enumerate(a):
        acc *= k + m + 1
        if ak:
            t = 0
            for i, bl in zip(range(k + 1, k + m + 2), b):
                t = t * i + bl
            acc += ak * t
    return Fraction(acc, memo.factorials[m + n + 1])


def zeta_nonpositive(s: int) -> Fraction:
    """Exact zeta(s) for integer s <= 0.

    zeta(s) = -B+_N / N with N = 1 - s and B+_N = (-1)^N B_N: -1/2 at
    s = 0, and 0 at every even negative argument (the trivial zeros).
    """
    if s > 0:
        raise ValueError(f"zeta_nonpositive requires s <= 0, got {s}")
    n = 1 - s
    return -(-1) ** n * bernoulli_recurrence(n) / n
