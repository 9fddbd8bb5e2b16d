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
from math import factorial, lcm

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
    """(k!)^2 and lcm(1, ..., k) for 0 <= k <= max_k, in two lists indexed
    by k, for the two Stirling-sum strategies and nothing else.

    Each new index costs one big-by-small multiply and one math.lcm.
    As in BernoulliTable, extension happens under a lock and only
    appends, so a stored entry never changes and a caller that has
    extended to k may read entries up to k from any thread.
    """

    def __init__(self):
        self.squares = [1]
        self.lcms = [1]  # lcm of the empty range
        self._lock = threading.Lock()

    @property
    def max_k(self) -> int:
        return len(self.lcms) - 1

    def extend_to(self, k: int) -> None:
        with self._lock:
            for i in range(len(self.lcms), k + 1):
                self.squares.append(self.squares[-1] * (i * i))
                self.lcms.append(lcm(self.lcms[-1], i))


_FACTORIALS = _FactorialMemo()


def bernoulli_recurrence(n: int) -> Fraction:
    """Exact B_n from the shared zigzag table."""
    return _SHARED_TABLE.value(n)


def bernoulli_stirling_sum(n: int) -> Fraction:
    """Exact B_n as the single alternating Stirling sum

        B_n = sum_{k=0}^{n} (-1)^k k! S(n, k) / (k + 1).

    The terms sit over the common denominator L = lcm(1, ..., n+1), so
    with x_k = (-1)^k S(n, k) * (L / (k+1)) the numerator is
    sum_k k! x_k.  It is folded by Horner in k, two indices per step,

        h = (h * k + x_k * k + x_(k-1)) * (k-1)    for k = n, n-2, ..., 2,

    then the lone k = 1 term when n is odd, then k = 0, so no k! is
    carried.  k and k+1 are coprime, so k(k+1) divides L, and
    x_k * k + x_(k-1) = (-1)^k (S(n,k) k^2 - S(n,k-1) (k+1)) * L/(k(k+1)):
    each pair costs one multiply by L/(k(k+1)) and big-by-small ones.
    One Fraction is built at the end.  L comes from a memo of
    lcm(1, ..., k) grown once per process, shared with bernoulli_split's
    squares.
    """
    if n < 0:
        raise ValueError(f"Bernoulli index must be non-negative, got {n}")
    memo = _FACTORIALS
    memo.extend_to(n + 1)
    den = memo.lcms[n + 1]
    row = stirling2_row(n)
    h = 0
    for k in range(n, 1, -2):
        y = (row[k] * (k * k) - row[k - 1] * (k + 1)) * (den // (k * (k + 1)))
        h = (h * k - y if k & 1 else h * k + y) * (k - 1)
    if n & 1:
        h -= row[1] * (den // 2)
    return Fraction(h + row[0] * den, den)


def bernoulli_split(m: int, n: int) -> Fraction:
    """Exact B_(m+n) as the double sum

        sum_{k<=n} sum_{l<=m} (-1)^(k+l) k! l! S(n,k) S(m,l)
                              / ((k+l+1) * C(k+l, l)).

    The double sum is symmetric under swapping m and n, so m > n is
    swapped first and the inner sum runs over the shorter row.  When n
    is even the row gets S(n, n+1) = 0 appended, so it ends at an odd
    index N and splits into pairs (k, k+1) with k even.  Each term's
    denominator is evaluated in the equivalent factorial form
    k! l! / (k+l+1)!, so the sum sits over (m+N+1)! -- (m+n+1)! or
    (m+n+2)! by the parity of the longer row -- and accumulates in pure
    integer arithmetic; one Fraction is built at the end.  With
    b_l = (-1)^l (l!)^2 S(m,l) the numerator is

        acc = sum_k (-1)^k (k!)^2 S(n,k) * sum_l b_l * (m+N+1)!/(k+l+1)!,

    and (m+N+1)!/(k+l+1)! is the product of i over k+l+2 <= i <= m+N+1.
    Splitting that product at k+m+1 nests two Horner schemes whose
    multipliers are the factors i themselves, all at most m+N+1.  One
    pass over b gives T_k and T_(k+1), by t0 = t0*i + b_l and
    t1 = t1*(i+1) + b_l for i = k+1, ..., k+m+1, and the outer Horner
    folds a pair per step, with ((k+1)!)^2 = (k!)^2 (k+1)^2:

        acc = acc * (k+m+1)(k+m+2)
              + (k!)^2 (S(n,k) T_k (k+m+2) - (k+1)^2 S(n,k+1) T_(k+1)).

    So each (k, l) step multiplies a big integer by a small one, and
    each pair costs one (k!)^2 multiply; the row entries are not each
    scaled by (k!)^2.  The squares come from a memo shared with
    bernoulli_stirling_sum, grown to the longer row, and (m+N+1)! from
    math.factorial.
    """
    if m < 0 or n < 0:
        raise ValueError(f"split indices must be non-negative, got ({m}, {n})")
    if m > n:
        m, n = n, m
    memo = _FACTORIALS
    memo.extend_to(n)
    squares = memo.squares
    row = stirling2_row(n)
    if not n & 1:
        row = [*row, 0]  # S(n, n+1), so the row splits into pairs
    b = [-q * s if l & 1 else q * s for l, (q, s) in enumerate(zip(squares, stirling2_row(m)))]
    acc = 0
    for k in range(0, len(row), 2):
        t0 = t1 = 0
        for i, bl in zip(range(k + 1, k + m + 2), b):
            t0 = t0 * i + bl
            t1 = t1 * (i + 1) + bl
        pair = row[k] * (t0 * (k + m + 2)) - row[k + 1] * (t1 * ((k + 1) * (k + 1)))
        acc = acc * ((k + m + 1) * (k + m + 2)) + squares[k] * pair
    return Fraction(acc, factorial(m + len(row)))


def zeta_nonpositive(s: int) -> Fraction:
    """Exact zeta(s) for integer s <= 0.

    zeta(s) = -B+_N / N with N = 1 - s and B+_N = (-1)^N B_N: -1/2 at
    s = 0, and 0 at every even negative argument (the trivial zeros).
    """
    if s > 0:
        raise ValueError(f"zeta_nonpositive requires s <= 0, got {s}")
    n = 1 - s
    return -(-1) ** n * bernoulli_recurrence(n) / n
