"""Negative-order polylogarithms as exact rational functions.

For integer n >= 0 the polylogarithm Li_{-n}(x) is rational in x: the
geometric series x/(1-x) at order 0, then x * d/dx applied n times.
This module keeps two deliberately separate constructions of
Li_{-n}(-t):

* ``polylog_stirling_form(n)`` -- the finite Stirling sum
  sum_{k=0}^{n} k! S(n,k) (-t)^k / (1+t)^(k+1), taken literally.  For
  n >= 1 it equals Li_{-n}(-t).  At n = 0 the sum collapses to 1/(1+t),
  which is NOT Li_0(-t) = -t/(1+t); the two differ by exactly the
  constant 1.  That mismatch is part of the contract and is pinned by
  tests rather than patched over here.
* ``polylog_oracle(n)`` -- Li_{-n}(x) in the variable x: its numerator
  comes from the derivative recurrence, and its fixed denominator
  (1-x)^(n+1) is written in closed form by a running binomial product.
  It shares no code path with the Stirling sum and serves as the
  independent cross-check.

``polylog_neg_rf(n)`` is the "true" Li_{-n}(-t) for every n >= 0: the
Stirling form for n >= 1, and -t/(1+t) at n = 0.

Every function is built directly in lowest terms with integer
coefficients.  Li_{-n}(-t) has denominator (1+t)^(n+1) (the oracle has
(1-x)^(n+1)), and its numerator does not vanish at the root: for n >= 1
its value at t = -1 is n!.  So no polynomial GCD is ever taken, and the
fixed denominator makes equality plain coefficient comparison.

``rf_eval_exact(f, t)`` evaluates in integers: with t = p/q in lowest
terms, each part of f becomes a homogeneous form in (p, q), times the
power of q that brings the shorter part to the longer one's length.  A
part that is (1+t)^e, as every polylog_neg_rf denominator is, has the
form (p+q)^e; any other part is summed by ``_form_at`` (one Horner pass
up to ``_LEAF`` coefficients, binary splitting above).  The result is
the one Fraction of the two values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from typing import Iterable, Sequence

from .combinatorics import stirling2_row

__all__ = [
    "Polynomial",
    "RationalFunction",
    "polylog_stirling_form",
    "polylog_neg_rf",
    "polylog_oracle",
    "rf_eval_exact",
    "rf_compose_reciprocal",
]


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with exact coefficients.

    Coefficients are stored in ascending order with no trailing zeros;
    the zero polynomial stores an empty tuple and reports degree -1.
    Instances are immutable.
    """

    coeffs: tuple

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @cached_property
    def _binomial_exponent(self) -> int | None:
        """e if the coefficients are those of (1+t)^e, else None; checked
        once per instance by the running product C(e, i+1) = C(e, i)(e-i)/(i+1)."""
        e, c = len(self.coeffs) - 1, 1
        for i, a in enumerate(self.coeffs):
            if a != c:
                return None
            c = c * (e - i) // (i + 1)
        return e if self.coeffs else None

    def negate_variable(self) -> "Polynomial":
        """p(-x) as a polynomial in x: flip the sign of odd coefficients."""
        return Polynomial(-c if i % 2 else c for i, c in enumerate(self.coeffs))

    def render(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                pw = var if i == 1 else f"{var}^{i}"
                body = pw if mag == 1 else f"{mag}*{pw}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


P_ONE = Polynomial([1])


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two Polynomials, held exactly as given.

    The constructor only rejects a zero denominator and stores zero as
    0/1; it does not reduce.  The builders below produce lowest terms
    with a fixed denominator per order, so coefficient-wise equality and
    hashing agree with equality of the functions they build.  Immutable.
    """

    numerator: Polynomial
    denominator: Polynomial

    def __init__(self, numerator: Polynomial, denominator: Polynomial = P_ONE):
        if denominator.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if numerator.is_zero():
            denominator = P_ONE
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def negate_variable(self) -> "RationalFunction":
        """f(-x): both parts with x replaced by -x."""
        return RationalFunction(self.numerator.negate_variable(), self.denominator.negate_variable())

    def render(self, var: str = "x") -> str:
        num = self.numerator.render(var)
        if self.denominator == P_ONE:
            return num
        return f"({num})/({self.denominator.render(var)})"


# Runs of at most this many coefficients are evaluated by one Horner
# pass; longer ones are halved.  At 32, orders up to 31 (n + 1 numerator
# coefficients) never split, so no benchmark workload leaves the leaf.
# The split stays for large orders at the --at cap (cli.MAX_AT_DIGITS),
# evaluated in process on Python 3.11.7, 2 vCPUs, numerator only:
# `polylog 1000 --at 999999999/77777777` takes 7-10 ms split against
# 70-80 ms as one Horner pass, and order 300 at a 33-digit t 3.4-5 ms
# against 11-21 ms.
_LEAF = 32


def _form_at(coeffs: Sequence, p: int, q: int) -> int:
    """The homogeneous form sum_i c_i p^i q^(L-1-i) of a coefficient run
    of length L.

    Up to _LEAF coefficients it is one Horner pass in p with a running
    power of q.  A longer run is split after its low half, of length m,
    and F = F_lo * q^(L-m) + F_hi * p^m recombines the form, so the big
    multiplies stay balanced.
    """
    size = len(coeffs)
    if size > _LEAF:
        mid = size // 2
        low, high = _form_at(coeffs[:mid], p, q), _form_at(coeffs[mid:], p, q)
        return low * q ** (size - mid) + high * p**mid
    form = 0
    scale = 1
    for c in reversed(coeffs):
        form = form * p + c * scale
        scale *= q
    return form


def _part_at(part: Polynomial, p: int, q: int, size: int) -> int:
    """q^(size-1) * part(p/q): the form of part, in closed form (p+q)^e
    when part is (1+t)^e, times q^(size-l) for its l coefficients."""
    e = part._binomial_exponent
    form = _form_at(part.coeffs, p, q) if e is None else (p + q) ** e
    return form * q ** (size - len(part.coeffs))


def rf_eval_exact(f: RationalFunction, t) -> Fraction:
    """f(t) as a reduced Fraction; a pole raises ZeroDivisionError.

    With t = p/q in lowest terms and L the longer part's length,
    q^(L-1) * f(t) = N_h / D_h.  A part of l coefficients contributes
    its homogeneous form sum_i c_i p^i q^(l-1-i), from _form_at, times
    q^(L-l).  A part that is (1+t)^e, as every polylog_neg_rf(n)
    denominator is with e = n + 1, has the closed form (p+q)^e in place
    of the sum.  The only Fraction built (and the only gcd taken) is the
    result.
    """
    if not isinstance(t, Fraction):
        t = Fraction(t)
    p, q = t.numerator, t.denominator
    size = max(len(f.numerator.coeffs), len(f.denominator.coeffs))
    num_h = _part_at(f.numerator, p, q, size)
    den_h = _part_at(f.denominator, p, q, size)
    if den_h == 0:
        raise ZeroDivisionError(f"pole of rational function at t = {t}")
    return Fraction(num_h, den_h)


def rf_compose_reciprocal(f: RationalFunction) -> RationalFunction:
    """g with g(t) = f(1/t), cleared back to polynomial form.

    Multiplying numerator and denominator by t^d (d the larger degree)
    turns the substitution into coefficient reversal.  At least one part
    keeps a nonzero constant term, so a function in lowest terms stays
    in lowest terms.
    """
    d = max(f.numerator.degree, f.denominator.degree)

    def reversed_padded(p: Polynomial) -> Polynomial:
        return Polynomial(reversed(p.coeffs + (0,) * (d + 1 - len(p.coeffs))))

    return RationalFunction(reversed_padded(f.numerator), reversed_padded(f.denominator))


def _one_plus_t_power(e: int) -> Polynomial:
    """(1+t)^e, expanded by the binomial theorem."""
    return Polynomial(comb(e, i) for i in range(e + 1))


def polylog_stirling_form(n: int) -> RationalFunction:
    """The literal finite sum sum_{k=0}^{n} k! S(n,k) (-t)^k / (1+t)^(k+1).

    Over the common denominator (1+t)^(n+1) the numerator is
    sum_k c_k t^k (1+t)^(n-k) with c_k = (-1)^k k! S(n,k), folded by
    Horner in (1+t) as P <- P*(1+t) + c_k t^k, so each step is one
    shift-and-add of the coefficient list.  Equals Li_{-n}(-t) for
    n >= 1; at n = 0 it is 1/(1+t), off by the constant 1 from the
    actual Li_0(-t).  Callers who need the genuine order-0 function want
    polylog_neg_rf.
    """
    if n < 0:
        raise ValueError(f"polylog order must be non-negative, got {n}")
    num: list[int] = []
    kfact = 1
    for k, s in enumerate(stirling2_row(n)):
        if k:
            kfact *= k
        # num*(1+t) + c_k t^k: coefficient i is num[i-1] + num[i], the top one num[k-1] + c_k
        num = [a + b for a, b in zip([0, *num], [*num, (-1) ** k * kfact * s])]
    return RationalFunction(Polynomial(num), _one_plus_t_power(n + 1))


# Bounded: an order-1000 function holds 1.1 MiB of coefficients, so 32
# orders stay under about 35 MiB at cli.MAX_SIZE.  A benchmark workload
# asks for at most 23 orders, so none of them is evicted.
@lru_cache(maxsize=32)
def polylog_neg_rf(n: int) -> RationalFunction:
    """The true Li_{-n}(-t) as a rational function of t in lowest terms, n >= 0."""
    if n == 0:
        # geometric series x/(1-x) at x = -t
        return RationalFunction(Polynomial([0, -1]), _one_plus_t_power(1))
    return polylog_stirling_form(n)


# The order polylog_oracle built last and its numerator: the loop starts
# from there whenever it can, so orders asked for one at a time cost one
# step of the recurrence each.  Any start gives the same result; the
# pair is read once per call, so a concurrent caller only moves it.
_ORACLE_BASE = (0, (0, 1))
_oracle_front = _ORACLE_BASE


def polylog_oracle(n: int) -> RationalFunction:
    """Li_{-n}(x) in the variable x, from the derivative recurrence

        Li_0(x) = x/(1-x),   Li_{-n}(x) = x * d/dx Li_{-(n-1)}(x).

    With Li_{-(n-1)} = P/(1-x)^n the quotient rule gives
    Li_{-n} = x*[(1-x)*P' + n*P] / (1-x)^(n+1), so the recurrence runs
    on numerators alone and the denominator (1-x)^(n+1) is written once
    at the end.  It runs as a loop from the order built last (or from
    order 0), so no order is too deep for the interpreter's stack.
    Shares no code with the Stirling-sum construction; comparing the
    two (after substituting x = -t) is the module's central cross-check.
    """
    global _oracle_front
    if n < 0:
        raise ValueError(f"polylog order must be non-negative, got {n}")
    front = _oracle_front
    k, p = front if front[0] <= n else _ORACLE_BASE
    p = list(p)
    for j in range(k + 1, n + 1):
        p.append(0)
        # x^i collects i*p_i from x*P' and (j-i+1)*p_{i-1} from -x^2*P' + j*x*P
        p = [i * p[i] + (j - i + 1) * p[i - 1] if i else 0 for i in range(len(p))]
    _oracle_front = (n, tuple(p))
    # (1-x)^(n+1): the x^(i+1) coefficient is -(n+1-i)/(i+1) times the x^i one
    q = [1]
    for i in range(n + 1):
        q.append(q[i] * (i - n - 1) // (i + 1))
    return RationalFunction(Polynomial(p), Polynomial(q))
