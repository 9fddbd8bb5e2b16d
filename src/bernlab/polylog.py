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
* ``polylog_oracle(n)`` -- Li_{-n}(x) in the variable x, built only from
  the derivative recurrence.  It shares no code path with the Stirling
  sum and serves as the independent cross-check.

``polylog_neg_rf(n)`` is the "true" Li_{-n}(-t) for every n >= 0: the
Stirling form for n >= 1, and -t/(1+t) at n = 0.

Every function is built directly in lowest terms with integer
coefficients.  Li_{-n}(-t) has denominator (1+t)^(n+1) (the oracle has
(1-x)^(n+1)), and its numerator does not vanish at the root: for n >= 1
its value at t = -1 is n!.  So no polynomial GCD is ever taken, and the
fixed denominator makes equality plain coefficient comparison.

``rf_eval_exact(f, t)`` evaluates in integers: with t = p/q in lowest
terms, both parts of f, padded to one length, become homogeneous forms
in (p, q).  ``_form_pair_at`` computes the two forms together, by one
Horner pass up to ``_LEAF`` coefficients and by binary splitting above,
and the result is the one Fraction of the two values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
# pass; longer ones are halved.  At 32, orders up to 30 never split.
_LEAF = 32


def _form_pair_at(num: Sequence, den: Sequence, p: int, q: int) -> tuple:
    """The homogeneous forms sum_i c_i p^i q^(L-1-i) of two coefficient
    runs num and den of one length L.

    Up to _LEAF coefficients both forms come from one Horner pass in p
    with a running power of q.  A longer pair is split after its low
    halves, of length m, and F = F_lo * q^(L-m) + F_hi * p^m recombines
    both forms, so the big multiplies stay balanced.
    """
    size = len(num)
    if size > _LEAF:
        mid = size // 2
        num_lo, den_lo = _form_pair_at(num[:mid], den[:mid], p, q)
        num_hi, den_hi = _form_pair_at(num[mid:], den[mid:], p, q)
        p_lo, q_hi = p**mid, q ** (size - mid)
        return num_lo * q_hi + num_hi * p_lo, den_lo * q_hi + den_hi * p_lo
    a = b = 0
    scale = 1
    for c, e in zip(reversed(num), reversed(den)):
        a = a * p + c * scale
        b = b * p + e * scale
        scale *= q
    return a, b


def rf_eval_exact(f: RationalFunction, t) -> Fraction:
    """f(t) as a reduced Fraction; a pole raises ZeroDivisionError.

    With t = p/q in lowest terms and d the larger degree of the two
    parts, q^d * f(t) = N_h / D_h, where each part, padded with zeros to
    degree d, becomes the homogeneous form sum_i c_i p^i q^(d-i).  Both
    forms come from one _form_pair_at call, so the only Fraction built
    (and the only gcd taken) is the result.
    """
    if not isinstance(t, Fraction):
        t = Fraction(t)
    num, den = f.numerator.coeffs, f.denominator.coeffs
    size = max(len(num), len(den))
    num_h, den_h = _form_pair_at(
        num + (0,) * (size - len(num)), den + (0,) * (size - len(den)), t.numerator, t.denominator
    )
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


@lru_cache(maxsize=None)
def polylog_neg_rf(n: int) -> RationalFunction:
    """The true Li_{-n}(-t) as a rational function of t in lowest terms, n >= 0."""
    if n == 0:
        # geometric series x/(1-x) at x = -t
        return RationalFunction(Polynomial([0, -1]), _one_plus_t_power(1))
    return polylog_stirling_form(n)


# The order polylog_oracle built last and its function: the loop starts
# from there whenever it can, so orders asked for one at a time cost one
# step of the recurrence each.  Any start gives the same result; the
# pair is read once per call, so a concurrent caller only moves it.
_ORACLE_BASE = (0, RationalFunction(Polynomial([0, 1]), Polynomial([1, -1])))
_oracle_front = _ORACLE_BASE


def polylog_oracle(n: int) -> RationalFunction:
    """Li_{-n}(x) in the variable x, from the derivative recurrence

        Li_0(x) = x/(1-x),   Li_{-n}(x) = x * d/dx Li_{-(n-1)}(x).

    With Li_{-(n-1)} = P/(1-x)^n the quotient rule gives
    Li_{-n} = x*[(1-x)*P' + n*P] / (1-x)^(n+1), so the recurrence runs
    on numerators alone and each step multiplies the denominator by
    (1-x).  It runs as a loop from the order built last (or from
    order 0), so no order is too deep for the interpreter's stack.
    Shares no code with the Stirling-sum construction; comparing the
    two (after substituting x = -t) is the module's central cross-check.
    """
    global _oracle_front
    if n < 0:
        raise ValueError(f"polylog order must be non-negative, got {n}")
    front = _oracle_front
    k, f = front if front[0] <= n else _ORACLE_BASE
    p, q = list(f.numerator.coeffs), list(f.denominator.coeffs)
    for j in range(k + 1, n + 1):
        p.append(0)
        q.append(0)
        # x^i collects i*p_i from x*P' and (j-i+1)*p_{i-1} from -x^2*P' + j*x*P;
        # the new denominator's x^i coefficient is q_i - q_{i-1}.
        p = [i * p[i] + (j - i + 1) * p[i - 1] if i else 0 for i in range(len(p))]
        q = [q[i] - q[i - 1] if i else q[0] for i in range(len(q))]
    f = RationalFunction(Polynomial(p), Polynomial(q))
    _oracle_front = (n, f)
    return f
