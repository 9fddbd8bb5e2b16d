"""Independent reference routes and the per-operation correctness check.

Nothing here imports bernlab.  Bernoulli numbers come from
`mpmath.bernfrac` (B_1 = -1/2, like bernlab), Stirling numbers from the
explicit alternating sum, polylogarithms from the Eulerian-number
closed form, Beta values from factorials and Gauss-Legendre rules from
numpy.  CLI output is parsed
back from each of the three formats and compared with these routes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy

from worker import CHECK_POINTS
from workloads import BETA_TOL, VERIFY_TOL


@lru_cache(maxsize=None)
def bernoulli_ref(n: int) -> Fraction:
    num, den = mpmath.bernfrac(n)
    return Fraction(int(num), int(den))


@lru_cache(maxsize=None)
def stirling2_ref(n: int, k: int) -> int:
    """S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n / k!."""
    if k < 0 or k > n:
        return 0
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


@lru_cache(maxsize=None)
def _eulerian(n: int) -> tuple[int, ...]:
    """Coefficients of the Eulerian polynomial A_n, by the explicit sum."""
    return tuple(
        sum((-1) ** j * math.comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))
        for k in range(n)
    )


def polylog_ref(n: int, t: Fraction) -> Fraction:
    """Li_{-n}(-t): x/(1-x) at n = 0, else x A_n(x) / (1-x)^(n+1), x = -t."""
    x = -Fraction(t)
    if n == 0:
        return x / (1 - x)
    return x * sum(c * x**k for k, c in enumerate(_eulerian(n))) / (1 - x) ** (n + 1)


def integral_ref(m: int, n: int) -> Fraction:
    """The half-line integral: 1 at order sum 0, 1/2 at 1, B_(m+n) beyond."""
    s = m + n
    return Fraction(1) if s == 0 else Fraction(1, 2) if s == 1 else bernoulli_ref(s)


def beta_ref(k: int, l: int) -> Fraction:
    return Fraction(math.factorial(k) * math.factorial(l), math.factorial(k + l + 1))


def _rule_ok(xs: list[float], ws: list[float]) -> bool:
    """Nodes and weights agree with numpy's Gauss-Legendre rule to 1e-12."""
    ref_x, ref_w = numpy.polynomial.legendre.leggauss(len(xs))
    pairs = sorted(zip(xs, ws))
    return bool(
        numpy.allclose([x for x, _ in pairs], ref_x, rtol=0, atol=1e-12)
        and numpy.allclose([w for _, w in pairs], ref_w, rtol=0, atol=1e-12)
    )


def quad_ok(estimate: float, exact: Fraction, tol: float) -> bool:
    return abs(estimate - float(exact)) / max(1.0, abs(float(exact))) <= tol


def parse_poly(text: str) -> list[Fraction]:
    """Coefficients, lowest first, of a polynomial rendered like '-t + 3/2*t^2'."""
    coeffs: dict[int, Fraction] = {}
    if text.strip() == "0":
        return []
    tokens = text.split(" ")
    terms = [("-" if tokens[0].startswith("-") else "+", tokens[0].lstrip("-"))]
    terms += list(zip(tokens[1::2], tokens[2::2]))
    for sign, body in terms:
        if "t" in body:
            mag, _, power = body.partition("t")
            mag = Fraction(mag.rstrip("*")) if mag else Fraction(1)
            power = int(power[1:]) if power else 1
        else:
            mag, power = Fraction(body), 0
        coeffs[power] = -mag if sign == "-" else mag
    return [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]


def _poly_value(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + Fraction(c)
    return acc


def _polylog_matches(n: int, num, den) -> bool:
    return all(_poly_value(num, t) / _poly_value(den, t) == polylog_ref(n, t) for t in CHECK_POINTS)


def _bench_hash(n: int) -> str:
    q = bernoulli_ref(n)
    return hashlib.blake2b(f"{q.numerator}/{q.denominator}".encode(), digest_size=8).hexdigest()


def _csv(stdout: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout)))


def _json_value(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def check_cli(spec: dict, result: dict) -> bool:
    """Exit code and parsed stdout of one CLI request against the references."""
    if result["exit"] != spec["exit"]:
        return False
    out = result["stdout"]
    if spec["exit"] == 2:
        return out == ""
    cmd, fmt = spec["cmd"], spec["fmt"]
    rows = _csv(out) if fmt == "csv" else None
    data = json.loads(out) if fmt == "json" else None
    lines = out.splitlines()
    if cmd == "bernoulli":
        want = bernoulli_ref(spec["n"])
        got = {"plain": lambda: Fraction(out.strip()), "csv": lambda: Fraction(rows[1][1]),
               "json": lambda: _json_value(data["value"])}[fmt]()
        return got == want
    if cmd == "stirling":
        want = stirling2_ref(spec["n"], spec["k"])
        got = {"plain": lambda: int(out), "csv": lambda: int(rows[1][2]), "json": lambda: int(data["value"])}[fmt]()
        return got == want
    if cmd == "table":
        want = [bernoulli_ref(n) for n in range(spec["max"] + 1)]
        if fmt == "plain":
            got = [Fraction(line.split(" = ")[1]) for line in lines]
        elif fmt == "csv":
            got = [Fraction(r[1]) for r in rows[1:]]
        else:
            got = [_json_value(v["value"]) for v in data["values"]]
        return got == want
    if cmd == "identity":
        want = bernoulli_ref(spec["m"] + spec["n"])
        if fmt == "plain":
            return Fraction(lines[0].split(" = ")[1]) == want and lines[1] == "MATCH"
        if fmt == "csv":
            return Fraction(rows[1][3]) == want == Fraction(rows[1][4]) and rows[1][5] == "true"
        return _json_value(data["split"]) == want == _json_value(data["recurrence"]) and data["match"] is True
    if cmd == "polylog":
        n, at = spec["n"], spec.get("at")
        if fmt == "plain":
            rendered = lines[0].split(" = ", 1)[1]
            num, _, den = rendered.partition(")/(")
            num, den = (num[1:], den[:-1]) if den else (num, "1")
            ok = _polylog_matches(n, parse_poly(num), parse_poly(den))
            value = Fraction(lines[1].rsplit(": ", 1)[1]) if at else None
        elif fmt == "csv":
            row = rows[1]
            ok = _polylog_matches(n, parse_poly(row[1]), parse_poly(row[2]))
            value = Fraction(row[4]) if at else None
        else:
            ok = _polylog_matches(n, data["numerator"], data["denominator"])
            value = _json_value(data["value"]) if at else None
        return ok and (at is None or value == polylog_ref(n, Fraction(at)))
    if cmd in ("verify-integral", "beta-check"):
        exact = integral_ref(spec["m"], spec["n"]) if cmd == "verify-integral" else beta_ref(spec["k"], spec["l"])
        if fmt == "plain":
            estimate, status = float(lines[1].split("= ")[1]), lines[-1]
        elif fmt == "csv":
            estimate, status = float(rows[1][2]), rows[1][8]
        else:
            estimate, status = data["estimate"], data["status"]
        return status == "PASS" and quad_ok(estimate, exact, spec["tol"])
    if cmd == "oeis-check":
        count = spec["max"] + 1
        if fmt == "plain":
            return lines == [f"n={n} PASS" for n in range(count)] + [f"{count}/{count} PASS"]
        if fmt == "csv":
            return len(rows) == count + 1 and all(
                r[4] == "PASS" and Fraction(r[1]) == bernoulli_ref(int(r[0])) for r in rows[1:]
            )
        return data["all_pass"] is True and [
            (r["n"], _json_value(r["file_value"])) for r in data["rows"]
        ] == [(n, bernoulli_ref(n)) for n in range(count)]
    if cmd == "bench":
        want = [(n, _bench_hash(n)) for n in range(spec["max"] + 1) for _ in range(n + 3)]
        if fmt == "plain":
            got = [(int(line.split()[1]), line.split()[-1]) for line in lines[1:]]
        elif fmt == "csv":
            got = [(int(r[1]), r[4]) for r in rows[1:]]
        else:
            got = [(r["n"], r["result_hash"]) for r in data["rows"]]
        return got == want
    return False


def check(op: list, result) -> tuple[bool, float | None]:
    """(correct, quadrature rel_error or None) for one operation's digest."""
    if isinstance(result, dict) and "error" in result:
        return False, None
    kind = op[0]
    if kind == "recurrence" or kind == "stirling_sum":
        return Fraction(result) == bernoulli_ref(op[1]), None
    if kind == "split":
        return Fraction(result) == bernoulli_ref(op[1] + op[2]), None
    if kind in ("neg_rf", "oracle"):
        return [Fraction(v) for v in result] == [polylog_ref(op[1], t) for t in CHECK_POINTS], None
    if kind == "compose":
        return [Fraction(v) for v in result] == [polylog_ref(op[1], 1 / t) for t in CHECK_POINTS], None
    if kind == "eval":
        return Fraction(result) == polylog_ref(op[1], Fraction(op[2], op[3])), None
    if kind == "rule":
        xs, ws = result
        return len(xs) == op[1] and _rule_ok(xs, ws), None
    if kind in ("verify", "beta"):
        exact, tol = (integral_ref(op[1], op[2]), VERIFY_TOL) if kind == "verify" else (beta_ref(op[1], op[2]), BETA_TOL)
        ok = (
            Fraction(result["expected"]) == exact
            and result["rel_error"] <= tol
            and quad_ok(result["estimate"], exact, tol)
        )
        return ok, result["rel_error"]
    if kind == "cli":
        try:
            return check_cli(op[2], result), None
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError):
            return False, None  # output that does not parse is wrong output
    return False, None
