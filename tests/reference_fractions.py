"""The closed-form counts in Fraction arithmetic, kept as oracles for the
tests.

Each function is the earlier package code: the zeta polynomial expanded
into Fraction coefficients and evaluated again, and every other closed
form reduced as a Fraction, where the package now takes one integer
quotient.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from ncpforge.errors import NonIntegralCount
from ncpforge.factorizations import _elementary_symmetric, stirling2


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegralCount(f"{what} is {value}")
    return value.numerator


def zeta_polynomial(degrees) -> tuple[Fraction, ...]:
    """Coefficients (low to high) of Z(X) = prod ((d_i - h) + h X) / d_i."""
    h = degrees[-1]
    coeffs = [Fraction(1)]
    for d in degrees:
        a, b = Fraction(d - h, d), Fraction(h, d)  # a + b X
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, ci in enumerate(coeffs):
            new[i] += ci * a
            new[i + 1] += ci * b
        coeffs = new
    return tuple(coeffs)


def eval_poly(coeffs, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fuss_catalan(degrees, k: int = 1) -> int:
    h = degrees[-1]
    value = Fraction(1)
    for d in degrees:
        value *= Fraction(d + k * h, d)
    return _integral(value, f"Fuss-Catalan number, k = {k}")


def fact_counts_zeta(degrees, pmax: int) -> dict[int, int]:
    coeffs = zeta_polynomial(degrees)
    values = [eval_poly(coeffs, k) for k in range(pmax + 1)]
    return {p: _integral(sum((-1) ** (p - k) * comb(p, k) * values[k]
                             for k in range(p + 1)), f"fact_{p}")
            for p in range(1, pmax + 1)}


def fact_count_stirling(degrees, order: int, blocks: int) -> int:
    n = len(degrees)
    h = degrees[-1]
    p = n - blocks
    sigma = _elementary_symmetric([h - d for d in degrees[:-1]])
    total = sum(
        (-1) ** (p - j) * sigma[p - j] * stirling2(n - p + j, n - p) * h ** j
        for j in range(p + 1))
    return _integral(Fraction(factorial(n - p) * h ** (n - p) * total, order),
                     f"Stirling form of fact_{blocks}")


def red_count_formula(group) -> int:
    n, h = group.n, group.h
    return _integral(Fraction(factorial(n) * h ** n, group.size),
                     "n! h^n / |W|")


def submax_total_formula(group) -> int:
    n, h = group.n, group.h
    value = Fraction(factorial(n - 1) * h ** (n - 1), group.size) * (
        Fraction((n - 1) * (n - 2) * h, 2) + sum(group.degrees[:-1]))
    return _integral(value, "|fact_(n-1)| closed form")
