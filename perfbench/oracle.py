"""Reference values computed with ``fractions.Fraction`` and ``int`` alone.

Nothing here imports gossamer: every check the benchmark makes compares
the library's output with one of these independent computations.
Polynomials are coefficient lists indexed by degree; series are dicts
mapping a ``Fraction`` exponent of ``w`` to its coefficient.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Sequence

Coefficients = Sequence[Fraction]
Series = dict


def poly_at(coeffs: Coefficients, x) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def integral_0_1(coeffs: Coefficients) -> Fraction:
    """Integral of the polynomial over [0, 1]: sum of c_d / (d + 1)."""
    return sum((Fraction(c) / (d + 1) for d, c in enumerate(coeffs)), Fraction(0))


def riemann_bruteforce(coeffs: Coefficients, n: int) -> Fraction:
    """Right-endpoint sum of f(j/n) * (1/n) over j = 1..n, term by term."""
    return sum((poly_at(coeffs, Fraction(j, n)) for j in range(1, n + 1)), Fraction(0)) / n


def sum_bruteforce(coeffs: Coefficients, a: int, b: int) -> Fraction:
    """sum_{k=a}^{b} g(k) by direct accumulation, one power at a time in ints."""
    if a > b:
        return Fraction(0)
    total = Fraction(0)
    for d, c in enumerate(coeffs):
        if c:
            total += c * sum(k ** d for k in range(a, b + 1))
    return total


def parse_series(text: str) -> Series:
    """Read the library's rendering of a series, e.g. ``-1/2 + 3*w^-1/2 - w^2``."""
    text = text.strip()
    if text == "0":
        return {}
    out: Series = {}
    for token in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if token.startswith("-"):
            sign, token = -1, token[1:]
        if "*" in token:
            coeff_text, unit = token.split("*")
            coeff = Fraction(coeff_text)
        elif token.startswith("w"):
            coeff, unit = Fraction(1), token
        else:
            coeff, unit = Fraction(token), None
        if unit is None:
            exponent = Fraction(0)
        elif unit == "w":
            exponent = Fraction(1)
        elif unit.startswith("w^"):
            exponent = Fraction(unit[2:])
        else:
            raise ValueError(f"not a series term: {token!r}")
        if exponent in out:
            raise ValueError(f"repeated exponent in {text!r}")
        out[exponent] = sign * coeff
    return out


def series_from_terms(terms) -> Series:
    """A series from ``(exponent, coefficient)`` pairs, as a library value exposes them."""
    return {Fraction(e): Fraction(c) for e, c in terms if c}


def series_sub(a: Series, b: Series) -> Series:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) - c
    return {e: c for e, c in out.items() if c}


def standard_part(s: Series) -> Fraction:
    """Coefficient of w^0; a series with an infinite part has none."""
    if any(e > 0 for e in s):
        raise ValueError("series has an infinite part")
    return s.get(Fraction(0), Fraction(0))


def is_infinitesimal_or_zero(s: Series) -> bool:
    return all(e < 0 for e in s)


def series_at(s: Series, base: Fraction, power: int) -> Fraction:
    """The series with ``w`` replaced by ``base ** power``.

    ``power`` clears the denominators of fractional exponents, so
    ``w^1/2`` at ``w = 3**2`` reads 3.
    """
    total = Fraction(0)
    for e, c in s.items():
        scaled = e * power
        if scaled.denominator != 1:
            raise ValueError(f"exponent {e} does not clear at power {power}")
        total += c * Fraction(base) ** int(scaled)
    return total


def step_area(breakpoints: Sequence[Fraction], levels: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    """Exact area of a step function over [lo, hi]; level i holds on (q_{i-1}, q_i]."""
    edges = [lo] + [q for q in breakpoints if lo < q < hi] + [hi]
    total = Fraction(0)
    for x0, x1 in zip(edges, edges[1:]):
        mid = (x0 + x1) / 2
        total += levels[bisect_left(breakpoints, mid)] * (x1 - x0)
    return total
