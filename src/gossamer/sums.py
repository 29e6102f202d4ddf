"""Summation at a point: closed forms for sums and the discrete analogue of the FTC.

A sum over a range factors through a single unary point function G, so
interval sums are differences of point values, with infinite endpoints
evaluating symbolically.  G is certified at construction, never by
summing the range: every ``ClosedFormSum`` checks that G telescopes to g
over integers, by a Taylor shift of G's numerators over their lcm; the
shift is the one ``polynomial`` uses to evaluate G at an infinite
endpoint w + k.  G itself is the power-sum fold sum_d c_d*S_d over the
cached ``faulhaber`` rows, added as integer numerators over one lcm; it is
the library's only fold over those rows.  ``prefix_sums_match``, G against
running totals at deg g + 2 points, is the CLI's independent oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple, Union

from .core import Gossamer, _common_numerators
from .polynomial import Polynomial, _taylor_shift
from .riemann import faulhaber
from .steps import StepFunction

__all__ = [
    "ClosedFormSum",
    "SumBridge",
    "SumFtcResult",
    "indefinite_sum",
    "lower_sum_at_point",
    "prefix_sums_match",
    "sum_at_point",
    "sum_ftc",
    "sum_interval_bruteforce",
    "sum_to_integral_bridge",
]

Endpoint = Union[int, Fraction, Gossamer]


@dataclass(frozen=True)
class ClosedFormSum:
    """A term g(k) together with its point function G(n) = sum_{k=1}^{n} g(k).

    Construction checks G(0) = 0 and G(n) - G(n-1) = g(n) in integers:
    G(n-1) comes from G's numerators by an integer Taylor shift by -1,
    and the difference is cross-multiplied against g.
    """

    term: Polynomial
    point_function: Polynomial

    def __post_init__(self):
        point = self.point_function.coefficients
        if point and point[0]:
            raise ValueError("point function must vanish at 0")
        common, numerators = _common_numerators(point)
        shifted = _taylor_shift(numerators, -1)  # G(n-1) over the same lcm
        term = self.term.coefficients
        if any(
            (n - s) * t.denominator != t.numerator * common
            for n, s, t in zip_longest(numerators, shifted, term, fillvalue=0)
        ):
            raise ValueError("point function does not telescope to the term")


def indefinite_sum(g: Polynomial) -> ClosedFormSum:
    """Closed form for sum_{k=1}^{n} g(k): the power-sum fold sum_d c_d*S_d, certified.

    S_d is the cached ``faulhaber(d)`` row, read once per nonzero c_d in
    ascending d.  The fold runs over integers: with c_d = a_d/b_d and S_d's
    numerators N_d over their lcm D_d, a_d*(L/(b_d*D_d))*N_d goes into the
    slots, L the lcm of every b_d*D_d, and each of G's coefficients becomes
    one ``Fraction`` over L.  The ``ClosedFormSum`` certificate still checks it.
    """
    rows = [(c, *_common_numerators(faulhaber(degree).coefficients))
            for degree, c in enumerate(g.coefficients) if c]
    common = math.lcm(*[c.denominator * d for c, d, _ in rows])
    slots = [0] * (len(g.coefficients) + 1)
    for c, d, numerators in rows:
        scale = c.numerator * (common // (c.denominator * d))
        for slot, n in enumerate(numerators):
            slots[slot] += scale * n
    return ClosedFormSum(g, Polynomial._make([Fraction(s, common) for s in slots]))


def sum_at_point(s: ClosedFormSum, a: Endpoint):
    """G(a); the argument may be infinite, in which case the value is symbolic.

    Negative integer arguments evaluate by plain polynomial evaluation
    but sit outside the counting interpretation of G.
    """
    return s.point_function.evaluate(a)


def lower_sum_at_point(s: ClosedFormSum, a: Endpoint):
    """The lower-decorated sum, defined as the negation of the point value."""
    return -sum_at_point(s, a)


def sum_interval_bruteforce(g: Polynomial, a: int, b: int) -> Fraction:
    """Direct accumulation of sum_{k=a}^{b} g(k), in O(b - a); a test oracle."""
    if a > b:
        raise ValueError(f"empty range: {a} > {b}")
    total = Fraction(0)
    for k in range(a, b + 1):
        total += g.evaluate(Fraction(k))
    return total


def prefix_sums_match(g: Polynomial, point: Polynomial) -> bool:
    """Whether point(n) = sum_{k=1}^{n} g(k) for every n, finite or infinite.

    Both sides are polynomials in n of degree at most deg g + 1, so
    agreeing at the deg g + 2 points n = 0..deg g + 1 (one running total)
    makes them the same polynomial.
    """
    top = g.degree + 1
    if point.degree > top:
        return False
    total = Fraction(0)
    for n in range(top + 1):
        if point.evaluate(Fraction(n)) != total:
            return False
        total += g.evaluate(Fraction(n + 1))
    return True


class SumFtcResult(NamedTuple):
    value: Gossamer
    closed_form: ClosedFormSum


class SumBridge(NamedTuple):
    step: StepFunction
    integral: Fraction
    equal: bool


def _endpoint(x: Endpoint) -> Gossamer:
    """x as a series: an integer plus infinite terms (w + 1 is an endpoint, w + 1/2 is not)."""
    x = x if isinstance(x, Gossamer) else Gossamer.from_rational(Fraction(x))
    if x.coefficient(0).denominator != 1 or any(e < 0 for e, _ in x.terms):
        raise ValueError(f"endpoint needs an integer finite part, got {x}")
    return x


def sum_ftc(g: Polynomial, a: Endpoint, b: Endpoint) -> SumFtcResult:
    """sum_{k=a}^{b} g(k) = G(b) - G(a-1), both endpoints included.

    Infinite endpoints give the exact symbolic value.  The sum over
    a+1..b is G(b) - G(a), i.e. ``sum_at_point(s, b) - sum_at_point(s, a)``.
    No oracle runs here; construction certifies the closed form.
    """
    a, b = _endpoint(a), _endpoint(b)
    if a.compare(b) > 0:
        raise ValueError(f"empty range: {a} > {b}")
    s = indefinite_sum(g)
    return SumFtcResult(sum_at_point(s, b) - sum_at_point(s, a - 1), s)


def sum_to_integral_bridge(g: Polynomial, a: int, b: int) -> SumBridge:
    """Realize sum_{k=a}^{b} g(k) as the area of a step of height g(k) on [k, k+1).

    The continuous representation of the step lives in the smoothing
    module; here the step's exact area is checked against the closed
    form ``sum_ftc(g, a, b)``.
    """
    if a > b:
        raise ValueError(f"empty range: {a} > {b}")
    heights = [g.evaluate(Fraction(k)) for k in range(a, b + 1)]
    step = StepFunction(
        tuple(Fraction(k) for k in range(a, b + 2)),
        (Fraction(0), *heights, Fraction(0)),
    )
    integral = step.area(Fraction(a), Fraction(b + 1))
    return SumBridge(step, integral, sum_ftc(g, a, b).value == integral)
