"""Summation at a point: closed forms for sums and the discrete analogue of the FTC.

A sum over a range factors through a single unary point function G, so
interval sums are differences of point values, with infinite endpoints
evaluating symbolically.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .core import Gossamer, Kind, RationalLike
from .polynomial import Polynomial
from .riemann import faulhaber
from .steps import StepFunction

__all__ = [
    "ClosedFormSum",
    "SumBridge",
    "SumFtcResult",
    "indefinite_sum",
    "lower_sum_at_point",
    "sum_at_point",
    "sum_ftc",
    "sum_ftc_half_open",
    "sum_interval_bruteforce",
    "sum_to_integral_bridge",
]

Endpoint = Union[int, Fraction, Gossamer]


@dataclass(frozen=True)
class ClosedFormSum:
    """A term g(k) together with its point function G(n) = sum_{k=1}^{n} g(k)."""

    term: Polynomial
    point_function: Polynomial

    def __post_init__(self):
        g = self.point_function
        if g.evaluate(Fraction(0)) != 0:
            raise ValueError("point function must vanish at 0")
        step_back = g.compose(Polynomial((-1, 1)))  # G(n-1)
        if g - step_back != self.term:
            raise ValueError("point function does not telescope to the term")


def indefinite_sum(g: Polynomial) -> ClosedFormSum:
    """Closed form for sum_{k=1}^{n} g(k), assembled monomial-wise."""
    point = Polynomial()
    for degree, c in enumerate(g.coefficients):
        if c:
            point = point + c * faulhaber(degree)
    return ClosedFormSum(g, point)


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
    """Direct accumulation of sum_{k=a}^{b} g(k); the oracle for the closed forms."""
    if a > b:
        raise ValueError(f"empty range: {a} > {b}")
    total = Fraction(0)
    for k in range(a, b + 1):
        total += g.evaluate(Fraction(k))
    return total


class SumFtcResult(NamedTuple):
    value: Gossamer
    oracle_match: bool


class SumBridge(NamedTuple):
    step: StepFunction
    integral: Fraction
    equal: bool


def _as_gossamer(x: Endpoint) -> Gossamer:
    if isinstance(x, Gossamer):
        return x
    return Gossamer.from_rational(Fraction(x))


def _finite_integer(x: Gossamer) -> Optional[int]:
    """The int behind a finite endpoint, else None; w + 1 is an endpoint, w + 1/2 is not."""
    constant = x.coefficient(0)
    if constant.denominator != 1 or any(e < 0 for e, _ in x.terms):
        raise ValueError(f"endpoint needs an integer finite part, got {x}")
    return None if x.classify() is Kind.INFINITE else int(constant)


def sum_ftc(g: Polynomial, a: Endpoint, b: Endpoint) -> SumFtcResult:
    """sum_{k=a}^{b} g(k) as a difference of point values, closed convention.

    Uses G(b) - G(a-1) so both endpoints are included.  Finite ranges are
    checked against brute-force accumulation; infinite endpoints give the
    exact symbolic value and the oracle holds vacuously.
    """
    a, b = _as_gossamer(a), _as_gossamer(b)
    if a.compare(b) > 0:
        raise ValueError(f"empty range: {a} > {b}")
    ai, bi = _finite_integer(a), _finite_integer(b)
    s = indefinite_sum(g)
    value = sum_at_point(s, b) - sum_at_point(s, a - 1)
    if ai is not None and bi is not None:
        match = value == sum_interval_bruteforce(g, ai, bi)
    else:
        match = True
    return SumFtcResult(value, match)


def sum_ftc_half_open(g: Polynomial, a: Endpoint, b: Endpoint) -> SumFtcResult:
    """The plain point-difference G(b) - G(a), i.e. sum_{k=a+1}^{b}."""
    a, b = _as_gossamer(a), _as_gossamer(b)
    if a.compare(b) > 0:
        raise ValueError(f"empty range: {a} > {b}")
    ai, bi = _finite_integer(a), _finite_integer(b)
    s = indefinite_sum(g)
    value = sum_at_point(s, b) - sum_at_point(s, a)
    if ai is not None and bi is not None:
        oracle = sum_interval_bruteforce(g, ai + 1, bi) if ai + 1 <= bi else Fraction(0)
        match = value == oracle
    else:
        match = True
    return SumFtcResult(value, match)


def sum_to_integral_bridge(g: Polynomial, a: int, b: int) -> SumBridge:
    """Realize sum_{k=a}^{b} g(k) as the area of a step of height g(k) on [k, k+1).

    The continuous representation of the step lives in the smoothing
    module; here only the exact area bookkeeping is checked.
    """
    if a > b:
        raise ValueError(f"empty range: {a} > {b}")
    heights = [g.evaluate(Fraction(k)) for k in range(a, b + 1)]
    step = StepFunction(
        tuple(Fraction(k) for k in range(a, b + 2)),
        (Fraction(0), *heights, Fraction(0)),
    )
    integral = step.area(Fraction(a), Fraction(b + 1))
    return SumBridge(step, integral, integral == sum(heights, Fraction(0)))
