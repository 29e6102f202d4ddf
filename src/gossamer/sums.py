"""Summation at a point: closed forms for sums and the discrete analogue of the FTC.

A sum over a range factors through a single unary point function G, so
interval sums are differences of point values, with infinite endpoints
evaluating symbolically.  G is certified at construction, never by
summing the range: every ``ClosedFormSum`` checks that G telescopes to g
over integers, by one exact zero test at a power of two past the roots
the residual could have, in O(deg G) shifts and adds plus one shift per
nonzero term of g.  G itself is the power-sum fold sum_d c_d*S_d over the
cached ``faulhaber`` rows, added as integer numerators over one lcm,
skipping the rows' zero numerators; it is the library's only fold over
those rows.  Each row keeps its numerators, so it pays its lcm once per
process, and G is kept as the numerators it was built from, so the
certificate and G at an endpoint take no lcm of G's again, and G's
``Fraction`` coefficients are built only if something reads them.
``sum_ftc`` builds no series it does not return: a finite lower endpoint
makes G(a - 1) a rational, and at a = 1 it is the certified G(0) = 0.
``prefix_sums_match``, G against running totals at deg g + 2 points, is
the CLI's independent oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .core import DEFAULT_TRUNCATION_FLOOR, Gossamer, _lowest_terms, _nonzero_numerators
from .polynomial import Polynomial, _at_rational, _from_numerators, _integer_form
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

    Construction checks G(0) = 0 and G(n) - G(n-1) = g(n) in integers, by
    one exact zero test.  With G = N/L (G's integer form) and g = T/s
    (g's nonzero numerators over their lcm, taken afresh: g is the
    caller's), G telescopes to g exactly when
    P(n) = s*(N(n) - N(n-1)) - L*T(n) is the zero polynomial.  Each |P_j|
    is at most B = s*2^(D+1)*sum|N_i| + L*sum|T_j|, D = deg G, so by
    Cauchy's bound a nonzero P, an integer polynomial, has no root of
    modulus 1 + B or more.  X = 2^k with k = B.bit_length() + 1 lies past
    that, so P(X) = 0 forces P = 0.  N(X) and N(X-1) are Horner passes of
    shifts and adds; T(X) is the sum of t_j*2^(j*k) over g's nonzero
    terms.  Both checks read G's integer form, not its ``Fraction``s.
    """

    term: Polynomial
    point_function: Polynomial

    def __post_init__(self):
        common, numerators = _integer_form(self.point_function)
        if numerators and numerators[0]:
            raise ValueError("point function must vanish at 0")
        scale, term = _nonzero_numerators(self.term.coefficients)
        bound = (scale * sum(map(abs, numerators)) << len(numerators)) + common * sum(
            [abs(t) for _, t in term]
        )
        k = bound.bit_length() + 1
        at_x = at_x_less_one = 0
        for n in reversed(numerators):
            at_x = (at_x << k) + n
            at_x_less_one = (at_x_less_one << k) - at_x_less_one + n
        at_term = sum([t << (j * k) for j, t in term])
        if scale * (at_x - at_x_less_one) != common * at_term:
            raise ValueError("point function does not telescope to the term")


def indefinite_sum(g: Polynomial) -> ClosedFormSum:
    """Closed form for sum_{k=1}^{n} g(k): the power-sum fold sum_d c_d*S_d, certified.

    S_d is the cached ``faulhaber(d)`` row, read once per nonzero c_d in
    ascending d, with its integer numerators N_d over their lcm D_d, which
    the row keeps.  The fold runs over integers: with c_d = a_d/b_d,
    a_d*(L/(b_d*D_d))*N_d goes into the slots, L the lcm of every b_d*D_d,
    for each nonzero numerator of the row.  One gcd g of L and the slots
    puts them in lowest terms, L/g and s_i/g, which G keeps as its integer
    form (``_from_numerators``), so the ``ClosedFormSum`` certificate and G
    at an endpoint take no lcm again and build no ``Fraction`` of G's.
    """
    rows = [(c, *_integer_form(faulhaber(degree)))
            for degree, c in enumerate(g.coefficients) if c]
    common = math.lcm(*[c.denominator * d for c, d, _ in rows])
    slots = [0] * (len(g.coefficients) + 1)
    for c, d, numerators in rows:
        scale = c.numerator * (common // (c.denominator * d))
        for slot, n in enumerate(numerators):
            if n:
                slots[slot] += scale * n
    return ClosedFormSum(g, _from_numerators(*_lowest_terms(common, slots)))


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
    if not isinstance(x, Gossamer):
        q = Fraction(x)
        x = Gossamer._make(((0, q),) if q else (), DEFAULT_TRUNCATION_FLOOR, False)
    if x.coefficient(0).denominator != 1 or any(e < 0 for e, _ in x.terms):
        raise ValueError(f"endpoint needs an integer finite part, got {x}")
    return x


def _less_rational(x: Gossamer, q: Fraction, floor: Fraction, truncated: bool) -> Gossamer:
    """x - q for a constant q held at ``floor`` with the flag ``truncated``.

    The value is the one subtracting q's series would give.  x has no term
    below w^0 (G at an endpoint), so its constant term, if any, is its
    last.  As in ``Gossamer.__add__``, a floor other than x's lifts the
    result to the higher of the two, dropping, with the flag, the terms
    below it.
    """
    terms = x.terms
    if q:
        if terms and terms[-1][0] == 0:
            e, c = terms[-1]
            c -= q
            terms = terms[:-1] + (((e, c),) if c else ())
        else:
            terms = (*terms, (0, -q))
    truncated = x.truncated or truncated
    if floor is not x.truncation_floor:
        floor = max(x.truncation_floor, floor)
        kept = len(terms)
        while kept and terms[kept - 1][0] < floor:
            kept -= 1
        if kept < len(terms):
            truncated = True
            terms = terms[:kept]
    return Gossamer._make(terms, floor, truncated)


def sum_ftc(g: Polynomial, a: Endpoint, b: Endpoint) -> SumFtcResult:
    """sum_{k=a}^{b} g(k) = G(b) - G(a-1), both endpoints included.

    Infinite endpoints give the exact symbolic value: at w + k, G's
    coefficients relabelled.  At a finite a = r, G(r-1) is a rational, one
    Horner pass over G's integer numerators, and none at r = 1, where it
    is the certified G(0) = 0; the value is G(b) less that rational, with the
    floor and flag the series G(a - 1) would carry.  An infinite a takes
    G(a - 1) as a series.  The sum over a+1..b is G(b) - G(a), i.e.
    ``sum_at_point(s, b) - sum_at_point(s, a)``.  No oracle runs here;
    construction certifies the closed form.
    """
    a, b = _endpoint(a), _endpoint(b)
    if a.compare(b) > 0:
        raise ValueError(f"empty range: {a} > {b}")
    s = indefinite_sum(g)
    upper = sum_at_point(s, b)
    if a.terms and a.terms[0][0] > 0:
        return SumFtcResult(upper - sum_at_point(s, a - 1), s)
    # The series a - 1 is empty at a positive floor, where the 1 drops with
    # the flag, so G is read at 0 there.
    floor = a.truncation_floor
    below = 0 if floor > 0 else (a.terms[0][1] if a.terms else 0) - 1
    point_function = s.point_function
    # G(0) = 0 is certified, so G is read only at a nonzero point.
    lower = _at_rational(point_function, below) if below else 0
    truncated = (a.truncated or floor > 0) and point_function.degree > 0
    return SumFtcResult(_less_rational(upper, lower, floor, truncated), s)


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
