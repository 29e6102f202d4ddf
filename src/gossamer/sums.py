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
those rows.  Each row is built as integer numerators over one
denominator (``riemann.faulhaber``), so the fold takes no lcm of a row's
coefficients, and G is kept as the numerators it was built from, so the
certificate and G at an endpoint take no lcm of G's again, and G's
``Fraction`` coefficients are built only if something reads them.
g keeps its certified closed form once built (``Polynomial._sum``), so
G is folded and certified once per g, however many intervals are summed.
``sum_ftc`` is the point difference G(b) - G(a - 1).  For a finite
integer a and b = c*w^e + k, c, e > 0, it is one read of G's integer
form: a Taylor shift fixes constants, so G(a - 1), one integer Horner
pass, comes off G's constant numerator before G is relabelled at b, and
no series is built for a, a - 1, G(a - 1) or the difference.  Every
other pair, an infinite a such as w among them, is the difference of two
point values as series, which is the only way to G(a - 1) for such an a.
``prefix_sums_match``, G against running totals at deg g + 2 points, is
the CLI's independent oracle.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .core import DEFAULT_TRUNCATION_FLOOR, Gossamer
from .polynomial import (
    Polynomial,
    _from_numerators,
    _integer_form,
    _monomial_plus_integer,
    _relabel,
)
from .riemann import faulhaber

__all__ = [
    "ClosedFormSum",
    "SumFtcResult",
    "indefinite_sum",
    "prefix_sums_match",
    "sum_at_point",
    "sum_ftc",
    "sum_interval_bruteforce",
]

Endpoint = Union[int, Fraction, Gossamer]


class ClosedFormSum(namedtuple("ClosedFormSum", "term point_function")):
    """A term g(k) together with its point function G(n) = sum_{k=1}^{n} g(k).

    Construction checks G(0) = 0 and G(n) - G(n-1) = g(n) in integers, by
    one exact zero test.  With G = N/L and g = T/s, their integer forms
    (``_integer_form``, which g keeps, like any polynomial, once taken),
    G telescopes to g exactly when
    P(n) = s*(N(n) - N(n-1)) - L*T(n) is the zero polynomial.  Each |P_j|
    is at most B = s*2^(D+1)*sum|N_i| + L*sum|T_j|, D = deg G, so by
    Cauchy's bound a nonzero P, an integer polynomial, has no root of
    modulus 1 + B or more.  X = 2^k with k = B.bit_length() + 1 lies past
    that, so P(X) = 0 forces P = 0.  N(X) and N(X-1) are Horner passes of
    shifts and adds; T(X) is the sum of t_j*2^(j*k) over g's nonzero
    terms.  Both checks read integer forms alone: G's ``Fraction``s stay unbuilt.
    """

    __slots__ = ()

    def __new__(cls, term: Polynomial, point_function: Polynomial):
        common, numerators = _integer_form(point_function)
        if numerators and numerators[0]:
            raise ValueError("point function must vanish at 0")
        scale, term_numerators = _integer_form(term)
        bound = (scale * sum(map(abs, numerators)) << len(numerators)) + common * sum(
            map(abs, term_numerators)
        )
        k = bound.bit_length() + 1
        at_x = at_x_less_one = 0
        for n in reversed(numerators):
            at_x = (at_x << k) + n
            at_x_less_one = (at_x_less_one << k) - at_x_less_one + n
        at_term = sum([t << (j * k) for j, t in enumerate(term_numerators) if t])
        if scale * (at_x - at_x_less_one) != common * at_term:
            raise ValueError("point function does not telescope to the term")
        return super().__new__(cls, term, point_function)

    @classmethod
    def _make(cls, iterable):
        """A record from a sequence, through ``__new__``, so ``_replace`` checks too."""
        return cls(*iterable)


def indefinite_sum(g: Polynomial) -> ClosedFormSum:
    """Closed form for sum_{k=1}^{n} g(k): the power-sum fold sum_d c_d*S_d, certified.

    S_d is the cached ``faulhaber(d)`` row, read once per nonzero c_d in
    ascending d, with its integer numerators N_d over their lcm D_d, the
    form the row is built in, so no lcm of a row's coefficients is taken
    here and no ``Fraction`` of the row's is built.  The fold runs over
    integers: with c_d = a_d/b_d, a_d*(L/(b_d*D_d))*N_d goes into the
    slots, L the lcm of every b_d*D_d, for each nonzero numerator of the
    row.  ``_from_numerators`` puts L and the slots in lowest terms, which
    G keeps as its integer form, so the ``ClosedFormSum`` certificate and G
    at an endpoint take no lcm again and build no ``Fraction`` of G's.  The
    record is kept on g (``g._sum``) and returned as it is by every later
    call with g; its ``term`` is g, a reference cycle that the cyclic
    garbage collector frees.
    """
    if g._sum is not None:
        return g._sum
    rows = [(c, *_integer_form(faulhaber(degree)))
            for degree, c in enumerate(g.coefficients) if c]
    common = math.lcm(*[c.denominator * d for c, d, _ in rows])
    slots = [0] * (len(g.coefficients) + 1)
    for c, d, numerators in rows:
        scale = c.numerator * (common // (c.denominator * d))
        for slot, n in enumerate(numerators):
            if n:
                slots[slot] += scale * n
    g._sum = ClosedFormSum(g, _from_numerators(common, slots))
    return g._sum


def sum_at_point(s: ClosedFormSum, a: Endpoint):
    """G(a); the argument may be infinite, in which case the value is symbolic.

    Negative integer arguments evaluate by plain polynomial evaluation
    but sit outside the counting interpretation of G.
    """
    return s.point_function.evaluate(a)


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


def _endpoint(x: Endpoint) -> Gossamer:
    """x as a series: an integer plus infinite terms (w + 1 is one; w + 1/2 and w^-1 are not)."""
    if not isinstance(x, Gossamer):
        x = Gossamer.from_rational(x)
    if x.coefficient(0).denominator != 1:
        raise ValueError(f"endpoint needs an integer finite part, got {x}")
    if any(e < 0 for e, _ in x.terms):
        raise ValueError(f"endpoint needs no infinitesimal term, got {x}")
    return x


def _fold_lower(g: Polynomial, a: Endpoint, b: Endpoint) -> Optional[SumFtcResult]:
    """G(b) - G(a - 1) as one read of G, for a finite integer a and b = c*w^e + k, c, e > 0.

    a is an int or an integral ``Fraction``, both at the default floor, or
    an untruncated series with no term but w^0, at its own floor.  Such a b
    lies above every finite a, so the range is never empty, and both are
    valid endpoints.  With G = N/L, G(a - 1) is N(a - 1)/L, one integer
    Horner pass, and ``_relabel`` takes N(a - 1) off N's constant numerator
    and reads G at b, at the floor max(floor_a, floor_b) that the series
    difference takes.  Above a floor of 0 that difference drops G(b)'s and
    G(a - 1)'s constants one by one, each with the flag, so a positive floor
    gets None, as does every other pair.
    """
    if isinstance(a, Gossamer):
        terms = a.terms
        if a.truncated or len(terms) > 1 or (terms and terms[0][0]):
            return None
        lower, floor = terms[0][1] if terms else 0, a.truncation_floor
    elif isinstance(a, (int, Fraction)):
        lower, floor = a, DEFAULT_TRUNCATION_FLOOR
    else:
        return None
    form = _monomial_plus_integer(b.terms) if isinstance(b, Gossamer) else None
    if lower.denominator != 1 or form is None or form[0] < 0 or form[1] < 0:
        return None
    if floor is not b.truncation_floor:
        floor = max(floor, b.truncation_floor)
    if floor.numerator > 0:
        return None
    s = indefinite_sum(g)
    m, at_m = lower.numerator - 1, 0
    for n in reversed(_integer_form(s.point_function)[1]):
        at_m = at_m * m + n
    return SumFtcResult(_relabel(s.point_function, floor, b.truncated, *form, at_m), s)


def sum_ftc(g: Polynomial, a: Endpoint, b: Endpoint) -> SumFtcResult:
    """sum_{k=a}^{b} g(k) = G(b) - G(a-1), both endpoints included.

    For a finite integer a and b = c*w^e + k above it, at a floor of 0 or
    below, the value is one read of G's integer form (``_fold_lower``): no
    series is built for a, a - 1, G(a - 1) or the difference.  Every other
    pair is the series difference of two point values: at c*w^e + k, G's
    coefficients relabelled; at a finite point, one Horner pass over G's
    integer numerators (``Polynomial.evaluate``).  That path stays, as the
    one for an infinite a (G(w - 1) is a series) and for the checks: a is
    validated before b, and an empty range raises ``empty range: a > b``.
    Both paths give the same terms, floor and flag.  The sum over a+1..b is
    G(b) - G(a), i.e. ``sum_at_point(s, b) - sum_at_point(s, a)``.  No
    oracle runs here; construction certifies the closed form, once per g
    (``indefinite_sum``).
    """
    folded = _fold_lower(g, a, b)
    if folded is not None:
        return folded
    a, b = _endpoint(a), _endpoint(b)
    if a.compare(b) > 0:
        raise ValueError(f"empty range: {a} > {b}")
    s = indefinite_sum(g)
    return SumFtcResult(sum_at_point(s, b) - sum_at_point(s, a - 1), s)

