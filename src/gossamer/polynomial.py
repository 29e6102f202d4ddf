"""Exact univariate polynomial calculus over the rationals.

Polynomials evaluate over rationals or gossamer numbers alike, which is
what lets an accumulation function be probed with an infinitesimal
increment and differentiated exactly.  Text in and out is the term
grammar of ``parsing`` in one variable letter, with integer degrees.

The exact evaluations run on a polynomial's integer form: its
coefficients' numerators over their lcm, taken once per polynomial and
kept on it (``_integer_form``), or kept from construction when a closed
form was built in integers (``_from_numerators``).  Such a polynomial
builds its ``Fraction`` coefficients only when they are first read, so a
closed form whose readers take the integer form alone builds none.
A polynomial keeps the closed forms built from it in the same way: its
certified sum G (``sums.indefinite_sum``) and its Euler-Maclaurin
polynomial Q_f, whole (``riemann.uniform_riemann_sum``).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .core import (
    Gossamer,
    Kind,
    RationalLike,
    _common_numerators,
    _lowest_terms,
    _require_infinitesimal,
)
from .parsing import ParseError, read_terms, write_terms

__all__ = [
    "FtcInverseCheck",
    "IntegralIdentity",
    "MAX_PARSE_DEGREE",
    "OrderSwap",
    "Polynomial",
    "ftc_inverse_check",
    "order_swap_demo",
    "scale_integral_identity",
    "shift_integral_identity",
]

Operand = Union[int, Fraction, Gossamer]

# The zero coefficient every lazily built polynomial shares.
_ZERO = Fraction(0)

# The highest exponent Polynomial.parse accepts.  Parsing allocates one
# coefficient per degree, and closed-form work grows fast with the degree
# (a dense degree-100 ``riemann --nu-exp 3`` takes seconds).
MAX_PARSE_DEGREE = 100


class Polynomial:
    """Dense rational-coefficient polynomial, coefficients indexed by degree.

    ``_form`` holds the coefficients' integer numerators over their lcm,
    ``(L, numerators)``, once an integer reader has asked for them
    (``_integer_form``), or from construction (``_from_numerators``).
    ``_coefficients`` holds the ``Fraction``s, or None until the first read
    of ``coefficients`` when the polynomial was built from its form alone.
    ``_sum`` holds the certified ``ClosedFormSum`` of this polynomial as a
    term, once ``sums.indefinite_sum`` has built it; ``_width`` holds Q_f,
    this polynomial's Euler-Maclaurin polynomial in the panel width, in
    integer form, once a Riemann sum has built it
    (``riemann._width_polynomial``).  A polynomial is immutable, so neither
    goes stale.  ``_sum.term`` is the polynomial itself, a reference cycle
    that the cyclic garbage collector frees.
    """

    __slots__ = ("_coefficients", "_form", "_sum", "_width")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coefficients: Optional[tuple[Fraction, ...]] = tuple(coeffs)
        self._form = self._sum = self._width = None

    @classmethod
    def _make(cls, coeffs: list) -> "Polynomial":
        """Wrap a list of ``Fraction`` coefficients, only stripping trailing zeros."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        value = object.__new__(cls)
        value._coefficients = tuple(coeffs)
        value._form = value._sum = value._width = None
        return value

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The ``Fraction`` coefficients by degree, built from the integer form on first read."""
        coefficients = self._coefficients
        if coefficients is None:
            common, numerators = self._form
            coefficients = self._coefficients = tuple(
                [Fraction(n, common) if n else _ZERO for n in numerators]
            )
        return coefficients

    @classmethod
    def constant(cls, value: RationalLike) -> "Polynomial":
        return cls((value,))

    @classmethod
    def monomial(cls, degree: int, coefficient: RationalLike = 1) -> "Polynomial":
        if degree < 0:
            raise ValueError("degree must be non-negative")
        return cls((0,) * degree + (coefficient,))

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse e.g. ``"3/2*x^2 - x + 5"``; any single letter works as the variable.

        Exponents above ``MAX_PARSE_DEGREE`` raise ParseError.
        """
        variable = None
        coeffs: dict = {}
        for coeff, symbol, exponent, position in read_terms(text):
            if symbol and variable and symbol != variable:
                raise ParseError(f"mixed variables {variable!r} and {symbol!r}", position)
            variable = variable or symbol
            if exponent.denominator != 1 or exponent < 0:
                raise ParseError("polynomial exponents must be non-negative integers", position)
            if exponent > MAX_PARSE_DEGREE:
                raise ParseError(f"polynomial degree above {MAX_PARSE_DEGREE}", position)
            coeffs[int(exponent)] = coeffs.get(int(exponent), 0) + coeff
        return cls(coeffs.get(d, 0) for d in range(max(coeffs) + 1))

    @property
    def degree(self) -> int:
        coefficients = self._coefficients
        if coefficients is None:
            coefficients = self._form[1]
        return len(coefficients) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    def evaluate(self, x: Operand):
        """The value at x; the result type follows the argument type.

        At a rational point (an ``int``, a ``Fraction``, or a finite series:
        no terms, or one term at w^0) the value is one Horner pass over p's
        integer numerators (``_at_rational``); a finite series gets it back
        as a series, with Horner's floor and flag (``_at_finite``).  At a
        series c*w^e + k (e != 0, k an integer, possibly 0) the value is
        p's coefficients relabelled: an integer Taylor shift by k gives the
        coefficients r_j of p(y + k), and term j is r_j*c^j at w^(j*e).
        Every other series goes through Horner's rule; a float is a TypeError.
        """
        if isinstance(x, Gossamer):
            terms = x.terms
            if not terms or (len(terms) == 1 and terms[0][0] == 0):
                return _at_finite(self, x)
            form = _monomial_plus_integer(terms)
            if form is not None:
                return _relabel(self, x.truncation_floor, x.truncated, *form)
            return _horner(self.coefficients, x)
        if isinstance(x, (int, Fraction)):
            return _at_rational(self, x if type(x) is Fraction else Fraction(x))
        raise TypeError(f"cannot evaluate a Polynomial at {type(x).__name__}")

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coefficients) if i)

    def antiderivative(self) -> "Polynomial":
        """Formal antiderivative with zero constant term."""
        return Polynomial(
            [Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coefficients)]
        )

    def integrate(self, lower: Operand, upper: Operand):
        """Definite integral as a difference of antiderivative values.

        Endpoints may be gossamer numbers, so improper ranges like
        ``[1, w]`` evaluate exactly.
        """
        primitive = self.antiderivative()
        return primitive.evaluate(upper) - primitive.evaluate(lower)

    def compose(self, inner: "Polynomial") -> "Polynomial":
        acc = Polynomial()
        for c in reversed(self.coefficients):
            acc = acc * inner + Polynomial((c,))
        return acc

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial._make(merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make([-c for c in self.coefficients])

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return Polynomial._make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial((1,))
        for _ in range(n):
            result = result * self
        return result

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,))
        return None

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.coefficients == coerced.coefficients

    def __hash__(self) -> int:
        if len(self.coefficients) <= 1:  # zero or a constant: hash as that rational
            return hash(sum(self.coefficients))
        return hash(self.coefficients)

    # -- rendering ------------------------------------------------------

    def to_text(self, var: str = "x") -> str:
        nonzero = [(d, c) for d, c in enumerate(self.coefficients) if c]
        return write_terms(reversed(nonzero), var)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"


def _integer_form(p: Polynomial) -> tuple:
    """``(L, numerators)``: p's coefficients as integers over their lcm L, taken once per p."""
    form = p._form
    if form is None:
        common, numerators = _common_numerators(p.coefficients)
        form = p._form = (common, tuple(numerators))
    return form


def _from_numerators(common: int, numerators: list) -> Polynomial:
    """The polynomial with coefficients n_i/common, stored as that integer form alone.

    The form is put in lowest terms here (``_lowest_terms``), so it is the
    one ``_integer_form`` would take, and trailing zero numerators are
    stripped.  No ``Fraction`` is built here: ``coefficients`` builds them
    on its first read, and a reader of the form alone (the degree, the
    ``ClosedFormSum`` certificate, a value at a rational point or at
    c*w^e + k) never does.
    """
    common, numerators = _lowest_terms(common, numerators)
    while numerators and not numerators[-1]:
        numerators.pop()
    value = object.__new__(Polynomial)
    value._coefficients = None
    value._form = (common, tuple(numerators))
    value._sum = value._width = None
    return value


def _taylor_shift(numerators: Sequence[int], k: int) -> Sequence[int]:
    """Coefficients of n(y + k), for the coefficients n of n(y), in integers alone.

    At k = 0 that is n itself, returned as it is.
    """
    if not k:
        return numerators
    shifted = list(numerators)
    top = len(shifted) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            shifted[j] += k * shifted[j + 1]
    return shifted


def _monomial_plus_integer(terms: tuple):
    """``(e, cn, cd, k)`` when the terms are (cn/cd)*w^e + k, e != 0 and k an integer, else None."""
    if len(terms) == 1:
        (e, c), k = terms[0], 0
    elif len(terms) == 2 and 0 in (terms[0][0], terms[1][0]):
        (e, c), (_, k) = terms if terms[1][0] == 0 else terms[::-1]
        if k.denominator != 1:
            return None
        k = k.numerator
    else:
        return None
    return (e, c.numerator, c.denominator, k) if e else None


def _relabel(
    p: Polynomial, floor: Fraction, truncated: bool, e, cn: int, cd: int, k: int, less: int = 0
) -> Gossamer:
    """p(x) - less/L for x = (cn/cd)*w^e + k, L the lcm of p's integer form.

    Term j of p(y + k) times (cn/cd)^j sits at exponent j*e.  Horner's rule
    over x at ``floor``, x's flag ``truncated``, keeps exactly the terms at
    or above the floor, drops the rest with the flag, and is truncated when
    x is and p is not a constant; so is this.  A Taylor shift fixes
    constants, so ``less`` comes off p's constant numerator before the
    shift (``sums.sum_ftc`` passes L*G(a - 1)).  The terms come from p's
    integer form, read as it is at k = 0 and less = 0, and only the nonzero
    ones build a ``Fraction``.
    """
    common, numerators = _integer_form(p)
    if not numerators:
        return Gossamer._make((), floor, False)
    if less:
        numerators = (numerators[0] - less, *numerators[1:])
    shifted = _taylor_shift(numerators, k)
    top = len(shifted) - 1
    # j*e >= floor bounds j above when e < 0 and below when e > 0; floor/e
    # is n/d, and ``//`` floors it whatever the sign of d.
    n, d = floor.numerator * e.denominator, floor.denominator * e.numerator
    if e < 0:
        lo, hi = 0, min(top, n // d)
    else:
        lo, hi = max(0, -(-n // d)), top
    dropped = any(shifted[:lo]) or any(shifted[hi + 1 :])
    terms = _terms(shifted, lo, hi, e, cn, cd, common)
    if e > 0:
        terms.reverse()
    return Gossamer._make(tuple(terms), floor, dropped or (truncated and top > 0))


def _terms(numerators: Sequence[int], lo: int, hi: int, e, cn: int, cd: int, common: int) -> list:
    """``(j*e, r_j*(cn/cd)^j/common)`` for each nonzero r_j, j = lo..hi, in that order."""
    en, ed = e.numerator, e.denominator
    power_n, power_d = cn**lo, common * cd**lo
    terms = []
    for j in range(lo, hi + 1):
        r = numerators[j]
        if r:
            n = j * en
            exponent = n // ed if not n % ed else Fraction(n, ed)
            terms.append((exponent, Fraction(r * power_n, power_d)))
        power_n *= cn
        power_d *= cd
    return terms


def _at_reciprocal(q: Polynomial, nu: Gossamer, e, cn: int, cd: int, k: int) -> Gossamer:
    """q(1/nu) for nu = (cn/cd)*w^e + k, e > 0 and k an integer, with no series inverse.

    The value keeps the terms, floor and flag of Horner's rule over
    ``nu.inverse()``.  1/nu's powers lead at w^(-i*e), so only q_0..q_r
    can reach nu's floor, r = floor(-floor/e).  At k = 0, 1/nu = w^-e/c,
    c = cn/cd, is a monomial and q(1/nu) is q relabelled there
    (``_relabel``, its scale cd/cn with the sign on cn); so it is when
    q_1..q_r are all zero, as every power of 1/nu starts at w^-e.
    Otherwise 1/nu = u = t/(1 + k*t), t = w^-e/c, a never-ending,
    so truncated, series in t, and q(u) is Horner's rule over q's integer
    numerators in the series of t cut after t^r: times u is a shift by one
    power of t, then a division by 1 + k*t, each term less k times the one
    before.
    """
    if k:
        # The constant k sits at or above nu's floor, so the floor is <= 0 and r >= 0.
        floor = nu.truncation_floor
        reach = -floor.numerator * e.denominator // (floor.denominator * e.numerator)
        common, numerators = _integer_form(q)
        if any(numerators[1 : reach + 1]):
            sums = [0] * (reach + 1)
            for n in reversed(numerators[: reach + 1]):
                below, sums[0] = sums[0], 0
                for m in range(1, reach + 1):
                    below, sums[m] = sums[m], below - k * sums[m - 1]
                sums[0] = n
            terms = _terms(sums, 0, reach, -e, cd, cn, common)
            return Gossamer._make(tuple(terms), floor, True)
    return _relabel(q, nu.truncation_floor, nu.truncated, -e, cd, cn, 0)


def _at_rational(p: Polynomial, q: Fraction) -> Fraction:
    """p(q) by Horner's rule over p's integer numerators; one ``Fraction``, built last.

    With p's numerators n_i over their lcm L and q = a/b, the loop sums
    n_i*a^i*b^(d-i) in integers, and p(q) is that over L*b^d; p(0) is n_0/L.
    """
    common, numerators = _integer_form(p)
    if not numerators:
        return Fraction(0)
    if not q:
        return Fraction(numerators[0], common)
    a, b = q.numerator, q.denominator
    acc, power = numerators[-1], 1
    for n in reversed(numerators[:-1]):
        power *= b
        acc = acc * a + n * power
    return Fraction(acc, common * power)


def _at_finite(p: Polynomial, x: Gossamer) -> Gossamer:
    """p(x) for a finite series x (no terms, or one at w^0), as Horner's rule gives it.

    The value keeps x's floor.  It is truncated when x is and p is not a
    constant, and a nonzero value drops, with the flag, below a positive floor.
    """
    value = _at_rational(p, x.terms[0][1] if x.terms else 0)
    floor = x.truncation_floor
    truncated = x.truncated and p.degree > 0
    if floor > 0:
        return Gossamer._make((), floor, truncated or bool(value))
    return Gossamer._make(((0, value),) if value else (), floor, truncated)


def _horner(coefficients: tuple, x: Operand):
    """Horner evaluation; the result type follows the argument type.

    ``evaluate`` sends it the series that are neither finite nor c*w^e + k;
    a Riemann sum sends it 1/nu off that form.  At a rational or finite
    argument it returns what ``_at_rational`` and ``_at_finite`` return,
    and the tests use it as their reference.

    For an infinitesimal series x with leading exponent e < 0, every
    term of x^i lies at or below i*e, so no coefficient above degree
    floor(x.truncation_floor / e) reaches x's floor.  The loop starts
    there, from a truncated zero when it skips a nonzero coefficient.
    """
    if not isinstance(x, Gossamer):
        x = Fraction(x)
    if isinstance(x, Gossamer) and x.truncation_floor > 0:
        # No constant survives a positive floor, so each ``+ c`` would drop
        # it: evaluate at floor 0, where x's terms all fit, then floor that.
        at_zero = Gossamer._make(x.terms, Fraction(0), x.truncated)
        return _horner(coefficients, at_zero).realize(x.truncation_floor)
    coeffs = coefficients
    acc = x * 0
    if isinstance(x, Gossamer) and x.classify() is Kind.INFINITESIMAL:
        reach = math.floor(x.truncation_floor / x.leading_exponent)
        if any(coeffs[reach + 1 :]):
            acc = Gossamer(floor=x.truncation_floor, truncated=True)
            coeffs = coeffs[: reach + 1]
    for c in reversed(coeffs):
        acc = acc * x
        if c:
            acc = acc + c
    return acc


class IntegralIdentity(NamedTuple):
    lhs: object
    rhs: object
    equal: bool


class FtcInverseCheck(NamedTuple):
    difference_quotient: Gossamer
    recovered: Fraction
    equal: bool


class OrderSwap(NamedTuple):
    h_first: Gossamer
    n_first: Gossamer
    differ: bool


def _rational_argument(value, name: str) -> Fraction:
    """``value`` as a ``Fraction``; a gossamer value raises ValueError naming the argument.

    The identity and FTC checks below take rational arguments only, for now.
    """
    if isinstance(value, Gossamer):
        raise ValueError(f"{name} must be rational, got the gossamer value {value}")
    return Fraction(value)


def scale_integral_identity(
    p: Polynomial, a: RationalLike, b: RationalLike, alpha: RationalLike
) -> IntegralIdentity:
    """Both sides of the substitution x = alpha*v, checked for exact equality.

    ``a``, ``b`` and ``alpha`` must be rational: a gossamer one raises ValueError.
    """
    alpha = _rational_argument(alpha, "alpha")
    if alpha == 0:
        raise ValueError("scale factor must be nonzero")
    a, b = _rational_argument(a, "a"), _rational_argument(b, "b")
    lhs = p.integrate(a, b)
    stretched = p.compose(Polynomial((0, alpha)))  # p(alpha*v)
    rhs = alpha * stretched.integrate(a / alpha, b / alpha)
    return IntegralIdentity(lhs, rhs, lhs == rhs)


def shift_integral_identity(
    p: Polynomial, a: RationalLike, b: RationalLike, c: RationalLike
) -> IntegralIdentity:
    """Both sides of the substitution x = v + c, checked for exact equality.

    ``a``, ``b`` and ``c`` must be rational: a gossamer one raises ValueError.
    """
    a, b, c = _rational_argument(a, "a"), _rational_argument(b, "b"), _rational_argument(c, "c")
    lhs = p.integrate(a, b)
    shifted = p.compose(Polynomial((c, 1)))  # p(v + c)
    rhs = shifted.integrate(a - c, b - c)
    return IntegralIdentity(lhs, rhs, lhs == rhs)


def ftc_inverse_check(
    p: Polynomial, a: RationalLike, x: RationalLike, h: Gossamer
) -> FtcInverseCheck:
    """Differentiate the accumulation function of ``p`` with an infinitesimal step.

    Builds F with F(a) = 0, forms (F(x+h) - F(x))/h in exact gossamer
    arithmetic, and recovers the integrand value as the standard part.
    ``a`` and ``x`` must be rational: a gossamer one raises ValueError.
    """
    _require_infinitesimal(h)
    a, x = _rational_argument(a, "a"), _rational_argument(x, "x")
    accumulation = p.antiderivative()
    accumulation = accumulation - Polynomial.constant(accumulation.evaluate(a))
    quotient = (accumulation.evaluate(x + h) - accumulation.evaluate(x)) / h
    recovered = quotient.standard_part()
    return FtcInverseCheck(quotient, recovered, recovered == p.evaluate(x))


def order_swap_demo(p: Polynomial, x: RationalLike, h: Gossamer) -> OrderSwap:
    """The two evaluation orders of the infinitesimal-step difference quotient.

    Collapsing the step before the partition gives ``h*p(x)``; letting the
    partition refine first gives ``h * integral of p over [0, 1]``.  The
    two differ unless they happen to coincide.  ``x`` must be rational: a
    gossamer one raises ValueError.
    """
    _require_infinitesimal(h)
    h_first = h * p.evaluate(_rational_argument(x, "x"))
    n_first = h * p.integrate(Fraction(0), Fraction(1))
    return OrderSwap(h_first, n_first, h_first != n_first)
