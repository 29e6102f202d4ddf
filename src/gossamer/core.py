"""Exact arithmetic on gossamer numbers.

A gossamer number is a finite series ``c1*w^e1 + c2*w^e2 + ...`` in the
formal infinite unit ``w``, with exact rational coefficients and rational
exponents kept strictly descending.  ``w^-1`` is the canonical positive
infinitesimal, ``w`` the canonical infinity, and every rational embeds as
the single term ``c*w^0``.  The ordered-field structure falls out of the
sign of the leading term.

Integral exponents are stored as ``int`` and fractional ones as
``Fraction``; the two compare and hash alike, so this shows only in
speed.  The constructor is the one normaliser of outside input:
arithmetic results are already normalised and skip it.  A product runs
over integers: each operand's coefficients become numerators over the
lcm of its denominators, and each output coefficient is built once, over
the product of the two.

``parse`` and ``to_text`` read and write the term grammar of ``parsing``
in the one symbol ``w``.

Series are truncated below a per-value exponent floor, the ``floor=``
of the constructor (``DEFAULT_TRUNCATION_FLOOR``, -16, when not given).
Any operation that drops a term marks its result ``truncated``, so
approximation is never silent: division expands a geometric series and
is the only operation that cannot be exact for multi-term inputs.  A
product with an exact zero factor is an exact zero, whatever the other
factor dropped.

Values are immutable after construction and all operations are pure, so
they can be shared freely between threads.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

# Unused here; perfbench's tracer test names the binding gossamer.core.split_terms.
from .parsing import ParseError, read_terms, split_terms, write_terms

__all__ = [
    "DEFAULT_TRUNCATION_FLOOR",
    "Gossamer",
    "InfinitePartError",
    "Kind",
    "NotInfinitesimalError",
    "ParseError",
    "ZeroMagnitudeError",
    "bounded_series_sum",
    "omega",
]

RationalLike = Union[int, Fraction]
Exponent = Union[int, Fraction]  # int exactly when integral

DEFAULT_TRUNCATION_FLOOR = Fraction(-16)


def _exact(value) -> Fraction:
    """A caller's number as a ``Fraction``, converted as ``Fraction`` converts it.

    A float is a TypeError: it stands for no exact rational, and 0.1 would
    become 3602879701896397/36028797018963968.  ``core``, ``polynomial``
    and ``steps`` convert every number a caller passes them here.
    """
    if isinstance(value, float):
        raise TypeError(f"expected an exact rational, got float {value!r}")
    return Fraction(value)


class Kind(Enum):
    """Magnitude class of a value."""

    ZERO = "zero"
    INFINITESIMAL = "infinitesimal"
    FINITE_APPRECIABLE = "finite_appreciable"
    INFINITE = "infinite"


class ZeroMagnitudeError(ValueError):
    """A magnitude relation was asked of zero, which has no leading term."""


class InfinitePartError(ValueError):
    """standard_part of a value with an infinite part: there is no real shadow."""


class NotInfinitesimalError(ValueError):
    """An operation required an infinitesimal argument."""


class Gossamer:
    """A finite series over ``w`` with rational coefficients and exponents.

    ``terms`` is a tuple of ``(exponent, coefficient)`` pairs, strictly
    descending by exponent, with no zero coefficients and no exponent
    below ``truncation_floor``.  The zero value has an empty tuple.
    """

    __slots__ = ("terms", "truncation_floor", "truncated")

    def __init__(
        self,
        terms: Iterable[Tuple[RationalLike, RationalLike]] = (),
        floor: Optional[RationalLike] = None,
        truncated: bool = False,
    ):
        floor = DEFAULT_TRUNCATION_FLOOR if floor is None else _exact(floor)
        merged: dict = {}
        for exponent, coefficient in terms:
            c = coefficient if type(coefficient) is Fraction else _exact(coefficient)
            if not c:
                continue
            e = exponent if type(exponent) is int else _exact(exponent)
            merged[e] = merged[e] + c if e in merged else c
        kept, dropped = _normalise(merged, floor)
        self.terms: Tuple[Tuple[Exponent, Fraction], ...] = kept
        self.truncation_floor = floor
        self.truncated = bool(truncated or dropped)

    @classmethod
    def _make(cls, terms: tuple, floor: Fraction, truncated: bool) -> "Gossamer":
        """Wrap terms that are already normalised for ``floor``, unchecked."""
        value = object.__new__(cls)
        value.terms = terms
        value.truncation_floor = floor
        value.truncated = truncated
        return value

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rational(cls, value: RationalLike, floor: Optional[RationalLike] = None) -> "Gossamer":
        """The constant ``value`` at ``floor``, built as the constructor would build it.

        Zero is the empty series; above a positive floor the constant drops
        and the value says so; otherwise it is the one term ``(0, value)``.
        """
        if floor is None:
            floor = DEFAULT_TRUNCATION_FLOOR
        elif type(floor) is not Fraction:
            floor = _exact(floor)
        value = value if type(value) is Fraction else _exact(value)
        if not value:
            return cls._make((), floor, False)
        if floor > 0:
            return cls._make((), floor, True)
        return cls._make(((0, value),), floor, False)

    @classmethod
    def parse(cls, text: str, floor: Optional[RationalLike] = None) -> "Gossamer":
        """Parse the rendering grammar, e.g. ``"1/3 + 1/2*w^-1"``."""
        pairs = []
        for coeff, symbol, exponent, position in read_terms(text):
            if symbol not in (None, "w"):
                raise ParseError(f"unexpected symbol {symbol!r}: expected 'w'", position)
            pairs.append((exponent, coeff))
        return cls(pairs, floor=floor)

    # -- structure ---------------------------------------------------

    @property
    def leading_exponent(self) -> Exponent:
        if not self.terms:
            raise ZeroMagnitudeError("zero has no leading term")
        return self.terms[0][0]

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ZeroMagnitudeError("zero has no leading term")
        return self.terms[0][1]

    def classify(self) -> Kind:
        if not self.terms:
            return Kind.ZERO
        lead = self.terms[0][0]
        if lead > 0:
            return Kind.INFINITE
        if lead == 0:
            return Kind.FINITE_APPRECIABLE
        return Kind.INFINITESIMAL

    def coefficient(self, exponent: RationalLike) -> Fraction:
        """Coefficient of ``w^exponent`` (zero when absent)."""
        e = exponent if type(exponent) is int else _exact(exponent)
        for exp, coeff in self.terms:
            if exp == e:
                return coeff
            if exp < e:
                break
        return Fraction(0)

    # -- coercion ----------------------------------------------------

    def _coerce(self, other) -> Optional["Gossamer"]:
        if isinstance(other, Gossamer):
            return other
        if isinstance(other, (int, Fraction)):
            return Gossamer.from_rational(other, self.truncation_floor)
        return None

    # -- arithmetic --------------------------------------------------

    def __add__(self, other) -> "Gossamer":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        # Both term tuples descend: merge them in one pass.
        merged = []
        i = j = 0
        while i < len(a) and j < len(b):
            ea, eb = a[i][0], b[j][0]
            if ea > eb:
                merged.append(a[i])
                i += 1
            elif eb > ea:
                merged.append(b[j])
                j += 1
            else:
                c = a[i][1] + b[j][1]
                if c:
                    merged.append((ea, c))
                i += 1
                j += 1
        merged.extend(a[i:])
        merged.extend(b[j:])
        fa, fb = self.truncation_floor, other.truncation_floor
        truncated = self.truncated or other.truncated
        floor = fa
        if fa is not fb:
            # Only the operand with the lower floor can reach below the
            # higher one, so the terms there never cancel and always count.
            floor = max(fa, fb)
            kept = len(merged)
            while kept and merged[kept - 1][0] < floor:
                kept -= 1
            if kept < len(merged):
                truncated = True
                del merged[kept:]
        return Gossamer._make(tuple(merged), floor, truncated)

    __radd__ = __add__

    def __neg__(self) -> "Gossamer":
        return Gossamer._make(
            tuple([(e, -c) for e, c in self.terms]), self.truncation_floor, self.truncated
        )

    def __sub__(self, other) -> "Gossamer":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Gossamer":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Gossamer":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # Integer numerators over one common denominator per operand: the
        # loop pays no gcd, and each output coefficient is built once.
        da, numerators_a = _common_numerators([c for _, c in self.terms])
        db, numerators_b = _common_numerators([c for _, c in other.terms])
        pairs_b = [(e, n) for (e, _), n in zip(other.terms, numerators_b)]
        products: dict = {}
        for (ea, _), na in zip(self.terms, numerators_a):
            for eb, nb in pairs_b:
                e = ea + eb
                if e in products:
                    products[e] += na * nb
                else:
                    products[e] = na * nb
        fa, fb = self.truncation_floor, other.truncation_floor
        floor = fa if fa is fb else max(fa, fb)  # most operands share one floor object
        kept, dropped = _normalise(products, floor)
        denominator = da * db
        terms = tuple([(e, Fraction(p, denominator)) for e, p in kept])
        # An exact zero factor (no terms, nothing dropped) gives an exact zero.
        exact_zero = not (self.terms or self.truncated) or not (other.terms or other.truncated)
        truncated = dropped or (not exact_zero and (self.truncated or other.truncated))
        return Gossamer._make(terms, floor, truncated)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Gossamer":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "Gossamer":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent) -> "Gossamer":
        if isinstance(exponent, Fraction) and exponent.denominator == 1:
            exponent = int(exponent)
        if isinstance(exponent, int):
            if exponent < 0:
                return (self ** (-exponent)).inverse()
            result = self._coerce(1)
            base, n = self, exponent
            while n:
                if n & 1:
                    result = result * base
                n >>= 1
                if n:
                    base = base * base
            return result
        exponent = _exact(exponent)
        if len(self.terms) == 1 and self.terms[0][1] == 1:
            return Gossamer(
                ((self.terms[0][0] * exponent, 1),),
                floor=self.truncation_floor,
                truncated=self.truncated,
            )
        raise ValueError("fractional powers are defined only for unit-coefficient monomials")

    def __abs__(self) -> "Gossamer":
        if self.terms and self.terms[0][1] < 0:
            return -self
        return self

    def inverse(self) -> "Gossamer":
        """Multiplicative inverse by geometric expansion.

        Writes the value as ``c*w^e*(1 + u)`` with ``u`` carrying only
        negative relative exponents and returns
        ``(1/c)*w^-e * sum_{i=0}^{order} (-u)^i``.  The order comes from
        the floor: the expansion runs until the dropped tail sits below
        the truncation floor, so for leading exponent e <= 0 the product
        ``a * a.inverse()`` is exactly 1 after flooring.  For infinite
        values (e > 0) the cancellation terms would live below the floor
        and cannot be stored, so the product's residue is only
        guaranteed below ``floor + e``.  Any nonzero ``u`` marks the
        result truncated.
        """
        if not self.terms:
            raise ZeroDivisionError("zero has no inverse")
        lead_exp, lead_coeff = self.terms[0]
        # Result exponents are shifted by -lead_exp, so expand relative to
        # a correspondingly shifted floor.
        floor_rel = self.truncation_floor + lead_exp
        u = Gossamer(
            tuple((e - lead_exp, c / lead_coeff) for e, c in self.terms[1:]),
            floor=floor_rel,
        )
        if not u.terms:
            return Gossamer(
                ((-lead_exp, 1 / lead_coeff),),
                floor=self.truncation_floor,
                truncated=self.truncated or u.truncated,
            )
        gap = u.terms[0][0]  # < 0: the slowest-decaying part of u
        order = max(0, math.floor(floor_rel / gap))
        geometric = Gossamer(((0, 1),), floor=floor_rel)
        power = geometric
        minus_u = -u
        for _ in range(order):
            power = power * minus_u
            if not power.terms:
                break
            geometric = geometric + power
        return Gossamer(
            tuple((e - lead_exp, c / lead_coeff) for e, c in geometric.terms),
            floor=self.truncation_floor,
            truncated=True,
        )

    # -- order and magnitude relations --------------------------------

    def compare(self, other) -> int:
        """Sign of ``self - other``: -1, 0 or 1.  A total order extending Q."""
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError(f"cannot compare Gossamer with {type(other).__name__}")
        other = coerced
        # The first exponent where the descending terms differ leads the
        # difference, which keeps no term below the higher floor.
        a, b = self.terms, other.terms
        i, shared = 0, min(len(a), len(b))
        while i < shared and a[i] == b[i]:
            i += 1
        if i < shared and a[i][0] == b[i][0]:
            e, positive = a[i][0], a[i][1] > b[i][1]
        elif i < len(a) and (i == len(b) or a[i][0] > b[i][0]):
            e, positive = a[i][0], a[i][1] > 0
        elif i < len(b):
            e, positive = b[i][0], b[i][1] < 0
        else:
            return 0
        if e < max(self.truncation_floor, other.truncation_floor):
            return 0
        return 1 if positive else -1

    def much_less(self, other) -> bool:
        """Infinitely smaller in magnitude: strictly smaller leading exponent."""
        other = self._magnitude_operand(other)
        return self.terms[0][0] < other.terms[0][0]

    def asymptotic_to(self, other) -> bool:
        """Identical leading term; the difference is negligible against both sides."""
        other = self._magnitude_operand(other)
        return self.terms[0] == other.terms[0]

    def _magnitude_operand(self, other) -> "Gossamer":
        """``other`` as a series for a magnitude relation; both sides must be nonzero.

        A non-numeric operand raises TypeError naming its type; a zero side
        raises ZeroMagnitudeError.
        """
        coerced = self._coerce(other)
        if coerced is None:
            raise TypeError(f"magnitude relation undefined for Gossamer and {type(other).__name__}")
        if not self.terms or not coerced.terms:
            raise ZeroMagnitudeError("magnitude relation undefined for zero")
        return coerced

    def infinitely_close_to(self, other) -> bool:
        """Difference is zero or infinitesimal."""
        other = self._coerce(other)
        if other is None:
            raise TypeError("expected a Gossamer or rational")
        return (self - other).classify() in (Kind.ZERO, Kind.INFINITESIMAL)

    def standard_part(self) -> Fraction:
        """The real shadow: coefficient of ``w^0``. Undefined for infinite values."""
        if self.terms and self.terms[0][0] > 0:
            raise InfinitePartError(f"no standard part: {self} has an infinite part")
        return self.coefficient(0)

    def realize(self, floor: RationalLike) -> "Gossamer":
        """Truncate terms below ``floor`` (the transfer map for floor 0)."""
        floor = _exact(floor)
        kept = tuple([(e, c) for e, c in self.terms if e >= floor])
        return Gossamer._make(
            kept,
            max(self.truncation_floor, floor),
            self.truncated or len(kept) != len(self.terms),
        )

    def at_omega(self, value: RationalLike) -> Fraction:
        """Evaluate the series at a finite rational stand-in for ``w``.

        Useful as an oracle: closed forms derived at infinity must agree
        with direct computation at any finite substitute.  Requires
        integer exponents and an untruncated value: the dropped terms
        would count at a finite stand-in.
        """
        if self.truncated:
            raise ValueError(f"cannot evaluate the truncated value {self} at a stand-in")
        v = _exact(value)
        total = Fraction(0)
        for e, c in self.terms:
            if e.denominator != 1:
                raise ValueError("cannot evaluate a fractional exponent at a rational stand-in")
            total += c * v ** int(e)
        return total

    # -- comparison dunders -------------------------------------------

    def __eq__(self, other) -> bool:
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self) -> int:
        if all(e == 0 for e, _ in self.terms):  # zero or a constant: hash as that rational
            return hash(self.coefficient(0))
        return hash(self.terms)

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- rendering -----------------------------------------------------

    def to_text(self) -> str:
        return write_terms(self.terms, "w")

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        flags = ", truncated" if self.truncated else ""
        return f"Gossamer({self.to_text()!r}{flags})"


def _normalise(merged: dict, floor: Fraction) -> Tuple[tuple, bool]:
    """Descending ``(exponent, coefficient)`` terms of ``merged`` at or above ``floor``.

    The coefficients may be ``Fraction``s or a product's integer numerators.
    Zero coefficients drop silently; the flag says whether a nonzero one
    fell below the floor.  An integral exponent comes out as an ``int``.
    """
    if floor.denominator == 1:
        floor = floor.numerator  # int exponents then compare without Fraction
    kept = []
    dropped = False
    for e in sorted(merged, reverse=True):
        c = merged[e]
        if not c:
            continue
        if e < floor:
            dropped = True  # and so is every later, lower exponent
            break
        if type(e) is not int and e.denominator == 1:
            e = e.numerator
        kept.append((e, c))
    return tuple(kept), dropped


def _common_numerators(coefficients: Sequence[Fraction]) -> Tuple[int, list]:
    """``(d, [n, ...])`` with each coefficient equal to ``n / d``, d the lcm of denominators."""
    denominators = [c.denominator for c in coefficients]
    d = math.lcm(*denominators)
    return d, [c.numerator * (d // b) for c, b in zip(coefficients, denominators)]


def _lowest_terms(d: int, numerators: Sequence[int]) -> Tuple[int, list]:
    """The fractions n/d in ``_common_numerators``'s form: ``(d/g, [n/g, ...])``, g = gcd(d, *n).

    The lcm of the reduced denominators d/gcd(d, n) is d over the gcd of all the gcd(d, n).
    """
    g = math.gcd(d, *numerators)
    return d // g, [n // g for n in numerators]


def omega(exponent: RationalLike = 1, floor: Optional[RationalLike] = None) -> Gossamer:
    """The infinite unit ``w`` raised to a rational power (``omega(-1)`` is 1/w)."""
    return Gossamer(((exponent, 1),), floor=floor)


def _require_infinitesimal(h: Gossamer) -> None:
    """The precondition of every infinitesimal-step operation."""
    if h.classify() is not Kind.INFINITESIMAL:
        raise NotInfinitesimalError(f"h must be a nonzero infinitesimal, got {h}")


def bounded_series_sum(
    coefficients: Sequence[RationalLike], h: Gossamer, order: int
) -> Gossamer:
    """``sum_{k=1}^{order} a_k h^k`` for infinitesimal ``h``.

    The coefficient list repeats cyclically when shorter than ``order``;
    boundedness of the list is what keeps the result infinitesimal, so
    the result always classifies as zero or infinitesimal.
    """
    coeffs = [_exact(c) for c in coefficients]
    if not coeffs:
        raise ValueError("coefficients must be non-empty")
    _require_infinitesimal(h)
    total = Gossamer(floor=h.truncation_floor)
    power = Gossamer.from_rational(1, floor=h.truncation_floor)
    for k in range(1, order + 1):
        power = power * h
        total = total + coeffs[(k - 1) % len(coeffs)] * power
    return total
