"""Uniform Riemann sums and scaled integrals in closed form at an infinite count.

The sum over j of f(j/nu)*(1/nu) is never iterated: it is one rational
polynomial Q_f in the panel width 1/nu, the Euler-Maclaurin form,
evaluated once at 1/nu; its standard part, Q_f(0), is the integral and
its lower-order terms the remainder.  Q_f belongs to f alone: its
coefficients come, as integer numerators over one common denominator,
from one pass over f's nonzero coefficients and a row of Bernoulli
weights B_i/i over one lcm, one row per degree, and f keeps Q_f
(``Polynomial._width``), so every later sum of f, at any count, builds
none.  The Bernoulli numbers solve their defining recurrence, and the
``faulhaber`` rows serve the sums module.  At nu = c*w^e + k (k an
integer) Q_f(1/nu) is read off Q_f's numerators, relabelled when 1/nu is
a monomial and by Horner's rule in the series of 1/nu otherwise, with no
series inverse; any other nu takes Horner's rule over ``nu.inverse()``.
An integral of f(x/nu) is nu*F(x/nu) between its endpoints, F' = f, and
whether one panel's is asymptotic to its sample is a test on two
rationals.  A finite count n reads the same Q_f at 1/n.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from .core import (
    Gossamer,
    Kind,
    RationalLike,
    ZeroMagnitudeError,
    omega,
)
from .polynomial import (
    Polynomial,
    _at_reciprocal,
    _from_numerators,
    _horner,
    _integer_form,
    _monomial_plus_integer,
)

__all__ = [
    "ConjectureProbe",
    "PipelineStage",
    "PipelineTrace",
    "UniformRiemannSum",
    "bernoulli_number",
    "conjecture_probe",
    "definite_to_sum_pipeline",
    "divergent_integral_via_sum",
    "faulhaber",
    "integrability_check",
    "panel_asymptotic",
    "riemann_limit",
    "riemann_remainder",
    "uniform_riemann_sum",
]


@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """Bernoulli number B_m with B_1 = +1/2, cached.

    B_m solves sum_{k=0}^{m} C(m+1, k)*B_k = m + 1 over the cached B_k,
    k < m, asked for in ascending k, so a cold call recurses one level.
    That sign convention makes the power-sum closed forms include the
    upper endpoint, matching sums of the form sum_{k=1}^{n}.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    lower = sum(math.comb(m + 1, k) * bernoulli_number(k) for k in range(m))
    return Fraction(m + 1 - lower, m + 1)


@lru_cache(maxsize=None)
def _bernoulli_weights(top: int) -> tuple:
    """``(R, weights)``: the weights B_i/i, i = 1..top, as integers over R, cached per top.

    R is the lcm of i*den(B_i) over the nonzero B_i, and weight i is
    B_i/i*R, so q_i = weight_i*s_i/(R*M) in ``_width_polynomial``; top is
    the degree of f, so the cache holds one row per degree.
    """
    bernoulli = [bernoulli_number(i) for i in range(1, top + 1)]
    scale = math.lcm(*[b.denominator * i for i, b in enumerate(bernoulli, 1) if b])
    return scale, tuple(
        [b.numerator * (scale // (b.denominator * i)) for i, b in enumerate(bernoulli, 1)]
    )


@lru_cache(maxsize=None)
def faulhaber(p: int) -> Polynomial:
    """Closed form S_p with S_p(n) = sum_{k=1}^{n} k^p; degree p+1, no constant term."""
    if p < 0:
        raise ValueError("p must be >= 0")
    coeffs = [Fraction(0)] * (p + 2)
    for j in range(p + 1):
        coeffs[p + 1 - j] = Fraction(math.comb(p + 1, j), p + 1) * bernoulli_number(j)
    return Polynomial(coeffs)


class UniformRiemannSum(namedtuple("UniformRiemannSum", "integrand partition_count value")):
    """A right-endpoint sum of f over a uniform partition of [0, 1] into nu panels."""

    __slots__ = ()

    def __new__(cls, integrand: Polynomial, partition_count: Gossamer, value: Gossamer):
        _require_infinite(partition_count)
        return super().__new__(cls, integrand, partition_count, value)

    @classmethod
    def _make(cls, iterable):
        """A record from a sequence, through ``__new__``, so ``_replace`` checks too."""
        return cls(*iterable)


def _require_infinite(nu: Gossamer) -> None:
    if nu.classify() is not Kind.INFINITE:
        raise ValueError(f"partition count must be infinite, got {nu}")


def _inverse(nu: Gossamer) -> Gossamer:
    """1/nu at nu's floor deepened by nu's leading exponent E.

    Pipeline stages 2 and 3 lift it back up by E, times nu; the deeper
    floor keeps the terms that then reach nu's floor.
    """
    deep = nu.truncation_floor - nu.leading_exponent
    return Gossamer(nu.terms, floor=deep, truncated=nu.truncated).inverse()


def _width_polynomial(f: Polynomial) -> Polynomial:
    """Q_f, built once per f and kept on it (``f._width``), in integer form.

    Q_f is the Euler-Maclaurin polynomial of f in the panel width:
    q_0 = integral_0^1 f and, for i >= 1,
    q_i = B_i/i!*(f^(i-1)(1) - f^(i-1)(0)) = B_i*s_i/(i*M), where
    s_i = sum_{d >= i} a_d*C(d, i-1) over f's numerators a_d and their lcm
    M; q_0 = s_0/(S*M), s_0 = sum_d a_d*S/(d + 1), S the lcm of the d + 1.
    f is read through its integer form (``_integer_form``), skipping its
    zero numerators.  The weights B_i/i, i = 1..deg f, come as integers
    over their lcm R (``_bernoulli_weights``); q_0..q_deg f go over one
    common denominator, and the s_i of a zero weight (odd i >= 3, where
    B_i = 0) are not summed.  Q_f keeps those numerators as its integer
    form (``_from_numerators``), so a reader of the form builds no
    ``Fraction``.
    """
    width = f._width
    if width is None:
        common, numerators = _integer_form(f)
        terms = [(d, a) for d, a in enumerate(numerators) if a]
        spans = math.lcm(*[d + 1 for d, _ in terms])
        weight_scale, weights = _bernoulli_weights(len(numerators) - 1)
        scale = math.lcm(spans, weight_scale)
        q = [sum([a * (scale // (d + 1)) for d, a in terms])]
        lift = scale // weight_scale
        for i, w in enumerate(weights, 1):
            q.append(w * lift * sum([a * math.comb(d, i - 1) for d, a in terms if d >= i]) if w else 0)
        width = f._width = _from_numerators(scale * common, q)
    return width


def uniform_riemann_sum(f: Polynomial, nu: Optional[Gossamer] = None) -> UniformRiemannSum:
    """Evaluate sum_{j=1}^{nu} f(j/nu)*(1/nu) exactly, as a polynomial Q_f in the width 1/nu.

    Q_f is the Euler-Maclaurin polynomial: q_0 is the integral of f over
    [0, 1] and q_i = B_i/i!*(f^(i-1)(1) - f^(i-1)(0)), B_1 = +1/2, built
    once per f in integers and kept on it (``_width_polynomial``).  At
    nu = c*w^e + k, k an integer, Q_f(1/nu) is read off Q_f's numerators
    with no series inverse (``polynomial._at_reciprocal``); any other nu
    takes Horner's rule over ``nu.inverse()``.  Powers of 1/nu lead with
    negative exponents, so every term kept above the floor is exact.
    ``conjecture_probe`` reads the same Q_f at 1/n for a finite n.
    """
    nu = omega() if nu is None else nu
    _require_infinite(nu)
    q = _width_polynomial(f)
    form = _monomial_plus_integer(nu.terms)
    if form is None:
        value = _horner(q.coefficients, nu.inverse())
    else:
        value = _at_reciprocal(q, nu, *form)
    return UniformRiemannSum(f, nu, value)


def riemann_limit(f: Polynomial) -> Fraction:
    """Standard part of the uniform sum at the canonical infinite count."""
    return uniform_riemann_sum(f, omega()).value.standard_part()


class RiemannRemainder(NamedTuple):
    c: Gossamer
    valid: bool


def riemann_remainder(s: UniformRiemannSum) -> RiemannRemainder:
    """The gap c between a uniform sum and the integral of its integrand over [0, 1].

    Valid when c vanishes or is negligible against both sides, which is
    the decomposition behind treating the sum and the integral as
    asymptotically equal.
    """
    total = s.value
    integral = Gossamer.from_rational(s.integrand.integrate(0, 1))
    if not total or not integral:
        raise ZeroMagnitudeError("remainder decomposition needs nonzero sum and integral")
    c = total - integral
    valid = (not c) or (c.much_less(total) and c.much_less(integral))
    return RiemannRemainder(c, valid)


def integrability_check(f: Polynomial, nu: Optional[Gossamer] = None) -> bool:
    """Whether the scaled integral and the unscaled sum share their leading term.

    They are nu times the integral and the uniform sum, and scaling by nu
    keeps leading terms, so this is the validity of the remainder.
    """
    return riemann_remainder(uniform_riemann_sum(f, nu)).valid


def panel_asymptotic(f: Polynomial, nu: Gossamer, j: Union[RationalLike, Gossamer]) -> bool:
    """Single-panel comparison: integral of f(x/nu) over [j, j+1] against f(j/nu).

    For j = a*nu + b (a = 0 at a rational j) and t = 1/nu, the sample
    f(a + b*t) and the integral nu*(F(a + (b+1)*t) - F(a + b*t)), F' = f,
    are polynomials in t that lead at t^m, m the order of f's zero at a, as
    tau*b^m and tau*((b+1)^(m+1) - b^(m+1))/(m+1), tau = f^(m)(a)/m!.  So
    they are asymptotic, at every infinite nu and any floor, exactly when f
    is zero or those rationals agree: at infinite j, not always at finite j.
    Report-only.  A j whose j - a*nu is not a finite rational is a ValueError.
    """
    _require_infinite(nu)
    if not isinstance(j, Gossamer):
        a, b = Fraction(0), Fraction(j)
    else:
        a = j.coefficient(nu.leading_exponent) / nu.leading_coefficient
        rest, scaled = dict(j.terms), {e: a * c for e, c in nu.terms} if a else {}
        b = Fraction(rest.pop(0, 0) - scaled.pop(0, 0))
        if j.truncated or rest != scaled:
            raise ValueError(f"panel index must be a*nu + b with a and b rational, got {j}")
    if f.is_zero:
        return True
    order, derivative = 0, f
    while not derivative.evaluate(a):
        order, derivative = order + 1, derivative.derivative()
    return b**order == ((b + 1) ** (order + 1) - b ** (order + 1)) / (order + 1)


class PipelineStage(NamedTuple):
    stage: int
    expression: str
    value: Gossamer


class PipelineTrace(NamedTuple):
    stages: tuple[PipelineStage, ...]
    remainder: Gossamer
    remainder_negligible: Optional[bool]


def definite_to_sum_pipeline(f: Polynomial, nu: Optional[Gossamer] = None) -> PipelineTrace:
    """The four-stage chain from a definite integral to a uniform sum.

    Stages 1-3 are the integral in its plain, substituted and
    scaled-out forms and agree exactly; stage 4 is the sum, which
    differs by a remainder negligible against the rest.  The verdict is
    True for a zero remainder and None for a nonzero one against a zero
    integral, which it cannot be negligible against.
    """
    nu = omega() if nu is None else nu
    _require_infinite(nu)
    inv_nu = _inverse(nu)
    plain = Gossamer.from_rational(f.integrate(0, 1), floor=nu.truncation_floor)
    # Stage 3 is G(nu)/nu, G(x) = x*M(x/nu) = nu*F(x/nu), M(y) = F(y)/y; nu sits
    # at inv_nu's deep floor, as G lifts x/nu by up to nu's leading exponent.
    mean = Polynomial(f.antiderivative().coefficients[1:])
    deep_nu = Gossamer(nu.terms, floor=inv_nu.truncation_floor, truncated=nu.truncated)
    scaled = (deep_nu * mean.evaluate(deep_nu * inv_nu) * inv_nu).realize(nu.truncation_floor)
    total = uniform_riemann_sum(f, nu).value
    stages = (
        PipelineStage(1, "integral_0^1 f(x) dx", plain),
        PipelineStage(2, "integral_0^nu f(x/nu) d(x/nu)", f.integrate(0, nu * inv_nu)),
        PipelineStage(3, "integral_0^nu f(x/nu) (1/nu) dx", scaled),
        PipelineStage(4, "sum_{j=1}^{nu} f(j/nu) (1/nu)", total),
    )
    remainder = total - scaled
    if not scaled and (remainder or remainder.truncated):
        negligible = None
    else:
        negligible = not remainder or remainder.much_less(scaled)
    return PipelineTrace(stages, remainder, negligible)


def divergent_integral_via_sum(p: int, n_symbol: Gossamer) -> Gossamer:
    """Leading behaviour of integral_1^n x^p dx at infinite n, via the sum route.

    Scales the range onto [0, 1], takes the standard part of the uniform
    sum there, and scales back: n^{p+1}/(p+1).  Asymptotic to the exact
    integral, whose lower-order endpoint term it discards.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    _require_infinite(n_symbol)
    unit_limit = riemann_limit(Polynomial.monomial(p))
    return (n_symbol ** (p + 1)) * unit_limit


class ConjectureProbe(NamedTuple):
    uniform_value: Fraction
    tagged_value: Fraction
    gap: Fraction


def conjecture_probe(
    f: Polynomial, partition: Sequence[RationalLike], n: int
) -> ConjectureProbe:
    """Exact uniform n-panel sum against n panels on each piece of a partition.

    The refined sum is the uniform sum of sum_pieces (hi - lo)*f(lo + (hi - lo)y),
    and each is its Euler-Maclaurin polynomial Q in the width, as in
    ``uniform_riemann_sum``, read at 1/n.  Reported, never asserted.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    cuts = [Fraction(q) for q in partition]
    for prev, cur in zip(cuts, cuts[1:]):
        if cur <= prev:
            raise ValueError("partition must be strictly increasing")
    if cuts and (cuts[0] <= 0 or cuts[-1] >= 1):
        raise ValueError("partition points must lie strictly inside (0, 1)")
    refined = sum(
        (hi - lo) * f.compose(Polynomial((lo, hi - lo)))
        for lo, hi in zip([0] + cuts, cuts + [1])
    )
    widths = (_width_polynomial(g) for g in (f, refined))
    uniform, tagged = (q.evaluate(Fraction(1, n)) for q in widths)
    return ConjectureProbe(uniform, tagged, abs(uniform - tagged))
