"""Uniform Riemann sums and scaled integrals in closed form at an infinite count.

The sum over j of f(j/nu)*(1/nu) is never iterated: it is one rational
polynomial Q_f in the panel width 1/nu, the Euler-Maclaurin form,
evaluated once at 1/nu; its standard part, Q_f(0), is the integral and
its lower-order terms the remainder.  Q_f's coefficients come from f's
integer numerators and the cached Bernoulli numbers, which solve their
defining recurrence; the ``faulhaber`` rows serve the sums module.
At nu = c*w^e + k (k an integer) Q_f(1/nu) is read off Q_f's integer
numerators by the binomial series of 1/nu, with no series inverse.
An integral of f(x/nu) is nu*F(x/nu) between its endpoints, F' = f.
A finite count n reads Q_f at 1/n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from .core import Gossamer, Kind, RationalLike, ZeroMagnitudeError, _common_numerators, omega
from .polynomial import Polynomial, _at_reciprocal

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
def faulhaber(p: int) -> Polynomial:
    """Closed form S_p with S_p(n) = sum_{k=1}^{n} k^p; degree p+1, no constant term."""
    if p < 0:
        raise ValueError("p must be >= 0")
    coeffs = [Fraction(0)] * (p + 2)
    for j in range(p + 1):
        coeffs[p + 1 - j] = Fraction(math.comb(p + 1, j), p + 1) * bernoulli_number(j)
    return Polynomial(coeffs)


@dataclass(frozen=True)
class UniformRiemannSum:
    """A right-endpoint sum of f over a uniform partition of [0, 1] into nu panels."""

    integrand: Polynomial
    partition_count: Gossamer
    value: Gossamer

    def __post_init__(self):
        _require_infinite(self.partition_count)


def _require_infinite(nu: Gossamer) -> None:
    if nu.classify() is not Kind.INFINITE:
        raise ValueError(f"partition count must be infinite, got {nu}")


def _inverse(nu: Gossamer) -> Gossamer:
    """1/nu at nu's floor deepened by nu's leading exponent E.

    Callers lift it back up by up to E (times a panel index near nu, or nu
    itself); the deeper floor keeps the terms that then reach nu's floor.
    """
    deep = nu.truncation_floor - nu.leading_exponent
    return Gossamer(nu.terms, floor=deep, truncated=nu.truncated).inverse()


def _width_polynomial(coefficients: tuple) -> Polynomial:
    """Q_f, the Euler-Maclaurin polynomial of f in the panel width.

    q_0 = integral_0^1 f and, for i >= 1,
    q_i = B_i/i!*(f^(i-1)(1) - f^(i-1)(0)) = B_i*sum_{d >= i} c_d*C(d, i-1)/i.
    With c_d = a_d/L over one lcm L, q_0 is one ``Fraction`` over L times the
    lcm of the d + 1, and each q_i one ``Fraction`` over B_i's denominator
    times i*L; odd i >= 3 have B_i = 0.
    """
    common, numerators = _common_numerators(coefficients)
    terms = [(d, a) for d, a in enumerate(numerators) if a]
    spans = math.lcm(*[d + 1 for d, _ in terms])
    q = [Fraction(sum(a * (spans // (d + 1)) for d, a in terms), spans * common)]
    for i in range(1, len(coefficients)):
        b = bernoulli_number(i)
        moment = sum(a * math.comb(d, i - 1) for d, a in terms if d >= i) if b else 0
        q.append(Fraction(b.numerator * moment, b.denominator * i * common))
    return Polynomial._make(q)


def uniform_riemann_sum(f: Polynomial, nu: Optional[Gossamer] = None) -> UniformRiemannSum:
    """Evaluate sum_{j=1}^{nu} f(j/nu)*(1/nu) exactly, as a polynomial Q_f in the width 1/nu.

    Q_f is the Euler-Maclaurin polynomial: q_0 is the integral of f over
    [0, 1] and q_i = B_i/i!*(f^(i-1)(1) - f^(i-1)(0)), B_1 = +1/2, built
    from f's integer numerators over one lcm (``_width_polynomial``).  At
    nu = c*w^e + k, k an integer, 1/nu = t/(1 + k*t) with t = w^-e/c, and
    each term of Q_f(1/nu) is a binomial sum of Q_f's integer numerators;
    any other nu takes Horner's rule over ``nu.inverse()``.  Powers of 1/nu
    lead with negative exponents, so every term kept above the floor is
    exact.  ``conjecture_probe`` reads the same Q_f at 1/n for a finite n.
    """
    nu = omega() if nu is None else nu
    _require_infinite(nu)
    q_f = _width_polynomial(f.coefficients)
    return UniformRiemannSum(f, nu, _at_reciprocal(q_f.coefficients, nu))


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


def _scaled_integral(f: Polynomial, inv_nu: Gossamer, lo: Gossamer, hi: Gossamer) -> Gossamer:
    """integral_lo^hi f(x/nu) dx = G(hi) - G(lo), G(x) = x*M(x/nu) = nu*F(x/nu).

    M(y) = F(y)/y = sum_d c_d/(d+1) y^d, F the antiderivative of f, is one
    Horner evaluation.  The endpoints sit at inv_nu's deep floor, as G lifts
    x/nu by up to nu's leading exponent; callers realize at nu's floor.
    """
    mean = Polynomial(f.antiderivative().coefficients[1:])

    def primitive(x: Gossamer) -> Gossamer:
        x = Gossamer(x.terms, floor=inv_nu.truncation_floor, truncated=x.truncated)
        return x * mean.evaluate(x * inv_nu)

    return primitive(hi) - primitive(lo)


def integrability_check(f: Polynomial, nu: Optional[Gossamer] = None) -> bool:
    """Whether the scaled integral and the unscaled sum share their leading term.

    They are nu times the integral and the uniform sum, and scaling by nu
    keeps leading terms, so this is the validity of the remainder.
    """
    return riemann_remainder(uniform_riemann_sum(f, nu)).valid


def panel_asymptotic(f: Polynomial, nu: Gossamer, j: Union[RationalLike, Gossamer]) -> bool:
    """Single-panel comparison: integral of f(x/nu) over [j, j+1] against f(j/nu).

    The integral is nu*F(x/nu) at j+1 minus at j, F the antiderivative.
    It holds for infinite j but can fail for finite j, where the panel
    integral and the sample have equal order yet different leading
    coefficients; report-only, never asserted globally.  A rational j is
    taken as its constant series.
    """
    _require_infinite(nu)
    j = j if isinstance(j, Gossamer) else Gossamer.from_rational(Fraction(j))
    inv_nu = _inverse(nu)
    integral = _scaled_integral(f, inv_nu, j, j + 1).realize(nu.truncation_floor)
    sample = f.evaluate(j * inv_nu)
    if not integral or not sample:
        return integral == sample
    return integral.asymptotic_to(sample)


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
    scaled = (_scaled_integral(f, inv_nu, Gossamer(), nu) * inv_nu).realize(nu.truncation_floor)
    total = uniform_riemann_sum(f, nu).value
    stages = (
        PipelineStage(1, "integral_0^1 f(x) dx", plain),
        PipelineStage(2, "integral_0^nu f(x/nu) d(x/nu)", f.integrate(0, nu * inv_nu)),
        PipelineStage(3, "integral_0^nu f(x/nu) (1/nu) dx", scaled),
        PipelineStage(4, "sum_{j=1}^{nu} f(j/nu) (1/nu)", total),
    )
    remainder = total - scaled
    if not remainder:
        negligible = True
    elif not scaled:
        negligible = None
    else:
        negligible = remainder.much_less(scaled)
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
    widths = (_width_polynomial(g.coefficients) for g in (f, refined))
    uniform, tagged = (q.evaluate(Fraction(1, n)) for q in widths)
    return ConjectureProbe(uniform, tagged, abs(uniform - tagged))
