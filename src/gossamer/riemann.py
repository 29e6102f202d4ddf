"""Uniform Riemann sums and scaled integrals in closed form at an infinite count.

The sum over j of f(j/nu)*(1/nu) is never iterated: the power-sum
closed forms fold it into one rational polynomial Q_f in the panel width
1/nu (the Euler-Maclaurin form), evaluated once at 1/nu; its standard
part, Q_f(0), is the integral and its lower-order terms the remainder.
The fold adds integer numerators over one lcm of every denominator of
the cached ``faulhaber`` rows, whose Bernoulli numbers come cached from
their defining recurrence.
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
from typing import NamedTuple, Optional, Sequence

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


def _power_sum_fold(coefficients: tuple, row, reflect: bool) -> Polynomial:
    """sum_d c_d*S_d with S_d = row(d) (``faulhaber``): c_d*s_{d,m} in slot m gives G.

    Reflected, S_d's d + 2 coefficients reversed, it goes in slot d + 1 - m: Q_f.
    The fold runs over integers: with c_d = a_d/b_d and S_d's numerators N_d
    over their lcm D_d, a_d*(L/(b_d*D_d))*N_d goes into the slots, L the lcm
    of every b_d*D_d, and each slot becomes one ``Fraction`` over L.
    """
    rows = [(c, *_common_numerators(row(degree).coefficients))
            for degree, c in enumerate(coefficients) if c]
    common = math.lcm(*[c.denominator * d for c, d, _ in rows])
    slots = [0] * (len(coefficients) + 1)
    for c, d, numerators in rows:
        scale = c.numerator * (common // (c.denominator * d))
        for slot, n in enumerate(numerators[::-1] if reflect else numerators):
            slots[slot] += scale * n
    return Polynomial._make([Fraction(s, common) for s in slots])


def uniform_riemann_sum(f: Polynomial, nu: Optional[Gossamer] = None) -> UniformRiemannSum:
    """Evaluate sum_{j=1}^{nu} f(j/nu)*(1/nu) exactly, as a polynomial Q_f in the width 1/nu.

    With S_d(n) = sum_m s_{d,m} n^m the sum is sum_d c_d S_d(nu)/nu^(d+1),
    so Q_f has coefficients q_i = sum_{d >= i} c_d s_{d,d+1-i}, summed as
    integer numerators over one lcm (``_power_sum_fold``).  At
    nu = c*w^e + k, k an integer, 1/nu = t/(1 + k*t) with t = w^-e/c, and
    each term of Q_f(1/nu) is a binomial sum of Q_f's integer numerators;
    any other nu takes Horner's rule over ``nu.inverse()``.  Powers of 1/nu
    lead with negative exponents, so every term kept above the floor is
    exact.  ``conjecture_probe`` reads the same Q_f at 1/n for a finite n.
    """
    nu = omega() if nu is None else nu
    _require_infinite(nu)
    q_f = _power_sum_fold(f.coefficients, faulhaber, reflect=True)
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


def panel_asymptotic(f: Polynomial, nu: Gossamer, j: Gossamer) -> bool:
    """Single-panel comparison: integral of f(x/nu) over [j, j+1] against f(j/nu).

    The integral is nu*F(x/nu) at j+1 minus at j, F the antiderivative.
    It holds for infinite j but can fail for finite j, where the panel
    integral and the sample have equal order yet different leading
    coefficients; report-only, never asserted globally.
    """
    _require_infinite(nu)
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
    and each is its polynomial Q in the width, as in ``uniform_riemann_sum``,
    read at 1/n.  Reported, never asserted.
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
    widths = (_power_sum_fold(g.coefficients, faulhaber, reflect=True) for g in (f, refined))
    uniform, tagged = (q.evaluate(Fraction(1, n)) for q in widths)
    return ConjectureProbe(uniform, tagged, abs(uniform - tagged))
