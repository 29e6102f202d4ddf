"""Step functions and their continuous representations with infinitesimal bridges.

A step function jumps at real breakpoints; replacing each jump by an
interpolant over an interval of infinitesimal half-width makes the curve
continuous without changing any area by more than an infinitesimal --
here, for the symmetric interpolants used, by exactly nothing.  The
bridge collapses back to the original step under transfer to the reals.
Every number a caller passes in is converted by ``core._exact``, so a
float is a TypeError here, as in ``core`` and ``polynomial``.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Tuple, Union

from .core import Gossamer, Kind, NotInfinitesimalError, RationalLike, _exact
from .polynomial import Polynomial

__all__ = [
    "AreaDelta",
    "BridgeShape",
    "DiscontinuityBudget",
    "SHAPE_POLYNOMIALS",
    "SmoothedFunction",
    "StepFunction",
    "area_delta",
    "iverson_step",
    "sample_curve",
    "smooth",
    "smoothed_area",
    "step_sum",
    "transfer_to_real",
    "trapezoid_discontinuity_budget",
]


class StepFunction(namedtuple("StepFunction", "breakpoints levels")):
    """Piecewise-constant function: level ``levels[i]`` holds on (q_i, q_{i+1}].

    The value at a breakpoint is the level to its left, matching the
    strict bracket [x > q] for the unit step.
    """

    __slots__ = ()

    def __new__(cls, breakpoints: Iterable[RationalLike], levels: Iterable[RationalLike]):
        breakpoints = tuple(_exact(q) for q in breakpoints)
        levels = tuple(_exact(y) for y in levels)
        if len(levels) != len(breakpoints) + 1:
            raise ValueError("need exactly one more level than breakpoints")
        for prev, cur in zip(breakpoints, breakpoints[1:]):
            if cur <= prev:
                raise ValueError("breakpoints must be strictly increasing")
        return super().__new__(cls, breakpoints, levels)

    @classmethod
    def _make(cls, iterable):
        """A record from a sequence, through ``__new__``, so ``_replace`` checks too."""
        return cls(*iterable)

    def value_at(self, x: RationalLike) -> Fraction:
        return self.levels[bisect_left(self.breakpoints, _exact(x))]

    def jumps(self) -> Iterator[Tuple[Fraction, Fraction, Fraction]]:
        """(breakpoint, left level, right level) per discontinuity."""
        for i, q in enumerate(self.breakpoints):
            yield q, self.levels[i], self.levels[i + 1]

    def area(self, a: RationalLike, b: RationalLike) -> Fraction:
        """Exact signed area over [a, b]."""
        a, b = _exact(a), _exact(b)
        if a > b:
            raise ValueError(f"empty interval: {a} > {b}")
        cuts = [a] + [q for q in self.breakpoints if a < q < b] + [b]
        total = Fraction(0)
        for lo, hi in zip(cuts, cuts[1:]):
            total += self.value_at(hi) * (hi - lo)
        return total

    def to_json_dict(self) -> dict:
        return {
            "breakpoints": [str(q) for q in self.breakpoints],
            "levels": [str(y) for y in self.levels],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "StepFunction":
        """The step function of ``{"breakpoints": [...], "levels": [...]}``.

        Entries are rationals as strings, or integers.  A float or a boolean
        is a ValueError naming the entry: it stands for no exact rational.
        """
        if not isinstance(data, dict) or set(data) != {"breakpoints", "levels"}:
            raise ValueError("expected an object with 'breakpoints' and 'levels'")
        return cls(_rationals(data, "breakpoints"), _rationals(data, "levels"))

    @classmethod
    def from_json(cls, text: str) -> "StepFunction":
        return cls.from_json_dict(json.loads(text))


def _rationals(data: dict, key: str) -> tuple:
    """The ``Fraction``s of the JSON list ``data[key]``, whose entries are strings or integers."""
    if not isinstance(data[key], list):
        raise ValueError(f"expected {key!r} as a list")
    values = []
    for i, q in enumerate(data[key]):
        if isinstance(q, bool) or not isinstance(q, (str, int)):
            raise ValueError(
                f"{key}[{i}]: expected a rational as a string or an integer, "
                f"got {json.dumps(q, default=repr)}"
            )
        try:
            values.append(Fraction(q))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{key}[{i}]: expected a rational as a string: {exc}") from exc
    return tuple(values)


def iverson_step(q: RationalLike) -> StepFunction:
    """The unit step [x > q]: zero through q, one after."""
    return StepFunction((q,), (0, 1))


def step_sum(steps: Iterable[Tuple[RationalLike, RationalLike]]) -> StepFunction:
    """Superpose weighted unit steps into a single step function.

    Duplicate breakpoints merge by summing weights; zero net jumps drop
    out.  The empty list is the constant zero.
    """
    weights: dict[Fraction, Fraction] = {}
    for q, weight in steps:
        q = _exact(q)
        weights[q] = weights.get(q, Fraction(0)) + _exact(weight)
    breakpoints = sorted(q for q, w in weights.items() if w)
    levels = [Fraction(0)]
    for q in breakpoints:
        levels.append(levels[-1] + weights[q])
    return StepFunction(tuple(breakpoints), tuple(levels))


class BridgeShape(Enum):
    LINEAR = "linear"
    CUBIC_SMOOTHSTEP = "cubic_smoothstep"
    QUINTIC_SMOOTHSTEP = "quintic_smoothstep"


# Interpolants from (0,0) to (1,1); cubic flattens the first derivative at
# the ends, quintic also the second.
SHAPE_POLYNOMIALS = {
    BridgeShape.LINEAR: Polynomial((0, 1)),
    BridgeShape.CUBIC_SMOOTHSTEP: Polynomial((0, 0, 3, -2)),
    BridgeShape.QUINTIC_SMOOTHSTEP: Polynomial((0, 0, 0, 10, -15, 6)),
}


def _require_positive_infinitesimal(eps: Gossamer) -> None:
    if eps.classify() is not Kind.INFINITESIMAL or eps.compare(0) <= 0:
        raise NotInfinitesimalError(
            f"bridge half-width must be a positive infinitesimal, got {eps}"
        )


def _locate(breakpoints: Sequence, x, eps) -> Tuple[int, Union[Gossamer, Fraction, None]]:
    """``(i, t)``: x in bridge i, (q_i - eps, q_i + eps], at fraction t; t None on run i.

    Bridges are disjoint and sorted, so one bisection finds the first
    bridge x does not lie past.
    """
    i = bisect_left(breakpoints, x, key=lambda q: q + eps)
    if i < len(breakpoints):
        lower = breakpoints[i] - eps
        if x > lower:
            return i, (x - lower) / (2 * eps)
    return i, None


def _curve_at(step: StepFunction, shape: BridgeShape, x, eps):
    """levels[i] on run i; levels[i] + rise*s(t) at fraction t of bridge i, s the shape's polynomial.

    x and eps are both series (``SmoothedFunction.value_at``) or both
    ``Fraction``s (a finite stand-in, ``sample_curve``): exact either way.
    """
    levels = step.levels
    i, t = _locate(step.breakpoints, x, eps)
    if t is None:
        return levels[i]
    return levels[i] + (levels[i + 1] - levels[i]) * SHAPE_POLYNOMIALS[shape].evaluate(t)


class SmoothedFunction(namedtuple("SmoothedFunction", "base bridge_shape halfwidth")):
    """A step function with each jump replaced by an interpolant on (q-eps, q+eps]."""

    __slots__ = ()

    def __new__(cls, base: StepFunction, bridge_shape: Union[BridgeShape, str], halfwidth: Gossamer):
        bridge_shape = BridgeShape(bridge_shape)
        _require_positive_infinitesimal(halfwidth)
        return super().__new__(cls, base, bridge_shape, halfwidth)

    @classmethod
    def _make(cls, iterable):
        """A record from a sequence, through ``__new__``, so ``_replace`` checks too."""
        return cls(*iterable)

    def value_at(self, x: Union[RationalLike, Gossamer]) -> Gossamer:
        """Exact value, including inside bridges; continuous across every boundary."""
        floor = self.halfwidth.truncation_floor
        if not isinstance(x, Gossamer):
            x = Gossamer.from_rational(_exact(x), floor=floor)
        y = _curve_at(self.base, self.bridge_shape, x, self.halfwidth)
        return y if isinstance(y, Gossamer) else Gossamer.from_rational(y, floor=floor)


def smooth(
    f: StepFunction, shape: Union[BridgeShape, str], eps: Gossamer
) -> SmoothedFunction:
    """Continuous representation of ``f`` with bridges of half-width ``eps``.

    Bridges cannot overlap: eps is infinitesimal while breakpoint gaps
    are real.
    """
    return SmoothedFunction(f, shape, eps)


def smoothed_area(f2: SmoothedFunction, a: RationalLike, b: RationalLike) -> Gossamer:
    """Exact integral over [a, b]: constant runs plus closed-form bridge integrals."""
    a, b = _exact(a), _exact(b)
    if a > b:
        raise ValueError(f"empty interval: {a} > {b}")
    for q in f2.base.breakpoints:
        if q == a or q == b:
            raise ValueError(f"bridge at {q} crosses an integration boundary")
    eps = f2.halfwidth
    # Exact integral of the interpolant over [0, 1]; 1/2 for all symmetric shapes.
    shape_mean = SHAPE_POLYNOMIALS[f2.bridge_shape].antiderivative().evaluate(Fraction(1))
    total = Gossamer(floor=eps.truncation_floor)
    cursor: Gossamer = Gossamer.from_rational(a, floor=eps.truncation_floor)
    inner = [i for i, q in enumerate(f2.base.breakpoints) if a < q < b]
    for i in inner:
        q = f2.base.breakpoints[i]
        y_lo, y_hi = f2.base.levels[i], f2.base.levels[i + 1]
        total = total + y_lo * ((q - eps) - cursor)
        total = total + 2 * eps * (y_lo + (y_hi - y_lo) * shape_mean)
        cursor = q + eps
    total = total + f2.base.value_at(b) * (b - cursor)
    return total


class AreaDelta(NamedTuple):
    delta: Gossamer
    infinitesimal: bool


def area_delta(
    f: StepFunction, f2: SmoothedFunction, a: RationalLike, b: RationalLike
) -> AreaDelta:
    """Signed area change from smoothing; zero or infinitesimal by construction."""
    delta = smoothed_area(f2, a, b) - f.area(a, b)
    return AreaDelta(delta, delta.classify() in (Kind.ZERO, Kind.INFINITESIMAL))


class DiscontinuityBudget(NamedTuple):
    per_bridge: Tuple[Gossamer, ...]
    total: Gossamer
    infinitesimal: bool


def trapezoid_discontinuity_budget(f: StepFunction, eps: Gossamer) -> DiscontinuityBudget:
    """Trapezoid bound per jump: |rise| * eps + min(levels) * 2*eps.

    The unsigned accounting of the area a bridge can occupy; its total
    over finitely many bounded jumps is infinitesimal.
    """
    _require_positive_infinitesimal(eps)
    per = tuple(
        abs(hi - lo) * eps + min(hi, lo) * (2 * eps) for _, lo, hi in f.jumps()
    )
    total = Gossamer(floor=eps.truncation_floor)
    for piece in per:
        total = total + piece
    return DiscontinuityBudget(
        per, total, total.classify() in (Kind.ZERO, Kind.INFINITESIMAL)
    )


def transfer_to_real(f2: SmoothedFunction) -> StepFunction:
    """Collapse every bridge to width zero, reading each level off the smoothed curve.

    Each run between bridges is sampled at one real point a standard
    distance from every bridge (q_0 - 1, the midpoints, q_last + 1), and
    the standard part of the curve there is the level recovered.
    """
    qs = f2.base.breakpoints
    points = [qs[0] - 1, *((lo + hi) / 2 for lo, hi in zip(qs, qs[1:])), qs[-1] + 1] if qs else [0]
    return StepFunction(qs, tuple(f2.value_at(x).standard_part() for x in points))


def sample_curve(
    step: StepFunction,
    shape: Union[BridgeShape, str],
    halfwidth: RationalLike,
    xs: Iterable[RationalLike],
) -> list[Fraction]:
    """The smoothed curve at each x, exactly, with a finite stand-in half-width.

    The same evaluator as ``SmoothedFunction.value_at``, at a rational
    half-width in place of the infinitesimal one; for plotting.
    """
    halfwidth = _exact(halfwidth)
    if halfwidth <= 0:
        raise ValueError("stand-in half-width must be positive")
    shape = BridgeShape(shape)
    return [_curve_at(step, shape, _exact(x), halfwidth) for x in xs]
