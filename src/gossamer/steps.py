"""Step functions and their continuous representations with infinitesimal bridges.

A step function jumps at real breakpoints; replacing each jump by an
interpolant over an interval of infinitesimal half-width makes the curve
continuous without changing any area by more than an infinitesimal --
here, for the symmetric interpolants used, by exactly nothing.  The
bridge collapses back to the original step under transfer to the reals.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Tuple, Union

from .core import Gossamer, Kind, NotInfinitesimalError, RationalLike
from .polynomial import Polynomial

__all__ = [
    "AreaDelta",
    "BridgeShape",
    "DiscontinuityBudget",
    "LOGISTIC_SHAPE",
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


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function: level ``levels[i]`` holds on (q_i, q_{i+1}].

    The value at a breakpoint is the level to its left, matching the
    strict bracket [x > q] for the unit step.
    """

    breakpoints: Tuple[Fraction, ...]
    levels: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(Fraction(q) for q in self.breakpoints))
        object.__setattr__(self, "levels", tuple(Fraction(y) for y in self.levels))
        if len(self.levels) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more level than breakpoints")
        for prev, cur in zip(self.breakpoints, self.breakpoints[1:]):
            if cur <= prev:
                raise ValueError("breakpoints must be strictly increasing")

    def value_at(self, x: RationalLike) -> Fraction:
        return self.levels[bisect_left(self.breakpoints, Fraction(x))]

    def jumps(self) -> Iterator[Tuple[Fraction, Fraction, Fraction]]:
        """(breakpoint, left level, right level) per discontinuity."""
        for i, q in enumerate(self.breakpoints):
            yield q, self.levels[i], self.levels[i + 1]

    def area(self, a: RationalLike, b: RationalLike) -> Fraction:
        """Exact signed area over [a, b]."""
        a, b = Fraction(a), Fraction(b)
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
    return StepFunction((Fraction(q),), (Fraction(0), Fraction(1)))


def step_sum(steps: Iterable[Tuple[RationalLike, RationalLike]]) -> StepFunction:
    """Superpose weighted unit steps into a single step function.

    Duplicate breakpoints merge by summing weights; zero net jumps drop
    out.  The empty list is the constant zero.
    """
    weights: dict[Fraction, Fraction] = {}
    for q, weight in steps:
        q = Fraction(q)
        weights[q] = weights.get(q, Fraction(0)) + Fraction(weight)
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

# Float-sampling-only s-curve (no rational integral, so no exact-area claims).
LOGISTIC_SHAPE = "logistic"


def _require_positive_infinitesimal(eps: Gossamer) -> None:
    if eps.classify() is not Kind.INFINITESIMAL or eps.compare(0) <= 0:
        raise NotInfinitesimalError(
            f"bridge half-width must be a positive infinitesimal, got {eps}"
        )


def _locate(breakpoints: Sequence, x, eps) -> Tuple[int, Union[Gossamer, float, None]]:
    """``(i, t)``: x in bridge i, (q_i - eps, q_i + eps], at fraction t; t None on run i.

    Bridges are disjoint and sorted, so one bisection finds the first
    bridge x does not lie past.  x and eps are both exact or both floats.
    """
    i = bisect_left(breakpoints, x, key=lambda q: q + eps)
    if i < len(breakpoints):
        lower = breakpoints[i] - eps
        if x > lower:
            return i, (x - lower) / (2 * eps)
    return i, None


@dataclass(frozen=True)
class SmoothedFunction:
    """A step function with each jump replaced by an interpolant on (q-eps, q+eps]."""

    base: StepFunction
    bridge_shape: BridgeShape
    halfwidth: Gossamer

    def __post_init__(self):
        if not isinstance(self.bridge_shape, BridgeShape):
            object.__setattr__(self, "bridge_shape", BridgeShape(self.bridge_shape))
        _require_positive_infinitesimal(self.halfwidth)

    def value_at(self, x: Union[RationalLike, Gossamer]) -> Gossamer:
        """Exact value, including inside bridges; continuous across every boundary."""
        if not isinstance(x, Gossamer):
            x = Gossamer.from_rational(Fraction(x), floor=self.halfwidth.truncation_floor)
        levels = self.base.levels
        i, t = _locate(self.base.breakpoints, x, self.halfwidth)
        if t is None:
            return Gossamer.from_rational(levels[i], floor=self.halfwidth.truncation_floor)
        rise = levels[i + 1] - levels[i]
        return levels[i] + rise * SHAPE_POLYNOMIALS[self.bridge_shape].evaluate(t)


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
    a, b = Fraction(a), Fraction(b)
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


def _logistic(t: float) -> float:
    # Steepness 8 reaches the endpoints to within 3e-4 over [0, 1].
    return 1.0 / (1.0 + math.exp(-8.0 * (2.0 * t - 1.0)))


def sample_curve(
    step: StepFunction,
    shape: Union[BridgeShape, str],
    halfwidth: float,
    xs: Sequence[float],
) -> list[float]:
    """Float samples of the smoothed curve at a finite stand-in half-width.

    For plotting only; accepts the logistic s-curve alongside the exact
    shapes.
    """
    if halfwidth <= 0:
        raise ValueError("stand-in half-width must be positive")
    if shape == LOGISTIC_SHAPE:
        interp = _logistic
    else:
        poly = SHAPE_POLYNOMIALS[BridgeShape(shape)]
        interp = poly.evaluate
    breakpoints = [float(q) for q in step.breakpoints]
    levels = [float(y) for y in step.levels]
    located = (_locate(breakpoints, x, halfwidth) for x in xs)
    return [
        levels[i] if t is None else levels[i] + (levels[i + 1] - levels[i]) * float(interp(t))
        for i, t in located
    ]
