"""Step functions, infinitesimal bridges, and exact area accounting."""
import re
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gossamer import (
    BridgeShape,
    Gossamer,
    NotInfinitesimalError,
    SmoothedFunction,
    StepFunction,
    area_delta,
    iverson_step,
    omega,
    sample_curve,
    smooth,
    smoothed_area,
    step_sum,
    transfer_to_real,
    trapezoid_discontinuity_budget,
)
from gossamer.steps import SHAPE_POLYNOMIALS
from strategies import step_functions

EPS = omega(-1)
SHAPES = tuple(BridgeShape)

PRIME_STEPS = [(2, 1), (3, 1), (5, 1), (7, 1)]

# Each shape's s(1/4) and s(3/4), worked by hand from its polynomial: the
# values a bridge takes at q - eps/2 and q + eps/2, where only the shape counts.
QUARTERS = {
    BridgeShape.LINEAR: (Fraction(1, 4), Fraction(3, 4)),
    BridgeShape.CUBIC_SMOOTHSTEP: (Fraction(5, 32), Fraction(27, 32)),
    BridgeShape.QUINTIC_SMOOTHSTEP: (Fraction(53, 512), Fraction(459, 512)),
}


class TestStepFunction:
    def test_iverson_strict_at_breakpoint(self):
        step = iverson_step(2)
        assert step.value_at(2) == 0  # [x > q] is strict
        assert step.value_at(3) == 1
        assert step.value_at(Fraction(3, 2)) == 0

    def test_prime_counting_superposition(self):
        pi = step_sum(PRIME_STEPS)
        assert pi.value_at(6) == 3  # primes <= 6: 2, 3, 5
        assert pi.value_at(10) == 4

    def test_empty_superposition(self):
        zero = step_sum([])
        assert zero.value_at(17) == 0
        assert zero.breakpoints == ()

    def test_duplicate_breakpoints_merge(self):
        doubled = step_sum([(1, 1), (1, 1)])
        assert doubled.breakpoints == (Fraction(1),)
        assert doubled.levels == (0, 2)

    def test_zero_weight_drops_out(self):
        flat = step_sum([(1, 1), (1, -1)])
        assert flat.breakpoints == ()

    def test_invariants(self):
        with pytest.raises(ValueError):
            StepFunction((1, 1), (0, 1, 2))  # not strictly increasing
        with pytest.raises(ValueError):
            StepFunction((1,), (0,))  # levels too short


# A caller's float at each entry point that converts numbers: it stands for
# no exact rational, so none takes it as its binary fraction (0.1 would break
# at 3602879701896397/36028797018963968).
FLOAT_INPUTS = {
    "breakpoint": lambda: StepFunction((0.1,), (0, 1)),
    "level": lambda: StepFunction((0,), (0, 0.5)),
    "value-at": lambda: iverson_step(0).value_at(0.5),
    "area-from": lambda: iverson_step(0).area(-1.0, 1),
    "area-to": lambda: iverson_step(0).area(-1, 1.0),
    "iverson-step": lambda: iverson_step(0.1),
    "step-sum-breakpoint": lambda: step_sum([(0.1, 1)]),
    "step-sum-weight": lambda: step_sum([(0, 0.5)]),
    "smoothed-value-at": lambda: smooth(iverson_step(0), "linear", EPS).value_at(0.5),
    "smoothed-area-from": lambda: smoothed_area(smooth(iverson_step(0), "linear", EPS), -1.0, 1),
    "smoothed-area-to": lambda: smoothed_area(smooth(iverson_step(0), "linear", EPS), -1, 1.0),
    "sample-curve-point": lambda: sample_curve(iverson_step(0), "linear", Fraction(1, 4), [0.1]),
    "halfwidth": lambda: sample_curve(iverson_step(0), "linear", 0.25, [0]),
}


@pytest.mark.parametrize("case", FLOAT_INPUTS)
def test_a_float_is_a_type_error(case):
    with pytest.raises(TypeError, match="^expected an exact rational, got float "):
        FLOAT_INPUTS[case]()


class TestArea:
    def test_heavyside(self):
        assert iverson_step(0).area(-1, 1) == 1

    def test_prime_step(self):
        # Oracle: piecewise lengths times levels:
        # 0*2 + 1*1 + 2*2 + 3*2 + 4*3 = 23.
        assert step_sum(PRIME_STEPS).area(0, 10) == 23

    def test_degenerate(self):
        assert step_sum(PRIME_STEPS).area(4, 4) == 0

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            iverson_step(0).area(1, -1)


class TestSmooth:
    def test_linear_ramp_slope(self):
        smoothed = smooth(iverson_step(0), BridgeShape.LINEAR, EPS)
        rise = smoothed.value_at(EPS) - smoothed.value_at(-1 * EPS)
        assert rise / (2 * EPS) == Gossamer.parse("1/2*w")  # slope 1/(2*eps)

    def test_constant_unchanged(self):
        flat = StepFunction((), (Fraction(5),))
        smoothed = smooth(flat, "linear", EPS)
        assert smoothed.value_at(123) == 5
        assert transfer_to_real(smoothed) == flat

    def test_shape_aliases(self):
        assert smooth(iverson_step(0), "cubic_smoothstep", EPS).bridge_shape is (
            BridgeShape.CUBIC_SMOOTHSTEP
        )

    def test_eps_validation(self):
        with pytest.raises(NotInfinitesimalError):
            smooth(iverson_step(0), "linear", Gossamer.from_rational(1, floor=-16))
        with pytest.raises(NotInfinitesimalError):
            smooth(iverson_step(0), "linear", -1 * EPS)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_exact_continuity_at_bridge_ends(self, shape):
        step = StepFunction((0, 2), (Fraction(1), Fraction(3), Fraction(-2)))
        smoothed = smooth(step, shape, EPS)
        for q, lo, hi in step.jumps():
            q = Gossamer.from_rational(q)
            assert smoothed.value_at(q - EPS) == lo
            assert smoothed.value_at(q + EPS) == hi
            assert smoothed.value_at(q) == Fraction(lo + hi, 2)  # symmetric midpoint

    def test_differentiability_grading(self):
        linear = SHAPE_POLYNOMIALS[BridgeShape.LINEAR].derivative()
        cubic = SHAPE_POLYNOMIALS[BridgeShape.CUBIC_SMOOTHSTEP].derivative()
        quintic = SHAPE_POLYNOMIALS[BridgeShape.QUINTIC_SMOOTHSTEP].derivative()
        # Linear: one-sided slopes disagree with the flat neighbours.
        assert linear.evaluate(Fraction(0)) != 0
        # Cubic: first derivative flattens at both ends, second does not.
        assert cubic.evaluate(Fraction(0)) == cubic.evaluate(Fraction(1)) == 0
        assert cubic.derivative().evaluate(Fraction(0)) != 0
        # Quintic: first and second derivatives flatten at both ends.
        assert quintic.evaluate(Fraction(0)) == quintic.evaluate(Fraction(1)) == 0
        assert quintic.derivative().evaluate(Fraction(0)) == 0
        assert quintic.derivative().evaluate(Fraction(1)) == 0


class TestSmoothedArea:
    def test_heavyside_area_preserved_exactly(self):
        q = Fraction(1, 2)
        smoothed = smooth(iverson_step(q), "linear", EPS)
        assert smoothed_area(smoothed, q - 1, q + 1) == 1

    def test_bridge_triangle_area(self):
        # The area the ramp adds above the lower level over the bridge is
        # the triangle (1/2) * 2*eps * jump = eps for the unit step.
        smoothed = smooth(iverson_step(0), "linear", EPS)
        over_bridge = smoothed_area(smoothed, -1, 1) - smoothed_area(
            smooth(StepFunction((), (Fraction(0),)), "linear", EPS), -1, 1
        )
        assert over_bridge == 1  # total equals the step's own area
        ramp_only = smoothed_area(smoothed, -1, 1) - 1 * (1 - EPS)  # steady part after q+eps
        assert ramp_only == EPS  # the triangle 1/2 * 2eps * 1

    @pytest.mark.parametrize("shape", SHAPES)
    def test_symmetric_bridge_mean(self, shape):
        # All three interpolants integrate to 1/2 over [0, 1], so a bridge
        # contributes 2*eps*y_left + eps*jump.
        mean = SHAPE_POLYNOMIALS[shape].antiderivative().evaluate(Fraction(1))
        assert mean == Fraction(1, 2)

    def test_boundary_crossing_rejected(self):
        smoothed = smooth(iverson_step(0), "linear", EPS)
        with pytest.raises(ValueError):
            smoothed_area(smoothed, 0, 1)
        with pytest.raises(ValueError):
            smoothed_area(smoothed, -1, 0)


class TestAreaDelta:
    def test_heavyside(self):
        step = iverson_step(0)
        result = area_delta(step, smooth(step, "linear", EPS), -1, 1)
        assert result.delta == 0
        assert result.infinitesimal

    def test_staircase(self):
        step = StepFunction((0, 1), (Fraction(0), Fraction(1), Fraction(3)))
        result = area_delta(step, smooth(step, "linear", EPS), -1, 2)
        assert result.delta == 0
        assert result.infinitesimal

    def test_quintic(self):
        step = iverson_step(0)
        result = area_delta(step, smooth(step, "quintic_smoothstep", EPS), -2, 2)
        assert result.delta == 0
        assert result.infinitesimal


class TestBudget:
    def test_heavyside(self):
        budget = trapezoid_discontinuity_budget(iverson_step(0), EPS)
        assert budget.per_bridge == (EPS,)  # 1*eps + 0*2eps
        assert budget.total == EPS
        assert budget.infinitesimal

    def test_staircase(self):
        step = StepFunction((0, 1), (Fraction(0), Fraction(1), Fraction(3)))
        budget = trapezoid_discontinuity_budget(step, EPS)
        assert budget.per_bridge == (EPS, 4 * EPS)  # (1*eps, 2*eps + 1*2*eps)
        assert budget.total == 5 * EPS
        assert budget.infinitesimal

    def test_no_discontinuities(self):
        budget = trapezoid_discontinuity_budget(StepFunction((), (Fraction(2),)), EPS)
        assert budget.total == 0
        assert budget.infinitesimal

    def test_non_infinitesimal_rejected(self):
        with pytest.raises(NotInfinitesimalError):
            trapezoid_discontinuity_budget(iverson_step(0), Gossamer.from_rational(1, floor=-16))


class TestTransfer:
    def test_heavyside_round_trip(self):
        step = iverson_step(Fraction(3, 2))
        assert transfer_to_real(smooth(step, "linear", EPS)) == step

    def test_prime_round_trip_with_area(self):
        pi = step_sum(PRIME_STEPS)
        recovered = transfer_to_real(smooth(pi, "cubic_smoothstep", omega(-2)))
        assert recovered == pi
        assert recovered.area(0, 10) == 23

    @pytest.mark.parametrize("run", [0, 2, 4], ids=["first", "middle", "last"])
    def test_wrong_level_fails_the_round_trip(self, run, monkeypatch):
        # The levels are read off the smoothed curve, so a curve that misses
        # the level of any one run cannot pass.
        step = StepFunction((1, 2, 3, 4), (0, 1, 3, 2, 5))
        exact = SmoothedFunction.value_at

        def skewed(self, x):
            return exact(self, x) + int(bisect_left(step.breakpoints, Fraction(x)) == run)

        monkeypatch.setattr(SmoothedFunction, "value_at", skewed)
        assert transfer_to_real(smooth(step, "linear", EPS)) != step


class TestJson:
    def test_round_trip(self):
        step = StepFunction((Fraction(1, 2), Fraction(3)), (0, 1, 3))
        assert StepFunction.from_json(step.to_json()) == step

    def test_documented_format(self):
        step = StepFunction.from_json('{"breakpoints": ["1/2", "3"], "levels": ["0", "1", "3"]}')
        assert step.breakpoints == (Fraction(1, 2), Fraction(3))

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            StepFunction.from_json('{"breakpoints": ["1/2"]}')
        with pytest.raises(ValueError):
            StepFunction.from_json('{"breakpoints": ["zz"], "levels": ["0", "1"]}')

    def test_integers_are_exact(self):
        step = StepFunction.from_json('{"breakpoints": ["1/2", 3], "levels": [0, "1", -2]}')
        assert step == StepFunction((Fraction(1, 2), Fraction(3)), (0, 1, -2))

    @pytest.mark.parametrize(
        "text, entry",
        [('{"breakpoints": [0.1], "levels": ["0", "1"]}', "breakpoints[0]"),
         ('{"breakpoints": ["1/2"], "levels": [0, true]}', "levels[1]"),
         ('{"breakpoints": [], "levels": [1.0]}', "levels[0]"),
         ('{"breakpoints": [false], "levels": ["0", "1"]}', "breakpoints[0]")],
    )
    def test_floats_and_booleans_rejected(self, text, entry):
        # JSON 0.1 is no exact rational, and true is no number at all.
        with pytest.raises(ValueError, match=rf"^{re.escape(entry)}: expected a rational as a string or an integer"):
            StepFunction.from_json(text)

    def test_entries_must_be_a_list(self):
        # A string would otherwise be read character by character.
        with pytest.raises(ValueError, match="'breakpoints' as a list"):
            StepFunction.from_json('{"breakpoints": "12", "levels": ["0", "1", "2"]}')


class TestSampling:
    def test_linear_profile(self):
        step = iverson_step(0)
        half = Fraction(1, 2)
        ys = sample_curve(step, "linear", half, [-1, -half, 0, half, 1])
        assert ys == [0, 0, half, 1, 1]
        assert all(type(y) is Fraction for y in ys)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_inside_each_bridge_the_shape_sets_the_value(self, shape):
        # Half-width 1/2 at the jump 1 -> 3 at q = 2: t = 1/4 at 7/4, 3/4 at 9/4.
        step = StepFunction((2,), (1, 3))
        quarter, three_quarters = QUARTERS[shape]
        ys = sample_curve(step, shape, Fraction(1, 2), [Fraction(7, 4), Fraction(9, 4)])
        assert ys == [1 + 2 * quarter, 1 + 2 * three_quarters]

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            sample_curve(iverson_step(0), "linear", 0, [0])


# -- invariants -------------------------------------------------------------

epsilon_exponents = st.sampled_from([-1, -2, -5])
shapes = st.sampled_from(SHAPES)


@given(step_functions(), shapes, epsilon_exponents)
def test_area_preservation(step, shape, eps_exp):
    eps = omega(eps_exp)
    smoothed = smooth(step, shape, eps)
    if step.breakpoints:
        a, b = min(step.breakpoints) - 1, max(step.breakpoints) + 1
    else:
        a, b = Fraction(-1), Fraction(1)
    result = area_delta(step, smoothed, a, b)
    assert result.infinitesimal
    assert smoothed_area(smoothed, a, b).standard_part() == step.area(a, b)


@given(step_functions(), shapes, epsilon_exponents)
def test_round_trip_identity(step, shape, eps_exp):
    assert transfer_to_real(smooth(step, shape, omega(eps_exp))) == step


@given(step_functions(), epsilon_exponents, st.integers(1, 9))
def test_budget_lemma(step, eps_exp, scale):
    eps = omega(eps_exp)
    budget = trapezoid_discontinuity_budget(step, eps)
    assert budget.infinitesimal
    scaled = trapezoid_discontinuity_budget(step, scale * eps)
    assert scaled.total == scale * budget.total


@given(step_functions(), shapes)
def test_bridge_continuity(step, shape):
    smoothed = smooth(step, shape, EPS)
    for q, lo, hi in step.jumps():
        q = Gossamer.from_rational(q)
        assert smoothed.value_at(q - EPS) == lo
        assert smoothed.value_at(q + EPS) == hi


@given(step_functions(), shapes, epsilon_exponents)
def test_bridge_inside_follows_the_shape(step, shape, eps_exp):
    eps = omega(eps_exp)
    smoothed = smooth(step, shape, eps)
    quarter, three_quarters = QUARTERS[shape]
    for q, lo, hi in step.jumps():
        q = Gossamer.from_rational(q)
        assert smoothed.value_at(q - eps / 2) == lo + (hi - lo) * quarter
        assert smoothed.value_at(q + eps / 2) == lo + (hi - lo) * three_quarters


@given(step_functions())
def test_json_round_trip(step):
    assert StepFunction.from_json(step.to_json()) == step


def scan_samples(step, shape, halfwidth, xs):
    """Oracle: a linear scan over every breakpoint for each sample, in ``Fraction``s."""
    interp = SHAPE_POLYNOMIALS[BridgeShape(shape)].evaluate
    out = []
    for x in xs:
        for i, q in enumerate(step.breakpoints):
            if x <= q - halfwidth:
                out.append(step.levels[i])
                break
            if x <= q + halfwidth:
                t = (x - (q - halfwidth)) / (2 * halfwidth)
                out.append(step.levels[i] + (step.levels[i + 1] - step.levels[i]) * interp(t))
                break
        else:
            out.append(step.levels[-1])
    return out


@given(
    step_functions(),
    st.sampled_from(SHAPES),
    st.sampled_from([Fraction(1, 100), Fraction(1, 20), Fraction(1, 4), Fraction(1, 3)]),
    st.lists(st.fractions(-40, 40, max_denominator=12), max_size=8),
)
def test_sample_curve_matches_the_breakpoint_scan(step, shape, halfwidth, extra):
    # Every bridge edge q +- hw exactly, its midpoint, and free points.
    edges = [q + d for q in step.breakpoints for d in (-halfwidth, 0, halfwidth)]
    xs = edges + extra
    assert sample_curve(step, shape, halfwidth, xs) == scan_samples(step, shape, halfwidth, xs)
