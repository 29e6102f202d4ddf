"""Polynomial calculus: pinned examples plus the FTC-family invariants."""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gossamer import (
    Gossamer,
    NotInfinitesimalError,
    ParseError,
    Polynomial,
    ftc_inverse_check,
    omega,
    order_swap_demo,
    scale_integral_identity,
    shift_integral_identity,
)
from strategies import polynomials, rationals

H = omega(-1)
X2 = Polynomial.parse("x^2")


class TestEvaluate:
    def test_infinitesimal_argument(self):
        assert X2.evaluate(H) == omega(-2)

    def test_rational_argument(self):
        assert X2.evaluate(Fraction(3)) == 9

    def test_infinite_argument(self):
        assert Polynomial.parse("x^2 + 1").evaluate(omega()) == Gossamer.parse("w^2 + 1")

    def test_float_sum_keeps_the_zero_constant(self):
        # (-1.0)**2 + (-1.0) is -0.0 before the constant 0 is added.
        value = Polynomial.parse("x^2 + x").evaluate(-1.0)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0


# Infinitesimal arguments and the degree floor(floor / e) their powers reach.
HORNER_ARGUMENTS = {
    "w^-1": (omega(-1), 16),
    "w^-1/2": (omega(Fraction(-1, 2)), 32),
    "1/(w+1)": ((omega() + 1).inverse(), 16),
}
HORNER_SHAPES = {
    "above-reach": lambda r: {r + 1: 2, 3: Fraction(-1, 2), 0: 1},
    "far-above-reach": lambda r: {3 * r: 5, r + 4: -1, 1: 1},
    "reach-is-degree": lambda r: {r: 3, 1: 1},
    "all-zero-top": lambda r: {r - 1: Fraction(2, 3), 2: -1},
    "only-above-reach": lambda r: {2 * r: 1, r + 1: -4},
}


@pytest.mark.parametrize("shape", HORNER_SHAPES)
@pytest.mark.parametrize("argument", HORNER_ARGUMENTS)
def test_evaluate_matches_naive_power_sum(argument, shape):
    x, reach = HORNER_ARGUMENTS[argument]
    assert math.floor(x.truncation_floor / x.leading_exponent) == reach
    coeffs = HORNER_SHAPES[shape](reach)
    p = Polynomial([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])
    naive = sum((c * x**i for i, c in enumerate(p.coefficients)), Gossamer(floor=x.truncation_floor))
    naive = naive.realize(x.truncation_floor)
    value = p.evaluate(x)
    assert value.terms == naive.terms
    assert value.truncated is naive.truncated


class TestDerivative:
    def test_cubic_over_three(self):
        assert Polynomial.parse("1/3*x^3").derivative() == X2

    def test_constant(self):
        assert Polynomial.constant(5).derivative() == Polynomial()

    def test_quadratic(self):
        assert Polynomial.parse("x^2 + 2*x").derivative() == Polynomial.parse("2*x + 2")


class TestAntiderivative:
    def test_square(self):
        assert X2.antiderivative() == Polynomial.parse("1/3*x^3")

    def test_zero(self):
        assert Polynomial().antiderivative() == Polynomial()

    def test_linear(self):
        assert Polynomial.parse("2*x + 1").antiderivative() == Polynomial.parse("x^2 + x")


class TestDefiniteIntegral:
    def test_improper_upper_endpoint(self):
        assert X2.integrate(1, omega()) == Gossamer.parse("1/3*w^3 - 1/3")

    def test_unit_interval(self):
        assert X2.integrate(0, 1) == Fraction(1, 3)

    def test_degenerate_interval(self):
        a = Fraction(7, 3)
        assert Polynomial.parse("5*x^3 - x").integrate(a, a) == 0


class TestScaleIdentity:
    def test_example(self):
        # Oracle by hand: lhs = (8-1)/3; rhs = 2 * int_{1/2}^{1} 4v^2 dv = 7/3.
        result = scale_integral_identity(X2, 1, 2, 2)
        assert result.equal and result.lhs == Fraction(7, 3) == result.rhs

    def test_identity_scaling(self):
        result = scale_integral_identity(X2, 0, 1, 1)
        assert result.equal

    def test_half_scale(self):
        result = scale_integral_identity(Polynomial.parse("x"), 0, 1, Fraction(1, 2))
        assert result.equal and result.lhs == Fraction(1, 2)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            scale_integral_identity(X2, 0, 1, 0)


class TestShiftIdentity:
    def test_example(self):
        # Oracle: int_{-1}^{0} (x+1)^2 dx = 1/3.
        result = shift_integral_identity(X2, 0, 1, 1)
        assert result.equal and result.lhs == Fraction(1, 3) == result.rhs

    def test_zero_shift(self):
        assert shift_integral_identity(X2, 0, 1, 0).equal

    def test_odd_symmetry(self):
        result = shift_integral_identity(Polynomial.parse("x^3"), -1, 1, 2)
        assert result.equal and result.lhs == 0


class TestFtcInverse:
    def test_square_at_two(self):
        # Oracle: ((2+h)^3 - 8) / (3h) = 4 + 2h + h^2/3.
        check = ftc_inverse_check(X2, 0, 2, H)
        assert check.difference_quotient == Gossamer.parse("4 + 2*w^-1 + 1/3*w^-2")
        assert check.recovered == 4 == X2.evaluate(Fraction(2))
        assert check.equal

    def test_constant(self):
        check = ftc_inverse_check(Polynomial.constant(7), 0, 5, H)
        assert check.difference_quotient == 7
        assert check.equal

    def test_linear_at_zero(self):
        # Oracle: ((h^2/2) - 0) / h = h/2.
        check = ftc_inverse_check(Polynomial.parse("x"), 0, 0, H)
        assert check.difference_quotient == Gossamer.parse("1/2*w^-1")
        assert check.recovered == 0
        assert check.equal

    def test_non_infinitesimal_rejected(self):
        with pytest.raises(NotInfinitesimalError):
            ftc_inverse_check(X2, 0, 1, omega())
        with pytest.raises(NotInfinitesimalError):
            ftc_inverse_check(X2, 0, 1, Gossamer())


class TestOrderSwap:
    def test_square(self):
        swap = order_swap_demo(X2, 1, H)
        assert swap.h_first == H
        assert swap.n_first == Fraction(1, 3) * H
        assert swap.differ

    def test_constant_immune(self):
        swap = order_swap_demo(Polynomial.constant(1), 3, H)
        assert swap.h_first == swap.n_first == H
        assert not swap.differ

    def test_coincidence(self):
        swap = order_swap_demo(Polynomial.parse("x"), Fraction(1, 2), H)
        assert swap.h_first == swap.n_first == Fraction(1, 2) * H
        assert not swap.differ


def test_hash_agrees_with_eq_for_constants():
    assert len({Polynomial.constant(5), 5}) == 1
    assert len({Polynomial(), Polynomial.constant(0), 0, Fraction(0)}) == 1
    assert hash(Polynomial.constant(Fraction(-7, 3))) == hash(Fraction(-7, 3))
    assert hash(X2) == hash(X2.coefficients)


class TestTextForm:
    def test_round_trip(self):
        text = "3/2*x^2 - x + 5"
        assert Polynomial.parse(text).to_text() == text

    def test_other_variable(self):
        assert Polynomial.parse("k^2 + k").to_text("k") == "k^2 + k"

    def test_mixed_variables_rejected(self):
        with pytest.raises(ParseError):
            Polynomial.parse("x^2 + k")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            Polynomial.parse("x^1/2")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            Polynomial.parse("x^-1")


# -- invariants -------------------------------------------------------------


@given(polynomials, rationals, rationals)
def test_ftc_round_trip(antiderivative, a, b):
    a, b = min(a, b), max(a, b)
    assert antiderivative.derivative().integrate(a, b) == antiderivative.evaluate(
        b
    ) - antiderivative.evaluate(a)


@given(polynomials, rationals, rationals)
def test_ftc_inverse_recovers_integrand(p, a, x):
    check = ftc_inverse_check(p, a, x, omega(-1))
    assert check.equal
    assert check.recovered == p.evaluate(x)


@given(polynomials, rationals, rationals, rationals.filter(bool))
def test_scaling_identity_holds(p, a, b, alpha):
    assert scale_integral_identity(p, a, b, alpha).equal


@given(polynomials, rationals, rationals, rationals)
def test_shifting_identity_holds(p, a, b, c):
    assert shift_integral_identity(p, a, b, c).equal


@given(polynomials, polynomials, rationals, rationals, rationals)
def test_integral_linearity(p, q, alpha, a, b):
    assert (alpha * p + q).integrate(a, b) == alpha * p.integrate(a, b) + q.integrate(a, b)


@given(polynomials, rationals, rationals, rationals)
def test_range_additivity(p, a, b, c):
    assert p.integrate(a, b) + p.integrate(b, c) == p.integrate(a, c)


@given(polynomials)
def test_antiderivative_inverts_derivative(p):
    assert p.antiderivative().derivative() == p


@given(polynomials)
def test_polynomial_text_round_trip(p):
    assert Polynomial.parse(p.to_text()) == p
