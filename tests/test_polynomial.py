"""Polynomial calculus: pinned examples plus the FTC-family invariants."""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
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
from gossamer.core import _common_numerators, _lowest_terms
from gossamer.polynomial import (
    _at_reciprocal,
    _from_numerators,
    _horner,
    _monomial_plus_integer,
)
from strategies import polynomials, rationals, same_value

H = omega(-1)
X2 = Polynomial.parse("x^2")


class TestEvaluate:
    def test_infinitesimal_argument(self):
        assert X2.evaluate(H) == omega(-2)

    def test_rational_argument(self):
        assert X2.evaluate(Fraction(3)) == 9

    def test_infinite_argument(self):
        assert Polynomial.parse("x^2 + 1").evaluate(omega()) == Gossamer.parse("w^2 + 1")

    def test_positive_floor_keeps_every_term_at_or_above_it(self):
        x = Gossamer(((3, 1), (2, 1)), floor=2)
        square = Polynomial([0, 0, 1]).evaluate(x)
        assert square.terms == (x * x).terms == Gossamer.parse("w^6 + 2*w^5 + w^4").terms
        assert not square.truncated and square.truncation_floor == 2

    def test_positive_floor_drops_the_constant_with_the_flag(self):
        value = Polynomial([5, 0, 1]).evaluate(Gossamer(((3, 1), (2, 1)), floor=2))
        assert value.terms == Gossamer.parse("w^6 + 2*w^5 + w^4").terms
        assert value.truncated

    def test_float_argument_is_a_type_error(self):
        # A float stands for no exact rational: evaluation has no float path.
        with pytest.raises(TypeError, match="^cannot evaluate a Polynomial at float$"):
            Polynomial.parse("x^2 + x").evaluate(-1.0)


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


# Denominators of Bernoulli-built closed forms: 6, 30, 2730 (B_12), 798 (B_18).
relabel_coefficients = st.builds(
    Fraction, st.integers(-30, 30), st.sampled_from([1, 6, 30, 2730, 798])
)
relabel_polynomials = st.integers(0, 41).flatmap(
    lambda size: st.lists(relabel_coefficients, min_size=size, max_size=size)
).map(Polynomial)
relabel_exponents = st.sampled_from(
    [s * Fraction(e) for s in (1, -1) for e in (1, 2, 3, Fraction(1, 2), Fraction(1, 3))]
)
relabel_floors = st.sampled_from([-40, -16, Fraction(-7, 2), -1, 0, 2])


@given(
    relabel_polynomials,
    relabel_exponents,
    st.builds(Fraction, st.sampled_from([-5, -3, -2, -1, 1, 2, 3, 5]), st.integers(1, 4)),
    st.integers(-3, 3),
    relabel_floors,
    st.booleans(),
)
def test_relabelling_matches_horner(p, e, c, k, floor, truncated):
    # x = c*w^e + k; at floor 2 the constant, and any w^e below 2, drop with the flag.
    x = Gossamer(((e, c), (0, k)), floor=floor, truncated=truncated)
    value = p.evaluate(x)
    assert same_value(value, _horner(p.coefficients, x))
    if not value.truncated and not x.truncated:
        # Read every exponent as a multiple of 1/q and put w^(1/q) = 3.
        q = Fraction(e).denominator
        scaled = Gossamer([(q * ex, co) for ex, co in value.terms], floor=q * floor)
        at_three = scaled.at_omega(3)
        stand_in = sum((co * Fraction(3) ** (q * ex) for ex, co in x.terms), Fraction(0))
        assert at_three == p.evaluate(stand_in)


# (coefficients, x): each is one way the relabelling can go wrong.
RELABEL_EDGES = {
    "constant-at-truncated-x": ([7], Gossamer(((1, 1),), truncated=True)),
    "zero-at-truncated-x": ([], Gossamer(((-1, 1), (0, 2)), truncated=True)),
    "positive-floor-drops-the-constant": ([5, 1, 1, 1], omega(2, floor=2)),
    "positive-floor-keeps-all": ([0, 0, 2, 1], omega(3, floor=3)),
    "floor-between-powers": ([1, 1, 1, 1, 1], Gossamer(((-1, 2), (0, -1)), floor=Fraction(-7, 2))),
    "shift-cancels-every-kept-term": ([1, 2, 1], Gossamer(((-3, 1), (0, -1)), floor=-4)),
    "integral-multiples-of-a-third": ([1, 1, 1, 1, 1, 1, 1], omega(Fraction(-1, 3))),
    "infinite-with-negative-shift": ([0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)], omega(2) - 3),
    "scaled-infinitesimal": ([1, 2, 3], Fraction(-2, 3) * omega(-1, floor=-1)),
    "scaled-with-the-constant-dropped": ([1, 2, 3], Gossamer(((2, Fraction(5, 2)),), floor=2)),
}


@pytest.mark.parametrize("edge", RELABEL_EDGES)
def test_relabelling_edges_match_horner(edge):
    coefficients, x = RELABEL_EDGES[edge]
    p = Polynomial(coefficients)
    assert same_value(p.evaluate(x), _horner(p.coefficients, x))


# nu = c*w^e + k: the exponents, coefficients (negative, non-unit) and integer
# constants of the counts whose reciprocal Q_f reads off without inverse().
# Counts off that form take Horner's rule over nu.inverse(): a constant of
# 1/2 (w + 1/2) and a second power w^(s*e) (w^2 + w, w + w^-1).
reciprocal_exponents = st.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 2)])
reciprocal_scales = st.sampled_from([1, -1, 3, Fraction(-2, 3), Fraction(5, 2)])
reciprocal_shifts = st.sampled_from([0, 1, -1, 3, -3, Fraction(1, 2)])
reciprocal_second_powers = st.sampled_from([None, Fraction(1, 2), -1])
reciprocal_floors = st.sampled_from([-16, -9, Fraction(-7, 2), -1, 0, 2])


def read_at_reciprocal(q, nu):
    """q(1/nu) off q's numerators at nu = c*w^e + k; Horner off that form."""
    form = _monomial_plus_integer(nu.terms)
    if form is None:
        return _horner(q.coefficients, nu.inverse())
    return _at_reciprocal(q, nu, *form)


@given(
    relabel_polynomials,
    reciprocal_exponents,
    reciprocal_scales,
    reciprocal_shifts,
    reciprocal_second_powers,
    reciprocal_floors,
    st.booleans(),
)
# The hand-off to the relabelling at k != 0, as q_1..q_r are all zero: x^17
# at w + 1 reads as a truncated zero (r = 16), and at w^17 + 1 the reach is 0.
# x^16 at w + 1 has q_r != 0, so it keeps the recurrence and its flag.
@example(Polynomial.monomial(17), 1, 1, 1, None, -16, False)
@example(Polynomial.monomial(16), 1, 1, 1, None, -16, False)
@example(Polynomial.parse("2*x^3 - x + 5/3"), 17, 1, 1, None, -16, False)
@example(Polynomial.parse("2*x^3 - x + 5/3"), 17, Fraction(-2, 3), -3, None, -16, True)
def test_reciprocal_relabelling_matches_horner(q, e, c, k, s, floor, truncated):
    # At floor 2 the constant k, and w^e for e < 2, drop from nu itself.
    second = () if s is None else ((s * e, 1),)
    nu = Gossamer(((e, c), (0, k)) + second, floor=floor, truncated=truncated)
    assume(nu.terms)
    assert same_value(read_at_reciprocal(q, nu), _horner(q.coefficients, nu.inverse()))


# A rational point q as an int, a Fraction and the series q*w^0 (the zero
# series at q = 0); above floor 0 the series drops q, with the flag.
rational_points = st.one_of(
    st.just(0),
    st.integers(-7, 7),
    st.fractions(min_value=-7, max_value=7, max_denominator=9),
)
rational_point_floors = st.sampled_from([-16, -3, 0, Fraction(1, 2), 2])


@given(relabel_polynomials, rational_points, rational_point_floors, st.booleans())
def test_rational_points_match_horner(p, q, floor, truncated):
    value = p.evaluate(q)
    assert value == _horner(p.coefficients, q) and type(value) is Fraction
    x = Gossamer(((0, q),), floor=floor, truncated=truncated)
    assert same_value(p.evaluate(x), _horner(p.coefficients, x))


# (coefficients, x, terms, flag): the value keeps x's floor in every case.
RATIONAL_POINT_EDGES = {
    "zero-series-above-the-floor-drops-p(0)": ([3, 1], Gossamer(floor=2), (), True),
    "zero-series-above-the-floor-p(0)-zero": ([0, 1], Gossamer(floor=2), (), False),
    "truncated-zero-series-constant-p": ([7], Gossamer(truncated=True), ((0, 7),), False),
    "truncated-zero-series-linear-p": ([7, 1], Gossamer(truncated=True), ((0, 7),), True),
    "truncated-point-value-cancels": ([-2, 1], Gossamer(((0, 2),), truncated=True), (), True),
    "zero-polynomial-at-zero-series": ([], Gossamer(), (), False),
    "zero-polynomial-truncated-above-the-floor": ([], Gossamer(floor=2, truncated=True), (), False),
    "zero-polynomial-at-a-constant": ([], Gossamer.parse("5/3"), (), False),
}


@pytest.mark.parametrize("edge", RATIONAL_POINT_EDGES)
def test_rational_point_edges(edge):
    coefficients, x, terms, flag = RATIONAL_POINT_EDGES[edge]
    p = Polynomial(coefficients)
    value = p.evaluate(x)
    assert value.terms == terms and value.truncated is flag
    assert value.truncation_floor == x.truncation_floor
    assert same_value(value, _horner(p.coefficients, x))


@pytest.mark.parametrize("q", [0, 3, -2, Fraction(5, 3), Fraction(-1, 2), True])
def test_zero_polynomial_at_a_rational_point(q):
    value = Polynomial().evaluate(q)
    assert value == 0 and type(value) is Fraction


# Arguments off the relabelled form.  The constant and the zero series are
# finite, and take the integer pass; every value still equals Horner's.  A
# float takes no path at all.
OFF_FORM = {
    "non-integer-constant": Gossamer.parse("w + 1/2"),
    "two-non-constant-terms": Gossamer.parse("w - w^-1"),
    "three-terms": Gossamer.parse("w^2 + w + 1"),
    "constant": Gossamer.parse("3"),
    "zero": Gossamer(),
    "float": 2.5,
}


@pytest.mark.parametrize("argument", OFF_FORM)
@given(p=polynomials)
def test_other_arguments_take_horner(argument, p):
    x = OFF_FORM[argument]
    if isinstance(x, float):
        with pytest.raises(TypeError, match="^cannot evaluate a Polynomial at float$"):
            p.evaluate(x)
    else:
        assert same_value(p.evaluate(x), _horner(p.coefficients, x))


class TestInit:
    def test_fraction_is_kept(self):
        half = Fraction(1, 2)
        assert Polynomial([0, half]).coefficients[1] is half

    @pytest.mark.parametrize("raw, expected", [(3, 3), (True, 1), ("-2/6", Fraction(-1, 3))])
    def test_other_inputs_convert(self, raw, expected):
        (c,) = Polynomial([raw]).coefficients
        assert type(c) is Fraction and c == expected


# Arguments that read a polynomial's integer form alone (rationals, c*w^e + k
# off c = 1, k = 0), that read its Fractions (w^e, other series), and the
# finite series.
LAZY_ARGUMENTS = (
    Fraction(0), Fraction(-3, 2), 5, Gossamer(), Gossamer.from_rational(Fraction(2, 3)),
    omega(), omega(2), omega(Fraction(1, 2)), 3 * omega(), omega() + 1, omega() + omega(-1),
)


@given(polynomials, st.sampled_from(LAZY_ARGUMENTS))
def test_lazy_polynomial_matches_the_eager_one(p, argument):
    # A polynomial built from its integer form alone reads as the one built
    # from its Fractions, before and after ``coefficients`` builds them.
    form = _lowest_terms(*_common_numerators(p.coefficients))

    def lazy():
        built = _from_numerators(form[0], list(form[1]))
        assert built._coefficients is None
        return built

    def read():
        built = lazy()
        assert built.coefficients == p.coefficients
        return built

    for make in (lazy, read):
        assert make().degree == p.degree and make().is_zero == p.is_zero
        assert make() == p and hash(make()) == hash(p)
        value, expected = make().evaluate(argument), p.evaluate(argument)
        if isinstance(expected, Gossamer):
            assert same_value(value, expected)
        else:
            assert value == expected and type(value) is type(expected)
    assert all(type(c) is Fraction for c in read().coefficients)


def test_lazy_polynomial_builds_its_fractions_once():
    p = _from_numerators(6, [0, 3, 0, -5])
    assert p._coefficients is None
    assert p.degree == 3
    assert p.coefficients is p.coefficients == (0, Fraction(1, 2), 0, Fraction(-5, 6))


class TestDerivative:
    def test_cubic_over_three(self):
        assert Polynomial.parse("1/3*x^3").derivative() == X2

    def test_constant(self):
        assert Polynomial.constant(5).derivative() == Polynomial()

    def test_quadratic(self):
        assert Polynomial.parse("x^2 + 2*x").derivative() == Polynomial.parse("2*x + 2")
        assert (Polynomial.parse("x + 1") ** 2).derivative() == Polynomial.parse("2*x + 2")
        assert X2 ** 0 == Polynomial.constant(1)


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


# Each rational argument given a gossamer value: a ValueError that names
# the argument, not the TypeError Fraction(value) raises.
GOSSAMER_ARGUMENTS = [
    ("x", ftc_inverse_check, (X2, 0, omega(), H)),
    ("a", ftc_inverse_check, (X2, omega(), 1, H)),
    ("x", ftc_inverse_check, (X2, 0, Gossamer.parse("2"), H)),
    ("x", order_swap_demo, (X2, omega(), H)),
    ("a", scale_integral_identity, (X2, omega(), 1, 2)),
    ("alpha", scale_integral_identity, (X2, 0, 1, omega(-1))),
    ("b", shift_integral_identity, (X2, 0, omega(), 1)),
    ("c", shift_integral_identity, (X2, 0, 1, omega())),
]


@pytest.mark.parametrize("name, function, args", GOSSAMER_ARGUMENTS)
def test_gossamer_argument_rejected_by_name(name, function, args):
    with pytest.raises(ValueError, match=f"^{name} must be rational, got the gossamer value"):
        function(*args)


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
        with pytest.raises(ValueError, match="negative polynomial powers"):
            X2 ** -1


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
