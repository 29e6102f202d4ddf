"""Gossamer arithmetic: pinned examples plus the field/order invariants."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossamer import (
    DEFAULT_TRUNCATION_FLOOR,
    Gossamer,
    InfinitePartError,
    Kind,
    NotInfinitesimalError,
    ParseError,
    ZeroMagnitudeError,
    bounded_series_sum,
    omega,
)
from strategies import exponents, gossamers, nonzero_gossamers, rationals, small_rationals

W = omega()
H = omega(-1)


def g(text):
    return Gossamer.parse(text)


class TestAdd:
    def test_cancellation(self):
        assert g("3 + 5*w^-1") + g("-3") == g("5*w^-1")

    def test_same_exponent(self):
        assert W + W == g("2*w")

    def test_disjoint_exponents_merge_sorted(self):
        result = g("1 + w^-2") + g("w^-1")
        assert result == g("1 + w^-1 + w^-2")
        assert [e for e, _ in result.terms] == [0, -1, -2]


class TestMul:
    def test_inverse_exponents(self):
        assert W * H == 1

    def test_binomial_square(self):
        assert (1 + H) * (1 + H) == g("1 + 2*w^-1 + w^-2")

    def test_monomials(self):
        assert g("2*w") * g("3*w^2") == g("6*w^3")

    def test_powers(self):
        assert g("2*w") ** 3 == g("8*w^3")
        assert W ** -2 == omega(-2)
        assert (1 + H) ** Fraction(-1) == (1 + H).inverse()
        # A unit monomial takes any rational power; nothing else does.
        assert omega(3) ** Fraction(2, 3) == omega(2)
        for base in (g("2*w"), W + 1):
            with pytest.raises(ValueError, match="unit-coefficient monomials"):
                base ** Fraction(1, 2)

    def test_drop_below_floor_sets_flag(self):
        deep = omega(-9)
        product = deep * deep  # w^-18 < default floor -16
        assert product == 0
        assert product.truncated

    @pytest.mark.parametrize(
        "product, truncated",
        [
            ((W + 1).inverse() * 0, False),
            (Gossamer() * (W + 1).inverse(), False),
            ((omega(-9) * omega(-9)) * omega(20), True),
            (omega(-9) ** 2, True),
        ],
        ids=["exact-zero-right", "exact-zero-left", "truncated-zero-factor", "dropped-product"],
    )
    def test_zero_product_flag(self, product, truncated):
        # An exact zero factor gives an exact zero; a truncated zero factor
        # or a product dropped below the floor stays flagged.
        assert product == 0
        assert product.truncated is truncated


class TestInverse:
    def test_geometric_expansion_multiply_back(self):
        # At floor -4 the expansion stops at w^-4.  Oracle: its terms times
        # 1 - w^-1, at the default floor, telescope to 1 - w^-5.
        inv = (1 - omega(-1, floor=-4)).inverse()
        assert inv == g("1 + w^-1 + w^-2 + w^-3 + w^-4")
        assert inv.truncated and inv.truncation_floor == -4
        assert (1 - H) * Gossamer(inv.terms) == 1 - omega(-5)

    def test_rational_is_exact(self):
        inv = Gossamer.from_rational(2).inverse()
        assert inv == Fraction(1, 2)
        assert not inv.truncated

    def test_theta_expansion(self):
        # h/(1-h) = h + h^2 + h^3 + ..., here cut at the floor -4.
        theta = H * (1 - omega(-1, floor=-4)).inverse()
        assert theta == g("w^-1 + w^-2 + w^-3 + w^-4")
        assert theta.truncated

    def test_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Gossamer().inverse()

    def test_auto_order_cancels_to_floor(self):
        a = 1 - H
        assert a * a.inverse() == 1

    def test_infinitesimal_leading_term(self):
        a = H + omega(-2)
        assert a * a.inverse() == 1

    def test_division_operator(self):
        assert (1 + H) / H == W + 1
        assert 1 / H == W
        assert Fraction(1, 2) / (2 * W) == Fraction(1, 4) * H


class TestCompare:
    def test_positive_infinitesimal(self):
        assert H.compare(0) > 0

    def test_infinitesimal_order(self):
        assert H.compare(omega(-2)) > 0

    def test_any_infinity_exceeds_any_real(self):
        assert Gossamer.from_rational(5).compare(W) < 0

    def test_dunders_match(self):
        assert H > 0 and omega(-2) < H and W >= W

    def test_error_names_the_operand_type(self):
        with pytest.raises(TypeError, match="^cannot compare Gossamer with float$"):
            W < 1.5
        with pytest.raises(TypeError, match="^cannot compare Gossamer with str$"):
            W.compare("x")


class TestClassify:
    @pytest.mark.parametrize(
        "text, kind",
        [
            ("w^-1 + w^-3", Kind.INFINITESIMAL),
            ("3 + w^-1", Kind.FINITE_APPRECIABLE),
            ("w^2 - 7", Kind.INFINITE),
            ("0", Kind.ZERO),
        ],
    )
    def test_examples(self, text, kind):
        assert g(text).classify() is kind


class TestMagnitudeRelations:
    def test_much_less_examples(self):
        assert H.much_less(Gossamer.from_rational(1))
        assert not Gossamer.from_rational(3).much_less(Gossamer.from_rational(5))
        assert omega(2).much_less(omega(3))

    def test_much_less_rejects_zero(self):
        with pytest.raises(ZeroMagnitudeError):
            Gossamer().much_less(H)
        with pytest.raises(ZeroMagnitudeError):
            H.much_less(Gossamer())
        with pytest.raises(ZeroMagnitudeError):
            Gossamer().leading_coefficient

    @pytest.mark.parametrize("relation", ["much_less", "asymptotic_to"])
    @pytest.mark.parametrize("operand", [1.5, "x", None])
    def test_non_numeric_operand_is_a_type_error(self, relation, operand):
        # Not ZeroMagnitudeError (a ValueError): the operand is not zero but no number.
        with pytest.raises(TypeError, match=type(operand).__name__):
            getattr(W, relation)(operand)

    def test_asymptotic_examples(self):
        assert g("w + 1").asymptotic_to(g("w - 5"))
        assert not g("2*w").asymptotic_to(W)
        assert g("2*w").leading_coefficient == 2 != W.leading_coefficient
        # Leading terms of the x^2 sum value and its standard part agree.
        assert g("1/3 + 1/2*w^-1").asymptotic_to(g("1/3"))

    def test_infinitely_close_examples(self):
        assert g("3 + w^-1").infinitely_close_to(3)
        assert not Gossamer.from_rational(3).infinitely_close_to(4)
        assert W.infinitely_close_to(g("w + w^-1"))


class TestStandardPart:
    def test_series(self):
        assert g("1/3 + 1/2*w^-1 + 1/6*w^-2").standard_part() == Fraction(1, 3)

    def test_infinitesimal_maps_to_zero(self):
        assert H.standard_part() == 0

    def test_infinite_part_rejected(self):
        with pytest.raises(InfinitePartError):
            g("w + 2").standard_part()


class TestRealize:
    def test_drop_infinitesimals(self):
        assert g("w + 1 + w^-1").realize(0) == g("w + 1")

    def test_noop(self):
        five = Gossamer.from_rational(5)
        assert five.realize(-10) == five
        assert not five.realize(-10).truncated

    def test_partial(self):
        realized = g("1 + w^-1 + w^-2").realize(-1)
        assert realized == g("1 + w^-1")
        assert realized.truncated

    def test_matches_standard_part_at_zero(self):
        value = g("2 + w^-1")
        assert value.realize(0).coefficient(0) == value.standard_part()


class TestBoundedSeriesSum:
    def test_geometric_terms(self):
        total = bounded_series_sum([1, 1, 1], H, 3)
        assert total == g("w^-1 + w^-2 + w^-3")
        assert total.classify() is Kind.INFINITESIMAL

    def test_zero_coefficients(self):
        assert bounded_series_sum([0, 0, 0], H, 3) == 0

    def test_bounded_by_beta_theta(self):
        total = bounded_series_sum([2, -3], omega(-2), 2)
        assert total == g("2*w^-2 - 3*w^-4")
        assert total.classify() is Kind.INFINITESIMAL
        # beta = max |a_k| = 3 and theta = h/(1-h); compare against the
        # truncated expansion theta = w^-2 + w^-4 + ...
        theta = omega(-2) * (1 - omega(-2, floor=-6)).inverse()
        assert abs(total).compare(3 * theta) < 0

    def test_non_infinitesimal_rejected(self):
        with pytest.raises(NotInfinitesimalError):
            bounded_series_sum([1], Gossamer.from_rational(1, floor=-16), 3)
        with pytest.raises(NotInfinitesimalError):
            bounded_series_sum([1], Gossamer(), 3)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            bounded_series_sum([], H, 3)


class TestTextForm:
    @pytest.mark.parametrize(
        "text",
        ["0", "1/3 + 1/2*w^-1", "w", "-w + 3", "2*w^3/2 - 5", "w^-1/2", "-1/2"],
    )
    def test_round_trip(self, text):
        assert str(Gossamer.parse(text)) == text

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            Gossamer.parse("1 + ^2")
        assert "position 4" in str(excinfo.value)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ParseError):
            Gossamer.parse("2*z^3")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            Gossamer.parse("1 +")


class TestFloorHandling:
    @pytest.mark.parametrize("ambient", ["-4", "not-a-rational"])
    def test_environment_does_not_set_the_floor(self, ambient, monkeypatch):
        # Only floor= sets a floor; a variable once read here is ignored.
        monkeypatch.setenv("GOSSAMER_TRUNC_FLOOR", ambient)
        inv = (1 - omega(-1)).inverse()
        assert inv.truncation_floor == DEFAULT_TRUNCATION_FLOOR
        assert min(e for e, _ in inv.terms) == DEFAULT_TRUNCATION_FLOOR

    def test_add_takes_max_floor(self):
        a = Gossamer.from_rational(1, floor=-20)
        b = omega(-1, floor=-10)
        assert (a + b).truncation_floor == -10

    def test_per_value_floor(self):
        shallow = Gossamer(((Fraction(-3), Fraction(1)),), floor=-2)
        assert shallow == 0
        assert shallow.truncated


class TestStoredExponents:
    def test_integral_exponent_is_int(self):
        assert type(omega(2).terms[0][0]) is int
        assert type(g("3*w^2 + w^-1").terms[1][0]) is int

    def test_fractional_exponent_stays_fraction(self):
        assert omega(Fraction(1, 2)).terms[0][0] == Fraction(1, 2)
        assert type(omega(Fraction(1, 2)).terms[0][0]) is Fraction

    def test_integral_sum_of_fractions_is_int(self):
        root = omega(Fraction(1, 2))
        assert type((root * root).terms[0][0]) is int
        assert root * root == W

    def test_hash_and_eq_match_fraction_exponents(self):
        value = Gossamer(((Fraction(2), Fraction(3)), (Fraction(-1), Fraction(1))))
        pairs = ((Fraction(2), Fraction(3)), (Fraction(-1), Fraction(1)))
        assert value.terms == pairs
        assert hash(value) == hash(g("3*w^2 + w^-1")) == hash(pairs)
        assert value == g("3*w^2 + w^-1")


class TestRationalValues:
    def test_hash_agrees_with_eq_for_rationals(self):
        assert len({Gossamer.from_rational(5), 5}) == 1
        assert len({Gossamer(), Gossamer.from_rational(0), 0, Fraction(0)}) == 1
        assert hash(g("-7/3")) == hash(Fraction(-7, 3))
        assert hash(g("3/2*w^-1")) != hash(Fraction(3, 2))

    def test_at_omega_refuses_a_truncated_value(self):
        # 1/(w + 1) keeps w^-1 - w^-2 + ... down to the floor; at w = 2 the
        # dropped tail would count, so the answer would not be 1/3.
        with pytest.raises(ValueError):
            (W + 1).inverse().at_omega(2)
        assert (W + 1).at_omega(2) == 3
        assert W.inverse().at_omega(2) == Fraction(1, 2)
        assert g("w^-1 - w^-2").at_omega(2) == Fraction(1, 4)


# A caller's float at each entry point that converts numbers: it stands for
# no exact rational, so none takes it as its binary fraction.
FLOAT_INPUTS = {
    "term-coefficient": lambda: Gossamer([(0, 0.1)]),
    "zero-term-coefficient": lambda: Gossamer([(1, 0.0)]),
    "term-exponent": lambda: Gossamer([(0.5, 1)]),
    "floor": lambda: Gossamer(floor=-16.0),
    "from-rational": lambda: Gossamer.from_rational(0.1),
    "from-rational-floor": lambda: Gossamer.from_rational(1, floor=-2.0),
    "omega": lambda: omega(0.5),
    "omega-floor": lambda: omega(1, floor=-3.0),
    "bounded-series-sum": lambda: bounded_series_sum([1, 0.5], H, 3),
    "power": lambda: W**0.5,
    "coefficient": lambda: W.coefficient(1.0),
    "realize": lambda: W.realize(0.0),
    "at-omega": lambda: W.at_omega(2.0),
}


@pytest.mark.parametrize("case", FLOAT_INPUTS)
def test_a_float_is_a_type_error(case):
    with pytest.raises(TypeError, match="^expected an exact rational, got float "):
        FLOAT_INPUTS[case]()


class TestCancellationFlag:
    def test_constructor_cancellation_below_floor_is_exact(self):
        value = Gossamer(((0, 1), (-20, 5), (-20, -5)))
        assert value == 1
        assert not value.truncated

    def test_add_cancellation_is_exact(self):
        deep = omega(-20, floor=-30)
        total = (1 + deep) + (-deep)
        assert total == 1
        assert not total.truncated

    def test_add_drops_below_the_higher_floor(self):
        total = (1 + omega(-20, floor=-30)) + omega(-1)
        assert total == 1 + H
        assert total.truncation_floor == DEFAULT_TRUNCATION_FLOOR
        assert total.truncated

    def test_mul_cancellation_is_exact(self):
        product = (W + 1) * (W - 1)
        assert product == g("w^2 - 1")
        assert not product.truncated


# -- invariants -------------------------------------------------------------


@given(gossamers, gossamers, gossamers)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == 0


@given(nonzero_gossamers)
def test_multiplicative_inverse_up_to_floor(a):
    residue = a * a.inverse() - 1
    # Exact for finite/infinitesimal values; for infinite values the
    # cancellation terms would sit below the floor, so the residue is
    # bounded by the floor shifted to the value's own scale.
    bound = a.truncation_floor + max(a.leading_exponent, 0)
    assert (not residue) or residue.leading_exponent < bound


@given(gossamers, gossamers, gossamers)
def test_order_compatible_with_addition(a, b, c):
    if a.compare(b) < 0:
        assert (a + c).compare(b + c) < 0


@given(nonzero_gossamers, nonzero_gossamers)
def test_positive_product(a, b):
    if a > 0 and b > 0:
        assert a * b > 0


@given(gossamers, gossamers)
def test_standard_part_is_homomorphism(a, b):
    if a.classify() is Kind.INFINITE or b.classify() is Kind.INFINITE:
        return
    assert (a + b).standard_part() == a.standard_part() + b.standard_part()
    assert (a * b).standard_part() == a.standard_part() * b.standard_part()


@given(nonzero_gossamers, nonzero_gossamers)
def test_magnitude_trichotomy(a, b):
    flags = (
        a.much_less(b),
        b.much_less(a),
        a.leading_exponent == b.leading_exponent,
    )
    assert sum(flags) == 1


@given(nonzero_gossamers, nonzero_gossamers)
def test_asymptotic_decomposition(a, b):
    if a.asymptotic_to(b):
        c = b - a
        assert (not c) or (c.much_less(a) and c.much_less(b))


@given(
    st.lists(small_rationals, min_size=1, max_size=6),
    st.sampled_from([-1, -2, -3]),
    st.integers(min_value=1, max_value=10),
)
def test_bounded_series_sum_stays_infinitesimal(coeffs, exponent, order):
    total = bounded_series_sum(coeffs, omega(exponent), order)
    assert total.classify() in (Kind.ZERO, Kind.INFINITESIMAL)


@given(rationals, rationals)
def test_rational_embedding(p, q):
    gp, gq = Gossamer.from_rational(p), Gossamer.from_rational(q)
    assert gp + gq == p + q
    assert gp * gq == p * q
    assert gp.compare(gq) == (p > q) - (p < q)


@given(gossamers)
def test_text_round_trip(a):
    assert Gossamer.parse(str(a)) == a


@given(gossamers, st.integers(min_value=-3, max_value=3).map(Fraction))
def test_realize_keeps_only_high_terms(a, floor):
    realized = a.realize(floor)
    assert all(e >= floor for e, _ in realized.terms)
    assert all(c == a.coefficient(e) for e, c in realized.terms)


# Kernel results against the general constructor: random floors (positive
# ones included), fractional exponents, and truncated inputs.  Coefficients
# mix integers with denominators that share factors (6, 10, 15) and large
# Bernoulli denominators (2730, 798), so a product scaled to the wrong
# common denominator shows.
kernel_floors = st.one_of(
    st.none(), st.fractions(min_value=-20, max_value=2, max_denominator=2)
)
kernel_coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3).map(Fraction),
    st.builds(
        Fraction,
        st.integers(min_value=-3000, max_value=3000),
        st.sampled_from([6, 10, 15, 2730, 798]),
    ),
)
kernel_gossamers = st.builds(
    Gossamer,
    st.lists(
        st.tuples(
            st.one_of(
                st.integers(min_value=-40, max_value=8).map(lambda n: Fraction(n, 2)),
                st.fractions(min_value=-24, max_value=6, max_denominator=3),
            ),
            kernel_coefficients,
        ),
        max_size=20,
    ),
    floor=kernel_floors,
    truncated=st.booleans(),
)


def shape(value):
    assert all(type(e) is int for e, _ in value.terms if Fraction(e).denominator == 1)
    terms = [(Fraction(e), c) for e, c in value.terms]
    return terms, value.truncation_floor, value.truncated


def reference_product(a, b):
    exact_zero = not (a.terms or a.truncated) or not (b.terms or b.truncated)
    return Gossamer(
        [(ea + eb, ca * cb) for ea, ca in a.terms for eb, cb in b.terms],
        floor=max(a.truncation_floor, b.truncation_floor),
        truncated=not exact_zero and (a.truncated or b.truncated),
    )


def check_kernel(a, b, scalar, level):
    floor = max(a.truncation_floor, b.truncation_floor)
    flag = a.truncated or b.truncated
    assert shape(a + b) == shape(Gossamer(a.terms + b.terms, floor=floor, truncated=flag))
    assert shape(a * b) == shape(reference_product(a, b))
    assert shape(-a) == shape(
        Gossamer([(e, -c) for e, c in a.terms], floor=a.truncation_floor, truncated=a.truncated)
    )
    assert shape(a.realize(level)) == shape(
        Gossamer(a.terms, floor=max(a.truncation_floor, level), truncated=a.truncated)
    )
    constant = Gossamer(((0, scalar),), floor=a.truncation_floor)
    assert shape(a + scalar) == shape(a + constant)
    assert shape(a * scalar) == shape(reference_product(a, constant))


@settings(max_examples=300)
@given(
    kernel_gossamers,
    kernel_gossamers,
    st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.fractions(min_value=-20, max_value=2, max_denominator=2),
)
def test_kernel_matches_general_constructor(a, b, scalar, level):
    check_kernel(a, b, scalar, level)
    check_kernel(b, a, scalar, level)


@given(
    st.one_of(st.integers(-3, 3), kernel_coefficients),
    st.one_of(kernel_floors, st.integers(-3, 3)),
)
def test_constant_matches_general_constructor(value, floor):
    # from_rational, which coerces every int and Fraction operand, builds
    # its one term without the constructor: zero, a positive floor, a term.
    made = Gossamer.from_rational(value, floor)
    assert shape(made) == shape(Gossamer(((0, value),), floor=floor))
    assert type(made.truncation_floor) is Fraction


# Few terms over few exponents and floors, so that two values often share a
# prefix, then differ at one exponent or below the higher floor.
compare_coefficients = st.fractions(min_value=-2, max_value=2, max_denominator=3)
compare_terms = st.lists(
    st.tuples(st.integers(-6, 6).map(lambda n: Fraction(n, 2)), compare_coefficients),
    max_size=5,
)
compare_floors = st.sampled_from([None, -2, 0, Fraction(1, 2), 1])


@st.composite
def compare_pairs(draw):
    """A value and another sharing a prefix of its terms, or a rational, at random floors."""
    a = Gossamer(draw(compare_terms), floor=draw(compare_floors), truncated=draw(st.booleans()))
    cut = draw(st.integers(0, len(a.terms)))
    # b's next term sits at a's next exponent, with its own coefficient.
    same = [(e, draw(compare_coefficients)) for e, _ in a.terms[cut : cut + 1]]
    b = Gossamer(
        a.terms[:cut] + tuple(same) + tuple(draw(compare_terms)),
        floor=draw(compare_floors),
        truncated=draw(st.booleans()),
    )
    return a, draw(st.one_of(st.just(b), st.just(a), st.integers(-2, 2)))


@given(compare_pairs())
def test_compare_is_the_sign_of_the_leading_difference(pair):
    a, b = pair
    difference = (a - b).terms
    assert a.compare(b) == (0 if not difference else 1 if difference[0][1] > 0 else -1)


@pytest.mark.parametrize(
    "a, b",
    [
        (Gossamer(), Gossamer.parse("w^-1 + w^-3")),
        (Gossamer(truncated=True), Gossamer.parse("w^-1 + w^-3")),
        (omega(-9) ** 2, W + 1),
        (Gossamer.parse("w^-8 + w^-9"), Gossamer.parse("w^-8 - w^-9")),
        (1 + omega(-20, floor=-30), -omega(-20, floor=-30)),
        # Over 30 and 5 the numerators are (5, 3) and (3, -5): w^-1 gets 15 - 15.
        (g("1/6 + 1/10*w^-1"), g("3/5*w^-1 - 1")),
        (g("2*w - 3 + 5*w^-1"), g("1/2730*w^-1 + 5/798*w^-2 - 7/15*w^-3")),
    ],
    ids=[
        "exact-zero",
        "truncated-zero",
        "dropped-zero",
        "product-below-floor",
        "cancel-deep",
        "integer-numerators-cancel",
        "integer-times-fraction",
    ],
)
def test_kernel_zero_and_cancel_cases(a, b):
    check_kernel(a, b, Fraction(1, 2), Fraction(-3))
    check_kernel(b, a, Fraction(1, 2), Fraction(-3))
