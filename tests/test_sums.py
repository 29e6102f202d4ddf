"""Discrete summation: point functions, the interval identity, brute-force oracles."""
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import gossamer.core
import gossamer.polynomial
import gossamer.riemann
import gossamer.sums
from gossamer import (
    ClosedFormSum,
    Gossamer,
    Polynomial,
    StepFunction,
    faulhaber,
    indefinite_sum,
    omega,
    prefix_sums_match,
    sum_at_point,
    sum_ftc,
    sum_interval_bruteforce,
)
from gossamer.core import _common_numerators
from strategies import point_polynomial, point_value_difference, polynomials, same_value

K = Polynomial.parse("k")
K2 = Polynomial.parse("k^2")

small_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=3), max_size=7
).map(Polynomial)


class TestIndefiniteSum:
    def test_triangular(self):
        assert indefinite_sum(K).point_function == Polynomial(
            (0, Fraction(1, 2), Fraction(1, 2))
        )  # n(n+1)/2

    def test_zero(self):
        assert indefinite_sum(Polynomial()).point_function == Polynomial()

    def test_squares(self):
        assert indefinite_sum(K2).point_function == Polynomial(
            (0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
        )  # (2n^3 + 3n^2 + n) / 6

    def test_invariants_enforced(self):
        point = indefinite_sum(K).point_function
        with pytest.raises(ValueError):
            ClosedFormSum(K, Polynomial((1, 1)))  # nonzero at 0
        with pytest.raises(ValueError):
            ClosedFormSum(K, Polynomial((0, 1)))  # does not telescope
        with pytest.raises(ValueError):
            ClosedFormSum(K, 2 * point)  # telescopes to 2k
        with pytest.raises(ValueError):
            ClosedFormSum(K, point + Polynomial.monomial(3))  # one degree too high
        with pytest.raises(ValueError):
            ClosedFormSum(K, point + Polynomial.monomial(2, Fraction(1, 691)))  # top perturbed

    def test_record_is_an_immutable_tuple(self):
        s = indefinite_sum(K)
        assert repr(s) == (
            "ClosedFormSum(term=Polynomial('x'), point_function=Polynomial('1/2*x^2 + 1/2*x'))"
        )
        assert s == ClosedFormSum(term=K, point_function=s.point_function)
        assert hash(s) == hash((K, s.point_function))
        with pytest.raises(AttributeError):
            s.term = K2
        with pytest.raises(ValueError, match="does not telescope"):
            s._replace(point_function=2 * s.point_function)

    @given(small_polys)
    def test_faulhaber_consistency(self, g):
        # Coefficient-for-coefficient agreement with the power-sum forms.
        assert indefinite_sum(g).point_function == point_polynomial(g)


def telescopes(term, point):
    """The reference certificate: G(0) = 0 and G(n) - G(n-1) = g(n), by composition."""
    step_back = point.compose(Polynomial((-1, 1)))  # G(n-1)
    return point.evaluate(Fraction(0)) == 0 and point - step_back == term


def certified(term, point):
    try:
        ClosedFormSum(term, point)
    except ValueError:
        return False
    return True


# Terms up to degree 40, with denominators up to 30.
certificate_terms = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=30), max_size=41
).map(Polynomial)
nonzero_deltas = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


class TestCertificate:
    @given(certificate_terms)
    def test_accepts_every_indefinite_sum(self, g):
        point = indefinite_sum(g).point_function
        assert certified(g, point)
        assert telescopes(g, point)

    @given(certificate_terms, st.data())
    def test_rejects_any_single_perturbation(self, g, data):
        coefficients = list(indefinite_sum(g).point_function.coefficients) or [Fraction(0)]
        index = data.draw(st.integers(0, len(coefficients) - 1), label="index")
        coefficients[index] += data.draw(nonzero_deltas, label="delta")
        perturbed = Polynomial(coefficients)
        assert not telescopes(g, perturbed)
        assert not certified(g, perturbed)

    @given(certificate_terms, small_polys, st.booleans())
    def test_agrees_with_composition(self, g, other, near):
        # A near miss is G plus another closed form, which telescopes to g + h
        # and is accepted exactly when h = 0; otherwise any polynomial.
        if near:
            point = indefinite_sum(g).point_function + indefinite_sum(other).point_function
        else:
            point = other
        assert certified(g, point) == telescopes(g, point)


def certificate_exponent(point, term):
    """The k of the certificate's test point 2^k, from the bound its docstring states."""
    common, numerators = _common_numerators(point.coefficients)
    scale, term_numerators = _common_numerators(term.coefficients)
    bound = scale * 2 ** len(numerators) * sum(map(abs, numerators)) + common * sum(
        map(abs, term_numerators)
    )
    return bound.bit_length() + 1


def near_miss(point, degree, delta, j):
    """point + delta*(S_{degree+1} - 2^j*S_degree), S_d the power sums.

    Its residual against point's term is delta*n^degree*(n - 2^j), which
    vanishes at n = 2^j and nowhere else past 0.
    """
    return point + delta * (faulhaber(degree + 1) - 2**j * faulhaber(degree))


class TestCertificateBound:
    """Pairs whose residual vanishes at a power of two: a test point picked too low can hit it."""

    @pytest.mark.parametrize(
        "term, degree",
        [
            (Polynomial.parse("3/2*k^4 - 1/3*k + 5/7"), 0),
            (Polynomial.parse("3/2*k^4 - 1/3*k + 5/7"), 4),  # G one degree too high
            (Polynomial(), 0),  # g = 0, G != 0
            (Polynomial(), 3),
        ],
        ids=["linear-miss", "degree-too-high", "zero-term", "zero-term-cubic-miss"],
    )
    def test_rejects_near_misses_at_every_power_of_two(self, term, degree):
        point = indefinite_sum(term).point_function
        assert certified(term, point)
        for delta in (Fraction(1), Fraction(-3, 5)):
            # j runs a few bits past the k the check picks for the pair itself
            # and for the near miss at j = 0, so a check blind to G's size hits one.
            first = near_miss(point, degree, delta, 0)
            last = max(certificate_exponent(point, term), certificate_exponent(first, term))
            for j in range(last + 5):
                wrong = near_miss(point, degree, delta, j)
                x = Fraction(2**j)
                assert wrong.evaluate(x) - wrong.evaluate(x - 1) == term.evaluate(x)
                assert not certified(term, wrong), j

    def test_zero_term_and_zero_point(self):
        assert certified(Polynomial(), Polynomial())

    @pytest.mark.parametrize("scale", [Fraction(1), Fraction(1, 3)])
    def test_zero_point_rejects_terms_vanishing_at_a_power_of_two(self, scale):
        for m in range(40):
            term = scale * Polynomial((-(2**m), 1))  # (k - 2^m)*scale
            assert not certified(term, Polynomial()), m


class TestCertificateSparseTerm:
    """Near misses whose residual sits only where g has no term.

    The check reads g by its nonzero terms; a near miss at degree d leaves
    the residual delta*n^d*(n - 2^j), at the slots d and d + 1.
    """

    TERM = Polynomial.parse("3/2*k^20 - 1/3*k^7 + 5/7")

    @pytest.mark.parametrize("degree", [1, 8, 18, 21])
    def test_rejects_near_misses_at_zero_slots(self, degree):
        term = self.TERM
        assert not any(term.coefficients[degree : degree + 2])
        point = indefinite_sum(term).point_function
        for delta in (Fraction(1), Fraction(-3, 5)):
            first = near_miss(point, degree, delta, 0)
            last = max(certificate_exponent(point, term), certificate_exponent(first, term))
            for j in range(last + 5):
                assert not certified(term, near_miss(point, degree, delta, j)), j

    @given(st.integers(1, 21), nonzero_deltas)
    def test_rejects_a_perturbation_of_a_slot_where_the_term_is_zero(self, slot, delta):
        # Slot i of G feeds slots below i of G(n) - G(n-1), i - 1 among them.
        assume(not self.TERM.coefficients[slot - 1])
        coefficients = list(indefinite_sum(self.TERM).point_function.coefficients)
        coefficients[slot] += delta
        assert not certified(self.TERM, Polynomial(coefficients))


class TestSumAtPoint:
    def test_hundred(self):
        # Oracle: brute-force loop over 1..100.
        brute = sum(range(1, 101))
        assert sum_at_point(indefinite_sum(K), 100) == brute == 5050

    def test_empty(self):
        assert sum_at_point(indefinite_sum(K), 0) == 0

    def test_infinite(self):
        assert sum_at_point(indefinite_sum(K), omega()) == Gossamer.parse("1/2*w^2 + 1/2*w")


class TestBruteforce:
    def test_examples(self):
        assert sum_interval_bruteforce(K, 3, 10) == 52
        assert sum_interval_bruteforce(K2, 1, 1) == 1
        assert sum_interval_bruteforce(Polynomial.constant(1), -2, 2) == 5

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sum_interval_bruteforce(K, 3, 2)


class TestSumFtc:
    def test_pinned_example(self):
        result = sum_ftc(K, 3, 10)
        assert result.value == 52
        assert prefix_sums_match(K, result.closed_form.point_function)

    def test_symbolic_upper_endpoint(self):
        value = sum_ftc(K2, 1, omega()).value
        assert value == indefinite_sum(K2).point_function.evaluate(omega())

    def test_triangular_to_infinity(self):
        result = sum_ftc(K, 1, omega())
        assert result.value == Gossamer.parse("1/2*w^2 + 1/2*w")
        # Certified at n = 0..2, which covers every endpoint, infinite ones too.
        assert prefix_sums_match(K, result.closed_form.point_function)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            sum_ftc(K, 11, 10)
        # A finite a above b = c*w^e + k: c < 0.
        with pytest.raises(ValueError) as raised:
            sum_ftc(K, 1, -omega())
        assert str(raised.value) == "empty range: 1 > -w"

    def test_non_integer_endpoint_rejected(self):
        # The message names the fault: w^-1's finite part is the integer 0,
        # and its fault is the w^-1 term.
        for a, b, fault in (
            (Fraction(1, 2), 10, "an integer finite part, got 1/2"),
            # infinite, but not an integer past w
            (1, Gossamer.parse("w + 1/2"), "an integer finite part, got w + 1/2"),
            (1, Gossamer.parse("w + w^-1"), "no infinitesimal term, got w + w^-1"),
            (1, Gossamer.parse("w^-1"), "no infinitesimal term, got w^-1"),
            (Gossamer.parse("w^-1"), omega(), "no infinitesimal term, got w^-1"),
            # Both invalid: a is checked first.
            (Fraction(1, 2), Gossamer.parse("w + 1/2"), "an integer finite part, got 1/2"),
        ):
            with pytest.raises(ValueError) as raised:
                sum_ftc(K, a, b)
            assert str(raised.value) == f"endpoint needs {fault}"

    @given(st.integers(1, 30))
    def test_infinite_endpoint_with_integer_finite_part(self, n):
        # sum_{k=1}^{w+1} k at w = n is the finite sum up to n + 1.
        value = sum_ftc(K, 1, omega() + 1).value
        assert value.at_omega(n) == sum_interval_bruteforce(K, 1, n + 1)

    @pytest.mark.parametrize(
        "b", [omega(), omega(2), 3 * omega(), omega() + 1], ids=["w", "w^2", "3w", "w+1"]
    )
    def test_value_builds_no_coefficient_of_the_point_function(self, b):
        # G(b) at c*w^e + k, and G(0) = 0 certified, read G's integer form
        # alone: its Fractions stay unbuilt.
        g = Polynomial.parse("3/2*k^5 - k^2 + 1/7")
        result = sum_ftc(g, 1, b)
        assert result.closed_form.point_function._coefficients is None
        assert same_value(result.value, point_value_difference(g, 1, b))

    @pytest.mark.parametrize(
        "a", [1, 7, Fraction(3), Gossamer.from_rational(-2)], ids=["1", "7", "Fraction-3", "series-2"]
    )
    def test_finite_lower_endpoint_builds_no_series(self, a, monkeypatch):
        # G(a - 1) comes off G's constant numerator before the read at b:
        # no series sum, difference, negation or comparison runs.
        g = Polynomial.parse("3/2*k^5 - k^2 + 1/7")
        bs = [omega(), omega(2), 3 * omega(), omega(Fraction(1, 2)), omega() + 1, omega() - 3]
        expected = [point_value_difference(g, a, b) for b in bs]

        def refuse(*args):
            raise AssertionError("a finite lower endpoint builds no series")

        for name in ("__add__", "__sub__", "__neg__", "compare"):
            monkeypatch.setattr(Gossamer, name, refuse)
        for b, value in zip(bs, expected, strict=True):
            assert same_value(sum_ftc(g, a, b).value, value)

    def test_half_open_convention(self):
        # G(b) - G(a) is the sum over a+1..b.
        s = indefinite_sum(K)
        assert sum_at_point(s, 10) - sum_at_point(s, 3) == sum_interval_bruteforce(K, 4, 10) == 49

    @given(small_polys, st.integers(-10, 60), st.integers(-10, 60))
    def test_oracle_equivalence(self, g, a, b):
        a, b = min(a, b), max(a, b)
        result = sum_ftc(g, a, b)
        assert prefix_sums_match(g, result.closed_form.point_function)
        assert result.value == sum_interval_bruteforce(g, a, b)

    @given(small_polys, st.integers(0, 40), st.integers(0, 40), st.integers(1, 30))
    def test_additivity(self, g, a, b, gap):
        a, b = min(a, b), max(a, b)
        c = b + gap
        assert (
            sum_ftc(g, a, b).value + sum_ftc(g, b + 1, c).value == sum_ftc(g, a, c).value
        )

    @given(small_polys, st.integers(1, 80))
    def test_telescoping(self, g, n):
        point = indefinite_sum(g).point_function
        assert point.evaluate(Fraction(n)) - point.evaluate(Fraction(n - 1)) == g.evaluate(
            Fraction(n)
        )

    @given(small_polys, st.integers(1, 25))
    def test_infinite_value_specializes(self, g, n):
        # The symbolic value at an infinite endpoint, evaluated at a finite
        # stand-in, reproduces the brute-force sum.
        value = sum_ftc(g, 1, omega()).value
        assert value.at_omega(n) == sum_interval_bruteforce(g, 1, n)


# Endpoints for sum_ftc: ints, finite series, c*w^e + k and other infinite
# values, with random floors (positive ones included) and flags.
endpoint_floors = st.sampled_from([None, -40, -16, -3, 0, Fraction(1, 2), 2])
endpoint_series = st.one_of(
    st.integers(-5, 40).map(lambda n: ((0, n),)),
    st.tuples(
        st.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 2)]),
        st.sampled_from([1, 3, Fraction(1, 3), -1]),
        st.integers(-3, 3),
    ).map(lambda t: ((t[0], t[1]), (0, t[2]))),
    st.sampled_from([((2, 1), (1, -2), (0, 5)), ((1, 1), (Fraction(1, 2), 1)), ((3, 1), (1, 1))]),
)
endpoints = st.one_of(
    st.integers(-5, 40),
    st.builds(Gossamer, endpoint_series, floor=endpoint_floors, truncated=st.booleans()),
)


# (text, truncated) of pinned sum_ftc values, at the lower endpoint's floor.
CUBIC = ("1/3*w^3 + 1/2*w^2 + 1/6*w", True)
FIVE_W = ("5*w", True)
ZERO = ("0", False)


class TestSumFtcMatchesPointValues:
    @given(small_polys, endpoints, endpoints)
    def test_value_is_the_point_value_difference(self, g, a, b):
        # The oracle is G(b) - G(a - 1) in series arithmetic; an empty range
        # is a positive leading term of a - b, with the same message.
        a_series, b_series = (
            x if isinstance(x, Gossamer) else Gossamer.from_rational(x) for x in (a, b)
        )
        gap = (a_series - b_series).terms
        if gap and gap[0][1] > 0:
            with pytest.raises(ValueError) as raised:
                sum_ftc(g, a, b)
            assert str(raised.value) == f"empty range: {a_series} > {b_series}"
            return
        assert same_value(sum_ftc(g, a, b).value, point_value_difference(g, a, b))

    @pytest.mark.parametrize(
        "a, expected",
        [
            (Gossamer(floor=Fraction(1, 2)), [CUBIC, CUBIC, FIVE_W, FIVE_W, ZERO, ZERO]),
            (
                Gossamer(floor=2, truncated=True),
                [("1/3*w^3 + 1/2*w^2", True), ("0", True), ("0", True), ("0", True), ZERO, ZERO],
            ),
            (Gossamer(((0, 3),), floor=Fraction(1, 2)), [CUBIC, CUBIC, FIVE_W, FIVE_W, ZERO, ZERO]),
        ],
        ids=["zero", "truncated-zero", "dropped-three"],
    )
    def test_lower_endpoint_at_a_positive_floor(self, a, expected):
        # a - 1 drops the 1 below a positive floor; a + w keeps a's floor
        # object.  point_value_difference is sum_ftc's own formula, so each
        # value's terms, floor and flag are pinned as well, in the order
        # g = k^2, 5, 0, each at b = w and then b = a + w.
        values = []
        for g in (K2, Polynomial.constant(5), Polynomial()):
            for b in (omega(), a + omega()):
                value = sum_ftc(g, a, b).value
                assert same_value(value, point_value_difference(g, a, b))
                values.append(value)
        for value, (text, truncated) in zip(values, expected, strict=True):
            pinned = Gossamer(Gossamer.parse(text).terms, a.truncation_floor, truncated)
            assert same_value(value, pinned)


def _as_series(x):
    return x if isinstance(x, Gossamer) else Gossamer.from_rational(x)


def _sum_or_error(g, a, b):
    try:
        return sum_ftc(g, a, b).value
    except ValueError as error:
        return str(error)


class TestClosedFormKeptOnTheTerm:
    """g keeps its certified closed form: one fold and one certificate per g."""

    def test_indefinite_sum_is_built_once(self):
        g = Polynomial.parse("3/7*k^5 - 1/2*k^2 + 1/3")
        s = indefinite_sum(g)
        assert indefinite_sum(g) is s
        assert sum_ftc(g, 1, omega()).closed_form is s

    @given(small_polys, st.lists(st.tuples(endpoints, endpoints), min_size=2, max_size=5))
    def test_a_kept_form_gives_a_fresh_terms_values(self, g, pairs):
        # Several intervals of one g against the same intervals of a fresh
        # copy of g, which folds and certifies its own G; errors included.
        for a, b in pairs:
            if _as_series(a).compare(_as_series(b)) > 0:
                a, b = b, a
            kept = _sum_or_error(g, a, b)
            fresh = _sum_or_error(Polynomial(g.coefficients), a, b)
            assert type(kept) is type(fresh)
            assert kept == fresh if isinstance(kept, str) else same_value(kept, fresh)


class TestPrefixSumsMatch:
    def test_rejects_a_wrong_point_function(self):
        assert not prefix_sums_match(K, Polynomial((0, 1)))  # n, not n(n+1)/2

    def test_rejects_a_degree_too_high(self):
        # Agrees with n(n+1)/2 at n = 0, 1, 2 but has degree 3.
        triangular = indefinite_sum(K).point_function
        wrong = triangular + Polynomial((0, 2, -3, 1))  # + n(n-1)(n-2)
        assert all(wrong.evaluate(n) == triangular.evaluate(n) for n in range(3))
        assert not prefix_sums_match(K, wrong)

    def test_zero_term(self):
        assert prefix_sums_match(Polynomial(), Polynomial())
        assert not prefix_sums_match(Polynomial(), Polynomial((0, 1)))

    def test_sum_ftc_runs_no_range_oracle(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sum_ftc must not accumulate the range")

        monkeypatch.setattr(gossamer.sums, "sum_interval_bruteforce", refuse)
        assert sum_ftc(K, 1, 10**6).value == 500000500000

    def test_each_polynomial_takes_its_lcm_once(self, monkeypatch):
        # The CLI's oracle evaluates both polynomials at deg g + 2 points; each
        # keeps its numerators over their lcm after the first evaluation.
        calls = []

        def counting(coefficients):
            calls.append(len(coefficients))
            return _common_numerators(coefficients)

        for module in (gossamer.core, gossamer.polynomial, gossamer.riemann, gossamer.sums):
            if hasattr(module, "_common_numerators"):
                monkeypatch.setattr(module, "_common_numerators", counting)
        g = Polynomial.parse("3/7*k^5 - 1/2*k^2 + 1/3")
        point = Polynomial(point_polynomial(g).coefficients)  # a fresh copy, no form yet
        assert prefix_sums_match(g, point)
        assert len(calls) <= 2

    def test_a_callers_term_takes_its_lcm_once(self, monkeypatch):
        # The certificate reads g's integer form, which g then keeps, so the
        # oracle's deg g + 2 evaluations of g take no lcm again.
        calls = []

        def counting(coefficients):
            calls.append(coefficients)
            return _common_numerators(coefficients)

        monkeypatch.setattr(gossamer.polynomial, "_common_numerators", counting)
        g = Polynomial.parse("3/7*k^40 - 1/2*k^2 + 1/3")
        point = indefinite_sum(g).point_function
        assert g._form is not None
        assert prefix_sums_match(g, point)
        assert [c for c in calls if c is g.coefficients] == [g.coefficients]


class TestBridge:
    @given(small_polys, st.integers(-10, 10), st.integers(0, 8))
    def test_bridge_matches_sum(self, g, a, width):
        # The paper's bridge from sum to integral: a step of height g(k) on
        # (k, k + 1] for k = a..b has area sum_{k=a}^{b} g(k).
        b = a + width
        heights = [g.evaluate(Fraction(k)) for k in range(a, b + 1)]
        step = StepFunction(range(a, b + 2), (0, *heights, 0))
        area = step.area(a, b + 1)
        assert sum_ftc(g, a, b).value == area
        assert area == sum_interval_bruteforce(g, a, b)
