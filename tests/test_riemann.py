"""Riemann engine: closed-form sums at infinity against brute-force oracles."""
import contextlib
import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gossamer.polynomial
import gossamer.riemann
import gossamer.sums
from gossamer import (
    Gossamer,
    Polynomial,
    UniformRiemannSum,
    ZeroMagnitudeError,
    bernoulli_number,
    conjecture_probe,
    definite_to_sum_pipeline,
    divergent_integral_via_sum,
    faulhaber,
    indefinite_sum,
    integrability_check,
    omega,
    panel_asymptotic,
    riemann_limit,
    riemann_remainder,
    run_suite,
    sum_ftc,
    uniform_riemann_sum,
)
from gossamer.core import _common_numerators
from gossamer.polynomial import _horner, _integer_form
from gossamer.riemann import _bernoulli_weights, _width_polynomial
from strategies import (
    euler_maclaurin_polynomial,
    panel_polynomials,
    panel_reference,
    point_polynomial,
    polynomials,
    same_value,
    small_rationals,
    sparse_or_dense,
    width_polynomial,
)

X = Polynomial.parse("x")
X2 = Polynomial.parse("x^2")
ONE = Polynomial.constant(1)

# Partition counts: the canonical w, higher and fractional powers, a
# scaled count, and counts c*w + k with k = 1 and with k outside {0, 1},
# where k^2 != k.
COUNTS = {
    "w": omega(),
    "w^2": omega(2),
    "w^3": omega(3),
    "w^1/2": omega(Fraction(1, 2)),
    "3w": 3 * omega(),
    "w+1": omega() + 1,
    "w-1": omega() - 1,
    "w+2": omega() + 2,
    "2w-3": 2 * omega() - 3,
}


@functools.cache
def bernoulli_alone(n: int) -> Fraction:
    """B_n (B_1 = +1/2) from an Akiyama-Tanigawa table of its own, read at its end."""
    work = [Fraction(1, m + 1) for m in range(n + 1)]
    for m in range(n + 1):
        for j in range(m, 0, -1):
            work[j - 1] = j * (work[j - 1] - work[j])
    return work[0]


def fraction_row(p: int) -> tuple:
    """S_p's coefficients in Fraction arithmetic: C(p+1, j)/(p+1)*B_j at n^(p+1-j)."""
    coefficients = [Fraction(0)] * (p + 2)
    for j in range(p + 1):
        coefficients[p + 1 - j] = Fraction(math.comb(p + 1, j), p + 1) * bernoulli_alone(j)
    return tuple(coefficients)


@contextlib.contextmanager
def counting_fractions():
    """A list that grows by one for each ``Fraction`` built in the block.

    ``Fraction(...)`` goes through ``__new__``; arithmetic on Python 3.12
    and later builds its results through ``_from_coprime_ints`` instead.
    """
    built = []
    new = Fraction.__dict__["__new__"].__func__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting_new))
        coprime = Fraction.__dict__.get("_from_coprime_ints")
        if coprime is not None:

            def counting_coprime(cls, numerator, denominator):
                built.append(cls)
                return coprime.__func__(cls, numerator, denominator)

            patch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        yield built


def brute_power_sum(p: int, n: int) -> Fraction:
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(k) ** p
    return total


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli_number(0) == 1
        # Fixed by sum_{k=1}^{n} k^0 = n needing the +1/2 convention.
        assert bernoulli_number(1) == Fraction(1, 2)

    def test_b2_from_square_sum(self):
        # Cross-check through the sum-of-squares closed form: the n^1
        # coefficient of S_2 is C(3,2)*B_2/3 = B_2.
        assert faulhaber(2).coefficients[1] == bernoulli_number(2) == Fraction(1, 6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_growing_prefix_matches_rows_computed_alone(self):
        order = [5, 0, 33, 12, 81, 1, 40, 100, 101, 120]
        for cold in (False, True):
            if cold:
                bernoulli_number.cache_clear()
                assert bernoulli_number.cache_info().currsize == 0  # started over
            assert [bernoulli_number(m) for m in order] == [bernoulli_alone(m) for m in order]
            assert all(type(bernoulli_number(m)) is Fraction for m in order)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_a_cold_number_builds_one_fraction(self):
        # Work count, not time: the recurrence sums integers, so a cold call
        # builds one Fraction per B_m it has not seen, and a warm call none.
        bernoulli_number.cache_clear()
        with counting_fractions() as built:
            bernoulli_number(40)
        assert len(built) == 41  # B_0..B_40
        with counting_fractions() as built:
            bernoulli_number(120)
        assert len(built) == 80  # B_41..B_120
        with counting_fractions() as built:
            bernoulli_number(120)
            bernoulli_number(7)
        assert built == []

    def test_cleared_caches_start_cold(self):
        # A cold traced set-up calls cache_clear on every module attribute that has one.
        for value in list(vars(gossamer.riemann).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        assert bernoulli_number.cache_info().currsize == 0
        assert faulhaber(12).coefficients[1] == Fraction(-691, 2730)


class TestFaulhaber:
    @example(degrees=list(range(121)), cold=False)
    @example(degrees=[120, 0, 101, 100], cold=True)
    @given(st.lists(st.integers(0, 120), min_size=1, max_size=4), st.booleans())
    def test_integer_rows_match_fraction_arithmetic(self, degrees, cold):
        # Each row, built in integers, against the row built in Fractions from
        # Bernoulli numbers of the independent table, cold or warm, in any order.
        if cold:
            bernoulli_number.cache_clear()
            faulhaber.cache_clear()
        for p in degrees:
            row = faulhaber(p)
            assert bernoulli_number(p) == bernoulli_alone(p)
            assert row.coefficients == fraction_row(p)
            assert all(type(c) is Fraction for c in row.coefficients)
            common, numerators = _common_numerators(row.coefficients)
            assert _integer_form(row) == (common, tuple(numerators))

    def test_a_row_keeps_only_its_integer_form_until_read(self):
        faulhaber.cache_clear()
        indefinite_sum(Polynomial.parse("x^7 + 2/3*x^3 - 5"))
        rows = {p: faulhaber(p) for p in (0, 3, 7, 120)}
        assert rows[120].degree == 121
        assert rows[7].evaluate(Fraction(17)) == brute_power_sum(7, 17)
        # Folded into G, asked for its degree, read at a rational point: no Fraction coefficient yet.
        assert all(row._coefficients is None for row in rows.values())
        for p, row in rows.items():
            coefficients = row.coefficients
            assert row._coefficients is coefficients
            assert coefficients == fraction_row(p)

    def test_a_cold_row_builds_no_fraction(self):
        # Work count, not time: with the Bernoulli numbers warm, a cold row
        # builds none; with them cold, only the new B_0..B_p.
        bernoulli_number.cache_clear()
        faulhaber.cache_clear()
        with counting_fractions() as built:
            faulhaber(30)
        assert len(built) == 31
        bernoulli_number(120)
        with counting_fractions() as built:
            for p in range(121):
                faulhaber(p)
        assert built == []

    def test_squares_closed_form(self):
        assert faulhaber(2) == Polynomial(
            (0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
        )  # (2n^3 + 3n^2 + n) / 6

    def test_count(self):
        assert faulhaber(0) == Polynomial((0, 1))

    def test_triangular(self):
        assert faulhaber(1) == Polynomial((0, Fraction(1, 2), Fraction(1, 2)))  # n(n+1)/2

    @pytest.mark.parametrize("p", range(0, 8))
    def test_against_brute_force(self, p):
        poly = faulhaber(p)
        for n in (1, 2, 3, 17, 60):
            assert poly.evaluate(Fraction(n)) == brute_power_sum(p, n)

    def test_shape(self):
        for p in range(6):
            poly = faulhaber(p)
            assert poly.degree == p + 1
            assert poly.evaluate(Fraction(0)) == 0


class TestUniformSum:
    def test_square(self):
        value = uniform_riemann_sum(X2).value
        assert value == Gossamer.parse("1/3 + 1/2*w^-1 + 1/6*w^-2")

    def test_constant(self):
        assert uniform_riemann_sum(ONE).value == 1

    def test_linear(self):
        assert uniform_riemann_sum(X).value == Gossamer.parse("1/2 + 1/2*w^-1")

    def test_finite_count_rejected(self):
        with pytest.raises(ValueError):
            uniform_riemann_sum(X2, Gossamer.from_rational(10))

    def test_record_rejects_a_finite_count(self):
        value = uniform_riemann_sum(X2).value
        finite = Gossamer.from_rational(10)
        with pytest.raises(ValueError, match="partition count must be infinite"):
            UniformRiemannSum(X2, finite, value)
        with pytest.raises(ValueError, match="partition count must be infinite"):
            uniform_riemann_sum(X2)._replace(partition_count=finite)

    def test_record_is_an_immutable_tuple(self):
        s = uniform_riemann_sum(X2)
        assert repr(s) == (
            "UniformRiemannSum(integrand=Polynomial('x^2'), partition_count=Gossamer('w'), "
            "value=Gossamer('1/3 + 1/2*w^-1 + 1/6*w^-2'))"
        )
        assert s == UniformRiemannSum(integrand=X2, partition_count=omega(), value=s.value)
        assert hash(s) == hash((X2, omega(), s.value))
        with pytest.raises(AttributeError):
            s.value = Gossamer()

    @given(polynomials, st.integers(min_value=1, max_value=12))
    def test_closed_form_matches_finite_sums(self, f, n):
        # Independent oracle: the value derived at infinity, evaluated at
        # the finite stand-in w = n, must equal the directly accumulated
        # sum over the count nu becomes there.  Degree <= 8 keeps every
        # term above the floor at all three counts, so each value is exact.
        for nu, count in ((omega(), n), (omega(2), n * n), (3 * omega(), 3 * n)):
            value = uniform_riemann_sum(f, nu).value
            direct = sum(
                (f.evaluate(Fraction(j, count)) * Fraction(1, count) for j in range(1, count + 1)),
                Fraction(0),
            )
            assert not value.truncated
            assert value.at_omega(n) == direct

    @given(polynomials)
    def test_euler_maclaurin_at_multi_term_count(self, f):
        # The width 1/(w + 1) is w^-1 - w^-2 + ..., so only its first
        # power reaches w^-1: that coefficient is the first
        # Euler-Maclaurin correction, (f(1) - f(0))/2.
        value = uniform_riemann_sum(f, omega() + 1).value
        assert value.standard_part() == f.integrate(0, 1)
        assert value.coefficient(-1) == (f.evaluate(Fraction(1)) - f.evaluate(Fraction(0))) / 2

    @pytest.mark.parametrize("f", [Polynomial(), Polynomial.parse("x^3 - 3/2*x^2 + 1/2*x")])
    def test_vanishing_sum_is_exact_zero(self, f):
        # x(x - 1/2)(x - 1) is odd about 1/2 and zero at 1, so its sum
        # vanishes at every count; no term was dropped, even at w + 1.
        for nu in (omega(), omega() + 1):
            value = uniform_riemann_sum(f, nu).value
            assert not value and not value.truncated

    def test_constant_sum_is_exact(self):
        # f = 5 sums to 5 at every count; 1/nu is truncated at w + 1, but
        # a constant Q_f takes no power of it, so nothing is flagged.
        value = uniform_riemann_sum(Polynomial.constant(5), omega() + 1).value
        assert value == 5 and not value.truncated

    @given(polynomials, polynomials, small_rationals)
    def test_linearity(self, f, g, alpha):
        combined = uniform_riemann_sum(alpha * f + g).value
        assert combined == alpha * uniform_riemann_sum(f).value + uniform_riemann_sum(g).value

    @given(polynomials)
    def test_partition_width_freedom(self, f):
        assert (
            uniform_riemann_sum(f, omega(2)).value.standard_part()
            == uniform_riemann_sum(f).value.standard_part()
        )

    @given(polynomials)
    def test_value_never_infinite(self, f):
        # Bounded integrands on [0, 1] keep the sum's leading exponent <= 0.
        value = uniform_riemann_sum(f).value
        assert (not value) or value.leading_exponent <= 0


@given(sparse_or_dense)
@example(Polynomial())
@example(Polynomial.constant(Fraction(-7, 3)))
@example(Polynomial.parse("1/101*x^3 - 2/103*x + 5/107"))  # pairwise coprime denominators, all in L
@example(Polynomial.parse("x - 1/2"))  # q_0, the integral, cancels to an exact 0
@example(Polynomial.parse("-5/6*x^81 + 7/30*x^2"))  # sparse, two terms up to degree 81
@example(Polynomial.parse("-x^4 - 2/3*x^2 - 5/7"))  # every coefficient negative
def test_power_sum_fold_matches_both_oracles(f):
    # Q_f by Euler-Maclaurin against the reflected Faulhaber fold and against
    # f's derivatives at 0 and 1; G by the integer fold against Polynomial sums.
    q_f = _width_polynomial(f)
    assert q_f == width_polynomial(f) == euler_maclaurin_polynomial(f)
    assert all(type(q) is Fraction for q in q_f.coefficients)
    point = indefinite_sum(f).point_function
    assert point == point_polynomial(f)
    # Both keep the integer form an integer reader would take from their coefficients.
    for p in (q_f, point):
        common, numerators = _common_numerators(p.coefficients)
        assert _integer_form(p) == (common, tuple(numerators))


def test_a_callers_integrand_takes_its_lcm_once(monkeypatch):
    # f keeps the integer form its first Riemann sum takes, so a second one,
    # at another count, takes no lcm of f's again.
    calls = []

    def counting(coefficients):
        calls.append(coefficients)
        return _common_numerators(coefficients)

    monkeypatch.setattr(gossamer.polynomial, "_common_numerators", counting)
    f = Polynomial.parse("3/7*x^40 - 1/2*x^2 + 1/3")
    for nu in (omega(), omega(2)):
        uniform_riemann_sum(f, nu)
    assert [c for c in calls if c is f.coefficients] == [f.coefficients]


def test_width_polynomial_is_built_once_per_integrand(monkeypatch):
    # f keeps Q_f whole: sums at w, w, w^2, w^1/2 and w + 1 build it once,
    # from the one weight row of f's degree.
    calls = []

    def counting(top):
        calls.append(top)
        return _bernoulli_weights(top)

    monkeypatch.setattr(gossamer.riemann, "_bernoulli_weights", counting)
    f = Polynomial.parse("3/7*x^40 - 1/2*x^2 + 1/3")
    for nu in (omega(), omega(), omega(2), omega(Fraction(1, 2)), omega() + 1):
        uniform_riemann_sum(f, nu)
    assert calls == [40]
    assert _width_polynomial(f) is f._width


def test_sums_at_a_unit_scale_count_share_q_fs_coefficients():
    # At nu = w^2, 1/nu = w^-2 and each term is Q_f's own coefficient, built
    # on the first read and kept: a second sum builds none.
    f = Polynomial.parse("3/7*x^40 - 1/2*x^2 + 1/3")
    first, second = (uniform_riemann_sum(f, omega(2)).value for _ in range(2))
    assert first.terms and [e for e, _ in first.terms] == [e for e, _ in second.terms]
    assert all(a is b for (_, a), (_, b) in zip(first.terms, second.terms))


@given(sparse_or_dense)
def test_a_kept_width_gives_a_fresh_integrands_values(f):
    # One f through every count twice, each read off the one Q_f it keeps,
    # against a fresh copy of f at each call.
    for nu in [*COUNTS.values()] * 2:
        kept = uniform_riemann_sum(f, nu).value
        assert same_value(kept, uniform_riemann_sum(Polynomial(f.coefficients), nu).value)


@given(sparse_or_dense)
def test_power_sum_fold_reads_each_row_once_in_ascending_degree(f):
    # perfbench's riemann.faulhaber_calls counts these calls: only G reads
    # rows, once per f, which keeps G for every later interval.
    calls = []

    def counting_faulhaber(degree):
        calls.append(degree)
        return faulhaber(degree)

    def no_row(degree):
        raise AssertionError(f"Q_f read faulhaber({degree})")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gossamer.sums, "faulhaber", counting_faulhaber)
        patch.setattr(gossamer.riemann, "faulhaber", no_row)
        indefinite_sum(f)
        for a, b in ((1, 10), (3, omega()), (omega(), omega(2)), (-4, omega() + 1)):
            sum_ftc(f, a, b)
        assert calls == [degree for degree, c in enumerate(f.coefficients) if c]
        uniform_riemann_sum(f)
        conjecture_probe(f, [Fraction(1, 3)], 4)


class TestReciprocalRead:
    """Q_f(1/nu) without nu.inverse(), against Horner's rule over it."""

    @given(sparse_or_dense, st.sampled_from(sorted(COUNTS)))
    def test_matches_horner_over_the_inverse(self, f, count):
        nu = COUNTS[count]
        q = width_polynomial(f)
        assert same_value(uniform_riemann_sum(f, nu).value, _horner(q.coefficients, nu.inverse()))

    # (f, nu): the read at its edges, and counts that are not c*w^e + k and
    # keep Horner over nu.inverse().
    EDGES = {
        "constant-at-w+1": (Polynomial.constant(Fraction(7, 3)), omega() + 1),
        "zero-f-at-w+1": (Polynomial(), omega() + 1),
        "zero-f-at-truncated-w": (Polynomial(), Gossamer(((1, 1),), truncated=True)),
        "constant-at-truncated-w": (Polynomial.constant(2), Gossamer(((1, 1),), truncated=True)),
        "linear-at-truncated-w": (X, Gossamer(((1, 1),), truncated=True)),
        "positive-floor": (X2, omega(2, floor=1)),
        "floor-above-the-constant": (ONE, omega(1, floor=Fraction(1, 2))),
        "shallow-floor-at-2w-3": (X2, Gossamer(((1, 2), (0, -3)), floor=-1)),
        "fallback-w^2+w": (X2, omega(2) + omega()),
        "fallback-w+1/2": (Polynomial.parse("x^3 - x"), omega() + Fraction(1, 2)),
        "fallback-w-w^-1": (X, omega() - omega(-1)),
    }

    @pytest.mark.parametrize("edge", EDGES)
    def test_edges_match_horner(self, edge):
        f, nu = self.EDGES[edge]
        q = width_polynomial(f)
        assert same_value(uniform_riemann_sum(f, nu).value, _horner(q.coefficients, nu.inverse()))

    # (f, nu, flagged): where the read of Q_f stops at the reach.  Q_f's
    # degree cannot be read off deg f: it is 0 or a constant for the cubic
    # below, and x^17 has q_17 = B_17*17/17 = 0 above the reach 16 at w,
    # where x^18 has q_18 = B_18 != 0.
    REACH_EDGES = {
        "zero-Q-at-w+1": (Polynomial.parse("x^3 - 3/2*x^2 + 1/2*x"), omega() + 1, False),
        "zero-Q-at-w": (Polynomial.parse("x^3 - 3/2*x^2 + 1/2*x"), omega(), False),
        "constant-Q-at-w+1": (Polynomial.parse("x^3 - 3/2*x^2 + 1/2*x + 1"), omega() + 1, False),
        "constant-Q-at-w": (Polynomial.parse("x^3 - 3/2*x^2 + 1/2*x + 1"), omega(), False),
        "constant-Q-at-truncated-w": (
            Polynomial.parse("x^3 - 3/2*x^2 + 1/2*x + 1"),
            Gossamer(((1, 1),), truncated=True),
            False,
        ),
        "x^17-at-w": (Polynomial.monomial(17), omega(), False),
        "x^18-at-w": (Polynomial.monomial(18), omega(), True),
        "sparse-degree-80-at-w^2": (
            Polynomial.parse("-5/6*x^80 + 7/30*x^41 + 2*x^3 - 1"),
            omega(2),
            True,
        ),
    }

    @pytest.mark.parametrize("edge", REACH_EDGES)
    def test_reach_edges_match_horner(self, edge):
        f, nu, flagged = self.REACH_EDGES[edge]
        value = uniform_riemann_sum(f, nu).value
        assert same_value(value, _horner(width_polynomial(f).coefficients, nu.inverse()))
        assert value.truncated is flagged


class TestRiemannLimit:
    def test_square(self):
        assert riemann_limit(X2) == Fraction(1, 3)

    def test_zero(self):
        assert riemann_limit(Polynomial()) == 0

    def test_sextic(self):
        # Oracle: faulhaber(5) leading coefficient is 1/6, so the scaled
        # sum of 6x^5 has standard part 1.
        assert riemann_limit(Polynomial.parse("6*x^5")) == 1

    @pytest.mark.parametrize("p", range(0, 11))
    def test_monomial_limits(self, p):
        assert riemann_limit(Polynomial.monomial(p)) == Fraction(1, p + 1)

    @given(polynomials)
    def test_equals_integral(self, f):
        assert riemann_limit(f) == f.integrate(0, 1)


class TestRemainder:
    def test_square(self):
        remainder = riemann_remainder(uniform_riemann_sum(X2))
        assert remainder.c == Gossamer.parse("1/2*w^-1 + 1/6*w^-2")
        assert remainder.valid

    def test_constant(self):
        remainder = riemann_remainder(uniform_riemann_sum(ONE))
        assert remainder.c == 0
        assert remainder.valid

    def test_linear(self):
        remainder = riemann_remainder(uniform_riemann_sum(X))
        assert remainder.c == Gossamer.parse("1/2*w^-1")
        assert remainder.valid

    def test_at_requested_count(self):
        # The sum at w^2 is the sum at w with w replaced by w^2.
        remainder = riemann_remainder(uniform_riemann_sum(X2, omega(2)))
        assert remainder.c == Gossamer.parse("1/2*w^-2 + 1/6*w^-4")
        assert remainder.valid

    def test_zero_sides_rejected(self):
        with pytest.raises(ZeroMagnitudeError):
            riemann_remainder(uniform_riemann_sum(Polynomial()))
        with pytest.raises(ZeroMagnitudeError):
            riemann_remainder(uniform_riemann_sum(Polynomial.parse("x - 1/2")))  # integral vanishes

    @given(polynomials)
    def test_remainder_is_first_order(self, f):
        if f.is_zero or f.integrate(0, 1) == 0:
            return
        remainder = riemann_remainder(uniform_riemann_sum(f))
        assert remainder.valid
        if remainder.c:
            assert remainder.c.leading_exponent <= -1


class TestIntegrability:
    def test_square(self):
        assert integrability_check(X2)

    def test_constant(self):
        assert integrability_check(ONE)

    def test_linear(self):
        assert integrability_check(X)

    def test_zero_rejected(self):
        with pytest.raises(ZeroMagnitudeError):
            integrability_check(Polynomial.parse("x - 1/2"))

    def test_panel_condition_at_infinite_panels(self):
        nu = omega()
        assert panel_asymptotic(X2, nu, nu * Fraction(1, 2))
        assert panel_asymptotic(X2, nu, nu - 1)

    def test_panel_condition_fails_at_finite_panel(self):
        # At j=1 the panel integral of x^2 is 7/(3 nu^2) against the
        # sample 1/nu^2: same order, different leading coefficient.
        assert not panel_asymptotic(X2, omega(), Gossamer.from_rational(1))
        # A zero integrand still ties there: panel integral and sample are both zero.
        assert panel_asymptotic(Polynomial(), omega(), Gossamer.from_rational(1))

    @pytest.mark.parametrize("count", ["w", "w^2", "w+1"])
    @pytest.mark.parametrize("f", [ONE, X, X2, Polynomial()], ids=["1", "x", "x^2", "0"])
    def test_panel_condition_takes_a_rational_panel_index(self, f, count):
        nu = COUNTS[count]
        expected = panel_asymptotic(f, nu, Gossamer.from_rational(1))
        assert panel_asymptotic(f, nu, 1) is expected
        assert panel_asymptotic(f, nu, Fraction(1)) is expected

    @pytest.mark.parametrize("nu", COUNTS.values(), ids=COUNTS.keys())
    def test_panel_condition_at_other_counts(self, nu):
        assert not panel_asymptotic(X2, nu, Gossamer.from_rational(1))
        assert panel_asymptotic(X2, nu, nu * Fraction(1, 2))
        assert panel_asymptotic(X2, nu, nu - 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_panel_integral_at_finite_stand_in(self, k):
        # Independent oracle for the reference's R and S: at a finite
        # stand-in N = W^k for nu and J = a*N + b, R(1/N) must equal the
        # exact integral of f(x/N) over [J, J+1], summed monomial by monomial
        # in plain fractions, and S(1/N) the sample f(J/N).
        rng = random.Random(k)
        for _ in range(60):
            degree = rng.randint(0, 16 // k)
            f = Polynomial(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1))
            for a, b in ((0, 1), (0, 5), (Fraction(1, 2), 0), (1, -1)):  # j = 1, 5, nu/2, nu - 1
                integral, sample = panel_polynomials(f, Fraction(a), Fraction(b))
                for w in (10, 64):
                    n = Fraction(w) ** k
                    big_j = a * n + b
                    expected = sum(
                        (c / (d + 1) * ((big_j + 1) ** (d + 1) - big_j ** (d + 1)) / n ** d
                         for d, c in enumerate(f.coefficients)),
                        Fraction(0),
                    )
                    assert integral.evaluate(1 / n) == expected
                    assert sample.evaluate(1 / n) == f.evaluate(big_j / n)

    @pytest.mark.parametrize(
        "f, at_one",
        [(Polynomial.parse("x^6"), False), (X2, False),
         (Polynomial.parse("x^40 - 3*x^17 + 1/2*x^5 + 2"), True)],
        ids=["x^6", "x^2", "sparse"],
    )
    def test_panel_condition_does_not_depend_on_the_floor(self, f, at_one):
        # At nu = w^3 and up both sides of x^6's j = 1 panel fall below
        # w^-16; the verdict is the rule's, not that of two empty series.
        verdicts = {
            (panel_asymptotic(f, nu, 1), panel_asymptotic(f, nu, nu * Fraction(1, 2)),
             panel_asymptotic(f, nu, nu - 1))
            for nu in (omega(e) for e in range(1, 21))
        }
        assert verdicts == {(at_one, True, True)}

    def test_panel_index_off_the_form_is_rejected(self):
        nu = omega()
        with pytest.raises(ValueError, match="a\\*nu \\+ b"):
            panel_asymptotic(X2, nu, omega(2))
        with pytest.raises(ValueError, match="a\\*nu \\+ b"):
            panel_asymptotic(X2, nu, nu * Fraction(1, 2) + omega(-1))


@st.composite
def panels(draw):
    """``(f, a, b, nu)``, f often with a zero of some order at a, nu at floors -40 to 0."""
    a = draw(st.one_of(st.sampled_from([0, 1, Fraction(1, 2), 2]), small_rationals))
    b = draw(st.one_of(st.sampled_from([0, 1, -1, Fraction(-1, 2), 5]), small_rationals))
    f = draw(polynomials) * Polynomial((-a, 1)) ** draw(st.integers(0, 4))
    count = draw(st.sampled_from(list(COUNTS.values())))
    nu = Gossamer(count.terms, floor=draw(st.integers(-40, 0)))
    return f, Fraction(a), Fraction(b), nu


@given(panels())
@example((Polynomial.parse("x^6"), Fraction(0), Fraction(1), omega(3)))  # both sides below w^-16
@example((Polynomial(), Fraction(0), Fraction(1), omega()))
# The panel [nu/2 - 1/2, nu/2 + 1/2] straddles the zero of x - 1/2: a zero integral.
@example((Polynomial.parse("x - 1/2"), Fraction(1, 2), Fraction(-1, 2), omega()))
def test_panel_condition_matches_the_reference(case):
    # The verdict at j = a*nu + b against R and S composed in fractions:
    # they must share their lowest nonzero term, whatever nu and its floor.
    f, a, b, nu = case
    expected = panel_reference(f, a, b)
    assert panel_asymptotic(f, nu, nu * a + b) is expected
    if not a:
        assert panel_asymptotic(f, nu, b) is expected


class TestPipeline:
    def test_square(self):
        trace = definite_to_sum_pipeline(X2)
        values = [stage.value for stage in trace.stages]
        third = Gossamer.from_rational(Fraction(1, 3))
        assert values[0] == values[1] == values[2] == third
        assert values[3] == Gossamer.parse("1/3 + 1/2*w^-1 + 1/6*w^-2")
        assert trace.remainder == Gossamer.parse("1/2*w^-1 + 1/6*w^-2")
        assert trace.remainder_negligible

    @pytest.mark.parametrize("nu", COUNTS.values(), ids=COUNTS.keys())
    def test_square_at_other_counts(self, nu):
        trace = definite_to_sum_pipeline(X2, nu)
        assert [str(stage.value) for stage in trace.stages[:3]] == ["1/3"] * 3
        assert trace.remainder_negligible

    def test_constant(self):
        trace = definite_to_sum_pipeline(ONE)
        assert all(stage.value == 1 for stage in trace.stages)
        assert trace.remainder == 0
        assert trace.remainder_negligible is True

    @pytest.mark.parametrize("nu", [omega(), omega(2)], ids=["w", "w^2"])
    def test_zero_integral_has_no_verdict(self, nu):
        # The remainder 1/2*nu^-1 has nothing to be negligible against.
        trace = definite_to_sum_pipeline(Polynomial.parse("x - 1/2"), nu)
        assert trace.stages[2].value == 0
        assert trace.remainder == Fraction(1, 2) * nu.inverse()
        assert trace.remainder_negligible is None

    def test_zero_integral_has_no_verdict_when_the_remainder_truncates(self):
        # At w^17 the remainder 1/2*w^-17 drops below the floor: its series is
        # empty but flagged, so it is still nonzero against the zero integral.
        trace = definite_to_sum_pipeline(Polynomial.parse("x - 1/2"), omega(17))
        assert not trace.remainder and trace.remainder.truncated
        assert trace.stages[2].value == 0
        assert trace.remainder_negligible is None

    def test_zero_polynomial_is_negligible(self):
        trace = definite_to_sum_pipeline(Polynomial())
        assert trace.remainder == 0
        assert trace.remainder_negligible is True

    def test_stage_numbering(self):
        trace = definite_to_sum_pipeline(X)
        assert [stage.stage for stage in trace.stages] == [1, 2, 3, 4]

    @given(polynomials)
    def test_reverse_direction(self, f):
        # Feeding the stage-4 value back, the standard part recovers stage 1.
        trace = definite_to_sum_pipeline(f)
        assert trace.stages[3].value.standard_part() == trace.stages[0].value.standard_part()
        assert trace.stages[0].value == trace.stages[1].value == trace.stages[2].value
        verdict = None if trace.remainder and not f.integrate(0, 1) else True
        assert trace.remainder_negligible is verdict


class TestDivergentIntegral:
    def test_square(self):
        value = divergent_integral_via_sum(2, omega())
        assert value == Gossamer.parse("1/3*w^3")
        assert value.asymptotic_to(X2.integrate(1, omega()))

    def test_constant(self):
        assert divergent_integral_via_sum(0, omega()) == omega()

    def test_linear(self):
        assert divergent_integral_via_sum(1, omega()) == Gossamer.parse("1/2*w^2")
        # Oracle: exact integral is w^2/2 - 1/2.
        assert X.integrate(1, omega()) == Gossamer.parse("1/2*w^2 - 1/2")

    def test_finite_count_rejected(self):
        with pytest.raises(ValueError):
            divergent_integral_via_sum(2, Gossamer.from_rational(3))


class TestConjectureProbe:
    def test_square_dyadic(self):
        probe = conjecture_probe(
            X2, [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)], 2 ** 10
        )
        assert probe.gap < 1e-2
        assert abs(probe.uniform_value - 1 / 3) < 1e-2
        assert abs(probe.tagged_value - 1 / 3) < 1e-2

    def test_constant_has_no_gap(self):
        probe = conjecture_probe(ONE, [Fraction(1, 3)], 64)
        assert probe.gap == 0.0

    def test_refinement_sweep_shrinks_gap(self):
        partition = [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)]
        gaps = [conjecture_probe(X, partition, 2 ** k).gap for k in range(6, 13)]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            conjecture_probe(X2, [Fraction(1, 2), Fraction(1, 2)], 8)
        with pytest.raises(ValueError):
            conjecture_probe(X2, [Fraction(3, 2)], 8)
        with pytest.raises(ValueError):
            conjecture_probe(X2, [], 0)

    # Sparse f of degree 20 and 41: a series Q_f at the default floor, -16,
    # would drop terms; Q_f read at 1/n keeps them all.
    @pytest.mark.parametrize(
        "f",
        [
            X2,
            Polynomial.parse("x^20 - 3/2*x^13 + 5*x^2 - 1"),
            Polynomial.parse("-7/6*x^41 + x^40 + 2/5*x^17 - x"),
        ],
    )
    @pytest.mark.parametrize(
        "partition", [[], [Fraction(2, 5)], [Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)]]
    )
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_exact_probe_matches_fraction_sums(self, f, partition, n):
        def riemann(lo, hi):
            width = (hi - lo) / n
            return sum((f.evaluate(lo + i * width) * width for i in range(1, n + 1)), Fraction(0))

        edges = [Fraction(0)] + partition + [Fraction(1)]
        probe = conjecture_probe(f, partition, n)
        assert all(type(v) is Fraction for v in probe)
        assert probe.uniform_value == riemann(Fraction(0), Fraction(1))
        assert probe.tagged_value == sum(riemann(lo, hi) for lo, hi in zip(edges, edges[1:]))
        assert probe.gap == abs(probe.uniform_value - probe.tagged_value)

    @pytest.mark.parametrize("n", [2.0, 2.5, Fraction(7)])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(ValueError):
            conjecture_probe(X2, [Fraction(1, 2)], n)

    def test_report_case_gap_is_the_closed_form_gap(self):
        n = 2 ** 14
        gap = Fraction(4957, 13824) / n + Fraction(347, 2304) / n ** 2
        probe = conjecture_probe(X2, (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)), n)
        assert probe.gap == gap
        report = run_suite("riemann", seed=0, cases=1)
        (case,) = [c for c in report.cases if c.id == "riemann-conjecture-probe"]
        assert case.actual.endswith(f"; gap={gap}")
