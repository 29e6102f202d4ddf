"""Riemann engine: closed-form sums at infinity against brute-force oracles."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gossamer.riemann
import gossamer.sums
from gossamer import (
    Gossamer,
    Polynomial,
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
    uniform_riemann_sum,
)
from gossamer.polynomial import _horner
from gossamer.riemann import _inverse, _scaled_integral, _width_polynomial
from strategies import (
    euler_maclaurin_polynomial,
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
# scaled count and a multi-term count.
COUNTS = {
    "w": omega(),
    "w^2": omega(2),
    "w^3": omega(3),
    "w^1/2": omega(Fraction(1, 2)),
    "3w": 3 * omega(),
    "w+1": omega() + 1,
}


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
        # Oracle: an Akiyama-Tanigawa table of its own for each n, read at its end.
        def alone(n):
            work = [Fraction(1, m + 1) for m in range(n + 1)]
            for m in range(n + 1):
                for j in range(m, 0, -1):
                    work[j - 1] = j * (work[j - 1] - work[j])
                if m == n:
                    return work[0]

        order = [5, 0, 33, 12, 81, 1, 40]
        for cold in (False, True):
            if cold:
                bernoulli_number.cache_clear()
                assert bernoulli_number.cache_info().currsize == 0  # started over
            assert [bernoulli_number(m) for m in order] == [alone(m) for m in order]
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_cleared_caches_start_cold(self):
        # A cold traced set-up calls cache_clear on every module attribute that has one.
        for value in list(vars(gossamer.riemann).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        assert bernoulli_number.cache_info().currsize == 0
        assert faulhaber(12).coefficients[1] == Fraction(-691, 2730)


class TestFaulhaber:
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
    q_f = _width_polynomial(f.coefficients)
    assert q_f == width_polynomial(f) == euler_maclaurin_polynomial(f)
    assert all(type(q) is Fraction for q in q_f.coefficients)
    assert indefinite_sum(f).point_function == point_polynomial(f)


@given(sparse_or_dense)
def test_power_sum_fold_reads_each_row_once_in_ascending_degree(f):
    # perfbench's riemann.faulhaber_calls counts these calls: only G reads rows.
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
        # Independent oracle: at nu = w^k with deg f * k <= 16 every term of
        # the panel integral lies above the floor, so the series evaluated
        # at w = W must equal the exact integral of f(x/N) over [J, J+1],
        # N = W^k, summed monomial by monomial in plain fractions.
        rng = random.Random(k)
        nu = omega(k)
        for _ in range(60):
            degree = rng.randint(0, 16 // k)
            f = Polynomial(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1))
            for j in (Gossamer.from_rational(1), Gossamer.from_rational(5), nu * Fraction(1, 2), nu - 1):
                integral = _scaled_integral(f, _inverse(nu), j, j + 1).realize(nu.truncation_floor)
                assert not integral.truncated
                for w in (10, 64):
                    n, big_j = Fraction(w) ** k, j.at_omega(w)
                    expected = sum(
                        (c / (d + 1) * ((big_j + 1) ** (d + 1) - big_j ** (d + 1)) / n ** d
                         for d, c in enumerate(f.coefficients)),
                        Fraction(0),
                    )
                    assert integral.at_omega(w) == expected


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
