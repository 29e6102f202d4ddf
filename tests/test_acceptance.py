"""Acceptance criteria: exact identities and property checks at full scale.

Every check is zero-tolerance rational equality except the final probe,
which is recorded and never asserted.  One pass/fail line per criterion
is printed in the terminal summary.
"""
import random
import time
from fractions import Fraction

from gossamer import (
    BridgeShape,
    Gossamer,
    Kind,
    Polynomial,
    bounded_series_sum,
    conjecture_probe,
    divergent_integral_via_sum,
    faulhaber,
    ftc_inverse_check,
    omega,
    order_swap_demo,
    run_suite,
    smooth,
    area_delta,
    prefix_sums_match,
    sum_ftc,
    sum_interval_bruteforce,
    transfer_to_real,
    trapezoid_discontinuity_budget,
    uniform_riemann_sum,
    StepFunction,
)

H = omega(-1)


def _random_polynomial(rng, max_degree, lo=-20, hi=20, max_den=6):
    degree = rng.randint(0, max_degree)
    return Polynomial(
        [Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) for _ in range(degree + 1)]
    )


def test_c01_faulhaber_oracle_exact_and_fast():
    """p <= 10, n <= 200: closed forms equal brute-force power sums, under 1 s."""
    start = time.perf_counter()
    for p in range(11):
        closed = faulhaber(p)
        running = Fraction(0)
        for n in range(1, 201):
            running += Fraction(n) ** p
            assert closed.evaluate(Fraction(n)) == running, (p, n)
    elapsed = time.perf_counter() - start
    # The sum-of-squares closed form (2n^3 + 3n^2 + n) / 6.
    assert faulhaber(2) == Polynomial((0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c02_uniform_riemann_sum_of_square():
    """The sum at an infinite count is exactly 1/3 + 1/2 w^-1 + 1/6 w^-2."""
    value = uniform_riemann_sum(Polynomial.parse("x^2"), omega()).value
    assert value == Gossamer.parse("1/3 + 1/2*w^-1 + 1/6*w^-2")
    assert value.standard_part() == Fraction(1, 3)


def test_c03_divergent_integral():
    """The sum route gives w^3/3, asymptotic to the exact integral from 1 to w."""
    value = divergent_integral_via_sum(2, omega())
    assert value == Gossamer.parse("1/3*w^3")
    exact = Polynomial.parse("x^2").integrate(1, omega())
    assert exact == Gossamer.parse("1/3*w^3 - 1/3")
    assert value.asymptotic_to(exact)


def test_c04_ftc_500_random_cases():
    """Integral of the derivative equals the endpoint difference, exactly, < 5 s."""
    rng = random.Random(40404)
    start = time.perf_counter()
    for _ in range(500):
        antiderivative = _random_polynomial(rng, 8)
        a = Fraction(rng.randint(-50, 49), rng.randint(1, 8))
        b = a + Fraction(rng.randint(1, 100), rng.randint(1, 8))
        assert a < b
        assert antiderivative.derivative().integrate(a, b) == antiderivative.evaluate(
            b
        ) - antiderivative.evaluate(a)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c05_ftc_inverse_500_random_cases():
    """The difference quotient's standard part recovers the integrand exactly."""
    rng = random.Random(50505)
    for _ in range(500):
        p = _random_polynomial(rng, 8)
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        check = ftc_inverse_check(p, a, x, H)
        assert check.equal
        assert check.recovered == p.evaluate(x)


def test_c06_order_of_limits_remark():
    """Collapsing the step first gives w^-1; refining first gives (1/3) w^-1."""
    swap = order_swap_demo(Polynomial.parse("x^2"), 1, H)
    assert swap.h_first == H
    assert swap.n_first == Fraction(1, 3) * H
    assert swap.h_first != swap.n_first
    assert swap.differ


def test_c07_bounded_series_closure():
    """200 random bounded coefficient lists stay infinitesimal; theta matches."""
    rng = random.Random(70707)
    for _ in range(200):
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 5)) for _ in range(rng.randint(1, 8))]
        coeffs[0] = coeffs[0] or Fraction(1)  # keep the sum nonzero
        h = omega(rng.choice((-1, -3)))
        total = bounded_series_sum(coeffs, h, rng.randint(1, 10))
        assert total.classify() in (Kind.ZERO, Kind.INFINITESIMAL)
    for exponent in (-1, -3):
        h = omega(exponent)
        theta = h / (1 - h)
        geometric = bounded_series_sum([1], h, 20)  # 1*h + 1*h^2 + ... to the floor
        assert theta == geometric
        assert theta.classify() is Kind.INFINITESIMAL


def test_c08_sum_ftc_oracle_500_random_cases():
    """Closed-form interval sums equal brute-force accumulation, exactly."""
    rng = random.Random(80808)
    k = Polynomial.parse("k")
    pinned = sum_ftc(k, 3, 10)
    assert pinned.value == 52 and prefix_sums_match(k, pinned.closed_form.point_function)
    for _ in range(500):
        g = _random_polynomial(rng, 6, lo=-12, hi=12, max_den=4)
        a = rng.randint(0, 100)
        b = rng.randint(a, 100)
        result = sum_ftc(g, a, b)
        assert prefix_sums_match(g, result.closed_form.point_function)
        assert result.value == sum_interval_bruteforce(g, a, b)


def test_c09_smoothing_area_preservation_200_random_cases():
    """Bridges never change area by more than an infinitesimal; transfer is exact."""
    rng = random.Random(90909)
    shapes = tuple(BridgeShape)
    for i in range(200):
        jumps = rng.randint(0, 20)
        points: set[Fraction] = set()
        while len(points) < jumps:
            points.add(Fraction(rng.randint(-90, 90), rng.choice((1, 2, 3))))
        levels = [Fraction(rng.randint(-100, 100), rng.randint(1, 4)) for _ in range(jumps + 1)]
        step = StepFunction(tuple(sorted(points)), tuple(levels))
        lo = (min(points) if points else Fraction(0)) - 1
        hi = (max(points) if points else Fraction(0)) + 1
        shape = shapes[i % 3]
        for eps in (omega(-1), omega(-5)):
            smoothed = smooth(step, shape, eps)
            delta = area_delta(step, smoothed, lo, hi)
            assert delta.infinitesimal
            budget = trapezoid_discontinuity_budget(step, eps)
            assert budget.total.classify() in (Kind.ZERO, Kind.INFINITESIMAL)
            assert transfer_to_real(smoothed) == step


def test_c10_conjecture_probe_report_only():
    """Record the uniform-vs-tagged gap at n = 2^14; never a failing assertion."""
    probe = conjecture_probe(
        Polynomial.parse("x^2"), (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)), 2 ** 14
    )
    below_threshold = probe.gap < 1e-3
    print(
        f"conjecture probe at n=2^14: uniform={probe.uniform_value!r} "
        f"tagged={probe.tagged_value!r} gap={probe.gap!r} "
        f"(below 1e-3: {below_threshold}; report-only, not asserted)"
    )
    report = run_suite("riemann", seed=0, cases=1)
    recorded = [c for c in report.cases if c.id == "riemann-conjecture-probe"]
    assert len(recorded) == 1, "probe must be recorded in the verification report"
    assert "gap=" in recorded[0].actual
