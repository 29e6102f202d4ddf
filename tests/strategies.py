"""Hypothesis strategies, the exact value comparison and the power-sum oracles shared across the test modules."""
import math
from fractions import Fraction

from hypothesis import strategies as st

from gossamer import Gossamer, Polynomial, StepFunction, bernoulli_number, faulhaber

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)

# Exponents within [-2, 2] (halves), so triple products in the field-axiom
# checks stay well above the default truncation floor and stay exact.
exponents = st.integers(min_value=-4, max_value=4).map(lambda n: Fraction(n, 2))

gossamers = st.lists(
    st.tuples(exponents, small_rationals), max_size=4
).map(Gossamer)
nonzero_gossamers = gossamers.filter(bool)

polynomials = st.lists(small_rationals, max_size=9).map(Polynomial)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero)

# Sparse polynomials up to degree 81 whose coefficients carry Bernoulli-like
# denominators, and dense ones of low degree.
sparse_or_dense = st.one_of(
    polynomials,
    st.dictionaries(
        st.integers(0, 81),
        st.builds(Fraction, st.integers(-30, 30).filter(bool), st.sampled_from([1, 6, 30, 2730])),
        max_size=4,
    ).map(lambda c: Polynomial([c.get(d, 0) for d in range(max(c, default=-1) + 1)])),
)


@st.composite
def step_functions(draw, max_jumps=8):
    count = draw(st.integers(min_value=0, max_value=max_jumps))
    points = draw(
        st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=3),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    levels = draw(
        st.lists(
            st.fractions(min_value=-100, max_value=100, max_denominator=4),
            min_size=count + 1,
            max_size=count + 1,
        )
    )
    return StepFunction(tuple(sorted(points)), tuple(levels))


def same_value(a, b):
    """Term for term, exponent types included, with the same floor and flag."""
    return (
        a.terms == b.terms
        and [type(e) for e, _ in a.terms] == [type(e) for e, _ in b.terms]
        and a.truncation_floor == b.truncation_floor
        and a.truncated is b.truncated
    )


def width_polynomial(f):
    """Q_f by the power-sum fold in ``Fraction``s: c_d*s_{d,m} into slot d + 1 - m."""
    slots = [Fraction(0)] * (len(f.coefficients) + 1)
    for degree, c in enumerate(f.coefficients):
        if c:
            for m, s in enumerate(faulhaber(degree).coefficients):
                slots[degree + 1 - m] += c * s
    return Polynomial(slots)


def euler_maclaurin_polynomial(f):
    """Q_f from derivatives: q_0 = integral_0^1 f, q_i = B_i/i!*(f^(i-1)(1) - f^(i-1)(0))."""
    q = [f.integrate(Fraction(0), Fraction(1))]
    derivative = f
    for i in range(1, len(f.coefficients)):
        jump = derivative.evaluate(Fraction(1)) - derivative.evaluate(Fraction(0))
        q.append(bernoulli_number(i) / math.factorial(i) * jump)
        derivative = derivative.derivative()
    return Polynomial(q)


def point_polynomial(g):
    """G by the power-sum forms, one ``Polynomial`` product and sum per degree."""
    expected = Polynomial()
    for degree, c in enumerate(g.coefficients):
        expected = expected + c * faulhaber(degree)
    return expected
