"""Hypothesis strategies, and the exact value comparison, shared across the test modules."""
from fractions import Fraction

from hypothesis import strategies as st

from gossamer import Gossamer, Polynomial, StepFunction

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
