"""The term grammar shared by series and polynomials: round trips and pinned errors."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gossamer import Gossamer, ParseError, Polynomial
from strategies import sparse_or_dense

letters = st.sampled_from("xknptw")


@given(sparse_or_dense, letters)
def test_polynomial_text_round_trip_in_any_letter(p, var):
    text = p.to_text(var)
    assert Polynomial.parse(text).to_text(var) == text


# (parser, text, message, position): every ParseError either grammar raises.
PARSE_ERRORS = [
    (Polynomial, "x^2 + k", "mixed variables 'x' and 'k'", 6),
    (Polynomial, "x - 2*y^3", "mixed variables 'x' and 'y'", 4),
    (Gossamer, "2*z^3", "unexpected symbol 'z': expected 'w'", 0),
    (Gossamer, "1 + x", "unexpected symbol 'x': expected 'w'", 4),
    (Gossamer, "  x", "unexpected symbol 'x': expected 'w'", 2),
    (Polynomial, "x^1/2", "polynomial exponents must be non-negative integers", 0),
    (Polynomial, "3 + x^-1", "polynomial exponents must be non-negative integers", 4),
    (Polynomial, "x^101", "polynomial degree above 100", 0),
    (Gossamer, "1 +", "dangling operator", 3),
    (Polynomial, "x^2 -", "dangling operator", 5),
    (Gossamer, "1 + ^2", "expected a term such as '3/2', 'w' or '2*w^-1', got '^2'", 4),
    (Polynomial, "1 + ^2", "expected a term such as '3/2', 'w' or '2*w^-1', got '^2'", 4),
    (Polynomial, "x + 1 - - ", "expected a term such as '3/2', 'w' or '2*w^-1', got '-'", 8),
    (Gossamer, "2^3", "expected a symbol before '^'", 0),
    (Polynomial, "2*", "expected '*' to join a coefficient and a symbol", 0),
    (Gossamer, "*w", "expected '*' to join a coefficient and a symbol", 0),
    (Gossamer, "", "empty expression", 0),
    (Polynomial, "   ", "empty expression", 0),
    (Polynomial, "1/0*x", "zero denominator in '1/0*x'", 0),
    (Polynomial, "x^1/0", "zero denominator in 'x^1/0'", 0),
    (Polynomial, "x + 3 / 00", "zero denominator in '3 / 00'", 4),
    (Gossamer, "1/0", "zero denominator in '1/0'", 0),
    (Gossamer, "w - w^1/0", "zero denominator in 'w^1/0'", 4),
]


@pytest.mark.parametrize(
    "parser, text, message, position",
    PARSE_ERRORS,
    ids=[f"{parser.__name__}:{text!r}" for parser, text, _, _ in PARSE_ERRORS],
)
def test_parse_error_message_and_position(parser, text, message, position):
    with pytest.raises(ParseError) as excinfo:
        parser.parse(text)
    assert str(excinfo.value) == f"{message} at position {position}"
    assert excinfo.value.position == position
