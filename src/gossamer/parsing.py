"""The term grammar of series and polynomials, read and written.

Both text forms are flat linear combinations: terms joined by top-level
``+``/``-``, each term an optional rational coefficient, an optional
``*``, an optional single-letter symbol and an optional ``^exponent``
with the exponent itself a rational.  Examples:

    1/3 + 1/2*w^-1
    3/2*x^2 - x + 5

``read_terms`` is the one reader and ``write_terms`` the one writer;
each parser adds only its own domain check (the symbol ``w`` for a
series, one variable and integer degrees for a polynomial).
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional


class ParseError(ValueError):
    """Malformed expression text; ``position`` is the character offset."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} at position {position}")
        self.position = position


_TERM_RE = re.compile(
    r"""^
    (?P<sign>[+-])?\s*
    (?P<coeff>\d+(?:\s*/\s*\d+)?)?
    \s*(?P<star>\*)?\s*
    (?P<symbol>[A-Za-z])?
    (?:\^(?P<exp>[+-]?\d+(?:/\d+)?))?
    $""",
    re.VERBOSE,
)


def split_terms(text: str) -> list[tuple[int, str, int]]:
    """Split on top-level +/- and return (sign, term_text, position) triples.

    A +/- is an operator only when some term content precedes it and the
    last significant character is not ^, * or / (so "w^-1" and "-2" stay
    intact).  A term's position is that of its first non-space character.
    """
    terms: list[tuple[int, str, int]] = []
    sign = 1
    start = first = 0
    prev = ""
    content = False
    for i, ch in enumerate(text):
        if ch in "+-" and content and prev not in "^*/":
            terms.append((sign, text[start:i].strip(), first))
            sign = 1 if ch == "+" else -1
            start = i + 1
            prev = ""
            content = False
            continue
        if not ch.isspace():
            if not content:
                first = i
            prev = ch
            content = True
    tail = text[start:].strip()
    if not tail:
        raise ParseError("dangling operator" if terms else "empty expression", start)
    terms.append((sign, tail, first))
    return terms


def match_term(chunk: str, position: int) -> tuple[Fraction, Optional[str], Fraction]:
    """One term as (coefficient, symbol, exponent); only the symbol may be absent."""
    m = _TERM_RE.match(chunk.strip())
    if m is None or (m.group("coeff") is None and m.group("symbol") is None):
        raise ParseError(
            f"expected a term such as '3/2', 'w' or '2*w^-1', got {chunk!r}", position
        )
    if m.group("exp") is not None and m.group("symbol") is None:
        raise ParseError("expected a symbol before '^'", position)
    if m.group("star") and (m.group("coeff") is None or m.group("symbol") is None):
        raise ParseError("expected '*' to join a coefficient and a symbol", position)
    try:
        coeff = Fraction(m.group("coeff").replace(" ", "")) if m.group("coeff") else Fraction(1)
        exponent = Fraction(m.group("exp") or (1 if m.group("symbol") else 0))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {chunk!r}", position) from None
    return (-coeff if m.group("sign") == "-" else coeff), m.group("symbol"), exponent


def read_terms(text: str) -> Iterator[tuple[Fraction, Optional[str], Fraction, int]]:
    """``(coefficient, symbol, exponent, position)`` for each term, the sign applied.

    A bare symbol has coefficient 1 and exponent 1, a constant exponent 0.
    """
    for sign, chunk, position in split_terms(text):
        coeff, symbol, exponent = match_term(chunk, position)
        yield sign * coeff, symbol, exponent, position


def write_terms(pairs: Iterable[tuple], symbol: str) -> str:
    """The text of nonzero ``(exponent, coefficient)`` pairs, in their order; ``"0"`` for none."""
    out = []
    for e, c in pairs:
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        size = abs(c)
        unit = symbol if e == 1 else f"{symbol}^{e}"
        out.append(str(size) if e == 0 else unit if size == 1 else f"{size}*{unit}")
    return "".join(out) or "0"
