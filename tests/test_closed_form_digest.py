"""One sha256 over the closed forms' exact outputs, floors and flags included.

The CLI and verify digests print no floor and no ``truncated`` flag, so
this one pins them for ``uniform_riemann_sum`` and ``sum_ftc`` over a
fixed set: every count the benchmark scans (the relabelling and
reciprocal reads), ``w^2 + w`` (the general path), and lower endpoints
that are rational, at a positive or truncated floor, or infinite.  A
refactor that keeps these bytes keeps every term, exponent type, floor
and flag.
"""
import hashlib
from fractions import Fraction

from gossamer import Gossamer, Polynomial, omega, sum_ftc, uniform_riemann_sum

POLYNOMIALS = [
    Polynomial(),
    Polynomial.constant(5),
    Polynomial.parse("x"),
    Polynomial.parse("x^2"),
    Polynomial.parse("x - 1/2"),
    Polynomial.parse("3/2*x^5 - x^2 + 1/7"),
    Polynomial.parse("-5/6*x^13 + 7/30*x^2"),
    Polynomial.parse("x^20 - 3*x^9 + 1/2*x^2 + 2"),
]

COUNTS = [
    omega(),
    omega(2),
    3 * omega(),
    omega(Fraction(1, 2)),
    omega() + 1,
    omega(2) + omega(),
]

LOWER_ENDPOINTS = [
    1,
    0,
    -3,
    7,
    Gossamer(floor=Fraction(1, 2)),
    Gossamer(floor=2, truncated=True),
    Gossamer(((0, 3),), floor=Fraction(1, 2)),
    Gossamer(((0, 2),), floor=-3, truncated=True),
    omega(),
    omega(Fraction(1, 2)) + 1,
    omega(2) - 4,
]

EXPECTED = "fe0c6389a6a53eea35643b77b06809efb5bd51dcd8c0dada0f904bc04cfa59f5"


def _record(value: Gossamer) -> str:
    terms = ";".join(f"{e}:{type(e).__name__}:{c}" for e, c in value.terms)
    return f"{terms}|{value.truncation_floor}|{value.truncated}\n"


def closed_form_digest() -> str:
    digest = hashlib.sha256()
    for f in POLYNOMIALS:
        for nu in COUNTS:
            digest.update(_record(uniform_riemann_sum(f, nu).value).encode())
    for g in POLYNOMIALS:
        for b in COUNTS:
            for a in LOWER_ENDPOINTS:
                try:
                    line = _record(sum_ftc(g, a, b).value)
                except ValueError as exc:
                    line = f"{type(exc).__name__}: {exc}\n"
                digest.update(line.encode())
    return digest.hexdigest()


def test_closed_form_outputs_match_the_pinned_digest():
    assert closed_form_digest() == EXPECTED
