"""Randomized verification suites with deterministic, machine-readable reports.

Each suite is one case function: from a seeded generator it draws case
i's inputs and re-checks the library's identities from scratch
(brute-force sums, both sides of each equality), so a report is
evidence, not a restatement.  ``run_suite`` owns the one loop over cases.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple

from .core import Gossamer, Kind, bounded_series_sum, omega
from .polynomial import (
    Polynomial,
    ftc_inverse_check,
    order_swap_demo,
    scale_integral_identity,
    shift_integral_identity,
)
from .riemann import (
    conjecture_probe,
    definite_to_sum_pipeline,
    divergent_integral_via_sum,
    faulhaber,
    integrability_check,
    riemann_limit,
    uniform_riemann_sum,
)
from .steps import (
    BridgeShape,
    StepFunction,
    area_delta,
    smooth,
    smoothed_area,
    transfer_to_real,
    trapezoid_discontinuity_budget,
)
from .sums import (
    indefinite_sum,
    prefix_sums_match,
    sum_at_point,
    sum_ftc,
    sum_interval_bruteforce,
)

__all__ = ["CaseResult", "SUITE_NAMES", "VerificationReport", "run_suite"]


@dataclass(frozen=True)
class CaseResult:
    id: str
    inputs: str
    expected: str
    actual: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases: Tuple[CaseResult, ...]
    passed: int
    failed: int
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "cases", tuple(sorted(self.cases, key=lambda c: c.id)))
        if self.passed != sum(c.passed for c in self.cases) or self.failed != sum(
            not c.passed for c in self.cases
        ):
            raise ValueError("summary counts do not match the case tallies")

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json_dict(self, include_timing: bool = False) -> dict:
        # Timing is excluded by default so identical (suite, seed, cases)
        # runs serialize byte-identically.
        return {
            "suite": self.suite,
            "cases": [
                {
                    "id": c.id,
                    "inputs": c.inputs,
                    "expected": c.expected,
                    "actual": c.actual,
                    "pass": c.passed,
                }
                for c in self.cases
            ],
            "summary": {
                "passed": self.passed,
                "failed": self.failed,
                "duration": self.duration if include_timing else None,
            },
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_json_dict(include_timing), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        data = json.loads(text)
        cases = tuple(
            CaseResult(c["id"], c["inputs"], c["expected"], c["actual"], c["pass"])
            for c in data["cases"]
        )
        duration = data["summary"]["duration"]
        return cls(
            data["suite"],
            cases,
            data["summary"]["passed"],
            data["summary"]["failed"],
            0.0 if duration is None else duration,
        )


Checks = list[tuple[str, bool]]


def _case(suite: str, index: int, inputs: str, checks: Checks) -> CaseResult:
    failed = [name for name, ok in checks if not ok]
    return CaseResult(
        id=f"{suite}-{index:04d}",
        inputs=inputs,
        expected="all checks hold",
        actual="ok" if not failed else "failed: " + ", ".join(failed),
        passed=not failed,
    )


# -- random generators ----------------------------------------------------


def _fraction(rng, lo=-100, hi=100, max_den=12) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _nonzero_fraction(rng, lo=1, hi=12, max_den=6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den)) * rng.choice((-1, 1))


def _poly(rng, max_degree, lo=-20, hi=20, max_den=6) -> Polynomial:
    degree = rng.randint(0, max_degree)
    return Polynomial([_fraction(rng, lo, hi, max_den) for _ in range(degree + 1)])


def _gossamer(rng, max_terms=3) -> Gossamer:
    # Exponents stay within [-2, 2] so that triple products in the axiom
    # checks cannot cross the default truncation floor.
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append((Fraction(rng.randint(-4, 4), 2), _fraction(rng, -20, 20, 6)))
    return Gossamer(terms)


def _step_function(rng, max_jumps=10) -> StepFunction:
    count = rng.randint(0, max_jumps)
    points: set[Fraction] = set()
    while len(points) < count:
        points.add(Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3))))
    levels = [Fraction(rng.randint(-100, 100), rng.randint(1, 4)) for _ in range(count + 1)]
    return StepFunction(tuple(sorted(points)), tuple(levels))


# -- suites: case i's (inputs, checks), from a generator seeded per suite --


def _gossamer_axioms_case(rng: random.Random, i: int) -> tuple[str, Checks]:
    a, b, c = _gossamer(rng), _gossamer(rng), _gossamer(rng)
    p, q = _fraction(rng), _fraction(rng)
    checks = [
        ("add-assoc", (a + b) + c == a + (b + c)),
        ("add-comm", a + b == b + a),
        ("mul-assoc", (a * b) * c == a * (b * c)),
        ("mul-comm", a * b == b * a),
        ("distributivity", a * (b + c) == a * b + a * c),
        ("add-inverse", a - a == 0),
        (
            "rational-embedding",
            Gossamer.from_rational(p) + Gossamer.from_rational(q) == p + q
            and Gossamer.from_rational(p) * Gossamer.from_rational(q) == p * q,
        ),
    ]
    if a:
        # Cancellation reaches the floor itself only for leading
        # exponent <= 0; for infinite values the residue is bounded
        # below floor + leading exponent instead.
        residue = a * a.inverse() - 1
        bound = a.truncation_floor + max(a.leading_exponent, 0)
        checks.append(("mul-inverse", (not residue) or residue.leading_exponent < bound))
    if a.compare(b) < 0:
        checks.append(("order-translation", (a + c).compare(b + c) < 0))
    if a.compare(0) > 0 and b.compare(0) > 0:
        checks.append(("positive-product", (a * b).compare(0) > 0))
    if a.classify() is not Kind.INFINITE and b.classify() is not Kind.INFINITE:
        checks.append(
            ("st-additive", (a + b).standard_part() == a.standard_part() + b.standard_part())
        )
        checks.append(
            ("st-multiplicative", (a * b).standard_part() == a.standard_part() * b.standard_part())
        )
    if a and b:
        flags = (a.much_less(b), b.much_less(a), a.leading_exponent == b.leading_exponent)
        checks.append(("magnitude-trichotomy", sum(flags) == 1))
        if a.asymptotic_to(b):
            d = b - a
            checks.append(
                ("asymptotic-decomposition", (not d) or (d.much_less(a) and d.much_less(b)))
            )
    # sum_{k=1}^{order} a_k*h^k at h = w^e is the terms (k*e, a_k), a_k
    # cycling through the list: the nonzero ones at or above the floor are
    # kept, and a nonzero one below it sets the flag.
    series_coeffs = [_fraction(rng, -9, 9, 3) for _ in range(rng.randint(1, 5))]
    h = omega(rng.choice((-1, -3)))
    order = rng.randint(1, 8)
    total = bounded_series_sum(series_coeffs, h, order)
    placed = [
        (k * h.leading_exponent, series_coeffs[(k - 1) % len(series_coeffs)])
        for k in range(1, order + 1)
    ]
    floor = h.truncation_floor
    checks.append(
        (
            "series-sum-placement",
            total.terms == tuple((e, c) for e, c in placed if c and e >= floor)
            and total.truncated == any(c and e < floor for e, c in placed),
        )
    )
    return f"a={a}; b={b}; c={c}", checks


def _riemann_case(rng: random.Random, i: int) -> tuple[str, Checks]:
    f = _poly(rng, 6)
    g = _poly(rng, 6)
    alpha = _nonzero_fraction(rng)
    p = rng.randint(0, 8)
    n = rng.randint(1, 60)
    trace = definite_to_sum_pipeline(f)
    total = uniform_riemann_sum(f).value
    integral = f.integrate(0, 1)
    # A nonzero remainder has no verdict against a zero integral.
    verdict = None if trace.remainder and not integral else True
    checks = [
        ("limit-equals-integral", riemann_limit(f) == integral),
        (
            "sum-linearity",
            uniform_riemann_sum(alpha * f + g).value
            == alpha * total + uniform_riemann_sum(g).value,
        ),
        (
            "faulhaber-oracle",
            faulhaber(p).evaluate(Fraction(n))
            == sum((Fraction(k) ** p for k in range(1, n + 1)), Fraction(0)),
        ),
        ("pipeline-stages-1-3", trace.stages[0].value == trace.stages[1].value == trace.stages[2].value),
        ("pipeline-standard-part", trace.stages[3].value.standard_part() == trace.stages[0].value.standard_part()),
        ("pipeline-remainder", trace.remainder_negligible is verdict),
        (
            "partition-width-freedom",
            uniform_riemann_sum(f, omega(2)).value.standard_part() == total.standard_part(),
        ),
        (
            "divergent-integral",
            divergent_integral_via_sum(p, omega()).asymptotic_to(
                Polynomial.monomial(p).integrate(1, omega())
            ),
        ),
    ]
    if total and integral:
        remainder = total - Gossamer.from_rational(integral)
        checks.append(
            (
                "remainder-negligible",
                (not remainder)
                or (remainder.much_less(total) and remainder.leading_exponent <= -1),
            )
        )
        checks.append(("integrability", integrability_check(f)))
    return f"f={f}; alpha={alpha}; p={p}; n={n}", checks


def _conjecture_probe_case() -> CaseResult:
    """The riemann suite's report-only case, after its drawn ones."""
    probe = conjecture_probe(
        Polynomial.parse("x^2"), (Fraction(1, 3), Fraction(1, 2), Fraction(7, 8)), 2 ** 14
    )
    return CaseResult(
        id="riemann-conjecture-probe",
        inputs="f=x^2; partition=(1/3, 1/2, 7/8); n=2^14",
        expected="report-only, never asserted",
        actual=f"uniform={probe.uniform_value}; tagged={probe.tagged_value}; gap={probe.gap}",
        passed=True,
    )


def _ftc_case(rng: random.Random, i: int) -> tuple[str, Checks]:
    antiderivative = _poly(rng, 8)
    f = _poly(rng, 6)
    g = _poly(rng, 6)
    a, b = sorted((_fraction(rng), _fraction(rng)))
    mid = _fraction(rng)
    x = _fraction(rng, -10, 10, 4)
    alpha = _nonzero_fraction(rng)
    shift = _fraction(rng)
    inverse_check = ftc_inverse_check(f, a, x, omega(-1))
    swap = order_swap_demo(f, x, omega(-1))
    checks = [
        (
            "ftc",
            antiderivative.derivative().integrate(a, b)
            == antiderivative.evaluate(b) - antiderivative.evaluate(a),
        ),
        ("ftc-inverse", inverse_check.equal),
        ("ftc-inverse-value", inverse_check.recovered == f.evaluate(x)),
        ("scaling-identity", scale_integral_identity(f, a, b, alpha).equal),
        ("shifting-identity", shift_integral_identity(f, a, b, shift).equal),
        (
            "linearity",
            (alpha * f + g).integrate(a, b)
            == alpha * f.integrate(a, b) + g.integrate(a, b),
        ),
        (
            "range-additivity",
            f.integrate(a, mid) + f.integrate(mid, b) == f.integrate(a, b),
        ),
        (
            "order-swap-consistency",
            swap.differ == (f.evaluate(x) != f.integrate(0, 1)),
        ),
    ]
    return f"F={antiderivative}; f={f}; a={a}; b={b}; x={x}", checks


def _sum_ftc_case(rng: random.Random, i: int) -> tuple[str, Checks]:
    g = _poly(rng, 6, lo=-20, hi=20, max_den=4)
    a = rng.randint(0, 100)
    b = rng.randint(a, 100)
    c = rng.randint(b + 1, b + 40)
    n = rng.randint(1, 100)
    p = rng.randint(0, 8)
    closed = indefinite_sum(g)
    half = sum_at_point(closed, b) - sum_at_point(closed, a)
    half_oracle = (
        sum_interval_bruteforce(g, a + 1, b) if a + 1 <= b else Fraction(0)
    )
    symbolic = sum_ftc(g, 1, omega()).value
    a_to_b = sum_ftc(g, a, b).value
    checks = [
        ("closed-vs-brute", a_to_b == sum_interval_bruteforce(g, a, b)),
        ("oracle-flag", prefix_sums_match(g, closed.point_function)),
        (
            "telescoping",
            closed.point_function.evaluate(Fraction(n))
            - closed.point_function.evaluate(Fraction(n - 1))
            == g.evaluate(Fraction(n)),
        ),
        (
            "additivity",
            a_to_b + sum_ftc(g, b + 1, c).value == sum_ftc(g, a, c).value,
        ),
        ("half-open-convention", half == half_oracle),
        (
            "faulhaber-consistency",
            indefinite_sum(Polynomial.monomial(p)).point_function == faulhaber(p),
        ),
        (
            "infinite-endpoint-substitution",
            symbolic.at_omega(n) == sum_interval_bruteforce(g, 1, n),
        ),
    ]
    return f"g={g.to_text('k')}; a={a}; b={b}; c={c}", checks


# Smoothing rotates its bridge shape and half-width with the case index.
_SHAPES = tuple(BridgeShape)
_EPSILONS = (omega(-1), omega(-2), omega(-5))
# Each shape's s(1/4) and s(3/4), worked by hand from its polynomial.
_BRIDGE_QUARTERS = {
    BridgeShape.LINEAR: (Fraction(1, 4), Fraction(3, 4)),
    BridgeShape.CUBIC_SMOOTHSTEP: (Fraction(5, 32), Fraction(27, 32)),
    BridgeShape.QUINTIC_SMOOTHSTEP: (Fraction(53, 512), Fraction(459, 512)),
}


def _smoothing_case(rng: random.Random, i: int) -> tuple[str, Checks]:
    step = _step_function(rng)
    if step.breakpoints:
        a = min(step.breakpoints) - 1
        b = max(step.breakpoints) + 1
    else:
        a, b = Fraction(-1), Fraction(1)
    shape = _SHAPES[i % len(_SHAPES)]
    eps = _EPSILONS[i % len(_EPSILONS)]
    smoothed = smooth(step, shape, eps)
    budget = trapezoid_discontinuity_budget(step, eps)
    checks = [
        ("area-preservation", area_delta(step, smoothed, a, b).infinitesimal),
        (
            "transfer-area-commutation",
            smoothed_area(smoothed, a, b).standard_part() == step.area(a, b),
        ),
        ("round-trip", transfer_to_real(smoothed) == step),
        ("budget-infinitesimal", budget.infinitesimal),
        (
            "budget-linear-scaling",
            trapezoid_discontinuity_budget(step, 3 * eps).total == 3 * budget.total,
        ),
    ]
    # One bridge per case keeps the suite fast.
    for q, lo, hi in list(step.jumps())[:1]:
        at = Gossamer.from_rational(q)
        checks.append(
            (
                f"continuity-at-{q}",
                smoothed.value_at(at - eps) == lo
                and smoothed.value_at(at + eps) == hi
                and smoothed.value_at(at) == Fraction(lo + hi, 2),
            )
        )
        # q -+ eps/2 lies at t = 1/4 and 3/4 of the bridge, where only the
        # shape sets the value.
        inside = [smoothed.value_at(at - eps / 2), smoothed.value_at(at + eps / 2)]
        checks.append(
            (f"bridge-inside-at-{q}", inside == [lo + (hi - lo) * s for s in _BRIDGE_QUARTERS[shape]])
        )
    return f"jumps={len(step.breakpoints)}; shape={shape.value}; eps={eps}", checks


_SUITES: dict[str, Callable[[random.Random, int], tuple[str, Checks]]] = {
    "gossamer-axioms": _gossamer_axioms_case,
    "riemann": _riemann_case,
    "ftc": _ftc_case,
    "sum-ftc": _sum_ftc_case,
    "smoothing": _smoothing_case,
}

SUITE_NAMES = tuple(_SUITES)


def _suite(name: str, seed: int, cases: int) -> list[CaseResult]:
    draw, rng = _SUITES[name], random.Random(seed)
    results = [_case(name, i, *draw(rng, i)) for i in range(cases)]
    if name == "riemann":
        results.append(_conjecture_probe_case())
    return results


def run_suite(name: str, seed: int = 0, cases: int = 100) -> VerificationReport:
    """Run a named suite (or 'all') with deterministic pseudo-randomness."""
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    if name != "all" and name not in _SUITES:
        choices = ", ".join(SUITE_NAMES + ("all",))
        raise ValueError(f"unknown suite {name!r}; choose one of: {choices}")
    start = time.perf_counter()
    names = SUITE_NAMES if name == "all" else (name,)
    results = [case for sub in names for case in _suite(sub, seed, cases)]
    duration = time.perf_counter() - start
    return VerificationReport(
        suite=name,
        cases=tuple(results),
        passed=sum(c.passed for c in results),
        failed=sum(not c.passed for c in results),
        duration=duration,
    )
