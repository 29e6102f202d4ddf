"""Command-line front end: verification suites and demo computations.

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input or usage.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .core import DEFAULT_TRUNCATION_FLOOR, Gossamer, ParseError, omega
from .polynomial import Polynomial, ftc_inverse_check
from .riemann import (
    definite_to_sum_pipeline,
    panel_asymptotic,
    riemann_remainder,
    uniform_riemann_sum,
)
from .sums import prefix_sums_match, sum_ftc

if TYPE_CHECKING:
    from .steps import StepFunction

USAGE_EXIT = 2

# The most CSV rows `smooth --samples` writes; each row is one bisection over the bridges.
MAX_SAMPLES = 100_000

# The most cases `verify --cases` runs per suite; time grows linearly with the count,
# and `--suite all` at this bound runs for minutes.
MAX_CASES = 10_000

# The parser's choices, spelled out so that building it imports neither
# ``report`` nor ``steps``: only ``verify`` runs the first and only
# ``smooth`` the second.  They are ``report.SUITE_NAMES`` and each alias's
# ``steps.BridgeShape`` value.
_SUITE_NAMES = ("gossamer-axioms", "riemann", "ftc", "sum-ftc", "smoothing")
_SHAPE_ALIASES = {
    "linear": "linear",
    "cubic": "cubic_smoothstep",
    "cubic_smoothstep": "cubic_smoothstep",
    "quintic": "quintic_smoothstep",
    "quintic_smoothstep": "quintic_smoothstep",
}


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"expected a rational, got {text!r}") from exc


def _endpoint_arg(text: str) -> Gossamer:
    """An integer, or a gossamer expression such as 'w' for an infinite endpoint.

    A term below the default floor would drop, and the endpoint read as if
    it were never there, so such an expression is usage.
    """
    try:
        return Gossamer.from_rational(int(text))
    except ValueError:
        pass
    try:
        value = Gossamer.parse(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if value.truncated:
        raise argparse.ArgumentTypeError(
            f"endpoint {text!r} has a term below the floor w^{DEFAULT_TRUNCATION_FLOOR}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossamer",
        description="Exact infinitesimal arithmetic: verification suites and demos.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", default="all", choices=_SUITE_NAMES + ("all",))
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--cases", type=int, default=100, help=f"cases per suite, 1 to {MAX_CASES}")
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--timing", action="store_true", help="include duration in JSON")

    riemann = sub.add_parser("riemann", help="uniform Riemann sum of a polynomial at infinity")
    riemann.add_argument("--poly", required=True)
    riemann.add_argument("--nu-exp", type=_fraction_arg, default=Fraction(1))
    riemann.add_argument("--json", action="store_true")

    ftc = sub.add_parser("ftc", help="difference quotient of an accumulation function")
    ftc.add_argument("--poly", required=True)
    ftc.add_argument("--a", type=_fraction_arg, default=Fraction(0))
    ftc.add_argument("--x", type=_fraction_arg, required=True)
    ftc.add_argument("--h-exp", type=_fraction_arg, default=Fraction(-1))
    ftc.add_argument("--json", action="store_true")

    sums = sub.add_parser("sum", help="closed-form summation, checked by brute-force prefix sums")
    sums.add_argument("--term", required=True)
    sums.add_argument("--from", dest="start", type=_endpoint_arg, required=True)
    sums.add_argument("--to", dest="end", type=_endpoint_arg, required=True)
    sums.add_argument("--json", action="store_true")

    smooth_cmd = sub.add_parser("smooth", help="continuous representation of a step function")
    smooth_cmd.add_argument("--input", required=True, help="step function JSON file")
    smooth_cmd.add_argument("--shape", default="linear", choices=sorted(_SHAPE_ALIASES))
    smooth_cmd.add_argument("--eps-exp", type=_fraction_arg, default=Fraction(-1))
    smooth_cmd.add_argument("--from", dest="start", type=_fraction_arg, default=None)
    smooth_cmd.add_argument("--to", dest="end", type=_fraction_arg, default=None)
    smooth_cmd.add_argument("--emit-csv", metavar="PATH", default=None)
    smooth_cmd.add_argument(
        "--samples", type=int, default=201, help=f"CSV rows, 2 to {MAX_SAMPLES}"
    )
    smooth_cmd.add_argument(
        "--standin-width",
        type=_fraction_arg,
        default=None,
        help="finite half-width used only for CSV sampling",
    )
    smooth_cmd.add_argument("--json", action="store_true")

    pipeline = sub.add_parser("pipeline", help="integral-to-sum transformation trace")
    pipeline.add_argument("--poly", required=True)
    pipeline.add_argument("--nu-exp", type=_fraction_arg, default=Fraction(1))

    return parser


def _emit(payload: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _cmd_verify(args) -> int:
    if args.cases > MAX_CASES:
        raise ValueError(f"--cases must be at most {MAX_CASES}")
    from .report import run_suite

    report = run_suite(args.suite, seed=args.seed, cases=args.cases)
    if args.json:
        print(report.to_json(include_timing=args.timing))
    else:
        for case in report.cases:
            if not case.passed:
                print(f"FAIL {case.id}: {case.actual} (inputs: {case.inputs})")
        print(
            f"suite={report.suite} passed={report.passed} failed={report.failed} "
            f"duration={report.duration:.2f}s"
        )
    return 0 if report.all_passed else 1


def _partition_count(nu_exp: Fraction) -> Gossamer:
    if nu_exp <= 0:
        raise ValueError("--nu-exp must be positive so the partition count is infinite")
    return omega(nu_exp)


def _cmd_riemann(args) -> int:
    f = Polynomial.parse(args.poly)
    nu = _partition_count(args.nu_exp)
    riemann_sum = uniform_riemann_sum(f, nu)
    total = riemann_sum.value
    st = total.standard_part()
    integral = f.integrate(0, 1)
    payload = {
        "poly": f.to_text(),
        "nu": str(nu),
        "sum": str(total),
        "standard_part": str(st),
        "integral_0_1": str(integral),
        "truncated": total.truncated,
    }
    if total and integral:
        remainder = riemann_remainder(riemann_sum)
        payload["remainder"] = str(remainder.c)
        payload["remainder_negligible"] = remainder.valid
    # The single-panel condition sampled at a finite, a mid-range and a
    # near-top panel; informational (it can fail at finite panels).
    payload["panel_asymptotic"] = {
        "j=1": panel_asymptotic(f, nu, Gossamer.from_rational(1)),
        "j=nu/2": panel_asymptotic(f, nu, nu * Fraction(1, 2)),
        "j=nu-1": panel_asymptotic(f, nu, nu - 1),
    }
    _emit(payload, args.json, [f"sum = {total}; st = {st}"])
    return 0 if st == integral else 1


def _check_infinitesimal_exponent(option: str, exponent: Fraction, what: str) -> None:
    """w^exponent must be a nonzero infinitesimal: below 0, and not below the floor."""
    if exponent >= 0:
        raise ValueError(f"{option} must be negative so {what} is infinitesimal")
    if exponent < DEFAULT_TRUNCATION_FLOOR:
        raise ValueError(
            f"{option} must be at least {DEFAULT_TRUNCATION_FLOOR}, the truncation floor, "
            f"or {what} truncates to 0"
        )


def _cmd_ftc(args) -> int:
    f = Polynomial.parse(args.poly)
    _check_infinitesimal_exponent("--h-exp", args.h_exp, "the step")
    h = omega(args.h_exp)
    check = ftc_inverse_check(f, args.a, args.x, h)
    payload = {
        "poly": f.to_text(),
        "a": str(args.a),
        "x": str(args.x),
        "h": str(h),
        "difference_quotient": str(check.difference_quotient),
        "recovered": str(check.recovered),
        "equal": check.equal,
        "truncated": check.difference_quotient.truncated,
    }
    _emit(
        payload,
        args.json,
        [
            f"quotient = {check.difference_quotient}; "
            f"recovered = {check.recovered}; equal = {str(check.equal).lower()}"
        ],
    )
    return 0 if check.equal else 1


def _cmd_sum(args) -> int:
    g = Polynomial.parse(args.term)
    result = sum_ftc(g, args.start, args.end)
    closed_form = result.closed_form.point_function
    match = prefix_sums_match(g, closed_form)
    payload = {
        "term": g.to_text("k"),
        "from": str(args.start),
        "to": str(args.end),
        "closed_form": closed_form.to_text("n"),
        "value": str(result.value),
        "truncated": result.value.truncated,
        "oracle": f"brute-force prefix sums at n = 0..{g.degree + 1}",
        "match": match,
    }
    _emit(
        payload,
        args.json,
        [
            f"closed_form = {closed_form.to_text('n')}",
            f"value = {result.value}; oracle match = {str(match).lower()}",
        ],
    )
    return 0 if match else 1


def _default_standin(step: StepFunction) -> Fraction:
    gaps = [b - a for a, b in zip(step.breakpoints, step.breakpoints[1:])]
    return min(gaps) / 8 if gaps else Fraction(1, 4)


def _cmd_smooth(args) -> int:
    from .steps import (
        BridgeShape,
        StepFunction,
        area_delta,
        sample_curve,
        smooth,
        smoothed_area,
        transfer_to_real,
        trapezoid_discontinuity_budget,
    )

    shape = BridgeShape(_SHAPE_ALIASES[args.shape])
    with open(args.input, "r", encoding="utf-8") as fh:
        step = StepFunction.from_json(fh.read())
    _check_infinitesimal_exponent("--eps-exp", args.eps_exp, "the half-width")
    if step.breakpoints:
        lo = min(step.breakpoints) - 1 if args.start is None else args.start
        hi = max(step.breakpoints) + 1 if args.end is None else args.end
    else:
        lo = Fraction(-1) if args.start is None else args.start
        hi = Fraction(1) if args.end is None else args.end

    if args.emit_csv:
        if not 2 <= args.samples <= MAX_SAMPLES:
            raise ValueError(f"--samples must be between 2 and {MAX_SAMPLES}")
        width = _default_standin(step) if args.standin_width is None else args.standin_width
        xs = [lo + (hi - lo) * Fraction(i, args.samples - 1) for i in range(args.samples)]
        ys = sample_curve(step, shape, width, xs)
        with open(args.emit_csv, "w", encoding="utf-8") as fh:
            fh.write(
                f"# smoothed step function; shape={args.shape}; eps=w^{args.eps_exp} "
                f"rendered at finite stand-in half-width {width}; "
                "x and y exact, each rounded once to the nearest float\n"
            )
            fh.write("x,y\n")
            for x, y in zip(xs, ys):
                fh.write(f"{float(x)!r},{float(y)!r}\n")

    eps = omega(args.eps_exp)
    smoothed = smooth(step, shape, eps)
    delta = area_delta(step, smoothed, lo, hi)
    budget = trapezoid_discontinuity_budget(step, eps)
    round_trip = transfer_to_real(smoothed) == step
    area = smoothed_area(smoothed, lo, hi)
    payload = {
        "input": step.to_json_dict(),
        "shape": shape.value,
        "eps": str(eps),
        "interval": [str(lo), str(hi)],
        "area": str(step.area(lo, hi)),
        "smoothed_area": str(area),
        "area_delta": str(delta.delta),
        "delta_infinitesimal": delta.infinitesimal,
        "budget_per_bridge": [str(piece) for piece in budget.per_bridge],
        "budget_total": str(budget.total),
        "budget_infinitesimal": budget.infinitesimal,
        "round_trip_identity": round_trip,
        "truncated": area.truncated or delta.delta.truncated or budget.total.truncated,
    }
    _emit(
        payload,
        args.json,
        [f"area_delta = {delta.delta}, budget = {budget.total}"],
    )
    return 0 if delta.infinitesimal and budget.infinitesimal and round_trip else 1


def _cmd_pipeline(args) -> int:
    f = Polynomial.parse(args.poly)
    nu = _partition_count(args.nu_exp)
    trace = definite_to_sum_pipeline(f, nu)
    payload = {
        "poly": f.to_text(),
        "nu": str(nu),
        "stages": [
            {"stage": s.stage, "expression": s.expression, "value": str(s.value)}
            for s in trace.stages
        ],
        "remainder": str(trace.remainder),
        "remainder_negligible": trace.remainder_negligible,
        "truncated": trace.remainder.truncated or any(s.value.truncated for s in trace.stages),
    }
    _emit(payload, True, ())
    # None (a nonzero remainder against a zero integral) is no failure.
    return 1 if trace.remainder_negligible is False else 0


_COMMANDS = {
    "verify": _cmd_verify,
    "riemann": _cmd_riemann,
    "ftc": _cmd_ftc,
    "sum": _cmd_sum,
    "smooth": _cmd_smooth,
    "pipeline": _cmd_pipeline,
}


def _attach_negative_values(argv: Sequence[str]) -> list:
    """``--opt -v`` as ``--opt=-v``: argparse reads a bare ``-1/2`` or ``-x^2`` as an option.

    Every single-dash token but ``-h`` joins a bare ``--opt`` before it:
    the parser defines no other short option.
    """
    joined: list = []
    for token in argv:
        previous = joined[-1] if joined else ""
        bare_option = previous.startswith("--") and previous != "--" and "=" not in previous
        if bare_option and token.startswith("-") and not token.startswith("--") and token != "-h":
            joined[-1] = f"{previous}={token}"
            continue
        joined.append(token)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
