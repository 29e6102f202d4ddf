"""The benchmark's workloads: seeded inputs, one op, and the oracle check of its output.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  Op ``i`` depends only on the workload
seed and ``i``, so any prefix of the op sequence is reproducible.
Size parameters (polynomial degree, summation range) walk a golden-ratio
sequence from a seeded start instead of being drawn independently, so
every run covers their range evenly whatever its seed and op count.

The checks compare outputs with ``oracle``, which computes with
``Fraction`` and ``int`` alone.  A check returns ``None`` when the output
is right, else a short reason naming the field that was wrong.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import oracle

FLOOR_ENV = "GOSSAMER_TRUNC_FLOOR"
SUITES = ("gossamer-axioms", "riemann", "ftc", "sum-ftc", "smoothing")
_PHI = (5 ** 0.5 - 1) / 2


def spread(start: float, j: int) -> float:
    """The j-th point of a golden-ratio sequence in [0, 1)."""
    return (start + j * _PHI) % 1.0


def _fraction(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _nonzero(rng: random.Random, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, max_den)) * rng.choice((-1, 1))


def dense_coeffs(rng: random.Random, degree: int) -> list[Fraction]:
    coeffs = [_fraction(rng, -20, 20, 6) for _ in range(degree)]
    return coeffs + [_nonzero(rng, 20, 6)]


def sparse_coeffs(rng: random.Random, degree: int, extra: int) -> list[Fraction]:
    """A nonzero leading term plus ``extra`` random lower-degree terms."""
    coeffs = [Fraction(0)] * (degree + 1)
    coeffs[degree] = _nonzero(rng, 9, 4)
    for _ in range(extra if degree else 0):
        coeffs[rng.randrange(degree)] = _fraction(rng, -9, 9, 4)
    return coeffs


def poly_text(coeffs, var: str = "x") -> str:
    """Render coefficients in the CLI's polynomial grammar, e.g. ``3/2*x^2 - x + 5``."""
    parts = []
    for degree in range(len(coeffs) - 1, -1, -1):
        c = coeffs[degree]
        if not c:
            continue
        unit = "" if degree == 0 else var if degree == 1 else f"{var}^{degree}"
        magnitude = abs(c)
        body = str(magnitude) if not unit else unit if magnitude == 1 else f"{magnitude}*{unit}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    text = ("-" if first_sign == "-" else "") + first
    return text + "".join(f" {sign} {body}" for sign, body in parts[1:])


def child_env(root: Path) -> dict:
    """Environment for gossamer child processes: ``src`` importable, floor override removed."""
    env = dict(os.environ)
    env.pop(FLOOR_ENV, None)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Workload:
    """Base class: ``setup``, then ``op(i)``, ``call(op)`` and ``check(op, output)``."""

    name = ""
    in_process = True
    # A traced run's fixed op list is a whole number of these op cycles,
    # sized from --seconds at this nominal rate; it must not depend on
    # measured time, so that its counts repeat exactly.
    cycle = 1
    nominal_ops_per_s = 1.0

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def call(self, op):
        raise NotImplementedError

    def check(self, op, output) -> Optional[str]:
        raise NotImplementedError

    def group(self, op) -> str:
        return self.name

    def trace_op_count(self, seconds: float) -> int:
        # A traced run replays the list twice (untraced, then traced), so
        # each pass gets about a third of the time budget.
        cycles = round(seconds * self.nominal_ops_per_s / 3 / self.cycle)
        return max(1, cycles) * self.cycle

    def close(self) -> None:
        pass


# -- verify-mix -------------------------------------------------------------

# Each riemann-suite call also pays one float conjecture probe at n = 2^14
# (about 0.5 s on a shared 2-CPU machine, whatever the case count), and each
# riemann case about 30 ms more.  At 15 cases the probe is about half of a
# riemann op and a third of a five-suite rotation (about 1.3 s); more
# cases would push the 100 ops that a p90 needs past a 30 s run.
VERIFY_CASES = 15
VERIFY_WARMUP_CASES = 2


@dataclass(frozen=True)
class SuiteOp:
    suite: str
    seed: int


class VerifyMix(Workload):
    """``run_suite(suite, seed, VERIFY_CASES)``, rotating through the five suites.

    Rotations 2m and 2m+1 share their seeds, so every (suite, seed) runs
    twice and its JSON report must be byte-identical both times.
    """

    name = "verify-mix"
    cycle = len(SUITES)
    nominal_ops_per_s = 3.5

    def setup(self) -> None:
        self.g = importlib.import_module("gossamer")
        rng = random.Random(f"{self.name}:{self.seed}")
        self.seeds = [rng.randrange(1 << 31) for _ in range(1024)]
        self.digests: dict[SuiteOp, str] = {}
        for suite in SUITES:
            self.g.run_suite(suite, rng.randrange(1 << 31), VERIFY_WARMUP_CASES)

    def op(self, i: int) -> SuiteOp:
        rotation = i // len(SUITES)
        return SuiteOp(SUITES[i % len(SUITES)], self.seeds[(rotation // 2) % len(self.seeds)])

    def call(self, op: SuiteOp):
        return self.g.run_suite(op.suite, op.seed, VERIFY_CASES)

    def check(self, op: SuiteOp, report) -> Optional[str]:
        expected = VERIFY_CASES + (1 if op.suite == "riemann" else 0)
        if report.failed != 0:
            return "failed cases"
        if report.passed != expected or len(report.cases) != expected:
            return "case count"
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        if self.digests.setdefault(op, digest) != digest:
            return "json not byte-identical"
        return None

    def group(self, op: SuiteOp) -> str:
        return op.suite


# -- closed-form-scan ---------------------------------------------------------

NUS = ("w", "w^2", "3w", "w^1/2", "w+1")
DENSE_MAX_DEGREE = 8
SPARSE_DEGREES = (9, 80)
CLOSED_FORM_DECK = 2048

# For each nu, substitutions (base, power, n) with w = base**power making
# nu equal to the finite panel count n.
SUBSTITUTIONS = {
    "w": ((Fraction(2), 1, 2), (Fraction(3), 1, 3)),
    "w^2": ((Fraction(2), 1, 4), (Fraction(3), 1, 9)),
    "3w": ((Fraction(2, 3), 1, 2), (Fraction(5, 3), 1, 5)),
    "w^1/2": ((Fraction(2), 2, 2), (Fraction(3), 2, 3)),
    "w+1": ((Fraction(1), 1, 2), (Fraction(2), 1, 3)),
}


@dataclass(frozen=True)
class ClosedFormOp:
    kind: str  # "riemann" or "sum"
    nu: str
    coeffs: tuple
    poly: object  # the gossamer Polynomial built from coeffs at set-up


class ClosedFormScan(Workload):
    """``uniform_riemann_sum(f, nu)`` and ``sum_ftc(g, 1, nu)`` at infinite nu.

    Op i is a sum when i % 3 == 2, uses nu = NUS[i % 5], and is a sparse
    polynomial of degree 9-80 when i % 4 == 3; the rest are dense with
    degree at most 8.  The 60-op cycle meets every combination.
    """

    name = "closed-form-scan"
    cycle = 60
    nominal_ops_per_s = 40.0

    def setup(self) -> None:
        g = self.g = importlib.import_module("gossamer")
        self.nus = {
            "w": g.omega(),
            "w^2": g.omega(2),
            "3w": 3 * g.omega(),
            "w^1/2": g.omega(Fraction(1, 2)),
            "w+1": g.omega() + 1,
        }
        start = random.Random(f"{self.name}:{self.seed}").random()
        self.deck = [self._make_op(i, start) for i in range(CLOSED_FORM_DECK)]
        degrees = {d for op in self.deck for d, c in enumerate(op.coeffs) if c}
        for degree in sorted(degrees):
            g.faulhaber(degree)
        warm = {}
        for op in self.deck:
            if len(op.coeffs) <= DENSE_MAX_DEGREE + 1:
                warm.setdefault((op.kind, op.nu), op)
        for op in warm.values():
            self.call(op)

    def _make_op(self, i: int, start: float) -> ClosedFormOp:
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        if i % 4 == 3:
            lo, hi = SPARSE_DEGREES
            degree = lo + int(spread(start, i // 4) * (hi - lo + 1))
            coeffs = sparse_coeffs(rng, degree, 2)
        else:
            coeffs = dense_coeffs(rng, rng.randint(0, DENSE_MAX_DEGREE))
        kind = "sum" if i % 3 == 2 else "riemann"
        return ClosedFormOp(kind, NUS[i % 5], tuple(coeffs), self.g.Polynomial(coeffs))

    def op(self, i: int) -> ClosedFormOp:
        return self.deck[i % len(self.deck)]

    def call(self, op: ClosedFormOp):
        nu = self.nus[op.nu]
        if op.kind == "riemann":
            return self.g.uniform_riemann_sum(op.poly, nu)
        return self.g.sum_ftc(op.poly, 1, nu)

    def check(self, op: ClosedFormOp, output) -> Optional[str]:
        value = output.value
        series = oracle.series_from_terms(value.terms)
        if op.kind == "riemann":
            try:
                st = oracle.standard_part(series)
            except ValueError:
                return "infinite part"
            if st != oracle.integral_0_1(op.coeffs):
                return "standard part"
            if value.truncated:
                return None
            reference = oracle.riemann_bruteforce
        else:
            reference = lambda coeffs, n: oracle.sum_bruteforce(coeffs, 1, n)  # noqa: E731
        for base, power, n in SUBSTITUTIONS[op.nu]:
            try:
                at_n = oracle.series_at(series, base, power)
            except ValueError:
                return "fractional exponent"
            if at_n != reference(op.coeffs, n):
                return "finite substitution"
        return None

    def group(self, op: ClosedFormOp) -> str:
        return f"{op.kind}@{op.nu}"


# -- cli-oneshot --------------------------------------------------------------

SUBCOMMANDS = ("riemann", "pipeline", "sum", "ftc", "smooth", "verify")
RIEMANN_MAX_DEGREE = 40
NU_EXPS = ("1", "2", "3", "1/2")
SUM_MAX_RANGE_DECADES = 5  # finite ranges log-uniform up to 10^5
SUM_INFINITE_EVERY = 6  # every sixth sum op runs to w
SHAPES = ("linear", "cubic", "quintic")
EPS_EXPS = ("-1", "-2", "-5")
STEP_FILES = 6
CLI_VERIFY_CASES = 3
SETUP_COMMAND = ("riemann", "--poly=x^2 + x", "--json")
CHILD_TIMEOUT_S = 120

# The CLI's series keep exponents down to -16 (the documented default
# floor), so a Riemann sum of degree d at nu = w^k is exact when d*k <= 16.
CLI_FLOOR = 16
# For each --nu-exp k, substitutions (base, power, n) with w = base**power
# making nu = w^k equal to the finite panel count n.
CLI_SUBSTITUTIONS = {
    "1": ((Fraction(2), 1, 2), (Fraction(3), 1, 3)),
    "2": ((Fraction(2), 1, 4), (Fraction(3), 1, 9)),
    "3": ((Fraction(2), 1, 8),),
    "1/2": ((Fraction(2), 2, 2), (Fraction(3), 2, 3)),
}

# Wrong outputs this commit is known to produce, by (subcommand, reason).
# A check returns one of these reasons only when the output matches the
# defect's own signature exactly; any other wrong output is a failure.
REMAINDER_AT_W = "remainder taken at nu = w"
KNOWN_DEFECTS = {
    ("riemann", REMAINDER_AT_W): "ROADMAP 'Honest outputs' (a)",
}


@dataclass(frozen=True)
class CliOp:
    subcommand: str
    args: tuple
    expect: dict  # what the oracle needs to know about the inputs


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


class CliOneshot(Workload):
    """One ``python -m gossamer ...`` process per op, rotating through the subcommands."""

    name = "cli-oneshot"
    in_process = False
    cycle = len(SUBCOMMANDS)
    nominal_ops_per_s = 5.0

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.env = child_env(root)
        self.tmp: Optional[Path] = None
        rng = random.Random(f"{self.name}:{seed}")
        self.starts = {sub: rng.random() for sub in SUBCOMMANDS}
        self.step_rng_seed = rng.randrange(1 << 31)

    def setup(self) -> None:
        """Write the step-function files, then run one warm-up process."""
        self.close()
        # Inside the checkout: the benchmark reads and writes nothing outside it.
        self.tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=self.root))
        rng = random.Random(self.step_rng_seed)
        self.steps = []
        for k in range(STEP_FILES):
            count = rng.randint(1, 10)
            points: set[Fraction] = set()
            while len(points) < count:
                points.add(Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3))))
            breakpoints = tuple(sorted(points))
            levels = tuple(_fraction(rng, -100, 100, 4) for _ in range(count + 1))
            path = self.tmp / f"step{k}.json"
            path.write_text(
                json.dumps(
                    {"breakpoints": [str(q) for q in breakpoints], "levels": [str(y) for y in levels]}
                ),
                encoding="utf-8",
            )
            self.steps.append((path, breakpoints, levels))
        result = self.call(CliOp("riemann", SETUP_COMMAND, {}))
        if result.returncode != 0:
            raise RuntimeError(f"warm-up process failed: {result.stderr.strip()}")

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def op(self, i: int) -> CliOp:
        sub = SUBCOMMANDS[i % len(SUBCOMMANDS)]
        j = i // len(SUBCOMMANDS)
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        u = spread(self.starts[sub], j)
        if sub == "riemann":
            coeffs = sparse_coeffs(rng, int(u * (RIEMANN_MAX_DEGREE + 1)), 3)
            nu_exp = NU_EXPS[j % len(NU_EXPS)]
            args = ("riemann", f"--poly={poly_text(coeffs)}", f"--nu-exp={nu_exp}", "--json")
            return CliOp(sub, args, {"coeffs": coeffs, "nu_exp": nu_exp})
        if sub == "pipeline":
            coeffs = dense_coeffs(rng, int(u * (DENSE_MAX_DEGREE + 1)))
            return CliOp(sub, ("pipeline", f"--poly={poly_text(coeffs)}"), {"coeffs": coeffs, "nu_exp": "1"})
        if sub == "sum":
            coeffs = dense_coeffs(rng, j % 7)
            a = rng.randint(1, 50)
            if j % SUM_INFINITE_EVERY == SUM_INFINITE_EVERY - 1:
                end, b = "w", None
            else:
                b = a + round(10 ** (SUM_MAX_RANGE_DECADES * u)) - 1
                end = str(b)
            args = ("sum", f"--term={poly_text(coeffs, 'k')}", f"--from={a}", f"--to={end}", "--json")
            return CliOp(sub, args, {"coeffs": coeffs, "a": a, "b": b})
        if sub == "ftc":
            coeffs = dense_coeffs(rng, int(u * (DENSE_MAX_DEGREE + 1)))
            x = _fraction(rng, -10, 10, 4)
            a = _fraction(rng, -10, 10, 4)
            h_exp = ("-1", "-2")[j % 2]
            args = ("ftc", f"--poly={poly_text(coeffs)}", f"--a={a}", f"--x={x}", f"--h-exp={h_exp}", "--json")
            return CliOp(sub, args, {"coeffs": coeffs, "x": x})
        if sub == "smooth":
            k = j % STEP_FILES
            shape = SHAPES[j % len(SHAPES)]
            eps = EPS_EXPS[(j // len(SHAPES)) % len(EPS_EXPS)]
            args = ("smooth", f"--input=@step{k}", f"--shape={shape}", f"--eps-exp={eps}", "--json")
            return CliOp(sub, args, {"step": k})
        suite = SUITES[j % len(SUITES)]
        seed = rng.randrange(1 << 31)
        args = ("verify", f"--suite={suite}", f"--seed={seed}", f"--cases={CLI_VERIFY_CASES}", "--json")
        return CliOp(sub, args, {"suite": suite})

    def argv(self, op: CliOp) -> list[str]:
        """The op's arguments with step-file placeholders resolved to this run's files."""
        out = []
        for arg in op.args:
            if arg.startswith("--input=@step"):
                arg = f"--input={self.steps[int(arg[len('--input=@step'):])][0]}"
            out.append(arg)
        return out

    def call(self, op: CliOp, trace_file: Optional[Path] = None) -> CliResult:
        if trace_file is None:
            command = [sys.executable, "-m", "gossamer", *self.argv(op)]
        else:
            launcher = str(Path(__file__).resolve().parent / "launcher.py")
            command = [sys.executable, launcher, str(trace_file), *self.argv(op)]
        proc = subprocess.run(
            command,
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def group(self, op: CliOp) -> str:
        return op.subcommand

    def check(self, op: CliOp, result: CliResult) -> Optional[str]:
        if result.returncode != 0:
            return f"exit {result.returncode}"
        try:
            payload = json.loads(result.stdout)
        except json.JSONDecodeError:
            return "not json"
        try:
            return getattr(self, f"_check_{op.subcommand}")(op, payload)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return f"unreadable payload: {type(exc).__name__}"

    @staticmethod
    def _sum_matches_bruteforce(op: CliOp, total: dict) -> bool:
        """A Riemann sum short enough to be exact must match finite panel counts."""
        coeffs, nu_exp = op.expect["coeffs"], op.expect["nu_exp"]
        if (len(coeffs) - 1) * Fraction(nu_exp) > CLI_FLOOR:
            return True
        return all(
            oracle.series_at(total, base, power) == oracle.riemann_bruteforce(coeffs, n)
            for base, power, n in CLI_SUBSTITUTIONS[nu_exp]
        )

    def _check_riemann(self, op: CliOp, payload: dict) -> Optional[str]:
        integral = oracle.integral_0_1(op.expect["coeffs"])
        if Fraction(payload["integral_0_1"]) != integral:
            return "integral_0_1"
        if Fraction(payload["standard_part"]) != integral:
            return "standard_part"
        total = oracle.parse_series(payload["sum"])
        if oracle.standard_part(total) != integral or not self._sum_matches_bruteforce(op, total):
            return "sum"
        if "remainder" in payload:
            expected = oracle.series_sub(total, {Fraction(0): integral})
            printed = oracle.parse_series(payload["remainder"])
            if printed != expected:
                if self._is_remainder_at_w(op.expect["nu_exp"], printed, expected):
                    return REMAINDER_AT_W
                return "remainder"
        return None

    @staticmethod
    def _is_remainder_at_w(nu_exp: str, printed: dict, expected: dict) -> bool:
        """Whether ``printed`` is the remainder at nu = w instead of at nu = w^k.

        The sum at nu = w^k is the sum at nu = w with w replaced by w^k, so
        that remainder, with its exponents times k, equals the right one on
        every exponent that both keep above the floor.
        """
        k = Fraction(nu_exp)
        if k == 1:
            return False
        cut = -CLI_FLOOR * min(k, 1)
        scaled = {e * k: c for e, c in printed.items() if e * k >= cut}
        return bool(scaled) and scaled == {e: c for e, c in expected.items() if e >= cut}

    def _check_pipeline(self, op: CliOp, payload: dict) -> Optional[str]:
        integral = oracle.integral_0_1(op.expect["coeffs"])
        constant = {Fraction(0): integral} if integral else {}
        stages = payload["stages"]
        for stage in stages[:3]:
            if oracle.parse_series(stage["value"]) != constant:
                return f"stage {stage['stage']}"
        total = oracle.parse_series(stages[3]["value"])
        if oracle.standard_part(total) != integral or not self._sum_matches_bruteforce(op, total):
            return "stage 4"
        if oracle.parse_series(payload["remainder"]) != oracle.series_sub(total, constant):
            return "remainder"
        return None

    def _check_sum(self, op: CliOp, payload: dict) -> Optional[str]:
        coeffs, a, b = op.expect["coeffs"], op.expect["a"], op.expect["b"]
        value = oracle.parse_series(payload["value"])
        if b is not None:
            total = oracle.sum_bruteforce(coeffs, a, b)
            return None if value == ({Fraction(0): total} if total else {}) else "value"
        for n in (a, a + 1, a + 7):
            if oracle.series_at(value, Fraction(n), 1) != oracle.sum_bruteforce(coeffs, a, n):
                return "value"
        return None

    def _check_ftc(self, op: CliOp, payload: dict) -> Optional[str]:
        expected = oracle.poly_at(op.expect["coeffs"], op.expect["x"])
        if Fraction(payload["recovered"]) != expected:
            return "recovered"
        if oracle.standard_part(oracle.parse_series(payload["difference_quotient"])) != expected:
            return "difference_quotient"
        if payload["equal"] is not True:
            return "equal"
        return None

    def _check_smooth(self, op: CliOp, payload: dict) -> Optional[str]:
        _, breakpoints, levels = self.steps[op.expect["step"]]
        lo, hi = breakpoints[0] - 1, breakpoints[-1] + 1
        area = oracle.step_area(breakpoints, levels, lo, hi)
        if payload["interval"] != [str(lo), str(hi)]:
            return "interval"
        if Fraction(payload["area"]) != area:
            return "area"
        if oracle.standard_part(oracle.parse_series(payload["smoothed_area"])) != area:
            return "smoothed_area"
        if not oracle.is_infinitesimal_or_zero(oracle.parse_series(payload["area_delta"])):
            return "area_delta"
        if payload["round_trip_identity"] is not True:
            return "round_trip_identity"
        return None

    def _check_verify(self, op: CliOp, payload: dict) -> Optional[str]:
        expected = CLI_VERIFY_CASES + (1 if op.expect["suite"] == "riemann" else 0)
        summary = payload["summary"]
        if payload["suite"] != op.expect["suite"]:
            return "suite"
        if summary["failed"] != 0 or summary["passed"] != expected:
            return "summary"
        if len(payload["cases"]) != expected or not all(c["pass"] for c in payload["cases"]):
            return "cases"
        return None

    def probe_ms(self, code: str, repeats: int) -> float:
        """Median wall time in ms of ``python -c code``."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=self.root,
                env=self.env,
                check=True,
                capture_output=True,
                timeout=CHILD_TIMEOUT_S,
            )
            times.append((time.perf_counter() - start) * 1000)
        return statistics.median(times)


WORKLOADS = {w.name: w for w in (VerifyMix, ClosedFormScan, CliOneshot)}
