"""gossamer benchmark: seeded workloads timed end to end, and per module when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 30 --trace 0

``--trace 0`` runs ops in a closed loop for at least ``--seconds``
seconds and at least MIN_OPS ops, checking every output against the
benchmark's own oracle outside the timed interval, sets the workload up
several times spread over the run (reporting the median set-up time),
and prints the end-to-end metrics.  ``--trace 1`` sets up and runs a fixed op list,
sized from ``--seconds``, once untraced and once from cleared caches with
per-module wrappers installed, and prints the per-module metrics.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for people, with the
Python version, git sha and CPU count, and list failures by group.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # a p90 needs at least ten samples beyond it
MAX_LOOP_S = 150  # keeps a run on a slow machine inside its time limit
SETUP_SAMPLES = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{m}.self_s": "s" for m in tracer.MODULES},
    **{f"{m}.entries": "count" for m in tracer.MODULES},
    "core.series_built": "count",
    "core.term_products": "count",
    "core.inverse_calls": "count",
    "core.truncated_results": "count",
    "core.max_terms": "count",
    "polynomial.evaluate_series": "count",
    "polynomial.evaluate_rational": "count",
    "polynomial.evaluate_float": "count",
    "riemann.faulhaber_calls": "count",
    "riemann.faulhaber_hit_ratio": "ratio",
    "riemann.faulhaber_miss_s": "s",
    "sums.bruteforce_terms": "count",
    "steps.bridges": "count",
    "report.cases": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.{sub}.ms_p50": "ms" for sub in workloads.SUBCOMMANDS},
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
}

PROBE_REPEATS = 5


@dataclass
class Stats:
    """Latencies and oracle verdicts of one pass over a list of ops."""

    latencies: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def known_defects(self) -> int:
        return sum(n for key, n in self.failures.items() if key in workloads.KNOWN_DEFECTS)

    @property
    def failed(self) -> int:
        """Failed ops that no known defect accounts for."""
        return sum(self.failures.values()) - self.known_defects

    @property
    def ops_failed_ratio(self) -> float:
        """Every op whose output was wrong, known defect or not, over ops attempted."""
        return sum(self.failures.values()) / self.attempted

    def record(self, group: str, latency: float, reason: Optional[str]) -> None:
        self.latencies.append(latency)
        if reason is not None:
            self.failures[(group, reason)] += 1


def timed_call(call: Callable, op):
    """(output, seconds); an exception is returned as the output."""
    start = time.perf_counter()
    try:
        output = call(op)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        output = exc
    return output, time.perf_counter() - start


def verdict(workload, op, output) -> Optional[str]:
    if isinstance(output, Exception):
        return f"raised {type(output).__name__}: {output}"
    return workload.check(op, output)


def closed_loop(workload, stats: Stats, seconds: float, min_ops: int, max_s: float) -> None:
    """Ops from ``stats.attempted`` on, until ``seconds`` have passed and ``stats``
    holds ``min_ops`` ops, or ``max_s`` have passed."""
    start = time.perf_counter()
    while (stats.attempted < min_ops or time.perf_counter() - start < seconds) and (
        time.perf_counter() - start < max_s
    ):
        op = workload.op(stats.attempted)
        output, latency = timed_call(workload.call, op)
        stats.record(workload.group(op), latency, verdict(workload, op, output))


def replay(ops: list, call: Callable) -> tuple[list, list, float]:
    """Run every op, checking nothing yet: (outputs, latencies, wall seconds)."""
    outputs, latencies = [], []
    start = time.perf_counter()
    for op in ops:
        output, latency = timed_call(call, op)
        outputs.append(output)
        latencies.append(latency)
    return outputs, latencies, time.perf_counter() - start


def tally(workload, ops: list, outputs: list, latencies: list) -> Stats:
    stats = Stats()
    for op, output, latency in zip(ops, outputs, latencies):
        stats.record(workload.group(op), latency, verdict(workload, op, output))
    return stats


def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def setup_sample_in_child(workload) -> float:
    """Set-up time of a fresh process, so that import and caches start cold."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload.name,
            "--seed", str(workload.seed),
            "--setup-only",
        ],
        cwd=ROOT,
        env=workloads.child_env(ROOT),
        capture_output=True,
        text=True,
        check=True,
        timeout=workloads.CHILD_TIMEOUT_S,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def another_setup(workload) -> float:
    if workload.in_process:
        return setup_sample_in_child(workload)
    return timed_setup(workload)


def percentile_ms(latencies: list, q: int) -> float:
    """The q-th percentile in ms, q a multiple of 10."""
    ms = [x * 1000 for x in latencies]
    if q == 50:
        return statistics.median(ms)
    return statistics.quantiles(ms, n=10)[q // 10 - 1]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def untraced_run(workload, seconds: float) -> tuple[Stats, dict]:
    """Set up, then run the closed loop in SETUP_SAMPLES - 1 equal segments,
    setting up once more after each.

    Spreading the set-ups over the run keeps their median from hanging on
    the speed of a shared machine at one moment.
    """
    samples = [timed_setup(workload)]
    stats = Stats()
    segments = SETUP_SAMPLES - 1
    for k in range(segments):
        last = k == segments - 1
        closed_loop(workload, stats, seconds / segments, MIN_OPS if last else 0, MAX_LOOP_S / segments)
        samples.append(another_setup(workload))
    print(f"# setup_s samples {samples}")
    metrics = {
        "ops_per_s": stats.attempted / sum(stats.latencies),
        "op_ms_p50": percentile_ms(stats.latencies, 50),
        "op_ms_p90": percentile_ms(stats.latencies, 90),
        "ops_ok_ratio": 1 - stats.ops_failed_ratio,
        "setup_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    return stats, metrics


def merge_traces(summaries: Iterable[dict]) -> dict:
    merged: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if key in tracer.MAX_COUNTERS:
                merged[key] = max(merged.get(key, 0), value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def timed_pass(workload, seconds: float, call: Callable) -> tuple[list, list, list, float]:
    """Set up, then run the fixed op list: (ops, outputs, latencies, wall seconds of both)."""
    start = time.perf_counter()
    workload.setup()
    ops = [workload.op(i) for i in range(workload.trace_op_count(seconds))]
    outputs, latencies, _ = replay(ops, call)
    return ops, outputs, latencies, time.perf_counter() - start


def traced_run(workload, seconds: float) -> tuple[Stats, dict]:
    """An untraced pass, then a traced one, each set up from cold closed-form caches.

    The first pass starts in a fresh process.  Before the second, the
    library's caches (``faulhaber``, the Bernoulli rows) are emptied, so
    the traced set-up pays for cold closed forms as the first one did, and
    the ``riemann`` miss counters see them.
    """
    plain_ops, plain_out, plain_lat, plain_wall = timed_pass(workload, seconds, workload.call)
    if workload.in_process:
        t = tracer.install()
        tracer.clear_caches()
        ops, traced_out, traced_lat, traced_wall = timed_pass(workload, seconds, workload.call)
        summary = t.summary()
    else:
        numbers = itertools.count()
        ops, traced_out, traced_lat, traced_wall = timed_pass(
            workload,
            seconds,
            lambda op: workload.call(op, trace_file=workload.tmp / f"trace{next(numbers)}.json"),
        )
        summary = merge_traces(
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(workload.tmp.glob("trace*.json"))
        )
    stats = tally(workload, plain_ops + ops, plain_out + traced_out, plain_lat + traced_lat)

    lookups = summary.get("riemann.faulhaber_hits", 0) + summary.get("riemann.faulhaber_misses", 0)
    metrics = {name: summary.get(name, 0) for name in PER_LAYER}
    metrics["riemann.faulhaber_hit_ratio"] = (
        summary.get("riemann.faulhaber_hits", 0) / lookups if lookups else 0.0
    )
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics["trace.wall_s"] = traced_wall
    if not workload.in_process:
        metrics["cli.interpreter_ms"] = workload.probe_ms("pass", PROBE_REPEATS)
        metrics["cli.import_ms"] = workload.probe_ms("import gossamer", PROBE_REPEATS)
        by_group = defaultdict(list)
        for op, latency in zip(plain_ops, plain_lat):
            by_group[workload.group(op)].append(latency)
        for sub in workloads.SUBCOMMANDS:
            metrics[f"cli.{sub}.ms_p50"] = percentile_ms(by_group[sub], 50)
    return stats, metrics


def git_sha() -> Optional[str]:
    """HEAD of the checkout's own git repository; None outside one or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def report(workload, args, stats: Stats, metrics: dict, units: dict) -> None:
    env = {
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(f"# env {json.dumps(env)}")
    print(
        f"# attempted {stats.attempted} failed {stats.failed} known_defects {stats.known_defects}"
        f" ops_failed_ratio {stats.ops_failed_ratio}"
    )
    if not args.trace and stats.attempted < MIN_OPS:
        print(f"# warning: only {stats.attempted} ops in {MAX_LOOP_S} s; p90 has fewer than 10 samples beyond it")
    for (group, reason), count in sorted(stats.failures.items()):
        known = workloads.KNOWN_DEFECTS.get((group, reason), "not a known defect")
        print(f"# failed {group}: {reason} x{count} ({known})")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]} {unit}")
    print(
        json.dumps(
            {
                "correct": stats.failed == 0,
                "attempted": stats.attempted,
                "failed": stats.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up once and print the seconds it took"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gossamer" / "__init__.py").is_file():
        print(f"error: no gossamer sources at {ROOT / 'src' / 'gossamer'}", file=sys.stderr)
        return 2
    # default_floor() reads this on every construction; results must not depend on it.
    os.environ.pop(workloads.FLOOR_ENV, None)
    sys.path.insert(0, str(ROOT / "src"))

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    try:
        if args.setup_only:
            print(timed_setup(workload))
            return 0
        if args.trace:
            stats, metrics = traced_run(workload, args.seconds)
            report(workload, args, stats, metrics, PER_LAYER)
        else:
            stats, metrics = untraced_run(workload, args.seconds)
            report(workload, args, stats, metrics, END_TO_END)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
