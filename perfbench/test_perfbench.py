"""Tests of the benchmark itself: wrapper coverage, repeatable counts, independent oracles.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""
import ast
import dataclasses
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
REPEATED_COUNTS = (
    "core.series_built",
    "core.term_products",
    "core.inverse_calls",
    "sums.bruteforce_terms",
    "riemann.faulhaber_calls",
)


def traced_run(name: str, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs():
    return {name: (traced_run(name), traced_run(name)) for name in NAMES}


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    # verify-mix runs by hand but is left out of the gated set (see README.md).
    assert [w["name"] for w in spec["workloads"]] == ["closed-form-scan", "cli-oneshot"]


def test_every_public_callable_and_binding_is_wrapped():
    import gossamer

    t = tracer.install()
    assert tracer.unwrapped_bindings(t) == []
    for binding in (
        gossamer.sums.faulhaber,
        gossamer.report.uniform_riemann_sum,
        gossamer.cli.sum_ftc,
        gossamer.core.split_terms,
        gossamer.run_suite,
        vars(gossamer.Gossamer)["__radd__"],
        vars(gossamer.Gossamer)["__rmul__"],
    ):
        assert t.is_wrapper(binding)
    # The check itself must notice a binding left unwrapped.
    wrapper = gossamer.sums.faulhaber
    gossamer.sums.faulhaber = wrapper._traced_original.__wrapped__
    try:
        assert tracer.unwrapped_bindings(t) == ["gossamer.sums.faulhaber"]
    finally:
        gossamer.sums.faulhaber = wrapper


def test_every_per_layer_metric_reported_and_core_entered(traced_pairs):
    for name, (first, _) in traced_pairs.items():
        assert set(first["metrics"]) == set(run.PER_LAYER), name
        assert first["metrics"]["core.entries"]["value"] > 0, name


def test_traced_setup_pays_for_cold_closed_forms(traced_pairs):
    for name in ("verify-mix", "closed-form-scan", "cli-oneshot"):
        metrics = traced_pairs[name][0]["metrics"]
        assert metrics["riemann.faulhaber_miss_s"]["value"] > 0, name
        assert metrics["riemann.faulhaber_hit_ratio"]["value"] < 1, name


def test_exact_counts_repeat(traced_pairs):
    for name, (first, second) in traced_pairs.items():
        for key in REPEATED_COUNTS:
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], (name, key)


def test_self_times_fit_in_traced_wall_time(traced_pairs):
    for name, (first, _) in traced_pairs.items():
        metrics = first["metrics"]
        total = sum(metrics[f"{m}.self_s"]["value"] for m in tracer.MODULES)
        assert 0 < total <= metrics["trace.wall_s"]["value"], name


def test_oracle_uses_only_the_standard_library():
    tree = ast.parse((HERE / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= {"__future__", "bisect", "fractions", "typing"}


def _wrong_verify_report(output):
    cases = (dataclasses.replace(output.cases[0], passed=False),) + output.cases[1:]
    return dataclasses.replace(output, cases=cases, passed=output.passed - 1, failed=1)


def _wrong_series(output):
    return SimpleNamespace(value=output.value + Fraction(1, 7))


def _wrong_cli_value(output):
    payload = json.loads(output.stdout)
    payload["value"] = str(Fraction(payload["value"]) + 1)
    return dataclasses.replace(output, stdout=json.dumps(payload))


# (ops in the list, index of the op to corrupt, corruption)
WRONG_VALUES = {
    "verify-mix": (5, 0, _wrong_verify_report),
    "closed-form-scan": (15, 0, _wrong_series),
    "cli-oneshot": (6, 2, _wrong_cli_value),  # op 2 is a finite sum
}


@pytest.mark.parametrize("name", NAMES)
def test_a_wrong_value_is_counted_as_failed(name):
    count, bad, corrupt = WRONG_VALUES[name]
    workload = workloads.WORKLOADS[name](ROOT, 5)
    try:
        workload.setup()
        ops = [workload.op(i) for i in range(count)]
        outputs, latencies, _ = run.replay(ops, workload.call)
        assert run.verdict(workload, ops[bad], outputs[bad]) is None
        honest = run.tally(workload, ops, outputs, latencies)
        outputs[bad] = corrupt(outputs[bad])
        corrupted = run.tally(workload, ops, outputs, latencies)
    finally:
        workload.close()
    assert corrupted.failed == honest.failed + 1
    assert corrupted.ops_failed_ratio == pytest.approx(honest.ops_failed_ratio + 1 / count)


def test_only_the_known_remainder_defect_is_excused():
    workload = workloads.CliOneshot(ROOT, 5)
    op = workloads.CliOp(
        "riemann",
        ("riemann", "--poly=x^2 + x", "--nu-exp=2", "--json"),
        {"coeffs": [Fraction(0), Fraction(1), Fraction(1)], "nu_exp": "2"},
    )
    output = workload.call(op)
    # The CLI prints the remainder at nu = w, w^-1 + 1/6*w^-2 (ROADMAP (a)).
    assert workload.check(op, output) == workloads.REMAINDER_AT_W
    payload = json.loads(output.stdout)
    payload["remainder"] = "w^-1 + 1/5*w^-2"  # wrong in another way
    assert workload.check(op, dataclasses.replace(output, stdout=json.dumps(payload))) == "remainder"

    stats = run.Stats()
    stats.record("riemann", 0.1, workloads.REMAINDER_AT_W)
    stats.record("riemann", 0.1, "remainder")
    stats.record("riemann", 0.1, None)
    assert (stats.failed, stats.known_defects) == (1, 1)
    assert stats.ops_failed_ratio == pytest.approx(2 / 3)


def test_an_op_that_raises_is_counted_as_failed():
    workload = workloads.WORKLOADS["closed-form-scan"](ROOT, 5)
    workload.setup()
    ops = [workload.op(i) for i in range(3)]

    def call(op):
        if op is ops[1]:
            raise ValueError("boom")
        return workload.call(op)

    outputs, latencies, _ = run.replay(ops, call)
    stats = run.tally(workload, ops, outputs, latencies)
    assert stats.failed == 1
