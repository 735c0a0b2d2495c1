"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

import run
import speed
import workloads as wl

REFERENCE = json.loads(wl.REFERENCE.read_text())


@pytest.fixture(scope="module")
def program():
    wl.use_checkout_source()
    return wl.Program()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    first = wl.op_specs(workload, 11, REFERENCE)
    assert first == wl.op_specs(workload, 11, REFERENCE)
    assert any(wl.op_specs(workload, seed, REFERENCE) != first for seed in (12, 13, 14))


def test_every_cli_op_any_seed_draws_has_a_reference():
    outputs = REFERENCE["closed_forms"]["outputs"]
    for seed in range(20):
        for spec in wl.op_specs("closed-forms", seed, REFERENCE):
            assert wl.spec_key(spec) in outputs


def test_random_unions_are_symmetric_and_skip_paley_draws():
    for spec in wl.op_specs("random-unions", 5, REFERENCE):
        _, p, f, N, D = spec
        q = p**f
        orbits = wl.negation_orbits(p, q, N)
        assert all(set(orbit) <= set(D) or not set(orbit) & set(D) for orbit in orbits)
        assert 0 < len(D) < N
        assert spec == wl.PALEY or not wl._quadratic(p, f, N, D)


def _small_ops(program, tracer=None):
    """A cheap op list that still reaches every layer and both op styles."""
    cheap = ("class-number", "gauss-semiprimitive", "gauss-index2", "scan-triples --p-max 5", "scan-pairs --p-max 50")
    cli_specs = [s for s in wl.op_specs("closed-forms", 3, REFERENCE) if wl.spec_key(s).startswith(cheap)][:12]
    named = [("cli", "verify-example", "--name", name, "--format", "json") for name in ("delange", "ex51_m1")]
    ops = [wl._cli_op(program, spec, REFERENCE["closed_forms"]["outputs"]) for spec in cli_specs]
    ops += [wl._cli_op(program, spec, REFERENCE["named_examples"]["outputs"]) for spec in named]
    lib = program.lib
    for p, f, N, D in ((2, 6, 9, (0, 3, 6)), (3, 4, 10, (0, 5)), (13, 1, 4, (0, 2)), (5, 2, 6, (1, 4))):
        ops += wl.UnionInstance(program, lib.build_field(p, f), N, D, tracer).ops()
    return ops


def test_traced_and_untraced_passes_give_identical_outputs(program):
    from tracer import Tracer, layer_metrics

    plain = run.run_pass(_small_ops(program))
    tracer = Tracer()
    ops = _small_ops(program, tracer)
    tracer.install(program.modules)
    try:
        traced = run.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert plain.wrong == [] and traced.wrong == []
    assert traced.digests == plain.digests
    assert traced.spans[1] > traced.spans[0]
    times = tracer.self_times(*traced.spans)
    metrics = layer_metrics(times, traced.counts + tracer.counters, {})
    assert metrics["finite_field.build_field.calls"] == 2
    assert metrics["srg_engine.oracle.calls"] >= 4
    assert metrics["cli.main.s"] > 0 and metrics["cyclotomy.periods.s"] > 0
    assert abs(sum(metrics[f"{layer}.share"] for layer in ("ntheory", "finite_field", "cyclotomy",
               "gauss_theory", "srg_engine", "family_search", "cli")) - 1) < 1e-9
    # uninstall restores the program: no wrapper is left behind
    assert program.lib.build_field.__module__ == "cyclosrg.finite_field"
    assert not hasattr(program.lib.build_field, "__wrapped__")


def _op(key, run_fn, expected_error=None):
    return wl.Op("synthetic", key, run_fn, lambda out: (wl.digest(repr(out)), None), expected_error=expected_error)


def _boom():
    raise ArithmeticError("sign resolution found 0 candidates")


def test_an_op_that_raises_is_counted_and_the_pass_goes_on():
    res = run.run_pass([_op("a", _boom), _op("b", lambda: 42)])
    assert (res.attempted, res.failed, res.known_failures) == (2, 1, 0)
    assert len(res.wrong) == 1 and "ArithmeticError" in res.wrong[0]
    assert res.digests[1] == ("synthetic", "b", wl.digest("42"))
    assert len(res.latencies) == 2


def test_a_known_failure_is_failed_but_not_wrong():
    known = "ArithmeticError: sign resolution found 0 candidates"
    res = run.run_pass([_op("a", _boom, expected_error=known), _op("b", lambda: 1)])
    assert (res.attempted, res.failed, res.known_failures, res.wrong) == (2, 1, 1, [])


def test_another_error_of_the_known_class_is_wrong():
    res = run.run_pass([_op("a", _boom, expected_error="ArithmeticError: division by zero")])
    assert (res.failed, res.known_failures, len(res.wrong)) == (1, 0, 1)


def test_the_readme_scan_in_json_fails_at_the_reference_commit(program):
    ref = REFERENCE["closed_forms"]["outputs"]["scan-pairs --p-max 50 --p1-max 500 --format json"]
    assert ref["raises"] == "ValueError: Exceeds the limit (4300 digits) for integer string conversion"
    assert ref["hit_keys"] == [[2, 7], [3, 107], [5, 19], [5, 499], [17, 67], [41, 163]]


def test_caches_are_found_by_walking_the_modules(program):
    assert {"gauss_theory.class_number", "gauss_theory.mult_order"} <= set(program.caches.found)
    program.lib.class_number(163)
    program.lib.class_number(163)
    program.caches.clear()
    assert program.lib.class_number.cache_info().currsize == 0
    hits, misses = program.caches.take_counts()["gauss_theory.class_number"]
    assert hits >= 1 and misses >= 1


def test_tail_has_a_percentile_fixed_by_the_op_list():
    value, pct, beyond = run.tail([float(i) for i in range(100)], passes=10)
    assert (value, beyond) == (84.0, 15) and pct == pytest.approx(85.0)
    assert run.tail([3.0, 1.0], passes=4) == (1.0, 50.0, 1)


@pytest.mark.parametrize(
    "costs",
    [
        (2000.0, 400.0, 390.0, 222.0, 221.0, 8.6, 3.4),  # named-examples
        (884.0, 181.0, 149.0, 117.0, 88.0, 86.0) + (1.0,) * 250,  # random-unions
        (298.0, 273.0, 246.0, 136.0, 124.0, 109.0) + (3.0,) * 120,  # closed-forms
    ],
)
def test_tail_stays_on_the_same_op_whatever_the_pass_count(costs):
    """More passes (a faster program or host) must not move the tail onto another op."""
    rng = random.Random(1)
    ops = []
    for passes in range(run.MIN_PASSES, 40):
        latencies = [c * rng.uniform(0.9, 1.1) for _ in range(passes) for c in costs]
        value, _, beyond = run.tail(latencies, passes)
        assert beyond >= 10
        ops.append(min(range(len(costs)), key=lambda i: abs(costs[i] - value)))
    assert set(ops) <= {1, 2} and 1 in ops


@pytest.mark.parametrize("slower", [1.0, 1.6])
def test_a_scaled_time_does_not_move_with_the_host_speed(slower):
    meter = speed.SpeedMeter()
    meter.times = [0.1 * i for i in range(50)]
    meter.values = [speed.REFERENCE_S * slower] * 50
    meter.values[21] /= 10  # one sample out of line does not count
    op_wall = 0.3 * slower
    assert op_wall * meter.factor(2.0, 2.3) == pytest.approx(0.3)


def test_a_long_op_is_judged_by_the_samples_on_both_sides_of_it():
    meter = speed.SpeedMeter()
    meter.times, meter.values = [0.0, 10.0], [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert meter.factor(2.0, 8.0) == pytest.approx(0.5)


def test_a_pass_with_a_meter_samples_between_ops_and_keeps_their_intervals():
    ops = [wl.Op("sleep", str(i), lambda: time.sleep(0.03), lambda _: ("ok", None)) for i in range(3)]
    meter = speed.SpeedMeter()
    res = run.run_pass(ops, meter=meter)
    assert len(meter.times) == 3
    for (t0, t1), latency, sampled in zip(res.intervals, res.latencies, meter.times):
        assert t1 - t0 == pytest.approx(latency) and sampled <= t0


def test_without_the_program_source_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(wl.BENCH_DIR, tmp_path / wl.BENCH_DIR.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{wl.BENCH_DIR.name}/run.py", "--workload", "closed-forms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_counts_from_observed_outputs(program):
    counts = Counter()
    op = wl._cli_op(program, ("cli", "verify-example", "--name", "delange", "--format", "json"), REFERENCE["named_examples"]["outputs"])
    result = op.run()
    assert op.check(result)[1] is None
    op.observe(result, counts)
    assert counts["oracle.ops"] == 1 and counts["oracle.agree"] == 1 and counts["cli.stdout_bytes"] > 0
