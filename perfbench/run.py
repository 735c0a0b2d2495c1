"""Benchmark of cyclosrg: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload named-examples --seed 1 --seconds 30 --trace 0

Workloads: named-examples, random-unions, closed-forms (see workloads.py).
The program is imported from the checkout's ``src``.  Thread pools of the
numeric libraries are pinned to one thread.

--trace 0 runs passes over the op list for --seconds, and for at least
MIN_PASSES passes, with tracing off and reports the end-to-end metrics.
On the workloads in workloads.SPEED_SCALED their times are scaled to a
reference host speed by speed.py; the report lines give the wall times
beside them.
--trace 1 spends the first half of the time on untraced passes and the
second on traced ones, and reports the per-layer metrics: self time per module and per stage, work counts, and the tracing
overhead (traced minus untraced batch time).  Its spans are written to
perfbench/results/.

Every op's output is checked.  The report lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  ``correct`` is false when an output differs from the reference or
an op raises an exception the reference does not record; ``failed`` counts
every failed op, the known ones included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import workloads as wl
from speed import REFERENCE_S, SpeedMeter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in this many fresh processes besides the measuring one.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120
# speed samples taken before and after each timed set-up
SETUP_SAMPLES = 5
# op_tail_ms is the latency with TAIL_PER_PASS samples per pass beyond it.
# That percentile follows from the length of the op list alone, so the tail
# falls on the same op however many passes fit in --seconds: named-examples'
# ikuta49/ex41_m2, the larger 5^5 oracle op of random-unions and the larger
# triple scans of closed-forms.
# MIN_PASSES passes put at least 10 samples beyond it.
TAIL_PER_PASS = 1.5
MIN_PASSES = 7
RESULTS = wl.BENCH_DIR / "results"

END_TO_END = (
    ("batch_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class PassResult:
    batch_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    intervals: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    known_failures: int = 0
    wrong: list[str] = field(default_factory=list)
    digests: list[tuple[str, str, str]] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    caches: dict = field(default_factory=dict)
    spans: tuple[int, int] = (0, 0)


def run_pass(ops: list[wl.Op], tracer=None, meter: SpeedMeter | None = None) -> PassResult:
    """One pass over the op list; an op that raises is counted and the pass goes on.

    Only ``op.run`` is timed and, with a tracer, traced; preparing an op,
    checking its output and the meter's speed samples between ops are not.
    """
    res = PassResult()
    first_span = tracer.span_count if tracer else 0
    for op in ops:
        if meter:
            meter.maybe_sample()
        if op.prepare:
            op.prepare()
        error = None
        t0 = time.perf_counter()
        try:
            if tracer:
                tracer.active = True
                with tracer.span(f"op.{op.kind}"):
                    result = op.run()
            else:
                result = op.run()
        except Exception as exc:
            error = exc
        finally:
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.active = False
        res.latencies.append(elapsed)
        res.intervals.append((t0, t0 + elapsed))
        res.attempted += 1
        if error is not None:
            res.failed += 1
            signature = wl.error_signature(error)
            if signature == op.expected_error:
                res.known_failures += 1
            else:
                res.wrong.append(f"{op.kind} {op.key}: raised {type(error).__name__}: {error}"[:300])
            res.digests.append((op.kind, op.key, "raised " + signature))
            continue
        try:
            got, reason = op.check(result)
            if op.observe:
                op.observe(result, res.counts)
        except Exception as exc:
            got, reason = "unchecked", f"output check raised {type(exc).__name__}: {exc}"
        res.digests.append((op.kind, op.key, got))
        if reason is not None:
            res.failed += 1
            res.wrong.append(f"{op.kind} {op.key}: {reason}")
    res.batch_s = sum(res.latencies)
    if tracer:
        res.spans = (first_span, tracer.span_count)
    return res


def set_up(workload: str, seed: int, tracer=None):
    """Import the program and do the workload's set-up; this is what setup_s times."""
    reference = json.loads(wl.REFERENCE.read_text())
    program = wl.Program()
    return program, wl.setup(workload, seed, reference, program, tracer)


def timed_set_up(workload: str, seed: int, tracer=None):
    """set_up with its time: (program, ops, meter, scaled seconds, wall seconds).

    meter is None, and the scaled time the wall time, on a workload whose
    times are not scaled.
    """
    meter = SpeedMeter() if workload in wl.SPEED_SCALED else None
    for _ in range(SETUP_SAMPLES if meter else 0):
        meter.sample()
    t0 = time.perf_counter()
    program, ops = set_up(workload, seed, tracer)
    t1 = time.perf_counter()
    if not meter:
        return program, ops, None, t1 - t0, t1 - t0
    for _ in range(SETUP_SAMPLES):
        meter.sample()
    return program, ops, meter, (t1 - t0) * meter.factor(t0, t1), t1 - t0


def probe_setup(args) -> tuple[float, float]:
    """(scaled, wall) set-up time in a fresh process, so the import is cold as well."""
    argv = ["--probe", "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH_DIR / "run.py"), *argv],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        cwd=wl.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["wall_s"])


def tail(latencies: list[float], passes: int) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the latency with TAIL_PER_PASS samples per pass beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(int(TAIL_PER_PASS * passes), n - 1)
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def provenance(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": wl.git_commit(),
        "src_sha256": wl.src_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure(args) -> dict:
    from tracer import PER_LAYER, Tracer, layer_metrics, metric_unit

    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    tracer = Tracer() if args.trace else None
    program, ops, meter, scaled, wall = timed_set_up(args.workload, args.seed, tracer)
    setups.append((scaled, wall))

    start = time.perf_counter()
    untraced_until = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else MIN_PASSES
    untraced: list[PassResult] = []
    while len(untraced) < min_passes or time.perf_counter() - start < untraced_until:
        untraced.append(run_pass(ops, meter=None if args.trace else meter))
    if meter:
        meter.sample()
    traced: list[PassResult] = []
    if tracer:
        program.caches.take_counts()
        tracer.install(program.modules)
        try:
            while not traced or time.perf_counter() - start < args.seconds:
                before = Counter(tracer.counters)
                res = run_pass(ops, tracer)
                res.counts.update(tracer.counters - before)
                res.caches = program.caches.take_counts()
                traced.append(res)
        finally:
            tracer.uninstall()

    passes = untraced + traced
    wrong = [w for p in passes for w in p.wrong]
    reference_digests = untraced[0].digests
    for i, p in enumerate(passes[1:], 1):
        if p.digests != reference_digests:
            diff = next(a for a, b in zip(p.digests, reference_digests) if a != b)
            side = "traced" if i >= len(untraced) else "untraced"
            wrong.append(f"pass {i} ({side}) output differs from pass 0 at {diff}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    known = sum(p.known_failures for p in passes)
    batch = statistics.median(p.batch_s for p in untraced)
    lines = [
        f"# cyclosrg benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"# provenance: {json.dumps(provenance(args.seed), sort_keys=True)}",
        f"# ops per pass: {len(ops)}; passes: {len(untraced)} untraced, {len(traced)} traced",
    ]
    metrics: dict[str, dict] = {}
    if not args.trace:
        factor = meter.factor if meter else lambda t0, t1: 1.0
        scaled = [[x * factor(*t) for x, t in zip(p.latencies, p.intervals)] for p in untraced]
        lat = [x for p in scaled for x in p]
        wall = [x for p in untraced for x in p.latencies]
        tail_s, tail_pct, beyond = tail(lat, len(untraced))
        values = {
            "batch_s": statistics.median(sum(p) for p in scaled),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "batch_s": f"median of {len(untraced)} passes of {len(ops)} ops; wall {batch:.4f}",
            "op_p50_ms": f"median of n={len(lat)} op latencies; wall {statistics.median(wall) * 1e3:.4f}",
            "op_tail_ms": f"p{tail_pct:.2f}, {beyond} samples beyond, n={len(lat)}; wall {tail(wall, len(untraced))[0] * 1e3:.4f}",
            "setup_s": f"median of {len(setups)} set-ups; wall {statistics.median(w for _, w in setups):.4f}: "
            + ", ".join(f"{s:.3f}" for s, _ in setups),
            "peak_rss_mb": "max resident set of the measuring process",
        }
        if meter:
            speeds = sorted(REFERENCE_S / v for v in meter.values)
            lines.append(
                f"# host speed: {len(speeds)} samples, relative to the reference "
                f"min {speeds[0]:.3f} median {statistics.median(speeds):.3f} max {speeds[-1]:.3f}; "
                "times below are scaled to the reference speed, wall times in the notes"
            )
        else:
            lines.append("# times below are wall-clock: this workload is not in workloads.SPEED_SCALED")
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            lines.append(f"{name:<16} {values[name]:>14.4f} {unit:<6} {notes[name]}")
    else:
        per_pass = []
        for p in traced:
            row = layer_metrics(tracer.self_times(*p.spans), p.counts, p.caches)
            row["trace.spans"] = p.spans[1] - p.spans[0]
            per_pass.append(row)
        values = {name: statistics.median(row[name] for row in per_pass) for name in PER_LAYER if name in per_pass[0]}
        traced_batch = statistics.median(p.batch_s for p in traced)
        values["trace.overhead_s"] = traced_batch - batch
        values["trace.overhead_frac"] = (traced_batch - batch) / batch
        for name in PER_LAYER:
            metrics[name] = {"value": values[name], "unit": metric_unit(name)}
            lines.append(f"{name:<40} {values[name]:>16.6g} {metric_unit(name)}")
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.npz")
    lines.append(
        f"ops_failed_frac  {failed / attempted:>14.4f} ratio  {failed} failed of {attempted} attempted: "
        f"{known} known failures recorded in the reference, {failed - known} new"
    )
    for w in wrong[:20]:
        print(f"wrong: {w}", file=sys.stderr)
    print("\n".join(lines))
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        wl.use_checkout_source()
        if args.probe:
            *_, scaled, wall = timed_set_up(args.workload, args.seed)
            print(json.dumps({"setup_s": scaled, "wall_s": wall}))
            return 0
        result = measure(args)
    except (FileNotFoundError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
