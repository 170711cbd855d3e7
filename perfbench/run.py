"""Benchmark of the divide pipeline and the Alexander codec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the program is imported from the
checkout's src/ and from nowhere else.  The run repeats passes over the
workload's seeded inputs until S seconds have elapsed (at least one pass).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
the same passes untraced and then traced, and reports per-layer metrics.
The last line of standard output is the result object; the line before it
is a report with the seed, environment and failure tallies.  See NOTES.md.
"""
import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 3
# Two passes at least: a handpicked-retries pass has five operations, so its
# median operation is a single one of about a second; over two passes it is
# the mean of two.
MIN_PASSES = 2
# The host's speed swings by a fifth and more, within seconds, as other
# tenants load its cores, and every time taken swings with it.  So for a
# workload whose operations are interpreted Python, as the codec's are, a
# fixed reference loop, part of the benchmark and never changed, is
# timed between operations, and each operation's time is scaled by
# REF_NOMINAL_S over the median of the REF_WINDOW loops timed before it and
# the REF_WINDOW after: seconds on a host where the loop takes REF_NOMINAL_S
# (about what it takes on a 2-vCPU virtual machine).  A change to the
# program moves the operations and not the loop, so it shows in full.
# Operations that spend their time in numpy on large grids, as the trace
# workloads' do, swing less than the loop, and are reported as measured.
REF_NOMINAL_S = 1.2e-3
REF_EVERY_S = 0.1  # one loop per this much operation time, outside it
REF_BURST = 10  # most loops timed at one pause between operations
REF_WINDOW = 30  # some seconds of codec operations either side


def import_program():
    # pinned before numpy is first imported; child processes inherit them
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "divides" / "__init__.py").is_file():
        sys.exit(f"perfbench: no divides package at {SRC / 'divides'}")
    sys.path.insert(0, str(SRC))


def reference_loop() -> float:
    """Seconds taken by one run of the fixed reference loop: dict, tuple and
    integer work like the codec's."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(1_500):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + math.gcd(i, 360)
    sorted(counts.items())
    return time.perf_counter() - t0


@dataclass
class Pass:
    tags: list = field(default_factory=list)  # tag of each operation, in run order
    raw: array = field(default_factory=lambda: array("d"))  # its seconds, as measured
    refs_before: array = field(default_factory=lambda: array("l"))  # loops timed before it
    ref: array = field(default_factory=lambda: array("d"))  # seconds of each reference loop
    outcomes: Counter = field(default_factory=Counter)  # (tag, reason) -> operations
    scaled: bool = True  # whether times are scaled by the reference loop

    @cached_property
    def times(self) -> list[float]:
        """Seconds of each operation, scaled by the reference loops nearest
        it if the pass is scaled."""
        if not self.scaled:
            return list(self.raw)
        return [dt * time_scale(self.ref[max(0, k - REF_WINDOW):k + REF_WINDOW])
                for dt, k in zip(self.raw, self.refs_before)]

    @property
    def wall(self) -> float:
        return math.fsum(self.times)


def sample_reference(done, due):
    """Time the reference loop once per REF_EVERY_S since `due` (at most
    REF_BURST times) if the pass is scaled and `due` has passed; returns when
    it is next due."""
    now = time.perf_counter()
    if not done.scaled or now < due:
        return due
    owed = 1 + int((now - due) / REF_EVERY_S)
    done.ref.extend(reference_loop() for _ in range(min(owed, REF_BURST)))
    return time.perf_counter() + REF_EVERY_S


def measure(workload, seconds=None, n_passes=None, tracer=None):
    """Exactly n_passes passes, or passes until `seconds` have elapsed and
    at least MIN_PASSES have run."""
    import sympy.core.cache
    from workloads import run_op

    passes = []
    start = time.perf_counter()
    for ops in workload.passes():
        # collections inside the pass then scan only what the pass allocates
        gc.collect()
        gc.freeze()
        done = Pass(scaled=workload.scaled)
        next_ref = 0.0
        for op in ops:
            next_ref = sample_reference(done, next_ref)
            if workload.clear_sympy_cache:
                sympy.core.cache.clear_cache()
            t0 = time.perf_counter()
            reason = run_op(op, tracer)
            done.raw.append(time.perf_counter() - t0)
            done.tags.append(op.tag)
            done.refs_before.append(len(done.ref))
            done.outcomes[op.tag, reason] += 1
        sample_reference(done, next_ref)
        passes.append(done)
        if n_passes is None:
            if len(passes) >= MIN_PASSES and time.perf_counter() - start >= seconds:
                return passes
        elif len(passes) == n_passes:
            return passes


def tail(times):
    """The highest percentile with ten operations beyond it, as (seconds,
    percentile); the slowest operation when there are ten or fewer."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def setup_times(args):
    """(seconds, reference loop seconds) of SETUP_PROBES fresh processes, each
    timed from spawn until it is ready for its first operation (imports,
    seeded inputs, warm-up); each then times the reference loop."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    probes = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        ready, ref = map(float, proc.stdout.split()[-2:])
        probes.append((ready - spawned, ref))
    return probes


def time_scale(ref_samples) -> float:
    return REF_NOMINAL_S / statistics.median(ref_samples)


def environment():
    import numpy
    import sympy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def tally(passes):
    failed = Counter()
    for p in passes:
        failed.update({key: n for key, n in p.outcomes.items() if key[1] != "ok"})
    by_reason, by_tag = Counter(), Counter()
    for (tag, reason), n in failed.items():
        by_reason[reason] += n
        by_tag[tag] += n
    return {
        "attempted": sum(sum(p.outcomes.values()) for p in passes),
        "failed": sum(failed.values()),
        "wrong": sum(n for reason, n in by_reason.items() if reason.startswith("gate:")),
        "failures_by_reason": dict(by_reason),
        "failures_by_tag": dict(by_tag),
    }


def end_to_end(passes, setup, scaled):
    """Metrics, in scaled seconds if the workload is scaled (see
    REF_NOMINAL_S); the report keeps the times as measured."""
    tails = [tail(p.times) for p in passes]
    by_tag = {}
    for p in passes:
        for tag, dt in zip(p.tags, p.times):
            by_tag.setdefault(tag, []).append(dt)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "op_p50_s": (statistics.median(dt for p in passes for dt in p.times), "s"),
        "op_tail_s": (statistics.median(value for value, _ in tails), "s"),
        "setup_s": (statistics.median(dt * time_scale([ref]) if scaled else dt for dt, ref in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "op_tail_percentile": tails[0][1],
        "pass_wall_s": [p.wall for p in passes],
        "op_p50_s_by_tag": {tag: statistics.median(by_tag[tag]) for tag in sorted(by_tag)},
        "reference_loop_s": statistics.median(r for p in passes for r in p.ref) if scaled else None,
        "measured_s": {
            "wall_s": statistics.median(math.fsum(p.raw) for p in passes),
            "op_p50_s": statistics.median(dt for p in passes for dt in p.raw),
            "op_tail_s": statistics.median(tail(p.raw)[0] for p in passes),
            "setup_s": statistics.median(dt for dt, _ in setup),
        },
        "setup_probes_s": setup,
    }
    return metrics, extra


def traced_run(workload, untraced, args):
    from spans import INFO, NAME, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        passes = measure(workload, n_passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, tracer.missing)
    metrics["trace_overhead_frac"] = (passes[0].wall / untraced[0].wall, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_file)
    attempts = [rec[INFO] for rec in tracer.spans if rec[NAME] == "tracing.trace_divide"]
    extra = {
        "attempt_reasons": dict(Counter(a["reason"] for a in attempts)),
        "attempts": attempts,
        "missing_probes": sorted(tracer.missing),
        "spans_file": str(spans_file.relative_to(HERE.parent)),
    }
    return passes, metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    if args.setup_probe:
        next(workload.passes())
        ready = time.monotonic()
        print(ready, statistics.median(reference_loop() for _ in range(15)))
        return

    # the traced run compares one untraced and one traced pass on the same inputs
    untraced = measure(workload, n_passes=1) if args.trace else measure(workload, args.seconds)
    if args.trace:
        traced, metrics, extra = traced_run(workload, untraced, args)
        counts = tally(untraced + traced)
        metrics["fail_frac"] = (counts["failed"] / counts["attempted"], "ratio")
    else:
        metrics, extra = end_to_end(untraced, setup_times(args), workload.scaled)
        counts = tally(untraced)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "ops_per_pass": len(untraced[0].raw),
        **counts,
        **extra,
        "environment": environment(),
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
