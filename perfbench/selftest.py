"""Self-test of the benchmark: a small run of each workload, the gates on
known-bad results, and the traced run's metrics.

    python3 perfbench/selftest.py

Exits 1 and names each failed check if any fails.
"""
import sys
from array import array

from run import REF_NOMINAL_S, REF_WINDOW, Pass, import_program, measure, tail, tally

import_program()

from divides import alexander, families, tracing  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

FAILED = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILED.append(what)


def reasons(passes):
    return sorted(key for p in passes for key in p.outcomes.elements())


def small_runs():
    parabola = wl.Build("family_parabola_pair", (3,))
    semiquasi = wl.HANDPICKED[-1]
    hp = wl.Handpicked(builds=(parabola, semiquasi), retries=0)
    hp.setup(0)
    got = reasons(measure(hp, n_passes=1))
    check(got == [("parabola_pair", "ok"), ("semiquasi_pp", "trace:retries-exhausted")],
          f"handpicked: parabola passes, semiquasi repro fails ({got})")

    codec = wl.Codec(bounds=(2, 3, 8), degrees=(5, 7, 9))
    codec.setup(0)
    passes = measure(codec, n_passes=2)
    counts = tally(passes)
    check(counts["failed"] == 0 and counts["attempted"] == 2 * (len(codec.types) + 3),
          f"codec: every round trip and off-image decode passes ({counts})")

    sweep = wl.Sweep(draws_per_pass=2)
    sweep.setup(0)
    first = next(sweep.passes())
    again = wl.Sweep(draws_per_pass=2)
    again.setup(0)
    check(repr([op.args for op in first]) == repr([op.args for op in next(again.passes())]),
          "sweep: the same seed draws the same families")
    check(len(reasons(measure(sweep, n_passes=1))) == 2, "sweep: two draws run")


def negative_cases():
    # the window clips the circle: tracing "succeeds" with one open branch
    clipped = wl.sc([{2: 2j}], (1, 2))
    hp = wl.Handpicked(builds=(clipped,), retries=0)
    hp.setup(0)
    passes = measure(hp, n_passes=1)
    check(reasons(passes) == [("smooth_conjugate", "gate:census")] and tally(passes)["wrong"] == 1,
          f"clipped circle is a wrong result ({reasons(passes)})")

    traced = tracing.trace_with_retries(families.family_parabola_pair(3), retries=0)
    verdict = wl.gate_traced(families.family_parabola_pair(4), traced)
    check(verdict == "gate:census", f"divide with a wrong node count is refused ({verdict})")

    T = alexander.ConjPairType(1, 0, (3,), (1,))
    decode = alexander.alexander_decode
    alexander.alexander_decode = lambda v: alexander.ConjPairType(1, 0, (5,), (1,))
    try:
        verdict = wl.roundtrip_op(T)
    finally:
        alexander.alexander_decode = decode
    check(verdict == "gate:roundtrip", f"codec decode that does not match is refused ({verdict})")


def traced_run():
    hp = wl.Handpicked(builds=(wl.Build("family_parabola_pair", (3,)),), retries=0)
    hp.setup(0)
    tracer = spans.Tracer()
    probes = spans.PROBES
    spans.PROBES = probes + ((families, "family_removed", "families.removed"),)
    tracer.install()
    try:
        measure(hp, n_passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
        spans.PROBES = probes
    check(families.FamilySpec.evaluators.__name__ == "evaluators"
          and not hasattr(families.FamilySpec.evaluators, "__wrapped__"),
          "probes are removed after the traced run")
    check(tracer.missing == {"families.removed"}, f"missing probe reported ({tracer.missing})")
    m = spans.layer_metrics(tracer.spans, tracer.missing)
    check(m["tracing.attempts"][0] == 1 and m["tracing.certified_per_attempt"][0] == 1,
          "one certified attempt")
    check(m["families.compile_calls"][0] == 1 and m["families.eval_grid_points"][0] > 0
          and m["families.eval_point_calls"][0] > 0, "compile and both evaluation kinds seen")
    check(m["span_coverage_min"][0] >= 0.9, f"layer spans cover the operation ({m['span_coverage_min'][0]:.3f})")
    check(m["alexander.decode_calls"][0] == 0, "no codec calls in a trace workload")
    dropped = spans.layer_metrics(tracer.spans, {"families.compile"})
    check("families.compile_s" not in dropped and "families.eval_grid_s" not in dropped
          and "families.construct_s" in dropped, "metrics of a missing probe are left out")


def percentiles():
    check(tail([3.0, 1.0, 2.0]) == (3.0, 100.0), "tail of ten or fewer is the slowest")
    value, pct = tail([float(x) for x in range(100)])
    check(value == 89.0 and pct == 90.0, "tail leaves exactly ten operations beyond it")


def scaling():
    # the first operation ran while the reference loop took twice its
    # nominal time, the second while it took its nominal time
    w = REF_WINDOW
    p = Pass(tags=["a", "b"], raw=array("d", [1.0, 1.0]), refs_before=array("l", [1, 2 * w + 1]),
             ref=array("d", [2 * REF_NOMINAL_S] * (w + 1) + [REF_NOMINAL_S] * (3 * w)))
    check(p.times == [0.5, 1.0], f"operations are scaled by the reference loops nearest them ({p.times})")
    p = Pass(tags=["a"], raw=array("d", [1.0]), refs_before=array("l", [0]), scaled=False)
    check(p.times == [1.0], "an unscaled workload's times are as measured")


if __name__ == "__main__":
    percentiles()
    scaling()
    small_runs()
    negative_cases()
    traced_run()
    if FAILED:
        sys.exit(f"{len(FAILED)} self-test check(s) failed")
    print("all self-test checks passed")
