"""Spans around the public functions of each ``divides`` layer.

The traced run replaces each probed name on its module (or class) by a
wrapper that records a span: name, start, end, parent and a small info
value.  Spans are recorded only inside an operation, kept in memory and
written out when the run ends.  A probe whose target no longer exists is
skipped, and the metrics it feeds are left out of the result.
"""
from __future__ import annotations

import csv
import functools
import json
from time import perf_counter

import numpy as np

from divides import ag, alexander, divide, families, render, singularity, tracing

NAME, START, END, PARENT, INFO = range(5)

# (owner, attribute, span name); each name is probed where callers look it up
PROBES = (
    *((families, f, "families.construct") for f in (
        "family_smooth_conjugate", "family_one_puiseux_pair", "family_semiquasi_pp",
        "family_ellipse_composition", "family_parabola_pair", "family_from_expression")),
    (families.FamilySpec, "evaluators", "families.compile"),
    (tracing, "trace_with_retries", "tracing.trace_with_retries"),
    (tracing, "trace_divide", "tracing.trace_divide"),
    (divide, "validate", "divide.validate"),
    (tracing, "validate", "divide.validate"),
    (divide, "two_coloring", "divide.coloring"),
    (ag, "two_coloring", "divide.coloring"),
    (divide, "check_against_type", "divide.check"),
    (ag, "build_diagram", "ag.build"),
    (ag, "detect_chains", "ag.chains"),
    (ag, "export_dot", "ag.dot"),
    (render, "svg_divide", "render.svg"),
    (render, "strands_csv", "render.csv"),
    (render, "nodes_csv", "render.csv"),
    (singularity, "invariants_report", "singularity.invariants"),
    (alexander, "alexander_encode", "alexander.encode"),
    (alexander, "alexander_decode", "alexander.decode"),
    (alexander, "to_cyclotomic", "alexander.to_cyclotomic"),
    (alexander, "conj_pair_singularity", "alexander.conj_pair_singularity"),
)

# every attempt reason trace_divide can give, plus "node-count" for a
# returned divide with the wrong node count and "exception" for any other
# error escaping an attempt
ATTEMPT_REASONS = (
    "parameters", "evaluation", "refinement", "transversality", "resolution",
    "node-near-boundary", "nodes-too-close", "contour", "node-degree", "assembly",
    "validation", "node-count", "exception",
)


def _attempt_info(args, kwargs, result, exc):
    family = args[0]
    t = kwargs.get("t")
    info = {"t": family.t_default if t is None else float(t),
            "grid_n": kwargs.get("grid_n", 512), "tag": family.tag}
    if exc is None:
        info["reason"] = "ok" if result.node_count_ok else "node-count"
    elif isinstance(exc, tracing.TraceError):
        info["reason"] = exc.reason
    else:
        info["reason"] = "exception"
    return info


def _text_bytes(args, kwargs, result, exc):
    return None if exc else len(result.encode())


SPAN_INFO = {
    "tracing.trace_divide": _attempt_info,
    "render.svg": _text_bytes,
    "render.csv": _text_bytes,
}


class Tracer:
    """Installs the probes and keeps the spans of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []  # (owner, attribute, original, span name)
        self.missing: set[str] = set()

    def _open(self, name) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            rec = self._open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self._close(rec)
                if note:
                    rec[INFO] = note(args, kwargs, result, error)
        return traced

    def operation(self, fn, *args):
        """Run one benchmark operation as a root span."""
        rec = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def _evaluators(self, compile_fn):
        """FamilySpec.evaluators: the compile span, then a wrapper on each
        returned callable, split by array (grid) or scalar (point) input."""
        def evaluators(spec, *args, **kwargs):
            return tuple(self._evaluator(f) for f in compile_fn(spec, *args, **kwargs))
        return functools.wraps(compile_fn)(evaluators)

    def _evaluator(self, f):
        grid = self.wrap("families.eval_grid", f, lambda a, k, r, e: a[0].size)
        point = self.wrap("families.eval_point", f)

        def evaluate(*args):
            return grid(*args) if isinstance(args[0], np.ndarray) else point(*args)
        return evaluate

    def install(self):
        for owner, attr, name in PROBES:
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapped = self.wrap(name, orig, SPAN_INFO.get(name))
            if name == "families.compile":
                wrapped = self._evaluators(wrapped)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, orig, name))
        # span names none of whose probes could be installed
        self.missing = {name for _, _, name in PROBES} - {name for *_, name in self._installed}

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._installed):
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "info"))
            for idx, (name, start, end, parent, info) in enumerate(self.spans):
                out.writerow((idx, name, repr(start), repr(end), parent,
                              "" if info is None else json.dumps(info)))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, missing=()):
    """Per-layer metrics from the spans of one traced pass.

    Times and counts are totals over the pass, except tracing.attempt_s, the
    mean time of one attempt.  A metric fed by a span name that has no
    installed probe is left out.  Ratios with an empty base read 0."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, list] = {}
    child_time = [0.0] * len(spans)
    for rec in spans:
        dur = rec[END] - rec[START]
        total[rec[NAME]] = total.get(rec[NAME], 0.0) + dur
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1
        info.setdefault(rec[NAME], []).append(rec[INFO])
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += dur

    def self_time(name):
        return sum(rec[END] - rec[START] - child_time[i]
                   for i, rec in enumerate(spans) if rec[NAME] == name)

    reasons = [i["reason"] for i in info.get("tracing.trace_divide", [])]
    attempts = len(reasons)
    search_encodes = sum(1 for rec in spans if rec[NAME] == "alexander.encode"
                         and rec[PARENT] >= 0 and spans[rec[PARENT]][NAME] == "alexander.decode")
    ops = [(child_time[i], rec[END] - rec[START]) for i, rec in enumerate(spans) if rec[NAME] == "op"]
    construct, compile_, attempt = "families.construct", "families.compile", "tracing.trace_divide"
    rows = [
        ("families.construct_s", "s", (construct,), total.get(construct, 0.0)),
        ("families.construct_calls", "count", (construct,), calls.get(construct, 0)),
        ("families.compile_s", "s", (compile_,), total.get(compile_, 0.0)),
        ("families.compile_calls", "count", (compile_,), calls.get(compile_, 0)),
        ("families.eval_grid_s", "s", (compile_,), total.get("families.eval_grid", 0.0)),
        ("families.eval_grid_points", "count", (compile_,),
         sum(info.get("families.eval_grid", []))),
        ("families.eval_point_s", "s", (compile_,), total.get("families.eval_point", 0.0)),
        ("families.eval_point_calls", "count", (compile_,),
         calls.get("families.eval_point", 0)),
        ("tracing.attempts", "count", (attempt,), attempts),
        ("tracing.attempts_per_op", "ratio", (attempt, "tracing.trace_with_retries"),
         _ratio(attempts, calls.get("tracing.trace_with_retries", 0))),
        ("tracing.attempt_s", "s", (attempt,), _ratio(total.get(attempt, 0.0), attempts)),
        ("tracing.self_s", "s", (attempt, compile_, "divide.validate"), self_time(attempt)),
        ("tracing.certified_per_attempt", "ratio", (attempt,),
         _ratio(reasons.count("ok"), attempts)),
        *((f"tracing.fail.{r}", "count", (attempt,), reasons.count(r))
          for r in ATTEMPT_REASONS),
        ("divide.validate_s", "s", ("divide.validate",), total.get("divide.validate", 0.0)),
        ("divide.coloring_s", "s", ("divide.coloring",), total.get("divide.coloring", 0.0)),
        ("divide.check_s", "s", ("divide.check",), total.get("divide.check", 0.0)),
        ("ag.build_s", "s", ("ag.build",), total.get("ag.build", 0.0)),
        ("ag.chains_s", "s", ("ag.chains",), total.get("ag.chains", 0.0)),
        ("ag.dot_s", "s", ("ag.dot",), total.get("ag.dot", 0.0)),
        ("render.svg_s", "s", ("render.svg",), total.get("render.svg", 0.0)),
        ("render.csv_s", "s", ("render.csv",), total.get("render.csv", 0.0)),
        ("render.bytes", "bytes", ("render.svg", "render.csv"),
         sum(n or 0 for n in info.get("render.svg", []) + info.get("render.csv", []))),
        ("singularity.invariants_s", "s", ("singularity.invariants",),
         total.get("singularity.invariants", 0.0)),
        ("alexander.encode_s", "s", ("alexander.encode",), total.get("alexander.encode", 0.0)),
        ("alexander.encode_calls", "count", ("alexander.encode",),
         calls.get("alexander.encode", 0)),
        ("alexander.decode_s", "s", ("alexander.decode",), total.get("alexander.decode", 0.0)),
        ("alexander.decode_calls", "count", ("alexander.decode",),
         calls.get("alexander.decode", 0)),
        ("alexander.encodes_per_decode", "ratio", ("alexander.encode", "alexander.decode"),
         _ratio(search_encodes, calls.get("alexander.decode", 0))),
        # share of operation time inside layer spans: the least of any one
        # operation, and over all operations together
        ("span_coverage_min", "ratio", (), min((_ratio(c, d) for c, d in ops), default=0.0)),
        ("span_coverage", "ratio", (), _ratio(sum(c for c, _ in ops), sum(d for _, d in ops))),
    ]
    return {name: (value, unit) for name, unit, sources, value in rows
            if not set(sources) & set(missing)}
