"""Seeded inputs, operations and correctness gates of the benchmark workloads.

A workload yields passes; a pass is a list of operations.  Every operation
runs its whole job (family construction included) and ends in a gate, so
an operation either returns "ok" or names why it failed.  Only public
``divides`` names are used, and each is looked up on its module at call
time so that the traced run sees every call.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from divides import ag, alexander, divide, families, render, singularity, tracing

GRID_N = 512


@dataclass(frozen=True)
class Op:
    tag: str  # family tag or codec input kind, for the failure tally
    fn: Callable[..., str]  # returns "ok" or "gate:<check>"
    args: tuple


def run_op(op: Op, tracer=None) -> str:
    """"ok", or why the operation failed: "trace:<reason>", "gate:<check>"
    (a result the gate refused) or "exception:<type>"."""
    try:
        return tracer.operation(op.fn, *op.args) if tracer else op.fn(*op.args)
    except tracing.TraceError as exc:
        return f"trace:{exc.reason}"
    except Exception as exc:  # any other failure is counted, never fatal
        return f"exception:{type(exc).__name__}"


# --- divide pipeline ---------------------------------------------------------


@dataclass(frozen=True)
class Build:
    """Construction arguments of a family; parts of a composition nest."""

    name: str  # a family_* constructor of divides.families
    args: tuple
    kwargs: tuple = ()

    def construct(self):
        return getattr(families, self.name)(*map(_resolve, self.args), **dict(self.kwargs))


def _resolve(arg):
    if isinstance(arg, Build):
        return arg.construct()
    if isinstance(arg, list):
        return [_resolve(a) for a in arg]
    return arg


def census_ok(d, s) -> bool:
    """check_against_type passes under some assignment of open branches to
    real slots and closed branches to pair slots."""
    open_ids = [b for b, br in enumerate(d.branches) if not br.closed]
    closed_ids = [b for b, br in enumerate(d.branches) if br.closed]
    for reals in itertools.permutations(range(s.re_br)):
        for pairs in itertools.permutations(range(s.im_br)):
            assignment = {b: ("real", k) for b, k in zip(open_ids, reals)}
            assignment.update({b: ("pair", k) for b, k in zip(closed_ids, pairs)})
            if divide.check_against_type(d, s, assignment).ok:
                return True
    return False


def gate_traced(family, traced) -> str:
    d = traced.divide
    if divide.validate(d):
        return "gate:validate"
    inv = singularity.invariants_report(family.singularity)
    if not census_ok(d, family.singularity):
        return "gate:census"
    if len(d.inner_faces) != inv["expected_inner_regions"]:
        return "gate:inner-regions"
    g = ag.build_diagram(d)
    ag.detect_chains(g)
    if len(g.vertices) != inv["milnor"]:
        return "gate:ag-vertices"
    artifacts = (ag.export_dot(g), render.svg_divide(traced), render.strands_csv(traced),
                 render.nodes_csv(traced))
    if not all(artifacts):
        return "gate:artifacts"
    return "ok"


def trace_op(build: Build, retries: int) -> str:
    family = build.construct()
    traced = tracing.trace_with_retries(family, grid_n=GRID_N, retries=retries)
    return gate_traced(family, traced)


def family_tag(build: Build) -> str:
    return build.name.removeprefix("family_")


class TraceWorkload:
    # each operation starts from an empty sympy cache, so operation times do
    # not depend on which operations ran before
    clear_sympy_cache = True
    # most of an operation's time is numpy arithmetic on large grids, which
    # the host's swings slow less than the reference loop: times as measured
    scaled = False

    def setup(self, seed):
        self.seed = seed
        # the first trace in a process pays for lazy imports and code
        # generation inside sympy and numpy; that belongs to set-up
        run_op(Op("warm-up", trace_op, (Build("family_parabola_pair", (2,)), 0)))

    def ops(self, builds, retries):
        return [Op(family_tag(b), trace_op, (b, retries)) for b in builds]


def sc(branches, tangent=(0, 1)) -> Build:
    return Build("family_smooth_conjugate", (branches,), (("tangent", tangent),))


HANDPICKED = (
    Build("family_parabola_pair", (3,)),
    sc([{2: 1}, {2: -1}]),
    Build("family_one_puiseux_pair", (3, 4, 1)),
    # certifies only on its grid-1024 retry
    Build("family_ellipse_composition",
          ([sc([{2: 1}], (0, 1)), sc([{2: -1}], (1, 1))], [1.0, 1.6])),
    # fails at grids 512, 1024 and 2048 ("closed walk leaked to the rim")
    Build("family_semiquasi_pp", ([(1, 0), (0, 1)], [(1, 0, 2), (2, 0, 1)], [1, 1])),
)


class Handpicked(TraceWorkload):
    """The fixed family set with two retries.

    The set and its order are fixed, so the seed changes nothing here.  The
    order is not shuffled because an operation's time depends on the memory
    the previous one left behind: after the grid-2049 attempts the next
    family traced 15% slower than after a small one."""

    name = "handpicked-retries"

    def __init__(self, builds=HANDPICKED, retries=2):
        self.builds = builds
        self.retries = retries

    def passes(self):
        while True:
            yield self.ops(self.builds, self.retries)


# The sweep keeps its own copy of the draw rules and weights of
# tests/randdivides.py::random_family, so edits there cannot move it.  The
# draws consume the generator exactly as random_family does; where
# random_family redraws on FamilyError the constructor is called here to
# decide, and the operation constructs the family again.
COEFFS = [1, -1, 2, -2, complex(1, 1), complex(1, -1), complex(-1, 1), complex(0, 2), 3]


def _random_tangent(rng):
    alpha = rng.choice([0, 0, 1, -1, 0.5, -0.5])
    beta = rng.choice([1, 1, 2, 0.75, -1, 1.5])
    return (alpha, beta)


def _smooth_draw(rng):
    s = rng.choice([1, 2, 2, 3])
    coeffs = rng.sample(COEFFS, s)
    branches = [{2: c} for c in coeffs]
    if s == 2 and rng.random() < 0.4:
        shared = rng.choice(COEFFS)
        c3 = rng.sample(COEFFS, 2)
        branches = [{2: shared, 3: c3[0]}, {2: shared, 3: c3[1]}]
    return sc(branches, _random_tangent(rng))


def _semiquasi_draw(rng):
    k = rng.choice([1, 2, 2])
    for _ in range(40):
        quads, levels = [], []
        for _ in range(k):
            b = rng.choice([0, 0, 0.4, -0.4, 0.6])
            c = rng.choice([0.3, 0.5, 1.0, 2.0, 3.5])
            if 4 * c <= b * b:
                continue
            quads.append((1.0, b, c))
            levels.append(rng.choice([0.5, 1.0, 1.5, 2.5]))
        if len(quads) != k:
            continue
        ell = rng.choice([0, 0, 1, 2])
        lines = []
        for li in range(ell):
            ang = rng.uniform(0.1, math.pi - 0.1) + li * 0.9
            lines.append((math.cos(ang), math.sin(ang)))
        build = Build("family_semiquasi_pp", (lines, quads, levels))
        try:
            build.construct()
        except families.FamilyError:
            continue
        return build
    raise RuntimeError("could not draw a semiquasi family")


def _composition_draw(rng):
    for _ in range(40):
        t1 = _random_tangent(rng)
        t2 = _random_tangent(rng)
        if (t1[0], abs(t1[1])) == (t2[0], abs(t2[1])):
            continue
        p1 = sc([{2: rng.choice(COEFFS)}], t1)
        p2 = sc([{2: rng.choice(COEFFS)}], t2)
        g1 = rng.choice([1.0, 1.6, 2.2])
        g2 = rng.choice([0.7, 1.1, 1.9])
        build = Build("family_ellipse_composition", ([p1, p2], [g1, g2]))
        try:
            build.construct()
        except families.FamilyError:
            continue
        return build
    raise RuntimeError("could not draw a composition family")


def random_build(rng: random.Random) -> Build:
    kind = rng.choices(
        ["semiquasi", "parabola", "smooth", "composition", "onepair"],
        weights=[32, 22, 28, 10, 8],
    )[0]
    if kind == "semiquasi":
        return _semiquasi_draw(rng)
    if kind == "parabola":
        return Build("family_parabola_pair", (rng.choice([2, 3, 4]),))
    if kind == "smooth":
        return _smooth_draw(rng)
    if kind == "composition":
        return _composition_draw(rng)
    return Build("family_one_puiseux_pair", (*rng.choice([(2, 3), (2, 5), (3, 4)]), 1))


class Sweep(TraceWorkload):
    """Distinct seeded draws, one tracing attempt each."""

    name = "sweep-first-attempt"

    def __init__(self, draws_per_pass=30):
        self.draws_per_pass = draws_per_pass

    def passes(self):
        rng = random.Random(self.seed)
        while True:
            builds = [random_build(rng) for _ in range(self.draws_per_pass)]
            yield self.ops(builds, 0)


# --- Alexander codec ---------------------------------------------------------


def roundtrip_op(T) -> str:
    v = alexander.to_cyclotomic(alexander.alexander_encode(T))
    inv = singularity.invariants_report(alexander.conj_pair_singularity(T))
    if v.degree() != inv["milnor"]:
        return "gate:degree-mu"
    got = alexander.alexander_decode(v)
    if isinstance(got, alexander.NodeType):
        got = got.as_conj_pair()
    return "ok" if got == T else "gate:roundtrip"


def offimage_op(v) -> str:
    try:
        got = alexander.alexander_decode(v)
    except (alexander.NotInImage, alexander.AmbiguousDecode):
        return "ok"
    return "ok" if alexander.to_cyclotomic(alexander.alexander_encode(got)) == v else "gate:reencode"


def offimage_vector(rng: random.Random, degree: int):
    """Random cyclotomic vector of the given degree whose largest index is
    degree - 1; the remaining indices are drawn below it.

    The largest index bounds the decoder's exhaustive search, so fixing it
    per degree fixes how much of that search each vector costs."""
    top = degree - 1
    exps = {top: 1}
    rest = degree - alexander.totient(top)
    while rest > 0:
        d = rng.choice([d for d in range(1, top + 1) if alexander.totient(d) <= rest])
        exps[d] = exps.get(d, 0) + 1
        rest -= alexander.totient(d)
    return alexander.CycloVector(exps)


# One vector of each odd degree from 5 to 21, and fourteen more of degree
# 15.  Decodes of degree 17 and up always cost more than those of degree 15,
# and those of degree 11 and below less, so op_tail_s, the 11th slowest
# operation of a pass, is the 8th slowest of the fifteen degree-15 decodes
# and the degree-13 one: the middle of a group of decodes of 40-80 ms, not
# one short operation at the far edge of a distribution, where a moment's
# slowness of the host would decide the value.
OFFIMAGE_DEGREES = (5, 7, 9, 11, 13, *(15,) * 15, 17, 19, 21)


class Codec:
    """Round trip over every enumerated type, plus off-image decodes."""

    name = "alexander-codec"
    clear_sympy_cache = False
    scaled = True  # interpreted Python throughout, as the reference loop is

    def __init__(self, bounds=(4, 5, 40), degrees=OFFIMAGE_DEGREES):
        self.bounds = bounds
        self.degrees = degrees

    def setup(self, seed):
        self.seed = seed
        self.types = list(alexander.enumerate_conj_pair_types(*self.bounds))
        roundtrip_op(self.types[0])

    def passes(self):
        rng = random.Random(self.seed)
        while True:
            ops = [Op("roundtrip", roundtrip_op, (T,)) for T in self.types]
            rng.shuffle(ops)
            for deg in self.degrees:
                op = Op(f"offimage-{deg}", offimage_op, (offimage_vector(rng, deg),))
                ops.insert(rng.randrange(len(ops) + 1), op)
            yield ops


WORKLOADS = {w.name: w for w in (Handpicked, Codec, Sweep)}
