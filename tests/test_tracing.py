"""Tier-1 checks of the grid tracer on fixed families, and of the two-cusps
divide fixture against its census."""
import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from divides import tracing
from divides.ag import build_diagram
from divides.divide import check_against_type, divide_to_json, validate
from divides.families import (
    FamilySpec,
    family_from_expression,
    family_one_puiseux_pair,
    family_parabola_pair,
    family_semiquasi_pp,
    family_smooth_conjugate,
)
from divides.singularity import BranchType, SingularityType, invariants_report
from divides.tracing import TraceError, _nonzero, _seeds, trace_divide, trace_with_retries

from fixtures import HANDPICKED, ellipse_composition, two_cusps_divide
from oracles import assert_canonical_branch_order, assert_faces_sorted, einsum_evaluators, grid_stage, local_minima

DATA = os.path.join(os.path.dirname(__file__), "data")


def census_passes(d, s) -> bool:
    """check_against_type passes under some assignment of open branches to
    real slots and closed branches to pair slots."""
    open_ids = [b for b, br in enumerate(d.branches) if not br.closed]
    closed_ids = [b for b, br in enumerate(d.branches) if br.closed]
    for reals in itertools.permutations(range(s.re_br)):
        for pairs in itertools.permutations(range(s.im_br)):
            assignment = {b: ("real", k) for b, k in zip(open_ids, reals)}
            assignment.update({b: ("pair", k) for b, k in zip(closed_ids, pairs)})
            if check_against_type(d, s, assignment).ok:
                return True
    return False


def assert_certified(family, traced):
    d = traced.divide
    inv = invariants_report(family.singularity)
    assert validate(d) == []
    assert_canonical_branch_order(d)
    assert_faces_sorted(d)
    assert census_passes(d, family.singularity)
    assert len(d.inner_faces) == inv["expected_inner_regions"]
    assert len(build_diagram(d).vertices) == inv["milnor"]


@pytest.mark.parametrize(
    "make, retries",
    [
        (lambda: family_parabola_pair(3), 0),
        (lambda: family_smooth_conjugate([{2: 1}, {2: -1}]), 0),
        (lambda: family_one_puiseux_pair(3, 4, 1), 0),
        # certifies on its grid-1024 retry; the first attempt fails window
        (ellipse_composition, 1),
    ],
    ids=["parabola-pair-3", "smooth-conjugate", "one-pair-3-4", "ellipse-composition"],
)
def test_traced_divide_passes_census(make, retries):
    family = make()
    assert_certified(family, trace_with_retries(family, retries=retries))


def test_semiquasi_two_lines_two_conics():
    family = family_semiquasi_pp([(1, 0), (0, 1)], [(1, 0, 2), (2, 0, 1)], [1, 1])
    traced = trace_with_retries(family, retries=0)
    assert_certified(family, traced)
    assert len(traced.nodes) == family.expected_nodes == 13


def test_branch_recorded_into_the_rim_at_both_ends():
    """A strand is recorded from whichever end comes first in coordinate
    order.  The parabola's rim ends lie to the right of its node, so both
    its rim strands are recorded from the node into the rim; the parabola
    must still be walked as an open branch."""
    traced = trace_divide(family_from_expression("(x - y**2 + 0.5)*(y - 0.1)", window=1.0), grid_n=512)
    d = traced.divide
    assert validate(d) == []
    assert_canonical_branch_order(d)
    assert len(d.crossings) == 1
    assert [br.closed for br in d.branches] == [False, False]


def test_nodes_at_exact_crossings():
    family = family_parabola_pair(3)
    t = family.t_default
    traced = trace_divide(family, grid_n=512)
    assert_canonical_branch_order(traced.divide)
    W = traced.meta.window
    assert [(nd.x, nd.y) for nd in traced.nodes] == [
        (pytest.approx(k, abs=1e-12 * W), pytest.approx(t * k * k, abs=1e-12 * W)) for k in (1, 2, 3)
    ]


def patch_evaluators(monkeypatch, wrap):
    """Pass every family's compiled (value, gradient, hessian) through wrap."""
    compile_evaluators = FamilySpec.evaluators
    monkeypatch.setattr(FamilySpec, "evaluators", lambda self, t: wrap(*compile_evaluators(self, t)))


def test_newton_stops_at_the_noise_floor(monkeypatch):
    """Seeds stop once their step stalls at the rounding noise, well before
    the 60-step backstop; the Hessian is evaluated once per Newton step and
    once more at the refined points."""
    calls = []

    def counting(value, gradient, hessian):
        def counted_hessian(x, y):
            calls.append(np.size(x))
            return hessian(x, y)

        return value, gradient, counted_hessian

    patch_evaluators(monkeypatch, counting)
    traced = trace_divide(family_one_puiseux_pair(3, 4, 1), grid_n=512)
    assert len(calls) - 1 <= 25
    assert len(traced.nodes) == 14


@pytest.mark.parametrize("name", sorted(HANDPICKED))
def test_evaluators_match_the_einsum_reference(name):
    """The partials sharing their power tables reproduce one einsum per
    partial bit for bit, on a grid, at paired points and at a scalar point,
    so the traced divides keep their bytes."""
    fam = HANDPICKED[name]()
    t = fam.t_default
    W = fam.window(t)
    value, gradient, hessian = fam.evaluators(t)
    reference = einsum_evaluators(fam, t)
    xs = np.linspace(-W, W, 513)
    px, py = np.random.default_rng(0).uniform(-W, W, (2, 500))
    for x, y in [(xs[:, None], xs), (px, py), (W / 3, -2 * W / 7)]:
        got = (value(x, y), *gradient(x, y), *hessian(x, y))
        for a, b in zip(got, (ref(x, y) for ref in reference), strict=True):
            assert type(a) is type(b) and np.shape(a) == np.shape(b)
            assert np.array_equal(a, b)


def test_power_table_memo_keeps_the_bits():
    """An evaluator kept across two grid axes, their strips and paired points
    in between returns what a fresh evaluator returns, bit for bit."""
    fam = HANDPICKED["one-pair-3-4"]()
    t = fam.t_default
    W = fam.window(t)
    kept = fam.evaluators(t)
    px, py = np.random.default_rng(1).uniform(-W, W, (2, 300))
    calls = []
    for n in (513, 1025, 513):
        ys = np.linspace(-W, W, n)
        calls += [(ys[a : a + 34, None], ys) for a in range(0, n - 2, 32)]
        calls += [(ys[::4, None], ys), (px, py), (ys[:40, None], ys)]
    for x, y in calls:
        for a, b in zip(kept, fam.evaluators(t), strict=True):
            got, want = np.asarray(a(x, y)), np.asarray(b(x, y))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(HANDPICKED))
def test_seed_minima_match_eight_comparisons(name):
    fam = HANDPICKED[name]()
    t = fam.t_default
    W = fam.window(t)
    _, gradient, _ = fam.evaluators(t)
    xs = np.linspace(-W, W, 513)
    gx, gy = gradient(xs[:, None], xs)
    mi, mj = local_minima(np.square(gx) + np.square(gy))
    sx, sy = _seeds(gradient, xs, xs)
    assert mi.size > 0
    assert (sx.tolist(), sy.tolist()) == (xs[mi + 1].tolist(), xs[mj + 1].tolist())


@pytest.mark.parametrize("seed", range(6))
def test_seed_minima_on_plateaus(seed):
    """Integer grids, where ties between neighbours are common, and from
    seed 3 on a few NaNs, which neither test takes for a minimum or lets
    a neighbour be one."""
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(3, 60, 2))
    G = rng.integers(-2, 3, shape).astype(float)
    if seed >= 3:
        G[rng.random(shape) < 0.03] = np.nan
    mi, mj = local_minima(np.square(G))

    def gradient(x, y):
        """The rows of G that a strip asks for."""
        rows = G[x[:, 0].astype(int)]
        return rows, np.zeros_like(rows)

    sx, sy = _seeds(gradient, np.arange(shape[0]) * 1.0, np.arange(shape[1]) * 1.0)
    assert (sx.tolist(), sy.tolist()) == ((mi + 1).tolist(), (mj + 1).tolist())
    for mask in (G > 0, np.isnan(G), (G == 0)[:, ::2], np.zeros(shape, bool)):
        flat, full = _nonzero(mask), np.nonzero(mask)
        assert all(np.array_equal(a, b) for a, b in zip(flat, full, strict=True))


with open(os.path.join(DATA, "handpicked_nodes.json")) as fh:
    GOLDEN_NODES = json.load(fh)


def node_stage(fam, t, grid_n):
    """_nodes on trace_divide's inputs: the minima of the seed grid of at most
    SEED_CELLS cells, then the centres of the contour grid's cells with four
    crossings, and max |F| on the contour grid."""
    W = fam.window(t)
    f, gradient, hessian = fam.evaluators(t)
    xs = np.linspace(-W, W, grid_n + 1)
    f_scale, (*_, ci, cj, flags, _) = tracing._grid(f, xs, xs)
    four = flags.all(axis=1)
    i4, j4 = ci[four], cj[four]
    ss = np.linspace(-W, W, min(grid_n, tracing.SEED_CELLS) + 1)
    sx, sy = _seeds(gradient, ss, ss)
    seeds = (np.concatenate([sx, 0.5 * (xs[i4] + xs[i4 + 1])]), np.concatenate([sy, 0.5 * (xs[j4] + xs[j4 + 1])]))
    return tracing._nodes(f, gradient, hessian, seeds, W, f_scale)


@pytest.mark.parametrize("name", sorted(GOLDEN_NODES))
def test_node_stage_matches_the_golden_coordinates(name):
    """The node stage's output against coordinates committed from an
    earlier tracer, as point sets: node labels follow coordinate ties.  The
    stage runs on its own because trace_divide may refuse the attempt
    before it, as the rim count does at the composition's first attempt."""
    golden = GOLDEN_NODES[name]
    fam = HANDPICKED[name.removesuffix("-half-t").removesuffix("-quarter-t")]()
    nodes = node_stage(fam, golden["t"], golden["grid_n"])
    W = golden["window"]
    assert fam.window(golden["t"]) == W
    got, want = np.array([(nd.x, nd.y) for nd in nodes]), np.array(golden["nodes"])
    assert got.shape == want.shape
    apart = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    assert (apart.min(axis=0) <= 1e-12 * W).all() and (apart.min(axis=1) <= 1e-12 * W).all()


@pytest.mark.parametrize("halvings, grid_n", [(1, 1024), (2, 2048)])
def test_retry_grids_seed_from_512_cells(halvings, grid_n, monkeypatch):
    """A retry's finer grid serves the contour; the seed stage's gradient
    grid keeps 513 x 513 points, evaluated in strips of rows that cover the
    seed rows exactly, and no gradient call is larger than one strip."""
    shapes, rows = [], []

    def watching(value, gradient, hessian):
        def watched_gradient(x, y):
            shapes.append(np.broadcast(x, y).shape)
            if np.ndim(x) == 2:
                rows.append(x[:, 0])
            return gradient(x, y)

        return value, watched_gradient, hessian

    patch_evaluators(monkeypatch, watching)
    fam = family_one_puiseux_pair(3, 4, 1)
    t = fam.t_default / 2**halvings
    trace_divide(fam, t=t, grid_n=grid_n)
    W = fam.window(t)
    strips = [shape for shape in shapes if len(shape) == 2]
    assert {cols for _, cols in strips} == {513}
    assert np.array_equal(np.unique(np.concatenate(rows)), np.linspace(-W, W, 513))
    assert max(map(math.prod, shapes)) == (tracing.STRIP_ROWS + 2) * 513


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_grid_fails_evaluation(bad, monkeypatch):
    """One non-finite value of F anywhere on the grid refuses the attempt.
    It is planted at (xs[200], xs[300]) in whichever strip holds that row."""
    family = family_parabola_pair(3)
    W = family.window(family.t_default)
    bad_x = np.linspace(-W, W, 513)[200]
    planted = []

    def planting(value, gradient, hessian):
        def planted_value(x, y):
            v = value(x, y)
            if np.ndim(v) == 2:
                at = np.flatnonzero(x[:, 0] == bad_x)
                v[at, 300] = bad
                planted.extend(at)
            return v

        return planted_value, gradient, hessian

    patch_evaluators(monkeypatch, planting)
    with pytest.raises(TraceError) as exc:
        trace_divide(family, grid_n=512)
    assert planted
    assert exc.value.reason == "evaluation"
    assert str(exc.value) == "family evaluation produced non-finite values"


@pytest.mark.parametrize("name", sorted(HANDPICKED))
@pytest.mark.parametrize("grid_n", [64, 97, 100, 512])
def test_grid_strips_match_the_whole_grid(name, grid_n):
    """The streamed grid stage keeps what the whole-grid stage finds, in
    its order, across strip edges: at grid 97 the last strip is one cell
    row.  A matrix product over a strip's rows need not round as one over
    all rows does, so F may differ in its last bits: by a few ulp of
    max |F|, the size of the terms that cancel near the zero set."""
    assert tracing.STRIP_ROWS == 32
    fam = HANDPICKED[name]()
    t = fam.t_default
    f, _, _ = fam.evaluators(t)
    xs = np.linspace(-fam.window(t), fam.window(t), grid_n + 1)
    f_scale, got = tracing._grid(f, xs, xs)
    want_scale, want = grid_stage(f, xs, xs)
    ulp = np.spacing(want_scale)
    assert abs(f_scale - want_scale) <= 4 * ulp
    assert got[0].max() >= tracing.STRIP_ROWS and got[4].max() >= tracing.STRIP_ROWS
    for k, (a, b) in enumerate(zip(got, want, strict=True)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert (np.abs(a - b) <= 4 * ulp).all() if k in (2, 3, 6, 7) else np.array_equal(a, b), k


@pytest.mark.parametrize("row", [0, 32, 33, 512])
def test_non_finite_value_in_any_strip_fails_evaluation(row):
    """A NaN in the first row, in a row two strips share, in the row after
    it, or in the last row of the grid."""
    fam = family_parabola_pair(3)
    t = fam.t_default
    f, _, _ = fam.evaluators(t)
    xs = np.linspace(-fam.window(t), fam.window(t), 513)

    def planted(x, y):
        v = f(x, y)
        v[x[:, 0] == xs[row], 100] = math.nan
        return v

    assert tracing._grid(f, xs, xs)[0] > 0
    with pytest.raises(TraceError) as exc:
        tracing._grid(planted, xs, xs)
    assert (exc.value.reason, str(exc.value)) == ("evaluation", "family evaluation produced non-finite values")


def test_retry_grid_attempt_holds_no_whole_grid():
    """One grid-2048 attempt of one-pair-3-4 peaks below 16 MB of traced
    allocations, half of one 2049 x 2049 float64 grid; the whole-grid stage
    peaked at 52 MB."""
    fam = family_one_puiseux_pair(3, 4, 1)
    tracemalloc.start()
    try:
        trace_divide(fam, t=fam.t_default / 4, grid_n=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "expr, node, gap",
    [
        ("(y - x + 0.1)*(y + 2*x - 0.05)", (0.05, -0.05), math.atan(3)),
        # one tangent is vertical, so Fyy vanishes at the node
        ("(x - 0.1)*(y - 0.3*x)", (0.1, 0.03), math.pi / 2 - math.atan(0.3)),
    ],
    ids=["slopes-1-and-minus-2", "vertical-tangent"],
)
def test_crossing_angle_of_two_lines(expr, node, gap):
    traced = trace_divide(family_from_expression(expr, window=1.0), grid_n=512)
    assert_canonical_branch_order(traced.divide)
    [nd] = traced.nodes
    assert (nd.x, nd.y) == (pytest.approx(node[0], abs=1e-12), pytest.approx(node[1], abs=1e-12))
    assert nd.tangent_gap == pytest.approx(gap, abs=1e-12)


def _crossing_lines(intersection):
    """Two real lines crossing once, stated as two smooth real branches that
    meet with the given intersection multiplicity."""
    smooth = BranchType((1,))
    sing = SingularityType((smooth, smooth), (), ((0, intersection), (intersection, 0)))
    return family_from_expression("(x - 0.1)*(y + 0.05)", window=1.0, singularity=sing)


@pytest.mark.parametrize("intersection, ok", [(1, True), (2, False)])
def test_node_count_checked_against_the_singularity(intersection, ok):
    """One node is traced; with intersection 2 the singularity wants two, and
    the attempt raises "node-count" instead of returning the divide."""
    family = _crossing_lines(intersection)
    if ok:
        assert len(trace_divide(family, grid_n=512).nodes) == 1
    else:
        with pytest.raises(TraceError) as exc:
            trace_divide(family, grid_n=512)
        assert exc.value.reason == "node-count"
        assert str(exc.value) == "found 1 nodes, expected 2"


def test_wrong_node_count_exhausts_the_retries():
    """The exhausted retries name every failed attempt with its reason."""
    family = _crossing_lines(2)
    with pytest.raises(TraceError) as exc:
        trace_with_retries(family, retries=1)
    assert exc.value.reason == "retries-exhausted"
    assert "found 1 nodes, expected 2" in str(exc.value)
    t0 = family.t_default
    assert exc.value.attempts == ((t0, 512, "node-count"), (t0 / 2, 1024, "node-count"))


def test_retry_schedule(monkeypatch):
    """Each retry doubles the grid, and after a "node-count" failure, which
    is not one of GRID_REASONS, it halves t.  A failure in GRID_REASONS
    keeps t while the grid can grow, and halves it once the grid is at its
    cap.  t and grid_n reach trace_divide as keywords, where the
    benchmark's span probe reads them."""
    calls = []

    def recording(family, **kwargs):
        calls.append(kwargs)
        return trace_divide(family, **kwargs)

    monkeypatch.setattr(tracing, "trace_divide", recording)
    family = _crossing_lines(2)
    with pytest.raises(TraceError):
        trace_with_retries(family, retries=2)
    t0 = family.t_default
    assert calls == [{"t": t0, "grid_n": 512}, {"t": t0 / 2, "grid_n": 1024}, {"t": t0 / 4, "grid_n": 2048}]

    def too_coarse(family, **kwargs):
        calls.append(kwargs)
        raise TraceError("resolution", "grid too coarse")

    calls.clear()
    monkeypatch.setattr(tracing, "trace_divide", too_coarse)
    with pytest.raises(TraceError) as exc:
        trace_with_retries(family, grid_n=2048, retries=3)
    assert calls == [
        {"t": t0, "grid_n": 2048},
        {"t": t0, "grid_n": 4096},
        {"t": t0 / 2, "grid_n": 4096},
        {"t": t0 / 4, "grid_n": 4096},
    ]
    assert exc.value.attempts == tuple((c["t"], c["grid_n"], "resolution") for c in calls)


def test_grid_failures_keep_t():
    """Two conics whose nodes lie too close for the cut discs at grids 512
    and 1024: a retry after "nodes-too-close" keeps t and refines only the
    grid, and at 2048 the divide certifies."""
    family = family_semiquasi_pp([], [(1.0, -0.4, 3.5), (1.0, 0, 0.3)], [1.0, 1.0])
    with pytest.raises(TraceError) as exc:
        trace_with_retries(family, retries=1)
    assert exc.value.attempts == ((0.2, 512, "nodes-too-close"), (0.2, 1024, "nodes-too-close"))
    traced = trace_with_retries(family, retries=2)
    assert (traced.meta.t, traced.meta.grid_n) == (0.2, 2048)
    assert_certified(family, traced)


def test_clipped_circle_is_refused_by_its_rim_count():
    """A conjugate pair of smooth branches wants one closed branch around
    one inner region and no rim endpoint.  At t0 with this tangent the
    window clips the oval into one open arc with two rim endpoints, so the
    attempt raises "window" instead of returning a divide the census would
    refuse."""
    family = family_smooth_conjugate([{2: 2j}], (1, 2))
    assert family.singularity.re_br == 0
    with pytest.raises(TraceError) as exc:
        trace_with_retries(family, retries=0)
    assert exc.value.reason == "retries-exhausted"
    assert str(exc.value).endswith("2 rim endpoints, but 0 real branches need 0")
    assert exc.value.attempts == ((family.t_default, 512, "window"),)
    with pytest.raises(TraceError) as exc:
        trace_divide(family)
    assert exc.value.reason == "window"
    assert str(exc.value) == "2 rim endpoints, but 0 real branches need 0"


@pytest.mark.parametrize(
    "make", [lambda: family_smooth_conjugate([{2: 2j}], (1, 2)), ellipse_composition],
    ids=["clipped-circle", "ellipse-composition"],
)
def test_window_refusal_runs_no_seed_or_node_stage(make, monkeypatch):
    """A rim count other than 2 ReBr is refused right after the grid stage:
    neither the seed grid nor Newton runs."""
    family = make()
    calls = []
    for stage in ("_seeds", "_nodes"):
        monkeypatch.setattr(tracing, stage, lambda *args, stage=stage: calls.append(stage))
    with pytest.raises(TraceError) as exc:
        trace_divide(family, grid_n=512)
    assert exc.value.reason == "window"
    assert calls == []


@pytest.mark.parametrize("halvings", range(3))
@pytest.mark.parametrize("name", sorted(HANDPICKED))
def test_frame_crossings_are_the_rim_endpoints(name, halvings):
    """The grid stage's crossings on the window frame, which the rim count
    checks, are the boundary vertices of the divide an attempt returns; the
    one attempt refused here, the composition's first, is refused for them."""
    fam = HANDPICKED[name]()
    t, grid_n = fam.t_default / 2**halvings, 512 * 2**halvings
    xs = np.linspace(-fam.window(t), fam.window(t), grid_n + 1)
    _, (_, hj, _, _, vi, *_) = tracing._grid(fam.evaluators(t)[0], xs, xs)
    frame = np.count_nonzero((hj == 0) | (hj == grid_n)) + np.count_nonzero((vi == 0) | (vi == grid_n))
    if (name, halvings) == ("ellipse-composition", 0):
        with pytest.raises(TraceError) as exc:
            trace_divide(fam, t=t, grid_n=grid_n)
        assert (exc.value.reason, str(exc.value).split()[0]) == ("window", str(frame))
    else:
        assert frame == len(trace_divide(fam, t=t, grid_n=grid_n).divide.boundary)


@pytest.mark.parametrize(
    "branches, tangent, t_ratio, grid_n",
    [
        ([{2: 2, 3: 2j}, {2: 2, 3: 3}], (0.5, -1), 4, 2048),
        ([{2: 2j}], (1, 2), 4, 2048),
        ([{2: 2}], (0, 1), 2, 1024),
    ],
    ids=["two-pairs", "clipped-circle", "three-strands"],
)
def test_window_refusals_certify_on_their_retries(branches, tangent, t_ratio, grid_n):
    """Three families that raise "window" at t0 and certify at
    (t0/t_ratio, grid_n): the two sweep families whose traces the census once
    had to refuse (s0d19 and s0d20), and one whose first attempt once traced
    three rim-to-rim strands that never cross."""
    family = family_smooth_conjugate(branches, tangent)
    with pytest.raises(TraceError) as exc:
        trace_divide(family)
    assert exc.value.reason == "window"
    traced = trace_with_retries(family, retries=2)
    assert (traced.meta.t, traced.meta.grid_n) == (family.t_default / t_ratio, grid_n)
    assert_certified(family, traced)


@pytest.mark.parametrize(
    "attempt",
    [
        # the family passes the caller's window through; the tracer refuses it
        lambda fam: trace_divide(family_from_expression("(y - x)*(y + 2*x)", window=-1)),
        lambda fam: trace_divide(fam, t=math.nan),
        lambda fam: trace_divide(fam, t=math.inf),
        lambda fam: trace_with_retries(fam, retries=-1),
    ],
    ids=["window-negative", "t-nan", "t-inf", "retries-negative"],
)
def test_bad_parameters_are_refused(attempt):
    with pytest.raises(TraceError) as exc:
        attempt(family_from_expression("(y - x)*(y + 2*x)", window=1.0))
    assert exc.value.reason == "parameters"


def test_saddle_off_the_zero_level_is_discarded():
    """The saddle at (0.1, -0.05) has |F|/scale = 8.3e-8, so it is not a
    node; the two disjoint arcs of the zero set become two branches that
    never cross, which validation refuses."""
    family = family_from_expression("(x - 0.1)**2 - (y + 0.05)**2 - 1e-7", window=1.0)
    with pytest.raises(TraceError) as exc:
        trace_divide(family, grid_n=512)
    assert exc.value.reason == "validation"


def contour_points(family, meta) -> set:
    """Every crossing of the zero set with a grid edge, interpolated
    linearly along the edge as the tracer does, as (x, y) tuples."""
    n, W = meta.grid_n, meta.window
    xs = np.linspace(-W, W, n + 1)
    value, _, _ = family.evaluators(meta.t)
    F = value(xs[:, None], xs)
    S = F >= 0
    cell = 2 * W / n
    hi, hj = np.nonzero(S[:-1, :] != S[1:, :])
    vi, vj = np.nonzero(S[:, :-1] != S[:, 1:])
    hx = xs[hi] + F[hi, hj] / (F[hi, hj] - F[hi + 1, hj]) * cell
    vy = xs[vj] + F[vi, vj] / (F[vi, vj] - F[vi, vj + 1]) * cell
    return set(zip(hx.tolist(), xs[hj].tolist())) | set(zip(xs[vi].tolist(), vy.tolist()))


@pytest.mark.parametrize(
    "make",
    [
        lambda: family_parabola_pair(3),
        lambda: family_smooth_conjugate([{2: 1}, {2: -1}]),
        lambda: family_one_puiseux_pair(3, 4, 1),
        lambda: family_semiquasi_pp([(1, 0), (0, 1)], [(1, 0, 2), (2, 0, 1)], [1, 1]),
        # a crossing-free loop
        lambda: family_from_expression("x**2 + 2*y**2 - 0.25", window=1.0),
    ],
    ids=["parabola-pair-3", "smooth-conjugate", "one-pair-3-4", "semiquasi", "ellipse"],
)
def test_strand_paths_cover_the_contour(make):
    """Every contour point outside the cut discs lies on exactly one strand
    path (a crossing-free loop repeats its first point at its end), and
    consecutive points lie in one grid cell."""
    family = make()
    traced = trace_divide(family, grid_n=512)
    cell = 2 * traced.meta.window / traced.meta.grid_n
    walked = []
    for path in traced.strand_paths.values():
        assert np.hypot(*np.diff(path, axis=0).T).max() <= math.sqrt(2) * cell
        closed = (path[0] == path[-1]).all()
        walked += map(tuple, path[: -1 if closed else None].tolist())
    assert len(set(walked)) == len(walked)
    contour = contour_points(family, traced.meta)
    assert contour >= set(walked)
    # the rest was cut away: each point is nearer to some node than every
    # walked point is
    nodes = np.array([(nd.x, nd.y) for nd in traced.nodes]).reshape(-1, 2)
    reach = np.hypot(*(np.array(walked)[:, None, :] - nodes).transpose(2, 0, 1)).min(axis=0)
    cut = np.array(sorted(contour - set(walked))).reshape(-1, 2)
    assert (np.hypot(*(cut[:, None, :] - nodes).transpose(2, 0, 1)) < reach).any(axis=1).all()
    assert len(cut) >= 4 * len(nodes)


def test_diagonal_through_grid_vertices():
    """F vanishes exactly at every diagonal grid vertex, where an h-edge and
    a v-edge crossing share one coordinate; the walk takes both, in the
    order of their first appearance."""
    traced = trace_divide(family_from_expression("y - x", window=1.0), grid_n=512)
    assert [br.closed for br in traced.divide.branches] == [False]
    [path] = traced.strand_paths.values()
    assert path.shape == (1024, 2)
    assert path[0].tolist() == [-1.0, -1.0] and path[-1].tolist() == [1.0, 1.0]
    assert (np.diff(path[:, 0]) >= 0).all()
    xs = np.linspace(-1.0, 1.0, 513)
    still = np.flatnonzero((np.diff(path, axis=0) == 0).all(axis=1))
    assert path[still].tolist() == [[x, x] for x in xs[1:-1].tolist()]


def test_node_at_a_grid_vertex():
    traced = trace_divide(family_from_expression("(y - x)*(y + 2*x)", window=1.0), grid_n=512)
    assert validate(traced.divide) == []
    assert len(traced.nodes) == 1
    assert len(traced.divide.branches) == 2
    assert len(traced.strand_paths) == 4


class TestTwoCuspsFixture:
    path = os.path.join(DATA, "two_cusps_divide.json")
    cusp = BranchType((2, 3))
    sing = SingularityType((cusp, cusp), (), ((0, 6), (6, 0)))

    def test_census(self):
        d = two_cusps_divide()
        inv = invariants_report(self.sing)
        assert validate(d) == []
        assert len(d.crossings) == inv["expected_nodes"] == 8
        assert len(d.inner_faces) == inv["expected_inner_regions"] == 7
        assert len(build_diagram(d).vertices) == inv["milnor"] == 15
        assert census_passes(d, self.sing)

    def test_json_roundtrip_is_byte_identical(self):
        with open(self.path, "rb") as fh:
            raw = fh.read()
        assert json.dumps(divide_to_json(two_cusps_divide()), indent=1, sort_keys=True).encode() == raw
