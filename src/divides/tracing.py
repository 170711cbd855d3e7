"""Trace the real zero set of a family into a combinatorial divide.

The pipeline: evaluate F_t on a square grid, extract the contour by edge
sign interpolation, locate hyperbolic nodes as saddles of F on the zero
level, cut the contour open around each node and rewire it through the
node with the rotation read from the cut-end angles, then assemble
branches, boundary order, and the planar map.

Nodes are found by Newton's method on grad F, run from all seeds at once
as arrays, one gradient and one Hessian evaluation per step.  The seeds
are the local minima of |grad F|^2 on a grid of SEED_CELLS cells a side,
or on the contour grid where that is coarser, and the centres of the
contour grid's cells with four crossings: a retry's finer grid refines the
contour, not the seeds.  512 cells is the floor.  On five handpicked
families at grids 512, 1024 and 2048 and sixty random draws at 512,
512-cell seeds lead Newton to every critical point in the window that
contour-grid seeds do, while 256-cell seeds missed 8 in 5 of the draws.
A saddle counts as a node only when |F|/scale <= LEVEL_TOL; its crossing
angle comes from the Hessian in closed form.

No grid is held whole: F on the contour grid and |grad F|^2 on the seed
grid are evaluated STRIP_ROWS rows at a time, strips overlapping by one or
two rows, and a strip keeps only F's extremes, its crossing edges with F at
both ends and its crossing cells.  On one-pair-3-4 attempts at grids 512
to 4096, 16-row strips took 15-30% longer than 32-row ones, while 64 and
128 rows were no faster beyond noise and hold two to four times the rows.

The contour is held as integer point ids, one per grid edge whose ends
differ in sign: h-edge ((i, j) to (i+1, j)) crossings first, then v-edge
((i, j) to (i, j+1)) ones, each in np.nonzero order, with coordinates in a
(P, 2) array.  Edge ids are found by np.searchsorted on sorted linear edge
indices, so no grid-sized map is built.  The (P, 2) neighbour table holds
in slot 0 the other end of a point's first segment in cell order, in slot
1 that of its second, and -1 for none (rim, or cut away at a node); a walk
leaves through slot 0.  Port and loop starts are taken in order of
(x, y, rank of first appearance in the segments).

Assembly writes the Divide's rotation table directly: a port, a place
where strands end, is a (vertex, slot).  Node k is vertex k, its four stubs
slots 0-3 in counterclockwise order; the rim endpoint of rank r in boundary
order, counterclockwise from the corner (-W, -W), is vertex K + r; the l-th
crossing-free loop, one more strand after all the others, is marker vertex
K + R + l with rotation [e, -e].  Strand e writes e into the slot it leaves
and -e into the one it enters; a slot claimed twice or left empty raises
"assembly".  The Divide derives its branch walks from the table.

A real branch crosses the boundary of a Milnor ball twice and a conjugate
pair not at all.  The square window stands in for that ball, so when the
family states its singularity the zero set must meet the rim in exactly
2 ReBr endpoints; any other count (a pair's oval clipped by the window,
say) raises the reason "window" after the grid stage, before the seeds
and Newton, since each frame crossing is a rim endpoint (see the check).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divide import Divide, StructureError, validate
from .families import FamilySpec

LEVEL_TOL = 1e-9
ANGLE_TOL = 1e-3
SEED_CELLS = 512  # cells a side of the seed grid at most; see the module docstring
STRIP_ROWS = 32  # grid rows evaluated at once; see the module docstring
# failure reasons a finer grid may mend at the same t; see trace_with_retries
GRID_REASONS = frozenset({"nodes-too-close", "node-degree", "resolution", "node-near-boundary", "transversality"})


class TraceError(RuntimeError):
    def __init__(self, reason: str, message: str, attempts: tuple = ()):
        super().__init__(message)
        self.reason = reason
        self.attempts = attempts  # (t, grid_n, reason) of each failed attempt, in order


@dataclass(frozen=True)
class NodeInfo:
    x: float
    y: float
    residual_f: float
    residual_grad: float
    tangent_gap: float  # angle between the two crossing directions


@dataclass
class TraceMeta:
    t: float
    grid_n: int
    window: float


@dataclass
class TracedDivide:
    divide: Divide
    nodes: list[NodeInfo]
    strand_paths: dict[int, np.ndarray]  # edge id -> polyline, tail to head
    meta: TraceMeta
    # always True, as trace_divide raises "node-count"; kept because the
    # benchmark's span probe reads it.  A class attribute, not a field
    node_count_ok = True


def _nodes(f, gradient, hessian, seeds, window, f_scale):
    """Saddles of F on the zero level, Newton-refined on grad F from all
    seeds at once, deduplicated in seed order.

    A seed stops once its step is below 1e-8*window and no smaller than half
    its previous step: the step has reached the rounding noise and stopped
    shrinking.  60 steps is the backstop.  A seed is kept when
    |grad F|*window/f_scale < 1e-11 where it stopped."""
    x, y = np.array(seeds, dtype=float)
    live = np.ones(x.shape, dtype=bool)
    last = np.full(x.shape, np.inf)
    for _ in range(60):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        xl, yl = x[idx], y[idx]
        gx, gy = gradient(xl, yl)
        hxx, hxy, hyy = hessian(xl, yl)
        det = hxx * hyy - hxy * hxy
        stuck = np.abs(det) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(stuck, 0.0, (-hyy * gx + hxy * gy) / det)
            dy = np.where(stuck, 0.0, (hxy * gx - hxx * gy) / det)
        step = np.hypot(dx, dy)
        clip = 0.25 * window / np.maximum(step, 0.25 * window)
        dx, dy, step = dx * clip, dy * clip, step * clip
        x[idx], y[idx] = xl + dx, yl + dy
        inside = (np.abs(x[idx]) <= 2 * window) & (np.abs(y[idx]) <= 2 * window)
        stalled = (step < 1e-8 * window) & (step >= 0.5 * last[idx])
        last[idx] = step
        live[idx] = inside & ~stuck & ~stalled
        x[idx[~inside]] = np.nan  # left the box: dropped
    grad = np.hypot(*gradient(x, y)) * window / f_scale
    ok = grad < 1e-11
    x, y, grad = x[ok], y[ok], grad[ok]
    level = np.abs(f(x, y)) / f_scale
    a, b, c = hessian(x, y)
    disc = b * b - a * c
    # angle between the two null lines of the Hessian quadratic form, the
    # crossing tangents
    gap = np.arctan2(2 * np.sqrt(np.maximum(disc, 0.0)), np.abs(a + c))
    nodes: list[NodeInfo] = []
    for k in np.flatnonzero((disc > 0) & (level <= LEVEL_TOL)):
        if all(math.hypot(x[k] - nd.x, y[k] - nd.y) > 1e-7 * window for nd in nodes):
            nodes.append(NodeInfo(float(x[k]), float(y[k]), float(level[k]), float(grad[k]), float(gap[k])))
    return nodes


def _nonzero(mask):
    """np.nonzero of a 2-D mask, by one flat pass."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _strips(xs, halo):
    """(a, xs[a : a + STRIP_ROWS + halo]) for a = 0, STRIP_ROWS, ...: each
    strip overlaps the next by halo rows, and the last has halo + 1 or more."""
    for a in range(0, xs.size - halo, STRIP_ROWS):
        yield a, xs[a : a + STRIP_ROWS + halo]


def _seeds(gradient, xs, ys):
    """The interior points of the grid (xs, ys) where |grad F|^2 is no larger
    than the least of its 3x3 block, found separably in the gradient
    buffers of one strip of rows at a time."""
    found = []
    for a, x in _strips(xs, 2):
        gx, gy = gradient(x[:, None], ys)
        g = np.square(gx, out=gx)
        g += np.square(gy, out=gy)
        least = np.minimum(g[:, :-2], g[:, 1:-1], out=gy[:, 1:-1])
        np.minimum(least, g[:, 2:], out=least)
        block = np.minimum(least[:-2], least[1:-1])
        np.minimum(block, least[2:], out=block)
        mi, mj = _nonzero(g[1:-1, 1:-1] <= block)
        found.append((xs[a + mi + 1], ys[mj + 1]))
    return tuple(map(np.concatenate, zip(*found)))


def _grid(f, xs, ys):
    """max |F| on the grid (xs, ys), then the h-edge crossings (i, j, F(i, j),
    F(i+1, j)), the v-edge ones (i, j, F(i, j), F(i, j+1)) and the crossing
    cells (i, j, bottom, right, top and left edge flags, F(i, j) >= 0), each
    in np.nonzero order; "evaluation" for a non-finite or vanishing F."""
    f_scale, kept = 0.0, []
    for a, x in _strips(xs, 1):
        F = f(x[:, None], ys)
        low, high = F.min(), F.max()  # NaN if F holds one
        if not (math.isfinite(low) and math.isfinite(high)):
            raise TraceError("evaluation", "family evaluation produced non-finite values")
        f_scale = max(f_scale, float(-low), float(high))
        S = F >= 0
        hx, vy = S[:-1] != S[1:], S[:, :-1] != S[:, 1:]
        hi, hj = _nonzero(hx)
        vi, vj = _nonzero(vy if a + x.size == xs.size else vy[:-1])  # row a + x.size - 1 is the next strip's
        ci, cj = _nonzero(hx[:, :-1] | hx[:, 1:] | vy[:-1] | vy[1:])
        flags = np.stack([hx[ci, cj], vy[ci + 1, cj], hx[ci, cj + 1], vy[ci, cj]], axis=1)
        kept.append((a + hi, hj, F[hi, hj], F[hi + 1, hj], a + vi, vj, F[vi, vj], F[vi, vj + 1],
                     a + ci, cj, flags, S[ci, cj]))
    if f_scale == 0:
        raise TraceError("evaluation", "family vanishes identically on the grid")
    return f_scale, tuple(map(np.concatenate, zip(*kept)))


def trace_divide(family: FamilySpec, t: float | None = None, grid_n: int = 512) -> TracedDivide:
    """Single tracing attempt at fixed parameters.

    Raises TraceError, with a specific reason, whenever the numerics cannot
    certify the picture: a shallow crossing, a node too close to the window
    rim or to another node, a cut-end count mismatch, a rim endpoint count
    other than 2 ReBr, a map that is no divide, and, when the family states
    its singularity, a node count other than the singularity's
    ("node-count").
    """
    if grid_n < 64:
        raise TraceError("parameters", "grid_n must be at least 64")
    t = family.t_default if t is None else float(t)
    if not 0 < t < math.inf:
        raise TraceError("parameters", "t must be positive and finite")
    W = family.window(t)
    if not 0 < W < math.inf:
        raise TraceError("parameters", "window must be positive and finite")
    f, gradient, hessian = family.evaluators(t)
    xs = ys = np.linspace(-W, W, grid_n + 1)
    cell = 2 * W / grid_n
    f_scale, (hi, hj, h0, h1, vi, vj, v0, v1, ci, cj, flags, corner) = _grid(f, xs, ys)
    # the rim count: a frame point lies in one cell, so it has degree 1, and
    # node-near-boundary keeps every cut disc 2 cells off the frame, so no cut
    # reaches it or its neighbour: each frame crossing is a rim endpoint
    along, across = np.concatenate([hi, vj]), np.concatenate([hj, vi])
    frame = (across == 0) | (across == grid_n)
    n_rim, sing = np.count_nonzero(frame), family.singularity
    if sing is not None and n_rim != 2 * sing.re_br:
        raise TraceError("window", f"{n_rim} rim endpoints, but {sing.re_br} real branches need {2 * sing.re_br}")
    four = flags.all(axis=1)
    i4, j4 = ci[four], cj[four]
    mx, my = 0.5 * (xs[i4] + xs[i4 + 1]), 0.5 * (ys[j4] + ys[j4 + 1])  # the centres of the cells with four

    ss = np.linspace(-W, W, min(grid_n, SEED_CELLS) + 1)
    sx, sy = _seeds(gradient, ss, ss)
    infos = _nodes(f, gradient, hessian, (np.concatenate([sx, mx]), np.concatenate([sy, my])), W, f_scale)
    infos.sort(key=lambda nd: (round(nd.x / (1e-9 * W)), round(nd.y / (1e-9 * W))))
    for nd in infos:
        if nd.tangent_gap < ANGLE_TOL:
            raise TraceError("transversality", f"crossing tangents separated by only {nd.tangent_gap:.2e} rad")

    # cut radii: where the two crossing strands separate by a few cells;
    # shallow crossing angles need proportionally wider cuts to stay
    # visible to the grid
    r_cuts = []
    for nd in infos:
        r = cell * max(3.0, 1.7 / math.sin(nd.tangent_gap / 2))
        if r > 0.22 * W:
            raise TraceError(
                "resolution",
                f"crossing angle {nd.tangent_gap:.3g} rad needs a cut radius beyond the window; refine the grid",
            )
        r_cuts.append(r)

    for nd, r in zip(infos, r_cuts):
        margin = r + 2 * cell
        if abs(nd.x) > W - margin or abs(nd.y) > W - margin:
            raise TraceError("node-near-boundary", f"node ({nd.x:.4g},{nd.y:.4g}) too close to the rim")
    for i in range(len(infos)):
        for j in range(i + 1, len(infos)):
            dist = math.hypot(infos[i].x - infos[j].x, infos[i].y - infos[j].y)
            if dist < r_cuts[i] + r_cuts[j] + 4 * cell:
                raise TraceError(
                    "nodes-too-close",
                    f"nodes {i},{j} separated by {dist:.3g}; cut discs would overlap, refine the grid",
                )

    # --- contour extraction -------------------------------------------------
    # one point on each edge whose ends differ in sign, linearly interpolated
    nh, P = hi.size, hi.size + vi.size
    if P == 0:
        raise TraceError("contour", "no zero set found in the window")
    xy = np.empty((P, 2))
    xy[:nh, 0] = xs[hi] + h0 / (h0 - h1) * cell
    xy[:nh, 1] = ys[hj]
    xy[nh:, 0] = xs[vi]
    xy[nh:, 1] = ys[vj] + v0 / (v0 - v1) * cell
    px, py = xy.T

    # the point ids on the crossing cells' edges, looked up in the sorted
    # linear edge indices
    hlin, vlin = hi * (grid_n + 1) + hj, vi * grid_n + vj
    ids = np.stack([np.searchsorted(hlin, ci * (grid_n + 1) + cj),
                    nh + np.searchsorted(vlin, (ci + 1) * grid_n + cj),
                    np.searchsorted(hlin, ci * (grid_n + 1) + cj + 1),
                    nh + np.searchsorted(vlin, ci * grid_n + cj)], axis=1)
    # the signs change an even number of times around a cell.  Two crossings
    # make one segment, in bottom, right, top, left order.  Four make two, one
    # after the other; a cell with four takes the sign of F at its centre, and
    # as corner A=(i,j)'s sign pattern alternates, the segments pair around
    # corners B and D when the centre joins A's region
    rows = np.arange(ci.size)
    seg = np.stack([ids[rows, flags.argmax(axis=1)], ids[rows, 3 - flags[:, ::-1].argmax(axis=1)]], axis=1)
    centre = f(mx, my)
    joins_a = (centre >= 0) == corner[four]
    _, right, top, left = ids[four].T
    seg[four, 1] = np.where(joins_a, right, left)
    at = rows + np.cumsum(four) - four
    segs = np.empty((ci.size + i4.size, 2), dtype=seg.dtype)
    segs[at] = seg
    segs[at[four] + 1] = np.stack([top, np.where(joins_a, left, right)], axis=1)

    # neighbour table, and each point's first appearance in the segments
    on_seg = segs.ravel()
    order = np.argsort(on_seg, kind="stable")
    first = np.ones(order.size, dtype=bool)
    first[1:] = on_seg[order[1:]] != on_seg[order[:-1]]
    rank = order[first]
    nb = np.full((P, 2), -1, dtype=segs.dtype)
    nb[on_seg[order], 1 - first] = segs[:, ::-1].ravel()[order]

    def by_position(pts):
        """Point ids sorted by x, then y, then first appearance."""
        return pts[np.lexsort((rank[pts], py[pts], px[pts]))]

    # --- cut the contour open around each node ------------------------------
    to_node = np.hypot(px[:, None] - [nd.x for nd in infos], py[:, None] - [nd.y for nd in infos])
    cut = (to_node < np.array(r_cuts)).any(axis=1)
    removed = np.flatnonzero(cut)
    # a surviving neighbour of a removed point is a stub end of the nearest node
    stubs = nb[removed]
    kept = (stubs >= 0) & ~cut[stubs]
    nearest = to_node[removed].argmin(axis=1) if removed.size else removed  # no argmin without nodes
    stub_node = np.repeat(nearest, 2)[kept.ravel()]
    stubs = stubs[kept]
    nb[cut] = -1
    nb[cut[nb] & (nb >= 0)] = -1
    lone = nb[:, 0] < 0
    nb[lone] = nb[lone, ::-1]

    # --- ports: (vertex, slot) of the rotation table ------------------------
    K = len(infos)
    port_of: dict[int, tuple[int, int]] = {}
    for k, nd in enumerate(infos):
        ends = by_position(np.unique(stubs[stub_node == k])).tolist()
        if len(ends) != 4:
            raise TraceError(
                "node-degree",
                f"node {k} has {len(ends)} strand ends after the cut (need 4); refine the grid",
            )
        ends.sort(key=lambda p: math.atan2(float(py[p]) - nd.y, float(px[p]) - nd.x))
        port_of.update((p, (k, s)) for s, p in enumerate(ends))
    # a rim port is a point of degree 1 on an edge of the window frame, ranked
    # by side (bottom, right, top, left) and then counterclockwise along it
    rim = np.flatnonzero((nb[:, 0] >= 0) & (nb[:, 1] < 0) & frame)
    far = across[rim] > 0
    side = np.where(rim < nh, 2 * far, np.where(far, 1, 3))
    rim = rim[np.lexsort((np.where(side < 2, along[rim], -along[rim]), side))]
    port_of.update((p, (K + r, 0)) for r, p in enumerate(rim.tolist()))
    rotations = {v: [0] * (4 if v < K else 1) for v in range(K + rim.size)}  # 0: empty slot

    # --- one walk for strands, then for crossing-free loops -----------------
    nbl = nb.tolist()
    seen = np.zeros(P, dtype=bool)

    def walk(start):
        """Point ids from start to the next port, or around to start."""
        path = [start, nbl[start][0]]
        prev, cur = path
        while cur != start and cur not in port_of:
            a, b = nbl[cur]
            prev, cur = cur, b if a == prev else a
            if cur < 0:
                raise TraceError("contour", f"contour point of degree 1 at {tuple(xy[prev].tolist())}")
            path.append(cur)
        seen[path] = True
        return path

    paths = []
    for p in by_position(np.array(list(port_of), dtype=int)).tolist():
        if nbl[p][0] >= 0 and not seen[p]:
            paths.append(walk(p))
            e = len(paths)
            for (v, s), h in ((port_of[p], e), (port_of[paths[-1][-1]], -e)):
                if rotations[v][s]:
                    raise TraceError("assembly", f"two strands claim slot {s} of vertex {v}")
                rotations[v][s] = h
    for p in by_position(np.flatnonzero(~(cut | seen))).tolist():
        if not seen[p] and p not in port_of:
            paths.append(walk(p))
            rotations[len(rotations)] = [len(paths), -len(paths)]
    for v, rot in rotations.items():
        if 0 in rot:
            raise TraceError("assembly", f"no strand attached to slot {rot.index(0)} of vertex {v}")
    edge_paths = {e: xy[p] for e, p in enumerate(paths, start=1)}
    divide = _assemble(rotations, range(K, K + rim.size), edge_paths)
    expected = family.expected_nodes
    if expected is not None and K != expected:
        raise TraceError("node-count", f"found {K} nodes, expected {expected}")
    return TracedDivide(divide, infos, edge_paths, TraceMeta(t, grid_n, W))


def _assemble(rotations, boundary, edge_paths) -> Divide:
    outer_face = None
    if not boundary:
        # leftmost sample point over all edges; the half-edge moving upward
        # there has the outside of the curve on its left
        best = None
        for e, path in edge_paths.items():
            if len(path) < 2:
                continue
            idx = int(np.argmin(path[:, 0]))
            if best is None or path[idx, 0] < best[0]:
                j = min(max(idx, 1), len(path) - 1)
                dy = path[j, 1] - path[j - 1, 1]
                best = (path[idx, 0], e if dy > 0 else -e)
        if best is None:
            raise TraceError("assembly", "cannot determine the outer face")
        outer_face = best[1]

    try:
        divide = Divide(rotations, boundary, outer_face)
    except StructureError as exc:
        raise TraceError("validation", f"traced divide invalid: {exc}") from None
    disjoint = validate(divide)
    if disjoint:
        raise TraceError("validation", "traced divide invalid: branches %d and %d never cross" % disjoint[0])
    return divide


def trace_with_retries(family: FamilySpec, grid_n: int = 512, retries: int = 3) -> TracedDivide:
    """Retry protocol: after a failed attempt, double the grid, up to 4096
    cells a side, and halve t unless the failure is one of GRID_REASONS:
    nodes-too-close, node-degree, resolution, node-near-boundary or
    transversality.  Those say the grid was too coarse for the picture at
    this t, which a smaller t would only shrink further.  Once the grid is
    at its cap, every failure halves t, so no attempt repeats."""
    if retries < 0:
        raise TraceError("parameters", "retries must be at least 0")
    t = family.t_default
    attempts = []
    for _ in range(retries + 1):
        try:
            return trace_divide(family, t=t, grid_n=grid_n)
        except TraceError as exc:
            last_exc = exc
        attempts.append((t, grid_n, last_exc.reason))
        next_n = min(2 * grid_n, 4096)
        if last_exc.reason not in GRID_REASONS or next_n == grid_n:
            t *= 0.5
        grid_n = next_n
    raise TraceError("retries-exhausted", f"tracing failed after {retries + 1} attempts: {last_exc}", tuple(attempts))
