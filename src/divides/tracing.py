"""Trace the real zero set of a family into a combinatorial divide.

The pipeline: evaluate F_t on a square grid, extract the contour by edge
sign interpolation, locate hyperbolic nodes as saddles of F on the zero
level, cut the contour open around each node and rewire it through the
node with the rotation read from the cut-end angles, then assemble
branches, boundary order, and the planar map.

Nodes are found by Newton's method on grad F, run from all seeds at once
as arrays (the evaluators take paired points as well as grids).  A saddle
counts as a node only when |F|/scale <= LEVEL_TOL; its crossing angle
comes from the Hessian in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divide import Divide, validate
from .families import FamilySpec

LEVEL_TOL = 1e-9
ANGLE_TOL = 1e-3


class TraceError(RuntimeError):
    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


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
    expected_nodes: int | None
    tag: str
    retries_used: int = 0


@dataclass
class TracedDivide:
    divide: Divide
    nodes: list[NodeInfo]
    strand_paths: dict[int, np.ndarray]  # edge id -> polyline, tail to head
    meta: TraceMeta
    node_count_ok: bool = True

    @property
    def crossing_count(self) -> int:
        return len(self.nodes)


def _nodes(funs, seeds, window, f_scale):
    """Saddles of F on the zero level, Newton-refined on grad F from all
    seeds at once, deduplicated in seed order."""
    f, fx, fy, fxx, fxy, fyy = funs
    x, y = np.array(seeds, dtype=float)
    live = np.ones(x.shape, dtype=bool)
    converged = np.zeros(x.shape, dtype=bool)
    for _ in range(60):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        xl, yl = x[idx], y[idx]
        gx, gy = fx(xl, yl), fy(xl, yl)
        hxx, hxy, hyy = fxx(xl, yl), fxy(xl, yl), fyy(xl, yl)
        det = hxx * hyy - hxy * hxy
        stuck = np.abs(det) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(stuck, 0.0, (-hyy * gx + hxy * gy) / det)
            dy = np.where(stuck, 0.0, (hxy * gx - hxx * gy) / det)
            step = np.hypot(dx, dy)
            clip = np.where(step > 0.25 * window, 0.25 * window / step, 1.0)
        dx, dy = dx * clip, dy * clip
        x[idx], y[idx] = xl + dx, yl + dy
        inside = (np.abs(x[idx]) <= 2 * window) & (np.abs(y[idx]) <= 2 * window)
        converged[idx] = inside & ~stuck & (np.hypot(dx, dy) < 1e-16 * window + 1e-30)
        live[idx] = inside & ~stuck & ~converged[idx]
        x[idx[~inside]] = np.nan  # left the box: dropped
    grad = np.hypot(fx(x, y), fy(x, y)) * window / f_scale
    ok = converged | (grad < 1e-11)
    x, y, grad = x[ok], y[ok], grad[ok]
    level = np.abs(f(x, y)) / f_scale
    a, b, c = fxx(x, y), fxy(x, y), fyy(x, y)
    disc = b * b - a * c
    # angle between the two null lines of the Hessian quadratic form, the
    # crossing tangents
    gap = np.arctan2(2 * np.sqrt(np.maximum(disc, 0.0)), np.abs(a + c))
    nodes: list[NodeInfo] = []
    for k in np.flatnonzero((disc > 0) & (level <= LEVEL_TOL)):
        if all(math.hypot(x[k] - nd.x, y[k] - nd.y) > 1e-7 * window for nd in nodes):
            nodes.append(NodeInfo(float(x[k]), float(y[k]), float(level[k]), float(grad[k]), float(gap[k])))
    return nodes


def trace_divide(family: FamilySpec, t: float | None = None, window: float | None = None,
                 grid_n: int = 512, _retries_used: int = 0) -> TracedDivide:
    """Single tracing attempt at fixed parameters.

    Raises TraceError when the numerics cannot certify the picture
    (node refinement failure, node too close to the window rim or to
    another node, cut-end count mismatch).  A wrong node count is
    reported in the result, not raised, so the retry wrapper can decide.
    """
    if grid_n < 64:
        raise TraceError("parameters", "grid_n must be at least 64")
    t = family.t_default if t is None else float(t)
    if t <= 0:
        raise TraceError("parameters", "t must be positive")
    W = family.window(t) if window is None else float(window)
    funs = family.evaluators(t)
    f = funs[0]
    xs = np.linspace(-W, W, grid_n + 1)
    ys = np.linspace(-W, W, grid_n + 1)
    F = f(xs[:, None], ys)
    if not np.isfinite(F).all():
        raise TraceError("evaluation", "family evaluation produced non-finite values")
    f_scale = float(np.max(np.abs(F)))
    if f_scale == 0:
        raise TraceError("evaluation", "family vanishes identically on the grid")
    S = np.where(F >= 0, 1, -1)
    cell = 2 * W / grid_n

    # --- node seeds: local minima of |grad|^2 plus ambiguous cells ---------
    Gx = funs[1](xs[:, None], ys)
    Gy = funs[2](xs[:, None], ys)
    g = Gx * Gx + Gy * Gy
    interior = g[1:-1, 1:-1]
    mins = np.ones_like(interior, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            mins &= interior <= g[1 + di : grid_n + di, 1 + dj : grid_n + dj]

    hx = S[:-1, :] != S[1:, :]  # horizontal edges
    vy = S[:, :-1] != S[:, 1:]  # vertical edges
    amb = hx[:, :-1] & hx[:, 1:] & vy[:-1, :] & vy[1:, :]
    (mi, mj), (ai, aj) = np.nonzero(mins), np.nonzero(amb)
    seeds = (np.concatenate([xs[mi + 1], 0.5 * (xs[ai] + xs[ai + 1])]),
             np.concatenate([ys[mj + 1], 0.5 * (ys[aj] + ys[aj + 1])]))

    infos = _nodes(funs, seeds, W, f_scale)
    infos.sort(key=lambda nd: (round(nd.x / (1e-9 * W)), round(nd.y / (1e-9 * W))))
    for nd in infos:
        if nd.residual_grad > LEVEL_TOL:
            raise TraceError(
                "refinement",
                f"node at ({nd.x:.6g},{nd.y:.6g}): gradient residual {nd.residual_grad:.2e} above {LEVEL_TOL}",
            )
        if nd.tangent_gap < ANGLE_TOL:
            raise TraceError("transversality", f"crossing tangents separated by only {nd.tangent_gap:.2e} rad")

    # cut radii: where the two crossing strands separate by a few cells;
    # shallow crossing angles need proportionally wider cuts to stay
    # visible to the grid
    r_cuts = []
    for nd in infos:
        gap = max(nd.tangent_gap, 1e-3)
        r = cell * max(3.0, 1.7 / math.sin(gap / 2))
        if r > 0.22 * W:
            raise TraceError(
                "resolution",
                f"crossing angle {gap:.3g} rad needs a cut radius beyond the window; refine the grid",
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
    def h_point(i, j):
        v1, v2 = F[i, j], F[i + 1, j]
        s = v1 / (v1 - v2) if v1 != v2 else 0.5
        return (xs[i] + s * cell, ys[j])

    def v_point(i, j):
        v1, v2 = F[i, j], F[i, j + 1]
        s = v1 / (v1 - v2) if v1 != v2 else 0.5
        return (xs[i], ys[j] + s * cell)

    points: dict[tuple, tuple[float, float]] = {}
    adj: dict[tuple, list] = {}

    def add_seg(k1, k2, p1, p2):
        points.setdefault(k1, p1)
        points.setdefault(k2, p2)
        adj.setdefault(k1, []).append(k2)
        adj.setdefault(k2, []).append(k1)

    active = np.argwhere(hx[:, :-1] | hx[:, 1:] | vy[:-1, :] | vy[1:, :])
    for i, j in active:
        crossings = []
        if hx[i, j]:
            crossings.append((("h", i, j), h_point(i, j)))
        if vy[i + 1, j]:
            crossings.append((("v", i + 1, j), v_point(i + 1, j)))
        if hx[i, j + 1]:
            crossings.append((("h", i, j + 1), h_point(i, j + 1)))
        if vy[i, j]:
            crossings.append((("v", i, j), v_point(i, j)))
        if len(crossings) == 2:
            (k1, p1), (k2, p2) = crossings
            add_seg(k1, k2, p1, p2)
        elif len(crossings) == 4:
            cx, cy = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])
            center_sign = 1 if float(f(cx, cy)) >= 0 else -1
            # corners: A=(i,j) sign pattern alternates; pair around B and D
            # when the center joins A's region
            bottom, right, top, left = crossings
            if center_sign == S[i, j]:
                add_seg(bottom[0], right[0], bottom[1], right[1])
                add_seg(top[0], left[0], top[1], left[1])
            else:
                add_seg(bottom[0], left[0], bottom[1], left[1])
                add_seg(top[0], right[0], top[1], right[1])
        elif len(crossings) != 0:
            raise TraceError("contour", f"cell ({i},{j}) has {len(crossings)} edge crossings")

    if not points:
        raise TraceError("contour", "no zero set found in the window")

    # --- cut the contour open around each node ------------------------------
    removed: set = set()
    stub_ends: dict[int, list] = {k: [] for k in range(len(infos))}
    pts_arr = list(points.items())
    for k, nd in enumerate(infos):
        for key, (px, py) in pts_arr:
            if math.hypot(px - nd.x, py - nd.y) < r_cuts[k]:
                removed.add(key)
    for key in removed:
        for nb in adj.get(key, []):
            if nb in removed:
                continue
            # nb survives and lost a neighbor: a stub end
            nearest = min(
                range(len(infos)),
                key=lambda k: math.hypot(points[key][0] - infos[k].x, points[key][1] - infos[k].y),
            )
            stub_ends[nearest].append(nb)
    adj = {k: [n for n in nbs if n not in removed] for k, nbs in adj.items() if k not in removed}

    for k, ends in stub_ends.items():
        ends = sorted(set(ends), key=lambda key: points[key])
        if len(ends) != 4:
            raise TraceError(
                "node-degree",
                f"node {k} has {len(ends)} strand ends after the cut (need 4); refine the grid",
            )
        nd = infos[k]
        ends.sort(key=lambda key: math.atan2(points[key][1] - nd.y, points[key][0] - nd.x))
        stub_ends[k] = ends

    # --- walk strands --------------------------------------------------------
    def is_rim_key(key):
        kind, i, j = key
        if kind == "h":
            return j == 0 or j == grid_n
        return i == 0 or i == grid_n

    specials: dict[tuple, tuple] = {}
    for k, ends in stub_ends.items():
        for stub_idx, key in enumerate(ends):
            specials[key] = ("node", k, stub_idx)
    rim_keys = [key for key in adj if is_rim_key(key) and len(adj[key]) == 1]
    for key in rim_keys:
        if key in specials:
            raise TraceError("contour", "rim endpoint coincides with a node stub")
        specials[key] = ("rim", key)

    strands = []
    visited_dir: set = set()
    for key in sorted(specials, key=lambda kk: points[kk]):
        for nb in adj[key]:
            if (key, nb) in visited_dir:
                continue
            path_keys = [key, nb]
            visited_dir.add((key, nb))
            while path_keys[-1] not in specials:
                cur = path_keys[-1]
                prev = path_keys[-2]
                nxts = [q for q in adj[cur] if q != prev]
                if len(nxts) != 1:
                    raise TraceError("contour", f"contour point of degree {len(adj[cur])} at {points[cur]}")
                path_keys.append(nxts[0])
                visited_dir.add((cur, nxts[0]))
            visited_dir.add((path_keys[-1], path_keys[-2]))
            strands.append((specials[path_keys[0]], specials[path_keys[-1]], path_keys))

    # crossing-free closed loops
    leftover = sorted(
        (key for key in adj if key not in specials and not any((key, nb) in visited_dir for nb in adj[key])),
        key=lambda kk: points[kk],
    )
    loops = []
    for key in leftover:
        if any((key, nb) in visited_dir for nb in adj[key]):
            continue
        if len(adj[key]) != 2:
            raise TraceError("contour", f"stray contour point at {points[key]}")
        path_keys = [key, adj[key][0]]
        visited_dir.add((key, adj[key][0]))
        visited_dir.add((adj[key][0], key))
        while path_keys[-1] != key:
            cur, prev = path_keys[-1], path_keys[-2]
            nxts = [q for q in adj[cur] if q != prev]
            if len(nxts) != 1:
                raise TraceError("contour", "loop tracing failed")
            path_keys.append(nxts[0])
            visited_dir.add((cur, nxts[0]))
            visited_dir.add((nxts[0], cur))
        loops.append(path_keys)

    return _assemble(family, infos, strands, loops, points, t, W, grid_n, _retries_used)


def _assemble(family, infos, strands, loops, points, t, W, grid_n, retries_used):
    # vertices: nodes 0..K-1, rim endpoints next, loop markers last
    K = len(infos)
    cell = 2 * W / grid_n

    def rim_sort_key(key):
        px, py = points[key]
        tol = W * 1e-9 + 2.1 * cell
        cands = []
        if abs(py + W) <= tol:
            cands.append(0 + (px + W) / (2 * W))
        if abs(px - W) <= tol:
            cands.append(1 + (py + W) / (2 * W))
        if abs(py - W) <= tol:
            cands.append(2 + (W - px) / (2 * W))
        if abs(px + W) <= tol:
            cands.append(3 + (W - py) / (2 * W))
        if not cands:
            raise TraceError("contour", f"endpoint {points[key]} not on the window rim")
        return min(cands)

    rim_keys = sorted(
        {keys[0] for start, end, keys in strands if start[0] == "rim"}
        | {keys[-1] for start, end, keys in strands if end[0] == "rim"},
        key=rim_sort_key,
    )
    rim_vertex = {key: K + idx for idx, key in enumerate(rim_keys)}
    marker_base = K + len(rim_keys)

    # edges: strands first, crossing-free loops after
    edge_paths: dict[int, np.ndarray] = {}
    edge_tail: dict[int, tuple] = {}
    edge_head: dict[int, tuple] = {}
    for e_idx, (start, end, keys) in enumerate(strands, start=1):
        edge_paths[e_idx] = np.array([points[k] for k in keys])
        edge_tail[e_idx] = start
        edge_head[e_idx] = end
    loop_base = len(strands)
    for l_idx, keys in enumerate(loops):
        e = loop_base + 1 + l_idx
        edge_paths[e] = np.array([points[k] for k in keys])
        edge_tail[e] = ("marker", l_idx)
        edge_head[e] = ("marker", l_idx)

    # each node stub carries exactly one half-edge rooted at the node
    stub_half: dict[tuple, int] = {}
    for e_idx, (start, end, keys) in enumerate(strands, start=1):
        if start[0] == "node":
            if start in stub_half:
                raise TraceError("assembly", f"two strands claim stub {start}")
            stub_half[start] = e_idx
        if end[0] == "node":
            if end in stub_half:
                raise TraceError("assembly", f"two strands claim stub {end}")
            stub_half[end] = -e_idx

    rotations: dict[int, list[int]] = {}
    for k in range(K):
        rot = []
        for stub_idx in range(4):
            spec = ("node", k, stub_idx)
            if spec not in stub_half:
                raise TraceError("assembly", f"no strand attached to node {k} stub {stub_idx}")
            rot.append(stub_half[spec])
        rotations[k] = rot
    for key, vid in rim_vertex.items():
        half = None
        for e_idx, (start, end, keys) in enumerate(strands, start=1):
            if start == ("rim", key):
                half = e_idx
            elif end == ("rim", key):
                half = -e_idx
        if half is None:
            raise TraceError("assembly", f"rim endpoint {key} detached")
        rotations[vid] = [half]
    for l_idx in range(len(loops)):
        e = loop_base + 1 + l_idx
        rotations[marker_base + l_idx] = [e, -e]

    def next_half(h):
        """Continue a walk through the node at the head of half-edge h."""
        arrive = edge_head[h] if h > 0 else edge_tail[-h]
        if arrive[0] != "node":
            return None
        _, k, stub_idx = arrive
        return stub_half[("node", k, (stub_idx + 2) % 4)]

    used: set[int] = set()
    branches = []
    for e_idx, (start, end, keys) in enumerate(strands, start=1):
        if e_idx in used or start[0] != "rim":
            continue
        walk, h = [], e_idx
        while True:
            walk.append(h)
            used.add(abs(h))
            h = next_half(h)
            if h is None:
                break
        branches.append((False, walk))
    for e_idx in range(1, len(strands) + 1):
        if e_idx in used:
            continue
        walk, h = [], e_idx
        while True:
            walk.append(h)
            used.add(abs(h))
            h = next_half(h)
            if h is None:
                raise TraceError("assembly", "closed walk leaked to the rim")
            if h == e_idx:
                break
        branches.append((True, walk))
    for l_idx in range(len(loops)):
        branches.append((True, [loop_base + 1 + l_idx]))

    def branch_key(br):
        closed, walk = br
        if closed:
            return (1, min(abs(h) for h in walk))
        first = walk[0]
        key = strands[first - 1][2][0] if first > 0 else strands[-first - 1][2][-1]
        return (0, rim_vertex[key])

    branches.sort(key=branch_key)
    boundary = [rim_vertex[key] for key in rim_keys]

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

    divide = Divide(branches, rotations, boundary, outer_face)
    problems = validate(divide)
    if problems:
        raise TraceError("validation", f"traced divide invalid: {problems[0].detail}")

    expected = family.expected_nodes
    meta = TraceMeta(t, grid_n, W, expected, family.tag, retries_used)
    ok = expected is None or len(infos) == expected
    return TracedDivide(divide, list(infos), edge_paths, meta, ok)


def trace_with_retries(family: FamilySpec, t: float | None = None, grid_n: int = 512,
                       window: float | None = None, retries: int = 3) -> TracedDivide:
    """Monotone retry protocol: halve t and double the grid on failure."""
    t = family.t_default if t is None else float(t)
    last_exc: Exception | None = None
    for attempt in range(retries + 1):
        try:
            traced = trace_divide(family, t=t, window=window, grid_n=grid_n, _retries_used=attempt)
        except TraceError as exc:
            last_exc = exc
        else:
            if traced.node_count_ok:
                return traced
            last_exc = TraceError(
                "node-count",
                f"found {traced.crossing_count} nodes, expected {family.expected_nodes}",
            )
        t *= 0.5
        grid_n = min(2 * grid_n, 4096)
    raise TraceError("retries-exhausted", f"tracing failed after {retries + 1} attempts: {last_exc}")
