"""Deterministic artifact writers for traced divides: SVG picture and CSV
tables of strand polylines and node coordinates.

Every number is written by a %.12g template, 12 significant digits: a node
by one % operation, a polyline by one over a repeated template."""
from __future__ import annotations

import numpy as np

from .tracing import TracedDivide

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def svg_divide(traced: TracedDivide) -> str:
    """Standalone SVG of the traced divide: strands per branch, nodes,
    window frame.  Output is byte-stable for identical inputs."""
    W = traced.meta.window
    scale = 640 / (2 * W)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" viewBox="0 0 640 640">',
        '<rect x="0" y="0" width="640" height="640" fill="white" stroke="black" stroke-width="1"/>',
    ]
    branch_of_edge = traced.divide.branch_of_edge
    for e in sorted(traced.strand_paths):
        path = traced.strand_paths[e]
        color = PALETTE[branch_of_edge[e] % len(PALETTE)]
        uv = np.column_stack(((path[:, 0] + W) * scale, (W - path[:, 1]) * scale))
        pts = " ".join(["%.12g,%.12g"] * len(path)) % tuple(uv.ravel().tolist())
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    for k, nd in enumerate(traced.nodes):
        lines.append('<circle cx="%.12g" cy="%.12g" r="3" fill="black"><title>node %d</title></circle>'
                     % ((nd.x + W) * scale, (W - nd.y) * scale, k))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def strands_csv(traced: TracedDivide) -> str:
    rows = ["branch,edge,point,x,y"]
    branch_of_edge = traced.divide.branch_of_edge
    for e in sorted(traced.strand_paths):
        path = traced.strand_paths[e]
        row = f"{branch_of_edge[e]},{e},%d,%.12g,%.12g"
        cells = np.column_stack((np.arange(len(path)), path)).ravel().tolist()
        rows.append("\n".join([row] * len(path)) % tuple(cells))
    return "\n".join(rows) + "\n"


def nodes_csv(traced: TracedDivide) -> str:
    rows = ["node,x,y,residual_f,residual_grad,tangent_gap"]
    rows += ["%d,%.12g,%.12g,%.12g,%.12g,%.12g" % (k, nd.x, nd.y, nd.residual_f, nd.residual_grad, nd.tangent_gap)
             for k, nd in enumerate(traced.nodes)]
    return "\n".join(rows) + "\n"
