"""3-colored diagrams of divides: crossings and inner regions as vertices.

Crossings become 0-colored vertices, inner regions carry the sign of the
checkerboard coloring.  Two regions are joined by one edge per curve arc
on their common boundary, an arc running from crossing to crossing
through any 2-valent markers (a crossing-free loop is one arc); a region
and a crossing are joined by one edge per corner of the region at the
crossing.  Multi-edges are kept.

Nothing here is checked, since construction guarantees the divide's regions
their checkerboard coloring (see two_coloring), and from it follow:
- the four corners at a crossing alternate in color, so a region has at
  most two corners there;
- a region-region edge crosses one curve edge, whose two sides differ in
  color, so its ends are two regions of opposite signs;
- hence no edge is a loop, since region-crossing edges join different
  kinds of vertex.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .divide import Divide, two_coloring


@dataclass(frozen=True)
class AGVertex:
    vid: int
    color: int  # +1, -1 region or 0 crossing
    origin_kind: str  # "crossing" | "region"
    origin_ref: int  # crossing vertex id or face id


@dataclass(frozen=True)
class AGDiagram:
    vertices: tuple[AGVertex, ...]
    edges: tuple[tuple[int, int], ...]  # unordered pairs (u < v), one entry per parallel edge

    @cached_property
    def _adjacency(self) -> dict[int, list[int]]:
        """Neighbours of each vertex in edge order, one entry per parallel edge."""
        adj: dict[int, list[int]] = {v.vid: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    @cached_property
    def _edge_count(self) -> Counter[tuple[int, int]]:
        return Counter(self.edges)

    def degree(self, vid: int) -> int:
        return len(self._adjacency[vid])

    def neighbors(self, vid: int) -> list[int]:
        return list(self._adjacency[vid])

    def multiplicity(self, u: int, v: int) -> int:
        return self._edge_count[min(u, v), max(u, v)]


def build_diagram(d: Divide) -> AGDiagram:
    """Assemble the diagram of a valid divide from its coloring."""
    color = two_coloring(d)
    crossings = list(d.crossings)
    inner = list(d.inner_faces)
    vid_of_crossing = {v: k for k, v in enumerate(crossings)}
    vid_of_face = {f: len(crossings) + k for k, f in enumerate(inner)}
    vertices = [AGVertex(vid_of_crossing[v], 0, "crossing", v) for v in crossings]
    vertices += [AGVertex(vid_of_face[f], color[f], "region", f) for f in inner]
    edges: list[tuple[int, int]] = []

    # region-region: one edge per curve arc between two inner regions.  An
    # arc starts at each walk half-edge leaving a crossing or an endpoint
    # and runs through markers, which keep its two sides; a crossing-free
    # loop is one arc.  An arc at an endpoint has a rim face on both sides,
    # so it adds none
    for br in d.branches:
        starts = [h for h in br.walk if len(d.rotations[d.origin(h)]) != 2] or br.walk[:1]
        for h in starts:
            f1, f2 = d.face_of[h], d.face_of[-h]
            if f1 in vid_of_face and f2 in vid_of_face:
                u, v = vid_of_face[f1], vid_of_face[f2]
                edges.append((min(u, v), max(u, v)))

    # region-crossing: one edge per corner of the region at the crossing,
    # that is per half-edge of its orbit leaving the crossing; crossings have
    # the lower ids
    for f in inner:
        for h in d.faces[f]:
            if d.origin(h) in vid_of_crossing:
                edges.append((vid_of_crossing[d.origin(h)], vid_of_face[f]))

    edges.sort()
    return AGDiagram(tuple(vertices), tuple(edges))


@dataclass(frozen=True)
class Chain:
    vertices: tuple[int, ...]  # path order
    sign: int | None  # region sign of the chain, None for a lone crossing vertex
    length: int
    has_multi_edge: bool


def detect_chains(g: AGDiagram) -> list[Chain]:
    """Maximal path-shaped runs of low-valence vertices.

    A chain alternates crossing vertices of valence <= 2 with region
    vertices of one fixed sign and valence <= 2.  Reported for both signs;
    lone crossing vertices are reported once with sign None.  Double edges
    inside a candidate run are flagged rather than interpreted.
    """
    deg = {v.vid: g.degree(v.vid) for v in g.vertices}
    chains: list[Chain] = []
    seen_paths = set()
    for sign in (1, -1):
        cand = {
            v.vid
            for v in g.vertices
            if (v.color == 0 and deg[v.vid] <= 2) or (v.color == sign and deg[v.vid] <= 2)
        }
        visited = set()
        for start in sorted(cand):
            if start in visited:
                continue
            comp = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in g.neighbors(x):
                    if y in cand and y not in comp:
                        comp.add(y)
                        stack.append(y)
            visited |= comp
            inner_nbrs = {x: [y for y in g.neighbors(x) if y in comp] for x in comp}
            has_multi = any(g.multiplicity(x, y) > 1 for x in comp for y in inner_nbrs[x])
            inner_deg = {x: len(nbrs) for x, nbrs in inner_nbrs.items()}
            ends = [x for x in comp if inner_deg[x] <= 1]
            if len(comp) == 1:
                order = [start]
            elif len(ends) == 2 and all(inner_deg[x] <= 2 for x in comp) and not has_multi:
                order = [min(ends)]
                prev = None
                while len(order) < len(comp):
                    nxts = [y for y in inner_nbrs[order[-1]] if y != prev]
                    if not nxts:
                        break
                    prev = order[-1]
                    order.append(nxts[0])
                if len(order) != len(comp):
                    continue  # branching inside; not a chain
            else:
                continue  # cycle or branching component: not path-shaped
            colors = {g.vertices[x].color for x in order}
            chain_sign = sign if sign in colors else None
            if chain_sign is None and len(order) > 1:
                continue
            key = tuple(order) if order[0] <= order[-1] else tuple(reversed(order))
            if (key, chain_sign) in seen_paths or (key, None) in seen_paths:
                continue
            seen_paths.add((key, chain_sign))
            chains.append(Chain(key, chain_sign, len(order), has_multi))
    # maximality under inclusion: a run found for one sign may be a strict
    # sub-path of the other sign's run
    maximal = [
        c
        for c in chains
        if not any(
            other is not c and set(c.vertices) < set(other.vertices) for other in chains
        )
    ]
    maximal.sort(key=lambda c: c.vertices)
    return maximal


def export_dot(g: AGDiagram) -> str:
    """Deterministic DOT text; parallel edges are emitted individually."""
    glyph = {0: "*", 1: "+", -1: "-"}
    lines = ["graph ag_diagram {"]
    for v in g.vertices:
        lines.append(f'  v{v.vid} [label="{glyph[v.color]}" kind="{v.origin_kind}" ref="{v.origin_ref}"];')
    for u, v in g.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
