"""3-colored diagrams of divides: crossings and inner regions as vertices.

Crossings become 0-colored vertices, inner regions carry the sign of the
checkerboard coloring.  Two regions are joined by one edge per inner curve
arc on their common boundary; a region and a crossing are joined by one
edge per corner of the region at the crossing.  Multi-edges are kept,
loops cannot occur.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .divide import Divide, FaceColoring, two_coloring


class AGError(ValueError):
    pass


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

    def vertex(self, vid: int) -> AGVertex:
        return self.vertices[vid]

    def multiplicity(self, u: int, v: int) -> int:
        return self._edge_count[min(u, v), max(u, v)]

    def multi_edges(self) -> list[tuple[int, int]]:
        return [e for e, k in sorted(self._edge_count.items()) if k > 1]


def build_diagram(d: Divide, col: FaceColoring | None = None) -> AGDiagram:
    """Assemble the diagram of a valid divide from its coloring."""
    if col is None:
        col = two_coloring(d)
    if set(col.color) != set(d.disc_faces()):
        raise AGError("coloring does not belong to this divide")
    crossings = list(d.crossings)
    inner = list(d.inner_faces)
    vid_of_crossing = {v: k for k, v in enumerate(crossings)}
    vid_of_face = {f: len(crossings) + k for k, f in enumerate(inner)}
    vertices = [AGVertex(vid_of_crossing[v], 0, "crossing", v) for v in crossings]
    vertices += [AGVertex(vid_of_face[f], col.color[f], "region", f) for f in inner]
    edges: list[tuple[int, int]] = []

    # region-region: one edge per inner one-cell on the common boundary
    for chain, is_inner in d.one_cells:
        if not is_inner:
            continue
        f1, f2 = d.one_cell_sides(chain)
        if f1 == f2:
            continue
        if f1 in vid_of_face and f2 in vid_of_face:
            u, v = vid_of_face[f1], vid_of_face[f2]
            edges.append((min(u, v), max(u, v)))

    # region-crossing: one edge per corner of the region at the crossing
    for f in inner:
        corner_count: dict[int, int] = {}
        for h in d.faces[f]:
            v = d.origin(h)
            if v in vid_of_crossing:
                corner_count[v] = corner_count.get(v, 0) + 1
        for v, k in corner_count.items():
            if k > 2:
                raise AGError(
                    f"region {f} has {k} corners at crossing {v}; transversal crossings admit at most 2"
                )
            u, w = vid_of_crossing[v], vid_of_face[f]
            for _ in range(k):
                edges.append((min(u, w), max(u, w)))

    edges.sort()
    g = AGDiagram(tuple(vertices), tuple(edges))
    for u, v in g.edges:
        cu, cv = g.vertices[u].color, g.vertices[v].color
        if cu == cv and cu != 0:
            raise AGError(f"same-sign regions {u},{v} joined by an edge")
        if u == v:
            raise AGError("loop edge in diagram")
    return g


def is_partition(d: Divide) -> bool:
    """Whether the closures of any two inner regions meet in nothing, one
    vertex, or one closed arc."""
    inner = list(d.inner_faces)
    cells_between: dict[frozenset, list[set[int]]] = {}
    for chain, is_inner in d.one_cells:
        if is_inner:
            sides = frozenset(d.one_cell_sides(chain))
            cells_between.setdefault(sides, []).append(d.one_cell_end_vertices(chain))
    corners: dict[int, set[int]] = {}
    for f in inner:
        corners[f] = {d.origin(h) for h in d.faces[f] if len(d.rotations[d.origin(h)]) == 4}
    for a in range(len(inner)):
        for b in range(a + 1, len(inner)):
            f1, f2 = inner[a], inner[b]
            shared_cells = cells_between.get(frozenset((f1, f2)), [])
            shared_verts = corners[f1] & corners[f2]
            if not shared_cells and len(shared_verts) <= 1:
                continue
            if len(shared_cells) == 1 and shared_verts == shared_cells[0]:
                continue
            return False
    return True


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
