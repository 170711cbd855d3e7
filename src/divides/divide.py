"""Combinatorial divides: immersed curve systems in a disc.

A divide is stored as a planar map: edges 1..E with half-edges +-e, a
rotation system (counterclockwise outgoing half-edges per vertex), branch
walks over signed edge ids, and the cyclic list of boundary endpoints on
the disc.  Crossings are the 4-valent vertices; 2-valent vertices are
transparent markers (needed to carry crossing-free closed curves);
1-valent vertices are branch endpoints on the disc boundary.

Faces are computed from the rotation system augmented with the boundary
arcs of the disc, so the complementary regions of the divide inside the
disc are honest faces of the map.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .singularity import (
    SingularityType,
    branch_delta,
    expected_inner_regions,
    expected_node_count,
)


class StructureError(ValueError):
    """The planar-map data is malformed (as opposed to semantically invalid)."""


class DivideError(ValueError):
    """Operation applied to a divide that fails its semantic invariants."""


@dataclass(frozen=True)
class Branch:
    closed: bool
    walk: tuple[int, ...]

    def steps(self):
        """Consecutive half-edge pairs (h1, h2) of the walk, wrapping
        around when the branch is closed."""
        w = self.walk
        return zip(w, w[1:] + w[:1]) if self.closed else zip(w, w[1:])


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


class Divide:
    def __init__(self, branches, rotations, boundary=(), outer_face=None):
        self.branches: tuple[Branch, ...] = tuple(
            b if isinstance(b, Branch) else Branch(bool(b[0]), tuple(b[1])) for b in branches
        )
        self.rotations: dict[int, tuple[int, ...]] = {
            int(v): tuple(int(h) for h in rot) for v, rot in rotations.items()
        }
        self.boundary: tuple[int, ...] = tuple(int(v) for v in boundary)
        self.outer_face: int | None = None if outer_face is None else int(outer_face)
        self._check_structure()

    # -- structural layer ---------------------------------------------------

    def _check_structure(self):
        seen_halves: dict[int, int] = {}
        for v, rot in self.rotations.items():
            for h in rot:
                if h == 0:
                    raise StructureError(f"half-edge id 0 at vertex {v}")
                if h in seen_halves:
                    raise StructureError(f"half-edge {h} appears at vertices {seen_halves[h]} and {v}")
                seen_halves[h] = v
        edges = {abs(h) for h in seen_halves}
        if edges and edges != set(range(1, len(edges) + 1)):
            raise StructureError("edge ids must be 1..E")
        for e in edges:
            if e not in seen_halves or -e not in seen_halves:
                raise StructureError(f"edge {e} is missing one of its half-edges")
        self._origin = seen_halves
        self._n_edges = len(edges)

        used: set[int] = set()
        for bid, br in enumerate(self.branches):
            if not br.walk:
                raise StructureError(f"branch {bid} has an empty walk")
            for h in br.walk:
                if abs(h) in used:
                    raise StructureError(f"edge {abs(h)} used by more than one walk position")
                used.add(abs(h))
                if h not in seen_halves:
                    raise StructureError(f"walk of branch {bid} uses unknown half-edge {h}")
            for h1, h2 in br.steps():
                if self._origin[-h1] != self._origin[h2]:
                    raise StructureError(
                        f"walk of branch {bid} breaks at {h1}->{h2}: head {self._origin[-h1]} vs tail {self._origin[h2]}"
                    )
        if used != edges:
            raise StructureError(f"edges not covered by walks: {sorted(edges - used)}")

        if self.outer_face is not None and self.outer_face not in seen_halves:
            raise StructureError(f"outer_face marker {self.outer_face} is not a half-edge")

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def origin(self, h: int) -> int:
        return self._origin[h]

    def head(self, h: int) -> int:
        return self._origin[-h]

    @cached_property
    def crossings(self) -> tuple[int, ...]:
        return tuple(sorted(v for v, rot in self.rotations.items() if len(rot) == 4))

    @cached_property
    def endpoints(self) -> tuple[int, ...]:
        return tuple(sorted(v for v, rot in self.rotations.items() if len(rot) == 1))

    @cached_property
    def branch_of_edge(self) -> dict[int, int]:
        out = {}
        for bid, br in enumerate(self.branches):
            for h in br.walk:
                out[abs(h)] = bid
        return out

    # -- passages through crossings -----------------------------------------

    @cached_property
    def passages(self) -> dict[int, list[tuple[int, int, int]]]:
        """crossing -> list of (in_half_edge, out_half_edge, branch id).

        The in/out half-edges are both rooted at the crossing: the strand
        arrives through -in and leaves through out.
        """
        out: dict[int, list[tuple[int, int, int]]] = {v: [] for v in self.crossings}
        for bid, br in enumerate(self.branches):
            for h1, h2 in br.steps():
                v = self.origin(h2)
                if v in out:
                    out[v].append((-h1, h2, bid))
        return out

    # -- faces ----------------------------------------------------------------

    @cached_property
    def _augmented(self):
        """Rotation system with the disc boundary arcs added.

        Arcs get edge ids E+1..E+B, arc k running from boundary[k] to
        boundary[k+1] along the counterclockwise boundary circle.
        """
        rot = {v: list(r) for v, r in self.rotations.items()}
        n_arc = len(self.boundary)
        arc_ids = []
        for k in range(n_arc):
            arc_ids.append(self._n_edges + 1 + k)
        origin = dict(self._origin)
        for k, v in enumerate(self.boundary):
            a_out = arc_ids[k]
            a_in = arc_ids[(k - 1) % n_arc]
            if len(self.rotations[v]) != 1:
                raise StructureError(f"boundary vertex {v} is not 1-valent")
            h_curve = self.rotations[v][0]
            # ccw order at a point of the ccw-oriented circle: forward arc,
            # inward curve edge, backward arc
            rot[v] = [a_out, h_curve, -a_in]
            origin[a_out] = v
            origin[-a_in] = v
        return rot, origin, arc_ids

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        # left-face orbits: continue through the clockwise-next outgoing
        # half-edge after the twin (rotations are counterclockwise)
        rot, origin, _ = self._augmented
        succ: dict[int, int] = {}
        for v, r in rot.items():
            for idx, h in enumerate(r):
                succ[h] = r[(idx - 1) % len(r)]
        visited: set[int] = set()
        orbits = []
        for h0 in sorted(succ, key=lambda h: (abs(h), h < 0)):
            if h0 in visited:
                continue
            orbit = []
            h = h0
            while True:
                orbit.append(h)
                visited.add(h)
                h = succ[-h]
                if h == h0:
                    break
            orbits.append(tuple(orbit))
        orbits.sort(key=lambda o: min((abs(h), h < 0) for h in o))
        return tuple(orbits)

    @cached_property
    def face_of(self) -> dict[int, int]:
        out = {}
        for fid, orbit in enumerate(self.faces):
            for h in orbit:
                out[h] = fid
        return out

    @cached_property
    def arc_ids(self) -> tuple[int, ...]:
        return tuple(self._augmented[2])

    @cached_property
    def outside_face(self) -> int:
        """Face beyond the disc boundary (or the designated boundary-touching
        face when there are no endpoints)."""
        if self.boundary:
            return self.face_of[-self.arc_ids[0]]
        if self.outer_face is None:
            raise DivideError("boundary-free divide needs an outer_face marker")
        return self.face_of[self.outer_face]

    @cached_property
    def inner_faces(self) -> tuple[int, ...]:
        arcs = set(self.arc_ids)
        out = []
        for fid, orbit in enumerate(self.faces):
            if fid == self.outside_face:
                continue
            if any(abs(h) in arcs for h in orbit):
                continue
            out.append(fid)
        return tuple(out)


# --- validation ---------------------------------------------------------------


def validate(d: Divide) -> list[Violation]:
    """Semantic checks; an empty list means the divide is valid."""
    out: list[Violation] = []

    for v, rot in d.rotations.items():
        if len(rot) not in (1, 2, 4):
            out.append(Violation("bad-valence", f"vertex {v} has valence {len(rot)}"))

    # boundary endpoints: distinct, exactly the 1-valent vertices, one per
    # open branch end
    if len(set(d.boundary)) != len(d.boundary):
        out.append(Violation("boundary-duplicates", "boundary endpoint listed twice"))
    if set(d.boundary) != set(d.endpoints):
        out.append(
            Violation(
                "boundary-mismatch",
                f"boundary list {sorted(d.boundary)} vs 1-valent vertices {list(d.endpoints)}",
            )
        )
    open_branches = [b for b in d.branches if not b.closed]
    if len(d.boundary) != 2 * len(open_branches):
        out.append(
            Violation(
                "endpoint-count",
                f"{len(d.boundary)} endpoints for {len(open_branches)} open branches",
            )
        )
    if not d.boundary and d.outer_face is None:
        out.append(Violation("missing-outer-face", "boundary-free divide needs outer_face"))

    # crossings carry exactly two transversal strand passages; both ports of
    # a passage are in the rotation, as every walk step joins at one vertex
    for v in d.crossings:
        rot = d.rotations[v]
        pas = d.passages.get(v, [])
        if len(pas) != 2:
            out.append(Violation("crossing-passages", f"crossing {v} has {len(pas)} passages"))
            continue
        pos = {h: k for k, h in enumerate(rot)}
        for h_in, h_out, _ in pas:
            if (pos[h_in] - pos[h_out]) % 4 != 2:
                out.append(
                    Violation(
                        "strand-alternation",
                        f"strands at crossing {v} do not alternate in the rotation",
                    )
                )

    # every pair of branches must intersect; countable once every crossing
    # has its two passages
    if len(d.branches) > 1 and all(len(d.passages.get(v, [])) == 2 for v in d.crossings):
        M = crossing_matrix(d)
        for i in range(len(d.branches)):
            for j in range(i + 1, len(d.branches)):
                if M[i][j] == 0:
                    out.append(
                        Violation("branches-disjoint", f"branches {i} and {j} never cross")
                    )

    # planarity / disc consistency via Euler characteristic of the
    # augmented map
    try:
        comp = _component_count(d)
        V = len(d.rotations)
        E = d.n_edges + len(d.arc_ids)
        F = len(d.faces)
        if comp != 1:
            out.append(Violation("disconnected", f"map has {comp} components"))
        elif V - E + F != 2:
            out.append(
                Violation("non-planar", f"Euler characteristic {V - E + F} != 2")
            )
    except StructureError as exc:
        out.append(Violation("face-structure", str(exc)))
    return out


def _component_count(d: Divide) -> int:
    """Connected components of the augmented map (union-find)."""
    rot, origin, _ = d._augmented
    parent = {v: v for v in rot}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for h, v in origin.items():
        ra, rb = find(v), find(origin[-h])
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in parent})


# --- two-coloring --------------------------------------------------------------


def two_coloring(d: Divide) -> dict[int, int]:
    """Checkerboard coloring of the complementary regions: face id -> +1/-1.

    Canonical choice: with endpoints, the region left of the first
    boundary arc gets +1; for a boundary-free divide the designated
    boundary-touching region gets -1.
    """
    problems = validate(d)
    if problems:
        raise DivideError(f"cannot color an invalid divide: {problems[0].detail}")
    # the regions of the disc: with endpoints, every face but the one beyond
    # the boundary circle; without them, every face
    outside = d.outside_face if d.boundary else None
    adj: dict[int, set[int]] = {f: set() for f in range(len(d.faces)) if f != outside}
    for e in range(1, d.n_edges + 1):
        f1, f2 = d.face_of[e], d.face_of[-e]
        if f1 in adj and f2 in adj and f1 != f2:
            adj[f1].add(f2)
            adj[f2].add(f1)
    if d.boundary:
        anchor, anchor_color = d.face_of[d.arc_ids[0]], 1
    else:
        anchor, anchor_color = d.outside_face, -1
    color = {anchor: anchor_color}
    queue = [anchor]
    while queue:
        f = queue.pop()
        for g in adj[f]:
            if g not in color:
                color[g] = -color[f]
                queue.append(g)
            elif color[g] != -color[f]:
                raise DivideError("complementary regions are not 2-colorable")
    if set(color) != set(adj):
        raise DivideError("region adjacency graph is disconnected; coloring not unique")
    return color


# --- counting ------------------------------------------------------------------


def crossing_matrix(d: Divide) -> list[list[int]]:
    """Symmetric branch-by-branch crossing counts; diagonal holds
    self-crossings."""
    nb = len(d.branches)
    M = [[0] * nb for _ in range(nb)]
    for v in d.crossings:
        pas = d.passages.get(v, [])
        if len(pas) != 2:
            raise DivideError(f"crossing {v} has {len(pas)} strand passages")
        b1, b2 = pas[0][2], pas[1][2]
        if b1 == b2:
            M[b1][b1] += 1
        else:
            M[b1][b2] += 1
            M[b2][b1] += 1
    return M


@dataclass(frozen=True)
class CheckItem:
    name: str
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class CheckReport:
    items: tuple[CheckItem, ...]
    errors: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors and all(it.ok for it in self.items)


def check_against_type(d: Divide, s: SingularityType, assignment: dict) -> CheckReport:
    """Verify the crossing/region census of a divide against a singularity.

    ``assignment`` maps branch id to ("real", k) or ("pair", k).  Checks the
    total crossing count, per-branch self-crossings, pairwise crossing
    counts, and the inner region count.
    """
    errors: list[str] = []
    items: list[CheckItem] = []
    nb = len(d.branches)
    if set(assignment) != set(range(nb)):
        return CheckReport((), (f"assignment must cover branches 0..{nb - 1}",))
    reals_used = sorted(k for kind, k in assignment.values() if kind == "real")
    pairs_used = sorted(k for kind, k in assignment.values() if kind == "pair")
    if reals_used != list(range(s.re_br)) or pairs_used != list(range(s.im_br)):
        errors.append(
            f"assignment arity mismatch: needs {s.re_br} real and {s.im_br} pair slots, "
            f"got {reals_used} / {pairs_used}"
        )
    for bid, (kind, k) in assignment.items():
        closed = d.branches[bid].closed
        if kind == "real" and closed:
            errors.append(f"closed branch {bid} assigned to a real branch")
        if kind == "pair" and not closed:
            errors.append(f"open branch {bid} assigned to a conjugate pair")
    if errors:
        return CheckReport((), tuple(errors))

    # a branch's slots: one for a real branch, two for a conjugate pair
    slots = [[k] if kind == "real" else s.pair_slots(k) for kind, k in map(assignment.get, range(nb))]
    I = s.intersections
    M = crossing_matrix(d)
    total = sum(M[i][j] for i in range(nb) for j in range(i, nb))
    items.append(CheckItem("total crossings", expected_node_count(s), total))
    for bid, own in enumerate(slots):
        # the delta of the branch's slots, less one for a pair (nodes = delta - ImBr)
        expect = sum(branch_delta(s.slot_branch(a)) for a in own)
        expect += sum(I[a][c] for a, c in combinations(own, 2)) - (len(own) - 1)
        items.append(CheckItem(f"self-crossings branch {bid}", expect, M[bid][bid]))
    for i, j in combinations(range(nb), 2):
        expect = sum(I[a][c] for a in slots[i] for c in slots[j])
        items.append(CheckItem(f"crossings branches {i}x{j}", expect, M[i][j]))

    items.append(CheckItem("inner regions", expected_inner_regions(s), len(d.inner_faces)))
    return CheckReport(tuple(items), ())


# --- JSON ----------------------------------------------------------------------


def divide_to_json(d: Divide) -> dict:
    obj = {
        "crossings": len(d.crossings),
        "boundary": list(d.boundary),
        "branches": [{"closed": b.closed, "walk": list(b.walk)} for b in d.branches],
        "rotations": {str(v): list(rot) for v, rot in sorted(d.rotations.items())},
    }
    if d.outer_face is not None:
        obj["outer_face"] = d.outer_face
    return obj


def divide_from_json(obj: dict) -> Divide:
    try:
        d = Divide(
            [(b["closed"], b["walk"]) for b in obj["branches"]],
            {int(v): rot for v, rot in obj["rotations"].items()},
            obj.get("boundary", ()),
            obj.get("outer_face"),
        )
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed divide JSON: {exc}") from exc
    if "crossings" in obj and int(obj["crossings"]) != len(d.crossings):
        raise StructureError(
            f"crossings field {obj['crossings']} disagrees with rotation system ({len(d.crossings)})"
        )
    return d
