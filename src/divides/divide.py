"""Combinatorial divides: immersed curve systems in a disc.

A divide is stored as a planar map: edges 1..E with half-edges +-e, a
rotation system (counterclockwise outgoing half-edges per vertex) and the
cyclic list of boundary endpoints on the disc.  Crossings are the 4-valent
vertices; 2-valent vertices are transparent markers (needed to carry
crossing-free closed curves); 1-valent vertices are branch endpoints on the
disc boundary.

Construction refuses, with StructureError, every map that is not a
connected planar disc map: a valence outside {1, 2, 4}; half-edges that
are not +-e for e in 1..E, each at one vertex; a boundary vertex that is
missing, not 1-valent or listed twice; a 1-valent vertex off the boundary;
no boundary and no outer_face; and, once the boundary arcs are added, more
than one component or an Euler characteristic other than 2.

A branch is an immersed curve, so it goes straight through every crossing
and the rotation system fixes every branch walk.  The walks are derived
once: at a vertex of valence n a branch arriving in slot s leaves through
slot s + n/2 (mod n), and it ends at valence 1.  Open branches start from
rotations[v][0] for v in boundary order; closed branches start from +e,
the least unused edge first.

Faces are computed from the rotation system augmented with the boundary
arcs of the disc, so the complementary regions of the divide inside the
disc are honest faces of the map.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .singularity import SingularityType, integers, mapping


class StructureError(ValueError):
    """The data is not a connected planar disc map (see the module docstring)."""


@dataclass(frozen=True)
class Branch:
    closed: bool
    walk: tuple[int, ...]


class Divide:
    def __init__(self, rotations, boundary=(), outer_face=None):
        self.rotations: dict[int, tuple[int, ...]] = mapping(
            rotations, StructureError, integers, lambda rots, error: tuple(integers(rot, error) for rot in rots))
        self.boundary: tuple[int, ...] = integers(boundary, StructureError)
        self.outer_face: int | None = None if outer_face is None else integers((outer_face,), StructureError)[0]
        self._check_structure()

    # -- structural layer ---------------------------------------------------

    def _check_structure(self):
        on_boundary = set(self.boundary)
        seen_halves: dict[int, int] = {}
        for v, rot in self.rotations.items():
            if len(rot) not in (1, 2, 4):
                raise StructureError(f"vertex {v} has valence {len(rot)}")
            if len(rot) == 1 and v not in on_boundary:
                raise StructureError(f"1-valent vertex {v} is not on the boundary")
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

        for v in self.boundary:
            if len(self.rotations.get(v, ())) != 1:
                raise StructureError(f"boundary vertex {v} is missing or not 1-valent")
        if len(on_boundary) != len(self.boundary):
            raise StructureError("boundary lists a vertex twice")
        if not self.boundary and self.outer_face is None:
            raise StructureError("boundary-free divide needs an outer_face marker")
        if self.outer_face is not None and self.outer_face not in seen_halves:
            raise StructureError(f"outer_face marker {self.outer_face} is not a half-edge")

        # the augmented map is one planar map: connected, Euler characteristic 2
        rot, origin = self._augmented
        reached, stack = set(), [min(rot)]
        while stack:
            v = stack.pop()
            if v not in reached:
                reached.add(v)
                stack += [origin[-h] for h in rot[v]]
        if len(reached) != len(rot):
            raise StructureError(f"map is disconnected: {len(rot) - len(reached)} of {len(rot)} vertices unreached")
        euler = len(rot) - self._n_edges - len(self.boundary) + len(self.faces)
        if euler != 2:
            raise StructureError(f"Euler characteristic {euler} != 2")

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
    def branches(self) -> tuple[Branch, ...]:
        """The branch walks the rotation system fixes (see the module docstring)."""

        def branch(h0):
            walk = [h0]
            while True:
                rot = self.rotations[self.head(walk[-1])]
                n = len(rot)
                if n == 1:
                    return Branch(False, tuple(walk))
                h = rot[(rot.index(-walk[-1]) + n // 2) % n]
                if h == h0:
                    return Branch(True, tuple(walk))
                walk.append(h)

        starts = [self.rotations[v][0] for v in self.boundary]
        used: set[int] = set()
        out = []
        for h0 in starts + list(range(1, self._n_edges + 1)):
            if abs(h0) not in used:
                out.append(branch(h0))
                used.update(abs(h) for h in out[-1].walk)
        return tuple(out)

    @cached_property
    def branch_of_edge(self) -> dict[int, int]:
        out = {}
        for bid, br in enumerate(self.branches):
            for h in br.walk:
                out[abs(h)] = bid
        return out

    # -- faces ----------------------------------------------------------------

    @cached_property
    def _augmented(self):
        """Rotation system and half-edge origins with the disc boundary arcs
        (arc_ids) added."""
        rot, origin = dict(self.rotations), dict(self._origin)
        arcs = self.arc_ids
        for k, v in enumerate(self.boundary):
            # ccw order at a point of the ccw-oriented circle: forward arc,
            # inward curve edge, backward arc
            rot[v] = (arcs[k], self.rotations[v][0], -arcs[k - 1])
            origin[arcs[k]] = origin[-arcs[k - 1]] = v
        return rot, origin

    @cached_property
    def arc_ids(self) -> tuple[int, ...]:
        """Arc k of the disc boundary, running from boundary[k] to
        boundary[k+1] along the counterclockwise circle, is edge E+1+k."""
        return tuple(range(self._n_edges + 1, self._n_edges + 1 + len(self.boundary)))

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        # left-face orbits: continue through the clockwise-next outgoing
        # half-edge after the twin (rotations are counterclockwise).  Each
        # orbit starts at its least half-edge in (|h|, h < 0) order, so the
        # orbits come out sorted by it
        rot, _ = self._augmented
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
        return tuple(orbits)

    @cached_property
    def face_of(self) -> dict[int, int]:
        out = {}
        for fid, orbit in enumerate(self.faces):
            for h in orbit:
                out[h] = fid
        return out

    @cached_property
    def outside_face(self) -> int:
        """Face beyond the disc boundary (or the designated boundary-touching
        face when there are no endpoints)."""
        if self.boundary:
            return self.face_of[-self.arc_ids[0]]
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


def validate(d: Divide) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of branches that never cross.  Every two
    branches of a singularity's divide cross; this is the one such property
    that construction, which checks the planar map, leaves open."""
    M = crossing_matrix(d)
    return [(i, j) for i, j in combinations(range(len(d.branches)), 2) if M[i][j] == 0]


# --- two-coloring --------------------------------------------------------------


def two_coloring(d: Divide) -> dict[int, int]:
    """Checkerboard coloring of the complementary regions: face id -> +1/-1.

    Canonical choice: with endpoints, the region left of the first
    boundary arc gets +1; for a boundary-free divide the designated
    boundary-touching region gets -1.

    Construction makes this always possible and unique.  Every vertex
    inside the disc has even valence, and with the rim collapsed to one
    point, that point has valence 2 * (open branches).  So the regions are
    the faces of a connected planar map with only even valences: they have
    a checkerboard coloring, and their adjacency graph is connected.
    """
    # from a region, each curve half-edge of its orbit leads across to the
    # next; only boundary arcs reach the face beyond the disc, so it is
    # never entered
    if d.boundary:
        anchor, anchor_color = d.face_of[d.arc_ids[0]], 1
    else:
        anchor, anchor_color = d.outside_face, -1
    color = {anchor: anchor_color}
    queue = [anchor]
    while queue:
        f = queue.pop()
        for h in d.faces[f]:
            g = d.face_of[-h]
            if abs(h) <= d.n_edges and g not in color:
                color[g] = -color[f]
                queue.append(g)
    return color


# --- counting ------------------------------------------------------------------


def crossing_matrix(d: Divide) -> list[list[int]]:
    """Symmetric branch-by-branch crossing counts; diagonal holds
    self-crossings.  The strands through a crossing hold its slots 0, 2
    and 1, 3."""
    nb = len(d.branches)
    M = [[0] * nb for _ in range(nb)]
    for v in d.crossings:
        rot = d.rotations[v]
        b1, b2 = d.branch_of_edge[abs(rot[0])], d.branch_of_edge[abs(rot[1])]
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
    items.append(CheckItem("total crossings", s.expected_nodes, total))
    for bid, own in enumerate(slots):
        # the delta of the branch's slots, less one for a pair (nodes = delta - ImBr)
        expect = sum(s.slot_branch(a).delta for a in own)
        expect += sum(I[a][c] for a, c in combinations(own, 2)) - (len(own) - 1)
        items.append(CheckItem(f"self-crossings branch {bid}", expect, M[bid][bid]))
    for i, j in combinations(range(nb), 2):
        expect = sum(I[a][c] for a in slots[i] for c in slots[j])
        items.append(CheckItem(f"crossings branches {i}x{j}", expect, M[i][j]))

    items.append(CheckItem("inner regions", s.expected_inner_regions, len(d.inner_faces)))
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
    """The divide of a divide_to_json object; the stored crossing count and
    branch walks, where present, must be those of the rotation system."""
    try:
        rotations = {int(v): rot for v, rot in obj["rotations"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed divide JSON: {exc}") from exc
    d = Divide(rotations, obj.get("boundary", ()), obj.get("outer_face"))
    written = divide_to_json(d)
    for key in ("crossings", "branches"):
        if key in obj and obj[key] != written[key]:
            raise StructureError(f"{key} field {obj[key]} disagrees with the rotation system ({written[key]})")
    return d
