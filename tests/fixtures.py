"""Hand-encoded divides used across the test suite, and the benchmark's
fixed family set.

Rotation systems are counterclockwise; edge e runs tail -> head as +e.
"""
import json
import os

from divides.divide import Divide, divide_from_json
from divides.families import (
    family_ellipse_composition,
    family_one_puiseux_pair,
    family_parabola_pair,
    family_semiquasi_pp,
    family_smooth_conjugate,
)


def ellipse_composition():
    parts = [family_smooth_conjugate([{2: 1}], (0, 1)), family_smooth_conjugate([{2: -1}], (1, 1))]
    return family_ellipse_composition(parts, [1.0, 1.6])


# the benchmark's fixed family set
HANDPICKED = {
    "parabola-pair-3": lambda: family_parabola_pair(3),
    "smooth-conjugate": lambda: family_smooth_conjugate([{2: 1}, {2: -1}]),
    "one-pair-3-4": lambda: family_one_puiseux_pair(3, 4, 1),
    "ellipse-composition": ellipse_composition,
    "semiquasi": lambda: family_semiquasi_pp([(1, 0), (0, 1)], [(1, 0, 2), (2, 0, 1)], [1, 1]),
}


def circle_divide():
    """One crossing-free closed curve (traversed counterclockwise); a
    marker vertex carries the rotation."""
    return Divide(
        rotations={0: [1, -1]},
        boundary=[],
        outer_face=-1,
    )


def figure_eight_divide():
    """One closed branch with a single self-crossing."""
    return Divide(
        rotations={0: [-1, -2, 2, 1]},
        boundary=[],
        outer_face=-1,
    )


def node_divide():
    """Two straight segments crossing once.

    Endpoints sit at E(2), N(4), W(1), S(3) on the boundary circle.
    """
    return Divide(
        rotations={
            0: [2, 4, -1, -3],
            1: [1],
            2: [-2],
            3: [3],
            4: [-4],
        },
        boundary=[2, 4, 1, 3],
    )


def cusp_divide():
    """One open branch with a single loop: the ordinary-cusp divide."""
    return Divide(
        rotations={
            0: [-1, -2, 2, 3],
            1: [1],
            2: [-3],
        },
        boundary=[1, 2],
    )


def two_parabolas_divide():
    """Two smooth arcs crossing twice (a tangency pair morsified);
    boundary word (1,1,2,2)."""
    return Divide(
        rotations={
            0: [-1, -4, 2, 5],
            1: [3, -5, -2, 6],
            2: [1],
            3: [-3],
            4: [4],
            5: [-6],
        },
        boundary=[3, 2, 4, 5],
    )


def two_cusps_divide():
    """A traced morsification of two ordinary cusps meeting with
    intersection 6: 8 crossings, 7 inner regions."""
    with open(os.path.join(os.path.dirname(__file__), "data", "two_cusps_divide.json")) as fh:
        return divide_from_json(json.load(fh))


def segment_divide():
    """One crossing-free segment across the disc: no crossing, no inner region."""
    return Divide({0: [1], 1: [-1]}, [0, 1])


def split_edge(d: Divide, e: int) -> Divide:
    """d with a 2-valent marker in the middle of edge e: e now ends at the
    marker and a new last edge runs on from it to e's old head."""
    n, m = d.n_edges + 1, max(d.rotations) + 1
    rotations = {v: [-n if h == -e else h for h in rot] for v, rot in d.rotations.items()}
    rotations[m] = [-e, n]
    return Divide(rotations, d.boundary, d.outer_face)
