import pytest

from divides.divide import (
    Branch,
    Divide,
    StructureError,
    check_against_type,
    crossing_matrix,
    divide_from_json,
    divide_to_json,
    two_coloring,
    validate,
)
from divides.families import family_semiquasi_pp
from divides.singularity import BranchType, SingularityType
from divides.tracing import trace_divide

from fixtures import (
    circle_divide,
    cusp_divide,
    figure_eight_divide,
    node_divide,
    segment_divide,
    split_edge,
    two_cusps_divide,
    two_parabolas_divide,
)
from oracles import assert_canonical_branch_order, assert_faces_sorted


SMOOTH = BranchType((1,))
CUSP = BranchType((2, 3))
FIXTURES = (
    circle_divide,
    figure_eight_divide,
    node_divide,
    cusp_divide,
    two_parabolas_divide,
    two_cusps_divide,
    segment_divide,
)


class TestStructure:
    def test_rotations_that_are_no_dict(self):
        # leaked AttributeError from rotations.values() before
        with pytest.raises(StructureError, match="expected a mapping"):
            Divide([], [])

    def test_duplicate_half_edge(self):
        with pytest.raises(StructureError):
            Divide({0: [1, 1, -1, -1]}, [], -1)

    @pytest.mark.parametrize(
        "rotations, boundary",
        [
            ({0: [1, 2, 3], 1: [-1], 2: [-2], 3: [-3]}, [1, 2, 3]),
            ({0: [1, -1]}, [0]),
            ({0: [1], 1: [-1]}, [0, 2]),
            ({0: [1], 1: [-1]}, [0, 1, 0]),
        ],
        ids=["three-valent", "two-valent-boundary", "missing-boundary", "repeated-boundary"],
    )
    def test_underivable_walks_rejected(self, rotations, boundary):
        with pytest.raises(StructureError):
            Divide(rotations, boundary)

    # a slot left empty keeps the id 0, and a slot written twice loses the
    # half-edge written first: the tracer leaves both to these checks
    def test_empty_slot(self):
        with pytest.raises(StructureError, match="half-edge id 0 at vertex 0"):
            Divide({0: [2, 4, -1, 0], 1: [1], 2: [-2], 3: [-3], 4: [-4]}, [2, 4, 1, 3])

    def test_lost_half_edge(self):
        with pytest.raises(StructureError, match="edge 3 is missing one of its half-edges"):
            Divide({0: [2, 4, -1, 3], 1: [1], 2: [-2], 4: [-4]}, [2, 4, 1])

    def test_json_roundtrip_bit_exact(self):
        import json

        for d in (circle_divide(), figure_eight_divide(), node_divide(), cusp_divide()):
            blob = json.dumps(divide_to_json(d), sort_keys=True)
            d2 = divide_from_json(json.loads(blob))
            assert json.dumps(divide_to_json(d2), sort_keys=True) == blob

    def test_json_crossings_consistency(self):
        obj = divide_to_json(node_divide())
        obj["crossings"] = 7
        with pytest.raises(StructureError):
            divide_from_json(obj)

    def test_json_branches_consistency(self):
        obj = divide_to_json(node_divide())
        obj["branches"][0]["walk"] = [1, 2]
        with pytest.raises(StructureError):
            divide_from_json(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [({"rotations": []}, "malformed divide JSON"),
         ({"rotations": {"a": [1, -1]}, "outer_face": -1}, "malformed divide JSON"),
         # the Divide reads its ids itself: the reader parses only the text keys
         ({"rotations": {"0": ["x", -1]}, "outer_face": -1}, r"expected an integer sequence, got \('x', -1\)")],
        ids=["list", "vertex-key", "half-edge"],
    )
    def test_json_malformed(self, obj, message):
        with pytest.raises(StructureError, match=message):
            divide_from_json(obj)

    def test_json_keeps_the_structure_message(self):
        with pytest.raises(StructureError, match="^vertex 0 has valence 3$"):
            divide_from_json({"rotations": {"0": [1, -1, 2]}, "outer_face": -1})


class TestBranchWalks:
    def test_derived_walks(self):
        assert [br.walk for br in node_divide().branches] == [(-2, -1), (-4, -3)]
        assert [br.walk for br in two_parabolas_divide().branches] == [(-3, -2, -1), (4, 5, 6)]
        assert [br.walk for br in figure_eight_divide().branches] == [(1, 2)]

    @pytest.mark.parametrize("make", FIXTURES, ids=lambda make: make.__name__)
    def test_fixtures_and_their_split_edges(self, make):
        d = make()
        assert_canonical_branch_order(d)
        assert_faces_sorted(d)
        n = d.n_edges + 1
        for e in range(1, n):
            split = split_edge(d, e)
            assert_canonical_branch_order(split)
            assert_faces_sorted(split)
            # the walks pass the new marker straight through
            expect = [
                (br.closed, sum(([e, n] if h == e else [-n, -e] if h == -e else [h] for h in br.walk), []))
                for br in d.branches
            ]
            assert [(br.closed, list(br.walk)) for br in split.branches] == expect, e


class TestValidate:
    def test_valid_fixtures(self):
        for d in (
            circle_divide(),
            figure_eight_divide(),
            node_divide(),
            cusp_divide(),
            two_parabolas_divide(),
        ):
            assert validate(d) == []

    def test_parallel_chords_never_cross(self):
        # two chords with boundary word (1, 1, 2, 2): a disc map whose
        # branches do not cross
        d = Divide({0: [1], 1: [-1], 2: [2], 3: [-2]}, [0, 1, 3, 2])
        assert validate(d) == [(0, 1)]

    # the map checks of construction, one test per refusal
    def test_boundary_mismatch(self):
        # an arc with both ends 1-valent, only one of them on the boundary
        with pytest.raises(StructureError, match="1-valent vertex 1 is not on the boundary"):
            Divide({0: [1], 1: [-1]}, [0])

    def test_missing_outer_face(self):
        with pytest.raises(StructureError, match="boundary-free divide needs an outer_face marker"):
            Divide({0: [1, -1]}, [])

    def test_disjoint_circles_flagged(self):
        # two crossing-free closed curves
        with pytest.raises(StructureError, match="map is disconnected: 1 of 2 vertices unreached"):
            Divide({0: [1, -1], 1: [2, -2]}, [], -1)

    def test_non_planar(self):
        # two loops at one vertex, interleaved in its rotation: a torus map
        with pytest.raises(StructureError, match="Euler characteristic 0 != 2"):
            Divide({0: [1, 2, -1, -2]}, [], 1)

    def test_crossing_without_passages_reported(self):
        # two edges looped at one four-valent vertex cannot each be a branch
        # that misses the crossing: going straight through it joins them into
        # one closed branch that passes it twice
        d = divide_from_json({"rotations": {"0": [1, -1, 2, -2]}, "outer_face": -1})
        assert d.branches == (Branch(True, (1, -2)),)
        assert crossing_matrix(d) == [[1]]
        assert validate(d) == []

    def test_euler_count_on_fixtures(self):
        d = node_divide()
        V = len(d.rotations)
        E = d.n_edges + len(d.arc_ids)
        assert V - E + len(d.faces) == 2


class TestFaces:
    def test_circle_faces(self):
        d = circle_divide()
        assert len(d.faces) == 2
        assert len(d.inner_faces) == 1

    def test_figure_eight_faces(self):
        d = figure_eight_divide()
        assert len(d.faces) == 3
        assert len(d.inner_faces) == 2

    def test_node_faces(self):
        d = node_divide()
        # four quadrants plus the outside
        assert len(d.faces) == 5
        assert d.inner_faces == ()

    def test_cusp_faces(self):
        d = cusp_divide()
        assert len(d.faces) == 4
        assert len(d.inner_faces) == 1

    def test_outside_face_is_pure_arcs(self):
        for d in (node_divide(), cusp_divide(), two_parabolas_divide()):
            arcs = set(d.arc_ids)
            orbit = d.faces[d.outside_face]
            assert all(-h in arcs for h in orbit)


class TestColoring:
    def test_circle(self):
        d = circle_divide()
        col = two_coloring(d)
        inner = list(d.inner_faces)
        outer = [f for f in col if f not in inner]
        assert len(inner) == 1 and len(outer) == 1
        assert col[inner[0]] != col[outer[0]]
        assert col[outer[0]] == -1

    def test_figure_eight_loops_same_color(self):
        d = figure_eight_divide()
        col = two_coloring(d)
        loops = d.inner_faces
        assert len(loops) == 2
        assert col[loops[0]] == col[loops[1]]

    def test_anchor_is_plus_one(self):
        d = cusp_divide()
        col = two_coloring(d)
        anchor = d.face_of[d.arc_ids[0]]
        assert col[anchor] == 1

    def test_adjacent_faces_differ(self):
        # every region is colored and adjacent regions differ, on every
        # fixture and every fixture with a marker splitting one edge
        for d in (make() for make in FIXTURES):
            for split in [d] + [split_edge(d, e) for e in range(1, d.n_edges + 1)]:
                col = two_coloring(split)
                outside = split.outside_face if split.boundary else None
                assert set(col) == set(range(len(split.faces))) - {outside}
                for e in range(1, split.n_edges + 1):
                    f1, f2 = split.face_of[e], split.face_of[-e]
                    if f1 != f2:
                        assert col[f1] != col[f2]


class TestCrossingMatrix:
    def test_figure_eight_diagonal(self):
        assert crossing_matrix(figure_eight_divide()) == [[1]]

    def test_node(self):
        assert crossing_matrix(node_divide()) == [[0, 1], [1, 0]]

    def test_two_parabolas(self):
        assert crossing_matrix(two_parabolas_divide()) == [[0, 2], [2, 0]]


class TestCheckAgainstType:
    def node_type(self):
        return SingularityType((SMOOTH, SMOOTH), (), ((0, 1), (1, 0)))

    def test_node_divide_passes(self):
        rep = check_against_type(
            node_divide(), self.node_type(), {0: ("real", 0), 1: ("real", 1)}
        )
        assert rep.ok, rep

    def test_figure_eight_against_node_fails(self):
        rep = check_against_type(
            figure_eight_divide(), self.node_type(), {0: ("real", 0)}
        )
        assert not rep.ok

    def test_cusp_divide_against_cusp(self):
        s = SingularityType((CUSP,), ())
        rep = check_against_type(cusp_divide(), s, {0: ("real", 0)})
        assert rep.ok, rep

    def test_parabolas_against_tangent_pair(self):
        s = SingularityType((SMOOTH, SMOOTH), (), ((0, 2), (2, 0)))
        rep = check_against_type(
            two_parabolas_divide(), s, {0: ("real", 0), 1: ("real", 1)}
        )
        assert rep.ok, rep

    def test_wrong_intersection_detected(self):
        s = SingularityType((SMOOTH, SMOOTH), (), ((0, 3), (3, 0)))
        rep = check_against_type(
            two_parabolas_divide(), s, {0: ("real", 0), 1: ("real", 1)}
        )
        assert not rep.ok


class TestCheckPairSlots:
    """Census items of branches assigned to conjugate pairs."""

    # one smooth conjugate pair meeting its mirror transversally
    pair = SingularityType((), (SMOOTH,), ((0, 1), (1, 0)))

    def test_circle_against_smooth_pair(self):
        rep = check_against_type(circle_divide(), self.pair, {0: ("pair", 0)})
        assert rep.ok, rep

    def test_figure_eight_against_smooth_pair(self):
        rep = check_against_type(figure_eight_divide(), self.pair, {0: ("pair", 0)})
        assert not rep.ok

    @pytest.mark.parametrize(
        "lines, quadrics, levels, expected",
        [
            # a line through an ellipse: real x pair
            ([(1, 0)], [(1, 0, 1)], [1], [
                ("total crossings", 2),
                ("self-crossings branch 0", 0),
                ("self-crossings branch 1", 0),
                ("crossings branches 0x1", 2),
                ("inner regions", 2),
            ]),
            # two ellipses meeting in four points: pair x pair
            ([], [(1, 0, 2), (2, 0, 1)], [1, 1], [
                ("total crossings", 4),
                ("self-crossings branch 0", 0),
                ("self-crossings branch 1", 0),
                ("crossings branches 0x1", 4),
                ("inner regions", 5),
            ]),
        ],
        ids=["line-ellipse", "two-ellipses"],
    )
    def test_traced_semiquasi(self, lines, quadrics, levels, expected):
        family = family_semiquasi_pp(lines, quadrics, levels)
        d = trace_divide(family).divide
        assignment = {k: ("real", k) for k in range(len(lines))}
        assignment.update({len(lines) + k: ("pair", k) for k in range(len(quadrics))})
        rep = check_against_type(d, family.singularity, assignment)
        assert [(it.name, it.expected) for it in rep.items] == expected
        assert rep.ok, rep


class TestEulerInequality:
    def test_on_fixtures(self):
        cases = [
            (circle_divide(), 0),
            (figure_eight_divide(), 0),
            (node_divide(), 2),
            (cusp_divide(), 1),
            (two_parabolas_divide(), 2),
        ]
        for d, re_br in cases:
            h = len(d.inner_faces)
            sing = len(d.crossings)
            assert h - (2 * sing - re_br) + sing >= 1
