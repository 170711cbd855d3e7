import pytest

from divides.alexander import conj_pair_singularity, enumerate_conj_pair_types
from divides.singularity import (
    BranchType,
    InvalidSingularity,
    SingularityType,
    branch_delta,
    delta_total,
    expected_inner_regions,
    expected_node_count,
    invariants_report,
    milnor_number,
    multiplicity_sequence,
    singularity_from_json,
    singularity_to_json,
    total_multiplicity,
)

from fixtures import HANDPICKED
from oracles import blowup_delta, blowup_multiplicity_sequence, delta_conductor, small_branch_grid


SMOOTH = BranchType((1,))
CUSP = BranchType((2, 3))


def table(n, fill):
    return tuple(tuple(0 if i == j else fill for j in range(n)) for i in range(n))


def node_type():
    return SingularityType((SMOOTH, SMOOTH), (), table(2, 1))


def conj_cusp_pair():
    # pair of conjugate cuspidal branches with (Q.Qbar) = 4
    return SingularityType((), (CUSP,), table(2, 4))


class TestBranchValidation:
    def test_smooth_ok(self):
        assert SMOOTH.is_smooth
        assert SMOOTH.multiplicity == 1

    def test_rejects_smooth_with_extra_exponents(self):
        with pytest.raises(InvalidSingularity):
            BranchType((1, 3))

    def test_rejects_non_increasing(self):
        with pytest.raises(InvalidSingularity):
            BranchType((4, 4))
        with pytest.raises(InvalidSingularity):
            BranchType((4, 3))

    def test_rejects_divisible_exponent(self):
        with pytest.raises(InvalidSingularity):
            BranchType((2, 4))
        with pytest.raises(InvalidSingularity):
            BranchType((4, 6, 8))  # 8 divisible by gcd(4,6)=2

    def test_rejects_open_gcd_chain(self):
        with pytest.raises(InvalidSingularity):
            BranchType((4, 6))  # gcd chain ends at 2

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidSingularity):
            BranchType((0,))


class TestMultiplicitySequence:
    def test_smooth(self):
        assert multiplicity_sequence(SMOOTH) == [1]

    def test_cusp(self):
        # hand blow-up of y^2 = x^3: multiplicities 2, 1, 1
        assert multiplicity_sequence(CUSP) == [2, 1, 1]

    def test_two_pair_example(self):
        seq = multiplicity_sequence(BranchType((4, 6, 7)))
        assert seq == blowup_multiplicity_sequence((4, 6, 7))
        assert sum(m * (m - 1) // 2 for m in seq) == 8

    def test_non_increasing_and_first_entry(self):
        for exps in small_branch_grid():
            b = BranchType(exps)
            seq = multiplicity_sequence(b)
            assert seq[0] == exps[0]
            assert all(x >= y for x, y in zip(seq, seq[1:]))
            assert seq[-1] == 1 or len(seq) == 1

    def test_matches_blowup_oracle_on_grid(self):
        for exps in small_branch_grid():
            assert multiplicity_sequence(BranchType(exps)) == blowup_multiplicity_sequence(exps), exps


class TestBranchDelta:
    def test_values(self):
        assert branch_delta(SMOOTH) == 0
        assert branch_delta(CUSP) == 1

    def test_matches_blowup_oracle_on_grid(self):
        for exps in small_branch_grid():
            b = BranchType(exps)
            assert branch_delta(b) == blowup_delta(exps), exps

    def test_matches_conductor_formula_on_grid(self):
        for exps in small_branch_grid():
            assert branch_delta(BranchType(exps)) == delta_conductor(exps), exps


class TestSingularityValidation:
    def test_rejects_empty(self):
        with pytest.raises(InvalidSingularity):
            SingularityType((), ())

    def test_rejects_asymmetric_table(self):
        bad = ((0, 1), (2, 0))
        with pytest.raises(InvalidSingularity):
            SingularityType((SMOOTH, SMOOTH), (), bad)

    def test_rejects_conjugation_asymmetry(self):
        # slots: P, Q, Qbar -- (P.Q) must equal (P.Qbar)
        bad = (
            (0, 1, 2),
            (1, 0, 1),
            (2, 1, 0),
        )
        with pytest.raises(InvalidSingularity):
            SingularityType((SMOOTH,), (SMOOTH,), bad)

    def test_rejects_below_multiplicity_bound(self):
        # cuspidal pair: (Q.Qbar) >= mt*mt = 4
        with pytest.raises(InvalidSingularity):
            SingularityType((), (CUSP,), table(2, 3))

    def test_single_smooth_branch(self):
        s = SingularityType((SMOOTH,), ())
        assert delta_total(s) == 0
        assert milnor_number(s) == 0


class TestInvariants:
    def test_node(self):
        s = node_type()
        assert delta_total(s) == 1
        assert milnor_number(s) == 1
        assert expected_node_count(s) == 1
        assert expected_inner_regions(s) == 0

    def test_conjugate_cusp_pair(self):
        s = conj_cusp_pair()
        assert delta_total(s) == 6
        assert milnor_number(s) == 11
        # (p-1)(p+q) with p=2, q=3
        assert expected_node_count(s) == 5
        assert expected_inner_regions(s) == 6

    def test_smooth_conjugate_pair_transversal(self):
        s = SingularityType((), (SMOOTH,), table(2, 1))
        assert delta_total(s) == 1
        assert expected_node_count(s) == 0
        assert milnor_number(s) == 1

    def test_ordinary_cusp(self):
        s = SingularityType((CUSP,), ())
        assert milnor_number(s) == 2
        assert expected_node_count(s) == 1
        assert expected_inner_regions(s) == 1

    def test_milnor_identity_on_samples(self):
        samples = [
            node_type(),
            conj_cusp_pair(),
            SingularityType((CUSP,), ()),
            SingularityType((SMOOTH,), (SMOOTH,), ((0, 1, 1), (1, 0, 1), (1, 1, 0))),
            SingularityType((), (SMOOTH, SMOOTH), (
                (0, 1, 2, 1),
                (1, 0, 1, 2),
                (2, 1, 0, 1),
                (1, 2, 1, 0),
            )),
        ]
        for s in samples:
            assert milnor_number(s) == expected_node_count(s) + expected_inner_regions(s)

    def test_total_multiplicity(self):
        assert total_multiplicity(conj_cusp_pair()) == 4
        assert total_multiplicity(node_type()) == 2


class TestJson:
    def test_roundtrip(self):
        s = conj_cusp_pair()
        assert singularity_from_json(singularity_to_json(s)) == s

    def test_mirror_autofill(self):
        obj = {
            "real_branches": [{"char_exponents": [1]}],
            "conj_pairs": [{"char_exponents": [1]}],
            # give only (P.Q); (P.Qbar) follows by conjugation symmetry
            "intersections": {"0,1": 1, "1,2": 1},
        }
        s = singularity_from_json(obj)
        assert s.intersections[0][2] == 1

    def test_conflicting_mirror_entries(self):
        obj = {
            "real_branches": [{"char_exponents": [1]}],
            "conj_pairs": [{"char_exponents": [1]}],
            "intersections": {"0,1": 1, "0,2": 2, "1,2": 1},
        }
        with pytest.raises(InvalidSingularity):
            singularity_from_json(obj)

    def test_missing_entry(self):
        obj = {
            "real_branches": [{"char_exponents": [1]}, {"char_exponents": [1]}],
            "conj_pairs": [],
            "intersections": {},
        }
        with pytest.raises(InvalidSingularity):
            singularity_from_json(obj)

    def test_empty_branch_list(self):
        with pytest.raises(InvalidSingularity):
            singularity_from_json({"real_branches": [], "conj_pairs": [], "intersections": {}})

    def test_report_fields(self):
        rep = invariants_report(node_type())
        assert rep["delta"] == 1 and rep["expected_nodes"] == 1
        assert len(rep["branches"]) == 2


def assert_report_matches_functions(s):
    rep = invariants_report(s)
    assert rep["multiplicity"] == total_multiplicity(s)
    assert rep["delta"] == delta_total(s)
    assert rep["milnor"] == milnor_number(s)
    assert (rep["re_br"], rep["im_br"]) == (s.re_br, s.im_br)
    assert rep["expected_nodes"] == expected_node_count(s)
    assert rep["expected_inner_regions"] == expected_inner_regions(s)
    branches = [s.slot_branch(k) for k in range(s.slot_count)]
    assert [b["multiplicity_sequence"] for b in rep["branches"]] == [multiplicity_sequence(b) for b in branches]
    assert [b["delta"] for b in rep["branches"]] == [branch_delta(b) for b in branches]


class TestReportAgainstFunctions:
    """invariants_report computes delta once and derives the counts from it;
    every field must equal the function that computes it alone."""

    def test_conj_pair_types(self):
        types = list(enumerate_conj_pair_types(3, 4, 25))
        assert len(types) == 2127
        for T in types:
            assert_report_matches_functions(conj_pair_singularity(T))

    @pytest.mark.parametrize(
        "s",
        [
            node_type(),
            SingularityType((CUSP,), ()),
            SingularityType((CUSP, CUSP), (), table(2, 6)),
            SingularityType((SMOOTH,), (SMOOTH,), table(3, 1)),
            SingularityType((SMOOTH,), (CUSP,), ((0, 2, 2), (2, 0, 4), (2, 4, 0))),
        ],
        ids=["node", "cusp", "two-cusps", "line-and-pair", "line-and-cusp-pair"],
    )
    def test_types_with_real_branches(self, s):
        assert_report_matches_functions(s)

    @pytest.mark.parametrize("name", sorted(HANDPICKED))
    def test_family_singularities(self, name):
        assert_report_matches_functions(HANDPICKED[name]().singularity)
