import math
from fractions import Fraction

import numpy as np
import pytest

from divides.alexander import (
    ConjPairType,
    CycloVector,
    FactorForm,
    InvalidConjPair,
    alexander_encode,
    conj_pair_singularity,
    enumerate_conj_pair_types,
    to_cyclotomic,
)
from divides.divide import Divide, StructureError
from divides.families import (
    FamilyError,
    chebyshev_like,
    family_ellipse_composition,
    family_from_expression,
    family_one_puiseux_pair,
    family_parabola_pair,
    family_semiquasi_pp,
    family_smooth_conjugate,
)
from divides.singularity import (
    BranchType,
    InvalidSingularity,
    SingularityType,
    invariants_report,
    singularity_from_json,
    singularity_to_json,
)
from divides.tracing import TraceError, trace_divide, trace_with_retries

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
        assert list(SMOOTH.multiplicity_sequence) == [1]

    def test_cusp(self):
        # hand blow-up of y^2 = x^3: multiplicities 2, 1, 1
        assert list(CUSP.multiplicity_sequence) == [2, 1, 1]

    def test_two_pair_example(self):
        seq = list(BranchType((4, 6, 7)).multiplicity_sequence)
        assert seq == blowup_multiplicity_sequence((4, 6, 7))
        assert sum(m * (m - 1) // 2 for m in seq) == 8

    def test_non_increasing_and_first_entry(self):
        for exps in small_branch_grid():
            b = BranchType(exps)
            seq = list(b.multiplicity_sequence)
            assert seq[0] == exps[0]
            assert all(x >= y for x, y in zip(seq, seq[1:]))
            assert seq[-1] == 1 or len(seq) == 1

    def test_matches_blowup_oracle_on_grid(self):
        for exps in small_branch_grid():
            assert list(BranchType(exps).multiplicity_sequence) == blowup_multiplicity_sequence(exps), exps


class TestBranchDelta:
    def test_values(self):
        assert SMOOTH.delta == 0
        assert CUSP.delta == 1

    def test_matches_blowup_oracle_on_grid(self):
        for exps in small_branch_grid():
            b = BranchType(exps)
            assert b.delta == blowup_delta(exps), exps

    def test_matches_conductor_formula_on_grid(self):
        for exps in small_branch_grid():
            assert BranchType(exps).delta == delta_conductor(exps), exps


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
        assert s.delta == 0
        assert s.milnor == 0

    def test_rejects_a_branch_that_is_no_branch_type(self):
        # the exponents alone leaked AttributeError before
        with pytest.raises(InvalidSingularity, match="BranchType"):
            SingularityType((2,), (), ())

    @pytest.mark.parametrize("fields", [(5, ()), ((SMOOTH,), (), 5)], ids=["branches", "intersections"])
    def test_rejects_fields_that_are_not_sequences(self, fields):
        # each leaked TypeError before
        with pytest.raises(InvalidSingularity, match="expected a sequence"):
            SingularityType(*fields)


class TestInvariants:
    def test_node(self):
        s = node_type()
        assert s.delta == 1
        assert s.milnor == 1
        assert s.expected_nodes == 1
        assert s.expected_inner_regions == 0

    def test_conjugate_cusp_pair(self):
        s = conj_cusp_pair()
        assert s.delta == 6
        assert s.milnor == 11
        # (p-1)(p+q) with p=2, q=3
        assert s.expected_nodes == 5
        assert s.expected_inner_regions == 6

    def test_smooth_conjugate_pair_transversal(self):
        s = SingularityType((), (SMOOTH,), table(2, 1))
        assert s.delta == 1
        assert s.expected_nodes == 0
        assert s.milnor == 1

    def test_ordinary_cusp(self):
        s = SingularityType((CUSP,), ())
        assert s.milnor == 2
        assert s.expected_nodes == 1
        assert s.expected_inner_regions == 1

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
            assert s.milnor == s.expected_nodes + s.expected_inner_regions

    def test_multiplicity(self):
        assert conj_cusp_pair().multiplicity == 4
        assert node_type().multiplicity == 2


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

    @pytest.mark.parametrize(
        "obj",
        [
            {"real_branches": [{"char_exponents": [2.9, 3.2]}]},
            {"real_branches": [{"char_exponents": [1]}] * 2, "intersections": {"0,1": 2.7}},
            {"real_branches": [{"char_exponents": [1]}] * 2, "intersections": {"0,1": True}},
            {"real_branches": [{"char_exponents": [1]}] * 2, "intersections": {"0,1": None}},
        ],
        ids=["float-exponents", "float-value", "bool-value", "null-value"],
    )
    def test_rejects_non_integers(self, obj):
        # read as int(), the first three were the cusp (2, 3), a tangency 2
        # and a node; a null was reported as a missing entry
        with pytest.raises(InvalidSingularity, match="expected an integer"):
            singularity_from_json(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            ([], "a singularity type is a JSON object"),
            ({"intersections": []}, "intersections must be an object"),
            ({"intersections": "0,1"}, "intersections must be an object"),
            ({"real_branches": [{"char_exponents": [1]}] * 2, "intersections": {1: 1}}, "bad intersection key 1"),
        ],
        ids=["top-level-list", "list", "string", "int-key"],
    )
    def test_rejects_malformed_json(self, obj, message):
        with pytest.raises(InvalidSingularity, match=message):
            singularity_from_json(obj)

    def test_report_fields(self):
        rep = invariants_report(node_type())
        assert rep["delta"] == 1 and rep["expected_nodes"] == 1
        assert len(rep["branches"]) == 2


def assert_report_matches_oracles(s):
    """The type's stored invariants and invariants_report against values
    computed without them: each slot's delta, and the m(m-1)/2 sum of its
    multiplicity sequence, by the conductor formula; the type's delta as
    those plus the table's entries above the diagonal; the multiplicity as
    the slots' first exponents; and mu = nodes + inner regions."""
    rep = invariants_report(s)
    n = s.slot_count
    deltas = [delta_conductor(s.slot_branch(k).char_exponents) for k in range(n)]
    assert [s.slot_branch(k).delta for k in range(n)] == [b["delta"] for b in rep["branches"]] == deltas
    assert [sum(m * (m - 1) // 2 for m in b["multiplicity_sequence"]) for b in rep["branches"]] == deltas
    delta = sum(deltas) + sum(s.intersections[i][j] for i in range(n) for j in range(i + 1, n))
    assert s.delta == rep["delta"] == delta
    assert s.multiplicity == rep["multiplicity"] == sum(s.slot_branch(k).char_exponents[0] for k in range(n))
    assert (rep["re_br"], rep["im_br"]) == (s.re_br, s.im_br)
    assert (rep["expected_nodes"], rep["expected_inner_regions"]) == (s.expected_nodes, s.expected_inner_regions)
    assert s.milnor == rep["milnor"] == s.expected_nodes + s.expected_inner_regions


class TestReportAgainstFunctions:
    """Every stored invariant and every report field against the oracle
    functions: the conductor formula for delta, and for a conjugate pair
    the degree of its Alexander polynomial for mu."""

    def test_conj_pair_types(self):
        types = list(enumerate_conj_pair_types(3, 4, 25))
        assert len(types) == 2127
        for T in types:
            s = conj_pair_singularity(T)
            assert_report_matches_oracles(s)
            assert s.milnor == to_cyclotomic(alexander_encode(T)).degree(), T

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
        assert_report_matches_oracles(s)

    @pytest.mark.parametrize("name", sorted(HANDPICKED))
    def test_family_singularities(self, name):
        assert_report_matches_oracles(HANDPICKED[name]().singularity)


def two_lines():
    return family_from_expression("(y - x)*(y + 2*x)", window=1.0)


# every constructor that reads integers from its caller: (site, error, the
# valid value v at the slot the case fills)
INTEGER_SITES = {
    "BranchType": (lambda x: BranchType((x,)), InvalidSingularity, 1),
    "SingularityType": (lambda x: SingularityType((SMOOTH, SMOOTH), (), ((0, x), (x, 0))), InvalidSingularity, 1),
    "ConjPairType": (lambda x: ConjPairType(1, 0, (x,), (1,)), InvalidConjPair, 1),
    "CycloVector": (lambda x: CycloVector({x: 1}), ValueError, 1),
    "enumerate_conj_pair_types": (lambda x: list(enumerate_conj_pair_types(x, 2, 3)), ValueError, 1),
    "Divide": (lambda x: Divide({0: [x], 1: [-1]}, [0, 1]), StructureError, 1),
    "smooth-conjugate": (lambda x: family_smooth_conjugate([{x: 1}]), FamilyError, 2),
    "one-puiseux-pair": (lambda x: family_one_puiseux_pair(x, 3, 1), FamilyError, 2),
    "parabola-pair": (lambda x: family_parabola_pair(x), FamilyError, 2),
    "chebyshev-like": (lambda x: chebyshev_like(x, 1.0), FamilyError, 2),
    "grid_n": (lambda x: trace_divide(two_lines(), grid_n=x), TraceError, 128),
    "retries": (lambda x: trace_with_retries(two_lines(), retries=x), TraceError, 1),
}


@pytest.mark.parametrize("kind", ["float", "string", "bool"])
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_inputs_are_read_by_one_rule(site, kind):
    """A float, a numeric string and a bool are refused with the site's own
    error; each was truncated, parsed, taken as 1 or leaked TypeError at
    some site before."""
    build, error, v = INTEGER_SITES[site]
    with pytest.raises(error) as exc:
        build({"float": float(v), "string": str(v), "bool": True}[kind])
    assert type(exc.value) is error and getattr(exc.value, "reason", "parameters") == "parameters"


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_numpy_integers_pass_every_site(site):
    build, _, v = INTEGER_SITES[site]
    build(np.int64(v))


def two_parts():
    return [family_smooth_conjugate([{2: 1}], (0, 1)), family_smooth_conjugate([{2: -1}], (1, 1))]


# every constructor that reads reals or complex numbers from its caller:
# (site, error, the valid value v at the slot the case fills, complex or not)
REAL_SITES = {
    "tangent": (lambda x: family_smooth_conjugate([{2: 1}], tangent=(0, x)), FamilyError, 1.0, False),
    "smooth-conjugate": (lambda x: family_smooth_conjugate([{2: x}]), FamilyError, 1.0, True),
    "one-puiseux-pair": (lambda x: family_one_puiseux_pair(2, 3, x), FamilyError, 1.0, True),
    "chebyshev-like": (lambda x: chebyshev_like(3, x), FamilyError, 1.0, False),
    "semiquasi-line": (lambda x: family_semiquasi_pp([(1, x)], [(1, 0, 1)], [1]), FamilyError, 1.0, False),
    "semiquasi-quadric": (lambda x: family_semiquasi_pp([], [(1, 0, x)], [1]), FamilyError, 1.0, False),
    "semiquasi-level": (lambda x: family_semiquasi_pp([], [(1, 0, 1)], [x]), FamilyError, 1.0, False),
    "ellipse-composition": (lambda x: family_ellipse_composition(two_parts(), [x, 1.6]), FamilyError, 1.0, False),
    "window": (lambda x: family_from_expression("(y - x)*(y + 2*x)", window=x), FamilyError, 1.0, False),
    "t": (lambda x: trace_divide(two_lines(), t=x, grid_n=128), TraceError, 0.1, False),
}


@pytest.mark.parametrize("kind", ["string", "bool", "nan", "inf"])
@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_real_inputs_are_read_by_one_rule(site, kind):
    """A numeric string, a bool, NaN and inf are refused with the site's own
    error; at some site each was parsed, taken as 1, passed or leaked
    TypeError, ValueError or LinAlgError before."""
    build, error, v, _ = REAL_SITES[site]
    with pytest.raises(error) as exc:
        build({"string": str(v), "bool": True, "nan": math.nan, "inf": math.inf}[kind])
    assert type(exc.value) is error and getattr(exc.value, "reason", "parameters") == "parameters"


@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_numpy_reals_and_fractions_pass_every_site(site):
    build, _, v, is_complex = REAL_SITES[site]
    build(np.float64(v))
    build(Fraction(v))
    if is_complex:
        build(np.complex128(v))


# every container a caller hands in: (site, error, {case: value}).  The cases
# that apply to a site: "not-iterable"; "wrong-form", a list where a mapping
# is due or a mapping where a sequence is due; and an item of the wrong
# length ("wrong-length", or "short" and "long").  Before these sites were
# read by the rule, a mapping where a sequence was due was read by its keys,
# a list where a mapping was due leaked AttributeError, a branch, line,
# quadric or part list that is not iterable leaked TypeError, and an
# expression family took any singularity.
PARTS = two_parts()
CONTAINER_SITES = {
    "smooth-conjugate-branches": (family_smooth_conjugate, FamilyError, {"not-iterable": 5, "wrong-form": {2: 1}}),
    "smooth-conjugate-branch": (lambda x: family_smooth_conjugate([x]), FamilyError,
                                {"not-iterable": 2, "wrong-form": [2]}),
    "tangent": (lambda x: family_smooth_conjugate([{2: 1}], tangent=x), FamilyError,
                {"not-iterable": 1, "wrong-form": {0: 0, 1: 1}, "short": (1,), "long": (0, 1, 2)}),
    "semiquasi-lines": (lambda x: family_semiquasi_pp(x, [], []), FamilyError,
                        {"not-iterable": 5, "wrong-form": {0: (1, 0)}, "wrong-length": [(1,)]}),
    "semiquasi-quadrics": (lambda x: family_semiquasi_pp([], x, [1]), FamilyError,
                           {"not-iterable": 5, "wrong-form": {0: (1, 0, 1)}, "wrong-length": [(1, 0)]}),
    "semiquasi-levels": (lambda x: family_semiquasi_pp([], [(1, 0, 1)], x), FamilyError,
                         {"not-iterable": 1, "wrong-form": {0: 1}, "wrong-length": [1, 1]}),
    "ellipse-parts": (lambda x: family_ellipse_composition(x, [1.0, 1.6]), FamilyError,
                      {"not-iterable": 5, "wrong-form": dict(enumerate(PARTS)), "wrong-length": PARTS[:1]}),
    "ellipse-gammas": (lambda x: family_ellipse_composition(PARTS, x), FamilyError,
                       {"not-iterable": 1.0, "wrong-form": {0: 1.0, 1: 1.6}, "wrong-length": [1.0]}),
    "expression-singularity": (lambda x: family_from_expression("x*y", 1.0, x), FamilyError,
                               {"not-iterable": 5, "wrong-form": singularity_to_json(node_type()), "string": "node"}),
    "FactorForm": (FactorForm, ValueError, {"not-iterable": 5, "wrong-form": [1]}),
    "CycloVector": (CycloVector, ValueError, {"not-iterable": 5, "wrong-form": [1, 2]}),
    "ConjPairType-m": (lambda x: ConjPairType(1, 0, x, (1,)), InvalidConjPair,
                       {"not-iterable": 1, "wrong-form": {1: 1}, "wrong-length": (1, 2)}),
    "ConjPairType-n": (lambda x: ConjPairType(1, 0, (1,), x), InvalidConjPair,
                       {"not-iterable": 1, "wrong-form": {1: 1}, "wrong-length": (1, 1)}),
    "SingularityType-table": (lambda x: SingularityType((SMOOTH, SMOOTH), (), x), InvalidSingularity,
                              {"not-iterable": 5, "wrong-form": {0: (0, 1), 1: (1, 0)}, "wrong-length": ((0, 1),)}),
    "Divide": (lambda x: Divide(x, [0, 1]), StructureError, {"not-iterable": 5, "wrong-form": [[1], [-1]]}),
}


@pytest.mark.parametrize(
    "site, case",
    [(site, case) for site, (_, _, cases) in sorted(CONTAINER_SITES.items()) for case in cases],
    ids=lambda v: v,
)
def test_containers_are_read_by_one_rule(site, case):
    build, error, cases = CONTAINER_SITES[site]
    with pytest.raises(error) as exc:
        build(cases[case])
    assert type(exc.value) is error
