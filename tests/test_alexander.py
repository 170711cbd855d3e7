import random
from collections import Counter
from itertools import product
from math import gcd, prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from divides.alexander import (
    ConjPairType,
    CycloVector,
    FactorForm,
    InvalidConjPair,
    NodeType,
    NotInImage,
    _factor_map,
    _factors,
    _read_peel,
    _suffix_products,
    alexander_decode,
    alexander_encode,
    branch_char_exponents,
    conj_pair_from_json,
    conj_pair_singularity,
    conj_pair_to_json,
    divisors,
    enumerate_conj_pair_types,
    pair_intersection,
    peel_sequence,
    to_cyclotomic,
    totient,
    w_sequence,
)
from divides.singularity import BranchType, SingularityType, invariants_report

from oracles import (
    delta_conductor,
    enumerate_conj_pair_types_reference,
    exponents_reference,
    pair_intersection_bruteforce,
    peel_by_moebius,
    search_preimages,
)


NODE = ConjPairType(1, 0, (1,), (1,))
CONJ_CUSP = ConjPairType(2, 0, (1, 3), (1, 2))

SAMPLE_TYPES = list(enumerate_conj_pair_types(3, 4, 18))


class TestValidation:
    def test_basic(self):
        with pytest.raises(InvalidConjPair):
            ConjPairType(1, 1, (2,), (1,))  # i out of range
        with pytest.raises(InvalidConjPair):
            ConjPairType(2, 0, (2, 3), (1, 1))  # n_2 = 1 away from slot i+1
        with pytest.raises(InvalidConjPair):
            ConjPairType(1, 0, (4, ), (2, ))  # gcd
        with pytest.raises(InvalidConjPair):
            ConjPairType(1, 0, (2,), (3,))  # exponent below 1
        with pytest.raises(InvalidConjPair):
            ConjPairType(2, 0, (3, 6), (1, 2))  # non-increasing exponents

    def test_coincident_expansions_rejected(self):
        # y = +-i x^{3/2} both trace the real cusp y^2 + x^3 = 0
        with pytest.raises(InvalidConjPair):
            ConjPairType(1, 0, (3,), (2,))

    def test_even_n_at_split_slot_rejected(self):
        # even n_{i+1} admits extra conjugate contact outside the normal form
        with pytest.raises(InvalidConjPair):
            ConjPairType(2, 0, (3, 7), (2, 2))
        with pytest.raises(InvalidConjPair):
            ConjPairType(3, 1, (3, 7, 22), (2, 2, 3))

    @pytest.mark.parametrize(
        "args",
        [(1, 0, (5.5,), (3,)), (1, 0, ("5",), (3,)), (1.0, 0, (5,), (3,)), (1, 0.0, (5,), (3,)), (1, 0, 5, (3,))],
        ids=["float-m", "string-m", "float-s", "float-i", "scalar-m"],
    )
    def test_reads_integers_only(self, args):
        with pytest.raises(InvalidConjPair):
            ConjPairType(*args)

    def test_integer_like_fields_become_ints(self):
        T = ConjPairType(np.int64(1), np.int64(0), [np.int64(5)], (np.int64(3),))
        assert T == ConjPairType(1, 0, (5,), (3,)) and type(T.s) is type(T.m[0]) is int

    def test_node_is_valid(self):
        assert prod(NODE.n) == 1

    def test_json_roundtrip(self):
        assert conj_pair_from_json(conj_pair_to_json(CONJ_CUSP)) == CONJ_CUSP

    @pytest.mark.parametrize(
        "obj",
        [
            {"s": 1.9, "i": 0, "m": [5.5], "n": [3]},
            {"s": 1.5, "i": 0, "m": [2], "n": [1]},
            {"s": True, "i": 0, "m": [5], "n": [3]},
            {"s": 1, "i": 0.0, "m": [5], "n": [3]},
            {"s": 1, "i": 0, "m": [5.0], "n": [3]},
            {"s": 1, "i": 0, "m": [5], "n": [True]},
            {"s": 2, "i": 1, "m": "37", "n": "21"},
            {"s": 1, "i": 0, "m": {"5": 1}, "n": [3]},
        ],
        ids=["float-s-and-m", "float-s", "bool-s", "float-i", "float-m", "bool-n", "string-arrays", "object-m"],
    )
    def test_json_reads_integers_only(self, obj):
        with pytest.raises(InvalidConjPair):
            conj_pair_from_json(obj)


class TestDerived:
    def test_w_spec_values(self):
        assert w_sequence((2,), (1,)) == [2]
        assert w_sequence((3,), (2,)) == [3]
        # two Puiseux pairs (2,3) and (2,7): 7 - 3*2 + 3*2*2 = 13
        assert w_sequence((3, 7), (2, 2)) == [3, 13]

    def test_derived_on_conj_cusp(self):
        assert w_sequence(CONJ_CUSP.m, CONJ_CUSP.n) == [1, 3]
        # e_2 = 5 gives the top pair (n_2 e_2, +2), (e_2, -2); at i = 0 and
        # n_1 = m_1 = 1 the head cancels the (t^{2n} - 1) factor
        assert alexander_encode(CONJ_CUSP).factors == {1: 1, 5: -2, 10: 2}

    def test_ordering_inequalities_on_grid(self):
        # the index orderings that make the peel sequence parseable, on the
        # factors of the encoding formula, which must tally to the encoder's
        for T in SAMPLE_TYPES:
            s, i, n = T.s, T.i, T.n
            w = w_sequence(T.m, n)

            def b(j1, j2):
                return prod(n[j1 - 1 : j2])

            lows = [(2 * w[j - 1] * b(j + 1, s), 2 * w[j - 1] * b(j, s)) for j in range(1, i + 1)]
            head = (2 * w[i] * b(i + 2, s), 2 * w[i] * b(i + 1, s))
            e = {j: w[i] * b(i + 1, s) * b(i + 2, j - 1) + w[j - 1] * b(j + 1, s) for j in range(i + 2, s + 1)}
            tops = [(e[j], n[j - 1] * e[j]) for j in e]
            fac = Counter({1: 1, 2 * b(1, s): -1})
            for L, U in lows:
                fac[L] -= 1
                fac[U] += 1
            fac[head[0]] -= 1
            fac[head[1]] += 2
            for E, N in tops:
                fac[E] -= 2
                fac[N] += 2
            assert alexander_encode(T) == FactorForm(fac), T
            if i >= 1:  # 2n < L_1 < U_1 < .. < L_i < U_i < L_{i+1}
                chain = [2 * b(1, s), *(x for low in lows for x in low), head[0]]
                assert chain == sorted(set(chain)), T
            if tops:  # S < e_{i+2} < n_{i+2} e_{i+2} < .. < e_s < n_s e_s
                chain = [head[1], *(x for top in tops for x in top)]
                assert chain == sorted(set(chain)), T


class TestEncode:
    def test_node_factor_form(self):
        F = alexander_encode(NODE)
        assert F.factors == {1: 1}

    def test_smooth_pair_m2(self):
        F = alexander_encode(ConjPairType(1, 0, (2,), (1,)))
        assert F.factors == {1: 1, 2: -1, 4: 1}
        assert to_cyclotomic(F).degree() == 3

    def test_conj_cusp_degree_is_milnor(self):
        v = to_cyclotomic(alexander_encode(CONJ_CUSP))
        assert v.degree() == 11

    def test_nonnegative_on_grid(self):
        for T in SAMPLE_TYPES:
            v = to_cyclotomic(alexander_encode(T))
            assert all(k >= 0 for k in v.exps.values()), T


class TestCyclotomic:
    def test_singleton(self):
        assert to_cyclotomic(FactorForm({1: 1})).exps == {1: 1}

    def test_divisor_bookkeeping(self):
        v = to_cyclotomic(FactorForm({4: 1, 2: -1, 1: 1}))
        assert v.exps == {1: 1, 4: 1}

    def test_cancellation(self):
        assert to_cyclotomic(FactorForm({6: 0})).exps == {}

    def test_degree(self):
        assert CycloVector({1: 1}).degree() == 1
        assert CycloVector({1: 1, 4: 1}).degree() == 3
        assert CycloVector({}).degree() == 0

    def test_index_below_one_rejected(self):
        for cls in (FactorForm, CycloVector):
            with pytest.raises(ValueError):
                cls({0: 1})

    @pytest.mark.parametrize("cls, exps", [(CycloVector, {5.5: 1}), (FactorForm, {2: 1.5}), (CycloVector, {"3": 1})])
    def test_non_integer_entries_rejected(self, cls, exps):
        # each was truncated or coerced to an integer before
        with pytest.raises(ValueError, match=f"^{cls.__name__} indices and exponents must be integers"):
            cls(exps)

    def test_numpy_integer_entries_become_ints(self):
        v = CycloVector({np.int64(3): np.int64(2)})
        assert v == CycloVector({3: 2}) and [type(x) for x in (*v.exps, *v.exps.values())] == [int, int]

    def test_totient_and_divisors(self):
        assert totient(1) == 1 and totient(4) == 2 and totient(12) == 4
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_factorform_degree_matches_cyclo_degree(self):
        for T in SAMPLE_TYPES[::7]:
            F = alexander_encode(T)
            assert F.degree() == to_cyclotomic(F).degree()


class TestExpand:
    """t^N - 1 split into cyclotomic factors."""

    def test_t2_minus_1(self):
        assert to_cyclotomic(FactorForm({2: 1})) == CycloVector({1: 1, 2: 1})

    def test_product(self):
        # (t-1)(t^2+1) = (t - 1)(t^4 - 1)/(t^2 - 1)
        assert to_cyclotomic(FactorForm({1: 1, 4: 1, 2: -1})) == CycloVector({1: 1, 4: 1})

    def test_negative_exponent_rejected(self):
        # 1/(t + 1) is no polynomial, so no pair encodes to it
        with pytest.raises(NotInImage):
            alexander_decode(CycloVector({2: -1}))


class TestPeel:
    def test_trivial(self):
        assert peel_sequence(CycloVector({1: 1})) == ((1, 1),)

    def test_zero_vector(self):
        assert peel_sequence(CycloVector({})) == ()

    def test_first_index(self):
        v = to_cyclotomic(alexander_encode(ConjPairType(1, 0, (2,), (1,))))
        assert peel_sequence(v)[0][0] == 4

    def test_indices_strictly_decreasing(self):
        for T in SAMPLE_TYPES[::5]:
            ent = peel_sequence(to_cyclotomic(alexander_encode(T)))
            assert all(a[0] > b[0] for a, b in zip(ent, ent[1:]))

    def test_paper_readoff_on_unmerged_types(self):
        # where no factor indices merge: s = (r-1)//2 and i+1 = s - l//2, with
        # r peels, the first l of them of even exponent
        for T in SAMPLE_TYPES:
            if T.n[T.i] == 1 and not (T.i == 0 and T.m[0] == 1):
                continue  # merged square factor: the formulas above do not hold
            if T.i == 0 and T.n[0] == 1 and T.m[0] == 1 and T.s > 1:
                continue  # fully collapsed spike
            entries = peel_sequence(to_cyclotomic(alexander_encode(T)))
            r = len(entries)
            l = next((k for k, (_, eps) in enumerate(entries) if eps % 2), r)
            if T.n[T.i] > 1:
                assert T.s == (r - 1) // 2, T
                assert T.i + 1 == T.s - l // 2, T


factor_forms = st.dictionaries(st.integers(1, 60), st.integers(-3, 3), max_size=8).map(FactorForm)


class TestPeelInvertsCyclotomic:
    """t^N - 1 = prod_{d | N} Phi_d makes to_cyclotomic unitriangular, so
    peeling inverts it; alexander_decode relies on this to compare its
    re-encode in factor form."""

    @given(factor_forms)
    @example(FactorForm({}))
    @example(FactorForm({1: -1, 2: 1}))  # t + 1, a negative exponent
    @example(FactorForm({6: 2, 3: -2, 2: -1}))
    @settings(max_examples=400, deadline=None)
    def test_peel_of_expansion_is_factor_form(self, F):
        assert dict(peel_sequence(to_cyclotomic(F))) == F.factors

    def test_on_every_encoding(self):
        types = list(enumerate_conj_pair_types(4, 5, 40))
        assert len(types) == 19358
        for T in types:
            F = alexander_encode(T)
            assert dict(peel_sequence(to_cyclotomic(F))) == F.factors, T


def random_exponent_maps(seed, count):
    """Seeded int maps over indices 1..200 with exponents -3..3, zeros and
    negative exponents included."""
    rng = random.Random(seed)
    for _ in range(count):
        yield {rng.randint(1, 200): rng.randint(-3, 3) for _ in range(rng.randint(0, 10))}


class TestAgainstReferences:
    """The shared normaliser and the peel against exponents_reference, one
    entry at a time, and peel_by_moebius, the closed form."""

    def test_every_encoding(self):
        for T in enumerate_conj_pair_types(4, 5, 40):
            F = alexander_encode(T)
            assert list(F.factors.items()) == list(exponents_reference(FactorForm, _factor_map(T)).items()), T
            v = to_cyclotomic(F)
            assert list(v.exps.items()) == list(exponents_reference(CycloVector, v.exps).items()), T
            assert peel_sequence(v) == peel_by_moebius(v), T

    def test_random_maps(self):
        for exps in random_exponent_maps(26, 3000):
            for cls in (FactorForm, CycloVector):
                got = getattr(cls(exps), cls.field)
                assert list(got.items()) == list(exponents_reference(cls, exps).items()), exps
            v = CycloVector(exps)
            assert peel_sequence(v) == peel_by_moebius(v), exps
            F = FactorForm(exps)
            assert peel_sequence(to_cyclotomic(F)) == tuple(sorted(F.factors.items(), reverse=True)), exps

    @pytest.mark.parametrize(
        "exps",
        [{0: 1}, {-3: 1, 2: 1}, {2: 1, 0: 0}, {"x": 1}, {None: 1}, {2: "a"}, {2: None},
         {1: 1, "1": -1}, {2.5: 1, 2: 1}, {True: 1, 1.0: 2}, {"2": "3", 2: -3}, {3: 1.9}],
    )
    def test_malformed_maps_raise_alike(self, exps):
        for cls in (FactorForm, CycloVector):
            try:
                want = exponents_reference(cls, exps)
            except Exception as exc:
                with pytest.raises(type(exc)) as got:
                    cls(exps)
                assert str(got.value) == str(exc)
            else:
                assert getattr(cls(exps), cls.field) == want


class TestDecode:
    def test_node(self):
        assert isinstance(alexander_decode(CycloVector({1: 1})), NodeType)

    def test_node_as_conj_pair(self):
        assert NodeType().as_conj_pair() == NODE

    def test_even_degree_not_in_image(self):
        with pytest.raises(NotInImage):
            alexander_decode(CycloVector({1: 1, 2: 1}))

    def test_degree_one_but_wrong_vector(self):
        with pytest.raises(NotInImage):
            alexander_decode(CycloVector({2: 1}))

    def test_not_in_image_odd_degree(self):
        # t^4 + t^3 + t^2 + t + 1 times (t-1)*stuff picked to dodge the image
        with pytest.raises(NotInImage):
            alexander_decode(CycloVector({1: 3}))

    def test_roundtrip_spec_example(self):
        T = ConjPairType(1, 0, (2,), (1,))
        assert alexander_decode(to_cyclotomic(alexander_encode(T))) == T

    def test_roundtrip_merged_cases(self):
        # the collapsed spike (i = 0, n_1 = m_1 = 1) and n_{i+1} = 1 with
        # i >= 1 defeat the raw r/l read-off; the read-off must recover them
        for T in [
            CONJ_CUSP,
            ConjPairType(2, 0, (1, 5), (1, 3)),
            ConjPairType(3, 0, (1, 3, 7), (1, 2, 2)),
            ConjPairType(4, 0, (1, 3, 7, 15), (1, 2, 2, 2)),
            ConjPairType(2, 1, (3, 7), (2, 1)),
            ConjPairType(3, 1, (3, 7, 15), (2, 1, 2)),
        ]:
            assert alexander_decode(to_cyclotomic(alexander_encode(T))) == T

    def test_roundtrip_sample(self):
        for T in SAMPLE_TYPES:
            got = alexander_decode(to_cyclotomic(alexander_encode(T)))
            if isinstance(got, NodeType):
                assert T == NODE
            else:
                assert got == T

    def test_agrees_with_exhaustive_search(self):
        # every nonnegative vector of odd degree 3-7, plus off-image vectors
        # whose largest index is degree - 1 (the search's worst case)
        small = [d for d in range(1, 20) if totient(d) <= 7]

        def vectors(rest, ds):
            if rest == 0:
                yield {}
            for k, d in enumerate(ds):
                if totient(d) <= rest:
                    for tail in vectors(rest - totient(d), ds[k:]):
                        yield {**tail, d: tail.get(d, 0) + 1}

        cases = [CycloVector(e) for deg in (3, 5, 7) for e in vectors(deg, small)]
        assert len(cases) == 166
        rng = random.Random(3)
        for deg in (9, 11, 13):
            for _ in range(10):
                exps = {deg - 1: 1}
                rest = deg - totient(deg - 1)
                while rest > 0:
                    d = rng.choice([d for d in range(1, deg) if totient(d) <= rest])
                    exps[d] = exps.get(d, 0) + 1
                    rest -= totient(d)
                cases.append(CycloVector(exps))
        for v in cases:
            try:
                got = [alexander_decode(v)]
            except NotInImage:
                got = []
            assert got == search_preimages(v, (len(peel_sequence(v)) + 3) // 2), v


@st.composite
def conj_pair_types(draw):
    return draw(st.sampled_from(SAMPLE_TYPES))


@st.composite
def near_image_vectors(draw):
    """An encoding with one exponent changed by -2 .. 2."""
    exps = dict(to_cyclotomic(alexander_encode(draw(conj_pair_types()))).exps)
    d = draw(st.sampled_from(sorted(exps)) | st.integers(1, 60))
    exps[d] = exps.get(d, 0) + draw(st.integers(-2, 2))
    return CycloVector(exps)


cyclo_vectors = st.dictionaries(st.integers(1, 60), st.integers(-2, 3), max_size=8).map(CycloVector)


class TestProperties:
    @given(conj_pair_types())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, T):
        got = alexander_decode(to_cyclotomic(alexander_encode(T)))
        if isinstance(got, NodeType):
            assert T == NODE
        else:
            assert got == T

    @given(cyclo_vectors | near_image_vectors())
    @example(CycloVector({}))  # zero degree
    @example(CycloVector({1: -1, 2: 1}))  # zero degree, negative exponent
    @example(CycloVector({1: 1, 2: 1}))  # even degree
    @example(CycloVector({1: 1, 3: -2, 6: 2}))  # negative exponent, odd degree
    @settings(max_examples=400, deadline=None)
    def test_decode_is_total(self, v):
        # a type that re-encodes to v, NodeType for t - 1, or NotInImage:
        # nothing else escapes
        try:
            got = alexander_decode(v)
        except NotInImage:
            return
        if isinstance(got, NodeType):
            assert v == CycloVector({1: 1})
        else:
            assert to_cyclotomic(alexander_encode(got)) == v

    @given(conj_pair_types())
    @settings(max_examples=100, deadline=None)
    def test_degree_equals_milnor(self, T):
        v = to_cyclotomic(alexander_encode(T))
        assert v.degree() == conj_pair_singularity(T).milnor

    @given(conj_pair_types())
    @settings(max_examples=60, deadline=None)
    def test_branch_type_delta_against_conductor(self, T):
        exps = branch_char_exponents(T)
        assert BranchType(exps).delta == delta_conductor(exps)


class TestEnumerate:
    @pytest.mark.parametrize(
        "bounds, count",
        [((4, 5, 40), 19358), ((3, 7, 40), 18638), ((5, 4, 40), 14872)],
        ids=["4-5-40", "3-7-40", "5-4-40"],
    )
    def test_same_sequence_as_filtering_by_validation(self, bounds, count):
        """Field for field, intersection included, which == ignores.  At
        (5, 4, 40) only 7 of the 810 n of length 5 allow an m-chain under 40."""

        def fields(types):
            return [(T.s, T.i, T.m, T.n, T.intersection) for T in types]

        types = fields(enumerate_conj_pair_types(*bounds))
        assert len(types) == count
        assert types == fields(enumerate_conj_pair_types_reference(*bounds))


class TestPairIntersection:
    def test_conj_cusp(self):
        assert pair_intersection(CONJ_CUSP) == 4

    def test_smooth_transversal(self):
        assert pair_intersection(NODE) == 1

    def test_smooth_tangent(self):
        # y = +-i x^2: contact of order 2
        assert pair_intersection(ConjPairType(1, 0, (2,), (1,))) == 2

    def test_against_sympy_resultant(self):
        import sympy

        def oracle(T):
            tau, x, y, t = sympy.symbols("tau x y t")
            n = prod(T.n)
            B = [T.m[j] * prod(T.n[j + 1 :]) for j in range(T.s)]
            phi = sum(tau ** B[k] for k in range(T.i)) + sympy.I * sum(
                tau ** B[k] for k in range(T.i, T.s)
            )
            phib = sum(tau ** B[k] for k in range(T.i)) - sympy.I * sum(
                tau ** B[k] for k in range(T.i, T.s)
            )
            fbar = sympy.resultant(x - tau**n, y - phib, tau)
            val = sympy.expand(fbar.subs({x: t**n, y: phi.subs(tau, t)}))
            poly = sympy.Poly(val, t)
            monoms = [m[0] for m in poly.monoms() if poly.coeff_monomial((m[0],)) != 0]
            return min(monoms)

        for T in [
            NODE,
            CONJ_CUSP,
            ConjPairType(1, 0, (2,), (1,)),
            ConjPairType(1, 0, (4,), (3,)),
            ConjPairType(2, 1, (3, 7), (2, 1)),
            ConjPairType(2, 1, (3, 10), (2, 3)),
        ]:
            assert pair_intersection(T) == oracle(T), T

    def test_stored_value_against_bruteforce(self):
        types = list(enumerate_conj_pair_types(4, 5, 40))
        assert len(types) == 19358
        branches = {}
        for T in types:
            assert T.intersection == pair_intersection(T) == pair_intersection_bruteforce(T), T
            table = ((0, T.intersection), (T.intersection, 0))
            sing = conj_pair_singularity(T)
            assert sing.intersections == table
            # the interned branch gives the report a fresh one gives, and
            # equal exponents share one instance
            fresh = SingularityType((), (BranchType(branch_char_exponents(T)),), table)
            assert invariants_report(sing) == invariants_report(fresh), T
            # the unchecked build stores what the checked one does
            assert sing == fresh and sing.delta == fresh.delta, T
            assert repr(sing) == repr(fresh) and hash(sing) == hash(fresh), T
            assert T.intersection >= sing.conj_pairs[0].multiplicity ** 2, T
            assert branches.setdefault(sing.conj_pairs[0].char_exponents, sing.conj_pairs[0]) is sing.conj_pairs[0]
            # the decoder re-encodes from the read-off w and suffix products
            s, i, m, n, w, suf = _read_peel(peel_sequence(to_cyclotomic(alexander_encode(T))))
            assert (s, i, tuple(m), tuple(n)) == (T.s, T.i, T.m, T.n), T
            assert (w, suf) == (w_sequence(m, n), _suffix_products(n)), T
            assert _factors(i, n, w, suf) == _factor_map(T), T
        assert len(branches) == 1292

    def test_odd_split_slot_never_coincides(self):
        # the lemma behind the closed form: once n_{i+1} is odd, some tau-
        # exponent separates the expansions at every root of unity; checked
        # on raw tuples that pass every check but the parity one
        def raw_tuples(s_max, n_max, m_max):
            for s in range(1, s_max + 1):
                for i in range(s):
                    for n in product(*(range(1 if j == i else 2, n_max + 1) for j in range(s))):
                        ms = [()]
                        for nj in n:
                            ms = [m + (mj,) for m in ms
                                  for mj in range(m[-1] * nj + 1 if m else n[0], m_max + 1) if gcd(mj, nj) == 1]
                        for m in ms:
                            yield SimpleNamespace(s=s, i=i, m=m, n=n)

        parity = Counter()
        for T in raw_tuples(3, 6, 24):
            brute = pair_intersection_bruteforce(T)
            if T.n[T.i] % 2:
                assert brute is not None and brute == ConjPairType(T.s, T.i, T.m, T.n).intersection, T
            parity[T.n[T.i] % 2, brute is None] += 1
        # 176 tuples with an even n_{i+1} do give coincident expansions: the
        # lemma needs its parity hypothesis
        assert parity == {(1, False): 2349, (0, False): 110, (0, True): 176}

    def test_stored_value_is_not_part_of_the_type(self):
        # ConjPairType(1, 0, (3,), (2,)) is not a type: n_1 = 2 is even
        with pytest.raises(InvalidConjPair):
            ConjPairType(1, 0, (3,), (2,))
        T = ConjPairType(1, 0, (4,), (3,))
        assert T.intersection == 12
        assert repr(T) == "ConjPairType(s=1, i=0, m=(4,), n=(3,))"
        U = ConjPairType(1, 0, [np.int64(4)], [3])
        assert T == U and hash(T) == hash(U) == hash((1, 0, (4,), (3,)))
        assert T != ConjPairType(1, 0, (5,), (3,))

    def test_branch_char_exponents(self):
        assert branch_char_exponents(CONJ_CUSP) == (2, 3)
        assert branch_char_exponents(NODE) == (1,)
        assert branch_char_exponents(ConjPairType(3, 0, (1, 3, 7), (1, 2, 2))) == (4, 6, 7)


class TestRationalFunctionOracle:
    def test_expand_matches_sympy_simplification(self):
        import sympy

        t = sympy.Symbol("t")

        def e1803_sympy(T):
            s, i, m, n = T.s, T.i, list(T.m), list(T.n)
            w = [m[0]]
            for j in range(1, s):
                w.append(m[j] - m[j - 1] * n[j] + w[j - 1] * n[j - 1] * n[j])

            def b(j1, j2):
                return prod(n[j1 - 1 : j2]) if j1 <= j2 else 1

            N = prod(n)
            expr = (t - 1) / (t ** (2 * N) - 1)
            for j in range(1, i + 1):
                expr *= (t ** (2 * w[j - 1] * b(j, s)) - 1) / (t ** (2 * w[j - 1] * b(j + 1, s)) - 1)
            expr *= (t ** (2 * w[i] * b(i + 1, s)) - 1) ** 2 / (t ** (2 * w[i] * b(i + 2, s)) - 1)
            for j in range(i + 2, s + 1):
                e_j = w[i] * b(i + 1, s) * b(i + 2, j - 1) + w[j - 1] * b(j + 1, s)
                expr *= ((t ** (n[j - 1] * e_j) - 1) / (t ** e_j - 1)) ** 2
            return sympy.cancel(expr)

        checked = 0
        for T in SAMPLE_TYPES:
            v = to_cyclotomic(alexander_encode(T))
            if v.degree() > 64:
                continue
            ours = sympy.Mul(*(sympy.cyclotomic_poly(d, t) ** k for d, k in v.exps.items()))
            assert sympy.Poly(ours, t) == sympy.Poly(e1803_sympy(T), t), T
            checked += 1
        assert checked >= 10
