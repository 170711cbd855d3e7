import random
from collections import Counter
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from divides.alexander import (
    ConjPairType,
    CycloVector,
    FactorForm,
    InvalidConjPair,
    NodeType,
    NotInImage,
    alexander_decode,
    alexander_encode,
    branch_char_exponents,
    conj_pair_from_json,
    conj_pair_singularity,
    conj_pair_to_json,
    divisors,
    enumerate_conj_pair_types,
    expand,
    pair_intersection,
    peel_sequence,
    to_cyclotomic,
    totient,
    w_sequence,
)
from divides.singularity import BranchType, branch_delta, milnor_number

from oracles import delta_conductor, search_preimages


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

    def test_node_is_valid(self):
        assert NODE.mt == 1

    def test_json_roundtrip(self):
        assert conj_pair_from_json(conj_pair_to_json(CONJ_CUSP)) == CONJ_CUSP


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
            fac = Counter({1: 1, 2 * T.mt: -1})
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
                chain = [2 * T.mt, *(x for low in lows for x in low), head[0]]
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

    def test_totient_and_divisors(self):
        assert totient(1) == 1 and totient(4) == 2 and totient(12) == 4
        assert divisors(12) == (1, 2, 3, 4, 6, 12)

    def test_factorform_degree_matches_cyclo_degree(self):
        for T in SAMPLE_TYPES[::7]:
            F = alexander_encode(T)
            assert F.degree() == to_cyclotomic(F).degree()


class TestExpand:
    def test_linear(self):
        assert expand(CycloVector({1: 1})) == [-1, 1]

    def test_t2_minus_1(self):
        assert expand(CycloVector({1: 1, 2: 1})) == [-1, 0, 1]

    def test_product(self):
        # (t-1)(t^2+1) = t^3 - t^2 + t - 1
        assert expand(CycloVector({1: 1, 4: 1})) == [-1, 1, -1, 1]

    def test_negative_exponent_rejected(self):
        from divides.alexander import ExpansionError

        with pytest.raises(ExpansionError):
            expand(CycloVector({2: -1}))

    def test_cap(self):
        from divides.alexander import ExpansionError

        with pytest.raises(ExpansionError):
            expand(CycloVector({1: 600}), degree_cap=512)

    def test_against_sympy_cyclotomics(self):
        import sympy

        t = sympy.Symbol("t")
        for d in (1, 2, 3, 4, 6, 10, 12, 15):
            ours = expand(CycloVector({d: 1}))
            theirs = sympy.Poly(sympy.cyclotomic_poly(d, t), t).all_coeffs()[::-1]
            assert ours == [int(c) for c in theirs]


class TestPeel:
    def test_trivial(self):
        res = peel_sequence(CycloVector({1: 1}))
        assert res.entries == ((1, 1),)
        assert res.r == 1

    def test_zero_vector(self):
        assert peel_sequence(CycloVector({})).entries == ()

    def test_first_index(self):
        v = to_cyclotomic(alexander_encode(ConjPairType(1, 0, (2,), (1,))))
        res = peel_sequence(v)
        assert res.entries[0][0] == 4

    def test_indices_strictly_decreasing(self):
        for T in SAMPLE_TYPES[::5]:
            ent = peel_sequence(to_cyclotomic(alexander_encode(T))).entries
            assert all(a[0] > b[0] for a, b in zip(ent, ent[1:]))

    def test_paper_readoff_on_unmerged_types(self):
        # where no factor indices merge: s = (r-1)//2 and i+1 = s - l//2
        for T in SAMPLE_TYPES:
            if T.n[T.i] == 1 and not (T.i == 0 and T.m[0] == 1):
                continue  # merged square factor: the formulas above do not hold
            if T.i == 0 and T.n[0] == 1 and T.m[0] == 1 and T.s > 1:
                continue  # fully collapsed spike
            res = peel_sequence(to_cyclotomic(alexander_encode(T)))
            if T.n[T.i] > 1:
                assert T.s == (res.r - 1) // 2, T
                assert T.i + 1 == T.s - res.l // 2, T


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
            assert got == search_preimages(v, (peel_sequence(v).r + 3) // 2), v


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
        assert v.degree() == milnor_number(conj_pair_singularity(T))

    @given(conj_pair_types())
    @settings(max_examples=60, deadline=None)
    def test_branch_delta_against_conductor(self, T):
        exps = branch_char_exponents(T)
        assert branch_delta(BranchType(exps)) == delta_conductor(exps)


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
            return sympy.Poly(sympy.cancel(expr), t).all_coeffs()[::-1]

        checked = 0
        for T in SAMPLE_TYPES:
            v = to_cyclotomic(alexander_encode(T))
            if v.degree() > 64:
                continue
            ours = expand(v, degree_cap=64)
            theirs = [int(c) for c in e1803_sympy(T)]
            assert ours == theirs, T
            checked += 1
        assert checked >= 10
