"""Reduced Alexander polynomials of conjugate branch pairs, exactly.

A pair of complex conjugate branches is parametrized by (s, i, m, n):
the two Puiseux expansions share the real terms x^(m_j/(n_1..n_j)) for
j <= i and differ by the sign of the purely imaginary tail.  The reduced
Alexander polynomial of the pair is a product of cyclotomic polynomials;
this module implements the closed-form factored encoding, the conversion
to an exact cyclotomic exponent vector, the peel decomposition, and the
decoding back to the pair type.  The decoder is a read-off of the peel
sequence, verified by the re-encode: re-encoding what was read and
comparing with the input alone decides membership (the encoding is
injective).  The comparison is made in factor form, against the peel
sequence itself: t^N - 1 is the product of Phi_d over d | N, so
to_cyclotomic is unitriangular in the divisor order and peeling is its
exact inverse, the Moebius inversion F[N] = sum_{N | d} mu(d/N) v[d], and
F and v agree after to_cyclotomic exactly when F's factors are v's peel
entries.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import mul

from .singularity import BranchType, SingularityType, integers, mapping


class InvalidConjPair(ValueError):
    """Parameter tuple violates the conjugate-pair normal form."""


class NotInImage(ValueError):
    """No valid conjugate-pair type encodes to the given vector."""


class AmbiguousDecode(ValueError):
    """Never raised: the encoding is injective, so no two types share a
    vector.  It stays only because perfbench/workloads.offimage_op names it
    in an ``except`` tuple; Python evaluates that tuple when NotInImage
    reaches it, so without this class every off-image operation would
    fail with AttributeError."""


@lru_cache(maxsize=None)
def _factorize(N: int) -> tuple[tuple[int, int], ...]:
    out = []
    d, rem = 2, N
    while d * d <= rem:
        if rem % d == 0:
            a = 0
            while rem % d == 0:
                rem //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if rem > 1:
        out.append((rem, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(N: int) -> tuple[int, ...]:
    divs = [1]
    for p, a in _factorize(N):
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return tuple(sorted(divs))


@lru_cache(maxsize=None)
def totient(d: int) -> int:
    t = d
    for p, _ in _factorize(d):
        t = t // p * (p - 1)
    return t


@dataclass(frozen=True)
class ConjPairType:
    """Normal form (s, i, m, n) of a pair of conjugate branches.

    ``intersection`` is the pair's intersection multiplicity, computed once
    when the fields are stored; it takes no part in equality, hashing or repr."""

    s: int
    i: int
    m: tuple[int, ...]
    n: tuple[int, ...]
    intersection: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s, i = integers((self.s, self.i), InvalidConjPair)
        m, n = integers(self.m, InvalidConjPair, s), integers(self.n, InvalidConjPair, s)
        _check_normal_form(s, i, m, n, InvalidConjPair)
        self._store(s, i, m, n)

    def _store(self, s: int, i: int, m: tuple[int, ...], n: tuple[int, ...]) -> ConjPairType:
        """Store fields that already meet the normal form, unchecked, and the
        intersection they give."""
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "intersection", pair_intersection(self))
        return self


def _check_normal_form(s: int, i: int, m, n, error):
    """Raise error(message) unless the ints (s, i, m, n), m and n of length s, are a normal form."""
    if s < 1:
        raise error("s must be >= 1")
    if not (0 <= i < s):
        raise error("need 0 <= i < s")
    if min(m) < 1 or min(n) < 1:
        raise error("m_j and n_j must be positive")
    for j, (mj, nj) in enumerate(zip(m, n)):
        if gcd(mj, nj) != 1:
            raise error(f"gcd(m_{j + 1}, n_{j + 1}) != 1")
        if nj == 1 and j != i:
            raise error(f"n_{j + 1} must exceed 1 away from slot i+1")
    # exponents m_j/(n_1..n_j) strictly increasing, starting at >= 1
    if m[0] < n[0]:
        raise error("first exponent m_1/n_1 must be >= 1")
    for j in range(1, s):
        if m[j] <= m[j - 1] * n[j]:
            raise error("exponents must strictly increase")
    # n_{i+1} must be odd: an even value admits a root of unity fixing
    # the common part while killing the leading imaginary term, so the
    # expansions either trace a single real branch (no pair at all) or
    # acquire extra contact outside the factored-polynomial normal form
    if n[i] % 2 == 0:
        raise error("n_{i+1} must be odd for a genuine conjugate pair")


@dataclass(frozen=True)
class NodeType:
    """Distinguished decode result: degree-1 polynomial, an elliptic node
    (two smooth conjugate branches meeting transversally)."""

    def as_conj_pair(self) -> ConjPairType:
        return ConjPairType(1, 0, (1,), (1,))


def w_sequence(m, n) -> list[int]:
    """The recursion w_1 = m_1, w_j = m_j - m_{j-1} n_j + w_{j-1} n_{j-1} n_j
    on raw exponent data (these are the Puiseux semigroup generators)."""
    w = [m[0]]
    for j in range(1, len(m)):
        w.append(m[j] - m[j - 1] * n[j] + w[j - 1] * n[j - 1] * n[j])
    return w


def _suffix_products(n) -> list[int]:
    """suf[j] = n_{j+1} .. n_s (1-based n), so suf[0] = n_1 .. n_s and
    suf[s] = 1; b_{j1,j2} = n_{j1} .. n_{j2} is suf[j1 - 1] // suf[j2]."""
    suf = [1]
    for nj in reversed(n):
        suf.append(suf[-1] * nj)
    suf.reverse()
    return suf


def pair_intersection(T: ConjPairType) -> int:
    """Intersection multiplicity of the two conjugate branches, in O(s).

    Slots are 0-based here: B[k] = m[k] suf[k + 1] is the tau-exponent of
    slot k, with suf = _suffix_products(n), so suf[0] = n.  The multiplicity
    is the sum, over the n-th roots of unity zeta = e^(2 pi i j/n), of the
    valuation of the difference of the two expansions composed with
    tau -> zeta*tau: the first B[k] whose coefficient is nonzero, that is
    1 - zeta^B[k] for k < i and 1 + zeta^B[k] for k >= i.

    gcd(m[k], n[k]) = 1 gives gcd(n, B[0], .., B[k - 1]) = suf[k], so
    exactly suf[k] roots pass the first k slots, and suf[k] - suf[k + 1] of
    them stop at slot k.  Every root that reaches slot i stops there: with
    j = n[0] .. n[i - 1] u, 1 + zeta^B[i] = 0 reads 2 u m[i] = n[i]
    (mod 2 n[i]), which is impossible because ConjPairType requires n[i]
    odd.  Hence

        I = sum_{k < i} B[k] (suf[k] - suf[k + 1]) + B[i] suf[i].
    """
    suf = _suffix_products(T.n)
    i, m = T.i, T.m
    total = m[i] * suf[i + 1] * suf[i]
    for k in range(i):
        total += m[k] * suf[k + 1] * (suf[k] - suf[k + 1])
    return total


def branch_char_exponents(T: ConjPairType) -> tuple[int, ...]:
    """Characteristic exponents of either branch of the pair: n, then the
    tau-exponents B[k] (see pair_intersection) of the slots with n[k] > 1."""
    suf = _suffix_products(T.n)
    if suf[0] == 1:
        return (1,)
    return (suf[0],) + tuple(mk * bk for mk, nk, bk in zip(T.m, T.n, suf[1:]) if nk > 1)


_branch = lru_cache(maxsize=None)(BranchType)


def conj_pair_singularity(T: ConjPairType) -> SingularityType:
    """The two-branch singularity (pair plus its intersection) in the
    invariant model's terms, from interned branch types, each validated once
    (1,292 serve the 19,358 types of enumerate_conj_pair_types(4, 5, 40)), and
    stored unchecked, as it passes SingularityType's checks by construction: its
    table is symmetric and its own mirror, and q = T.intersection >= b0^2 (b0 = suf[0]),
    as pair_intersection's B[k] are >= B[0] >= b0 and its weights sum to suf[0]."""
    branch = _branch(branch_char_exponents(T))
    q = T.intersection
    return SingularityType.__new__(SingularityType)._store((), (branch,), ((0, q), (q, 0)), 2 * branch.delta + q)


# --- factored and cyclotomic representations --------------------------------


class _Exponents:
    """Integer exponents over integer indices >= 1, zeros dropped and sorted
    by index; a subclass names the field that holds them."""

    __slots__ = ()
    field = ""

    def __init__(self, exps: dict[int, int]):
        def error(message):
            return ValueError(f"{type(self).__name__} indices and exponents must be integers: {message}")
        clean = mapping(exps, error, integers, integers)
        if min(clean, default=1) < 1:
            raise ValueError(f"{type(self).__name__} indices must be >= 1")
        self._normalise(clean)

    def _normalise(self, exps: dict[int, int]):
        """Store exps, int indices >= 1 to ints, zeros dropped and sorted."""
        setattr(self, self.field, {d: k for d, k in sorted(exps.items()) if k})
        return self

    def __eq__(self, other):
        return type(other) is type(self) and getattr(self, self.field) == getattr(other, self.field)

    def __repr__(self):
        return f"{type(self).__name__}({getattr(self, self.field)})"


class FactorForm(_Exponents):
    """Product of (t^N - 1)^k factors as a map N -> k, zero entries dropped."""

    __slots__ = ("factors",)
    field = "factors"

    def degree(self) -> int:
        return sum(N * k for N, k in self.factors.items())


class CycloVector(_Exponents):
    """Exponent vector over cyclotomic indices: product of Phi_d^exps[d]."""

    __slots__ = ("exps",)
    field = "exps"

    def degree(self) -> int:
        return sum(map(mul, self.exps.values(), map(totient, self.exps)))


def to_cyclotomic(F: FactorForm) -> CycloVector:
    """Expand each (t^N - 1)^k over the cyclotomic factors of t^N - 1."""
    exps: dict[int, int] = {}
    for N, k in F.factors.items():
        for d in divisors(N):
            exps[d] = exps.get(d, 0) + k
    return CycloVector.__new__(CycloVector)._normalise(exps)


# --- encoding ---------------------------------------------------------------


def alexander_encode(T: ConjPairType) -> FactorForm:
    """Factored reduced Alexander polynomial of the pair.

    (t-1)/(t^{2n}-1) * prod_{j<=i} (t^{2 w_j b_{j,s}}-1)/(t^{2 w_j b_{j+1,s}}-1)
    * (t^{2 w_{i+1} b_{i+1,s}}-1)^2 / (t^{2 w_{i+1} b_{i+2,s}}-1)
    * prod_{j>=i+2} [(t^{n_j e_j}-1)/(t^{e_j}-1)]^2

    with n = n_1 .. n_s, w from w_sequence and
    e_j = w_{i+1} b_{i+1,s} b_{i+2,j-1} + w_j b_{j+1,s}.
    """
    return FactorForm.__new__(FactorForm)._normalise(_factor_map(T))


def _factor_map(T: ConjPairType) -> dict[int, int]:
    return _factors(T.i, T.n, w_sequence(T.m, T.n), _suffix_products(T.n))


def _factors(i, n, w, suf) -> dict[int, int]:
    """alexander_encode's factors as N -> k, zeros kept, from n's w_sequence w and _suffix_products suf."""
    fac = {1: 1, 2 * suf[0]: -1}
    for j in range(1, i + 1):  # 1-based j <= i
        U, L = 2 * w[j - 1] * suf[j - 1], 2 * w[j - 1] * suf[j]
        fac[U] = fac.get(U, 0) + 1
        fac[L] = fac.get(L, 0) - 1
    S, L = 2 * w[i] * suf[i], 2 * w[i] * suf[i + 1]
    fac[S] = fac.get(S, 0) + 2
    fac[L] = fac.get(L, 0) - 1
    for j in range(i + 2, len(n) + 1):
        e = w[i] * suf[i] * (suf[i + 1] // suf[j - 1]) + w[j - 1] * suf[j]
        fac[n[j - 1] * e] = fac.get(n[j - 1] * e, 0) + 2
        fac[e] = fac.get(e, 0) - 2
    return fac


# --- peel decomposition and decoding ----------------------------------------


def peel_sequence(v: CycloVector) -> tuple[tuple[int, int], ...]:
    """Repeatedly strip (t^d - 1)^eps at the maximal cyclotomic index; the
    (d, eps) entries, d strictly decreasing: the module docstring's inversion."""
    exps = dict(v.exps)
    entries: list[tuple[int, int]] = []
    while exps:
        d = max(exps)
        eps = exps[d]
        for q in divisors(d):
            nv = exps.get(q, 0) - eps
            if nv:
                exps[q] = nv
            else:
                exps.pop(q, None)
        entries.append((d, eps))
    return tuple(entries)


def _read_peel(entries: tuple[tuple[int, int], ...]) -> tuple[int, int, list[int], list[int], list[int], list[int]]:
    """Read (s, i, m, n, w, suf) off the peel sequence of an encoded vector.

    In descending order, the peel sequence of alexander_encode(T) is its
    factor form: (n_j e_j, +2), (e_j, -2) for j = s .. i+2; the head,
    (S, +2), (S/n_{i+1}, -1), or (S, +1) when n_{i+1} = 1, where
    S = 2 w_{i+1} b_{i+1,s}; (U_j, +1), (L_j, -1) with U_j = 2 w_j b_{j,s}
    and L_j = U_j / n_j for j = i .. 1; (2n, -1); (1, +1).  When i = 0 and
    n_1 = m_1 = 1, all that follows the top pairs cancels to (1, +1).
    Nothing here checks that form: alexander_decode re-encodes the result from
    w and suf, which equal w_sequence(m, n) and _suffix_products(n) exactly.
    Indices strictly decrease along a peel sequence, so every ratio read
    here is at least 1.
    """
    t, top = 0, []  # (n_j, e_j) for j = s down to i+2
    while len(entries) > t + 1 and entries[t][1] == 2 and entries[t + 1][1] == -2:
        (N, _), (e, _) = entries[t], entries[t + 1]
        top.append((N // e, e))
        t += 2
    entries = entries[t:]
    if entries == ((1, 1),):  # i = 0 and w_1 = m_1 = n_1 = 1
        S, n_head, lows = None, 1, []
    else:
        width = 2 if entries and entries[0][1] == 2 else 1
        if len(entries) < width + 2:
            raise NotInImage("peel sequence too short for a conjugate pair")
        S = entries[0][0]
        n_head = S // entries[1][0] if width == 2 else 1
        pairs = [d for d, _ in entries[width:-2]]
        lows = list(zip(pairs[::2], pairs[1::2]))[::-1]  # (U_j, L_j), j = 1 .. i
    i = len(lows)
    s = i + 1 + len(top)
    n = [U // L for U, L in lows] + [n_head] + [nj for nj, _ in reversed(top)]
    suf = _suffix_products(n)
    w = [U // (2 * suf[j - 1]) for j, (U, _) in enumerate(lows, 1)]
    w.append(S // (2 * suf[i]) if S else 1)
    for j, (_, e) in enumerate(reversed(top), i + 2):
        w.append((e - w[i] * suf[i] * (suf[i + 1] // suf[j - 1])) // suf[j])
    m = [w[0]]  # inverse of w_sequence
    for j in range(1, s):
        m.append(w[j] - w[j - 1] * n[j - 1] * n[j] + m[j - 1] * n[j])
    return s, i, m, n, w, suf


def alexander_decode(v: CycloVector) -> ConjPairType | NodeType:
    """Invert the encoding by reading the type off the peel sequence.

    (t - 1) decodes to NodeType.  Otherwise the read-off recovers every
    encoded type, and the encoding is injective, so v is in the image
    exactly when what was read is a valid type that re-encodes to v;
    NotInImage is raised otherwise.  The re-encode, made from the read-off w
    and suffix products (the type's own: m is w's exact integer inverse), is
    compared in factor form with v's peel entries, which is the same test as
    comparing its to_cyclotomic with v (see the module docstring).
    """
    if v.exps == {1: 1}:
        return NodeType()
    entries = peel_sequence(v)
    s, i, m, n, w, suf = _read_peel(entries)
    _check_normal_form(s, i, m, n, lambda message: NotInImage(f"read-off parameters are not a valid type: {message}"))
    if {N: k for N, k in _factors(i, n, w, suf).items() if k} != dict(entries):
        raise NotInImage("read-off type does not re-encode to this vector")
    return ConjPairType.__new__(ConjPairType)._store(s, i, tuple(m), tuple(n))


def enumerate_conj_pair_types(s_max: int, n_max: int, m_max: int):
    """All valid types with s <= s_max, n_j <= n_max, m_j <= m_max, in the
    lexicographic (s, i, n, m) order that the codec benchmark's seeded shuffle
    depends on, walking only normal-form tuples (see ConjPairType).  The least
    m-chain n_1 .. n_j allows, c_1 = n_1 + [n_1 > 1], c_j = c_{j-1} n_j + 1, is
    tight (c_j is coprime to n_j) and grows with n_j: the first n_j with
    c_j > m_max ends that slot's loop.  For a whole n, m_j <= u_j, u_s = m_max,
    u_j = (u_{j+1} - 1) // n_{j+1}, so every m_j bisected out of the values
    coprime to n_j in [c, u_j] extends to a chain.  Each type is thus valid by
    construction and stored once, by ConjPairType._store: __post_init__, the
    gate for input from outside the program, would only check it again.  The bounds are read by integers()."""
    s_max, n_max, m_max = integers((s_max, n_max, m_max), ValueError)
    coprime = [[mj for mj in range(m_max + 1) if gcd(mj, nj) == 1] for nj in range(min(n_max, m_max) + 1)]
    for s in range(1, s_max + 1):
        for i in range(s):
            for n in _n_walk(s, i, n_max, m_max, (), 0):
                u = [*accumulate(n[:0:-1], lambda uj, nj: (uj - 1) // nj, initial=m_max)]  # u_s .. u_1
                chains = [()]
                for nj, uj in zip(n, reversed(u)):
                    vals, top = coprime[nj], bisect_right(coprime[nj], uj)
                    chains = [m + (mj,) for m in chains
                              for mj in vals[bisect_left(vals, m[-1] * nj + 1 if m else nj):top]]
                for m in chains:
                    yield ConjPairType.__new__(ConjPairType)._store(s, i, m, n)


def _n_walk(s: int, i: int, n_max: int, m_max: int, n: tuple[int, ...], c: int):
    """In lexicographic order, the n that extend the prefix n, whose least
    m-chain ends at c, and that allow an m-chain under m_max."""
    j = len(n)
    if j == s:
        yield n
        return
    for nj in range(1, n_max + 1, 2) if j == i else range(2, n_max + 1):
        cj = c * nj + 1 if j else nj + (nj > 1)
        if cj > m_max:
            break
        yield from _n_walk(s, i, n_max, m_max, n + (nj,), cj)


def conj_pair_to_json(T: ConjPairType) -> dict:
    return {"s": T.s, "i": T.i, "m": list(T.m), "n": list(T.n)}


def conj_pair_from_json(obj: dict) -> ConjPairType:
    try:  # ConjPairType raises only InvalidConjPair
        return ConjPairType(obj["s"], obj["i"], obj["m"], obj["n"])
    except (KeyError, TypeError) as exc:
        raise InvalidConjPair(f"malformed conjugate-pair data: {exc}") from exc
