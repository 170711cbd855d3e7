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
injective).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from .singularity import BranchType, SingularityType


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


class ExpansionError(ValueError):
    """Vector is not a polynomial or exceeds the expansion degree cap."""


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
    """Normal form (s, i, m, n) of a pair of conjugate branches."""

    s: int
    i: int
    m: tuple[int, ...]
    n: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        s, i, m, n = self.s, self.i, self.m, self.n
        if s < 1:
            raise InvalidConjPair("s must be >= 1")
        if not (0 <= i < s):
            raise InvalidConjPair("need 0 <= i < s")
        if len(m) != s or len(n) != s:
            raise InvalidConjPair("m and n must have length s")
        if any(v < 1 for v in m) or any(v < 1 for v in n):
            raise InvalidConjPair("m_j and n_j must be positive")
        for j in range(s):
            if gcd(m[j], n[j]) != 1:
                raise InvalidConjPair(f"gcd(m_{j + 1}, n_{j + 1}) != 1")
            if j != i and n[j] == 1:
                raise InvalidConjPair(f"n_{j + 1} must exceed 1 away from slot i+1")
        # exponents m_j/(n_1..n_j) strictly increasing, starting at >= 1
        if m[0] < n[0]:
            raise InvalidConjPair("first exponent m_1/n_1 must be >= 1")
        for j in range(1, s):
            if m[j] <= m[j - 1] * n[j]:
                raise InvalidConjPair("exponents must strictly increase")
        # n_{i+1} must be odd: an even value admits a root of unity fixing
        # the common part while killing the leading imaginary term, so the
        # expansions either trace a single real branch (no pair at all) or
        # acquire extra contact outside the factored-polynomial normal form
        if n[i] % 2 == 0:
            raise InvalidConjPair("n_{i+1} must be odd for a genuine conjugate pair")
        if pair_intersection(self) is None:
            raise InvalidConjPair("expansions coincide; not a conjugate pair")

    @property
    def mt(self) -> int:
        return prod(self.n)


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


def _b(n, j1: int, j2: int) -> int:
    """b_{j1,j2} = n_{j1} .. n_{j2} (1-based); an empty span gives 1."""
    return prod(n[j1 - 1 : j2])


def _tau_exponents(T: ConjPairType) -> list[int]:
    """Exponents of the parametrization y-terms in x = tau^n coordinates."""
    return [T.m[j] * prod(T.n[j + 1 :]) for j in range(T.s)]


def pair_intersection(T: ConjPairType) -> int | None:
    """Intersection multiplicity of the two conjugate branches.

    Sums, over the n-th roots of unity zeta, the valuation of the
    difference of the two expansions composed with tau -> zeta*tau.
    Returns None if some zeta makes the difference vanish, i.e. the
    expansions parametrize a single branch, which ConjPairType rejects.
    """
    n = prod(T.n)
    B = _tau_exponents(T)
    total = 0
    for j in range(n):
        v = None
        for k, Bk in enumerate(B):
            if k < T.i:
                nonzero = (j * Bk) % n != 0  # coefficient 1 - zeta^B
            else:
                nonzero = (2 * j * Bk) % (2 * n) != n  # coefficient 1 + zeta^B
            if nonzero:
                v = Bk
                break
        if v is None:
            return None
        total += v
    return total


def branch_char_exponents(T: ConjPairType) -> tuple[int, ...]:
    """Characteristic exponents of either branch of the pair."""
    n = T.mt
    if n == 1:
        return (1,)
    B = _tau_exponents(T)
    return (n,) + tuple(B[j] for j in range(T.s) if T.n[j] > 1)


def conj_pair_singularity(T: ConjPairType) -> SingularityType:
    """The two-branch singularity (pair plus its intersection) in the
    invariant model's terms."""
    branch = BranchType(branch_char_exponents(T))
    q = pair_intersection(T)
    table = ((0, q), (q, 0))
    return SingularityType((), (branch,), table)


# --- factored and cyclotomic representations --------------------------------


class _Exponents:
    """Integer exponents over indices >= 1, summed per index, zeros dropped
    and sorted by index; a subclass names the field that holds them."""

    __slots__ = ()
    field = ""

    def __init__(self, exps: dict[int, int]):
        clean: dict[int, int] = {}
        for d, k in exps.items():
            d, k = int(d), int(k)
            if d < 1:
                raise ValueError(f"{type(self).__name__} indices must be >= 1")
            clean[d] = clean.get(d, 0) + k
        setattr(self, self.field, {d: k for d, k in sorted(clean.items()) if k})

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
        return sum(k * totient(d) for d, k in self.exps.items())


def to_cyclotomic(F: FactorForm) -> CycloVector:
    """Expand each (t^N - 1)^k over the cyclotomic factors of t^N - 1."""
    exps: dict[int, int] = {}
    for N, k in F.factors.items():
        for d in divisors(N):
            exps[d] = exps.get(d, 0) + k
    return CycloVector(exps)


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d, lowest degree first, by exact division of
    t^d - 1 by the proper-divisor cyclotomics."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in divisors(d):
        if e == d:
            continue
        poly = _polydiv_exact(poly, list(_cyclotomic_coeffs(e)))
    return tuple(poly)


def _polymul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for k in range(len(num) - 1 - dn, -1, -1):
        c = num[k + dn]
        assert c % lead == 0, "non-exact polynomial division"
        q = c // lead
        out[k] = q
        if q:
            for j, dj in enumerate(den):
                num[k + j] -= q * dj
    assert all(c == 0 for c in num), "non-zero remainder"
    return out


def expand(v: CycloVector, degree_cap: int = 512) -> list[int]:
    """Integer coefficients (lowest degree first) of the product of
    cyclotomic polynomials. Requires all exponents >= 0."""
    if any(k < 0 for k in v.exps.values()):
        raise ExpansionError("negative cyclotomic exponent: not a polynomial")
    if v.degree() > degree_cap:
        raise ExpansionError(f"degree {v.degree()} exceeds cap {degree_cap}")
    out = [1]
    for d, k in v.exps.items():
        base = list(_cyclotomic_coeffs(d))
        for _ in range(k):
            out = _polymul(out, base)
    return out


# --- encoding ---------------------------------------------------------------


def alexander_encode(T: ConjPairType) -> FactorForm:
    """Factored reduced Alexander polynomial of the pair.

    (t-1)/(t^{2n}-1) * prod_{j<=i} (t^{2 w_j b_{j,s}}-1)/(t^{2 w_j b_{j+1,s}}-1)
    * (t^{2 w_{i+1} b_{i+1,s}}-1)^2 / (t^{2 w_{i+1} b_{i+2,s}}-1)
    * prod_{j>=i+2} [(t^{n_j e_j}-1)/(t^{e_j}-1)]^2

    with n = n_1 .. n_s, w from w_sequence and
    e_j = w_{i+1} b_{i+1,s} b_{i+2,j-1} + w_j b_{j+1,s}.
    """
    s, i, n = T.s, T.i, T.n
    w = w_sequence(T.m, n)
    fac: dict[int, int] = {}

    def add(N, k):
        fac[N] = fac.get(N, 0) + k

    add(1, 1)
    add(2 * T.mt, -1)
    for j in range(1, i + 1):  # 1-based j <= i
        add(2 * w[j - 1] * _b(n, j, s), +1)
        add(2 * w[j - 1] * _b(n, j + 1, s), -1)
    add(2 * w[i] * _b(n, i + 1, s), +2)
    add(2 * w[i] * _b(n, i + 2, s), -1)
    for j in range(i + 2, s + 1):
        e = w[i] * _b(n, i + 1, s) * _b(n, i + 2, j - 1) + w[j - 1] * _b(n, j + 1, s)
        add(n[j - 1] * e, +2)
        add(e, -2)
    return FactorForm(fac)


# --- peel decomposition and decoding ----------------------------------------


@dataclass(frozen=True)
class PeelResult:
    entries: tuple[tuple[int, int], ...]  # (d_k, eps_k), d_k strictly decreasing
    r: int  # number of peels
    l: int  # even eps count in the maximal initial run of even values


def peel_sequence(v: CycloVector) -> PeelResult:
    """Repeatedly strip (t^d - 1)^eps at the maximal cyclotomic index."""
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
    l = 0
    for _, eps in entries:
        if eps % 2 == 0:
            l += 1
        else:
            break
    return PeelResult(tuple(entries), len(entries), l)


def _read_peel(entries) -> tuple[int, int, list[int], list[int]]:
    """Read (s, i, m, n) off the peel sequence of an encoded vector.

    In descending order, the peel sequence of alexander_encode(T) is its
    factor form: (n_j e_j, +2), (e_j, -2) for j = s .. i+2; the head,
    (S, +2), (S/n_{i+1}, -1), or (S, +1) when n_{i+1} = 1, where
    S = 2 w_{i+1} b_{i+1,s}; (U_j, +1), (L_j, -1) with U_j = 2 w_j b_{j,s}
    and L_j = U_j / n_j for j = i .. 1; (2n, -1); (1, +1).  When i = 0 and
    n_1 = m_1 = 1, all that follows the top pairs cancels to (1, +1).
    Nothing here checks that form: alexander_decode re-encodes the result.
    Indices strictly decrease along a peel sequence, so every ratio read
    here is at least 1.
    """
    entries = list(entries)
    top = []  # (n_j, e_j) for j = s down to i+2
    while len(entries) >= 2 and entries[0][1] == 2 and entries[1][1] == -2:
        (N, _), (e, _) = entries[:2]
        top.append((N // e, e))
        del entries[:2]
    if entries == [(1, 1)]:  # i = 0 and w_1 = m_1 = n_1 = 1
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
    w = [U // (2 * _b(n, j, s)) for j, (U, _) in enumerate(lows, 1)]
    w.append(S // (2 * _b(n, i + 1, s)) if S else 1)
    for j, (_, e) in enumerate(reversed(top), i + 2):
        w.append((e - w[i] * _b(n, i + 1, s) * _b(n, i + 2, j - 1)) // _b(n, j + 1, s))
    m = [w[0]]  # inverse of w_sequence
    for j in range(1, s):
        m.append(w[j] - w[j - 1] * n[j - 1] * n[j] + m[j - 1] * n[j])
    return s, i, m, n


def alexander_decode(v: CycloVector) -> ConjPairType | NodeType:
    """Invert the encoding by reading the type off the peel sequence.

    (t - 1) decodes to NodeType.  Otherwise the read-off recovers every
    encoded type, and the encoding is injective, so v is in the image
    exactly when what was read is a valid type that re-encodes to v;
    NotInImage is raised otherwise.
    """
    if v.exps == {1: 1}:
        return NodeType()
    try:
        T = ConjPairType(*_read_peel(peel_sequence(v).entries))
    except InvalidConjPair as exc:
        raise NotInImage(f"read-off parameters are not a valid type: {exc}") from exc
    if to_cyclotomic(alexander_encode(T)) != v:
        raise NotInImage("read-off type does not re-encode to this vector")
    return T


def enumerate_conj_pair_types(s_max: int, n_max: int, m_max: int):
    """All valid types with s <= s_max, n_j <= n_max, m_j <= m_max."""

    def rec_m(s, i, n, m, j):
        if j == s:
            try:
                yield ConjPairType(s, i, tuple(m), tuple(n))
            except InvalidConjPair:
                pass
            return
        lo = n[0] if j == 0 else m[j - 1] * n[j] + 1
        for mj in range(lo, m_max + 1):
            if gcd(mj, n[j]) == 1:
                yield from rec_m(s, i, n, m + [mj], j + 1)

    def rec_n(s, i, n, j):
        if j == s:
            yield from rec_m(s, i, n, [], 0)
            return
        lo = 1 if j == i else 2
        for nj in range(lo, n_max + 1):
            yield from rec_n(s, i, n + [nj], j + 1)

    for s in range(1, s_max + 1):
        for i in range(s):
            yield from rec_n(s, i, [], 0)


def conj_pair_to_json(T: ConjPairType) -> dict:
    return {"s": T.s, "i": T.i, "m": list(T.m), "n": list(T.n)}


def conj_pair_from_json(obj: dict) -> ConjPairType:
    try:
        return ConjPairType(int(obj["s"]), int(obj["i"]), tuple(obj["m"]), tuple(obj["n"]))
    except (KeyError, TypeError) as exc:
        raise InvalidConjPair(f"malformed conjugate-pair data: {exc}") from exc
