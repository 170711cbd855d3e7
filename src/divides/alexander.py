"""Reduced Alexander polynomials of conjugate branch pairs, exactly.

A pair of complex conjugate branches is parametrized by (s, i, m, n):
the two Puiseux expansions share the real terms x^(m_j/(n_1..n_j)) for
j <= i and differ by the sign of the purely imaginary tail.  The reduced
Alexander polynomial of the pair is a product of cyclotomic polynomials;
this module implements the closed-form factored encoding, the conversion
to an exact cyclotomic exponent vector, the peel decomposition, and the
decoding back to the pair type: a read-off of the peel sequence (the
encoding is injective), verified by re-encoding.
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
    """Two distinct valid types encode to the same vector; alexander_decode
    never raises it, because the encoding is injective."""


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


@dataclass(frozen=True)
class Derived:
    """Integer quantities feeding the factor formula."""

    n: int
    w: tuple[int, ...]
    e: dict[int, int]  # 1-based j -> e_j, for i+2 <= j <= s
    n_list: tuple[int, ...]

    def b(self, j1: int, j2: int) -> int:
        """Product n_{j1} .. n_{j2} (1-based, empty product = 1)."""
        if j1 > j2:
            return 1
        return prod(self.n_list[j1 - 1 : j2])


def w_sequence(m, n) -> list[int]:
    """The recursion w_1 = m_1, w_j = m_j - m_{j-1} n_j + w_{j-1} n_{j-1} n_j
    on raw exponent data (these are the Puiseux semigroup generators)."""
    w = [m[0]]
    for j in range(1, len(m)):
        w.append(m[j] - m[j - 1] * n[j] + w[j - 1] * n[j - 1] * n[j])
    return w


def derived_quantities(T: ConjPairType) -> Derived:
    s, i, m, n = T.s, T.i, T.m, T.n
    w = w_sequence(m, n)

    def b(j1, j2):
        return prod(n[j1 - 1 : j2]) if j1 <= j2 else 1

    e: dict[int, int] = {}
    for j in range(i + 2, s + 1):  # 1-based
        e[j] = w[i] * b(i + 1, s) * b(i + 2, j - 1) + w[j - 1] * b(j + 1, s)
    return Derived(prod(n), tuple(w), e, tuple(n))


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


class FactorForm:
    """Product of (t^N - 1)^k factors as a map N -> k, zero entries dropped."""

    __slots__ = ("factors",)

    def __init__(self, factors: dict[int, int]):
        clean = {}
        for N, k in factors.items():
            N, k = int(N), int(k)
            if N < 1:
                raise ValueError("factor indices must be >= 1")
            if k:
                clean[N] = clean.get(N, 0) + k
        self.factors = {N: k for N, k in sorted(clean.items()) if k}

    def degree(self) -> int:
        return sum(N * k for N, k in self.factors.items())

    def __eq__(self, other):
        return isinstance(other, FactorForm) and self.factors == other.factors

    def __repr__(self):
        return f"FactorForm({self.factors})"


class CycloVector:
    """Exponent vector over cyclotomic indices: product of Phi_d^exps[d]."""

    __slots__ = ("exps",)

    def __init__(self, exps: dict[int, int]):
        clean = {}
        for d, k in exps.items():
            d, k = int(d), int(k)
            if d < 1:
                raise ValueError("cyclotomic indices must be >= 1")
            if k:
                clean[d] = clean.get(d, 0) + k
        self.exps = {d: k for d, k in sorted(clean.items()) if k}

    def degree(self) -> int:
        return sum(k * totient(d) for d, k in self.exps.items())

    def __eq__(self, other):
        return isinstance(other, CycloVector) and self.exps == other.exps

    def __repr__(self):
        return f"CycloVector({self.exps})"


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
    """
    d = derived_quantities(T)
    s, i, n = T.s, T.i, T.n
    w = d.w
    fac: dict[int, int] = {}

    def add(N, k):
        fac[N] = fac.get(N, 0) + k

    add(1, 1)
    add(2 * d.n, -1)
    for j in range(1, i + 1):  # 1-based j <= i
        add(2 * w[j - 1] * d.b(j, s), +1)
        add(2 * w[j - 1] * d.b(j + 1, s), -1)
    add(2 * w[i] * d.b(i + 1, s), +2)
    add(2 * w[i] * d.b(i + 2, s), -1)
    for j in range(i + 2, s + 1):
        add(n[j - 1] * d.e[j], +2)
        add(d.e[j], -2)
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


def _parse_peel(entries) -> tuple[int, int, tuple[int, ...], tuple[int, ...]] | None:
    """Structural read-off of (s, i, m, n) from a peel sequence.

    The factor indices of alexander_encode(T) are strictly ordered except
    for two merges, both handled here: n_{i+1} = 1 collapsing the square
    factor, and the full collapse for i=0, n_1 = m_1 = 1.  So the peel
    sequence of an encoded vector is its reduced factor form, and this
    read-off inverts the encoder.  Returns None whenever the sequence does
    not match that form.
    """
    entries = list(entries)
    top: list[tuple[int, int]] = []  # (n_j, e_j), j = s down to i+2
    idx = 0
    while (
        idx + 1 < len(entries)
        and entries[idx][1] == 2
        and entries[idx + 1][1] == -2
        and entries[idx][0] != entries[idx + 1][0]
        and entries[idx][0] % entries[idx + 1][0] == 0
    ):
        top.append((entries[idx][0] // entries[idx + 1][0], entries[idx + 1][0]))
        idx += 2
    rest = entries[idx:]
    k = len(top)  # s - i - 1
    if not rest or rest[-1] != (1, 1):
        return None

    if rest == [(1, 1)]:
        # spike and 2n entries fully cancelled: i = 0, n_1 = 1, m_1 = 1
        if k == 0:
            return None
        n_ip1 = 1
        i = 0
        pair_entries: list[tuple[int, int]] = []
        S = None  # implied, equals 2n
        two_n = None
    elif rest[0][1] == 2:
        if len(rest) < 4 or rest[1][1] != -1 or rest[0][0] % rest[1][0] != 0:
            return None
        S = rest[0][0]
        n_ip1 = rest[0][0] // rest[1][0]
        if n_ip1 == 1:
            return None
        body = rest[2:]
        if len(body) % 2 != 0 or body[-2][1] != -1:
            return None
        two_n = body[-2][0]
        pair_entries = body[:-2]
        i = len(pair_entries) // 2
    elif rest[0][1] == 1 and len(rest) >= 3:
        S = rest[0][0]
        n_ip1 = 1
        body = rest[1:]
        if len(body) % 2 != 0 or body[-2][1] != -1:
            return None
        two_n = body[-2][0]
        pair_entries = body[:-2]
        i = len(pair_entries) // 2
    else:
        return None

    s = i + 1 + k
    # n_j for 1-based j: pairs give j = i..1 descending, top gives j = s..i+2
    n_list = [0] * s
    n_list[i] = n_ip1
    for idx2, (nj, _) in enumerate(top):
        n_list[s - 1 - idx2] = nj
    U: dict[int, int] = {}
    L: dict[int, int] = {}
    for p in range(i):
        u_ent, l_ent = pair_entries[2 * p], pair_entries[2 * p + 1]
        if u_ent[1] != 1 or l_ent[1] != -1:
            return None
        if u_ent[0] % l_ent[0] != 0 or u_ent[0] == l_ent[0]:
            return None
        j = i - p  # descending
        U[j], L[j] = u_ent[0], l_ent[0]
        n_list[j - 1] = u_ent[0] // l_ent[0]
    if any(v == 0 for v in n_list):
        return None
    n_total = prod(n_list)
    if two_n is not None and two_n != 2 * n_total:
        return None
    if S is None:
        S = 2 * n_total

    def b(j1, j2):
        return prod(n_list[j1 - 1 : j2]) if j1 <= j2 else 1

    w = [0] * s
    denom = 2 * b(i + 1, s)
    if S % denom != 0:
        return None
    w[i] = S // denom
    for j in range(1, i + 1):
        dd = 2 * b(j, s)
        if U[j] % dd != 0:
            return None
        w[j - 1] = U[j] // dd
        if L[j] != 2 * w[j - 1] * b(j + 1, s):
            return None
    for idx2, (nj, ej) in enumerate(top):
        j = s - idx2  # 1-based
        rem = ej - w[i] * b(i + 1, s) * b(i + 2, j - 1)
        dd = b(j + 1, s)
        if rem <= 0 or rem % dd != 0:
            return None
        w[j - 1] = rem // dd
    m = [0] * s
    m[0] = w[0]
    for j in range(2, s + 1):
        m[j - 1] = w[j - 1] - w[j - 2] * n_list[j - 2] * n_list[j - 1] + m[j - 2] * n_list[j - 1]
        if m[j - 1] <= 0:
            return None
    return s, i, tuple(m), tuple(n_list)


def alexander_decode(v: CycloVector) -> ConjPairType | NodeType:
    """Invert the encoding by reading the type off the peel sequence.

    Degree-1 vectors decode to NodeType.  The read-off recovers every
    encoded type (see _parse_peel), so the encoding is injective and the
    read-off is the whole decoder.  The result is verified by re-encoding;
    NotInImage is raised when the read-off fails or does not reproduce v.
    """
    if not v.exps:
        raise NotInImage("empty vector")
    deg = v.degree()
    if any(k < 0 for k in v.exps.values()):
        raise NotInImage("negative cyclotomic exponents")
    if deg == 1:
        if v.exps == {1: 1}:
            return NodeType()
        raise NotInImage("degree-1 vector is not (t - 1)")
    if deg % 2 == 0:
        raise NotInImage("degree must be odd (2*delta - 1)")
    parsed = _parse_peel(peel_sequence(v).entries)
    if parsed is None:
        raise NotInImage("peel sequence is not the factor form of a conjugate pair")
    try:
        T = ConjPairType(*parsed)
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
