"""Independent oracles used only by the test suite.

These deliberately recompute quantities by different routes than the
library: a literal blow-up of exact Puiseux parametrizations for the
multiplicity sequence and delta, the conductor formula for delta,
sympy rational-function arithmetic for Alexander polynomials, a
complete bounded search over conjugate-pair types for the decoder, their
enumeration by filtering every tuple of a box through validation, the
pair intersection as a literal sum over roots of unity, and
the deformation families as exact sympy expressions, multiplied out
symbolically, for the numeric coefficient matrices.  Two numeric
references keep the tracer's array kernels honest: the evaluator as one
einsum per partial, and the local minima of a grid by eight neighbour
comparisons.  The strand artifacts are written again one point and one
f-string at a time.  The codec's exponent maps are normalised again the
way they were before the module shared one normaliser, and peeled again
by summing the Moebius inversion.  The AG diagram's region-region edges
are found again from the divide's one-cells, its walks cut into edge
chains.  The branch walks are checked step by step against the
rotations, and their order against the boundary and the edge ids.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import gcd, inf, prod
from typing import Callable

import numpy as np
import sympy

from divides.alexander import ConjPairType, CycloVector, InvalidConjPair, alexander_encode, to_cyclotomic
from divides.families import radial_profile_levels
from divides.render import PALETTE, fmt

X, Y, T = sympy.symbols("x y t", real=True)


class NeedMoreTerms(Exception):
    pass


class Ser:
    """Truncated power series over Fraction.

    ``order is None`` means the series is exact (all omitted coefficients
    are zero); otherwise coefficients are known for exponents < order.
    """

    __slots__ = ("c", "order")

    def __init__(self, c, order=None):
        if order is None:
            self.c = {e: v for e, v in c.items() if v != 0}
        else:
            self.c = {e: v for e, v in c.items() if v != 0 and e < order}
        self.order = order

    def val(self):
        if self.c:
            return min(self.c)
        if self.order is None:
            return inf
        raise NeedMoreTerms

    def is_monomial(self):
        return self.order is None and len(self.c) == 1

    def shift(self, k):
        return Ser({e + k: v for e, v in self.c.items()},
                   None if self.order is None else self.order + k)

    def sub_const(self):
        c = dict(self.c)
        c.pop(0, None)
        return Ser(c, self.order)

    def mul(self, other):
        lb_self = min(self.c) if self.c else (self.order if self.order is not None else inf)
        lb_other = min(other.c) if other.c else (other.order if other.order is not None else inf)
        order = inf
        if self.order is not None:
            order = min(order, self.order + lb_other)
        if other.order is not None:
            order = min(order, other.order + lb_self)
        out: dict = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                if e < order:
                    out[e] = out.get(e, Fraction(0)) + v1 * v2
        return Ser(out, None if order is inf else int(order))


def _inv_unit(u: Ser, budget: int) -> Ser:
    """Inverse of a series with val 0, truncated at ``budget`` terms."""
    order = budget if u.order is None else min(u.order, budget)
    c0 = u.c[0]
    tail = sorted((e, v) for e, v in u.c.items() if e != 0 and e < order)
    result = {0: Fraction(1) / c0}
    if tail:
        # r_k = -(1/c0) * sum_{0<j<=k} u_j r_{k-j}
        for k in range(1, order):
            acc = Fraction(0)
            for e, v in tail:
                if e > k:
                    break
                r = result.get(k - e)
                if r is not None:
                    acc += v * r
            if acc:
                result[k] = -acc / c0
    return Ser(result, order)


def _div(num: Ser, den: Ser, budget: int) -> Ser:
    dv = den.val()
    if dv is inf:
        raise ZeroDivisionError
    if den.is_monomial():
        coef = den.c[dv]
        return Ser({e - dv: v / coef for e, v in num.c.items()},
                   None if num.order is None else num.order - dv)
    unit = den.shift(-dv)
    return num.mul(_inv_unit(unit, budget)).shift(-dv)


def _blowup_once(char_exponents, budget):
    x = Ser({char_exponents[0]: Fraction(1)})
    y = Ser({e: Fraction(1) for e in char_exponents[1:]})
    x_exc = y_exc = False
    seq = []
    for _ in range(100000):
        a, b = x.val(), y.val()
        m = int(min(a, b))
        seq.append(m)
        if a <= b:
            y = _div(y, x, budget)
            translated = False
            if y.c and y.val() == 0:
                y = y.sub_const()
                translated = True
            x_exc, y_exc = True, (y_exc and not translated)
        else:
            x = _div(x, y, budget)
            translated = False
            if x.c and x.val() == 0:
                x = x.sub_const()
                translated = True
            x_exc, y_exc = (x_exc and not translated), True
        a2, b2 = x.val(), y.val()
        if min(a2, b2) == 1:
            if x_exc and not y_exc and a2 == 1:
                break
            if y_exc and not x_exc and b2 == 1:
                break
    else:
        raise RuntimeError("blow-up did not terminate")
    return seq


def _blowup_cached(exps):
    budget = 2 * max(exps) + 16
    for _ in range(6):
        try:
            return _blowup_once(exps, budget)
        except NeedMoreTerms:
            budget *= 2
    raise RuntimeError(f"oracle budget exhausted for {exps}")


_BLOWUP_MEMO: dict = {}


def blowup_multiplicity_sequence(char_exponents):
    """Literal blow-up of the parametrization x=t^b0, y=sum t^bk, recording
    the multiplicity at every center until the strict transform is smooth
    and transversal to a single exceptional axis."""
    exps = tuple(char_exponents)
    if exps == (1,):
        return [1]
    if exps not in _BLOWUP_MEMO:
        _BLOWUP_MEMO[exps] = _blowup_cached(exps)
    return list(_BLOWUP_MEMO[exps])


def blowup_delta(char_exponents):
    """Delta via the blow-up recursion: each center contributes m(m-1)/2."""
    return sum(m * (m - 1) // 2 for m in blowup_multiplicity_sequence(char_exponents))


def delta_conductor(char_exponents):
    """Delta from the conductor formula sum b_k (e_{k-1} - e_k) - b0 + 1 over 2."""
    exps = tuple(char_exponents)
    if exps == (1,):
        return 0
    e = exps[0]
    c = 1 - exps[0]
    for b in exps[1:]:
        e_next = gcd(e, b)
        c += b * (e - e_next)
        e = e_next
    assert c % 2 == 0
    return c // 2


def small_branch_grid(max_b0=6, max_exp=25, max_len=3):
    """All valid characteristic-exponent tuples with b0 <= max_b0 and
    exponents bounded, up to max_len entries."""
    out = [(1,)]

    def extend(prefix, e):
        if e == 1:
            out.append(prefix)
            return
        if len(prefix) == max_len:
            return
        for b in range(prefix[-1] + 1, max_exp + 1):
            if b % e == 0:
                continue
            e2 = gcd(e, b)
            if e2 == 1:
                out.append(prefix + (b,))
            if len(prefix) + 1 < max_len and e2 > 1:
                extend(prefix + (b,), e2)

    for b0 in range(2, max_b0 + 1):
        extend((b0,), b0)
    return out


def exponents_reference(cls, exps: dict[int, int]) -> dict[int, int]:
    """The map a FactorForm or CycloVector (cls) stores for exps, by the
    constructor as it stood before the codec shared one normaliser."""
    clean: dict[int, int] = {}
    for d, k in zip(map(int, exps), map(int, exps.values())):
        if d < 1:
            raise ValueError(f"{cls.__name__} indices must be >= 1")
        if d in clean:  # int() merged two keys
            k += clean.pop(d)
        if k:
            clean[d] = k
    return dict(sorted(clean.items()))


def peel_by_moebius(v: CycloVector) -> tuple[tuple[int, int], ...]:
    """The factor form F with to_cyclotomic(F) = v, summed directly as
    F[N] = sum_{N | d} mu(d/N) v[d], entries by decreasing N."""
    F: dict[int, int] = {}
    for d, k in v.exps.items():
        for N, mu in _moebius_terms(d):
            F[N] = F.get(N, 0) + mu * k
    return tuple(sorted(((N, k) for N, k in F.items() if k), reverse=True))


@lru_cache(maxsize=None)
def _moebius_terms(d: int) -> tuple[tuple[int, int], ...]:
    return tuple((N, int(sympy.mobius(d // N))) for N in sympy.divisors(d))


def search_preimages(v: CycloVector, s_cap: int) -> list[ConjPairType]:
    """Complete bounded search for valid types encoding to v."""
    deg = v.degree()
    D = max(v.exps)
    n_bound = D // 2
    found: list[ConjPairType] = []

    def try_type(s, i, m, n):
        try:
            T = ConjPairType(s, i, tuple(m), tuple(n))
        except InvalidConjPair:
            return
        if to_cyclotomic(alexander_encode(T)) == v:
            found.append(T)

    def rec_m(s, i, n, m, j):
        if j == s:
            try_type(s, i, m, n)
            return
        lo = n[0] if j == 0 else m[j - 1] * n[j] + 1
        mj = lo
        while True:
            if gcd(mj, n[j]) == 1:
                cand = m + [mj]
                # degree grows monotonically in each m_j; prune via a
                # completed candidate using minimal continuations
                tail = cand[:]
                for jj in range(j + 1, s):
                    nxt = tail[-1] * n[jj] + 1
                    while gcd(nxt, n[jj]) != 1:
                        nxt += 1
                    tail.append(nxt)
                try:
                    Tmin = ConjPairType(s, i, tuple(tail), tuple(n))
                    dmin = to_cyclotomic(alexander_encode(Tmin)).degree()
                except InvalidConjPair:
                    dmin = None
                if dmin is not None and dmin > deg:
                    return
                if j == s - 1:
                    if dmin == deg:
                        try_type(s, i, cand, n)
                else:
                    rec_m(s, i, n, cand, j + 1)
            mj += 1
            if mj > lo + 4 * deg + 8:  # hard stop; degree pruning fires first
                return

    def rec_n(s, i, n, j):
        if prod(n) > n_bound:
            return
        if j == s:
            rec_m(s, i, n, [], 0)
            return
        lo = 1 if j == i else 2
        for nj in range(lo, n_bound + 1):
            if prod(n) * nj > n_bound:
                break
            rec_n(s, i, n + [nj], j + 1)

    for s in range(1, s_cap + 1):
        for i in range(s):
            rec_n(s, i, [], 0)
    return found


def enumerate_conj_pair_types_reference(s_max: int, n_max: int, m_max: int):
    """All valid types with s <= s_max, n_j <= n_max, m_j <= m_max, by
    recursion over every tuple in the box and filtering by validation."""

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


def pair_intersection_bruteforce(T: ConjPairType) -> int | None:
    """Intersection multiplicity of a conjugate pair, one root of unity at
    a time: for zeta = e^(2 pi i j/n), the first tau-exponent B_k whose
    coefficient, 1 - zeta^B_k for k < i and 1 + zeta^B_k for k >= i, is
    nonzero.  None when some zeta leaves none."""
    n = prod(T.n)
    B = [T.m[k] * prod(T.n[k + 1 :]) for k in range(T.s)]
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


# --- exact families ------------------------------------------------------------

_U, _V = sympy.symbols("u v", real=True)


@dataclass(frozen=True)
class ExactFamily:
    """F(x, y, t) as an exact expression; ``solver(t)`` gives the values at t
    of the level symbols a family solves per parameter value."""

    expr: sympy.Expr
    solver: Callable[[float], dict] | None = None

    def at(self, t: float) -> sympy.Expr:
        """F at the rational number equal to t: a polynomial in x, y."""
        expr = self.expr if self.solver is None else self.expr.subs(self.solver(t))
        return expr.subs(T, sympy.Rational(t))


def _num(value):
    """Exact sympy number where the input allows, Float otherwise."""
    if isinstance(value, float) and value.is_integer():
        return sympy.Integer(int(value))
    return sympy.Float(value) if isinstance(value, float) else sympy.Integer(value)


def _w_power_parts(N: int) -> tuple[sympy.Expr, sympy.Expr]:
    """Re and Im of (u + iv)^N as exact polynomials."""
    return sympy.expand((_U + sympy.I * _V) ** N).as_real_imag()


def _tangent_subs(alpha, beta):
    return {_U: X + _num(alpha) * Y, _V: _num(beta) * Y}


def exact_smooth_conjugate(branches, tangent=(0, 1)) -> ExactFamily:
    F = sympy.Integer(1)
    for spec in branches:
        re = im = sympy.Integer(0)
        for nexp, a in spec.items():
            ar, ai = _num(complex(a).real), _num(complex(a).imag)
            wr, wi = _w_power_parts(nexp)
            re += ar * wr - ai * wi
            im += ar * wi + ai * wr
        F *= (_U - re) ** 2 + (_V + im) ** 2 - T**2
    return ExactFamily(sympy.expand(F.subs(_tangent_subs(*tangent))))


def exact_one_puiseux_pair(p, q, a, tangent=(0, 1)) -> ExactFamily:
    ar, ai = _num(complex(a).real), _num(complex(a).imag)
    b_syms = [sympy.Dummy(f"b{i}") for i in range(p - 1)]
    rho2 = _U**2 + _V**2
    F = (rho2 - T**2) ** p
    for i in range(p - 2, -1, -1):
        F += T ** sympy.Rational((p - i) * (p + q), p) * b_syms[i] * (rho2 - T**2) ** i
    wr, wi = _w_power_parts(p + q)
    F -= 2 * (ar * wr + ai * wi)

    def solver(t):
        levels = radial_profile_levels(p, q, abs(complex(a)), t)
        return {sym: sympy.Float(lev) for sym, lev in zip(b_syms, levels)}

    return ExactFamily(sympy.expand(F.subs(_tangent_subs(*tangent))), solver)


def exact_semiquasi_pp(real_lines, quadrics, b) -> ExactFamily:
    base = 0.35 * math.sqrt(min(b)) if b else 1.0
    line_shifts = [base * (1 + 0.41 * idx) for idx in range(len(real_lines))]
    F = sympy.Integer(1)
    for (la, lb), cshift in zip(real_lines, line_shifts):
        F *= _num(la) * X + _num(lb) * Y - _num(cshift) * T
    for (A, B, C), bi in zip(quadrics, b):
        F *= _num(A) * X**2 + _num(B) * X * Y + _num(C) * Y**2 - _num(bi) * T
    return ExactFamily(sympy.expand(F))


def exact_ellipse_composition(parts, gammas) -> ExactFamily:
    F = sympy.Integer(1)
    for part, g in zip(parts, gammas):
        F *= part.expr.subs(T, T * sympy.sqrt(_num(g)))
    solvers = [(part.solver, math.sqrt(g)) for part, g in zip(parts, gammas) if part.solver]

    def solver(t):
        return {sym: lev for sv, fac in solvers for sym, lev in sv(t * fac).items()}

    return ExactFamily(sympy.expand(F), solver if solvers else None)


def exact_parabola_pair(n) -> ExactFamily:
    crossings = prod(X - k for k in range(1, n + 1))
    return ExactFamily(sympy.expand((Y - T * X**2) ** 2 - T ** (2 * n - 4) * crossings**2))


# --- numeric references --------------------------------------------------------


def einsum_evaluators(fam, t) -> tuple[Callable, ...]:
    """F, Fx, Fy, Fxx, Fxy, Fyy at t, each its own einsum over fresh power
    tables (x table with the matrix first, then with the y table), as the
    evaluator computed them before the partials shared their tables."""
    C = fam.coeffs(t)
    rows, cols = np.nonzero(C)
    C = C[: max(rows, default=0) + 1, : max(cols, default=0) + 1]
    der = np.polynomial.polynomial.polyder
    Cx, Cy = der(C, axis=0), der(C, axis=1)
    return tuple(map(_einsum_power_sum, (C, Cx, Cy, der(Cx, axis=0), der(Cx, axis=1), der(Cy, axis=1))))


def _einsum_power_sum(C):
    def powers(v, n):
        table = np.empty(np.shape(v) + (n,))
        table[..., 0] = 1
        table[..., 1:] = np.expand_dims(v, -1)
        return np.multiply.accumulate(table, axis=-1)

    def evaluate(x, y):
        return np.einsum("...i,ij,...j->...", powers(x, C.shape[0]), C, powers(y, C.shape[1]),
                         optimize=["einsum_path", (0, 1), (0, 1)])[()]

    return evaluate


def local_minima(g) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) into g[1:-1, 1:-1], in np.nonzero order, of the
    interior points no larger than any of their eight neighbours."""
    interior, n = g[1:-1, 1:-1], g.shape[0] - 1
    mins = np.ones_like(interior, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                mins &= interior <= g[1 + di : n + di, 1 + dj : g.shape[1] - 1 + dj]
    return np.nonzero(mins)


def grid_stage(f, xs, ys):
    """The tracer's grid stage on whole (N+1) x (N+1) arrays, as it was
    built before the grid was streamed in strips: max |F|, then the h-edge
    crossings (i, j, F(i, j), F(i+1, j)), the v-edge crossings (i, j,
    F(i, j), F(i, j+1)) and the crossing cells (i, j, bottom, right, top and
    left edge flags, F(i, j) >= 0), each in np.nonzero order."""
    F = f(xs[:, None], ys)
    S = F >= 0
    hx = S[:-1, :] != S[1:, :]
    vy = S[:, :-1] != S[:, 1:]
    hi, hj = np.nonzero(hx)
    vi, vj = np.nonzero(vy)
    ci, cj = np.nonzero(hx[:, :-1] | hx[:, 1:] | vy[:-1, :] | vy[1:, :])
    flags = np.stack([hx[ci, cj], vy[ci + 1, cj], hx[ci, cj + 1], vy[ci, cj]], axis=1)
    return float(max(-F.min(), F.max())), (hi, hj, F[hi, hj], F[hi + 1, hj], vi, vj, F[vi, vj], F[vi, vj + 1],
                                           ci, cj, flags, S[ci, cj])


def svg_divide(traced) -> str:
    """render.svg_divide with one f-string per polyline point."""
    W = traced.meta.window
    scale = 640 / (2 * W)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" viewBox="0 0 640 640">',
        '<rect x="0" y="0" width="640" height="640" fill="white" stroke="black" stroke-width="1"/>',
    ]
    branch_of_edge = traced.divide.branch_of_edge
    for e in sorted(traced.strand_paths):
        path = traced.strand_paths[e]
        color = PALETTE[branch_of_edge[e] % len(PALETTE)]
        us, vs = ((path[:, 0] + W) * scale).tolist(), ((W - path[:, 1]) * scale).tolist()
        pts = " ".join(f"{u:.12g},{v:.12g}" for u, v in zip(us, vs))
        lines.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    for k, nd in enumerate(traced.nodes):
        lines.append(
            f'<circle cx="{fmt((nd.x + W) * scale)}" cy="{fmt((W - nd.y) * scale)}" r="3" fill="black">'
            f'<title>node {k}</title></circle>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def strands_csv(traced) -> str:
    """render.strands_csv with one f-string per polyline point."""
    rows = ["branch,edge,point,x,y"]
    branch_of_edge = traced.divide.branch_of_edge
    for e in sorted(traced.strand_paths):
        for idx, (x, y) in enumerate(traced.strand_paths[e].tolist()):
            rows.append(f"{branch_of_edge[e]},{e},{idx},{x:.12g},{y:.12g}")
    return "\n".join(rows) + "\n"


def one_cell_region_edges(d) -> list[tuple[int, int]]:
    """Region-region edges of ag.build_diagram, with its vertex ids, by
    one-cells: each walk is cut into edge chains at its crossings and
    endpoints, a marker staying inside its chain and a crossing-free closed
    branch being one chain.  A chain that touches an endpoint is not inner;
    an inner chain joins the faces on its two sides when they differ and
    both are inner regions."""
    vid = {f: len(d.crossings) + k for k, f in enumerate(d.inner_faces)}
    edges = []
    for br in d.branches:
        walk = br.walk
        cuts = [idx for idx, h in enumerate(walk) if len(d.rotations[d.origin(h)]) != 2]
        if not br.closed:
            chains = [walk[a:b] for a, b in zip(cuts, cuts[1:] + [len(walk)])]
        elif not cuts:
            chains = [walk]
        else:
            chains = [walk[a:b] if b > a else walk[a:] + walk[:b] for a, b in zip(cuts, cuts[1:] + cuts[:1])]
        for chain in chains:
            if 1 in (len(d.rotations[d.origin(chain[0])]), len(d.rotations[d.head(chain[-1])])):
                continue
            f1, f2 = d.face_of[chain[0]], d.face_of[-chain[0]]
            if f1 != f2 and f1 in vid and f2 in vid:
                edges.append((min(vid[f1], vid[f2]), max(vid[f1], vid[f2])))
    return sorted(edges)


def assert_canonical_branch_order(d):
    """The walks cover every edge once and go straight through every vertex
    they pass, open ones from endpoint to endpoint.  Open branches come
    first, each walked from its endpoint that comes first in the boundary
    and in the boundary order of those endpoints; closed branches walked
    from their least edge, in the order of those edges."""
    assert sorted(abs(h) for br in d.branches for h in br.walk) == list(range(1, d.n_edges + 1))
    for br in d.branches:
        w = br.walk
        for h1, h2 in zip(w, w[1:] + w[:1]) if br.closed else zip(w, w[1:]):
            rot = d.rotations[d.head(h1)]
            assert (rot.index(h2) - rot.index(-h1)) % len(rot) == len(rot) // 2
        if not br.closed:
            assert len(d.rotations[d.origin(w[0])]) == len(d.rotations[d.head(w[-1])]) == 1
    closed = [br.closed for br in d.branches]
    assert closed == sorted(closed)
    at = {v: idx for idx, v in enumerate(d.boundary)}
    ends = [(at[d.origin(br.walk[0])], at[d.head(br.walk[-1])]) for br in d.branches if not br.closed]
    assert all(first < last for first, last in ends)
    assert ends == sorted(ends)
    starts = [br.walk[0] for br in d.branches if br.closed]
    assert starts == [min(abs(h) for h in br.walk) for br in d.branches if br.closed]
    assert starts == sorted(starts)


def assert_faces_sorted(d):
    """Face ids follow the least half-edge of each orbit in (|h|, h < 0)
    order, so they stay fixed by the rotation table alone."""
    leasts = [min((abs(h), h < 0) for h in orbit) for orbit in d.faces]
    assert all(a < b for a, b in zip(leasts, leasts[1:])), leasts
