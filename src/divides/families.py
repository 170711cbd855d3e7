"""Explicit real deformation families with certified node counts.

Each construction returns a FamilySpec: the coefficient matrix of a real
polynomial F(x, y, t) as a function of t, whose zero set, for small t > 0,
is the divide of a real morsification of the singularity the family
deforms, together with that singularity's topological type and viewport
metadata for the tracer.  The expected number of hyperbolic nodes,
delta - ImBr, is the type's ``expected_nodes``, derived when the type is
validated.

Constructors build the matrices with numpy polynomial products, and
family_from_expression parses +, -, * and / by constants over x, y, t and
real numbers, with non-negative integer literal exponents (not x**(1+1) or
x**2**2), by the stdlib ast into the same products.  Conjugate-tangent
families are built in the real coordinates u = x + alpha*y, v = beta*y, in
which the conjugate tangent pair is u = +-iv; the complex line coordinate
w = u + iv = x + (alpha + i beta) y is a complex matrix, and the real
polynomials Re and Im of its powers are read off as .real and .imag.
"""
from __future__ import annotations

import ast
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Callable, Sequence

import numpy as np

from .singularity import BranchType, SingularityType, complexes, integers, mapping, reals, sequence


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    """A family and what the tracer needs to know about it.

    Stored: the coefficients of F(x, y, t) at a given t, as a matrix whose
    entry [i, j] multiplies x^i y^j; a tag; the default parameter; the
    half-width of the square viewport as a function of t; the singularity
    the family deforms (None for a bare expression); and the coefficients
    (A, B, C) of u^2 + v^2 in x, y for each conjugate tangent pair of a
    family that a composition may take as a part.  The tracer reads the
    expected node count off the singularity, ``singularity.expected_nodes``.
    """

    coeffs: Callable[[float], np.ndarray]
    tag: str
    t_default: float
    window: Callable[[float], float]
    singularity: SingularityType | None = None
    quads: tuple[tuple[float, float, float], ...] = ()

    def evaluators(self, t: float):
        """F, its gradient (Fx, Fy) and its Hessian (Fxx, Fxy, Fyy) at t.

        Each evaluates at the points of np.broadcast(x, y): floats at a
        scalar point, values at paired points for arrays of one shape, and
        the grid of values at (xs[i], ys[j]) for f(xs[:, None], ys); the
        gradient and the Hessian return a tuple, one array per partial.
        Each keeps the powers of its last ys: change no ys in place between calls.
        """
        C = self.coeffs(t)
        # trailing all-zero rows and columns would only lengthen the tables
        rows, cols = np.nonzero(C)
        C = C[: max(rows, default=0) + 1, : max(cols, default=0) + 1]
        der = np.polynomial.polynomial.polyder
        Cx, Cy = der(C, axis=0), der(C, axis=1)
        return (_power_sum(C), _power_sum(Cx, Cy),
                _power_sum(der(Cx, axis=0), der(Cx, axis=1), der(Cy, axis=1)))


def _power_sum(*Cs: np.ndarray):
    """(x, y) -> sum of C[i, j] x^i y^j for each C, one value or a tuple.

    One table of powers x^i (running products) and one of y^j serve every
    C, each taking the prefixes it needs.  x is contracted first; y on a
    grid by a second matrix product, at paired points by np.vecdot.  The
    last grid axis's y table is kept, keyed by the axis object, for the
    next strip: an axis must not change in place between calls."""
    nx, ny = max(C.shape[0] for C in Cs), max(C.shape[1] for C in Cs)
    axis = axis_powers = None

    def powers(v, n):
        table = np.empty((v.size, n))
        table[:, 0] = 1
        table[:, 1:] = v[:, None]
        return np.multiply.accumulate(table, axis=1)

    def evaluate(x, y):
        nonlocal axis, axis_powers
        grid = np.ndim(x) == 2 and np.shape(x)[1] == 1 and np.ndim(y) == 1
        if not grid:
            x, y = np.broadcast_arrays(x, y)
        elif y is not axis:
            axis, axis_powers = y, powers(np.ravel(y), ny)
        X, Y = powers(np.ravel(x), nx), axis_powers if grid else powers(np.ravel(y), ny)
        out = []
        for C in Cs:
            XC, Yk = (C.T @ X[:, : C.shape[0]].T).T, Y[:, : C.shape[1]]
            # [()] turns the 0-d result at a scalar point into a float
            out.append(XC @ Yk.T if grid else np.vecdot(XC, Yk).reshape(x.shape)[()])
        return out[0] if len(Cs) == 1 else tuple(out)

    return evaluate


def _mul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product of two polynomials given as coefficient arrays, one axis per variable."""
    out = np.zeros(np.add(A.shape, B.shape) - 1, np.result_type(A, B))
    for index, b in np.ndenumerate(B):
        out[tuple(slice(i, i + n) for i, n in zip(index, A.shape))] += b * A
    return out


def _add(*terms) -> np.ndarray:
    """Sum of coefficient arrays of any shapes; a number is a constant."""
    terms = [np.atleast_2d(a) for a in terms]
    out = np.zeros(np.max([a.shape for a in terms], axis=0), np.result_type(*terms))
    for a in terms:
        out[tuple(map(slice, a.shape))] += a
    return out


def _power(A: np.ndarray, n: int) -> np.ndarray:
    # the unit has A's dtype: a float 1 would round the parser's Fractions
    return reduce(_mul, [A] * n, np.ones((1,) * A.ndim, A.dtype))


def _tangent(tangent) -> tuple[np.ndarray, float, tuple[float, float, float]]:
    """The conjugate tangent pair u = +-iv, u = x + alpha y, v = beta y, of
    tangent = (alpha, beta): w = x + (alpha + i beta) y as a complex matrix,
    the extent in x and y of the unit ellipse u^2 + v^2 = 1, and its
    coefficients (A, B, C), as u^2 + v^2 = x^2 + 2 alpha x y + (alpha^2 + beta^2) y^2."""
    a, b = reals(tangent, FamilyError, 2)
    if b == 0:
        raise FamilyError("beta must be nonzero: tangents must be non-real")
    return (np.array([[0, complex(a, b)], [1, 0]]), max(1.0 + abs(a) / abs(b), 1.0 / abs(b)),
            (1.0, 2.0 * a, a * a + b * b))


def family_smooth_conjugate(branches: Sequence[dict], tangent=(0, 1)) -> FamilySpec:
    """Pairs of smooth conjugate branches sharing one conjugate tangent pair.

    ``branches[i]`` maps exponents n > 1 to the complex coefficient of w^n
    in the defining series of the i-th branch.  The deformed curve splits
    into one embedded circle per branch pair; circles i and j cross in
    2 n_ij + 2 points, n_ij being the first exponent where the series
    differ.
    """
    w, ext, quad = _tangent(tangent)
    data = [mapping(spec, FamilyError, integers, complexes) for spec in sequence(branches, FamilyError)]
    if any(nexp <= 1 for coeffs in data for nexp in coeffs):
        raise FamilyError("series exponents must exceed 1")
    s = len(data)
    if s == 0:
        raise FamilyError("need at least one branch pair")

    n_pairwise = {}
    for i, j in itertools.combinations(range(s), 2):
        exps = sorted(data[i].keys() | data[j].keys())
        n_ij = next((nexp for nexp in exps if data[i].get(nexp, 0) != data[j].get(nexp, 0)), None)
        if n_ij is None:
            raise FamilyError(f"branches {i} and {j} coincide; the curve would be non-reduced")
        n_pairwise[i, j] = n_pairwise[j, i] = n_ij

    circles = []
    for coeffs in data:
        # w conj - g(w) = (u - Re g) - i (v + Im g), whose squared modulus is
        # the circle polynomial
        d = _add(w.conj(), *(-a * _power(w, nexp) for nexp, a in coeffs.items()))
        circles.append(_add(_mul(d.real, d.real), _mul(d.imag, d.imag)))

    # slot (i, conj): the same side of two pairs meets in n_ij, all else in 1
    slots = [(i, conj) for i in range(s) for conj in (0, 1)]
    table = tuple(tuple(0 if (i, c) == (j, d) else n_pairwise[i, j] if i != j and c == d else 1
                        for j, d in slots) for i, c in slots)
    sing = SingularityType((), (BranchType((1,)),) * s, table)

    max_exp = max((max(c) for c in data if c), default=2)

    def window(t):
        return ext * t * (1.0 + 4.0 * t ** (max_exp - 1) + 0.35)

    # circles for a pair with contact n_ij separate only at order t^(n_ij-1),
    # so the default parameter grows with the maximal contact
    if n_pairwise:
        n_max = max(n_pairwise.values())
        t_def = min(0.33, max(0.12, 1.3 * 0.024 ** (1.0 / (n_max - 1))))
    else:
        t_def = 0.2

    return FamilySpec(
        coeffs=lambda t: reduce(_mul, (_add(c, -t * t) for c in circles)),
        tag="smooth-conjugate",
        t_default=t_def,
        window=window,
        singularity=sing,
        quads=(quad,),
    )


def chebyshev_like(p: int, c: float) -> list[float]:
    """Monic degree-p polynomial with critical values alternating between
    -2c and +2c and roots summing to zero.

    Built by rescaling the monic Chebyshev polynomial on [-2, 2],
    C_p(x) = 2 T_p(x/2): P(x) = c * C_p(x / c^(1/p)).  Coefficients are
    returned lowest degree first.  Each is an integer times a power of c,
    and there is no x^(p-1) term, so the roots sum to zero; the critical
    values are exact up to rounding, and radial_profile_levels, which needs
    them exact, solves for them.
    """
    if integers((p,), FamilyError)[0] < 2:
        raise FamilyError("degree must be at least 2")
    (c,) = reals((c,), FamilyError)
    if not c > 0:
        raise FamilyError("critical level c must be positive")
    monic = 2 * np.polynomial.chebyshev.cheb2poly([0] * p + [1]) / 2.0 ** np.arange(p + 1)
    scale = c ** (1.0 / p)
    return [float(monic[j]) * c * scale ** (-j) for j in range(p)] + [1.0]


def radial_profile_levels(p: int, q: int, abs_a: float, t: float) -> list[float]:
    """Coefficients b_0..b_{p-2}(t) of the one-pair construction at a given t.

    They are pinned by requiring the profile
    P_t(s) = (1 + t^((q-p)/p) s)^(-(p+q)/2) (s^p + sum b_i s^i)
    to take the alternating critical values +-2|a| at its p-1 critical
    points.  The t -> 0 limit is the rescaled Chebyshev polynomial, which
    seeds the Newton solve.  Exact critical values put the curve's saddles
    exactly on the zero level.
    """
    tau = t ** ((q - p) / p)
    cheb = chebyshev_like(p, abs_a)
    poly0 = np.polynomial.Polynomial(cheb)
    mu0 = sorted(r.real for r in poly0.deriv().roots() if abs(r.imag) < 1e-9)
    if len(mu0) != p - 1:
        raise FamilyError("critical-point solve failed")
    targets = [(-2 * abs_a if (p - 1 - k) % 2 == 1 else 2 * abs_a) for k in range(p - 1)]
    m = p - 1
    vars0 = np.array(list(cheb[:m]) + mu0, dtype=float)

    def profile(bvec, s):
        Q = s**p + sum(bvec[i] * s**i for i in range(m))
        return (1 + tau * s) ** (-(p + q) / 2) * Q

    def dprofile(bvec, s):
        Q = s**p + sum(bvec[i] * s**i for i in range(m))
        dQ = p * s ** (p - 1) + sum(i * bvec[i] * s ** (i - 1) for i in range(1, m))
        base = (1 + tau * s) ** (-(p + q) / 2)
        return base * (dQ - 0.5 * (p + q) * tau / (1 + tau * s) * Q)

    def residuals(v):
        b, mu = v[:m], v[m:]
        out = np.empty(2 * m)
        for k in range(m):
            if 1 + tau * mu[k] <= 0:
                out[:] = 1e6
                return out
            out[k] = dprofile(b, mu[k])
            out[m + k] = profile(b, mu[k]) - targets[k]
        return out

    v = vars0.copy()
    scale = max(1.0, 2 * abs_a)
    for _ in range(80):
        r = residuals(v)
        if np.max(np.abs(r)) < 1e-13 * scale:
            break
        J = np.empty((2 * m, 2 * m))
        for col in range(2 * m):
            h = 1e-7 * max(1.0, abs(v[col]))
            vp = v.copy()
            vp[col] += h
            J[:, col] = (residuals(vp) - r) / h
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError as exc:
            raise FamilyError(f"radial profile solve is singular at t={t}") from exc
        v = v - step
    else:
        raise FamilyError(f"radial profile solve did not converge at t={t}")
    mu = sorted(v[m:])
    if any(mu[k + 1] - mu[k] < 1e-9 for k in range(m - 1)):
        raise FamilyError(f"critical points collide at t={t}; decrease t")
    return [float(x) for x in v[:m]]


def family_one_puiseux_pair(p: int, q: int, a, tangent=(0, 1)) -> FamilySpec:
    """Pair of conjugate branches of type x^p + y^q (p < q coprime), tangent
    to the two conjugate lines.

    The deformation carries the p-fold conjugate-tangent circle structure
    with (p-1)(p+q) hyperbolic nodes near the ellipse u^2 + v^2 = t^2.
    The profile coefficients b_i(t) are solved per parameter value so the
    nodes land exactly on the zero level.
    """
    p, q = integers((p, q), FamilyError)
    if not (2 <= p < q):
        raise FamilyError("need 2 <= p < q")
    if gcd(p, q) != 1:
        raise FamilyError("p and q must be coprime")
    w, ext, quad = _tangent(tangent)
    (a,) = complexes((a,), FamilyError)
    mod_a = abs(a)
    if mod_a == 0:
        raise FamilyError("a must be nonzero")

    rho2 = _mul(w, w.conj()).real
    # a * conj(w)^N + conj(a) * w^N = 2 Re(conj(a) w^N)
    tail = 2 * (a.conjugate() * _power(w, p + q)).real

    def coeffs(t):
        levels = radial_profile_levels(p, q, mod_a, t)
        ring = _add(rho2, -t * t)
        terms = [t ** ((p - i) * (p + q) / p) * b * _power(ring, i) for i, b in enumerate(levels)]
        return _add(_power(ring, p), -tail, *terms)

    branch = BranchType((p, q))
    inter = p * p
    sing = SingularityType((), (branch,), ((0, inter), (inter, 0)))

    poly = np.polynomial.Polynomial(chebyshev_like(p, mod_a))
    lam0 = 1.0
    for level in (3 * mod_a, -3 * mod_a):
        for r in (poly - level).roots():
            if abs(r.imag) < 1e-9:
                lam0 = max(lam0, abs(r.real))
    lam0 *= 1.15

    def window(t):
        return ext * t * (1.0 + lam0 * t ** ((q - p) / p) + 0.3)

    t_def = min(0.25, (0.3 / lam0) ** (p / (q - p)))

    return FamilySpec(
        coeffs=coeffs,
        tag=f"one-pair-{p}-{q}",
        t_default=t_def,
        window=window,
        singularity=sing,
        quads=(quad,),
    )


def family_semiquasi_pp(real_lines: Sequence[tuple], quadrics: Sequence[tuple], b: Sequence[float]) -> FamilySpec:
    """Union of real lines and positive-definite conic pencils: the
    deformation of a transversal-smooth-branch singularity of type (d, d).

    Each quadric q_i contributes the conic q_i = b_i t; every pair of
    conics must meet in four distinct real points.  Line factors are
    shifted off the origin proportionally to t to realize their nodes.
    These conics are not ellipses u^2 + v^2 = t^2 that an ellipse
    composition could rescale, so the family states no quads and is never
    a composition part.
    """
    lines, quads = ([reals(form, FamilyError, n) for form in sequence(forms, FamilyError)]
                    for forms, n in ((real_lines, 2), (quadrics, 3)))
    bs = reals(b, FamilyError, len(quads))  # one level per quadric
    if not quads and not lines:
        raise FamilyError("empty construction")
    for idx, (A, B, C) in enumerate(quads):
        if not (A > 0 and 4 * A * C - B * B > 0):
            raise FamilyError(f"quadric {idx} is not positive definite")
    for name, forms in (("quadrics", quads), ("lines", lines)):
        for (idx, u), (jdx, v) in itertools.combinations(enumerate(forms), 2):
            if _proportional(u, v):
                raise FamilyError(f"{name} {idx} and {jdx} are proportional")
    if any(bi <= 0 for bi in bs):
        raise FamilyError("levels b_i must be positive")

    _check_conic_pairs(quads, bs)

    ell = len(lines)
    k = len(quads)
    base = 0.35 * math.sqrt(min(bs)) if bs else 1.0
    shifts = [base * (1 + 0.41 * idx) for idx in range(ell)]

    # each factor is a form in x, y minus its level times t
    factors = [(np.array([[0, lb], [la, 0]]), cshift) for (la, lb), cshift in zip(lines, shifts)]
    factors += [(np.array([[0, 0, C], [0, B, 0], [A, 0, 0]]), bi) for (A, B, C), bi in zip(quads, bs)]

    d = ell + 2 * k
    smooth = BranchType((1,))
    # d smooth branches, pairwise transversal
    table = tuple(tuple(int(i != j) for j in range(d)) for i in range(d))
    sing = SingularityType((smooth,) * ell, (smooth,) * k, table)

    def window(t):
        ext = 1.0
        for (A, B, C), bi in zip(quads, bs):
            lam_min = 0.5 * ((A + C) - math.hypot(A - C, B))
            ext = max(ext, math.sqrt(bi * t / lam_min))
        return 1.45 * ext

    return FamilySpec(
        coeffs=lambda t: reduce(_mul, (_add(form, -level * t) for form, level in factors)),
        tag="semiquasi-transversal",
        t_default=0.2,
        window=window,
        singularity=sing,
    )


def _proportional(v1, v2) -> bool:
    return all(abs(v1[i] * v2[j] - v1[j] * v2[i]) < 1e-12 for i in range(len(v1)) for j in range(len(v1)))


def _check_conic_pairs(quads, levels, label="quadrics"):
    """Raise FamilyError unless every conic pair meets in four real points
    and all these intersection points are pairwise distinct."""
    pts = []
    for (i, (A1, B1, C1)), (j, (A2, B2, C2)) in itertools.combinations(enumerate(quads), 2):
        b1, b2 = levels[i], levels[j]
        # pencil b2*q_i - b1*q_j vanishes on the intersection: a pair
        # of lines through the origin; indefinite <=> 4 real points
        qa, qb, qc = b2 * A1 - b1 * A2, b2 * B1 - b1 * B2, b2 * C1 - b1 * C2
        disc = qb * qb - 4 * qa * qc
        if disc <= 1e-12 * max(abs(qa), abs(qb), abs(qc)) ** 2:
            raise FamilyError(
                f"{label} {i} and {j} do not meet in four real points (discriminant {disc})"
            )
        # at angle theta the pencil is ((qa + qc) + R cos(2 theta - phi)) / 2,
        # zero on two lines, each meeting conic i at +-r (cos theta, sin theta)
        R, phi = math.hypot(qa - qc, qb), math.atan2(qb, qa - qc)
        for sign in (1, -1):
            theta = (phi + sign * math.acos(-(qa + qc) / R)) / 2
            c, s = math.cos(theta), math.sin(theta)
            r = math.sqrt(b1 / (A1 * c * c + B1 * c * s + C1 * s * s))
            pts += [(r * c, r * s), (-r * c, -r * s)]
    for p, q in itertools.combinations(pts, 2):
        if math.dist(p, q) < 1e-9:
            raise FamilyError(f"{label} intersection points are not pairwise distinct")


def family_ellipse_composition(parts: Sequence[FamilySpec], gammas: Sequence[float]) -> FamilySpec:
    """Product of conjugate-tangent families on distinct tangent pairs,
    with the parameter rescaled to t*sqrt(gamma_i) in part i.

    Each part has a single conjugate tangent pair and no real branches.
    Divides of distinct parts cross in mt_i * mt_j points near the
    intersections of their ellipses.
    """
    parts = sequence(parts, FamilyError)
    gam = reals(gammas, FamilyError, len(parts))  # one gamma per part
    if not parts:
        raise FamilyError("empty composition")
    if any(g <= 0 for g in gam):
        raise FamilyError("gamma values must be positive")
    for i, spec in enumerate(parts):
        if not isinstance(spec, FamilySpec) or len(spec.quads) != 1:
            raise FamilyError(f"part {i} is not a family of one conjugate tangent pair without real branches")
    quads = tuple(spec.quads[0] for spec in parts)
    for (i, u), (j, v) in itertools.combinations(enumerate(quads), 2):
        if _proportional(u, v):
            raise FamilyError(f"parts {i} and {j} share their tangent pair")
    if len(parts) > 1:
        _check_conic_pairs(quads, gam, label="part ellipses")

    def coeffs(t):
        return reduce(_mul, (spec.coeffs(t * math.sqrt(g)) for spec, g in zip(parts, gam)))

    def window(t):
        return max(spec.window(t * math.sqrt(g)) for spec, g in zip(parts, gam))

    return FamilySpec(
        coeffs=coeffs,
        tag="ellipse-composition",
        t_default=min(spec.t_default for spec in parts) * 0.9,
        window=window,
        singularity=_merge_part_singularities(parts),
        quads=quads,
    )


def _merge_part_singularities(parts) -> SingularityType:
    """The pairs of all parts in order.  Two slots of one part meet as in
    that part; slots of different parts meet in the product of their
    multiplicities."""
    sings = [spec.singularity for spec in parts]
    slots = [(p, k, s.slot_branch(k).multiplicity) for p, s in enumerate(sings) for k in range(s.slot_count)]
    table = tuple(tuple(sings[p].intersections[k][l] if p == q else m * n for q, l, n in slots)
                  for p, k, m in slots)
    return SingularityType((), tuple(b for s in sings for b in s.conj_pairs), table)


def family_from_expression(expr: str, window: float, singularity=None) -> FamilySpec:
    """Wrap a real polynomial in x, y and t for the tracer, parsed once into
    the coefficients A[i, j, k] of x^i y^j t^k.  The grammar: the names x, y
    and t, int and float literals (not bool), unary and binary + and -, *, /
    by a non-zero constant, and ** (or ^, as sympify reads it) with a
    non-negative integer literal exponent, so x**(1+1) and x**2**2 are
    refused.  Anything else raises FamilyError.  No node count is asserted
    unless a singularity, a SingularityType, is supplied."""
    if not isinstance(expr, str):
        raise FamilyError(f"expression must be a string, got {expr!r}")
    (W,) = reals((window,), FamilyError)
    if not (singularity is None or isinstance(singularity, SingularityType)):
        raise FamilyError(f"singularity must be None or a SingularityType, got {singularity!r}")
    try:
        # ^ is replaced in the text, not the tree: it binds more loosely than +
        A = _polynomial(ast.parse(expr.strip().replace("^", "**"), mode="eval").body).astype(float)
    except (SyntaxError, OverflowError) as exc:  # the latter from a coefficient beyond float range
        raise FamilyError(f"expression is not a real polynomial in x, y, t: {exc}") from exc
    return FamilySpec(
        coeffs=lambda t: A @ t ** np.arange(A.shape[2]),
        tag="custom",
        t_default=0.1,
        window=lambda t: W,
        singularity=singularity,
    )


def _polynomial(node: ast.expr) -> np.ndarray:
    """Coefficients of x, y, t of an expression tree, multiplied out exactly
    in object arrays of ints and Fractions, so each is rounded once, to float."""
    if isinstance(node, ast.Name):
        if node.id not in ("x", "y", "t"):
            raise FamilyError(f"expression may only involve x, y, t; found {node.id}")
        return np.arange(2, dtype=object).reshape([1 + (v == node.id) for v in "xyt"])
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return np.full((1, 1, 1), Fraction(node.value), object)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        A = _polynomial(node.operand)
        return -A if isinstance(node.op, ast.USub) else A
    if isinstance(node, ast.BinOp):
        A, op, n = _polynomial(node.left), type(node.op), node.right
        if op is ast.Pow and isinstance(n, ast.Constant) and type(n.value) is int and n.value >= 0:
            return _power(A, n.value)
        B = _polynomial(n)
        if op in (ast.Add, ast.Sub):
            return _add(A, -B if op is ast.Sub else B)
        if op is ast.Mult:
            return _mul(A, B)
        if op is ast.Div and B.flat[0] != 0 and not B.flat[1:].any():
            return A / Fraction(B.flat[0])
    raise FamilyError(f"expression is not a real polynomial in x, y, t: {ast.unparse(node)}")


def family_parabola_pair(n: int) -> FamilySpec:
    """Two graph branches splitting y^2 = x^(2n): (y - t x^2)^2 equals the
    squared product of (x - k t), crossing transversally in n points.

    Stated in the unit-aspect coordinates (x, y) -> (t x, t^2 y), which is
    a real coordinate change preserving the divide: the crossings sit at
    x = 1..n instead of collapsing toward the origin with t.
    """
    (n,) = integers((n,), FamilyError)
    if n < 2:
        raise FamilyError("need n >= 2")
    prod = reduce(_mul, (np.array([[-k], [1]]) for k in range(1, n + 1)))
    prod2 = _mul(prod, prod)

    def coeffs(t):
        # (y - t x^2)^2 - t^(2n-4) prod(x - k)^2 after scaling and division by t^4
        graph = np.array([[0, 1], [0, 0], [-t, 0]])
        return _add(_mul(graph, graph), -t ** (2 * n - 4) * prod2)

    smooth = BranchType((1,))
    sing = SingularityType((smooth, smooth), (), ((0, n), (n, 0)))

    def window(t):
        # crossings sit at (k, t k^2), k = 1..n
        return max(n + 1.6, 1.3 * t * n * n)

    return FamilySpec(
        coeffs=coeffs,
        tag=f"parabola-pair-{n}",
        t_default=0.3 if n <= 3 else 0.45,
        window=window,
        singularity=sing,
    )
