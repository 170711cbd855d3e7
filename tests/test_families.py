import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import sympy

from divides.families import (
    FamilyError,
    chebyshev_like,
    family_ellipse_composition,
    family_from_expression,
    family_one_puiseux_pair,
    family_parabola_pair,
    family_semiquasi_pp,
    family_smooth_conjugate,
    radial_profile_levels,
)
from divides.tracing import TraceError, trace_divide

from oracles import (
    ExactFamily,
    exact_ellipse_composition,
    exact_one_puiseux_pair,
    exact_parabola_pair,
    exact_semiquasi_pp,
    exact_smooth_conjugate,
)

X, Y, T = sympy.symbols("x y t", real=True)


# the expressions the tests trace or evaluate, and a few that exercise ^,
# division and float literals
PARSER_CORPUS = [
    "y**2 - x**2 + t", "x - x", "x**3*y - 2*y**2*t + x*t**2 - 7",
    "(x**2 + y**2 - t)*(x**2 - 2*y**2 + x*y - 1)*(2*x**2 + y**2 - 3*x*y + x - 2)"
    "*(x**2 + 3*y**2 + 2*x*y - y - 5)*(x**2 - y**2 + t*x*y + 1/2)*(3*x**2 + y**2 - 2*t*y)",
    "(x - y**2 + 0.5)*(y - 0.1)", "(y - x + 0.1)*(y + 2*x - 0.05)", "(x - 0.1)*(y - 0.3*x)",
    "(x - 0.1)*(y + 0.05)", "(x - 0.1)**2 - (y + 0.05)**2 - 1e-7", "x**2 + 2*y**2 - 0.25", "y - x",
    "(y - x)*(y + 2*x)", "x^3 - 2*x*y^2 + t^2", "1/2", "-(x+1)**3/3 + t/7*y", "(0.1*x + 0.2*y - 0.3)**5",
]


class TestChebyshevLike:
    def test_p2(self):
        assert chebyshev_like(2, 1.0) == pytest.approx([-2.0, 0.0, 1.0])
        assert chebyshev_like(2, 3.0) == pytest.approx([-6.0, 0.0, 1.0])

    def test_p3(self):
        c = 1.7
        coeffs = chebyshev_like(3, c)
        assert coeffs == pytest.approx([0.0, -3 * c ** (2 / 3), 0.0, 1.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(FamilyError):
            chebyshev_like(1, 1.0)
        with pytest.raises(FamilyError):
            chebyshev_like(2, 0.0)
        with pytest.raises(FamilyError):
            chebyshev_like(3, -1.0)

    @pytest.mark.parametrize("p", range(2, 21))
    def test_exact_chebyshev_coefficients(self, p):
        # 2 T_p(x/2) has integer coefficients, each exact in a float
        x = sympy.Symbol("x")
        exact = sympy.Poly(2 * sympy.chebyshevt(p, x / 2), x).all_coeffs()[::-1]
        assert chebyshev_like(p, 1.0) == [float(a) for a in exact]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_certification(self, p, c):
        coeffs = chebyshev_like(p, c)
        poly = np.polynomial.Polynomial(coeffs)
        assert coeffs[p] == 1.0
        # roots sum to zero within 1e-10
        assert abs(sum(np.roots(coeffs[::-1]))) < 1e-10
        crit = sorted(r.real for r in poly.deriv().roots() if abs(r.imag) < 1e-9)
        assert len(crit) == p - 1
        low = sum(1 for lam in crit if poly(lam) < 0)
        assert low == p // 2
        for k, lam in enumerate(crit):
            want = -2 * c if (p - 1 - k) % 2 == 1 else 2 * c
            assert abs(poly(lam) - want) < 1e-10


class TestSmoothConjugate:
    def test_single_pair(self):
        fam = family_smooth_conjugate([{2: 1}])
        assert fam.singularity.expected_nodes == 0
        assert fam.singularity.multiplicity == 2

    def test_two_pairs_contact_two(self):
        fam = family_smooth_conjugate([{2: 1}, {2: -1}])
        assert fam.singularity.expected_nodes == 6

    def test_contact_from_first_differing_coefficient(self):
        fam = family_smooth_conjugate([{2: 1, 3: 1}, {2: 1, 3: -1}])
        # branches agree at exponent 2, differ at 3: n_12 = 3
        assert fam.singularity.expected_nodes == 2 * (3 + 1)

    def test_identical_branches_rejected(self):
        with pytest.raises(FamilyError):
            family_smooth_conjugate([{2: 1}, {2: 1}])

    def test_real_tangent_rejected(self):
        with pytest.raises(FamilyError):
            family_smooth_conjugate([{2: 1}], tangent=(1, 0))

    def test_exponent_must_exceed_one(self):
        with pytest.raises(FamilyError):
            family_smooth_conjugate([{1: 1}])

    def test_expression_is_real_polynomial(self):
        fam = family_smooth_conjugate([{2: complex(1, 1)}], tangent=(1, 2))
        assert np.isrealobj(fam.coeffs(fam.t_default))


class TestOnePuiseuxPair:
    def test_counts(self):
        assert family_one_puiseux_pair(2, 3, 1).singularity.expected_nodes == 5
        assert family_one_puiseux_pair(2, 5, 1).singularity.expected_nodes == 7
        assert family_one_puiseux_pair(3, 4, 1).singularity.expected_nodes == 14

    def test_non_coprime_rejected(self):
        with pytest.raises(FamilyError):
            family_one_puiseux_pair(4, 6, 1)

    def test_bad_range_rejected(self):
        with pytest.raises(FamilyError):
            family_one_puiseux_pair(3, 2, 1)
        with pytest.raises(FamilyError):
            family_one_puiseux_pair(1, 3, 1)

    def test_zero_a_rejected(self):
        with pytest.raises(FamilyError):
            family_one_puiseux_pair(2, 3, 0)

    def test_reduces_to_quasihomogeneous_model_at_t0(self):
        # at t = 0 the family is (w wbar)^p - a wbar^(p+q) - abar w^(p+q)
        p, q = 2, 3
        fam = family_one_puiseux_pair(p, q, 1, tangent=(0, 1))
        C0 = fam.coeffs(0.0)
        wr, wi = sympy.expand((X + sympy.I * Y) ** (p + q)).as_real_imag()
        model = np.zeros_like(C0)
        for ij, c in sympy.Poly((X**2 + Y**2) ** p - 2 * wr, X, Y).terms():
            model[ij] = float(c)
        assert C0 == pytest.approx(model, abs=1e-12)

    def test_radial_profile_limits_to_chebyshev(self):
        levels_small = radial_profile_levels(2, 3, 1.0, 1e-6)
        assert levels_small[0] == pytest.approx(-2.0, abs=1e-3)

    def test_radial_profile_puts_saddles_on_zero_level(self):
        fam = family_one_puiseux_pair(3, 4, 1)
        t = fam.t_default
        f, gradient, hessian = fam.evaluators(t)
        # the node near angle 0 on the ellipse: search a coarse ring
        rr, th = np.meshgrid(np.linspace(0.9 * t, 1.1 * t, 60), np.linspace(0, 2 * math.pi, 600),
                             indexing="ij")
        ring_x, ring_y = rr * np.cos(th), rr * np.sin(th)
        gx, gy = gradient(ring_x, ring_y)
        best = np.argmin(gx**2 + gy**2)
        x, y = float(ring_x.flat[best]), float(ring_y.flat[best])
        # Newton polish
        for _ in range(40):
            gx, gy = gradient(x, y)
            hxx, hxy, hyy = hessian(x, y)
            det = hxx * hyy - hxy**2
            x, y = x - (hyy * gx - hxy * gy) / det, y - (hxx * gy - hxy * gx) / det
        assert abs(f(x, y)) < 1e-12 * max(abs(f(t, t)), 1.0)


class TestSemiquasi:
    def test_two_ellipses(self):
        fam = family_semiquasi_pp([], [(1, 0, 1), (1, 0, 4)], [1, 2])
        assert fam.singularity.expected_nodes == 4

    def test_one_circle(self):
        assert family_semiquasi_pp([], [(1, 0, 1)], [1]).singularity.expected_nodes == 0

    def test_lines_and_circle(self):
        fam = family_semiquasi_pp([(1, 0), (0, 1)], [(1, 0, 1)], [1])
        # d = 4 transversal smooth branches, one conjugate pair
        assert fam.singularity.expected_nodes == 5

    def test_proportional_quadrics_rejected(self):
        with pytest.raises(FamilyError):
            family_semiquasi_pp([], [(1, 0, 1), (2, 0, 2)], [1, 1])

    def test_indefinite_quadric_rejected(self):
        with pytest.raises(FamilyError):
            family_semiquasi_pp([], [(1, 0, -1)], [1])

    def test_no_four_real_points_rejected(self):
        # nested ellipses never meet
        with pytest.raises(FamilyError):
            family_semiquasi_pp([], [(1, 0, 1), (1, 0, 4)], [2, 1])

    def test_shared_intersection_points_rejected(self):
        # all three conics pass through (+-1, +-1), so every pair meets
        # there and the pairs' intersection points coincide
        with pytest.raises(FamilyError, match="not pairwise distinct"):
            family_semiquasi_pp([], [(1, 0, 1), (2, 0, 1), (1, 0, 2)], [2, 3, 3])

    def test_shared_points_on_a_coordinate_axis_rejected(self):
        # every pencil has no x^2 term (qa = 0), so one of its lines is
        # y = 0, and every pair meets at (+-1, 0)
        with pytest.raises(FamilyError, match="not pairwise distinct"):
            family_semiquasi_pp([], [(1, 0, 1), (1, 1, 2), (1, -1, 3)], [1, 1, 1])


class TestEllipseComposition:
    def part(self, tangent):
        return family_smooth_conjugate([{2: 1}], tangent=tangent)

    def test_two_parts(self):
        fam = family_ellipse_composition([self.part((0, 1)), self.part((1, 1))], [1.0, 1.3])
        assert fam.singularity.expected_nodes == 4
        assert fam.singularity.multiplicity == 4

    def test_single_part_identity(self):
        part = self.part((0, 1))
        fam = family_ellipse_composition([part], [1.0])
        assert fam.singularity.expected_nodes == part.singularity.expected_nodes
        assert fam.singularity == part.singularity

    def test_smooth_with_one_pair(self):
        fam = _composition()
        assert fam.singularity.expected_nodes == 13
        assert fam.singularity.multiplicity == 6
        assert fam.singularity.intersections == ((0, 1, 2, 2), (1, 0, 2, 2), (2, 2, 0, 4), (2, 2, 4, 0))

    def test_part_with_real_branches_rejected(self):
        with_line = family_semiquasi_pp([(1, 0)], [(1, 0, 1)], [1])
        with pytest.raises(FamilyError, match="real branches"):
            family_ellipse_composition([with_line, self.part((1, 1))], [1.0, 1.6])

    def test_one_conic_part_rejected(self):
        # its conic is q = b t, not an ellipse the composition can rescale:
        # built, the two parts' branches never cross
        conic = family_semiquasi_pp([], [(1, 0, 1)], [1])
        with pytest.raises(FamilyError):
            family_ellipse_composition([conic, self.part((1, 1))], [1.0, 1.6])

    def test_equal_tangents_rejected(self):
        with pytest.raises(FamilyError):
            family_ellipse_composition([self.part((0, 1)), self.part((0, 1))], [1.0, 2.0])

    def test_gamma_count_mismatch(self):
        with pytest.raises(FamilyError):
            family_ellipse_composition([self.part((0, 1))], [1.0, 2.0])

    def test_part_that_is_no_family_rejected(self):
        # leaked AttributeError ("no attribute 'quads'") before
        with pytest.raises(FamilyError, match="not a family of one conjugate tangent pair"):
            family_ellipse_composition([1, 2], [1, 1])


class TestParabolaPair:
    def test_counts(self):
        assert family_parabola_pair(2).singularity.expected_nodes == 2
        assert family_parabola_pair(4).singularity.expected_nodes == 4

    def test_n1_rejected(self):
        with pytest.raises(FamilyError):
            family_parabola_pair(1)


class TestCustomExpression:
    def test_accepts_string(self):
        fam = family_from_expression("y**2 - x**2 + t", window=1.0)
        assert fam.singularity is None

    def test_rejects_an_expression_that_is_no_string(self):
        # leaked AttributeError ("no attribute 'strip'") before
        with pytest.raises(FamilyError, match="must be a string"):
            family_from_expression(5, 1.0)

    def test_rejects_foreign_symbols(self):
        with pytest.raises(FamilyError, match="may only involve x, y, t; found z"):
            family_from_expression("y**2 - z", window=1.0)

    def test_rejects_non_polynomial(self):
        with pytest.raises(FamilyError):
            family_from_expression("sin(x) + y**2 - t", window=1.0)

    @pytest.mark.parametrize("text", ["y - x**2 + sqrt(t)", "x*y - 1/t", "x**2.0", "1/x", "x**-1", "x**y",
                                      "x + 1j", "x/0", "True*x", "x +", "10**400*x"])
    def test_rejects_non_polynomial_in_t(self, text):
        with pytest.raises(FamilyError, match="not a real polynomial in x, y, t"):
            family_from_expression(text, window=1.0)

    def test_zero_polynomial_fails_evaluation(self):
        with pytest.raises(TraceError) as info:
            trace_divide(family_from_expression("x - x", window=1.0))
        assert info.value.reason == "evaluation"

    @pytest.mark.parametrize("text", PARSER_CORPUS)
    def test_matches_sympy_poly(self, text):
        """Coefficients at t_default against sympy's, padded to one shape:
        trailing zero rows and columns are no difference."""
        fam = family_from_expression(text, window=1.0)
        ours = fam.coeffs(fam.t_default)
        terms = sympy.Poly(_exact(text).at(fam.t_default), X, Y).terms()
        theirs = np.zeros(np.maximum(ours.shape, np.max([ij for ij, _ in terms], axis=0) + 1))
        for ij, c in terms:
            theirs[ij] = float(c)
        ours = np.pad(ours, [(0, n - m) for n, m in zip(theirs.shape, ours.shape)])
        assert np.abs(ours - theirs).max() <= 1e-15 * np.abs(theirs).max()


def test_runtime_never_imports_sympy():
    """Importing every module and tracing a parsed expression leaves sympy
    unloaded."""
    check = textwrap.dedent("""\
        import sys
        from divides import ag, alexander, divide, families, render, singularity, tracing
        traced = tracing.trace_divide(families.family_from_expression("(y - x)*(y + 2*x)", 1.0), grid_n=128)
        assert len(traced.nodes) == 1
        assert "sympy" not in sys.modules, "sympy was imported"
        """)
    subprocess.run([sys.executable, "-c", check], cwd=Path(__file__).resolve().parents[1],
                   env={**os.environ, "PYTHONPATH": "src"}, check=True)


def _composition():
    parts = [family_smooth_conjugate([{2: 1}], (0, 1)), family_one_puiseux_pair(2, 3, 1, (1, 1))]
    return family_ellipse_composition(parts, [1.0, 1.6])


CUSTOM = "x**3*y - 2*y**2*t + x*t**2 - 7"

EVALUATOR_FAMILIES = {
    "smooth-conjugate": lambda: family_smooth_conjugate([{2: 1}, {2: complex(1, -1)}], (1, 2)),
    "one-pair": lambda: family_one_puiseux_pair(3, 4, 1),
    "one-pair-complex": lambda: family_one_puiseux_pair(2, 5, complex(1, 2), (0.5, 1.5)),
    "semiquasi": lambda: family_semiquasi_pp([(1, 0)], [(1, 0, 2), (2, 1, 1)], [1, 1]),
    "parabola-pair": lambda: family_parabola_pair(3),
    "custom": lambda: family_from_expression(CUSTOM, window=1.0),
    "composition": _composition,
}

# the same families as exact expressions, multiplied out by sympy
EXACT_FAMILIES = {
    "smooth-conjugate": lambda: exact_smooth_conjugate([{2: 1}, {2: complex(1, -1)}], (1, 2)),
    "one-pair": lambda: exact_one_puiseux_pair(3, 4, 1),
    "one-pair-complex": lambda: exact_one_puiseux_pair(2, 5, complex(1, 2), (0.5, 1.5)),
    "semiquasi": lambda: exact_semiquasi_pp([(1, 0)], [(1, 0, 2), (2, 1, 1)], [1, 1]),
    "parabola-pair": lambda: exact_parabola_pair(3),
    "custom": lambda: _exact(CUSTOM),
    "composition": lambda: exact_ellipse_composition(
        [exact_smooth_conjugate([{2: 1}], (0, 1)), exact_one_puiseux_pair(2, 3, 1, (1, 1))], [1.0, 1.6]),
}


def _exact(text):
    return ExactFamily(sympy.sympify(text, locals={"x": X, "y": Y, "t": T}))


def partials(fam, t, x, y) -> tuple:
    """F, Fx, Fy, Fxx, Fxy, Fyy at (x, y), from the family's evaluators."""
    value, gradient, hessian = fam.evaluators(t)
    return (value(x, y), *gradient(x, y), *hessian(x, y))


class TestEvaluators:
    """The compiled evaluators against exact sympy values of F and its
    first and second partials."""

    @pytest.mark.parametrize("name", sorted(EVALUATOR_FAMILIES))
    def test_points_match_sympy(self, name):
        fam = EVALUATOR_FAMILIES[name]()
        t = fam.t_default
        expr = EXACT_FAMILIES[name]().at(t)
        fx, fy = sympy.diff(expr, X), sympy.diff(expr, Y)
        exact = (expr, fx, fy, sympy.diff(fx, X), sympy.diff(fx, Y), sympy.diff(fy, Y))
        W = fam.window(t)
        for x, y in [(W / 3, -2 * W / 7), (-5 * W / 8, 3 * W / 11)]:
            point = {X: sympy.Rational(x), Y: sympy.Rational(y)}
            for value, e in zip(partials(fam, t, x, y), exact):
                assert value == pytest.approx(float(e.subs(point)), rel=1e-12)

    def test_degree_twelve_near_the_rim(self):
        """Six conics multiplied out: the power tables run up to x^12 and y^12,
        checked where |x| and |y| are about the window."""
        conics = ["x**2 + y**2 - t", "x**2 - 2*y**2 + x*y - 1", "2*x**2 + y**2 - 3*x*y + x - 2",
                  "x**2 + 3*y**2 + 2*x*y - y - 5", "x**2 - y**2 + t*x*y + 1/2", "3*x**2 + y**2 - 2*t*y"]
        text = "*".join(f"({c})" for c in conics)
        fam = family_from_expression(text, window=1.5)
        t = fam.t_default
        expr = _exact(text).at(t)
        assert sympy.Poly(expr, X, Y).degree(X) == sympy.Poly(expr, X, Y).degree(Y) == 12
        fx, fy = sympy.diff(expr, X), sympy.diff(expr, Y)
        exact = (expr, fx, fy, sympy.diff(fx, X), sympy.diff(fx, Y), sympy.diff(fy, Y))
        W = fam.window(t)
        for x, y in [(W, -0.9 * W), (-0.95 * W, W), (-W, -W)]:
            point = {X: sympy.Rational(x), Y: sympy.Rational(y)}
            for value, e in zip(partials(fam, t, x, y), exact):
                assert value == pytest.approx(float(e.subs(point)), rel=1e-12)

    @pytest.mark.parametrize("name", ["one-pair", "composition"])
    def test_grid_matches_points(self, name):
        fam = EVALUATOR_FAMILIES[name]()
        t = fam.t_default
        W = fam.window(t)
        xs = np.linspace(-W, W, 9)
        ys = np.linspace(-W, 0.5 * W, 7)
        grids = partials(fam, t, xs[:, None], ys)
        for i, j in [(0, 0), (3, 5), (8, 6), (5, 2)]:
            for grid, value in zip(grids, partials(fam, t, xs[i], ys[j]), strict=True):
                assert grid.shape == (9, 7)
                assert grid[i, j] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("name", ["one-pair", "composition"])
    def test_paired_points_match_points(self, name):
        fam = EVALUATOR_FAMILIES[name]()
        t = fam.t_default
        W = fam.window(t)
        rng = np.random.default_rng(0)
        xs, ys = rng.uniform(-W, W, (2, 3, 4))
        expected = zip(*(partials(fam, t, float(x), float(y)) for x, y in zip(xs.flat, ys.flat)))
        for values, points in zip(partials(fam, t, xs, ys), expected, strict=True):
            assert values.shape == (3, 4)
            assert values.ravel() == pytest.approx(points, rel=1e-12)
