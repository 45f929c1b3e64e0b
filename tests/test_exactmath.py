"""Exact scalar arithmetic, polynomials and exact linear algebra."""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nalab.exactmath import (DivisionByZeroError, MultiPoly, QuadExt,
                             format_scalar, parse_scalar,
                             poly_rank, scalar_is_zero,
                             scalar_rank, scalar_sign, span_membership,
                             solve_affine, det)
from oracles import fraction_multiply, generic_element

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def q3(a, b=0):
    return QuadExt(a, b)


class TestScalarArith:
    def test_mul_mixed_root(self):
        assert q3(Fraction(1, 2)) * q3(0, 2) == q3(0, 1)

    def test_norm_form(self):
        assert q3(1, 1) * q3(1, -1) == q3(-2, 0)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            q3(1) / q3(0)
        with pytest.raises(DivisionByZeroError):
            Fraction(2, 3) / q3(0)

    def test_div_exact(self):
        x = q3(Fraction(3, 2), Fraction(-1, 3))
        assert x / x == q3(1)

    @given(a=fracs, b=fracs, c=fracs, d=fracs, e=fracs, f=fracs)
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, a, b, c, d, e, f):
        x, y, z = q3(a, b), q3(c, d), q3(e, f)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not y.is_zero():
            assert (x / y) * y == x

    def test_equality_with_rationals(self):
        assert q3(Fraction(1, 2), 0) == Fraction(1, 2)
        assert hash(q3(Fraction(1, 2), 0)) == hash(Fraction(1, 2))
        assert q3(1, 1) != Fraction(1)


def decimal_sign(a, b, d=3):
    """Oracle: sign of a + b*sqrt(d) evaluated to 100 decimal digits."""
    with localcontext() as ctx:
        ctx.prec = 100
        val = (Decimal(a.numerator) / a.denominator
               + Decimal(b.numerator) / b.denominator * Decimal(d).sqrt())
    return (val > 0) - (val < 0)


class TestScalarSign:
    # 97 - 56*sqrt3 ~ 0.0052 and 1351/780 - sqrt3 ~ 2.8e-7 nearly cancel
    @given(a=st.fractions(max_denominator=10 ** 6) | st.just(Fraction(0)),
           b=st.fractions(max_denominator=10 ** 6) | st.just(Fraction(0)))
    @example(a=Fraction(0), b=Fraction(0))
    @example(a=Fraction(0), b=Fraction(-2))
    @example(a=Fraction(-5), b=Fraction(0))
    @example(a=Fraction(97), b=Fraction(-56))
    @example(a=Fraction(-97), b=Fraction(56))
    @example(a=Fraction(1351, 780), b=Fraction(-1))
    @example(a=Fraction(-1351, 780), b=Fraction(1))
    @settings(max_examples=200, deadline=None)
    def test_matches_decimal(self, a, b):
        assert scalar_sign(q3(a, b)) == decimal_sign(a, b)
        if b == 0:
            assert scalar_sign(a) == decimal_sign(a, b)


class TestScalarText:
    @pytest.mark.parametrize("text,val", [
        ("1/2", Fraction(1, 2)),
        ("-3", Fraction(-3)),
        ("1/2+1/6*sqrt3", QuadExt(Fraction(1, 2), Fraction(1, 6))),
        ("0-1*sqrt3", QuadExt(0, -1)),
        ("2-3/4*sqrt3", QuadExt(2, Fraction(-3, 4))),
    ])
    def test_parse(self, text, val):
        assert parse_scalar(text) == val

    def test_parse_errors(self):
        for bad in ("", "sqrt3", "1.5", "1/2+sqrt3", "1//2", "1/0",
                    "1+1/0*sqrt3", "1+1*sqrt5", "1+1*sqrt2"):
            with pytest.raises(ValueError):
                parse_scalar(bad)

    @given(a=fracs, b=fracs)
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, a, b):
        x = q3(a, b)
        assert parse_scalar(format_scalar(x)) == x


def _mp_const(n, c):
    return MultiPoly.const(n, Fraction(c))


class TestMultiPoly:
    def test_zero_has_empty_terms(self):
        z = MultiPoly(2, {(1, 0): Fraction(0)})
        assert z.is_zero() and not z.terms

    def test_arithmetic(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y
        assert (p - p).is_zero()

    def test_evaluate(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = x * x + 2 * y
        assert p.evaluate([Fraction(3), Fraction(1, 2)]) == Fraction(10)

    def test_exact_div(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = (x + y) * (x - y)
        assert p.exact_div(x + y) == x - y
        with pytest.raises(ValueError):
            (x * x + y).exact_div(x + y)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_div_roundtrip(self, a, b, c):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        p = a * x + b * y + _mp_const(2, c)
        q = x * y + _mp_const(2, 1)
        if p.is_zero():
            return
        assert (p * q).exact_div(p) == q


class TestPolyRank:
    def test_constant_identity(self):
        m = [[_mp_const(1, 1), _mp_const(1, 0)],
             [_mp_const(1, 0), _mp_const(1, 1)]]
        assert poly_rank(m) == 2

    def test_proportional_rows(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        assert poly_rank([[x1, x2], [2 * x1, 2 * x2]]) == 1

    def test_quaternion_generic_square(self):
        """Rows (e, x, x^2) for generic quaternion x have rank 2.

        Oracle: first verify the quadratic relation
        x^2 = 2 x_0 x - N(x) e symbolically, which exhibits row 3 as a
        function-field combination of rows 1 and 2.
        """
        from nalab.catalog import classical
        H = classical("H").algebra
        x = generic_element(H)
        x2 = fraction_multiply(H, x, x)
        nv = 4
        x0 = MultiPoly.variable(nv, 0)
        norm = MultiPoly(nv)
        for i in range(4):
            v = MultiPoly.variable(nv, i)
            norm = norm + v * v
        e_row = [_mp_const(nv, 1)] + [_mp_const(nv, 0)] * 3
        # oracle identity, coordinate-wise
        for k in range(4):
            lhs = x2.coords[k]
            rhs = 2 * x0 * x.coords[k] - norm * e_row[k]
            assert (lhs - rhs).is_zero()
        m = [e_row, list(x.coords), list(x2.coords)]
        assert poly_rank(m) == 2

    def test_rank_invariances(self):
        x1 = MultiPoly.variable(2, 0)
        x2 = MultiPoly.variable(2, 1)
        one = _mp_const(2, 1)
        rows = [[x1, x2, one], [x2, one, x1], [x1 + x2, x2 + one, one + x1]]
        r = poly_rank(rows)
        assert poly_rank([rows[2], rows[0], rows[1]]) == r
        assert poly_rank([[3 * e for e in row] for row in rows]) == r

    def test_scalar_entries(self):
        assert poly_rank([[Fraction(1), Fraction(2)],
                          [Fraction(2), Fraction(4)]]) == 1

    def test_non_rectangular(self):
        with pytest.raises(ValueError):
            poly_rank([[_mp_const(1, 1)], [_mp_const(1, 1), _mp_const(1, 0)]])


class TestSpanMembership:
    def test_zero_target(self):
        inside, coeffs = span_membership([Fraction(0), Fraction(0)],
                                         [[Fraction(1), Fraction(0)]])
        assert inside and coeffs == [Fraction(0)]

    def test_standard_basis(self):
        inside, coeffs = span_membership(
            [Fraction(1), Fraction(1)],
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
        assert inside and coeffs == [Fraction(1), Fraction(1)]

    def test_outside(self):
        inside, coeffs = span_membership(
            [Fraction(0), Fraction(1)], [[Fraction(1), Fraction(0)]])
        assert not inside and coeffs is None

    @given(st.lists(st.tuples(fracs, fracs, fracs), min_size=1, max_size=3),
           st.tuples(fracs, fracs, fracs))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, gens, coeff_seed):
        gens = [list(g) for g in gens]
        target = [Fraction(0)] * 3
        for g, c in zip(gens, coeff_seed):
            target = [t + c * x for t, x in zip(target, g)]
        inside, coeffs = span_membership(target, gens)
        assert inside
        rebuilt = [Fraction(0)] * 3
        for g, c in zip(gens, coeffs):
            rebuilt = [t + c * x for t, x in zip(rebuilt, g)]
        assert rebuilt == target


class TestSolveDet:
    def test_solve_affine_unique(self):
        sol = solve_affine([[Fraction(2), Fraction(0)],
                            [Fraction(0), Fraction(3)]],
                           [Fraction(4), Fraction(6)])
        assert sol == ([Fraction(2), Fraction(2)], [])

    def test_solve_affine_inconsistent(self):
        assert solve_affine([[Fraction(1)], [Fraction(1)]],
                            [Fraction(0), Fraction(1)]) is None

    def test_solve_affine_underdetermined(self):
        particular, basis = solve_affine([[Fraction(1), Fraction(1)]],
                                         [Fraction(2)])
        assert len(basis) == 1
        # every reported solution solves the system
        v = [p + 3 * h for p, h in zip(particular, basis[0])]
        assert v[0] + v[1] == Fraction(2)

    def test_det(self):
        assert det([[Fraction(1), Fraction(2)],
                    [Fraction(3), Fraction(4)]]) == Fraction(-2)
        assert det([[q3(0, 1), q3(0)], [q3(0), q3(0, 1)]]) == q3(3)

    def test_scalar_rank_quadext(self):
        rows = [[q3(1), q3(0, 1)], [q3(0, 1), q3(3)]]
        assert scalar_rank(rows) == 1

    def test_span_membership_quadext(self):
        # sqrt3 * (1, sqrt3) = (sqrt3, 3)
        inside, coeffs = span_membership(
            [q3(0, 1), q3(3)], [[q3(1), q3(0, 1)]])
        assert inside and coeffs == [q3(0, 1)]

    def test_poly_rank_quadext_coefficients(self):
        x = MultiPoly.variable(1, 0)
        r3 = QuadExt(0, 1)
        rows = [[x, r3 * x], [r3 * x, 3 * x]]
        assert poly_rank(rows) == 1
        rows = [[x, r3 * x], [r3 * x, MultiPoly.const(1, 1)]]
        assert poly_rank(rows) == 2


# ---------------------------------------------------------------------------
# Oracles for exact elimination: every check below is computed without the
# elimination routines under test (Leibniz expansion, Bareiss rank, direct
# substitution).
# ---------------------------------------------------------------------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def scalar_matrices(draw, square=False):
    """Matrices up to 4x4 over Q or Q(sqrt 3), with forced singular and
    forced-row-swap shapes.  Q(sqrt 3) matrices mix Fraction and QuadExt
    entries, as the operators of the catalog's pseudo-octonions do."""
    quad = draw(st.booleans())

    def entry():
        a = draw(small)
        return q3(a, draw(small)) if quad and draw(st.booleans()) else a

    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    shape = draw(st.sampled_from(("random", "singular", "swap")))
    if shape == "swap":
        # an echelon matrix with nonzero pivots, rows reversed: every column
        # needs a row exchange before its pivot is found
        rows = []
        for i in range(m):
            row = [Fraction(0)] * min(i, n) + [entry() for _ in range(n - i)]
            if i < n and scalar_is_zero(row[i]):
                row[i] = q3(1, 1) if quad else Fraction(1)
            rows.append(row)
        return rows[::-1]
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if shape == "singular":
        # last row a combination of the others (the zero row when m == 1)
        coeffs = [draw(small) for _ in range(m - 1)]
        rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                    for j in range(n)]
    return rows


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) if inversions % 2 else Fraction(1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def mat_vec(rows, v):
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in rows]


class TestEliminationOracles:
    @given(scalar_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_det_matches_leibniz(self, rows):
        assert det(rows) == leibniz_det(rows)

    @given(scalar_matrices())
    @settings(max_examples=150, deadline=None)
    def test_scalar_rank_matches_bareiss(self, rows):
        assert scalar_rank(rows) == poly_rank(rows)

    @given(scalar_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve_affine(self, rows, data):
        ncols = len(rows[0])
        if data.draw(st.booleans()):
            # consistent by construction
            rhs = mat_vec(rows, [data.draw(small) for _ in range(ncols)])
        else:
            rhs = [data.draw(small) for _ in rows]
        rank = poly_rank(rows)
        aug_rank = poly_rank([r + [b] for r, b in zip(rows, rhs)])
        sol = solve_affine(rows, rhs)
        assert (sol is None) == (aug_rank > rank)
        if sol is None:
            return
        particular, basis = sol
        assert len(particular) == ncols
        assert mat_vec(rows, particular) == rhs
        assert len(basis) == ncols - rank
        for h in basis:
            assert len(h) == ncols
            assert all(scalar_is_zero(x) for x in mat_vec(rows, h))
        if basis:
            assert poly_rank(basis) == len(basis)

    @given(scalar_matrices())
    @settings(max_examples=60, deadline=None)
    def test_det_rejects_non_square(self, rows):
        if len(rows) == len(rows[0]):
            rows = [r + [Fraction(1)] for r in rows]
        with pytest.raises(ValueError):
            det(rows)
