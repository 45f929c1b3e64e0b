"""The integer kernels of the concrete side against the field oracles of
``oracles.py``: the fraction-free ``Echelon`` and the linear algebra on it,
the integer table of an algebra, and the products behind ``multiply``,
``eval_free_poly`` and the pair closure (``test_identities`` compares the
associativity triples).  Last, the cross-checks that must share no code
with either identity backend run with both backends' products disabled."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab import algebra, engine
from nalab.algebra import (FIELD_Q, FIELD_QSQRT3, StructureAlgebra,
                           _pair_closure, eval_free_poly, identity_holds,
                           mult_operator, multiply, subalgebra_generated)
from nalab.catalog import CATALOG_NAMES, catalog_algebra
from nalab.exactmath import (Echelon, QuadExt, clear_denominators, det,
                             scalar_rank, solve_affine, span_membership)
from nalab.freealg import FreePoly, associator, pqr_associator
from nalab.identities import _nonassociative_triple
from oracles import (FractionEchelon, fraction_det, fraction_eval_free_poly,
                     fraction_mult_operator, fraction_multiply,
                     fraction_pair_closure,
                     fraction_scalar_rank, fraction_solve_affine,
                     fraction_span_membership)

SQRT3 = QuadExt(0, 1)


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


@st.composite
def rationals(draw):
    """Small values, and numerators past 2^53 over denominators up to
    2^64."""
    if draw(st.booleans()):
        return Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
    return Fraction(draw(st.integers(-2 ** 70, 2 ** 70)),
                    draw(st.integers(1, 2 ** 64)))


@st.composite
def field_matrices(draw, square=False):
    """Matrices up to 5 x 5 over Q or Q(sqrt 3), a quarter of the entries
    zero, with rank-deficient shapes: zero rows, repeated rows and rows
    combined from earlier ones.  Q(sqrt 3) matrices mix Fraction and
    QuadExt entries."""
    quad = draw(st.booleans())

    def entry():
        if draw(st.integers(0, 3)) == 0:
            return Fraction(0)
        a = draw(rationals())
        return QuadExt(a, draw(rationals())) if quad and draw(st.booleans()) \
            else a

    m = draw(st.integers(1, 5))
    n = m if square else draw(st.integers(1, 5))
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    shape = draw(st.sampled_from(("random", "zero", "repeated", "combined")))
    if m > 1 and shape == "zero":
        rows[draw(st.integers(0, m - 1))] = [Fraction(0)] * n
    elif m > 1 and shape == "repeated":
        rows[-1] = list(rows[draw(st.integers(0, m - 2))])
    elif m > 1 and shape == "combined":
        coeffs = [entry() for _ in range(m - 1)]
        rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                    for j in range(n)]
    return rows


def snapshots(echelon, rows):
    """(kept, leads, minor) after every add."""
    ech = echelon()
    out = []
    for row in rows:
        kept = ech.add(row)
        out.append((kept, list(ech.leads), ech.minor))
    return out


class TestEchelonMatchesFractionEchelon:
    @given(field_matrices())
    @settings(max_examples=200, deadline=None)
    def test_leads_and_minor_after_every_add(self, rows):
        assert snapshots(Echelon, rows) == snapshots(FractionEchelon, rows)

    @given(field_matrices(square=True))
    @settings(max_examples=100, deadline=None)
    def test_det(self, rows):
        assert det(rows) == fraction_det(rows)

    @given(field_matrices())
    @settings(max_examples=100, deadline=None)
    def test_scalar_rank(self, rows):
        assert scalar_rank(rows) == fraction_scalar_rank(rows)

    @given(field_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve_affine(self, rows, data):
        if data.draw(st.booleans()):
            # consistent by construction
            v = [data.draw(rationals()) for _ in rows[0]]
            rhs = [sum((a * x for a, x in zip(row, v)), Fraction(0))
                   for row in rows]
        else:
            rhs = [data.draw(rationals()) for _ in rows]
        assert solve_affine(rows, rhs) == fraction_solve_affine(rows, rhs)

    @given(field_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_span_membership(self, gens, data):
        if data.draw(st.booleans()):
            coeffs = [data.draw(rationals()) for _ in gens]
            target = [sum((c * g[j] for c, g in zip(coeffs, gens)),
                          Fraction(0)) for j in range(len(gens[0]))]
        else:
            target = [data.draw(rationals()) for _ in gens[0]]
        assert span_membership(target, gens) == \
            fraction_span_membership(target, gens)

    def test_quadratic_row_after_rational_rows(self):
        # a sqrt 3 row widens the kept rational rows
        rows = [[Fraction(1), Fraction(2), Fraction(0)],
                [Fraction(0), Fraction(1, 2), Fraction(3)],
                [SQRT3, QuadExt(1, 1), Fraction(5)],
                [QuadExt(2, 1), QuadExt(1, -1), Fraction(7, 3)]]
        assert snapshots(Echelon, rows) == snapshots(FractionEchelon, rows)

    def test_clear_denominators(self):
        row = [Fraction(1, 2), QuadExt(Fraction(1, 3), Fraction(-5, 4)), 7]
        parts, d = clear_denominators(row)
        assert d == 12
        assert parts == ([6, 4, 84], [0, -15, 0])


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------


def random_algebra(dim, seed, field, density, big):
    """Constants nonzero with probability density; over Q(sqrt 3) most have
    a sqrt 3 part.  big draws numerators past 2^53 and denominators up to
    2^40."""
    rng = random.Random(seed)

    def rational():
        if big:
            return Fraction(rng.randint(-2 ** 60, 2 ** 60),
                            rng.randint(1, 2 ** 40))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def const():
        if rng.random() >= density:
            return Fraction(0)
        a = rational()
        return QuadExt(a, rational()) if field == FIELD_QSQRT3 and \
            rng.random() < 0.7 else a

    return StructureAlgebra("rand", dim, field, [
        [[const() for _ in range(dim)] for _ in range(dim)]
        for _ in range(dim)])


def random_element(A, rng, sparse=0.3):
    def coord():
        if rng.random() < sparse:
            return Fraction(0)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        if A.field == FIELD_QSQRT3 and rng.random() < 0.5:
            return QuadExt(a, Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        return a
    return A.element([coord() for _ in range(A.dim)])


algebras = st.builds(
    random_algebra, dim=st.integers(1, 5), seed=st.integers(0, 10 ** 6),
    field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
    density=st.sampled_from((0.1, 0.4, 1.0)), big=st.booleans())


class TestProductsMatchFractionOracles:
    @given(algebras)
    @settings(max_examples=60, deadline=None)
    def test_integer_table(self, A):
        scale, width, table = A.integer_table()
        listed = {}
        for i in range(A.dim):
            for j in range(A.dim):
                for k, a, b in table[i][j]:
                    listed[i, j, k] = QuadExt(Fraction(a, scale),
                                              Fraction(b, scale))
        for i in range(A.dim):
            for j in range(A.dim):
                for k in range(A.dim):
                    c = A.constants[i][j][k]
                    assert listed.get((i, j, k), 0) == c
                    assert ((i, j, k) in listed) == bool(c)
        assert (width == 2) == any(
            isinstance(c, QuadExt) and c.b != 0
            for row in A.constants for cell in row for c in cell)

    @given(algebras, st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_multiply_and_eval_free_poly(self, A, seed):
        rng = random.Random(seed)
        u, v = random_element(A, rng), random_element(A, rng)
        assert multiply(A, u, v) == fraction_multiply(A, u, v)
        x, y = FreePoly.var("x"), FreePoly.var("y")
        for poly in (pqr_associator(2, 1, 2), associator(x, y, x),
                     x * y - (y * x).scale(Fraction(2, 3))):
            assignment = {"x": u, "y": v}
            assert eval_free_poly(A, poly, assignment) == \
                fraction_eval_free_poly(A, poly, assignment)

    @given(algebras, st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_closure_pairs_and_basis(self, A, seed):
        x = random_element(A, random.Random(seed), sparse=0.2)
        if x.is_zero():
            return
        basis, pairs = fraction_pair_closure(A, x)
        assert _pair_closure(A, x)[1] == pairs
        assert list(subalgebra_generated(A, x).basis) == basis

    def test_catalog(self):
        rng = random.Random(5)
        for name in CATALOG_NAMES:
            A = catalog_algebra(name)
            x = random_element(A, rng, sparse=0.0)
            assert _pair_closure(A, x)[1] == fraction_pair_closure(A, x)[1]
            assert multiply(A, x, x) == fraction_multiply(A, x, x)


def assert_mult_operator(A, x):
    """mult_operator equals the oracle built column by column from
    fraction_multiply, with the scalar types of n multiply calls."""
    basis = [A.basis_element(j) for j in range(A.dim)]
    for side in ("left", "right"):
        got = mult_operator(A, x, side)
        assert got == fraction_mult_operator(A, x, side)
        cols = [(multiply(A, x, b) if side == "left"
                 else multiply(A, b, x)).coords for b in basis]
        assert [list(map(type, row)) for row in got] == \
            [[type(c[k]) for c in cols] for k in range(A.dim)]


class TestMultOperator:
    @given(algebras, st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_random_algebras(self, A, seed):
        assert_mult_operator(A, random_element(A, random.Random(seed)))

    def test_catalog_d8_and_files(self, files_algebras):
        n = 8
        d8 = StructureAlgebra("D8", n, FIELD_Q, [
            [[Fraction(int(i == j == k)) for k in range(n)]
             for j in range(n)] for i in range(n)])
        rng = random.Random(11)
        for A in (*map(catalog_algebra, CATALOG_NAMES), d8,
                  *files_algebras.values()):
            assert_mult_operator(A, random_element(A, rng))
            assert_mult_operator(A, A.basis_element(A.dim - 1))
        # a sqrt 3 element of a rational algebra
        H = catalog_algebra("H")
        assert_mult_operator(H, H.element([SQRT3, Fraction(1, 2), 0, 0]))


# ---------------------------------------------------------------------------
# Independence of the cross-checks
# ---------------------------------------------------------------------------


def test_cross_checks_share_no_code_with_the_identity_backends(monkeypatch):
    """The associativity triples and the witness confirmation answer with
    the products of both identity backends disabled."""
    def triple(name):
        C = catalog_algebra(name)
        A = StructureAlgebra(C.name, C.dim, C.field, C.constants)
        return _nonassociative_triple(
            A, [A.basis_element(i) for i in range(A.dim)])

    expected = {name: triple(name) for name in CATALOG_NAMES}
    failing = catalog_algebra("*H")
    poly = pqr_associator(1, 1, 1)
    witness = identity_holds(failing, poly, "symbolic").witness
    assert witness is not None

    def disabled(*args, **kwargs):
        raise AssertionError("an identity backend product ran")

    monkeypatch.setattr(engine, "_field_product", disabled)
    monkeypatch.setattr(engine, "sym_product", disabled)
    for name in CATALOG_NAMES:
        assert triple(name) == expected[name], name
    A = StructureAlgebra(failing.name, failing.dim, failing.field,
                         failing.constants)
    assert not algebra.eval_free_poly(A, poly, witness).is_zero()
    with pytest.raises(AssertionError, match="backend product"):
        identity_holds(A, poly, "symbolic")
