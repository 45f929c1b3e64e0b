"""Free nonassociative algebra: terms, polarization, golden tables."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab.freealg import (DEGREE4_WORDS, FreePoly, TableRowError,
                           UnitModeError, associator, commutator,
                           degree4_consequences, enumerate_trees,
                           golden_row_is_misprinted, golden_rows,
                           golden_table, golden_table_corrected, jordan,
                           mul_term, polarize, polarize_blocks,
                           poly_to_word_vector, pqr_associator, render_poly,
                           substitute, term_bidegree, term_degree, term_key)

X = FreePoly.var("x")
Y = FreePoly.var("y")
XX = FreePoly.term(("x", "x"))

ALL_TRIPLES = list(itertools.product((1, 2), repeat=3))

#: the grading blocks of (x + y)^p, built here independently of freealg
BLOCK_POLY = {"x": X, "y": Y, "xx": XX, "yy": FreePoly.term(("y", "y")),
              "xoy": X * Y + Y * X}


def blocks_to_poly(blocks):
    """Oracle: the sum of the associators of the named blocks."""
    out = FreePoly()
    for g1, g2, g3 in blocks:
        out = out + associator(BLOCK_POLY[g1], BLOCK_POLY[g2], BLOCK_POLY[g3])
    return out


def trees(depth):
    leaf = st.sampled_from(["x", "y"])
    return st.recursive(leaf, lambda sub: st.tuples(sub, sub), max_leaves=depth)


class TestTermOps:
    def test_jordan_square(self):
        assert jordan(X, X) == XX.scale(2)

    def test_commutator_self(self):
        assert commutator(XX, XX) == FreePoly.zero()

    def test_jordan_xy(self):
        expect = FreePoly.term(("x", "y")) + FreePoly.term(("y", "x"))
        assert jordan(X, Y) == expect

    def test_add_sub_mul(self):
        assert (X + Y) - Y == X
        assert X * Y == FreePoly.term(("x", "y"))
        assert (X - X).is_zero()


class TestAssociator:
    def test_xxx(self):
        expect = FreePoly.term((("x", "x"), "x")) - \
            FreePoly.term(("x", ("x", "x")))
        assert associator(X, X, X) == expect

    def test_unit_absorbs(self):
        assert associator(FreePoly.unit(), X, X).is_zero()
        assert associator(X, FreePoly.unit(), X).is_zero()

    def test_x_x2_x(self):
        expect = FreePoly.term((("x", ("x", "x")), "x")) - \
            FreePoly.term(("x", (("x", "x"), "x")))
        assert associator(X, XX, X) == expect


class TestPolarize:
    def test_f1_of_111(self):
        f1 = polarize(1, 1, 1).f(1)
        expect = commutator(XX, Y) + commutator(jordan(X, Y), X)
        assert f1 == expect

    def test_f3_of_222_table(self):
        assert polarize(2, 2, 2).f(3) == golden_table(2, 2, 2, 3)

    def test_f3_of_112_symmetry(self):
        # f_3 of (1,1,2) is the x<->y swap of the first-table (1,1,2) row
        f3 = polarize(1, 1, 2).f(3)
        assert f3 == golden_table(1, 1, 2, 1).swap_xy()

    def test_all_rows_match_tables(self):
        for (p, q, r, m) in golden_rows():
            f = polarize(p, q, r).f(m)
            assert f == golden_table_corrected(p, q, r, m), (p, q, r, m)

    def test_misprinted_cell(self):
        # the published second-table (1,1,1) row repeats the first identity;
        # the true second component is its variable swap
        printed = golden_table(1, 1, 1, 2)
        assert printed == golden_table(1, 1, 1, 1)
        assert polarize(1, 1, 1).f(2) != printed
        assert polarize(1, 1, 1).f(2) == golden_table_corrected(1, 1, 1, 2)
        assert golden_row_is_misprinted(1, 1, 1, 2)

    def test_symmetry_all(self):
        for (p, q, r) in ALL_TRIPLES:
            pol = polarize(p, q, r)
            s = p + q + r
            for m in range(1, s):
                assert pol.f(m).swap_xy() == pol.f(s - m)

    def test_grading(self):
        for (p, q, r) in ALL_TRIPLES:
            pol = polarize(p, q, r)
            s = p + q + r
            for m in range(1, s):
                assert pol.f(m).bidegrees() == {(s - m, m)}

    def test_expansion_at_one(self):
        for (p, q, r) in ALL_TRIPLES:
            sxy = X + Y
            pw = {1: sxy, 2: sxy * sxy}
            lhs = associator(pw[p], pw[q], pw[r])
            rhs = pqr_associator(p, q, r) + pqr_associator(p, q, r).swap_xy()
            for f in polarize(p, q, r).components:
                rhs = rhs + f
            assert lhs == rhs

    def test_blocks_agree(self):
        for (p, q, r) in ALL_TRIPLES:
            pol = polarize(p, q, r)
            for m in range(1, p + q + r):
                assert blocks_to_poly(polarize_blocks(p, q, r, m)) == pol.f(m)

    def test_component_range(self):
        with pytest.raises(ValueError):
            polarize(1, 1, 1).f(3)
        with pytest.raises(ValueError):
            polarize(1, 1, 1).f(0)


class TestGoldenTable:
    def test_first_table_rows(self):
        row = golden_table(2, 1, 1, 1)
        expect = associator(XX, X, Y) + associator(XX, Y, X) + \
            associator(jordan(X, Y), X, X)
        assert row == expect

    def test_second_table_row(self):
        row = golden_table(1, 2, 1, 2)
        expect = (associator(X, jordan(X, Y), Y) + associator(X, Y * Y, X) +
                  associator(Y, XX, Y) + associator(Y, jordan(X, Y), X))
        assert row == expect

    def test_row_not_in_tables(self):
        with pytest.raises(TableRowError):
            golden_table(1, 1, 1, 3)
        with pytest.raises(TableRowError):
            golden_table(1, 1, 2, 3)

    def test_seventeen_rows(self):
        assert len(golden_rows()) == 17


class TestSubstitute:
    def test_prop1_device(self):
        # y -> x^2 in the first component of (x,x,x) = 0
        f1 = polarize(1, 1, 1).f(1)
        got = substitute(f1, {"x": X, "y": XX})
        expect = commutator(jordan(X, XX), X)  # [x^2, x^2] vanishes
        assert got == expect

    def test_unital_112(self):
        f1 = polarize(1, 1, 2).f(1)
        got = substitute(f1, {"x": X, "y": FreePoly.unit()}, unital=True)
        assert got == pqr_associator(1, 1, 1).scale(2)

    def test_unital_222(self):
        f3 = polarize(2, 2, 2).f(3)
        got = substitute(f3, {"x": X, "y": FreePoly.unit()}, unital=True)
        assert got == pqr_associator(1, 1, 1).scale(8)

    def test_unit_requires_unital_mode(self):
        with pytest.raises(UnitModeError):
            substitute(polarize(1, 1, 2).f(1), {"x": X, "y": FreePoly.unit()})

    def test_missing_assignment(self):
        with pytest.raises(ValueError):
            substitute(polarize(1, 1, 1).f(1), {"x": X})

    @given(trees(6))
    @settings(max_examples=60, deadline=None)
    def test_unital_substitution_degree(self, t):
        """Substituting 1 for y never raises leaf-degree, and the canonical
        form never keeps the unit under a product."""
        poly = FreePoly.term(t)
        got = substitute(poly, {"x": X, "y": FreePoly.unit()}, unital=True)
        dx, dy = term_bidegree(t)
        for term in got.terms:
            assert term_degree(term) == dx <= dx + dy
            if not isinstance(term, str):
                def no_unit(u):
                    if isinstance(u, str):
                        return u != "1"
                    return no_unit(u[0]) and no_unit(u[1])
                assert no_unit(term)


class TestDegree4:
    def test_first_consequence(self):
        got = degree4_consequences()[0]
        expect = FreePoly.term(("x", (("x", "x"), "x"))) - \
            FreePoly.term(("x", ("x", ("x", "x"))))
        assert got == expect

    def test_second_consequence(self):
        got = degree4_consequences()[1]
        expect = FreePoly.term(((("x", "x"), "x"), "x")) - \
            FreePoly.term((("x", ("x", "x")), "x"))
        assert got == expect

    def test_word_space_dimension(self):
        assert len(DEGREE4_WORDS) == 5
        assert len(enumerate_trees(4)) == 5  # Catalan C_3

    def test_catalan_counts(self):
        assert [len(enumerate_trees(k)) for k in (1, 2, 3, 4, 5)] == \
            [1, 1, 2, 5, 14]

    def test_vector_support_check(self):
        with pytest.raises(ValueError):
            poly_to_word_vector(FreePoly.term(("x", "y")))


class TestRendering:
    def test_render_terms(self):
        p = FreePoly.term((("x", "x"), "x")) - \
            FreePoly.term(("x", ("x", "x"))).scale(Fraction(1, 2))
        assert render_poly(p) == "-1/2 x(xx) + (xx)x"

    def test_render_deterministic(self):
        f = polarize(2, 2, 2).f(3)
        assert render_poly(f) == render_poly(FreePoly(dict(f.terms)))

    def test_zero(self):
        assert render_poly(FreePoly.zero()) == "0"

    def test_term_order_total(self):
        words = enumerate_trees(4) + enumerate_trees(3)
        keys = [term_key(w) for w in words]
        assert len(set(keys)) == len(words)
        assert sorted(keys) == sorted(keys, key=lambda k: k)


class TestUnitRewrite:
    def test_mul_term_unit(self):
        assert mul_term("1", ("x", "y")) == ("x", "y")
        assert mul_term(("x", "y"), "1") == ("x", "y")
        assert mul_term("x", "y") == ("x", "y")

    def test_poly_unit_product(self):
        p = FreePoly.unit() * X
        assert p == X
