"""Catalog constructions: Cayley-Dickson tower, isotopes, pseudo-octonions,
and the algebra file format."""

import itertools
import random
from fractions import Fraction

import pytest

from nalab.algebra import find_units, identity_holds, multiply
from nalab.catalog import (CATALOG_NAMES, SpecFormatError,
                           catalog_algebra, classical, load, load_file,
                           okubo, save, save_file, spec_from_dict)
from nalab.exactmath import QuadExt, parse_scalar
from nalab.freealg import FreePoly, associator


# Independent Cayley-Dickson oracle on nested pairs, same fixed convention:
# (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)), conj(a, b) = (conj a, -b).

def o_conj(x):
    if isinstance(x, Fraction):
        return x
    a, b = x
    return (o_conj(a), o_neg(b))


def o_neg(x):
    if isinstance(x, Fraction):
        return -x
    return (o_neg(x[0]), o_neg(x[1]))


def o_add(x, y):
    if isinstance(x, Fraction):
        return x + y
    return (o_add(x[0], y[0]), o_add(x[1], y[1]))


def o_mul(x, y):
    if isinstance(x, Fraction):
        return x * y
    a, b = x
    c, d = y
    return (o_add(o_mul(a, c), o_neg(o_mul(o_conj(d), b))),
            o_add(o_mul(d, a), o_mul(b, o_conj(c))))


def o_basis(dim, i):
    if dim == 1:
        return Fraction(1 if i == 0 else 0)
    h = dim // 2
    return (o_basis(h, i if i < h else h), o_basis(h, i - h if i >= h else h))


def o_flat(x, out):
    if isinstance(x, Fraction):
        out.append(x)
    else:
        o_flat(x[0], out)
        o_flat(x[1], out)
    return out


def o_basis_clean(dim, i):
    if dim == 1:
        return Fraction(1)
    h = dim // 2
    zero = o_zero(h)
    if i < h:
        return (o_basis_clean(h, i), zero)
    return (zero, o_basis_clean(h, i - h))


def o_zero(dim):
    if dim == 1:
        return Fraction(0)
    h = dim // 2
    return (o_zero(h), o_zero(h))


class TestClassical:
    @pytest.mark.parametrize("name,dim", [("R", 1), ("C", 2), ("H", 4),
                                          ("O", 8)])
    def test_tables_match_pair_oracle(self, name, dim):
        A = classical(name).algebra
        for i in range(dim):
            for j in range(dim):
                got = multiply(A, A.basis_element(i), A.basis_element(j))
                oracle = o_flat(o_mul(o_basis_clean(dim, i),
                                      o_basis_clean(dim, j)), [])
                assert list(got.coords) == oracle, (name, i, j)

    def test_complex_square(self):
        Cx = classical("C").algebra
        i = Cx.basis_element(1)
        assert multiply(Cx, i, i) == -Cx.basis_element(0)

    def test_octonions_not_associative(self):
        O = classical("O").algebra
        e1, e2, e4 = (O.basis_element(t) for t in (1, 2, 4))
        lhs = multiply(O, multiply(O, e1, e2), e4)
        rhs = multiply(O, e1, multiply(O, e2, e4))
        assert lhs != rhs

    def test_conjugation_involution(self):
        for name in ("C", "H", "O"):
            inv = classical(name)
            n = inv.algebra.dim
            for i in range(n):
                twice = inv.conj_element(inv.conj_element(
                    inv.algebra.basis_element(i)))
                assert twice == inv.algebra.basis_element(i)

    def test_conjugation_antiautomorphism(self):
        for name in ("C", "H", "O"):
            inv = classical(name)
            A = inv.algebra
            for i in range(A.dim):
                for j in range(A.dim):
                    bi, bj = A.basis_element(i), A.basis_element(j)
                    lhs = inv.conj_element(multiply(A, bi, bj))
                    rhs = multiply(A, inv.conj_element(bj),
                                   inv.conj_element(bi))
                    assert lhs == rhs

    def test_norm_multiplicative(self):
        rng = random.Random(3)

        def norm(e):
            return sum(c * c for c in e.coords)

        for name in ("C", "H", "O"):
            A = classical(name).algebra
            for _ in range(10):
                u = A.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(A.dim)])
                v = A.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(A.dim)])
                assert norm(multiply(A, u, v)) == norm(u) * norm(v)

    def test_alternative_octonions(self):
        O = classical("O").algebra
        x, y = FreePoly.var("x"), FreePoly.var("y")
        assert identity_holds(O, associator(x, x, y), "multilinear").holds
        assert identity_holds(O, associator(y, x, x), "multilinear").holds

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            classical("S")


class TestIsotopes:
    def test_star_C_square(self):
        sC = catalog_algebra("*C")
        i = sC.basis_element(1)
        assert multiply(sC, i, i) == sC.basis_element(0)

    def test_star_square_law_symbolic(self):
        # x * x lands in the line through e for every x (the N(x) e law)
        for base in ("C", "H", "O"):
            A = catalog_algebra("*" + base)
            x = A.generic_element()
            sq = multiply(A, x, x)
            assert all(c.is_zero() for c in sq.coords[1:])
            assert not sq.coords[0].is_zero()

    def test_double_star_C_unit_products(self):
        dC = catalog_algebra("**C")
        e = dC.basis_element(0)
        assert multiply(dC, e, e) == e

    def test_double_star_H_flexible(self):
        dH = catalog_algebra("**H")
        x, y = FreePoly.var("x"), FreePoly.var("y")
        assert identity_holds(dH, associator(x, y, x)).holds

    def test_double_star_no_left_unit(self):
        rep = find_units(catalog_algebra("**H"))
        assert not rep.has_left and not rep.has_right

    def test_isotopes_preserve_shape(self):
        for base in ("C", "H", "O"):
            A = classical(base).algebra
            for iso in (catalog_algebra("*" + base),
                        catalog_algebra("**" + base)):
                assert iso.dim == A.dim and iso.field == A.field

    def test_aliases(self):
        assert catalog_algebra("starH") is catalog_algebra("*H")
        assert catalog_algebra("dstarO") is catalog_algebra("**O")


class TestOkubo:
    def test_field_and_dim(self):
        P = okubo()
        assert P.dim == 8 and P.field == "Q(sqrt 3)"

    def test_constants_sparse_real(self):
        P = okubo()
        nonzero = sum(
            1 for i in range(8) for j in range(8) for k in range(8)
            if P.constants[i][j][k] != 0)
        assert 0 < nonzero < 512
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    c = P.constants[i][j][k]
                    assert isinstance(c, (Fraction, QuadExt))

    def test_flexible_not_power_associative(self):
        P = okubo()
        x, y = FreePoly.var("x"), FreePoly.var("y")
        assert identity_holds(P, associator(x, y, x)).holds
        xx = FreePoly.term(("x", "x"))
        fourth = xx * xx - (xx * x) * x
        assert not identity_holds(P, fourth).holds

    def test_no_units(self):
        rep = find_units(okubo())
        assert not rep.has_left and not rep.has_right

    def test_diagonal_squares(self):
        # b_a * b_a = (matrix square minus trace part), traceless & real;
        # its e-coordinate pattern pins mu + conj(mu) = 1
        P = okubo()
        for a in range(8):
            ba = P.basis_element(a)
            sq = multiply(P, ba, ba)
            assert not sq.is_zero()

    def test_hand_derived_products(self):
        # l1*l1 = l1^2 - (2/3) I = diag(1/3,1/3,-2/3) = (sqrt3/3) l8;
        # l1 l2 = i l3 and l2 l1 = -i l3, so l1*l2 = i(mu - conj mu) l3
        #       = -(sqrt3/3) l3;
        # l8*l8 = l8^2 - (2/3) I = -(sqrt3/3) l8
        P = okubo()
        r3_3 = QuadExt(0, Fraction(1, 3))

        def coords(a, b):
            return multiply(P, P.basis_element(a), P.basis_element(b)).coords

        got = coords(0, 0)
        assert got[7] == r3_3 and all(c == 0 for c in got[:7])
        got = coords(0, 1)
        assert got[2] == -1 * r3_3
        assert all(c == 0 for i, c in enumerate(got) if i != 2)
        got = coords(7, 7)
        assert got[7] == -1 * r3_3 and all(c == 0 for c in got[:7])


class TestSpecFormat:
    def test_round_trip_catalog(self):
        for name in CATALOG_NAMES:
            A = catalog_algebra(name)
            spec = save(A)
            B = load(spec)
            assert B.constants == A.constants
            assert B.basis_names == A.basis_names
            assert save(B).to_json_dict() == spec.to_json_dict()

    def test_file_round_trip(self, tmp_path):
        A = catalog_algebra("H")
        path = tmp_path / "h.json"
        save_file(A, str(path), properties={"note": "unit quaternions"})
        B = load_file(str(path))
        for i in range(4):
            for j in range(4):
                assert multiply(B, B.basis_element(i), B.basis_element(j)) \
                    == multiply(A, A.basis_element(i), A.basis_element(j))

    def test_index_out_of_range(self):
        data = {"name": "bad", "dim": 8, "field": "Q",
                "basis": [f"e{i}" for i in range(8)],
                "constants": [[0, 0, 9, "1"]]}
        with pytest.raises(SpecFormatError, match="out of range"):
            load(data)

    def test_scalar_parse(self):
        assert parse_scalar("1/2+1/6*sqrt3") == \
            QuadExt(Fraction(1, 2), Fraction(1, 6))

    def test_scalar_format_error(self):
        data = {"name": "bad", "dim": 1, "field": "Q", "basis": ["e"],
                "constants": [[0, 0, 0, "1.5"]]}
        with pytest.raises(SpecFormatError, match="constants\\[0\\]"):
            load(data)

    def test_sqrt_in_rational_algebra(self):
        data = {"name": "bad", "dim": 1, "field": "Q", "basis": ["e"],
                "constants": [[0, 0, 0, "1+1*sqrt3"]]}
        with pytest.raises(SpecFormatError):
            load(data)

    def test_missing_key(self):
        with pytest.raises(SpecFormatError):
            spec_from_dict({"name": "x", "dim": 1})

    @pytest.mark.parametrize("dim, entries, match", [
        ("two", [], "'two'"),
        (1, [["a", 0, 0, "1"]], "'a'"),
        (1, [[0, 0, 0, "1"], [0, 0, 0, "2"]],
         r"constants\[1\]: .* already given at constants\[0\]"),
        (1.9, [], "dim must be an integer, not 1.9"),
        (True, [], "dim must be an integer, not True"),
        (1, [[0.9, 0, 0, "1"]], r"constants\[0\] index .* not 0.9"),
    ], ids=["dim", "index", "duplicate", "dim-float", "dim-bool",
            "index-float"])
    def test_malformed_spec(self, dim, entries, match):
        data = {"name": "bad", "dim": dim, "field": "Q", "basis": ["e"],
                "constants": entries}
        with pytest.raises(SpecFormatError, match=match):
            load(data)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecFormatError, match="bad.json:1"):
            load_file(str(path))
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SpecFormatError, match="not UTF-8"):
            load_file(str(path))

    def test_basis_length_mismatch(self):
        data = {"name": "bad", "dim": 2, "field": "Q", "basis": ["e"],
                "constants": []}
        with pytest.raises(SpecFormatError, match="basis"):
            load(data)

    def test_load_preserves_field(self):
        P = okubo()
        B = load(save(P))
        assert B.field == "Q(sqrt 3)"
        assert B.constants == P.constants
