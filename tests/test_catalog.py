"""Catalog constructions: Cayley-Dickson tower, isotopes, pseudo-octonions,
and the algebra file format."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from nalab.algebra import find_units, identity_holds, multiply
from nalab.catalog import (CATALOG_NAMES, SpecFormatError,
                           catalog_algebra, catalog_conjugation, classical,
                           load, load_file, okubo, save, save_file,
                           spec_from_dict)
from nalab.exactmath import QuadExt, parse_scalar
from nalab.freealg import FreePoly, associator
from oracles import fraction_multiply, generic_element


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
            x = generic_element(A)
            sq = fraction_multiply(A, x, x)
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


class TestOkuboComposition:
    """Okubo's symmetric composition law (x*y)*x = x*(y*x) = n(x) y with
    n(x) = (1/3) sum x_a^2, linearized in x and checked on every basis triple
    straight from the structure constants."""

    def test_linearized_on_basis_triples(self):
        P = okubo()
        c = P.constants

        def times(u, b):  # coordinates of u * b_b, u given by coordinates
            return [sum((u[m] * c[m][b][k] for m in range(8)), Fraction(0))
                    for k in range(8)]

        def times_left(a, u):  # coordinates of b_a * u
            return [sum((c[a][m][k] * u[m] for m in range(8)), Fraction(0))
                    for k in range(8)]

        for a, b, d in itertools.product(range(8), repeat=3):
            want = [Fraction(2, 3) if a == d and k == b else 0
                    for k in range(8)]
            left = [s + t for s, t in zip(times(c[a][b], d),
                                          times(c[d][b], a))]
            right = [s + t for s, t in zip(times_left(a, c[b][d]),
                                           times_left(d, c[b][a]))]
            assert left == want, (a, b, d)
            assert right == want, (a, b, d)


#: First 16 hex digits of the SHA-256 of each catalog algebra's saved form.
CATALOG_DIGESTS = {
    "R": "f59e5c844eb70828", "C": "12d6af6353b928e1",
    "H": "23c30c6e37486fb2", "O": "2ef9c24877c8fd60",
    "*C": "541faee5daf5e2a6", "*H": "1528aefd04cef22f",
    "*O": "babfa529b757f5af", "**C": "73e4951fca29457b",
    "**H": "25721962bcd4123e", "**O": "d868ab4b3c69704e",
    "P": "eafab0aa24d53589",
}


class TestCatalogPins:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_saved_form_digest(self, name):
        text = json.dumps(save(catalog_algebra(name)).to_json_dict(),
                          sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == CATALOG_DIGESTS[name]

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_constant_types(self, name):
        A = catalog_algebra(name)
        kind = QuadExt if name == "P" else Fraction
        assert all(type(x) is kind
                   for plane in A.constants for row in plane for x in row)


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

    @pytest.mark.parametrize("fields, match", [
        ({"dim": "two"}, "'two'"),
        ({"constants": [["a", 0, 0, "1"]]}, "'a'"),
        ({"constants": [[0, 0, 0, "1"], [0, 0, 0, "2"]]},
         r"constants\[1\]: .* already given at constants\[0\]"),
        ({"dim": 1.9}, "dim must be an integer, not 1.9"),
        ({"dim": True}, "dim must be an integer, not True"),
        ({"constants": [[0.9, 0, 0, "1"]]},
         r"constants\[0\] index .* not 0.9"),
        ({"conjugation": 5}, "conjugation must be null or a list of lists"),
        ({"basis": [["e"]]}, "basis must be a list of strings"),
        ({"dim": 2, "basis": "ab"}, "basis must be a list of strings"),
        ({"dim": 65, "basis": [f"e{i}" for i in range(65)]},
         "dim 65 is above the limit of 64"),
        ({"name": "\ud800"}, "name is not UTF-8 text"),
        ({"basis": ["\udfff"]}, r"basis\[0\] is not UTF-8 text"),
        ({"conjugation": [["zz", "1/0"], ["q"]]},
         r"conjugation must be a 1 x 1 matrix, not 2 rows of lengths \[2, 1\]"),
        ({"conjugation": [[]]}, "conjugation must be a 1 x 1 matrix"),
        ({"conjugation": [["zz"]]},
         r"conjugation\[0\]\[0\]: malformed scalar 'zz'"),
        ({"conjugation": [["1/0"]]},
         r"conjugation\[0\]\[0\]: zero denominator"),
        ({"conjugation": [[None]]},
         r"conjugation\[0\]\[0\]: malformed scalar 'None'"),
        ({"conjugation": [["1+1*sqrt3"]]},
         r"conjugation\[0\]\[0\]: sqrt scalar in a rational algebra"),
        ({"conjugation": [["-1"]], "field": "F7"}, "unknown field tag 'F7'"),
    ], ids=["dim", "index", "duplicate", "dim-float", "dim-bool",
            "index-float", "conjugation-int", "basis-nested", "basis-string",
            "dim-cap", "name-surrogate", "basis-surrogate",
            "conjugation-shape", "conjugation-empty-row",
            "conjugation-scalar", "conjugation-zero-denominator",
            "conjugation-null-entry", "conjugation-sqrt-in-Q",
            "conjugation-field"])
    def test_malformed_spec(self, fields, match):
        data = {"name": "bad", "dim": 1, "field": "Q", "basis": ["e"],
                "constants": [], **fields}
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
        with pytest.raises(SpecFormatError):
            load_file(str(tmp_path))
        for fields in ({"conjugation": 5}, {"basis": [["e"]]},
                       {"dim": 2, "basis": "ab"},
                       {"conjugation": [["zz", "1/0"], ["q"]]},
                       {"conjugation": [["-1", "0"]]}):
            data = {"name": "bad", "dim": 1, "field": "Q", "basis": ["e"],
                    "constants": [], **fields}
            path.write_text(json.dumps(data), encoding="utf-8")
            with pytest.raises(SpecFormatError, match="must be"):
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

    @pytest.mark.parametrize("name", ["R", "C", "H", "O"])
    def test_conjugation_round_trip(self, name):
        spec = save(catalog_algebra(name), catalog_conjugation(name))
        back = spec_from_dict(json.loads(json.dumps(spec.to_json_dict())))
        assert back.conjugation == spec.conjugation
        assert load(back).constants == catalog_algebra(name).constants

    def test_conjugation_entries_of_the_field(self):
        data = {"name": "s", "dim": 1, "field": "Q(sqrt 3)", "basis": ["e"],
                "constants": [[0, 0, 0, "1"]],
                "conjugation": [["1/2-1/2*sqrt3"]]}
        assert spec_from_dict(data).conjugation == [["1/2-1/2*sqrt3"]]
        data.update(field="Q", conjugation=[[-1]])
        assert spec_from_dict(data).conjugation == [["-1"]]
