"""Integer kernels cross-checked against independent slow evaluations.

The symbolic kernel is compared with direct MultiPoly evaluation; the
multilinear tensors are compared with an inclusion-exclusion oracle evaluated
through ordinary algebra multiplication.  Both oracles share no code with the
kernels they check.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab import engine
from nalab.algebra import FIELD_Q, FIELD_QSQRT3, StructureAlgebra, \
    eval_free_poly
from nalab.catalog import catalog_algebra
from nalab.exactmath import MultiPoly, QuadExt
from nalab.freealg import FreePoly, polarize, pqr_associator


def random_algebra(dim, seed, span=3, field=FIELD_Q):
    rng = random.Random(seed)
    consts = [[[None] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if field == FIELD_QSQRT3:
                    consts[i][j][k] = QuadExt(
                        Fraction(rng.randint(-span, span), rng.randint(1, 2)),
                        Fraction(rng.randint(-span, span), rng.randint(1, 2)))
                else:
                    consts[i][j][k] = Fraction(rng.randint(-span, span),
                                               rng.randint(1, 2))
    return StructureAlgebra(f"rand{seed}", dim, field, consts)


def unpack_key(key, nvars, bits):
    """Exponent vector of a packed key, bits bits per variable."""
    mask = (1 << bits) - 1
    return tuple((int(key) >> (bits * i)) & mask for i in range(nvars))


def sym_to_poly_vector(sv: engine.SymVec, A: StructureAlgebra):
    """Unpack a kernel value into exact MultiPoly coordinates."""
    n = A.dim
    scale = Fraction(A.tensor().scale) ** sv.denom_power
    coords = []
    for k in range(n):
        terms = {}
        for idx, key in enumerate(sv.keys):
            exps = unpack_key(key, sv.nvars, sv.bits)
            a = Fraction(int(sv.parts[0][idx][k])) / scale
            b = Fraction(0) if len(sv.parts) == 1 else \
                Fraction(int(sv.parts[1][idx][k])) / scale
            if b:
                val = QuadExt(a, b)
            else:
                val = a
            if val != 0:
                terms[exps] = val
        coords.append(MultiPoly(sv.nvars, terms))
    return coords


def big_algebra(field):
    """A dim-2 algebra whose constants reach 10^12 (in both parts over
    Q(sqrt 3)): products of three of them leave int64."""
    rng = random.Random(0)
    big = 10 ** 12

    def const():
        a = Fraction(rng.randint(-big, big))
        if field == FIELD_QSQRT3:
            return QuadExt(a, Fraction(rng.randint(-big, big)))
        return a

    consts = [[[const() for _ in range(2)] for _ in range(2)]
              for _ in range(2)]
    return StructureAlgebra("big", 2, field, consts)


WORDS = [
    ("x", "y"),
    (("x", "x"), "y"),
    (("x", "y"), ("y", "x")),
    ((("x", "x"), "y"), ("x", "y")),
]


#: (word, largest dimension) pairs: the MultiPoly route costs up to about
#: 0.5 s per evaluation at these sizes
RANDOM_WORDS = [
    (("x", "y"), 16),
    (("x", "x"), 16),
    ((("x", "x"), "y"), 8),
    ((("x", "y"), ("y", "x")), 4),
    (WORDS[3], 3),
]


def left_power(degree):
    word = "x"
    for _ in range(degree - 1):
        word = (word, "x")
    return word


class TestSymbolicKernel:
    # 11 bits for 6 variables packs keys past 64 bits (object keys)
    @pytest.mark.parametrize("seed, bits", [(1, 4), (2, 4), (3, 4), (1, 11)],
                             ids=["1", "2", "3", "1-66bit"])
    @pytest.mark.parametrize("word", WORDS, ids=str)
    def test_matches_multipoly_route(self, seed, bits, word):
        A = random_algebra(3, seed)
        n = A.dim
        groups = {v: engine.SymVec.generic(n, 2 * n, bits, gi * n)
                  for gi, v in enumerate(("x", "y"))}
        assert (groups["x"].keys.dtype == object) == (2 * n * bits > 64)
        ctx = engine.SymContext(A.tensor(), groups)
        got = sym_to_poly_vector(ctx.eval_term(word), A)
        assignment = {"x": A.generic_element(nvars=2 * n, offset=0),
                      "y": A.generic_element(nvars=2 * n, offset=n)}
        expect = eval_free_poly(A, FreePoly.term(word), assignment)
        assert got == list(expect.coords)

    # bits 2 packs 32 variables into exactly 64 bits; 4 and 11 go past it
    @given(dim=st.integers(1, 16), seed=st.integers(0, 10 ** 6),
           field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
           bits=st.sampled_from((2, 4, 11)), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_random_algebras_match_multipoly(self, dim, seed, field, bits,
                                             data):
        word = data.draw(st.sampled_from(
            [w for w, top in RANDOM_WORDS if dim <= top]))
        A = random_algebra(dim, seed, field=field)
        n = A.dim
        groups = {v: engine.SymVec.generic(n, 2 * n, bits, gi * n)
                  for gi, v in enumerate(("x", "y"))}
        got = sym_to_poly_vector(
            engine.SymContext(A.tensor(), groups).eval_term(word), A)
        assignment = {"x": A.generic_element(nvars=2 * n, offset=0),
                      "y": A.generic_element(nvars=2 * n, offset=n)}
        expect = eval_free_poly(A, FreePoly.term(word), assignment)
        assert got == list(expect.coords)

    def test_matches_on_quadext_algebra(self):
        A = random_algebra(2, seed=9, field=FIELD_QSQRT3)
        n = A.dim
        groups = {"x": engine.SymVec.generic(n, n, 4, 0)}
        ctx = engine.SymContext(A.tensor(), groups)
        word = (("x", "x"), "x")
        got = sym_to_poly_vector(ctx.eval_term(word), A)
        expect = eval_free_poly(A, FreePoly.term(word),
                                {"x": A.generic_element()})
        assert got == list(expect.coords)

    def test_object_fallback_is_exact(self):
        # huge constants force the big-int path, over Q and over Q(sqrt 3)
        for field in (FIELD_Q, FIELD_QSQRT3):
            A = big_algebra(field)
            groups = {"x": engine.SymVec.generic(2, 2, 5, 0)}
            ctx = engine.SymContext(A.tensor(), groups)
            word = ((("x", "x"), ("x", "x")), (("x", "x"), "x"))
            sv = ctx.eval_term(word)
            assert sv.parts[0].dtype == object
            got = sym_to_poly_vector(sv, A)
            expect = eval_free_poly(A, FreePoly.term(word),
                                    {"x": A.generic_element()})
            assert got == list(expect.coords), field

    def test_degree_17_word_matches_multipoly(self):
        # 17 needs 5 bits: at 4 bits the key of x0^17 reads as x0*x1
        A = random_algebra(2, seed=17)
        word = left_power(17)
        groups = {"x": engine.SymVec.generic(2, 2, 5, 0)}
        got = sym_to_poly_vector(
            engine.SymContext(A.tensor(), groups).eval_term(word), A)
        expect = eval_free_poly(A, FreePoly.term(word),
                                {"x": A.generic_element()})
        assert got == list(expect.coords)

    def test_exponent_overflow_raises(self):
        A = random_algebra(2, seed=17)
        ctx = engine.SymContext(
            A.tensor(), {"x": engine.SymVec.generic(2, 2, 4, 0)})
        ctx.eval_term(left_power(15))
        with pytest.raises(ValueError, match="does not fit in 4 bits"):
            ctx.eval_term(left_power(16))

    def test_poly_vanishes_on_commutative(self):
        # symmetric constants -> x*y - y*x vanishes identically
        dim = 3
        rng = random.Random(4)
        consts = [[[Fraction(0)] * dim for _ in range(dim)]
                  for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                for k in range(dim):
                    c = Fraction(rng.randint(-3, 3))
                    consts[i][j][k] = c
                    consts[j][i][k] = c
        A = StructureAlgebra("sym", dim, FIELD_Q, consts)
        x, y = FreePoly.var("x"), FreePoly.var("y")
        comm = x * y - y * x
        groups = {v: engine.SymVec.generic(dim, 2 * dim, 4, gi * dim)
                  for gi, v in enumerate(("x", "y"))}
        assert engine.poly_vanishes_symbolically(comm, A.tensor(), groups)


def inclusion_exclusion_multilin(A, poly, x_tuple, y_tuple):
    """Oracle: full multilinearization evaluated via finite differences.

    M(v_1..v_dx; w_1..w_dy) = sum over subsets S, T of
    (-1)^(dx-|S|) (-1)^(dy-|T|) f(sum_S v, sum_T w).
    """
    dx, dy = len(x_tuple), len(y_tuple)
    total = A.zero()
    for smask in range(2 ** dx):
        xs = A.zero()
        for i in range(dx):
            if smask >> i & 1:
                xs = xs + x_tuple[i]
        sign_s = (-1) ** (dx - bin(smask).count("1"))
        for tmask in range(2 ** dy):
            ys = A.zero()
            for j in range(dy):
                if tmask >> j & 1:
                    ys = ys + y_tuple[j]
            sign = sign_s * (-1) ** (dy - bin(tmask).count("1"))
            assignment = {}
            if "x" in poly.variables() or dx:
                assignment["x"] = xs
            if dy:
                assignment["y"] = ys
            val = eval_free_poly(A, poly, assignment)
            total = total + val.scale(sign)
    return total


class TestMultilinearKernel:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_tensor_matches_finite_differences(self, seed):
        A = random_algebra(2, seed)
        ml = engine.MultilinearEngine(A.tensor())
        poly = polarize(1, 1, 2).f(2)  # bidegree (2, 2)
        S, dx, dy = ml.multilinearization(poly)
        assert (dx, dy) == (2, 2)
        scale = Fraction(A.tensor().scale) ** 3  # degree-4 words
        rng = random.Random(seed)
        for _ in range(6):
            idx = [rng.randrange(2) for _ in range(4)]
            xt = [A.basis_element(idx[0]), A.basis_element(idx[1])]
            yt = [A.basis_element(idx[2]), A.basis_element(idx[3])]
            oracle = inclusion_exclusion_multilin(A, poly, xt, yt)
            got = [Fraction(int(S[0][tuple(idx) + (k,)])) / scale
                   for k in range(2)]
            assert got == list(oracle.coords)

    def test_tensor_matches_on_quadext(self):
        A = random_algebra(2, seed=21, span=1, field=FIELD_QSQRT3)
        ml = engine.MultilinearEngine(A.tensor())
        poly = pqr_associator(1, 1, 1)
        S, dx, dy = ml.multilinearization(poly)
        scale = Fraction(A.tensor().scale) ** 2
        for idx in itertools.product(range(2), repeat=3):
            xt = [A.basis_element(i) for i in idx]
            oracle = inclusion_exclusion_multilin(A, poly, xt, [])
            got = []
            for k in range(2):
                a = Fraction(int(S[0][idx + (k,)])) / scale
                b = Fraction(int(S[1][idx + (k,)])) / scale
                got.append(QuadExt(a, b) if b else a)
            assert got == list(oracle.coords)

    def test_object_tier_matches_finite_differences(self):
        A = big_algebra(FIELD_QSQRT3)
        ml = engine.MultilinearEngine(A.tensor())
        poly = pqr_associator(1, 1, 1)
        S, dx, dy = ml.multilinearization(poly)
        assert S[0].dtype == object and S[1].dtype == object
        scale = Fraction(A.tensor().scale) ** 2
        for idx in itertools.product(range(2), repeat=3):
            xt = [A.basis_element(i) for i in idx]
            oracle = inclusion_exclusion_multilin(A, poly, xt, [])
            got = []
            for k in range(2):
                a = Fraction(int(S[0][idx + (k,)])) / scale
                b = Fraction(int(S[1][idx + (k,)])) / scale
                got.append(QuadExt(a, b) if b else a)
            assert got == list(oracle.coords)

    def test_check_detects_failure_tuple(self):
        SH = catalog_algebra("*H")
        ml = SH.ml_engine()
        ok, idx = ml.check(pqr_associator(1, 1, 1))
        assert not ok
        xt, yt = idx
        assert yt == ()
        oracle = inclusion_exclusion_multilin(
            SH, pqr_associator(1, 1, 1),
            [SH.basis_element(i) for i in xt], [])
        assert not oracle.is_zero()

    def test_symmetrize_axes_matches_brute_force(self):
        rng = np.random.default_rng(5)
        U = rng.integers(-4, 4, size=(3, 3, 3, 2)).astype(np.int64)
        got = engine._symmetrize_axes(U, 0, 3)
        brute = np.zeros_like(U)
        for perm in itertools.permutations(range(3)):
            brute += np.transpose(U, perm + (3,))
        assert (got == brute).all()

    def test_unit_leaf_rejected(self):
        H = catalog_algebra("H")
        ml = H.ml_engine()
        with pytest.raises(ValueError):
            ml.word_tensor("1")


class TestScaledTensor:
    def test_scaling_clears_denominators(self):
        A = random_algebra(2, seed=31)
        t = A.tensor()
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    val = Fraction(int(t.parts[0][i, j, k]), t.scale)
                    assert val == A.constants[i][j][k]

    def test_okubo_components(self):
        P = catalog_algebra("P")
        t = P.tensor()
        assert len(t.parts) == 2
        for i, j, k in ((0, 0, 7), (0, 1, 2), (3, 4, 5)):
            c = P.constants[i][j][k]
            a = c.a if isinstance(c, QuadExt) else Fraction(c)
            b = c.b if isinstance(c, QuadExt) else Fraction(0)
            assert Fraction(int(t.parts[0][i, j, k]), t.scale) == a
            assert Fraction(int(t.parts[1][i, j, k]), t.scale) == b
