"""Integer kernels cross-checked against independent slow evaluations.

The symbolic kernel is compared with direct MultiPoly evaluation; the
multilinear tensors are compared with an inclusion-exclusion oracle evaluated
through ordinary algebra multiplication.  Both oracles share no code with the
kernels they check.  The grouped multilinearization is also compared, entry
for entry, with a per-word accumulation of full word tensors built in Python
ints (``oracles.bigint_word_tensor``), and the multilinear check with a scan
of the fully symmetrized tensor.  From 2^52 on the kernels keep residues
mod primes: those are compared with the big-int oracles mod each prime
used, and by verdict and witness.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab import engine
from nalab.algebra import FIELD_Q, FIELD_QSQRT3, StructureAlgebra, \
    eval_free_poly, identity_holds
from nalab.catalog import catalog_algebra
from nalab.exactmath import MultiPoly, QuadExt, poly_rank
from nalab.freealg import FreePoly, polarize, pqr_associator
from oracles import bigint, bigint_nonzero_at, bigint_sym_combine, \
    bigint_sym_product, bigint_sym_scale, bigint_word_tensor, dict_sum, \
    generic_element, inclusion_exclusion_multilin


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


def poly_row(sv):
    """The MultiPoly coordinates of a SymVec, its denom_power ignored."""
    m = sv.parts[0].shape[1]
    coords = []
    for k in range(m):
        terms = {}
        for idx, key in enumerate(sv.keys):
            a = Fraction(int(sv.parts[0][idx][k]))
            b = 0 if len(sv.parts) == 1 else int(sv.parts[1][idx][k])
            terms[unpack_key(key, sv.nvars, sv.bits)] = QuadExt(a, b) \
                if b else a
        coords.append(MultiPoly(sv.nvars, terms))
    return coords


def sym_to_poly_vector(sv: engine.SymVec, A: StructureAlgebra):
    """Unpack a kernel value into exact MultiPoly coordinates."""
    scale = Fraction(A.tensor().scale) ** sv.denom_power
    return [c * (1 / scale) for c in poly_row(sv)]


def big_algebra(field):
    """A dim-2 algebra whose constants reach 10^12 (in both parts over
    Q(sqrt 3)): products of three of them pass 2^62."""
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
        assignment = {"x": generic_element(A, nvars=2 * n, offset=0),
                      "y": generic_element(A, nvars=2 * n, offset=n)}
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
        assignment = {"x": generic_element(A, nvars=2 * n, offset=0),
                      "y": generic_element(A, nvars=2 * n, offset=n)}
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
                                {"x": generic_element(A)})
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
                                    {"x": generic_element(A)})
            assert got == list(expect.coords), field

    def test_degree_17_word_matches_multipoly(self):
        # 17 needs 5 bits: at 4 bits the key of x0^17 reads as x0*x1
        A = random_algebra(2, seed=17)
        word = left_power(17)
        groups = {"x": engine.SymVec.generic(2, 2, 5, 0)}
        got = sym_to_poly_vector(
            engine.SymContext(A.tensor(), groups).eval_term(word), A)
        expect = eval_free_poly(A, FreePoly.term(word),
                                {"x": generic_element(A)})
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
        assert engine.sym_is_zero(
            engine.SymContext(A.tensor(), groups).eval_poly(comm))


class TestPointValues:
    """Values of symbolic elements at integer points, against exponents
    decoded one key at a time and against ``eval_free_poly``."""

    @pytest.mark.parametrize("max_degree", [2, 1024])
    @pytest.mark.parametrize("field", [FIELD_Q, FIELD_QSQRT3])
    def test_match_eval_free_poly(self, max_degree, field):
        # 2 groups of 3 variables: 2 bits per variable give uint64 keys,
        # 11 bits (66 > 64) Python-int keys
        A = random_algebra(3, seed=9, field=field)
        x, y = FreePoly.var("x"), FreePoly.var("y")
        poly = (x * x) * y - x * (x * y)
        groups = {v: engine.SymVec.generic(3, 6, max_degree.bit_length(),
                                           gi * 3)
                  for gi, v in enumerate(("x", "y"))}
        value = engine.SymContext(A.tensor(), groups).eval_poly(poly)
        assert (value.keys.dtype == object) == (max_degree > 2)
        E = engine.sym_exponents(value, 3)
        decoded = [unpack_key(k, 6, value.bits) for k in value.keys]
        assert np.hstack(E).tolist() == [list(e) for e in decoded]
        rng = random.Random(3)
        points = [[rng.randint(-3, 3) * (rng.random() < 0.7)
                   for _ in range(6)] for _ in range(40)]
        w = engine.monomial_values(E[0], [p[:3] for p in points])
        M = engine.monomial_values(E[1], [p[3:] for p in points])
        for c, p in enumerate(points):
            nonzero = engine.sym_nonzero_at(value, M[c:c + 1], w[c])[0]
            assignment = {v: A.element([Fraction(a) for a in part])
                          for v, part in (("x", p[:3]), ("y", p[3:]))}
            assert nonzero == \
                (not eval_free_poly(A, poly, assignment).is_zero()), p

    def test_monomial_tiers(self):
        E = np.array([[40, 0], [0, 1], [0, 0]])
        got = engine.monomial_values(E, [[3, 2], [0, -5]])
        assert got.dtype == object
        assert got.tolist() == [[3 ** 40, 2, 1], [0, -5, 1]]
        got = engine.monomial_values(E[1:], [[3, 2], [0, -5]])
        assert got.dtype == np.int64 and got.tolist() == [[2, 1], [-5, 1]]


def symvec(terms, nvars, bits, width, m):
    """The SymVec of m columns with the given {exponent tuple: [(a, b) per
    column]} terms, its degree bound the largest total degree."""
    keys = [sum(e << (bits * i) for i, e in enumerate(exps))
            for exps in terms]
    rows = list(terms.values())
    wide = nvars * bits > 64
    parts = tuple(np.array([[c[h] for c in row] for row in rows],
                           dtype=object).reshape(len(rows), m)
                  for h in range(width))
    degree = max([0] + [sum(exps) for exps in terms])
    return engine.SymVec(nvars, bits, (degree,), 0,
                         np.array(keys, dtype=object if wide else np.uint64),
                         parts, engine._max_abs(parts))


@st.composite
def sym_rows(draw, nvars, bits, m, width, big=False):
    """Up to four rows of m polynomial columns in nvars variables, each
    either random or a combination of earlier rows with random polynomial
    multipliers (so some rows are dependent over K(x) but not over K)."""
    span = 10 ** 15 if big else 3
    coeff = st.integers(-span, span)
    exps = st.tuples(*[st.integers(0, 1)] * nvars)

    def poly(columns):
        terms = draw(st.dictionaries(exps, st.lists(
            st.tuples(coeff, coeff), min_size=columns, max_size=columns),
            max_size=3))
        return symvec(terms, nvars, bits, width, columns)

    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if rows and draw(st.booleans()):
            terms = [(1, engine.sym_scale(poly(1), r)) for r in rows]
            rows.append(engine.sym_combine(terms, m))
        else:
            rows.append(poly(m))
    return rows


class TestSymSpan:
    """The bordered-minor span test against fraction-free ``poly_rank``."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 4), st.integers(1, 2),
           st.booleans(), st.data())
    def test_add_matches_poly_rank(self, nvars, m, width, wide, data):
        # 40 bits per variable packs two variables past 64 bits
        bits = 40 if wide else 4
        rows = data.draw(sym_rows(nvars, bits, m, width))
        span = engine.SymSpan()
        kept = []
        for row in rows:
            independent = poly_rank(kept + [poly_row(row)]) > len(kept)
            assert span.add(row) == independent
            if independent:
                kept.append(poly_row(row))
        assert len(span.rows) == len(kept)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2),
           st.booleans(), st.data())
    def test_scale_matches_multipoly(self, nvars, m, width, big, data):
        """Products on both tiers: entries near 10^15 multiply past 2^52,
        into Python ints."""
        s, v = data.draw(sym_rows(nvars, 8, 1, width, big)), \
            data.draw(sym_rows(nvars, 8, m, width, big))
        got = engine.sym_scale(s[0], v[0])
        (c,) = poly_row(s[0])
        assert poly_row(got) == [c * p for p in poly_row(v[0])]

    def test_scale_exponent_overflow_raises(self):
        x = engine.SymVec.generic(1, 1, 2, 0)
        x3 = engine.sym_scale(engine.sym_scale(x, x), x)
        assert x3.degrees == (3,)
        with pytest.raises(ValueError, match="does not fit in 2 bits"):
            engine.sym_scale(x3, x)


def symmetrize_axes(arr, start: int, count: int):
    """Oracle: the sum over all permutations of axes [start, start+count).

    Uses the coset decomposition of the symmetric group: after the first
    m-1 axes are symmetric, summing the m swaps of axis m-1 with each
    earlier axis (and itself) extends the symmetry, so the full sum costs
    O(count^2) array additions rather than count! of them.
    """
    T = arr
    for m in range(2, count + 1):
        acc = T.copy()
        for i in range(m - 1):
            acc += np.swapaxes(T, start + i, start + m - 1)
        T = acc
    return T


def symmetrized(multilinearization):
    """The full multilinearization (parts, dx, dy) from the unsymmetrized
    (parts, dx, dy, ...), in exact big-int arithmetic."""
    U, dx, dy = multilinearization[:3]
    return tuple(symmetrize_axes(symmetrize_axes(bigint(p), 0, dx), dx, dy)
                 for p in U), dx, dy


class TestMultilinearKernel:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_tensor_matches_finite_differences(self, seed):
        A = random_algebra(2, seed)
        ml = engine.MultilinearEngine(A.tensor())
        poly = polarize(1, 1, 2).f(2)  # bidegree (2, 2)
        S, dx, dy = symmetrized(ml.multilinearization(poly))
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
        S, dx, dy = symmetrized(ml.multilinearization(poly))
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
        # from 2^52 on the tensor is kept mod each prime the check uses: its
        # residues match the oracle's exact values mod that prime, and the
        # check's verdict and witness match the big-int full scan
        A = big_algebra(FIELD_QSQRT3)
        ml = engine.MultilinearEngine(A.tensor())
        poly = pqr_associator(1, 1, 1)
        bound = ml.multilinearization(poly)[3]
        primes = engine._primes(bound)
        assert bound >= 2 ** 62 and len(primes) > 1
        scale = A.tensor().scale ** 2
        oracle = {idx: inclusion_exclusion_multilin(
            A, poly, [A.basis_element(i) for i in idx], [])
            for idx in itertools.product(range(2), repeat=3)}
        for p in primes:
            U, dx, dy, _ = ml.multilinearization(poly, p)
            assert all(u.dtype == np.float64 for u in U)
            S, dx, dy = symmetrized((U, dx, dy))
            for idx, value in oracle.items():
                for k, c in enumerate(value.coords):
                    a, b = (c.a, c.b) if isinstance(c, QuadExt) else (c, 0)
                    exact = [a * scale, b * scale]
                    assert all(x.denominator == 1 for x in exact)
                    assert [S[h][idx + (k,)] % p for h in range(2)] == \
                        [int(x) % p for x in exact], (p, idx, k)
        assert ml.check(poly) == full_scan_check(A, poly)

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
        got = symmetrize_axes(U, 0, 3)
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


def per_word_multilinearization(A, poly, cache=None):
    """Oracle: the unsymmetrized multilinearization accumulated one full
    word tensor per top-level word, in exact big-int arithmetic.

    Each word tensor (``bigint_word_tensor``) is transposed into the slot
    order (x leaves, y leaves, out), scaled by its cleared coefficient and
    added.  Returns (parts, dx, dy, bound) like
    ``MultilinearEngine.multilinearization``, with the per-word bound dx!
    dy! * sum |c| * max|word| on every partial sum of it and of its
    symmetrization.  cache keeps A's word tensors across calls.
    """
    t = A.tensor()
    (dx, dy), = poly.bidegrees()
    denom = math.lcm(*(c.denominator for c in poly.terms.values()))
    width = len(t.parts)
    cache = {} if cache is None else cache
    U = None
    bound = 0
    for term, coeff in poly.terms.items():
        T, mx = bigint_word_tensor(t, term, cache)
        labels = engine._leaf_labels(term)
        perm = [i for i, s in enumerate(labels) if s == "x"] + \
            [i for i, s in enumerate(labels) if s == "y"] + [len(labels)]
        c = int(coeff * denom)
        bound += abs(c) * mx
        T = tuple(T) + tuple(np.zeros_like(T[0])
                             for _ in range(width - len(T)))
        T = [np.transpose(p, perm) * c for p in T]
        U = T if U is None else [u + p for u, p in zip(U, T)]
    return tuple(U), dx, dy, bound * math.factorial(dx) * math.factorial(dy)


def assert_same_tensor(ml, poly, expect):
    """ml's multilinearization of poly equals the oracle's expect entry for
    entry: exactly while its bound is below 2^52, and mod each prime that
    check uses beyond, where every entry is a residue r with |r| < p.
    Returns the tier it ran in: "f" for exact float64, "o" for residues."""
    G, gx, gy, bound = ml.multilinearization(poly)
    E, ex, ey, _ = expect
    assert (gx, gy) == (ex, ey)
    assert len(G) == len(E)
    if bound < 2 ** 52:
        for g, e in zip(G, E):
            assert g.shape == e.shape and g.dtype == np.float64
            assert (bigint(g) == e).all()
        return "f"
    for p in engine._primes(bound):
        G = ml.multilinearization(poly, p)[0]
        for g, e in zip(G, E):
            assert g.shape == e.shape and g.dtype == np.float64
            assert (np.abs(g) < p).all()
            assert ((bigint(g) - e) % p == 0).all(), p
    return "o"


def triple_polys(p, q, r):
    """(key, poly): the identity (x^p, x^q, x^r) and its components f_m."""
    pol = polarize(p, q, r)
    return [(f"({p},{q},{r})", pqr_associator(p, q, r))] + \
        [(f"({p}.{q}.{r}.{m})", pol.f(m)) for m in range(1, p + q + r)]


#: every triple of degree <= 5 (all but (2,2,2))
LOW_TRIPLES = [t for t in itertools.product((1, 2), repeat=3) if sum(t) <= 5]

#: constant spans reaching both accumulator tiers on random algebras:
#: float64 and, from 2^10 on, residues (past 2^62 from 2^20 on)
SPANS = (3, 2 ** 10, 2 ** 20, 10 ** 12)


class TestGroupedMultilinearization:
    @given(dim=st.integers(1, 4), seed=st.integers(0, 10 ** 6),
           field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
           span=st.sampled_from(SPANS), triple=st.sampled_from(LOW_TRIPLES))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_word_oracle(self, dim, seed, field, span, triple):
        A = random_algebra(dim, seed, span=span, field=field)
        cache = {}
        for key, poly in triple_polys(*triple):
            assert_same_tensor(A.ml_engine(), poly,
                               per_word_multilinearization(A, poly, cache))

    @pytest.mark.parametrize("field", (FIELD_Q, FIELD_QSQRT3))
    def test_every_component_on_every_tier(self, field):
        kinds = set()
        for span in SPANS:
            A = random_algebra(2, seed=5, span=span, field=field)
            cache = {}
            for triple in LOW_TRIPLES:
                for key, poly in triple_polys(*triple):
                    expect = per_word_multilinearization(A, poly, cache)
                    kind = assert_same_tensor(A.ml_engine(), poly, expect)
                    # never wider than the per-word bound asks for
                    assert kind <= engine._tier(expect[3]), (span, key)
                    kinds.add(kind)
        assert kinds == {"f", "o"}

    @pytest.mark.parametrize("k", range(8, 16))
    def test_accumulator_tier_on_loose_bounds(self, k):
        # H scaled by 2^k: every product of basis elements is one basis
        # element, so a contraction bound overstates the entries n^2 = 16
        # times, and summed bounds alone would move the accumulator past
        # the tier the per-word bound asks for (to residues) at k = 11
        H = catalog_algebra("H")
        A = StructureAlgebra("sH", 4, FIELD_Q, [
            [[c * 2 ** k for c in row] for row in plane]
            for plane in H.constants])
        for key, poly in triple_polys(1, 2, 2):
            expect = per_word_multilinearization(A, poly)
            kind = assert_same_tensor(A.ml_engine(), poly, expect)
            assert kind <= engine._tier(expect[3]), key

    @pytest.mark.parametrize("poly, groups", [
        (polarize(2, 2, 2).f(1), 8),
        (polarize(2, 2, 2).f(3), 18),
        (pqr_associator(2, 2, 2), 2),
    ], ids=["2.2.2.1", "2.2.2.3", "2,2,2"])
    def test_one_contraction_per_left_factor(self, poly, groups,
                                             monkeypatch):
        # every factor of these words has at most 4 leaves, so a first pass
        # caches them all and a second contracts only the groups
        assert groups == len({term[0] for term in poly.terms})
        H = catalog_algebra("H")
        expect = per_word_multilinearization(H, poly)
        ml = H.ml_engine()
        ml.multilinearization(poly)
        calls = []
        contract = engine.MultilinearEngine._contract

        def counting(self, *args):
            calls.append(args)
            return contract(self, *args)

        monkeypatch.setattr(engine.MultilinearEngine, "_contract", counting)
        assert_same_tensor(ml, poly, expect)
        assert len(calls) == groups

    @pytest.mark.parametrize("coeff", (1, 2))
    @pytest.mark.parametrize("var", ("x", "y"))
    def test_bare_leaf_identity(self, coeff, var):
        # a bare variable has no left factor; c*x = 0 fails on both backends
        H = catalog_algebra("H")
        poly = FreePoly.var(var).scale(coeff)
        S, dx, dy, _ = H.ml_engine().multilinearization(poly)
        assert (dx, dy) == ((1, 0) if var == "x" else (0, 1))
        assert (S[0] == coeff * np.eye(4)).all()
        for backend in ("symbolic", "multilinear"):
            res = identity_holds(H, poly, backend)
            assert not res.holds and res.witness, backend


#: (dtype, largest entry magnitude): every sum of 80 rows stays exact in the
#: dtype (below 2^52 for float64); "r" holds residues mod the first prime,
#: as sym_product sums them by key before reducing
AGGREGATE_PARTS = {"f": (np.float64, 2 ** 40),
                   "r": (np.float64, 2 * (engine._PRIMES[0] - 1)),
                   "o": (object, 2 ** 100)}


class TestAggregate:
    @given(data=st.data(), wide=st.booleans(),
           kind=st.sampled_from(sorted(AGGREGATE_PARTS)),
           width=st.integers(1, 2), n=st.integers(1, 3),
           block=st.sampled_from((1, 2, 3, engine._AGGREGATE_ROWS)))
    @settings(max_examples=80, deadline=None)
    def test_matches_dict_sum(self, data, wide, kind, width, n, block):
        nkeys = data.draw(st.integers(1, 6), label="nkeys")
        pool = data.draw(st.lists(
            st.integers(0, 2 ** 80 if wide else 2 ** 64 - 1),
            min_size=nkeys, max_size=nkeys, unique=True), label="pool")
        picks = data.draw(st.lists(st.integers(0, nkeys - 1), min_size=1,
                                   max_size=40), label="picks")
        dtype, top = AGGREGATE_PARTS[kind]
        # small multiples of one magnitude, so that sums often cancel
        unit = data.draw(st.sampled_from((1, top // 4)), label="unit")
        rows = [[[unit * data.draw(st.integers(-2, 2)) for _ in range(n)]
                 for _ in picks] for _ in range(width)]
        if data.draw(st.booleans(), label="cancel"):
            # the rows of the first key, negated: that key sums to zero
            mine = [r for r, k in enumerate(picks) if k == picks[0]]
            picks = picks + [picks[0]] * len(mine)
            rows = [part + [[-x for x in part[r]] for r in mine]
                    for part in rows]
        keys = np.array([pool[k] for k in picks],
                        dtype=object if wide else np.uint64)
        parts = [np.array(part, dtype=dtype).reshape(len(picks), n)
                 for part in rows]
        expect = dict_sum(keys, parts)
        with mock.patch.object(engine, "_AGGREGATE_ROWS", block):
            uk, sums, max_abs = engine._aggregate(keys, parts, n)
        assert uk.dtype == keys.dtype
        assert [int(k) for k in uk] == sorted(expect)
        assert len(sums) == width
        p = engine._PRIMES[0]
        for h, s in enumerate(sums):
            assert s.dtype == dtype
            assert s.shape == (len(expect), n)
            assert [[int(x) for x in row] for row in s] == \
                [expect[k][h] for k in sorted(expect)]
            if kind == "r":
                r = engine._fmod(s, p)
                assert (np.abs(r) < p).all()
                assert all((int(x) - y) % p == 0 for x, y in
                           zip(r.ravel(), s.ravel()))
        assert max_abs == max([1] + [abs(x) for acc in expect.values()
                                     for row in acc for x in row])


def line_algebra(c):
    """The dimension-1 algebra e0 e0 = c e0: a product of symbolic elements
    with nonnegative rows reaches its magnitude bound exactly."""
    return StructureAlgebra("line", 1, FIELD_QSQRT3 if isinstance(c, QuadExt)
                            else FIELD_Q, [[[c]]])


def product_kinds(monkeypatch, u, v, t):
    """sym_product(u, v, t), the tiers its products ran in ("o" for
    residues mod primes) and the primes it used."""
    kinds, used = [], []
    cast, primes = engine._cast, engine._primes

    def recording(parts, kind):
        kinds.append(kind)
        return cast(parts, kind)

    def residues(bound):
        kinds.append("o")
        used.extend(primes(bound))
        return used

    monkeypatch.setattr(engine, "_cast", recording)
    monkeypatch.setattr(engine, "_primes", residues)
    got = engine.sym_product(u, v, t)
    return got, set(kinds), used


class TestSymbolicTiers:
    """(x + y)^2 on e0 e0 = c e0 (c = a + b sqrt 3 with a sqrt 3 part): its
    bound is 2 * max|c|, times (1 + 3)^2 = 16 with a sqrt 3 part, and the xy
    coefficient reaches 2c.  The constants put the bound just under and
    just over 2^52, and past 2^53 and 2^62 where float64 and int64 would
    round: from 2^52 on the product runs on residues."""

    @pytest.mark.parametrize("c, kind", [
        (2 ** 51 - 1, "f"), (2 ** 51, "o"),
        (QuadExt(2 ** 47 - 1, 2 ** 47 - 1), "f"), (QuadExt(2 ** 47, 1), "o"),
        (QuadExt(-3, 2 ** 47), "o"),
        (2 ** 60 + 1, "o"), (2 ** 61 + 1, "o"),
        (QuadExt(2 ** 55 + 1, 2 ** 54 - 1), "o"),
        (QuadExt(1, 2 ** 58 + 1), "o"),
    ], ids=str)
    def test_matches_object_and_multipoly_routes(self, c, kind, monkeypatch):
        A = line_algebra(c)
        t = A.tensor()
        x, y = (engine.SymVec.generic(1, 2, 4, g) for g in (0, 1))
        s = engine.sym_combine([(1, x), (1, y)], 1)
        got, kinds, primes = product_kinds(monkeypatch, s, s, t)
        assert kinds == {kind}
        for p in got.parts:
            assert p.dtype == (object if kind == "o" else np.float64)
        # the same product with every step in big ints
        exact = bigint_sym_product(s, s, t)
        assert list(got.keys) == list(exact.keys)
        assert len(got.parts) == len(exact.parts)
        assert got.max_abs == exact.max_abs
        for g, e in zip(got.parts, exact.parts):
            assert (bigint(g) == e).all()
        # the residue route used enough primes to rebuild every sign
        if kind == "o":
            assert math.prod(primes) > 2 * exact.max_abs
        # and through MultiPoly arithmetic
        X, Y = FreePoly.var("x"), FreePoly.var("y")
        expect = eval_free_poly(A, (X + Y) * (X + Y), {
            "x": generic_element(A, nvars=2, offset=0),
            "y": generic_element(A, nvars=2, offset=1)})
        assert sym_to_poly_vector(got, A) == list(expect.coords)


def sparse_algebra(dim, seed, span, field, density):
    """A random algebra whose constants are nonzero with probability
    density: its identities fail on some basis tuples and not others."""
    rng = random.Random(seed)

    def const():
        if rng.random() >= density:
            return Fraction(0)
        a = Fraction(rng.randint(-span, span))
        if field == FIELD_QSQRT3:
            return QuadExt(a, Fraction(rng.randint(-span, span)))
        return a

    return StructureAlgebra("sparse", dim, field, [
        [[const() for _ in range(dim)] for _ in range(dim)]
        for _ in range(dim)])


def full_scan_check(A, poly, cache=None):
    """Oracle: (holds, witness) from the first nonzero tuple, in argwhere
    order, of the full symmetrization of the per-word accumulation."""
    S, dx, dy = symmetrized(per_word_multilinearization(A, poly, cache))
    nz = np.any([np.any(p != 0, axis=-1) for p in S], axis=0)
    if not nz.any():
        return True, None
    idx = np.argwhere(nz)[0]
    return False, (tuple(int(i) for i in idx[:dx]),
                   tuple(int(j) for j in idx[dx:]))


def scaled(A, factor):
    """A with every constant times factor: isomorphic to A (x -> x/factor),
    so it satisfies the same homogeneous identities."""
    return StructureAlgebra(f"{factor}{A.name}", A.dim, A.field, [
        [[c * factor for c in row] for row in plane]
        for plane in A.constants])


class TestSortedSlotCheck:
    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("k", (0, 1, 2, 3, 4))
    def test_sorted_sums_match_brute_force(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        T = rng.integers(-9, 9, size=(2, n ** k, 3))
        S, tuples = engine._sorted_sums(T, n, k)
        sorted_tuples = list(itertools.combinations_with_replacement(
            range(n), k))
        assert [tuple(t) for t in tuples] == sorted_tuples
        full = T.reshape((2,) + (n,) * k + (3,))
        for r, t in enumerate(sorted_tuples):
            expect = sum(full[(slice(None),) + tuple(t[i] for i in perm)]
                         for perm in itertools.permutations(range(k)))
            assert (S[:, r] == expect).all(), t

    def test_matches_full_scan_on_every_tier(self):
        # O scaled by 2^16 and 2^30 moves the degree-4 accumulators to
        # residues mod primes, past 2^52 and past 2^62; P has sqrt 3 parts
        O = catalog_algebra("O")
        algebras = [catalog_algebra(name) for name in ("H", "*H", "P")] + \
            [O, scaled(O, 2 ** 16), scaled(O, 2 ** 30)]
        polys = triple_polys(1, 1, 1) + triple_polys(1, 1, 2)
        kinds, verdicts, shapes = set(), set(), set()
        for A in algebras:
            ml = A.ml_engine()
            cache = {}
            for key, poly in polys:
                U, dx, dy, bound = ml.multilinearization(poly)
                assert all(u.dtype == np.float64 for u in U)
                kinds.add(engine._tier(bound))
                shapes.add((dx == 1, dy == 0))
                got = ml.check(poly)
                assert got == full_scan_check(A, poly, cache), (A.name, key)
                verdicts.add(got[0])
        assert kinds == {"f", "o"}
        assert verdicts == {True, False}
        assert {(True, False), (False, True)} <= shapes

    @given(dim=st.integers(1, 4), seed=st.integers(0, 10 ** 6),
           field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
           span=st.sampled_from(SPANS),
           density=st.sampled_from((0.1, 0.3, 1.0)),
           triple=st.sampled_from(LOW_TRIPLES))
    @settings(max_examples=30, deadline=None)
    def test_matches_full_scan_on_random_algebras(self, dim, seed, field,
                                                  span, density, triple):
        A = sparse_algebra(dim, seed, span, field, density)
        cache = {}
        for key, poly in triple_polys(*triple):
            assert A.ml_engine().check(poly) == \
                full_scan_check(A, poly, cache), key


#: constant spans at the residue tier's edges: products of words cross 2^52
#: (2^10) and 2^62 (2^20, 2^26), and the constants themselves pass 2^52
#: (2^70, so the structure tensor is held in Python ints)
EDGE_SPANS = (2 ** 10, 2 ** 20, 2 ** 26, 2 ** 70)


def holds_by_bigint_oracle(A, poly):
    """identity_holds(A, poly, "symbolic") with every symbolic product and
    every point value of the witness search taken by the big-int oracle."""
    with mock.patch.object(engine, "sym_product", bigint_sym_product), \
            mock.patch.object(engine, "sym_nonzero_at", bigint_nonzero_at):
        return identity_holds(A, poly, "symbolic")


class TestResidueTier:
    """From 2^52 on the identity kernels compute mod primes below 2^22: the
    symbolic product rebuilds its rows by CRT, the multilinear check and the
    witness search only test residues for zero.  Both backends must give
    the big-int oracle's verdict and witness."""

    @given(dim=st.integers(1, 3), seed=st.integers(0, 10 ** 6),
           field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
           span=st.sampled_from(EDGE_SPANS),
           density=st.sampled_from((0.3, 1.0)),
           triple=st.sampled_from(LOW_TRIPLES), short=st.booleans(),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_both_backends_match_bigint_oracle(self, dim, seed, field, span,
                                               density, triple, short, data):
        A = sparse_algebra(dim, seed, span, field, density)
        key, poly = data.draw(st.sampled_from(triple_polys(*triple)))
        # a two-prime table makes large bounds generate primes on demand
        table = engine._PRIMES[:2] if short else list(engine._PRIMES)
        with mock.patch.object(engine, "_PRIMES", table):
            got_ml = engine.MultilinearEngine(A.tensor()).check(poly)
            got = identity_holds(A, poly, "symbolic")
        assert got_ml == full_scan_check(A, poly), key
        assert got == holds_by_bigint_oracle(A, poly), key
        assert got.holds == got_ml[0], key

    def test_needs_every_prime(self):
        # e0 e0 = c e0 with c the product of the first three primes: x x
        # (and its multilinearization, 2c) vanishes mod those three, so
        # only the fourth prime, which every bound here asks for, refutes it
        c = math.prod(engine._PRIMES[:3])
        A = line_algebra(c)
        x = FreePoly.var("x")
        assert engine._primes(2 * c)[3:] == [engine._PRIMES[3]]
        for backend in ("symbolic", "multilinear"):
            res = identity_holds(A, x * x, backend)
            assert not res.holds and res.witness, backend

    def test_primes_extend_past_a_short_table(self, monkeypatch):
        monkeypatch.setattr(engine, "_PRIMES", engine._PRIMES[:2])
        primes = engine._primes(2 ** 200)
        assert primes[:2] == engine._PRIMES[:2] and len(primes) > 2
        assert math.prod(primes[:-1]) <= 2 ** 200 < math.prod(primes)
        assert len(set(primes)) == len(primes)
        assert all(q < 2 ** 22 and
                   all(q % d for d in range(2, math.isqrt(q) + 1))
                   for q in primes)
        # a check whose bound needs more primes than the table held
        A = big_algebra(FIELD_QSQRT3)
        poly = pqr_associator(1, 2, 2)
        monkeypatch.setattr(engine, "_PRIMES", engine._PRIMES[:2])
        ml = engine.MultilinearEngine(A.tensor())
        assert len(engine._primes(ml.multilinearization(poly)[3])) > 2
        assert ml.check(poly) == full_scan_check(A, poly)
        assert identity_holds(A, poly, "symbolic") == \
            holds_by_bigint_oracle(A, poly)

    def test_inner_dimension_too_wide_raises(self):
        p = engine._PRIMES[0]
        width = engine._residue_width(p)
        assert width == 512
        # the widest sum of largest residues is still exact
        top = np.full((1, width), p - 1.0)
        got = int(engine._field_product((top,), (top.T,), p)[0][0, 0])
        assert abs(got) < p and (got - width * (p - 1) ** 2) % p == 0
        with pytest.raises(ValueError, match="too wide"):
            engine._field_product((np.ones((1, width + 1)),),
                                  (np.ones((width + 1, 1)),), p)
        # the sqrt 3 block product sums over 2k
        half = np.ones((1, width // 2 + 1))
        with pytest.raises(ValueError, match="too wide"):
            engine._field_product((half, half), (half.T, half.T), p)

    @pytest.mark.parametrize("backend", ("symbolic", "multilinear"))
    def test_prime_too_large_raises(self, backend, monkeypatch):
        # with a 31-bit prime no product of residues is exact in float64
        monkeypatch.setattr(engine, "_PRIMES", [2 ** 31 - 1])
        A = big_algebra(FIELD_Q)
        with pytest.raises(ValueError, match="too wide"):
            identity_holds(A, pqr_associator(1, 2, 2), backend)

    def test_no_object_product_on_dense_algebra(self, files_algebras,
                                                monkeypatch):
        A = files_algebras["dense6"]
        seen = []
        matmul = engine._matmul

        def recording(P, Q, p):
            seen.append((p, P.dtype, Q.dtype))
            return matmul(P, Q, p)

        monkeypatch.setattr(engine, "_matmul", recording)
        for poly in (pqr_associator(2, 2, 2), polarize(1, 1, 2).f(1)):
            verdicts = {identity_holds(A, poly, b).holds
                        for b in ("symbolic", "multilinear")}
            assert verdicts == {False}
        assert {np.dtype(object)}.isdisjoint(
            dt for _, *dts in seen for dt in dts)
        # the residue tier ran, and only on float64 residues
        assert any(p is not None for p, *_ in seen)
        assert all(dts == [np.dtype(np.float64)] * 2
                   for p, *dts in seen if p is not None)


def recording_primes(monkeypatch):
    """The bounds that engine._primes is asked for from now on: a call means
    the residue tier ran."""
    asked, primes = [], engine._primes

    def recording(bound):
        asked.append(bound)
        return primes(bound)

    monkeypatch.setattr(engine, "_primes", recording)
    return asked


def line_word(a, b):
    """The SymVec a x0 + b x1 of one column: rows at two keys."""
    return symvec({(1, 0): [(a, 0)], (0, 1): [(b, 0)]}, 2, 4, 1, 1)


class TestFloatEdge:
    """Each kernel at the bounds 2^52 - 1 (exact float64) and 2^52
    (residues, or Python ints for sym_scale and sym_combine), against the
    big-int oracle."""

    @given(p=st.sampled_from(engine._PRIMES[:4] + [5, 7, 65537]),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fmod_is_a_residue_within_its_margin(self, p, data):
        top = 2 ** 53 - p
        xs = data.draw(st.lists(st.one_of(
            st.integers(-top, top),
            st.sampled_from((top, -top, top - p // 2, p, -p, p // 2, 0))),
            min_size=1, max_size=20))
        got = engine._fmod(np.array(xs, dtype=np.float64), p)
        for x, r in zip(xs, got.tolist()):
            assert r == int(r) and abs(r) < p and (int(r) - x) % p == 0, x

    @pytest.mark.parametrize("top", (2 ** 52 - 1, 2 ** 52))
    def test_sym_combine(self, top):
        # x0 rows 2^51 and top - 2^51 on one key sum to top; x1 cancels
        u, v = line_word(2 ** 51, 5), line_word(top - 2 ** 51, -5)
        got = engine.sym_combine([(1, u), (1, v)], 1)
        assert got.parts[0].dtype == (np.float64 if top < 2 ** 52 else object)
        assert dict_sum(got.keys, got.parts) == \
            bigint_sym_combine([(1, u), (1, v)]) == {1: [[top]]}
        assert got.max_abs == top

    @pytest.mark.parametrize("a, b", [(2 ** 26 - 1, 2 ** 26 + 1),
                                      (2 ** 26, 2 ** 26)])
    def test_sym_scale(self, a, b):
        s = symvec({(1, 0): [(a, 0)]}, 2, 4, 1, 1)
        v = line_word(b, -b)
        got = engine.sym_scale(s, v)
        assert got.parts[0].dtype == \
            (np.float64 if a * b < 2 ** 52 else object)
        assert dict_sum(got.keys, got.parts) == bigint_sym_scale(s, v)
        assert got.max_abs == a * b

    @pytest.mark.parametrize("M, w, rows, top, expect", [
        ([[1], [0], [-1]], [2 ** 26 - 1], [2 ** 26 + 1], 2 ** 52 - 1,
         [True, False, True]),
        ([[1], [0], [-1]], [2 ** 26], [2 ** 26], 2 ** 52,
         [True, False, True]),
        # the first point cancels exactly, the second does not
        ([[1, 1], [1, -1]], [2 ** 25, 2 ** 25], [2 ** 26, 2 ** 26],
         2 ** 52, [True, False]),
        ([[1, 1], [1, -1]], [2 ** 25, 2 ** 25], [2 ** 26, -2 ** 26],
         2 ** 52, [False, True]),
    ])
    def test_sym_nonzero_at(self, M, w, rows, top, expect, monkeypatch):
        v = symvec({(i,): [(r, 0), (0, 0)] for i, r in enumerate(rows)},
                   1, 4, 1, 2)
        M, w = np.array(M, dtype=np.int64), np.array(w, dtype=np.int64)
        asked = recording_primes(monkeypatch)
        got = engine.sym_nonzero_at(v, M, w).tolist()
        assert asked == ([] if top < 2 ** 52 else [top])
        assert got == bigint_nonzero_at(v, M, w).tolist() == expect

    @pytest.mark.parametrize("c", (2 ** 52 - 1, 2 ** 52))
    def test_contraction(self, c):
        # e0 e0 = c e0: the word x x has the contraction bound c
        A = line_algebra(c)
        ml = A.ml_engine()
        g, m = ml.word_tensor(("x", "x"))
        (e,), _ = bigint_word_tensor(A.tensor(), ("x", "x"))
        assert g.dtype == np.float64 and m == c
        if c < 2 ** 52:
            assert (bigint(g) == e).all()
        else:
            p = engine._PRIMES[0]
            assert (np.abs(g) < p).all() and ((bigint(g) - e) % p == 0).all()

    @pytest.mark.parametrize("a, b, tier", [
        (2 ** 51, 2 ** 51 - 1, "f"), (2 ** 51, 2 ** 51, "o"),
        (2 ** 51, -2 ** 51, "o")])
    def test_accumulator(self, a, b, tier):
        # on e0 e0 = e0, a xy + b yx has two groups of contraction bounds |a|
        # and |b|: their sum reaches the accumulator's bound |a| + |b|
        A = line_algebra(1)
        X, Y = FreePoly.var("x"), FreePoly.var("y")
        poly = (X * Y).scale(a) + (Y * X).scale(b)
        ml = A.ml_engine()
        assert ml.multilinearization(poly)[3] == abs(a) + abs(b)
        assert assert_same_tensor(
            ml, poly, per_word_multilinearization(A, poly)) == tier
        assert ml.check(poly) == full_scan_check(A, poly) == \
            ((True, None) if a + b == 0 else (False, ((0,), (0,))))


def test_no_int64_product_operand(files_algebras, monkeypatch):
    # every product of the identity kernels, the closure and the
    # composition form runs on float64 (exact or residues) or on Python
    # ints, over the catalog and the files algebras, on both backends
    from nalab.algebra import division_sampled
    from nalab.catalog import CATALOG_NAMES
    from nalab.identities import predicate
    seen = set()
    matmul = engine._matmul

    def recording(P, Q, p):
        seen.update((P.dtype, Q.dtype))
        return matmul(P, Q, p)

    monkeypatch.setattr(engine, "_matmul", recording)
    algebras = [catalog_algebra(name) for name in CATALOG_NAMES] + \
        list(files_algebras.values())
    for A in algebras:
        for poly in (pqr_associator(1, 1, 2), polarize(1, 1, 2).f(1)):
            for backend in ("symbolic", "multilinear"):
                identity_holds(A, poly, backend)
        for name in ("power_associative", "power_commutative"):
            predicate(A, name, bound=4)
        division_sampled(A, trials=1)
    assert np.dtype(np.float64) in seen
    assert np.dtype(np.int64) not in seen, seen
