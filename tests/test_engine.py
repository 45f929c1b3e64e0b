"""Integer kernels cross-checked against independent slow evaluations.

The symbolic kernel is compared with direct MultiPoly evaluation; the
multilinear tensors are compared with an inclusion-exclusion oracle evaluated
through ordinary algebra multiplication.  Both oracles share no code with the
kernels they check.  The grouped multilinearization is also compared, entry
for entry, with a per-word accumulation of full word tensors built in Python
ints (``oracles.bigint_word_tensor``), symmetrized and read at the sorted
slot tuples where the kernel forms it, and the multilinear check with a
scan of the fully symmetrized tensor.  From 2^52 on the kernels keep residues
mod primes: those are compared with the big-int oracles mod each prime
used, and by verdict and witness.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab import engine
from nalab.algebra import FIELD_Q, FIELD_QSQRT3, StructureAlgebra, \
    _symbolic_groups, degree, generic_closure, identity_holds
from nalab.catalog import CATALOG_NAMES, catalog_algebra
from nalab.exactmath import MultiPoly, QuadExt, poly_rank
from nalab.freealg import X, Y, FreePoly, associator, polarize, \
    pqr_associator, term_bidegree
from nalab.identities import check_pqr, predicate
from oracles import bigint, bigint_sym_combine, bigint_sym_product, \
    bigint_sym_scale, bigint_word_tensor, dict_sum, fraction_eval_free_poly, \
    fraction_nonzero_at, generic_element, inclusion_exclusion_multilin, \
    konig_cover, tier


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
        expect = fraction_eval_free_poly(A, FreePoly.term(word), assignment)
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
        expect = fraction_eval_free_poly(A, FreePoly.term(word), assignment)
        assert got == list(expect.coords)

    def test_matches_on_quadext_algebra(self):
        A = random_algebra(2, seed=9, field=FIELD_QSQRT3)
        n = A.dim
        groups = {"x": engine.SymVec.generic(n, n, 4, 0)}
        ctx = engine.SymContext(A.tensor(), groups)
        word = (("x", "x"), "x")
        got = sym_to_poly_vector(ctx.eval_term(word), A)
        expect = fraction_eval_free_poly(A, FreePoly.term(word),
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
            expect = fraction_eval_free_poly(A, FreePoly.term(word),
                                    {"x": generic_element(A)})
            assert got == list(expect.coords), field

    def test_degree_17_word_matches_multipoly(self):
        # 17 needs 5 bits: at 4 bits the key of x0^17 reads as x0*x1
        A = random_algebra(2, seed=17)
        word = left_power(17)
        groups = {"x": engine.SymVec.generic(2, 2, 5, 0)}
        got = sym_to_poly_vector(
            engine.SymContext(A.tensor(), groups).eval_term(word), A)
        expect = fraction_eval_free_poly(A, FreePoly.term(word),
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
            rows.append(engine.sym_sum([(1, poly(1), r) for r in rows], m))
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
        got = engine.sym_sum([(1, s[0], v[0])], m)
        (c,) = poly_row(s[0])
        assert poly_row(got) == [c * p for p in poly_row(v[0])]

    def test_scale_exponent_overflow_raises(self):
        x = engine.SymVec.generic(1, 1, 2, 0)
        x2 = engine.sym_sum([(1, x, x)], 1)
        x3 = engine.sym_sum([(1, x2, x)], 1)
        assert x3.degrees == (3,)
        with pytest.raises(ValueError, match="does not fit in 2 bits"):
            engine.sym_sum([(1, x3, x)], 1)


def scaled_oracle(s, v):
    """s v as a SymVec of Python ints, by ``bigint_sym_scale``; v itself
    when s is None (the constant 1)."""
    if s is None:
        return v
    got = bigint_sym_scale(s, v)
    m = v.parts[0].shape[1]
    keys = sorted(got)
    parts = tuple(np.array([got[k][h] for k in keys],
                           dtype=object).reshape(len(keys), m)
                  for h in range(max(len(s.parts), len(v.parts))))
    return engine.SymVec(v.nvars, v.bits, v.degrees, 0,
                         np.array(keys, dtype=v.keys.dtype), parts, 1)


def sum_oracle(terms):
    """sym_sum(terms) as a ``dict_sum`` dict: each product s v by
    ``bigint_sym_scale``, their combination by ``bigint_sym_combine``."""
    return bigint_sym_combine([(c, scaled_oracle(s, v)) for c, s, v in terms])


def in_q_sqrt3(sums, m):
    """A ``dict_sum`` dict with a zero sqrt 3 row added where it has none:
    the same values whatever the width of the parts."""
    return {k: rows + [[0] * m] * (2 - len(rows)) for k, rows in sums.items()}


@st.composite
def sum_terms(draw, wide):
    """(m, terms) for sym_sum: one to four (c, s, v) with c in -2..2, s a
    scalar or None and v of m columns, each with zero to three keys over
    two variables and one or two parts (so a rational scalar meets a
    sqrt 3 row).  A term may repeat an earlier s and v, so that keys
    collide across terms and may cancel.  Entries reach 3, 2^26 or 2^40,
    so that products stay below 2^52 or pass it."""
    bits = 40 if wide else 4
    m = draw(st.integers(1, 3))
    top = draw(st.sampled_from((3, 2 ** 26, 2 ** 40)))
    coeff = st.one_of(st.integers(-top, top), st.sampled_from((top, -top)))
    exps = st.tuples(*[st.integers(0, 1)] * 2)

    def vec(columns):
        width = draw(st.integers(1, 2))
        terms = draw(st.dictionaries(exps, st.lists(
            st.tuples(coeff, coeff), min_size=columns, max_size=columns),
            max_size=3))
        return symvec(terms, 2, bits, width, columns)

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.integers(-2, 2))
        if terms and draw(st.booleans()):
            _, s, v = draw(st.sampled_from(terms))
        else:
            s = None if draw(st.booleans()) else vec(1)
            v = vec(m)
        terms.append((c, s, v))
    return m, terms


class TestSymSum:
    """The sum of c s v over terms, aggregated once, against
    ``bigint_sym_scale`` plus ``bigint_sym_combine``: values are compared,
    not dtypes."""

    @settings(max_examples=120, deadline=None)
    @given(st.booleans(), st.data())
    def test_matches_bigint_oracle(self, wide, data):
        m, terms = data.draw(sum_terms(wide))
        got = engine.sym_sum(terms, m)
        expect = sum_oracle(terms)
        assert in_q_sqrt3(dict_sum(got.keys, got.parts), m) == \
            in_q_sqrt3(expect, m)
        assert [int(k) for k in got.keys] == sorted(expect)
        assert got.parts[0].shape == (len(expect), m)
        assert got.max_abs == max([1] + [abs(x) for rows in expect.values()
                                         for row in rows for x in row])
        assert got.degrees == tuple(map(max, zip(*(
            v.degrees if s is None else engine._product_degrees(s, v)
            for _, s, v in terms))))

    @pytest.mark.parametrize("top", (2 ** 52 - 1, 2 ** 52))
    def test_bound_at_2_52(self, top):
        # 2^25 2^26 + 1 (top - 2^51) on one key: the bound is the value
        terms = [(1, symvec({(1, 0): [(2 ** 25, 0)]}, 2, 4, 1, 1),
                  symvec({(0, 0): [(2 ** 26, 0)]}, 2, 4, 1, 1)),
                 (1, symvec({(1, 0): [(1, 0)]}, 2, 4, 1, 1),
                  symvec({(0, 0): [(top - 2 ** 51, 0)]}, 2, 4, 1, 1))]
        got = engine.sym_sum(terms, 1)
        assert got.parts[0].dtype == \
            (np.float64 if top < 2 ** 52 else object)
        assert dict_sum(got.keys, got.parts) == sum_oracle(terms) == \
            {1: [[top]]}
        assert got.max_abs == top

    @pytest.mark.parametrize("a", (2 ** 26 - 1, 2 ** 26))
    def test_rational_scalar_times_sqrt3_row(self, a):
        # one product per entry when only v has a sqrt 3 part: the bound
        # is 2^26 a, and 2^26 (2^26 - 1) stays in float64
        s = symvec({(1, 0): [(2 ** 26, 0)]}, 2, 4, 1, 1)
        v = symvec({(0, 1): [(a, -a), (1, 3)]}, 2, 4, 2, 2)
        got = engine.sym_sum([(1, s, v)], 2)
        assert len(got.parts) == 2
        assert got.parts[0].dtype == (np.float64 if a < 2 ** 26 else object)
        assert dict_sum(got.keys, got.parts) == sum_oracle([(1, s, v)]) == \
            {(1 << 4) + 1: [[2 ** 26 * a, 2 ** 26],
                            [-2 ** 26 * a, 3 * 2 ** 26]]}

    def test_a_key_sums_min_p_q_products(self):
        # three products of 2^52 - 1 land on x0 x1: 3 2^52 - 3 is odd and
        # past 2^53, so one product's bound would lose it in float64
        a, b = 2 ** 26 - 1, 2 ** 26 + 1
        s = symvec({(1, 0): [(a, 0)], (0, 1): [(a, 0)], (0, 0): [(a, 0)]},
                   2, 4, 1, 1)
        v = symvec({(0, 1): [(b, 0)], (1, 0): [(b, 0)], (1, 1): [(b, 0)]},
                   2, 4, 1, 1)
        got = engine.sym_sum([(1, s, v)], 1)
        assert dict_sum(got.keys, got.parts)[(1 << 4) + 1] == \
            [[3 * 2 ** 52 - 3]]
        assert dict_sum(got.keys, got.parts) == sum_oracle([(1, s, v)])

    def test_sqrt3_products_fold(self):
        # both factors have a sqrt 3 part: the rational part a a' + 3 b b'
        # is 2^53 + 2^25 - 7, odd, while max|s| max|v| is below 2^52
        s = symvec({(1, 0): [(2 ** 25 + 1, 2 ** 25 + 1)]}, 2, 4, 2, 1)
        v = symvec({(0, 1): [(2 ** 26 - 1, 2 ** 26 - 2)]}, 2, 4, 2, 1)
        got = engine.sym_sum([(1, s, v)], 1)
        assert dict_sum(got.keys, got.parts) == sum_oracle([(1, s, v)])
        assert dict_sum(got.keys, got.parts)[(1 << 4) + 1][0] == \
            [2 ** 53 + 2 ** 25 - 7]

    def test_zero_coefficients_and_empty_terms(self):
        s = symvec({(1, 0): [(2, 1)]}, 2, 4, 2, 1)
        v = symvec({(0, 1): [(3, 0)], (1, 1): [(-1, 1)]}, 2, 4, 2, 1)
        empty = symvec({}, 2, 4, 1, 1)
        dead = [(0, s, v), (2, empty, v), (-1, s, empty), (5, None, empty)]
        got = engine.sym_sum(dead, 1)
        assert len(got.keys) == 0 and got.parts[0].shape == (0, 1)
        assert got.degrees == (3,) and got.denom_power == 0
        live = engine.sym_sum(dead + [(2, s, v)], 1)
        assert dict_sum(live.keys, live.parts) == \
            sum_oracle(dead + [(2, s, v)]) == sum_oracle([(2, s, v)])

    def test_colliding_keys_cancel(self):
        s = symvec({(1, 0): [(2, 1)], (0, 1): [(1, 0)]}, 2, 4, 2, 1)
        v = symvec({(0, 0): [(3, 0), (1, 1)], (1, 0): [(-1, 1), (0, 2)]},
                   2, 4, 1, 2)
        gone = engine.sym_sum([(2, s, v), (-1, s, v), (-1, s, v)], 2)
        assert len(gone.keys) == 0 and gone.max_abs == 1
        # s v - x0 v: the key x0 cancels, the others stay
        x0 = symvec({(1, 0): [(2, 1)]}, 2, 4, 2, 1)
        terms = [(1, s, v), (-1, x0, v)]
        got = engine.sym_sum(terms, 2)
        assert dict_sum(got.keys, got.parts) == sum_oracle(terms)
        assert sorted(int(k) for k in got.keys) == [1 << 4, (1 << 4) + 1]

    def test_mixed_denom_power_raises(self):
        s = symvec({(1, 0): [(1, 0)]}, 2, 4, 1, 1)
        v = symvec({(0, 1): [(1, 0)]}, 2, 4, 1, 1)
        w = engine.SymVec(v.nvars, v.bits, v.degrees, 1, v.keys, v.parts,
                          v.max_abs)
        with pytest.raises(ValueError, match="mixed denominator powers"):
            engine.sym_sum([(1, s, v), (1, s, w)], 1)
        with pytest.raises(ValueError, match="mixed denominator powers"):
            engine.sym_sum([(1, None, v), (1, s, w)], 1)


def count_aggregates(monkeypatch):
    calls = []
    aggregate = engine._aggregate

    def counting(*args):
        calls.append(None)
        return aggregate(*args)

    monkeypatch.setattr(engine, "_aggregate", counting)
    return calls


def fresh(A):
    """A copy of A with nothing kept on it: the catalog algebras and the
    ``files_algebras`` fixture are shared across tests, and a verdict kept
    on them would answer in place of a patched kernel."""
    return StructureAlgebra(A.name, A.dim, A.field, A.constants,
                            A.basis_names)


def fresh_catalog_algebra(name):
    return fresh(catalog_algebra(name))


class TestOneAggregationPerMinor:
    """A SymSpan.add with d kept rows aggregates 2^d times: once for each
    of its 2^d - 1 new minors and once for the bordered sum w.  The other
    aggregations are sym_product's, one per product."""

    @pytest.mark.parametrize("name", ["P", "O"])
    def test_degree(self, monkeypatch, name):
        # 4 word products, and adds with 0, 1, 2, 2 and 2 kept rows
        calls = count_aggregates(monkeypatch)
        assert degree(fresh_catalog_algebra(name)) == 2
        assert len(calls) == 4 + 1 + 2 + 3 * 4

    def test_quadratic(self, monkeypatch):
        # the product x x, and adds of e, x and x^2 with 0, 1 and 2 kept
        calls = count_aggregates(monkeypatch)
        assert predicate(fresh_catalog_algebra("H"), "quadratic").value
        assert len(calls) == 1 + 1 + 2 + 4


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


def at_sorted_tuples(S, dx, dy):
    """The full multilinearization S (parts with axes (x slots, y slots,
    out)) read at the sorted x tuples and the sorted y tuples, each in
    lexicographic order: parts of shape (Mx, My, out), the layout of
    ``MultilinearEngine.multilinearization``."""
    n = S[0].shape[-1]
    xs = list(itertools.combinations_with_replacement(range(n), dx))
    ys = list(itertools.combinations_with_replacement(range(n), dy))
    return tuple(np.array([[s[x + y] for y in ys] for x in xs]) for s in S)


def at_sorting(parts, n, xt, yt):
    """The out entries of a block of ``multilinearization`` (parts at the
    sorted tuples) at the x tuple xt and the y tuple yt, one per part: the
    multilinearization is symmetric in its x slots and in its y slots, so a
    tuple reads its sorting."""
    xs = list(itertools.combinations_with_replacement(range(n), len(xt)))
    ys = list(itertools.combinations_with_replacement(range(n), len(yt)))
    i, j = xs.index(tuple(sorted(xt))), ys.index(tuple(sorted(yt)))
    return tuple(p[i, j] for p in parts)


class TestMultilinearKernel:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_tensor_matches_finite_differences(self, seed):
        A = random_algebra(2, seed)
        ml = engine.MultilinearEngine(A.tensor())
        poly = polarize(1, 1, 2).f(2)  # bidegree (2, 2)
        G, dx, dy, _ = ml.multilinearization(poly)
        assert (dx, dy) == (2, 2)
        scale = Fraction(A.tensor().scale) ** 3  # degree-4 words
        rng = random.Random(seed)
        for _ in range(6):
            idx = [rng.randrange(2) for _ in range(4)]
            xt = [A.basis_element(idx[0]), A.basis_element(idx[1])]
            yt = [A.basis_element(idx[2]), A.basis_element(idx[3])]
            oracle = inclusion_exclusion_multilin(A, poly, xt, yt)
            got = [Fraction(int(v)) / scale
                   for v in at_sorting(G, 2, idx[:2], idx[2:])[0]]
            assert got == list(oracle.coords)

    def test_tensor_matches_on_quadext(self):
        A = random_algebra(2, seed=21, span=1, field=FIELD_QSQRT3)
        ml = engine.MultilinearEngine(A.tensor())
        poly = pqr_associator(1, 1, 1)
        G = ml.multilinearization(poly)[0]
        scale = Fraction(A.tensor().scale) ** 2
        for idx in itertools.product(range(2), repeat=3):
            xt = [A.basis_element(i) for i in idx]
            oracle = inclusion_exclusion_multilin(A, poly, xt, [])
            S = at_sorting(G, 2, idx, ())
            got = []
            for k in range(2):
                a = Fraction(int(S[0][k])) / scale
                b = Fraction(int(S[1][k])) / scale
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
            for idx, value in oracle.items():
                S = at_sorting(U, 2, idx, ())
                for k, c in enumerate(value.coords):
                    a, b = (c.a, c.b) if isinstance(c, QuadExt) else (c, 0)
                    exact = [a * scale, b * scale]
                    assert all(x.denominator == 1 for x in exact)
                    assert [int(S[h][k]) % p for h in range(2)] == \
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
    """ml's multilinearization of poly equals the per-word oracle's expect,
    symmetrized and read at the sorted tuples, entry for entry: exactly
    while its bound is below 2^52, and mod each prime that check uses
    beyond, where every entry is a residue r with |r| < p.  Returns the
    tier it ran in: "f" for exact float64, "o" for residues."""
    G, gx, gy, bound = ml.multilinearization(poly)
    _, ex, ey, _ = expect
    assert (gx, gy) == (ex, ey)
    E = at_sorted_tuples(symmetrized(expect)[0], ex, ey)
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


#: every triple (p, q, r) with p, q, r <= 2
ALL_TRIPLES = list(itertools.product((1, 2), repeat=3))

#: every triple of degree <= 5 (all but (2,2,2))
LOW_TRIPLES = [t for t in ALL_TRIPLES if sum(t) <= 5]


def program_polys():
    """The 40 polynomials the program hands to the multilinear backend, as
    pytest params with their keys as ids: the eight (x^p, x^q, x^r) and
    their 28 components (check_pqr, paper-verify criterion 6), flexibility
    and both alternative laws (predicate), and x^2 x^2 - (x^2 x) x
    (power_associative)."""
    x, y, xx = FreePoly.var(X), FreePoly.var(Y), FreePoly.term((X, X))
    polys = [kp for triple in ALL_TRIPLES for kp in triple_polys(*triple)]
    polys += [("flexible", associator(x, y, x)),
              ("left alternative", associator(x, x, y)),
              ("right alternative", associator(y, x, x)),
              ("x2x2", xx * xx - (xx * x) * x)]
    return [pytest.param(key, poly, id=key) for key, poly in polys]


def word_edges(poly):
    """The (left factor, right factor) pairs of poly's words."""
    return [term for term in poly.terms if not isinstance(term, str)]


def min_cover_size(edges):
    """Oracle: the size of a minimum vertex cover of the bipartite graph
    with the given (left, right) edges, over every set T of left vertices
    left out of the cover (the cover then holds every right neighbour of
    T)."""
    lefts = sorted({L for L, _ in edges}, key=str)
    rights = sorted({R for _, R in edges}, key=str)
    nbrs = [sum(1 << rights.index(R) for L2, R in edges if L2 == L)
            for L in lefts]
    needed = [0] * (1 << len(lefts))  # needed[T]: the right neighbours of T
    best = len(lefts)
    for T in range(1, 1 << len(lefts)):
        low = T & -T
        needed[T] = needed[T ^ low] | nbrs[low.bit_length() - 1]
        best = min(best, len(lefts) - T.bit_count() + needed[T].bit_count())
    return best

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
                    assert kind <= tier(expect[3]), (span, key)
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
            assert kind <= tier(expect[3]), key

    @pytest.mark.parametrize("key, poly", program_polys())
    def test_one_contraction_per_cover_vertex(self, key, poly, monkeypatch):
        # every factor of these words has at most 4 leaves, so a first pass
        # caches them all and a second contracts only the groups
        groups = min_cover_size(word_edges(poly))
        # the counts README "Identity backends" quotes
        assert groups == {"(2.2.2.1)": 4, "(2.2.2.2)": 8, "(2.2.2.3)": 8,
                          "(2.1.2.2)": 8, "(2,2,2)": 2}.get(key, groups)
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

    @pytest.mark.parametrize("key, poly", program_polys())
    def test_cover_is_minimum(self, key, poly):
        # the greedy cover is König's, and as small as any cover
        edges = sorted(word_edges(poly), key=str)
        lefts, rights = engine._vertex_cover(edges)
        assert (lefts, rights) == konig_cover(edges)
        assert all(L in lefts or R in rights for L, R in edges)
        assert len(lefts) + len(rights) == min_cover_size(edges)
        # one group per vertex of the cover, each word in one group
        _, _, groups = engine._cover_groups(poly)
        assert set(groups) == {("L", L) for L in lefts} | \
            {("R", R) for R in rights}
        assert sorted(map(str, poly.terms)) == sorted(
            str((F, other) if side == "L" else (other, F))
            for (side, F), members in groups.items()
            for _, other in members)

    @pytest.mark.parametrize("coeff", (1, 2))
    @pytest.mark.parametrize("var", ("x", "y"))
    def test_bare_leaf_identity(self, coeff, var):
        # a bare variable has no left factor; c*x = 0 fails on both backends
        H = catalog_algebra("H")
        poly = FreePoly.var(var).scale(coeff)
        S, dx, dy, _ = H.ml_engine().multilinearization(poly)
        assert (dx, dy) == ((1, 0) if var == "x" else (0, 1))
        assert S[0].shape == ((4, 1, 4) if var == "x" else (1, 4, 4))
        assert (S[0].reshape(4, 4) == coeff * np.eye(4)).all()
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
            uk, sums, max_abs = engine._aggregate(keys, parts)
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


    @pytest.mark.parametrize("extra", (0, 1))
    @pytest.mark.parametrize("width", (1, 2))
    @pytest.mark.parametrize("kind", ("f", "o"))
    def test_at_the_aggregate_rows_boundary(self, kind, width, extra):
        """_AGGREGATE_ROWS rows take one reduceat per part, one more row the
        chunked path: both match dict_sum and blocks of 3 rows."""
        rng = np.random.default_rng(extra + 2 * width)
        dtype, top = AGGREGATE_PARTS[kind]
        # 500 keys, so runs are long; the second half of the rows repeats
        # the first, negated on the keys below 100, which sum to zero
        half = engine._AGGREGATE_ROWS // 2
        first = rng.integers(0, 500, half)
        keys = np.concatenate([first, first, rng.integers(100, 500, extra)])
        rows = len(keys)
        keys = keys.astype(object) << 64 if kind == "o" else \
            keys.astype(np.uint64)
        parts = []
        for _ in range(width):
            vals = rng.integers(-2, 3, (rows, 2))
            vals[half:2 * half] = np.where(first[:, None] < 100,
                                           -vals[:half], vals[half:2 * half])
            parts.append(np.array(vals.tolist(), dtype=dtype) * (top // 4))
        expect = dict_sum(keys, parts)
        uk, sums, max_abs = engine._aggregate(keys, parts)
        with mock.patch.object(engine, "_AGGREGATE_ROWS", 3):
            chunked = engine._aggregate(keys, parts)
        assert [int(k) for k in uk] == sorted(expect) == \
            [int(k) for k in chunked[0]]
        assert min(expect) >= (100 << 64 if kind == "o" else 100)
        for h, (s, c) in enumerate(zip(sums, chunked[1])):
            assert s.dtype == c.dtype == dtype
            assert [[int(x) for x in row] for row in s] == \
                [[int(x) for x in row] for row in c] == \
                [expect[k][h] for k in sorted(expect)]
        assert max_abs == chunked[2] == max(
            abs(x) for acc in expect.values() for row in acc for x in row)


def line_algebra(c):
    """The dimension-1 algebra e0 e0 = c e0: a product of symbolic elements
    with nonnegative rows reaches its magnitude bound exactly."""
    return StructureAlgebra("line", 1, FIELD_QSQRT3 if isinstance(c, QuadExt)
                            else FIELD_Q, [[[c]]])


def product_kinds(monkeypatch, u, v, t):
    """sym_product(u, v, t), the tiers its products ran in ("f" for exact
    float64, "o" for residues mod primes) and the primes it used."""
    kinds, used = [], []
    field_product, primes = engine._field_product, engine._primes

    def recording(A, B, p=None):
        kinds.append("f" if p is None else "o")
        return field_product(A, B, p)

    def residues(bound):
        kinds.append("o")
        used.extend(primes(bound))
        return used

    monkeypatch.setattr(engine, "_field_product", recording)
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
        expect = fraction_eval_free_poly(A, (X + Y) * (X + Y), {
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
    so it satisfies the same homogeneous identities.  A QuadExt factor puts
    it over Q(sqrt 3)."""
    field = FIELD_QSQRT3 if isinstance(factor, QuadExt) else A.field
    return StructureAlgebra(f"{factor}{A.name}", A.dim, field, [
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
                assert assert_same_tensor(
                    ml, poly, per_word_multilinearization(A, poly, cache)) \
                    == tier(bound)
                kinds.add(tier(bound))
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


def leaf_labels(term):
    """The variable leaves of term, left to right."""
    if isinstance(term, str):
        return [term]
    return leaf_labels(term[0]) + leaf_labels(term[1])


def left_normed(labels):
    """The word ((l0 l1) l2) ... of the leaves labels."""
    term = labels[0]
    for leaf in labels[1:]:
        term = (term, leaf)
    return term


def every_permutation_at_sorted_tuples(A, poly):
    """Oracle: the full multilinearization of poly at the sorted x and y
    tuples, as in ``multilinearization``, summing each word's big-int
    tensor over every assignment of its x leaves to the x slots and of its
    y leaves to the y slots: dx! dy! transposes per word."""
    t = A.tensor()
    (dx, dy), = poly.bidegrees()
    denom = math.lcm(*(c.denominator for c in poly.terms.values()))
    total = [np.zeros((t.n,) * (dx + dy + 1), dtype=object)
             for _ in t.parts]
    for term, coeff in poly.terms.items():
        T, _ = bigint_word_tensor(t, term)
        labels = leaf_labels(term)
        xs = [i for i, s in enumerate(labels) if s == X]
        ys = [i for i, s in enumerate(labels) if s == Y]
        for sx in itertools.permutations(xs):
            for sy in itertools.permutations(ys):
                perm = list(sx) + list(sy) + [len(labels)]
                for h, part in enumerate(T):
                    total[h] = total[h] + int(coeff * denom) * \
                        np.transpose(part, perm)
    return at_sorted_tuples(total, dx, dy)


#: every way a word L R with dx + dy <= 4 slots splits them: L takes ax of
#: the x slots and ay of the y slots, and each factor at least one leaf;
#: with the factor the group shares, R only where two left factors differ
SPLITS = [(dx, dy, ax, ay, shared) for dx in range(5) for dy in range(5 - dx)
          for ax in range(dx + 1) for ay in range(dy + 1)
          if 0 < ax + ay < dx + dy
          for shared in ("L", "R")
          if shared == "L" or ax + ay > 2 or ax == ay == 1]


class TestSplitSum:
    """A group's sum over the dx! dy! slot permutations at the sorted tuples
    is the sum, over the splits of the slots between its factors, of the
    contraction of the factors' own permutation sums: checked against every
    permutation, one word at a time."""

    @pytest.mark.parametrize("dx, dy, ax, ay, shared", SPLITS)
    def test_matches_every_permutation(self, dx, dy, ax, ay, shared):
        # L's y leaves come first, R's x leaves: each factor's slots are
        # aligned before it is summed.  Two left factors with one right
        # factor make a group that shares R.
        L = left_normed([Y] * ay + [X] * ax)
        R = left_normed([X] * (dx - ax) + [Y] * (dy - ay))
        poly = FreePoly.term((L, R))
        if shared == "R":
            other = left_normed([X] * ax + [Y] * ay)
            other = other if other != L else (L[1], L[0])
            poly = poly.scale(2) - FreePoly.term((other, R)).scale(3)
        assert {side for side, _ in engine._cover_groups(poly)[2]} == \
            {shared}
        A = random_algebra(3, 10 * dx + dy, field=FIELD_QSQRT3)
        got, gx, gy, bound = A.ml_engine().multilinearization(poly)
        assert (gx, gy) == (dx, dy) and bound < 2 ** 52
        expect = every_permutation_at_sorted_tuples(A, poly)
        assert len(got) == len(expect) == 2
        for g, e in zip(got, expect):
            assert g.shape == e.shape
            assert (bigint(g) == e).all()

    @pytest.mark.parametrize("var", (X, Y))
    def test_bare_leaf_group(self, var):
        # a bare leaf has no factors: its group is its summed members
        A = random_algebra(3, 7, field=FIELD_QSQRT3)
        poly = FreePoly.var(var).scale(5)
        assert set(engine._cover_groups(poly)[2]) == {("L", None)}
        got = A.ml_engine().multilinearization(poly)[0]
        expect = every_permutation_at_sorted_tuples(A, poly)
        assert len(expect) == 2 and len(got) == 2
        for g, e in zip(got, expect):
            assert g.shape == e.shape
            assert (bigint(g) == e).all()


def weighted(A, k, c):
    """A with the k-th coordinate of every product times c."""
    return StructureAlgebra(f"{A.name}^{k}", A.dim, A.field, [
        [[x * c if m == k else x for m, x in enumerate(row)] for row in plane]
        for plane in A.constants])


def into_one(A, k):
    """A with every product projected onto its k-th basis vector."""
    return StructureAlgebra(f"{A.name}>{k}", A.dim, A.field, [
        [[c if m == k else 0 * c for m, c in enumerate(row)] for row in plane]
        for plane in A.constants])


def block_rows(n, poly):
    """The rows per out index that check sizes its blocks by: those of the
    accumulator, one per sorted x tuple and sorted y tuple, or those of the
    largest contraction of a group, one per pair of its factors' sorted
    tuples, whichever is more."""
    (dx, dy), = poly.bidegrees()

    def rows(kx, ky):
        return math.comb(n + kx - 1, kx) * math.comb(n + ky - 1, ky)

    return max([rows(dx, dy)] + [
        rows(fx, fy) * rows(dx - fx, dy - fy)
        for fx, fy in (term_bidegree(F)
                       for _, F in engine._cover_groups(poly)[2] if F)])


def first_tuple(poly):
    """check's witness when poly fails at the first sorted tuple."""
    (dx, dy), = poly.bidegrees()
    return False, ((0,) * dx, (0,) * dy)


class TestOutBlocks:
    """check builds and tests the multilinearization one block of out
    indices at a time, as many as keep the accumulator and every
    contraction within _BLOCK_ENTRIES entries per part, or one."""

    @pytest.mark.parametrize("field", (FIELD_Q, FIELD_QSQRT3))
    def test_every_width_matches_full_scan(self, field, monkeypatch):
        # spans 3, 2^10 and 2^20 on sparse algebras, and H scaled past
        # 2^20, put blocks in float64 and in residues; H satisfies both
        # identities.  Over Q(sqrt 3), H scaled by 2^8 (1 + sqrt 3) with
        # its products' first coordinate 4 times larger puts the first
        # block in residues and the others in float64 within one check.
        # Products that land in the first or the last basis vector only
        # fail in the first or the last block only.
        H = catalog_algebra("H")
        scales = (1, 2 ** 20) if field == FIELD_Q else \
            (QuadExt(1, 1), QuadExt(2 ** 20, 2 ** 19))
        algebras = [sparse_algebra(3, 1, span, field, 0.5)
                    for span in (3, 2 ** 10, 2 ** 20)] + \
            [scaled(H, c) for c in scales] + \
            [into_one(sparse_algebra(3, 2, 3, field, 1.0), k) for k in (0, 2)]
        if field == FIELD_QSQRT3:
            algebras.append(weighted(scaled(H, QuadExt(2 ** 8, 2 ** 8)), 0, 4))
        calls = []
        build = engine.MultilinearEngine.multilinearization

        def recording(self, poly, p=None, out=slice(None), factors=None):
            got = build(self, poly, p, out, factors)
            calls.append((p, out, tier(got[3])))
            return got

        monkeypatch.setattr(engine.MultilinearEngine, "multilinearization",
                            recording)
        tiers, verdicts, rescans = set(), set(), 0
        for A in algebras:
            n = A.dim
            for key, poly in triple_polys(1, 1, 2) + triple_polys(1, 2, 2):
                expect = full_scan_check(A, poly)
                for width in range(1, n + 1):
                    monkeypatch.setattr(engine, "_BLOCK_ENTRIES",
                                        width * block_rows(n, poly))
                    calls.clear()
                    assert A.ml_engine().check(poly) == expect, \
                        (A.name, key, width)
                    first = [(out, tier) for p, out, tier in calls
                             if p == engine._PRIMES[0]]
                    blocks = [slice(lo, lo + width)
                              for lo in range(0, n, width)]
                    # later primes rescan the residue blocks only, and a
                    # failure at the first tuple ends the scan
                    residue = [out for out, tier in first if tier == "o"]
                    later = [out for p, out, _ in calls
                             if p != engine._PRIMES[0]]
                    rounds = -(-len(later) // max(1, len(residue)))
                    assert later == (residue * rounds)[:len(later)]
                    if expect == first_tuple(poly):
                        assert [out for out, _ in first] == \
                            blocks[:len(first)]
                    else:
                        assert [out for out, _ in first] == blocks
                        assert len(later) == rounds * len(residue)
                    tiers.add(tuple(sorted({t for _, t in first})))
                    rescans += len(later)
                verdicts.add(expect[0])
        assert {("f",), ("o",)} <= tiers and rescans
        assert verdicts == {True, False}
        if field == FIELD_QSQRT3:
            assert ("f", "o") in tiers

    @pytest.mark.parametrize("name", ("P", "S16"))
    def test_peak_memory_of_a_degree_6_check(self, name, files_algebras):
        # the whole unsymmetrized accumulator of f_1 of (2,2,2) on P is
        # 8^7 entries in each of two parts (32 MB), and of f_2 of (1,1,2)
        # on S16 16^5 entries (8 MB), whose factors split 256 x 256 rows
        # at sorted tuples; the S16 bound is the peak measured with this
        # code before the permutation sums were formed from the factors
        A, poly, mb = {
            "P": (catalog_algebra("P"), polarize(2, 2, 2).f(1), 40),
            "S16": (files_algebras["S16"], polarize(1, 1, 2).f(2), 14.3),
        }[name]
        A = fresh(A)
        tracemalloc.start()
        try:
            holds = identity_holds(A, poly, "multilinear").holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds
        assert peak < mb * 2 ** 20

    def test_stops_at_the_first_tuple(self, monkeypatch):
        # one out index per block and several primes: a failure at the
        # first sorted tuple of the first block decides the check there
        A = big_algebra(FIELD_QSQRT3)
        poly = pqr_associator(1, 1, 2)
        expect = full_scan_check(A, poly)
        assert expect == first_tuple(poly)
        ml = engine.MultilinearEngine(A.tensor())
        assert len(engine._primes(ml.multilinearization(poly)[3])) > 1
        monkeypatch.setattr(engine, "_BLOCK_ENTRIES", 1)
        calls = []
        build = engine.MultilinearEngine.multilinearization

        def counting(self, *args):
            calls.append(args)
            return build(self, *args)

        monkeypatch.setattr(engine.MultilinearEngine, "multilinearization",
                            counting)
        assert engine.MultilinearEngine(A.tensor()).check(poly) == expect
        assert len(calls) == 1


#: constant spans at the residue tier's edges: products of words cross 2^52
#: (2^10) and 2^62 (2^20, 2^26), and the constants themselves pass 2^52
#: (2^70, so the structure tensor is held in Python ints)
EDGE_SPANS = (2 ** 10, 2 ** 20, 2 ** 26, 2 ** 70)


def holds_by_bigint_oracle(A, poly):
    """identity_holds(A, poly, "symbolic") with every symbolic product
    taken by the big-int oracle and every point value of the witness search
    by ``fraction_eval_free_poly``, on a fresh copy of A: a verdict kept on
    A would answer without them."""
    B = fresh(A)
    with mock.patch.object(engine, "sym_product", bigint_sym_product), \
            mock.patch.object(engine, "poly_nonzero_at",
                              fraction_nonzero_at(B)):
        return identity_holds(B, poly, "symbolic")


class TestResidueTier:
    """From 2^52 on the identity kernels compute mod primes below 2^22: the
    symbolic product rebuilds its rows by CRT, the multilinear check and the
    witness search only test residues for zero.  Both backends must give
    the oracles' verdict and witness: big-int products, and point values in
    Fraction arithmetic."""

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
        A = fresh(files_algebras["dense6"])
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
    (residues, rebuilt as Python ints for sym_sum and sym_combine), against
    the big-int oracle."""

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
        got = engine.sym_sum([(1, s, v)], 1)
        assert got.parts[0].dtype == \
            (np.float64 if a * b < 2 ** 52 else object)
        assert dict_sum(got.keys, got.parts) == bigint_sym_scale(s, v)
        assert got.max_abs == a * b

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
    algebras = [fresh_catalog_algebra(name) for name in CATALOG_NAMES] + \
        [fresh(A) for A in files_algebras.values()]
    for A in algebras:
        for poly in (pqr_associator(1, 1, 2), polarize(1, 1, 2).f(1)):
            for backend in ("symbolic", "multilinear"):
                identity_holds(A, poly, backend)
        for name in ("power_associative", "power_commutative"):
            predicate(A, name, bound=4)
        division_sampled(A, trials=1)
    assert np.dtype(np.float64) in seen
    assert np.dtype(np.int64) not in seen, seen


def d8():
    """D8: e_i e_i = e_i, every other product zero."""
    return StructureAlgebra("D8", 8, FIELD_Q, [
        [[Fraction(int(i == j == k)) for k in range(8)] for j in range(8)]
        for i in range(8)])


def scaled_past_float64(A, k=None):
    """A with its constants times 2^k, by default 2^20 up to dim 4 and 2^12
    beyond: isomorphic to A, with symbolic sums past 2^52."""
    return scaled(A, 2 ** (k or (20 if A.dim <= 4 else 12)))


#: the scaled catalog algebras of the golden CLI file, as (name, k)
SCALED_CATALOG = (("H", 20), ("**H", 20), ("O", 12), ("P", 12), ("H", 25),
                  ("P", 23))

#: the predicates decided on generic elements, PA and quadratic by
#: SymSpan minors
GENERIC_PREDICATES = ("TPA", "x_x2_x", "flexible", "alternative",
                      "power_associative", "power_commutative", "quadratic")


def symbolic_answers(A):
    """degree, the closure words, the eight symbolic check_pqr results and
    the generic predicates (PC with bound 4) of A."""
    return (degree(A), generic_closure(A).words,
            [check_pqr(A, *t) for t in ALL_TRIPLES],
            [predicate(A, name, bound=4) for name in GENERIC_PREDICATES])


class TestOneResidueRoute:
    """Past 2^52 sym_product and sym_sum take one route: float64 residues
    mod primes summed by key, rebuilt by CRT, with the residues kept."""

    @pytest.mark.parametrize("name", (*CATALOG_NAMES, "D8"))
    def test_scaling_keeps_every_answer(self, name, monkeypatch):
        """x -> x / 2^k maps A onto A with its constants times 2^k, so
        every answer is A's, witnesses included: the scaled side runs past
        2^52 and the unscaled side in float64."""
        A = d8() if name == "D8" else fresh_catalog_algebra(name)
        asked = recording_primes(monkeypatch)
        expect = symbolic_answers(A)
        assert asked == []
        assert symbolic_answers(scaled_past_float64(A)) == expect
        assert asked

    @pytest.mark.parametrize("name, k", (("H", 20), ("P", 23)))
    def test_sum_keeps_its_residues(self, name, k):
        """A sym_sum past 2^52 keeps residues equal to its parts mod each
        prime, and a product of it equals the big-int product."""
        A = scaled_past_float64(fresh_catalog_algebra(name), k)
        t = A.tensor()
        ctx = engine.SymContext(t, _symbolic_groups(A, (X,), 7))
        x = FreePoly.var(X)
        v = ctx.eval_poly((x * x) * (x * x) + x * (x * (x * x)))
        assert v.max_abs >= 2 ** 52 and v.residues
        for p, residues in v.residues.items():
            assert len(residues) == len(v.parts)
            for r, e in zip(residues, engine._reduce(v.parts, p)):
                assert r.dtype == np.float64 and (np.abs(r) < p).all()
                assert ((bigint(r) - bigint(e)) % p == 0).all(), p
        got = engine.sym_product(v, ctx.groups[X], t)
        exact = bigint_sym_product(v, ctx.groups[X], t)
        assert dict_sum(got.keys, got.parts) == \
            dict_sum(exact.keys, exact.parts)


@pytest.mark.parametrize("work, name, k", (("degree", "P", 12),
                                            ("quadratic", "H", 50)))
def test_minors_reduce_no_big_ints(work, name, k, monkeypatch):
    """SymSpan minors past 2^52 take coordinates with their residues, sign
    flips included, and the first minor and a constant row are float64, so
    no minor reduces Python ints mod a prime again."""
    A = scaled_past_float64(fresh_catalog_algebra(name), k)
    asked = recording_primes(monkeypatch)
    reduce, big = engine._reduce, []

    def counting(parts, p):
        big.extend(len(x) for x in parts if x.dtype == object)
        return reduce(parts, p)

    monkeypatch.setattr(engine, "_reduce", counting)
    if work == "degree":
        degree(A)
    else:
        assert predicate(A, "quadratic").value
    assert asked and big == []


def test_no_object_arrays_in_symbolic_kernels(files_algebras, monkeypatch):
    """No symbolic aggregation and no product of the symbolic kernels runs
    on Python ints: past 2^52 they run on float64 residues."""
    run_sums, field_product = engine._run_sums, engine._field_product

    def float_only(parts):
        assert all(x.dtype != object for x in parts)

    def checked_run_sums(parts, order, bounds):
        float_only(parts)
        return run_sums(parts, order, bounds)

    def checked_field_product(A, B, p=None):
        float_only((*A, *B))
        return field_product(A, B, p)

    monkeypatch.setattr(engine, "_run_sums", checked_run_sums)
    monkeypatch.setattr(engine, "_field_product", checked_field_product)
    algebras = [scaled_past_float64(catalog_algebra(name), k)
                for name, k in SCALED_CATALOG] + \
        [fresh(A) for A in files_algebras.values()]
    for A in algebras:
        degree(A)
        for name in ("power_associative", "power_commutative", "quadratic"):
            predicate(A, name, bound=4)
        for triple in ALL_TRIPLES:
            check_pqr(A, *triple)


# ---------------------------------------------------------------------------
# The exact probe at a few integer points
# ---------------------------------------------------------------------------


#: each (x^p, x^q, x^r) and its first linearization component
PROBE_POLYS = [poly for triple in ALL_TRIPLES
               for poly in (pqr_associator(*triple), polarize(*triple).f(1))]


class TestPolyNonzeroAt:
    """engine.poly_nonzero_at against fraction_eval_free_poly, which shares
    no code with it: the nonzero pattern is the same at every point."""

    @given(dim=st.integers(1, 5), seed=st.integers(0, 10 ** 6),
           field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
           density=st.sampled_from((0.1, 0.3, 1.0)),
           k=st.sampled_from((0, 26, 60)),
           which=st.lists(st.integers(0, len(PROBE_POLYS) - 1),
                          min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_oracle(self, dim, seed, field, density, k,
                                     which):
        # a sparse algebra has zeros among its values at integer points,
        # and its products run past 2^52 from k = 26 on
        A = scaled(sparse_algebra(dim, seed, 3, field, density), 2 ** k)
        rng = random.Random(seed)
        for i in which:
            poly = PROBE_POLYS[i]
            points = {v: [[rng.randint(-3, 3) for _ in range(dim)]
                          for _ in range(8)]
                      for v in sorted(poly.variables())}
            got = engine.poly_nonzero_at(
                poly, A.tensor(),
                {v: np.array(p, dtype=np.float64) for v, p in points.items()})
            expect = [not fraction_eval_free_poly(A, poly, {
                v: A.element([Fraction(c) for c in p[row]])
                for v, p in points.items()}).is_zero() for row in range(8)]
            assert got.tolist() == expect, (i, points)

    @pytest.mark.parametrize("c", (2 ** 52 - 1, 2 ** 52))
    def test_tier_bound(self, c, monkeypatch):
        """e0 e0 = c e0: x x at x = e0 reaches its bound c exactly, so
        the residues run from c = 2^52 on; x (x x) - (x x) x cancels."""
        t = line_algebra(c).tensor()
        x = FreePoly.var(X)
        points = {X: np.array([[1.0], [0.0]])}
        asked = recording_primes(monkeypatch)
        assert engine.poly_nonzero_at(x * x, t, points).tolist() == \
            [True, False]
        assert bool(asked) == (c >= 2 ** 52)
        assert not engine.poly_nonzero_at(x * (x * x) - (x * x) * x, t,
                                          points).any()

    def test_sqrt3_part_alone(self):
        """e0 e0 = sqrt 3 e0: x x at e0 has a zero rational part."""
        t = line_algebra(QuadExt(0, 1)).tensor()
        x = FreePoly.var(X)
        assert engine.poly_nonzero_at(x * x, t, {X: np.ones((1, 1))})[0]

    def test_every_prime_counts(self):
        """e0 e0 = c e0 with c past 2^52 and divisible by the first prime:
        x x at e0 is nonzero only modulo the second."""
        c = engine._PRIMES[0] * 2 ** 31
        assert c >= 2 ** 52
        x = FreePoly.var(X)
        assert engine.poly_nonzero_at(x * x, line_algebra(c).tensor(),
                                      {X: np.ones((1, 1))})[0]

    @pytest.mark.parametrize("c", (1, 2 ** 52))
    def test_factor_order(self, c, monkeypatch):
        """e0 e1 = c e1 is the only nonzero product: x y is nonzero at
        (e0, e1) and zero at (e1, e0).  At c = 2^52 the product is left
        unformed and taken mod primes, so the residue path's factor order
        is tested too."""
        consts = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        consts[0][1][1] = Fraction(c)
        t = StructureAlgebra("e0e1", 2, FIELD_Q, consts).tensor()
        x, y = FreePoly.var(X), FreePoly.var(Y)
        eye = np.eye(2)
        asked = recording_primes(monkeypatch)
        assert engine.poly_nonzero_at(
            x * y, t, {X: eye, Y: eye[::-1]}).tolist() == [True, False]
        assert bool(asked) == (c >= 2 ** 52)

    def test_sqrt3_fold(self):
        """e0 e0 = (a + b sqrt 3) e0 is commutative and associative, so
        (x x)(x x) - ((x x) x) x is zero.  The rational part of (x x)(x x)
        at e0 is a^3 + 9 a b^2, odd and past 2^53, while (a + b)^2 a, the
        bound without the fold of 9, is below 2^52: without the fold it
        would be formed in float64 and rounded."""
        a, b = 100001, 100000
        assert (a + b) ** 2 * a < 2 ** 52 < 2 ** 53 < a ** 3 + 9 * a * b ** 2
        t = line_algebra(QuadExt(a, b)).tensor()
        x = FreePoly.var(X)
        x2 = x * x
        assert not engine.poly_nonzero_at(
            x2 * x2 - (x2 * x) * x, t, {X: np.ones((1, 1))})[0]
