"""Predicate suite, statement verifications and hierarchy consistency."""

import itertools
import pathlib
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab import algebra, engine, exactmath, identities
from nalab.algebra import (FIELD_Q, FIELD_QSQRT3, HoldsResult,
                           StructureAlgebra, _symbolic_groups, degree,
                           division_sampled, generic_closure,
                           identity_holds, mult_operator, multiply)
from nalab.catalog import CATALOG_NAMES, _cd_mul, catalog_algebra
from nalab.exactmath import Echelon, QuadExt, det
from nalab.freealg import (X, FreePoly, associator, commutator,
                           enumerate_trees, polarize, pqr_associator,
                           term_degree)
from nalab.identities import (ALL_TRIPLES, HIERARCHY_EDGES, PROPERTY_NAMES,
                              PredicateResult, _nonassociative_triple,
                              _power_commutative_scan, check_pqr,
                              hierarchy_report, predicate, verify_instances,
                              verify_prop1, verify_prop2)
from oracles import fraction_eval_free_poly, fraction_multiply

H = catalog_algebra("H")
O = catalog_algebra("O")
SH = catalog_algebra("*H")
DH = catalog_algebra("**H")
P = catalog_algebra("P")


class TestCheckPqr:
    def test_quaternions_all_triples(self):
        for (p, q, r) in ALL_TRIPLES:
            assert check_pqr(H, p, q, r).holds

    def test_star_O_222(self):
        assert check_pqr(catalog_algebra("*O"), 2, 2, 2).holds

    def test_star_H_111_fails_at_i(self):
        res = check_pqr(SH, 1, 1, 1)
        assert not res.holds
        assert res.witness["x"] == SH.basis_element(1)

    def test_backends_agree_on_star_H(self):
        for (p, q, r) in ALL_TRIPLES:
            s = check_pqr(SH, p, q, r, "symbolic").holds
            m = check_pqr(SH, p, q, r, "multilinear").holds
            assert s == m, (p, q, r)

    def test_star_family_squares(self):
        # Left isotopes satisfy exactly the identities with p = 2
        for base in ("C", "H"):
            A = catalog_algebra("*" + base)
            for (p, q, r) in ALL_TRIPLES:
                expected = (p == 2)
                assert check_pqr(A, p, q, r).holds == expected, (base, p, q, r)

    def test_multilinear_asks_f1_once(self, monkeypatch):
        """The multilinear backend makes one identity_holds call, on f_1,
        and returns its result: on *H some triples hold and some fail."""
        calls = []

        def recording(A, poly, backend="symbolic"):
            calls.append((poly, backend))
            return identity_holds(A, poly, backend)

        monkeypatch.setattr(identities, "identity_holds", recording)
        for p, q, r in ALL_TRIPLES:
            calls.clear()
            A = fresh(SH)
            res = check_pqr(A, p, q, r, "multilinear")
            f1 = polarize(p, q, r).f(1)
            assert calls == [(f1, "multilinear")]
            assert res == identity_holds(fresh(SH), f1, "multilinear")


def assert_components_decide(A, max_degree=6):
    """In characteristic zero each linearization component f_m of
    (x^p, x^q, x^r) = 0 holds exactly when the identity does: f_m vanishes
    where the identity does, as the y^m coefficient of (x + t y), and
    f_m(x, x) is C(d, m) times the identity.  Every request runs on a fresh
    copy of A, so no kept verdict answers it.  Multilinear requests stop at
    n^(d+1) = 2^21 entries, the benchmark's ``workloads.tensor_ok``."""
    for p, q, r in ALL_TRIPLES:
        d = p + q + r
        if d > max_degree:
            continue
        pol = polarize(p, q, r)
        for backend in ("symbolic", "multilinear"):
            if backend == "multilinear" and A.dim ** (d + 1) > 2 ** 21:
                continue
            want = identity_holds(fresh(A), pqr_associator(p, q, r),
                                  backend).holds
            for m in range(1, d):
                got = identity_holds(fresh(A), pol.f(m), backend).holds
                assert got == want, (A.name, (p, q, r), m, backend)


@st.composite
def integer_algebras(draw):
    """Algebras of dimension 1-4 over Q or Q(sqrt 3) whose constants are
    small integers, a + b sqrt 3 with integer a and b over Q(sqrt 3)."""
    dim = draw(st.integers(1, 4))
    field = draw(st.sampled_from((FIELD_Q, FIELD_QSQRT3)))
    small = st.integers(-2, 2)
    scalar = (st.builds(QuadExt, small, small) if field == FIELD_QSQRT3
              else st.builds(Fraction, small))
    row = st.lists(scalar, min_size=dim, max_size=dim)
    plane = st.lists(row, min_size=dim, max_size=dim)
    return StructureAlgebra("drawn", dim, field,
                            draw(st.lists(plane, min_size=dim, max_size=dim)))


class TestComponentsDecideIdentity:
    """Metamorphic: for every triple, every component f_m and both
    backends, the verdict on f_m equals the verdict on the identity."""

    @pytest.mark.parametrize("name", (*CATALOG_NAMES, "D8"))
    def test_catalog(self, name):
        assert_components_decide(diagonal(8) if name == "D8"
                                 else catalog_algebra(name))

    def test_files(self, files_algebras):
        for name, A in files_algebras.items():
            assert_components_decide(A, 4 if name == "S16" else 6)

    @given(A=integer_algebras())
    @settings(max_examples=15, deadline=None)
    def test_drawn(self, A):
        assert_components_decide(A)


class TestPredicates:
    def test_octonions_alternative(self):
        assert predicate(O, "alternative").value

    def test_associative_multilinear_route(self):
        # basis-triple scan agrees with the generic-element proof
        for name in ("C", "H"):
            A = catalog_algebra(name)
            res = predicate(A, "associative", backend="multilinear")
            assert res.value and res.mode == "multilinear-proof"
        res = predicate(O, "associative", backend="multilinear")
        assert not res.value and res.witness is not None

    def test_okubo_not_power_associative_with_witness(self):
        res = predicate(P, "power_associative")
        assert not res.value and res.witness is not None

    def test_quaternions_quadratic(self):
        assert predicate(H, "quadratic").value

    def test_okubo_quadratic_false(self):
        assert not predicate(P, "quadratic").value  # no unit

    def test_star_H_not_quadratic(self):
        assert not predicate(SH, "quadratic").value

    def test_unit_predicates(self):
        assert predicate(H, "has_unit").value
        assert predicate(SH, "has_left_unit").value
        assert not predicate(SH, "has_right_unit").value
        assert not predicate(P, "has_unit").value

    def test_power_commutative_modes(self):
        res = predicate(P, "power_commutative", bound=4)
        assert res.value and res.mode == "bounded(4)"

    def test_star_H_not_power_commutative(self):
        res = predicate(SH, "power_commutative")
        assert not res.value
        assert res.witness is not None

    def test_double_star_C_power_associative_false(self):
        assert not predicate(catalog_algebra("**C"),
                             "power_associative").value

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            predicate(H, "commutative")

    def test_flexible_implies_x_x2_x_instances(self):
        for name in ("**C", "**H", "P"):
            A = catalog_algebra(name)
            assert predicate(A, "flexible").value
            assert predicate(A, "x_x2_x").value


def associativity_oracle(A, elements):
    """The first non-associating triple of indices, in lexicographic order,
    with three products per triple and no pair table; None when every
    triple associates."""
    w = list(elements)
    for i, j, k in itertools.product(range(len(w)), repeat=3):
        ij = fraction_multiply(A, w[i], w[j])
        if fraction_multiply(A, ij, w[k]) != fraction_multiply(A, w[i], fraction_multiply(A, w[j], w[k])):
            return i, j, k
    return None


def diagonal(n):
    """D_n: Q^n with the componentwise product, associative."""
    return StructureAlgebra(f"D{n}", n, FIELD_Q, [
        [[Fraction(int(i == j == k)) for k in range(n)] for j in range(n)]
        for i in range(n)])


def random_scalar(rng, field):
    a = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    if field == FIELD_QSQRT3:
        return QuadExt(a, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return a


def sparse_random(dim, seed, field, density):
    """Constants nonzero with probability density: the sparsest ones are
    sometimes associative, the others fail at varying triples."""
    rng = random.Random(seed)

    def const():
        if rng.random() >= density:
            return Fraction(0)
        return random_scalar(rng, field)

    return StructureAlgebra("sparse", dim, field, [
        [[const() for _ in range(dim)] for _ in range(dim)]
        for _ in range(dim)])


def symmetrized(A):
    """A with b_i b_j replaced by b_i b_j + b_j b_i: commutative, so the
    power-commutativity scan checks every pair of kept words."""
    n = A.dim
    return StructureAlgebra("sym", n, A.field, [
        [[A.constants[i][j][k] + A.constants[j][i][k] for k in range(n)]
         for j in range(n)] for i in range(n)])


def random_elements(A, seed, count):
    rng = random.Random(seed)
    return [A.element([random_scalar(rng, A.field) if rng.random() < 0.6
                       else Fraction(0) for _ in range(A.dim)])
            for _ in range(count)]


def fresh(A):
    """A copy of A with nothing kept on it: the catalog algebras and the
    ``files_algebras`` fixture are shared across tests."""
    return StructureAlgebra(A.name, A.dim, A.field, A.constants,
                            A.basis_names)


def force_identities(monkeypatch):
    """Make every identity check of ``identities`` hold."""
    monkeypatch.setattr(identities, "identity_holds",
                        lambda A, poly, backend="symbolic":
                        HoldsResult(True, backend))


def generic_words(A):
    return generic_closure(A).words


ASSOCIATIVE = ("R", "C", "H")


class TestAssociativityCheck:
    @given(dim=st.integers(1, 7), seed=st.integers(0, 10 ** 6),
           field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
           density=st.sampled_from((0.02, 0.1, 0.4)),
           count=st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_algebras(self, dim, seed, field,
                                               density, count):
        A = sparse_random(dim, seed, field, density)
        basis = [A.basis_element(i) for i in range(dim)]
        assert _nonassociative_triple(A, basis) == \
            associativity_oracle(A, basis)
        elements = random_elements(A, seed, count)
        assert _nonassociative_triple(A, elements) == \
            associativity_oracle(A, elements)

    def test_both_verdicts_occur(self):
        algebras = [diagonal(n) for n in range(1, 8)]
        algebras += [catalog_algebra(name) for name in ASSOCIATIVE]
        algebras += [sparse_random(dim, seed, field, density)
                     for dim in range(1, 8)
                     for seed, field in enumerate((FIELD_Q, FIELD_QSQRT3))
                     for density in (0.05, 0.3)]
        verdicts = set()
        for A in algebras:
            basis = [A.basis_element(i) for i in range(A.dim)]
            got = _nonassociative_triple(A, basis)
            assert got == associativity_oracle(A, basis), A.name
            elements = random_elements(A, A.dim, 3)
            assert _nonassociative_triple(A, elements) == \
                associativity_oracle(A, elements), A.name
            verdicts.add(got is None)
            if A.name in ASSOCIATIVE or A.name.startswith("D"):
                assert got is None, A.name
        assert verdicts == {True, False}

    @pytest.mark.parametrize("dim", [5, 6])
    @pytest.mark.parametrize("backend", ["symbolic", "multilinear"])
    def test_mode_rule(self, dim, backend):
        expect = ("symbolic-proof" if backend == "symbolic" and dim <= 5
                  else "multilinear-proof")
        res = predicate(diagonal(dim), "associative", backend=backend)
        assert res.value and res.mode == expect and res.witness is None
        A = sparse_random(dim, 1, FIELD_Q, 0.3)
        basis = [A.basis_element(i) for i in range(dim)]
        triple = associativity_oracle(A, basis)
        assert triple is not None
        res = predicate(A, "associative", backend=backend)
        assert not res.value and res.mode == expect
        assert res.witness == {v: basis[i]
                               for v, i in zip(("x", "y", "z"), triple)}

    def test_cross_check_fires(self, monkeypatch):
        # with both identities forced to hold, the associators of P's
        # generic words must contradict the criterion
        assert generic_words(P)
        force_identities(monkeypatch)
        # a power_associative verdict kept on the shared P would answer
        monkeypatch.setattr(P, "_verdicts", {})
        with pytest.raises(AssertionError, match="generic A\\(x\\)"):
            predicate(P, "power_associative")

    def test_cross_check_fires_on_basis_path(self, monkeypatch):
        # a dense dim-4 algebra of degree 4: A(x) = A is found at the
        # specialization, so A's basis triples contradict the criterion
        A = sparse_random(4, 5, FIELD_Q, 1.0)
        assert degree(A) == 4 and generic_words(A) == ()
        assert associativity_oracle(
            A, [A.basis_element(i) for i in range(4)]) is not None
        force_identities(monkeypatch)
        with pytest.raises(AssertionError, match="generic A\\(x\\)"):
            predicate(A, "power_associative")

    def test_cross_check_passes(self, ut3):
        # UT3 through the words, D8 through the basis
        for A, words in ((ut3, True), (diagonal(8), False)):
            assert bool(generic_words(A)) == words
            assert predicate(A, "power_associative").value, A.name


def exact_pc(A, words):
    """A(x) is commutative at a generic x: the words in x commute pairwise,
    or A's basis elements do when A(x) = A (no words)."""
    if not words:
        basis = [A.basis_element(i) for i in range(A.dim)]
        return all(multiply(A, u, v) == multiply(A, v, u)
                   for u, v in itertools.combinations(basis, 2))
    terms = [FreePoly.term(w) for w in words]
    return all(identity_holds(A, commutator(a, b), "symbolic").holds
               for a, b in itertools.combinations(terms, 2))


def exact_pa(A, words):
    """A(x) is associative at a generic x: every triple of words in x
    associates, or A's basis triples do when A(x) = A (no words)."""
    if not words:
        basis = [A.basis_element(i) for i in range(A.dim)]
        return associativity_oracle(A, basis) is None
    terms = [FreePoly.term(w) for w in words]
    return all(identity_holds(A, associator(a, b, c), "symbolic").holds
               for a, b, c in itertools.product(terms, repeat=3))


def albert(A):
    """Albert's criterion: x x^2 = x^2 x and x^2 x^2 = (x^2 x) x."""
    x, xx = FreePoly.var(X), FreePoly.term((X, X))
    return all(identity_holds(A, f, "symbolic").holds
               for f in (x * xx - xx * x, xx * xx - (xx * x) * x))


def check_exact_against_bounded(A):
    """exact PC True => bounded(D) True (so bounded False => exact False),
    with equality once D reaches the largest word degree; D is that degree
    when there are words and 2 otherwise.  Returns (exact PC, exact PA)."""
    words = generic_words(A)
    top = max((term_degree(w) for w in words), default=2)
    pc = exact_pc(A, words)
    bounded = predicate(A, "power_commutative", bound=top).value
    assert bounded or not pc, A.name
    if words:
        assert bounded == pc, A.name
    return pc, exact_pa(A, words)


class TestExactOneGenerator:
    """Exact power-commutativity and power-associativity from the generic
    closure's words, as oracles for the predicates."""

    def test_catalog_and_files(self, ut3, files_algebras):
        algebras = [catalog_algebra(name) for name in CATALOG_NAMES]
        algebras += [diagonal(8), ut3] + list(files_algebras.values())
        seen = set()
        for A in algebras:
            pc, pa = check_exact_against_bounded(A)
            assert pa == albert(A), A.name
            assert pa == predicate(A, "power_associative").value, A.name
            seen.add((pc, pa))
        assert seen == {(True, True), (True, False), (False, False)}

    @given(dim=st.integers(1, 4), seed=st.integers(0, 10 ** 6),
           field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
           density=st.sampled_from((0.05, 0.2, 0.6)),
           commutative=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_random_algebras(self, dim, seed, field, density, commutative):
        A = sparse_random(dim, seed, field, density)
        if commutative:
            A = symmetrized(A)
        pc, pa = check_exact_against_bounded(A)
        assert pa == albert(A)
        assert pa == predicate(A, "power_associative").value
        if commutative:
            assert pc


def candidate_oracle(A):
    """The witness candidates as elements: basis elements, then b_i + b_j
    and b_i - b_j for i < j, then seeded random elements."""
    n = A.dim
    for i in range(n):
        yield A.basis_element(i)
    for i in range(n):
        for j in range(i + 1, n):
            yield A.basis_element(i) + A.basis_element(j)
            yield A.basis_element(i) - A.basis_element(j)
    rng = random.Random(12345)
    for _ in range(400):
        yield A.element([Fraction(rng.randint(-3, 3)) for _ in range(n)])


def witness_oracle(A, poly):
    """The candidate loop: the first of 80 candidates (one variable) or
    tuple of them (more, in ``itertools.product`` order) at which
    ``fraction_eval_free_poly`` is nonzero, or None."""
    vars_ = sorted(poly.variables())
    cands = itertools.islice(candidate_oracle(A), 0, 80)
    combos = ((c,) for c in cands) if len(vars_) == 1 else \
        itertools.product(list(cands), repeat=len(vars_))
    for combo in combos:
        assignment = dict(zip(vars_, combo))
        if not fraction_eval_free_poly(A, poly, assignment).is_zero():
            return assignment
    return None


def commutation_witness_oracle(A, w1, w2):
    poly = FreePoly.term(w1) * FreePoly.term(w2) - \
        FreePoly.term(w2) * FreePoly.term(w1)
    wit = witness_oracle(A, poly)
    return None if wit is None else {**wit, "words": f"[{w1}, {w2}]"}


def reduced_scan_oracle(A, bound):
    """The bounded power-commutativity scan with each degree's words
    reduced modulo rational linear dependence of their generic values: a
    word is kept iff its flattened (key, coordinate, part) vector is
    independent of the kept ones, by exact Fraction elimination."""
    n, t = A.dim, A.tensor()
    ctx = engine.SymContext(t, _symbolic_groups(A, (X,), 2 * bound))
    reps = []
    for deg in range(1, bound + 1):
        group = [(w, ctx.eval_term(w)) for w in enumerate_trees(deg)]
        group = [(w, sv) for w, sv in group if not engine.sym_is_zero(sv)]
        flat = [{(key, c, h): v
                 for h, rows in enumerate(sv.parts)
                 for key, row in zip(sv.keys.tolist(), rows.tolist())
                 for c, v in enumerate(row) if v}
                for _, sv in group]
        positions = sorted(set().union(*flat))
        ech = Echelon()
        reps += [ws for ws, row in zip(group, flat)
                 if ech.add([Fraction(row.get(pos, 0)) for pos in positions])]
    mode = f"bounded({bound})"
    for (w1, s1), (w2, s2) in itertools.combinations(reps, 2):
        comm = engine.sym_combine([(1, engine.sym_product(s1, s2, t)),
                                   (-1, engine.sym_product(s2, s1, t))], n)
        if not engine.sym_is_zero(comm):
            return PredicateResult("power_commutative", False, mode,
                                   commutation_witness_oracle(A, w1, w2))
    return PredicateResult("power_commutative", True, mode)


def count_sym_products(monkeypatch):
    calls = []
    product = engine.sym_product

    def counting(u, v, t):
        calls.append(None)
        return product(u, v, t)

    monkeypatch.setattr(engine, "sym_product", counting)
    return calls


def assert_scan_matches_oracle(A, bound):
    got = predicate(A, "power_commutative", bound=bound).to_dict()
    assert got == reduced_scan_oracle(A, bound).to_dict(), (A.name, bound)


class TestPowerCommutativeScan:
    """The scan skips a word only when its generic value is zero or equals
    an earlier kept one; the rational reduction is the oracle."""

    @given(dim=st.integers(1, 5), seed=st.integers(0, 10 ** 6),
           field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
           density=st.sampled_from((0.05, 0.2, 0.6)),
           commutative=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_on_random_algebras(self, dim, seed, field,
                                               density, commutative):
        A = sparse_random(dim, seed, field, density)
        if commutative:
            A = symmetrized(A)
        for bound in range(1, 5):
            assert_scan_matches_oracle(A, bound)

    @pytest.mark.parametrize("bound", [4, 5])
    def test_matches_oracle_on_catalog_and_files(self, bound, ut3,
                                                 files_algebras):
        algebras = [catalog_algebra(name) for name in CATALOG_NAMES]
        algebras += [diagonal(8), ut3] + list(files_algebras.values())
        for A in algebras:
            assert_scan_matches_oracle(A, bound)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_matches_oracle_on_files_of_other_seeds(self, seed,
                                                    files_by_seed):
        for A in files_by_seed[seed].values():
            for bound in range(1, 5):
                assert_scan_matches_oracle(A, bound)

    @pytest.mark.parametrize("name,bound,closes,scans", [
        ("C", 4, 0, []), ("*H", 4, 0, [2]), ("O", 4, 1, [2]),
        ("P", 4, 1, [2]), ("P", 5, 1, [2]), ("P", 3, 0, [3])])
    def test_settled_before_the_scan(self, monkeypatch, name, bound, closes,
                                     scans):
        """C is commutative, so neither the closure nor a scan runs; *H
        has [x, x^2] != 0, so the bound-2 scan fails and answers with no
        closure; the words of A(x) commute in O and P, so after the bound-2
        scan the closure answers.  Below bound 4 only the scan runs.  The
        answer is the full scan's either way."""
        A = catalog_algebra(name)
        B = fresh(A)
        closed, scanned = [], []
        original_closure = identities.generic_closure
        original_scan = identities._power_commutative_scan

        def closure(A):
            closed.append(A)
            return original_closure(A)

        def scan(A, bound):
            scanned.append(bound)
            return original_scan(A, bound)

        monkeypatch.setattr(identities, "generic_closure", closure)
        monkeypatch.setattr(identities, "_power_commutative_scan", scan)
        got = predicate(B, "power_commutative", bound=bound).to_dict()
        assert len(closed) == closes
        assert scanned == scans
        assert got == reduced_scan_oracle(A, bound).to_dict()

    def test_keeps_a_word_the_rational_reduction_drops(self, monkeypatch):
        """Found by a seeded search over 300 symmetrized random algebras:
        of the words of degree 5 the rational reduction keeps 2, equality
        keeps 3.  Both scans check every pair (the algebra is
        commutative): 22 word products, then 2 per pair of 8 kept words
        against 7."""
        A = symmetrized(sparse_random(2, 131, FIELD_Q, 0.2))
        calls = count_sym_products(monkeypatch)
        oracle = reduced_scan_oracle(A, 5)
        assert len(calls) == 22 + 2 * 21
        del calls[:]
        got = _power_commutative_scan(A, 5)
        assert len(calls) == 22 + 2 * 28
        assert got.value and got.to_dict() == oracle.to_dict()

    def test_equal_words_are_skipped(self, monkeypatch):
        """In H every word of one degree has one value: 5 words are kept
        out of 23 (22 word products, then 2 per pair of kept words).  With
        no word skipped the scan would make 22 + 2 * 253 = 528 products."""
        calls = count_sym_products(monkeypatch)
        res = _power_commutative_scan(catalog_algebra("H"), 5)
        assert res.value and len(calls) == 22 + 2 * 10

    def test_first_failing_pair_above_bound(self):
        """bounded(D) True is not a proof: in *H no word pair fails below
        degree 2, where [x, x^2] does."""
        one = predicate(SH, "power_commutative", bound=1)
        assert one.value and one.mode == "bounded(1)"
        two = predicate(SH, "power_commutative", bound=2)
        assert not two.value and two.mode == "bounded(2)"
        assert two.witness["words"] == "[x, ('x', 'x')]"


class TestProp1:
    def test_membership(self):
        res = verify_prop1()
        assert res["member"]
        assert res["coefficients"] == [Fraction(-1, 2), Fraction(-1, 2),
                                       Fraction(1, 2)]
        assert res["word_space_dim"] == 5


class TestProp2:
    EXPECTED = {
        (1, 1, 2): Fraction(2), (1, 2, 1): Fraction(2),
        (2, 1, 1): Fraction(2), (1, 2, 2): Fraction(4),
        (2, 1, 2): Fraction(4), (2, 2, 1): Fraction(4),
        (2, 2, 2): Fraction(8),
    }

    def test_constants(self):
        for (p, q, r), c in self.EXPECTED.items():
            res = verify_prop2(p, q, r)
            assert res["constant"] == c
            assert res["m"] == p + q + r - 3

    def test_all_nonzero(self):
        for (p, q, r) in ALL_TRIPLES:
            if (p, q, r) == (1, 1, 1):
                continue
            assert verify_prop2(p, q, r)["constant"] != 0

    def test_excluded_triple(self):
        with pytest.raises(ValueError):
            verify_prop2(1, 1, 1)


class TestLazyWitness:
    @pytest.mark.parametrize("name", ["*C", "*H", "*O", "**C", "**H", "**O",
                                      "P"])
    def test_no_random_candidates_for_basis_witness(self, monkeypatch, name):
        """A one-variable witness that is a basis element is found before
        the seeded random candidates are drawn: with ``random.Random``
        raising, the power-associativity witness is unchanged."""
        A = catalog_algebra(name)
        expect = predicate(fresh(A), "power_associative").to_dict()
        assert not expect["value"] and "witness" in expect

        def refuse(*args, **kwargs):
            raise AssertionError("random candidates drawn")

        monkeypatch.setattr(algebra.random, "Random", refuse)
        assert predicate(fresh(A), "power_associative").to_dict() == expect


def check_polys():
    """The 16 identities of the benchmark's ``check`` workload: each
    (x^p, x^q, x^r) and its first linearization component."""
    out = []
    for p, q, r in ALL_TRIPLES:
        out += [pqr_associator(p, q, r), polarize(p, q, r).f(1)]
    return out


def assert_witness_matches_oracle(A, poly):
    got = identity_holds(A, poly, "symbolic")
    assert got.witness == (None if got.holds else witness_oracle(A, poly)), \
        (A.name, poly)
    return got.holds


class TestWitnessFromValue:
    """The symbolic backend's witness is the first candidate at which the
    identity is nonzero, whether the probe or the full search finds it;
    the candidate loop with ``eval_free_poly`` is the oracle."""

    def test_catalog(self, ut3):
        algebras = [catalog_algebra(name) for name in CATALOG_NAMES]
        verdicts = set()
        for A in algebras + [diagonal(8), ut3]:
            for poly in check_polys():
                verdicts.add(assert_witness_matches_oracle(A, poly))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_files(self, seed, files_by_seed):
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                               / "perfbench"))
        import workloads
        for A in files_by_seed[seed].values():
            for _, _, poly in workloads._files_identities(A):
                assert_witness_matches_oracle(A, poly)

    @given(dim=st.integers(1, 5), seed=st.integers(0, 10 ** 6),
           field=st.sampled_from((FIELD_Q, FIELD_QSQRT3)),
           density=st.sampled_from((0.05, 0.2, 0.6)),
           which=st.lists(st.integers(0, 15), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle_on_random_algebras(self, dim, seed, field,
                                               density, which):
        A = sparse_random(dim, seed, field, density)
        polys = check_polys()
        for i in which:
            assert_witness_matches_oracle(A, polys[i])

    def test_only_a_random_candidate_is_a_witness(self):
        """With b0 b1 = b3 and b3 b2 = b4, (x, x, x) = x0 x1 x2 b4 vanishes
        on every basis element, sum and difference: the witness is the
        27th candidate, the second seeded random one, the first with
        x0 x1 x2 != 0."""
        n = 5
        consts = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        consts[0][1][3] = consts[3][2][4] = Fraction(1)
        A = StructureAlgebra("R5", n, FIELD_Q, consts)
        poly = pqr_associator(1, 1, 1)
        res = identity_holds(A, poly)
        assert res.witness == {"x": A.element(
            [Fraction(c) for c in (3, -1, 3, -1, -2)])}
        assert res.witness == witness_oracle(A, poly)
        assert list(itertools.islice(candidate_oracle(A), 80)).index(
            res.witness["x"]) == 26

    def test_one_evaluation_per_failing_search(self, monkeypatch):
        """eval_free_poly runs once, to confirm the witness found, and a
        witness it finds zero raises AssertionError."""
        calls = []
        evaluate = algebra.eval_free_poly

        def counting(*args):
            calls.append(None)
            return evaluate(*args)

        monkeypatch.setattr(algebra, "eval_free_poly", counting)
        x, y = FreePoly.var(X), FreePoly.var("y")
        # SH and P are shared across tests, and each search below must run,
        # not be answered by a verdict kept on them
        for A, poly in ((SH, pqr_associator(1, 1, 1)),
                        (P, associator(y, x, x))):
            del calls[:]
            monkeypatch.setattr(A, "_verdicts", {})
            assert not identity_holds(A, poly).holds
            assert len(calls) == 1
        monkeypatch.setattr(algebra, "eval_free_poly",
                            lambda A, poly, assignment: A.zero())
        monkeypatch.setattr(SH, "_verdicts", {})
        with pytest.raises(AssertionError, match="does not refute"):
            identity_holds(SH, pqr_associator(1, 1, 1))


def files_polys(A):
    """The identities of the benchmark's ``files`` workload on A."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                           / "perfbench"))
    import workloads
    return [poly for _, _, poly in workloads._files_identities(A)]


class TestProbe:
    """Before it builds a generic value, the symbolic backend evaluates the
    identity exactly at the first few witness candidates (pairs, for two
    variables): a nonzero value there is the witness, and only when all of
    them are zero is the generic value built."""

    def test_generic_route_gives_equal_results(self, monkeypatch, ut3,
                                               files_by_seed):
        """With no candidate probed, every failing identity is decided by
        its generic value and then searched in full, and every result
        equals the probed one."""
        cases = [(A, poly) for A in [*map(catalog_algebra, CATALOG_NAMES),
                                     diagonal(8), ut3]
                 for poly in check_polys()]
        # S16 is the same at every seed
        cases += [(A, poly) for seed, algebras in files_by_seed.items()
                  for name, A in algebras.items()
                  if seed == 1 or name != "S16" for poly in files_polys(A)]
        probed = [identity_holds(fresh(A), poly) for A, poly in cases]
        searches = []
        find = algebra._find_witness

        def counting(A, poly, vars_, nx=80, ny=80):
            # the probe runs through the same search, at nx = 1
            if nx == 80:
                searches.append(None)
            return find(A, poly, vars_, nx, ny)

        monkeypatch.setattr(algebra, "_PROBE_POINTS", 0)
        monkeypatch.setattr(algebra, "_find_witness", counting)
        generic = [identity_holds(fresh(A), poly) for A, poly in cases]
        assert generic == probed
        assert len(searches) == sum(not r.holds for r in probed) > 0

    def test_refuted_identity_builds_no_generic_value(self, monkeypatch):
        """*H fails (x, x, x) at its second basis element, which the probe
        finds with sym_product disabled; (x^2, x, x) holds on *H, so only
        the generic value decides it."""
        def disabled(*args):
            raise AssertionError("a generic value was built")

        monkeypatch.setattr(engine, "sym_product", disabled)
        A = fresh(SH)
        res = identity_holds(A, pqr_associator(1, 1, 1))
        assert res == HoldsResult(False, "symbolic",
                                  {"x": A.basis_element(1)})
        with pytest.raises(AssertionError, match="generic value"):
            identity_holds(A, pqr_associator(2, 1, 1))


class TestInstances:
    def test_quaternions_all_consistent(self):
        checks = verify_instances(H, trials=50)
        assert all(c.consistent for c in checks)
        thm2 = next(c for c in checks
                    if c.statement.startswith("thm2"))
        assert thm2.hypothesis_satisfied and thm2.conclusion_holds

    def test_star_H_thm2_vacuous(self):
        checks = verify_instances(SH, trials=50)
        thm2 = next(c for c in checks if c.statement.startswith("thm2"))
        assert not thm2.hypothesis_satisfied
        assert thm2.consistent

    def test_okubo_thm3_vacuous(self):
        checks = verify_instances(P, trials=50)
        thm3 = next(c for c in checks if c.statement.startswith("thm3"))
        assert not thm3.hypothesis_satisfied  # no left unit
        assert thm3.consistent

    def test_star_H_thm3_applicable(self):
        checks = verify_instances(SH, trials=50)
        thm3 = next(c for c in checks if c.statement.startswith("thm3"))
        assert thm3.hypothesis_satisfied
        assert thm3.consistent

    def test_degree8_open_question_flag(self):
        """Q[t]/(t^8 - 2) is a commutative field extension: unital, TPA,
        degree 8, invertible over Q, so the open-question flag appears.
        (Over the reals it splits, which is exactly why the flag stresses
        that the division evidence is field-relative.)"""
        from fractions import Fraction as F
        from nalab.algebra import FIELD_Q, StructureAlgebra
        n = 8
        consts = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i + j < n:
                    consts[i][j][i + j] = F(1)
                else:
                    consts[i][j][i + j - n] = F(2)
        A = StructureAlgebra("Q(2^(1/8))", n, FIELD_Q, consts)
        checks = verify_instances(A, trials=30)
        flags = [c for c in checks if c.statement.startswith("open_question")]
        assert len(flags) == 1 and flags[0].consistent
        # the quadratic conclusion fails while the sampled division evidence
        # passes: the real-division statement degrades to unresolved, never
        # to violated (the algebra splits over the reals)
        thm1 = next(c for c in checks if c.statement.startswith("thm1"))
        assert thm1.verdict == "unresolved"
        assert all(c.consistent for c in checks)

    def test_no_flag_on_catalog(self):
        for name in ("O", "P"):
            checks = verify_instances(catalog_algebra(name), trials=30)
            assert not any(c.statement.startswith("open_question")
                           for c in checks)

    @pytest.mark.parametrize("name", ["O", "H", "P", "*O"])
    def test_one_generic_closure_per_algebra(self, monkeypatch, name):
        """A report closes A(x) at the generic x at most once: ``degree``,
        the power-associativity check and the power-commutativity predicate
        share the closure kept on A.  On P, with no left unit and failing
        Albert's criterion, only power-commutativity asks for it.  A fresh
        copy is used, since the catalog algebras are cached across
        tests."""
        A = catalog_algebra(name)
        B = fresh(A)
        closes = []
        closure = algebra.generic_closure

        def counting(A):
            # a call closes A(x) only when none is kept on A yet
            closes.append(A._generic is None)
            return closure(A)

        for module in (algebra, identities):
            monkeypatch.setattr(module, "generic_closure", counting)
        hierarchy_report(B, bound=4)
        verify_instances(B, trials=20, bound=4)
        assert closes.count(True) == 1

    @pytest.mark.parametrize("name", ["P", "H"])
    def test_degree_only_with_left_unit(self, monkeypatch, name):
        """Every statement that reads the degree also needs a left unit, so
        a fresh P (none) never closes A(x), and its statements are the same
        as with the degree known."""
        A = catalog_algebra(name)
        B = fresh(A)
        calls = []
        closure = algebra.generic_closure

        def counting(A):
            calls.append(A.name)
            return closure(A)

        monkeypatch.setattr(algebra, "generic_closure", counting)
        checks = [c.to_dict() for c in verify_instances(B, 20, 0, 4)]
        assert len(calls) == (0 if name == "P" else 1)
        monkeypatch.undo()
        degree(B)
        assert checks == [c.to_dict() for c in verify_instances(B, 20, 0, 4)]

    @pytest.mark.parametrize("name,asked", [
        ("P", []), ("**O", []),
        ("H", ["power_associative", "power_commutative", "quadratic"])])
    def test_conclusions_only_under_hypotheses(self, monkeypatch, name,
                                               asked):
        """The power-associative, power-commutative and quadratic
        predicates are asked for only by statements whose hypothesis holds,
        each at most once: none on P and **O, whose statements are
        vacuous, and each once on H, where three statements need PA and
        quadratic."""
        names = []
        pred = identities.predicate

        def counting(A, name, *args, **kwargs):
            names.append(name)
            return pred(A, name, *args, **kwargs)

        monkeypatch.setattr(identities, "predicate", counting)
        verify_instances(catalog_algebra(name), 20, 0, 4)
        assert sorted(names) == asked


def count_below_memo(monkeypatch):
    """The (poly, backend) and (name, backend, bound) keys that reach the
    code below the verdicts kept on an algebra, in call order."""
    decided = []
    decide_identity = algebra._decide_identity
    decide_predicate = identities._decide_predicate

    def identity(A, poly, backend):
        decided.append((poly, backend))
        return decide_identity(A, poly, backend)

    def named(A, name, backend, bound):
        decided.append((name, backend, bound))
        return decide_predicate(A, name, backend, bound)

    monkeypatch.setattr(algebra, "_decide_identity", identity)
    monkeypatch.setattr(identities, "_decide_predicate", named)
    return decided


class TestVerdictsKept:
    """identity_holds and predicate keep each verdict on the algebra, keyed
    with its backend: a report decides each identity and each predicate
    once, and a symbolic verdict never answers a multilinear request."""

    @pytest.mark.parametrize("name, identities_decided", [
        ("P", 11), ("H", 12), ("O", 12)])
    def test_report_decides_each_once(self, monkeypatch, name,
                                      identities_decided):
        # the hierarchy report and the statement checks ask H for 18
        # identities, (x, x, x) four times, and for PA, PC and quadratic
        # twice each
        asked = []
        ask = identities.identity_holds

        def counting(A, poly, backend="symbolic"):
            asked.append((poly, backend))
            return ask(A, poly, backend)

        monkeypatch.setattr(identities, "identity_holds", counting)
        decided = count_below_memo(monkeypatch)
        B = fresh(catalog_algebra(name))
        hierarchy_report(B, bound=5)
        verify_instances(B, trials=20, bound=5)
        polys = [k for k in decided if len(k) == 2]
        names = [k for k in decided if len(k) == 3]
        assert len(set(decided)) == len(decided)
        assert set(polys) == set(asked)
        assert len(polys) == identities_decided
        assert sorted(n for n, _, _ in names) == sorted(PROPERTY_NAMES)

    def test_backends_never_share(self, monkeypatch):
        B = fresh(H)
        poly = pqr_associator(1, 1, 2)
        assert identity_holds(B, poly, "symbolic").holds
        checks = []
        check = engine.MultilinearEngine.check

        def counting(self, poly):
            checks.append(poly)
            return check(self, poly)

        monkeypatch.setattr(engine.MultilinearEngine, "check", counting)
        res = identity_holds(B, poly, "multilinear")
        assert res.holds and res.backend == "multilinear"
        assert checks == [poly]
        assert predicate(B, "TPA").mode == "symbolic-proof"
        assert predicate(B, "TPA", "multilinear").mode == \
            "multilinear-proof"
        assert len(checks) == 2
        # asked again, each backend answers from its own entry
        identity_holds(B, poly, "multilinear")
        predicate(B, "TPA", "multilinear")
        assert len(checks) == 2

    def test_a_call_that_raises_keeps_nothing(self, monkeypatch):
        B = fresh(H)
        poly = pqr_associator(2, 2, 2)

        def exhausted(self, *args):
            raise MemoryError("no memory")

        monkeypatch.setattr(engine.MultilinearEngine, "multilinearization",
                            exhausted)
        for _ in range(2):
            with pytest.raises(MemoryError):
                identity_holds(B, poly, "multilinear")
        assert B._verdicts == {}
        C = fresh(P)
        force_identities(monkeypatch)
        for _ in range(2):
            with pytest.raises(AssertionError, match="generic A\\(x\\)"):
                predicate(C, "power_associative")
        assert C._verdicts == {}
        monkeypatch.undo()
        assert identity_holds(B, poly, "multilinear").holds
        assert not predicate(C, "power_associative").value

    def test_equal_polynomials_share_an_entry(self, monkeypatch):
        decided = count_below_memo(monkeypatch)
        B = fresh(SH)
        first = pqr_associator(1, 1, 1)
        second = FreePoly(dict(first.terms))
        assert second is not first and second == first
        res = identity_holds(B, first)
        assert identity_holds(B, second) is res and not res.holds
        assert decided == [(first, "symbolic")]
        assert list(B._verdicts) == [(first, "symbolic")]


class TestHierarchy:
    def test_edge_set(self):
        assert ("power_commutative", "TPA") in HIERARCHY_EDGES
        assert ("TPA", "x_x2_x") in HIERARCHY_EDGES
        assert ("TPA", "x2_x2_x2") in HIERARCHY_EDGES
        assert len(HIERARCHY_EDGES) == 8

    def test_okubo_chain(self):
        rep, verdicts, ok = hierarchy_report(P)
        assert ok
        assert rep.value("flexible") and rep.value("power_commutative")
        assert rep.value("TPA") and rep.value("x_x2_x")
        assert rep.value("x2_x2_x2")
        flex_edge = next(v for v in verdicts
                         if (v.premise, v.conclusion) ==
                         ("flexible", "power_commutative"))
        assert flex_edge.applicable
        assert "bounded" in flex_edge.verdict

    def test_octonions(self):
        rep, verdicts, ok = hierarchy_report(O)
        assert ok
        assert rep.value("alternative")
        assert rep.value("flexible") and rep.value("power_associative")

    def test_double_star_H_no_violation(self):
        rep, verdicts, ok = hierarchy_report(DH)
        assert ok
        assert rep.value("flexible")
        assert not rep.value("power_associative")

    def test_instance_tpa_implies_x_x2_x(self):
        for name in ("R", "C", "H", "O", "**C", "**H", "P"):
            A = catalog_algebra(name)
            if predicate(A, "TPA").value:
                assert predicate(A, "x_x2_x").value, name

    def test_quadratic_implies_all_identities(self):
        for name in ("H", "O"):
            A = catalog_algebra(name)
            assert predicate(A, "quadratic").value
            for (p, q, r) in ALL_TRIPLES:
                assert check_pqr(A, p, q, r).holds

    def test_unital_single_identity_implies_tpa(self):
        # instance form of the unital substitution statement
        for name in ("R", "C", "H", "O"):
            A = catalog_algebra(name)
            if any(check_pqr(A, p, q, r).holds for (p, q, r) in ALL_TRIPLES):
                assert predicate(A, "TPA").value


@pytest.fixture(scope="module")
def sedenions():
    """The 16-dimensional Cayley-Dickson algebra, by the catalog's doubling
    convention: flexible and power-associative, with zero divisors."""
    n = 16
    basis = [[Fraction(int(t == i)) for t in range(n)] for i in range(n)]
    constants = [[_cd_mul(u, v) for v in basis] for u in basis]
    return StructureAlgebra("S16", n, FIELD_Q, constants)


class TestSedenions:
    def test_pqr_identities_hold(self, sedenions):
        for (p, q, r) in ALL_TRIPLES:
            assert check_pqr(sedenions, p, q, r).holds, (p, q, r)

    @pytest.mark.parametrize("pqr", [t for t in ALL_TRIPLES if sum(t) == 4],
                             ids=str)
    def test_backends_agree_on_degree4_components(self, sedenions, pqr):
        pol = polarize(*pqr)
        for m in range(1, 4):
            s = identity_holds(sedenions, pol.f(m), "symbolic")
            ml = identity_holds(sedenions, pol.f(m), "multilinear")
            assert s.holds and ml.holds, m

    def test_power_commutative(self, sedenions):
        res = predicate(sedenions, "power_commutative", bound=5)
        assert res.value and res.mode == "bounded(5)"

    def test_certificate_rejects_zero_divisor_sampler_misses(self, sedenions):
        x = sedenions.basis_element(1) + sedenions.basis_element(10)
        assert det(mult_operator(sedenions, x, "left")) == 0
        assert not algebra._division_certified(sedenions)
        assert division_sampled(sedenions, trials=20).all_invertible

    def test_statements_never_violated(self, sedenions):
        checks = verify_instances(sedenions, trials=20, bound=4)
        assert all(c.verdict != "violated" for c in checks)


def test_analysis_builds_no_multipoly(monkeypatch, ut3, files_algebras):
    """Every analysis path runs on packed keys and exact scalars: with
    ``MultiPoly`` refusing to be built, ``degree``, every predicate, the
    hierarchy report and the statement checks all run.  Fresh copies are
    used, so that nothing is kept on an algebra from an earlier test."""
    algebras = [catalog_algebra(name) for name in CATALOG_NAMES]
    algebras += [diagonal(8), ut3] + list(files_algebras.values())

    def refuse(*args, **kwargs):
        raise RuntimeError("a MultiPoly was built")

    monkeypatch.setattr(exactmath.MultiPoly, "__init__", refuse)
    for A in algebras:
        B = fresh(A)
        degree(B)
        for name in PROPERTY_NAMES:
            predicate(B, name, bound=4)
        hierarchy_report(B, bound=4)
        verify_instances(B, trials=20, bound=4)
