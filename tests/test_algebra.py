"""Structure-constant algebras: products, operators, units, identity checks,
subalgebras, degree and division (certificate and sampling)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nalab import algebra, engine
from nalab.algebra import (FIELD_Q, FIELD_QSQRT3, DivisionReport, Element,
                           StructureAlgebra, degree, division_sampled,
                           eval_free_poly, find_units, generic_closure,
                           identity_holds, mult_operator, multiply,
                           subalgebra_generated)
from nalab.catalog import CATALOG_NAMES, catalog_algebra, classical
from nalab.exactmath import MultiPoly, QuadExt, det, poly_rank, solve_affine
from nalab.freealg import X, FreePoly, associator, polarize, pqr_associator
from nalab.identities import PROPERTY_NAMES, check_pqr, predicate
from oracles import generic_element, inclusion_exclusion_multilin

H = classical("H").algebra
C = classical("C").algebra
SH = catalog_algebra("*H")
DH = catalog_algebra("**H")


def zero_algebra(n=2):
    consts = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    return StructureAlgebra("Z", n, FIELD_Q, consts)


def table_algebra(name, n, product):
    """Algebra over Q with b_i * b_j = sum_k product(i, j, k) b_k."""
    consts = [[[Fraction(product(i, j, k)) for k in range(n)]
               for j in range(n)] for i in range(n)]
    return StructureAlgebra(name, n, FIELD_Q, consts)


def flipped_H():
    """H with the sign of the one constant i*j = k flipped."""
    return table_algebra("H-flip", 4, lambda i, j, k: -H.constants[i][j][k]
                         if (i, j, k) == (1, 2, 3) else H.constants[i][j][k])


def g_isotope_H():
    """x o y = g(x) y in H with g = 1 + sqrt3 * conj, so that L_x^T L_x =
    |g(x)|^2 I has the form diag(4 + 2 sqrt3, 4 - 2 sqrt3, ...)."""
    consts = [[[H.constants[i][j][k] + QuadExt(0, 1) * SH.constants[i][j][k]
                for k in range(4)] for j in range(4)] for i in range(4)]
    return StructureAlgebra("g(x)y", 4, FIELD_QSQRT3, consts)


#: algebras of dimension 1, 2, 4 or 8 without a composition certificate:
#: zero (q = 0), x*y = x_0 y (left form x_0^2, singular), componentwise
#: D8 (no scalar blocks), H with one sign flipped, and the division
#: algebras f(x)y of H with f = diag(2, 1, 1, 1) or f = g above, in which
#: L_x composes and R_x does not (for g, only the sqrt 3 part of the R
#: blocks is not scalar)
UNCERTIFIED = {
    "zero": zero_algebra(),
    "x0y": table_algebra("x0y", 2, lambda i, j, k: i == 0 and j == k),
    "D8": table_algebra("D8", 8, lambda i, j, k: i == j == k),
    "H-flip": flipped_H(),
    "f(x)y": table_algebra("f(x)y", 4, lambda i, j, k:
                           (2 if i == 0 else 1) * H.constants[i][j][k]),
    "g(x)y": g_isotope_H(),
}


def composition_form_oracle(A, side):
    """Oracle: q with M_i^T M_j + M_j^T M_i = 2 q_ij I for all i, j, from
    the operators of the basis elements in exact scalars, or None."""
    n = A.dim
    M = [mult_operator(A, A.basis_element(i), side) for i in range(n)]
    q = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            block = [[sum((M[i][k][a] * M[j][k][b] + M[j][k][a] * M[i][k][b]
                           for k in range(n)), Fraction(0))
                      for b in range(n)] for a in range(n)]
            if any(block[a][b] != (block[0][0] if a == b else 0)
                   for a in range(n) for b in range(n)):
                return None
            q[i][j] = block[0][0] / 2
    return q


def degree_sampled(A, trials=20, seed=0):
    """Oracle: max dim A(x) over seeded random concrete elements."""
    rng = random.Random(seed)
    best = 0
    for _ in range(trials):
        x = A.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(A.dim)])
        if x.is_zero():
            continue
        best = max(best, subalgebra_generated(A, x).dim)
        if best == A.dim:
            break
    return best


def closure_oracle(A, x):
    """Oracle: the basis of A(x), multiplying every pair of the basis again
    in every round and admitting a product when the fraction-free rank
    grows.  At a generic x this closes over the function field with no
    specialization."""
    basis = [] if x.is_zero() else [x]
    grew = True
    while grew and len(basis) < A.dim:
        grew = False
        for u in list(basis):
            for v in list(basis):
                cand = multiply(A, u, v)
                rows = [list(b.coords) for b in basis + [cand]]
                if poly_rank(rows) == len(rows):
                    basis.append(cand)
                    grew = True
    return basis


def degree_brute_force(A):
    return len(closure_oracle(A, generic_element(A)))


def generic_basis(A):
    """The basis of A(x) at the generic x that ``generic_closure`` stands
    for: the values of its words at MultiPoly coordinates, or A's standard
    basis when A(x) = A was found at the specialization (no words)."""
    res = generic_closure(A)
    if not res.words:
        return [A.basis_element(i) for i in range(res.dim)]
    x = generic_element(A)
    return [eval_free_poly(A, FreePoly.term(w), {X: x}) for w in res.words]


def degenerate_algebra():
    """e0 e0 = 2 e0, e1 e1 = e1: at x = (1, 2), x^2 = 2x, yet x and x^2 are
    independent at a generic x."""
    return table_algebra("degen", 2, lambda i, j, k:
                         (2 if i == 0 else 1) * (i == j == k))


def degenerate_specializations():
    """(algebra, degree) pairs on which the specialization x = (1, .., n)
    loses rank.  x^2 = 2x at x = (1, 2) in ``degenerate_algebra`` but not
    generically: the exact rank decides the pair the specialization missed.
    In the second algebra x^2 = x at s = (1, 2, 3, 4), so x^3 and x^4 are
    found only among the pairs of the exactly admitted x^2.  The third has
    u v = Q(u, v) s + (u_0 v_1 - u_1 v_0) e_3 with Q(s, s) = 0: x^2 is zero
    at s and x^2 x^2 = 0, so x x^2 is the only new product."""
    table = {(0, 0, 0): 1, (1, 1, 1): Fraction(1, 2), (1, 1, 3): 1,
             (1, 2, 2): -1, (2, 2, 2): 1}
    idempotent = table_algebra("x2=x", 4,
                               lambda i, j, k: table.get((i, j, k), 0))
    s = (1, 2, 3, 4)
    rows = {(0, 0): [4 * v for v in s], (1, 1): [-v for v in s],
            (0, 1): [0, 0, 0, 1], (1, 0): [0, 0, 0, -1]}
    square_zero = table_algebra(
        "x2(s)=0", 4, lambda i, j, k: rows.get((i, j), [0] * 4)[k])
    return [(degenerate_algebra(), 2), (idempotent, 4), (square_zero, 3)]


def dense_algebra(n, seed):
    rng = random.Random(seed)
    return table_algebra(f"dense{n}", n,
                         lambda i, j, k: rng.randint(-9, 9))


def power(v, n):
    out = Fraction(1)
    for _ in range(n):
        out = v * out
    return out


fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestMultiply:
    def test_quaternion_table(self):
        e, i, j, k = (H.basis_element(t) for t in range(4))
        assert multiply(H, i, j) == k
        assert multiply(H, j, i) == -k
        assert multiply(H, i, i) == -e

    def test_zero_annihilates(self):
        v = H.element([Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
        assert multiply(H, H.zero(), v).is_zero()

    def test_star_H_square(self):
        # x * x = conj(x) x = N(x) e in the left isotope
        i = SH.basis_element(1)
        assert multiply(SH, i, i) == SH.basis_element(0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multiply(H, C.basis_element(0), H.basis_element(0))

    @given(a=fracs, u=st.tuples(fracs, fracs, fracs, fracs),
           v=st.tuples(fracs, fracs, fracs, fracs),
           w=st.tuples(fracs, fracs, fracs, fracs))
    @settings(max_examples=40, deadline=None)
    def test_bilinearity(self, a, u, v, w):
        eu, ev, ew = H.element(u), H.element(v), H.element(w)
        left = multiply(H, eu.scale(a) + ev, ew)
        right = multiply(H, eu, ew).scale(a) + multiply(H, ev, ew)
        assert left == right


class TestMultOperator:
    def test_identity_at_unit(self):
        m = mult_operator(C, C.basis_element(0), "left")
        assert m == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]

    def test_rotation_at_i(self):
        m = mult_operator(C, C.basis_element(1), "left")
        assert m == [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]

    def test_zero_algebra(self):
        Z = zero_algebra()
        m = mult_operator(Z, Z.element([Fraction(5), Fraction(7)]), "right")
        assert all(c == 0 for row in m for c in row)

    @given(x=st.tuples(fracs, fracs, fracs, fracs),
           v=st.tuples(fracs, fracs, fracs, fracs))
    @settings(max_examples=30, deadline=None)
    def test_operator_consistency(self, x, v):
        ex, ev = H.element(x), H.element(v)
        m = mult_operator(H, ex, "left")
        applied = tuple(
            sum((m[k][j] * ev.coords[j] for j in range(4)), Fraction(0))
            for k in range(4))
        assert Element(applied) == multiply(H, ex, ev)


def stacked_two_sided(A):
    """Oracle: the two-sided unit by one solve of the left and the right
    unit systems stacked, or None."""
    n = A.dim
    rows, rhs = [], []
    for j in range(n):
        for k in range(n):
            rows.append([A.constants[i][j][k] for i in range(n)])
            rows.append([A.constants[j][i][k] for i in range(n)])
            rhs += [Fraction(int(j == k))] * 2
    sol = solve_affine(rows, rhs)
    return None if sol is None else Element(tuple(sol[0]))


class TestFindUnits:
    def test_quaternion_two_sided(self):
        rep = find_units(H)
        assert rep.two_sided == H.basis_element(0)
        assert rep.left.unique and rep.right.unique

    def test_star_H_left_only(self):
        rep = find_units(SH)
        assert rep.has_left and not rep.has_right
        assert rep.two_sided is None
        assert list(rep.left.particular) == [Fraction(1), Fraction(0),
                                             Fraction(0), Fraction(0)]

    def test_double_star_H_none(self):
        rep = find_units(DH)
        assert not rep.has_left and not rep.has_right

    def test_zero_algebra_none(self):
        rep = find_units(zero_algebra())
        assert rep.left is None and rep.right is None

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.sampled_from(
        ["left", "right", "both", "none"]), st.data())
    def test_two_sided_matches_stacked_solve(self, n, sqrt3, forced, data):
        """Random algebras over Q and Q(sqrt 3) with a unit forced at a
        basis element on the left, the right, both sides or neither: the
        two-sided unit equals the one solve of both systems stacked."""
        unit = QuadExt(data.draw(st.integers(0, 1)),
                       data.draw(st.integers(1, 2))) if sqrt3 else 1
        small = st.sampled_from([0, 0, 0, 1, -1, 2])
        consts = [[[unit * data.draw(small) for _ in range(n)]
                   for _ in range(n)] for _ in range(n)]
        u = data.draw(st.integers(0, n - 1))
        for j in range(n):
            for k in range(n):
                if forced in ("left", "both"):
                    consts[u][j][k] = Fraction(int(j == k))
                if forced in ("right", "both"):
                    consts[j][u][k] = Fraction(int(j == k))
        A = StructureAlgebra("rnd", n, FIELD_QSQRT3 if sqrt3 else FIELD_Q,
                             consts)
        assert find_units(A).two_sided == stacked_two_sided(A)
        if forced == "both":
            assert find_units(A).two_sided == A.basis_element(u)


class TestEvalFreePoly:
    def test_star_H_associator(self):
        i = SH.basis_element(1)
        val = eval_free_poly(SH, pqr_associator(1, 1, 1), {"x": i})
        assert val == i.scale(2)

    def test_quaternion_associator_zero(self):
        x = H.element([Fraction(1), Fraction(-2), Fraction(3), Fraction(5)])
        assert eval_free_poly(H, pqr_associator(1, 1, 1), {"x": x}).is_zero()

    def test_star_H_square_first(self):
        i = SH.basis_element(1)
        val = eval_free_poly(SH, pqr_associator(2, 1, 1), {"x": i})
        assert val.is_zero()

    def test_unit_leaf(self):
        got = eval_free_poly(H, FreePoly.unit() * FreePoly.var("x"),
                             {"x": H.basis_element(2)})
        assert got == H.basis_element(2)
        with pytest.raises(ValueError):
            eval_free_poly(SH, FreePoly.unit(), {})


class TestIdentityHolds:
    def test_quaternions_associative(self):
        assert identity_holds(H, pqr_associator(1, 1, 1)).holds

    def test_star_H_fails_with_witness(self):
        res = identity_holds(SH, pqr_associator(1, 1, 1))
        assert not res.holds
        assert res.witness["x"] == SH.basis_element(1)
        # the witness really violates the identity
        val = eval_free_poly(SH, pqr_associator(1, 1, 1), res.witness)
        assert not val.is_zero()

    def test_star_H_squares_hold(self):
        for backend in ("symbolic", "multilinear"):
            assert identity_holds(SH, pqr_associator(2, 2, 2), backend).holds

    def test_multilinear_witness(self):
        res = identity_holds(SH, pqr_associator(1, 1, 1), "multilinear")
        assert not res.holds
        assert "x_tuple" in res.witness

    def test_backend_agreement_two_var(self):
        x, y = FreePoly.var("x"), FreePoly.var("y")
        flex = associator(x, y, x)
        for A in (H, SH, DH):
            s = identity_holds(A, flex, "symbolic").holds
            m = identity_holds(A, flex, "multilinear").holds
            assert s == m

    def test_zero_poly(self):
        assert identity_holds(H, FreePoly.zero()).holds

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            identity_holds(H, pqr_associator(1, 1, 1), "numeric")
        with pytest.raises(ValueError):
            identity_holds(H, FreePoly.zero(), "numeric")
        with pytest.raises(ValueError):
            check_pqr(H, 1, 1, 1, "numeric")
        for name in PROPERTY_NAMES:
            with pytest.raises(ValueError, match="unknown backend"):
                predicate(H, name, backend="numeric")


class TestSubalgebra:
    def test_unit_generates_line(self):
        R = classical("R").algebra
        res = subalgebra_generated(R, R.basis_element(0))
        assert res.dim == 1

    def test_quaternion_generic(self):
        assert generic_closure(H).dim == 2

    def test_zero_algebra(self):
        Z = zero_algebra()
        res = subalgebra_generated(Z, Z.element([Fraction(1), Fraction(1)]))
        assert res.dim == 1

    def test_zero_element(self):
        assert subalgebra_generated(H, H.zero()).dim == 0

    def test_concrete_quaternion(self):
        x = H.element([Fraction(1), Fraction(2), Fraction(0), Fraction(1)])
        res = subalgebra_generated(H, x)
        assert res.dim == 2

    @pytest.mark.parametrize("A", [H, SH, DH], ids=["H", "*H", "**H"])
    def test_closure_property_generic(self, A):
        """The words' values at the generic x are independent, and their
        products lie in their span."""
        basis = generic_basis(A)
        rows = [list(b.coords) for b in basis]
        base_rank = poly_rank(rows)
        assert base_rank == generic_closure(A).dim
        for u in basis:
            for v in basis:
                prod = multiply(A, u, v)
                assert poly_rank(rows + [list(prod.coords)]) == base_rank

    def test_concrete_basis_matches_oracle(self):
        """The basis itself, element by element and in order."""
        rng = random.Random(4)
        algebras = [catalog_algebra(name) for name in CATALOG_NAMES]
        algebras += [UNCERTIFIED["D8"], dense_algebra(5, 1),
                     degenerate_algebra()]
        for A in algebras:
            for _ in range(3):
                x = A.element([Fraction(rng.randint(-2, 2))
                               if rng.random() < 0.6 else Fraction(0)
                               for _ in range(A.dim)])
                assert list(subalgebra_generated(A, x).basis) == \
                    closure_oracle(A, x)

    def test_closure_property_concrete(self):
        x = SH.element([Fraction(1), Fraction(1), Fraction(-2), Fraction(3)])
        res = subalgebra_generated(SH, x)
        from nalab.exactmath import span_membership
        gens = [list(b.coords) for b in res.basis]
        for u in res.basis:
            for v in res.basis:
                inside, _ = span_membership(
                    list(multiply(SH, u, v).coords), gens)
                assert inside


class TestDegree:
    def test_classical_degrees(self):
        assert degree(classical("R").algebra) == 1
        assert degree(C) == 2
        assert degree(H) == 2

    def test_star_H(self):
        assert degree(SH) == 2

    def test_degree_bounded_by_dim(self):
        for A in (H, SH, DH):
            assert degree(A) <= A.dim

    def test_sampled_cross_check(self):
        assert degree_sampled(H, trials=10, seed=1) == degree(H)

    def test_full_degree_algebra(self):
        """An associative algebra generated by one element has full degree."""
        # K[t]/(t^3): basis 1, t, t^2
        n = 3
        consts = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i + j < n:
                    consts[i][j][i + j] = Fraction(1)
        A = StructureAlgebra("K[t]/t^3", n, FIELD_Q, consts)
        assert degree(A) == 3

    def test_degenerate_specialization(self):
        for A, d in degenerate_specializations():
            assert degree(A) == d
            assert degree_brute_force(A) == d

    def test_full_degree_standard_basis(self):
        """When the words at the specialization span A, A(x) = A is
        returned with no words: A's standard basis stands for it."""
        for A in (UNCERTIFIED["D8"], dense_algebra(6, 1)):
            assert degree(A) == A.dim
            res = generic_closure(A)
            assert (res.dim, res.words) == (A.dim, ()), A.name

    def test_words_reproduce_basis(self, ut3):
        """At a generic x, the words evaluated at x span the closure
        oracle's A(x).  The degenerate specializations include words the
        queue admits."""
        algebras = [catalog_algebra(name)
                    for name in ("H", "O", "P", "*O", "**O")]
        algebras += [ut3] + [A for A, _ in degenerate_specializations()]
        for A in algebras:
            res = generic_closure(A)
            assert len(res.words) == res.dim > 0, A.name
            rows = [list(b.coords) for b in generic_basis(A)]
            oracle = [list(b.coords)
                      for b in closure_oracle(A, generic_element(A))]
            assert poly_rank(rows) == len(oracle) == res.dim, A.name
            assert poly_rank(rows + oracle) == res.dim, A.name
        assert generic_closure(ut3).words == (X, (X, X), (X, (X, X)))

    def test_words_empty(self, files_algebras):
        """No words when A(x) = A is found at the specialization."""
        for A in (UNCERTIFIED["D8"], files_algebras["sparse9"],
                  files_algebras["sparse10"]):
            res = generic_closure(A)
            assert res.dim == A.dim and res.words == (), A.name

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.booleans(), st.booleans(), st.data())
    def test_matches_brute_force(self, n, sqrt3, diagonal, data):
        """Random algebras of dimension 1-3 over Q and Q(sqrt 3).  With
        c[i][i][i] = m_i/(i+1), (x^2)_i = m_i x_i at x = (1, 2, 3) on the
        diagonal algebras, so the specialization often loses rank there."""
        unit = QuadExt(data.draw(st.integers(0, 1)),
                       data.draw(st.integers(1, 2))) if sqrt3 else 1
        small = st.sampled_from([0, 0, 0, 1, -1, 2])

        def entry(i, j, k):
            if i == j == k:
                return unit * Fraction(data.draw(st.integers(0, 2)), i + 1)
            return unit * (0 if diagonal else data.draw(small))

        consts = [[[entry(i, j, k) for k in range(n)] for j in range(n)]
                  for i in range(n)]
        A = StructureAlgebra("rnd", n, FIELD_QSQRT3 if sqrt3 else FIELD_Q,
                             consts)
        d = degree(A)
        assert d == degree_brute_force(A)
        assert degree_sampled(A, trials=6) <= d

    def test_degree_dominates_samples_on_random_algebras(self):
        import random as _random
        for seed in (2, 5, 8):
            rng = _random.Random(seed)
            n = 4
            consts = [[[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                       for _ in range(n)] for _ in range(n)]
            A = StructureAlgebra(f"rnd{seed}", n, FIELD_Q, consts)
            d = degree(A)
            assert degree_sampled(A, trials=8, seed=seed) <= d <= n


def poly_rank_closure(A):
    """Oracle: the closure of ``generic_closure`` run on
    MultiPoly products with one fraction-free rank per queued pair.  Returns
    (basis, words), basis the values of words at the generic x."""
    x = generic_element(A)
    point = [Fraction(1 + i) for i in range(A.dim)]
    special, pairs = algebra._pair_closure(
        A, A.element([c.evaluate(point) for c in x.coords]))
    if len(special) == A.dim:
        return [A.basis_element(i) for i in range(A.dim)], []
    basis, words = [x], [X]
    for i, j in pairs:
        basis.append(multiply(A, basis[i], basis[j]))
        words.append((words[i], words[j]))
    queue = [(i, j) for i in range(len(basis)) for j in range(len(basis))
             if (i, j) not in pairs]
    for i, j in queue:
        if len(basis) == A.dim:
            break
        cand = multiply(A, basis[i], basis[j])
        if poly_rank([b.coords for b in basis + [cand]]) > len(basis):
            k = len(basis)
            basis.append(cand)
            words.append((words[i], words[j]))
            queue.extend([(m, k) for m in range(k + 1)]
                         + [(k, m) for m in range(k)])
    return basis, words


def quadratic_oracle(A):
    """Oracle: unital, and the (e, x, x^2) rows of a generic x have
    fraction-free rank below 3."""
    e = find_units(A).two_sided
    if e is None:
        return False
    x = generic_element(A)
    rows = [[MultiPoly.const(A.dim, c) for c in e.coords], list(x.coords),
            list(multiply(A, x, x).coords)]
    return poly_rank(rows) < 3


def assert_matches_poly_rank(A):
    basis, words = poly_rank_closure(A)
    res = generic_closure(A)
    assert (res.dim, list(res.words)) == (len(basis), words), A.name
    assert generic_basis(A) == basis, A.name
    assert predicate(A, "quadratic").value == quadratic_oracle(A), A.name


class TestFunctionFieldSpan:
    """The generic closure and the quadratic test, decided by the
    bordered-minor span test (``engine.SymSpan``), against the
    fraction-free ``poly_rank`` on MultiPoly products."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.sampled_from(
        ["random", "diagonal", "unital", "quadratic"]), st.data())
    def test_matches_poly_rank(self, n, sqrt3, shape, data):
        """Random algebras of dimension 1-4 over Q and Q(sqrt 3).  The
        diagonal ones often lose rank at the specialization, so the queue
        admits words it missed; the unital ones (b_0 the unit) reach the
        quadratic test, and in the "quadratic" ones b_i b_j = q_ij b_0 +
        (antisymmetric in i, j) for i, j >= 1, so that x^2 is in
        span{e, x}."""
        unit = QuadExt(data.draw(st.integers(0, 1)),
                       data.draw(st.integers(1, 2))) if sqrt3 else 1
        small = st.sampled_from([0, 0, 0, 1, -1, 2])
        anti = {(i, j, k): data.draw(small) for i in range(n)
                for j in range(i + 1, n) for k in range(1, n)}
        sym = {(i, j): data.draw(small) for i in range(n)
               for j in range(i, n)}

        def entry(i, j, k):
            if shape in ("unital", "quadratic") and 0 in (i, j):
                return int(k == i + j)
            if shape == "quadratic":
                if k == 0:
                    return unit * sym[min(i, j), max(i, j)]
                return unit * (anti.get((i, j, k), 0)
                               - anti.get((j, i, k), 0))
            if shape == "diagonal":
                return unit * Fraction(data.draw(st.integers(0, 2)), i + 1) \
                    if i == j == k else 0
            return unit * data.draw(small)

        consts = [[[entry(i, j, k) for k in range(n)] for j in range(n)]
                  for i in range(n)]
        A = StructureAlgebra("rnd", n, FIELD_QSQRT3 if sqrt3 else FIELD_Q,
                             consts)
        if shape == "quadratic":
            assert quadratic_oracle(A)
        assert_matches_poly_rank(A)

    def test_degenerate_specializations(self):
        for A, _ in degenerate_specializations():
            assert_matches_poly_rank(A)

    def test_catalog(self, ut3):
        for name in CATALOG_NAMES:
            assert_matches_poly_rank(catalog_algebra(name))
        assert_matches_poly_rank(ut3)

    def test_object_keys(self):
        """dim 9 packs 9 variables at 9 bits, past 64 bits: object keys.
        b_0 b_0 = 2 b_0 and b_1 b_1 = b_1 lose x x^2 = 2 x^2 at the
        specialization, and the queue admits it."""
        A = table_algebra("degen9", 9, lambda i, j, k:
                          (2 if i == 0 else 1) * (i == j == k < 2))
        assert algebra._symbolic_groups(A, (X,), (1 << 9) - 1)[X] \
            .keys.dtype == object
        assert_matches_poly_rank(A)
        assert degree(A) == 3


class TestLargeDimFallback:
    def test_two_variable_identity_beyond_packed_keys(self):
        """dim 9 with two variables: 18 variables, packed at the
        identity's exponent width (2 bits for the associator, 1 for the
        commutator), so the keys still fit in uint64 (36 and 18 bits);
        ``test_two_variable_identity_on_object_keys`` goes past 64 bits."""
        n = 9
        consts = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            consts[i][i][i] = Fraction(1)  # diagonal, commutative-associative
        A = StructureAlgebra("diag9", n, FIELD_Q, consts)
        from nalab.freealg import associator as fassoc
        x, y = FreePoly.var("x"), FreePoly.var("y")
        assert identity_holds(A, fassoc(x, y, x)).holds
        comm = x * y - y * x
        assert identity_holds(A, comm).holds

    def test_two_variable_identity_on_object_keys(self):
        """dim 11 with two variables: (2,2,1)'s f_1 has bidegree (4, 1), so
        its 22 variables take 3 bits each, 66 bits in all, and the keys
        are Python ints.  On a seeded sparse algebra both backends refute
        it, and each witness is confirmed by direct evaluation."""
        n = 11
        rng = random.Random(11)
        consts = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in rng.sample(range(n), 2):
                    consts[i][j][k] = Fraction(rng.choice((-2, -1, 1, 2)))
        A = StructureAlgebra("sparse11", n, FIELD_Q, consts)
        poly = polarize(2, 2, 1).f(1)
        assert poly.bidegrees() == {(4, 1)}
        assert algebra._symbolic_groups(A, ("x", "y"), 4)["x"] \
            .keys.dtype == object
        sym = identity_holds(A, poly, "symbolic")
        ml = identity_holds(A, poly, "multilinear")
        assert not sym.holds and not ml.holds
        assert not eval_free_poly(A, poly, sym.witness).is_zero()
        assert not inclusion_exclusion_multilin(
            A, poly, list(ml.witness["x_tuple"]),
            list(ml.witness["y_tuple"])).is_zero()


class TestNonUniqueUnits:
    def test_left_unit_affine_set(self):
        # b_0 acts as left identity, b_1 annihilates: left units form the
        # affine line (1, t)
        n = 2
        consts = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        consts[0][0][0] = Fraction(1)
        consts[0][1][1] = Fraction(1)
        A = StructureAlgebra("leftline", n, FIELD_Q, consts)
        rep = find_units(A)
        assert rep.has_left and not rep.left.unique
        assert len(rep.left.homogeneous) == 1
        # any point on the line really is a left unit
        part = rep.left.particular
        hom = rep.left.homogeneous[0]
        e = A.element([p + 5 * h for p, h in zip(part, hom)])
        for j in range(n):
            assert multiply(A, e, A.basis_element(j)) == A.basis_element(j)
        assert not rep.has_right


class TestDivision:
    def test_quaternions(self):
        rep = division_sampled(H, trials=100, seed=0)
        assert rep.all_invertible and rep.failing_witness is None

    def test_zero_algebra(self):
        rep = division_sampled(zero_algebra(), trials=1, seed=0)
        assert not rep.all_invertible
        assert rep.failing_witness is not None

    def test_deterministic(self):
        r1 = division_sampled(H, trials=10, seed=5)
        r2 = division_sampled(H, trials=10, seed=5)
        assert r1 == r2

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            division_sampled(H, trials=0)


class TestDivisionCertificate:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog_certified_and_sampler_agrees(self, name):
        # 50 seed-0 trials are a prefix of the streams criteria 5, 7 and 8
        # draw
        A = catalog_algebra(name)
        assert algebra._division_certified(A)
        assert algebra._sample_division(A, 50, 0) == \
            DivisionReport(True, 50, 0)

    @given(name=st.sampled_from(CATALOG_NAMES), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_det_squared_is_form_power(self, name, data):
        """det(M_x)^2 = q(x)^n exactly, for M = L and M = R."""
        A = catalog_algebra(name)
        x = data.draw(st.lists(fracs, min_size=A.dim, max_size=A.dim)
                      .filter(any))
        for side in ("left", "right"):
            q = algebra._composition_form(A, side)
            qx = sum((q[i][j] * x[i] * x[j] for i in range(A.dim)
                      for j in range(A.dim)), Fraction(0))
            d = det(mult_operator(A, A.element(x), side))
            assert d * d == power(qx, A.dim), side

    @given(data=st.data(), n=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_positive_definite_matches_leading_minors(self, data, n):
        """Oracle: Sylvester's criterion with one det per leading block."""
        entries = st.sampled_from([Fraction(v) for v in (-1, 0, 1, 2)])
        q = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                q[i][j] = q[j][i] = data.draw(entries)
        expect = all(det([row[:k] for row in q[:k]]) > 0
                     for k in range(1, n + 1))
        assert algebra._positive_definite(q) == expect

    @pytest.mark.parametrize("name", UNCERTIFIED)
    def test_rejects_and_falls_back_to_sampler(self, name):
        A = UNCERTIFIED[name]
        assert not algebra._division_certified(A)
        for trials, seed in ((1, 0), (50, 0), (50, 3)):
            assert division_sampled(A, trials, seed) == \
                algebra._sample_division(A, trials, seed)

    @pytest.mark.parametrize("name, k, tier", [
        ("H", 24, "f"), ("H", 25, "o"), ("P", 22, "f"), ("P", 23, "o"),
        ("g(x)y", 24, "o")])
    def test_composition_form_on_both_tiers(self, name, k, tier, monkeypatch):
        """Constants scaled by 2^k put the products of the blocks just
        under or past 2^52, over Q and over Q(sqrt 3); q matches the
        blocks built from ``mult_operator`` in Fractions."""
        base = UNCERTIFIED.get(name) or catalog_algebra(name)
        A = StructureAlgebra(name, base.dim, base.field, [
            [[c * 2 ** k for c in row] for row in plane]
            for plane in base.constants])
        kinds = []
        cast = engine._cast

        def recording(parts, kind):
            kinds.append(kind)
            return cast(parts, kind)

        monkeypatch.setattr(engine, "_cast", recording)
        for side in ("left", "right"):
            assert algebra._composition_form(A, side) == \
                composition_form_oracle(A, side), side
        assert kinds == [tier, tier]

    @pytest.mark.parametrize("name", ["f(x)y", "g(x)y"])
    def test_one_sided_composition_is_not_a_proof(self, name):
        A = UNCERTIFIED[name]
        q = algebra._composition_form(A, "left")
        assert q is not None and algebra._positive_definite(q)
        assert algebra._composition_form(A, "right") is None
        assert division_sampled(A, 50, 0).all_invertible
