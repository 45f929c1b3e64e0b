"""Finite-dimensional algebras given by structure constants.

An algebra is a dim x dim x dim array of exact scalars c[i][j][k] (the
coefficient of basis vector k in b_i * b_j) over Q or Q(sqrt 3).  Elements are
coordinate vectors over the scalar field; a generic element is a packed-key
``engine.SymVec``.  The module provides multiplication, the left/right
multiplication operators, exact unit detection, evaluation of free
polynomials, identity checking (symbolic and multilinear backends), the
subalgebra A(x) of a concrete x by one pair closure, the generic closure
(run at one rational specialization and then certified over the function
field), the degree max dim A(x), and division checks: an exact composition
certificate where one exists, seeded sampling otherwise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

import numpy as np

from . import engine
from .exactmath import (SQRT_RADICAND, Echelon, QuadExt, scalar_is_zero,
                        scalar_sign, solve_affine, det)
from .freealg import FreePoly, FreeTerm, UNIT, X, term_bidegree

FIELD_Q = "Q"
FIELD_QSQRT3 = "Q(sqrt 3)"

BACKENDS = ("symbolic", "multilinear")


def check_backend(backend: str) -> None:
    """Raise ValueError unless backend names an identity-checking backend."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")


class StructureAlgebra:
    """Immutable finite-dimensional algebra over Q or Q(sqrt 3)."""

    def __init__(self, name: str, dim: int, field: str, constants,
                 basis_names: Optional[Sequence[str]] = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if field not in (FIELD_Q, FIELD_QSQRT3):
            raise ValueError(f"unknown field tag {field!r}")
        self.name = name
        self.dim = dim
        self.field = field
        # the constants, and for each (i, j) the sparse product: the
        # nonzero (k, c) pairs
        rows, sparse = [], []
        for i in range(dim):
            row, sparse_row = [], []
            for j in range(dim):
                cell = []
                for k in range(dim):
                    c = constants[i][j][k]
                    if isinstance(c, QuadExt):
                        if field != FIELD_QSQRT3:
                            raise ValueError(
                                "quadratic scalar in a rational algebra")
                    elif not isinstance(c, Fraction):
                        c = Fraction(c)
                    cell.append(c)
                row.append(tuple(cell))
                sparse_row.append(tuple((k, c) for k, c in enumerate(cell)
                                        if c))
            rows.append(tuple(row))
            sparse.append(tuple(sparse_row))
        self.constants = tuple(rows)
        self._sparse = tuple(sparse)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i}" for i in range(dim))
        if len(self.basis_names) != dim:
            raise ValueError("basis name count mismatch")
        self._tensor: Optional[engine.ScaledTensor] = None
        self._ml: Optional[engine.MultilinearEngine] = None
        self._units: Optional[UnitReport] = None
        self._generic: Optional[GenericClosure] = None

    # -- helpers ----------------------------------------------------------

    def zero(self) -> "Element":
        return Element(tuple(Fraction(0) for _ in range(self.dim)))

    def basis_element(self, i: int) -> "Element":
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return Element(tuple(coords))

    def element(self, coords) -> "Element":
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        return Element(coords)

    def tensor(self) -> engine.ScaledTensor:
        if self._tensor is None:
            self._tensor = engine.ScaledTensor(self.dim, self._sparse)
        return self._tensor

    def ml_engine(self) -> engine.MultilinearEngine:
        if self._ml is None:
            self._ml = engine.MultilinearEngine(self.tensor())
        return self._ml

    def __repr__(self):
        return f"StructureAlgebra({self.name!r}, dim={self.dim}, field={self.field!r})"


@dataclass(frozen=True)
class Element:
    """Coordinate vector of exact scalars."""

    coords: tuple

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "Element") -> "Element":
        return Element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        return Element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(tuple(-a for a in self.coords))

    def scale(self, c) -> "Element":
        return Element(tuple(c * a for a in self.coords))


@dataclass(frozen=True)
class AffineSet:
    """Affine solution set: particular + span(homogeneous)."""

    particular: tuple
    homogeneous: tuple

    @property
    def unique(self) -> bool:
        return not self.homogeneous


@dataclass(frozen=True)
class UnitReport:
    left: Optional[AffineSet]
    right: Optional[AffineSet]
    two_sided: Optional[Element]

    @property
    def has_left(self) -> bool:
        return self.left is not None

    @property
    def has_right(self) -> bool:
        return self.right is not None

    @property
    def has_unit(self) -> bool:
        return self.two_sided is not None


@dataclass(frozen=True)
class HoldsResult:
    holds: bool
    backend: str
    witness: Optional[dict] = None


@dataclass(frozen=True)
class DivisionReport:
    all_invertible: bool
    trials: int
    seed: int
    failing_witness: Optional[Element] = None


@dataclass(frozen=True)
class SubalgebraResult:
    basis: tuple
    dim: int


@dataclass(frozen=True)
class GenericClosure:
    dim: int
    words: tuple  # FreeTerms in x; see generic_closure


def multiply(A: StructureAlgebra, u: Element, v: Element) -> Element:
    """Bilinear product (u*v)_k = sum u_i v_j c[i][j][k], exact."""
    if len(u.coords) != A.dim or len(v.coords) != A.dim:
        raise ValueError("dimension mismatch")
    out = [Fraction(0)] * A.dim
    sparse = A._sparse
    for i, ui in enumerate(u.coords):
        if not ui:
            continue
        row = sparse[i]
        for j, vj in enumerate(v.coords):
            if not vj:
                continue
            p = ui * vj
            for k, c in row[j]:
                out[k] = out[k] + p * c
    return Element(tuple(out))


def mult_operator(A: StructureAlgebra, x: Element, side: str):
    """Matrix of L_x (columns x*b_j) or R_x (columns b_j*x)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    cols = []
    for j in range(A.dim):
        bj = A.basis_element(j)
        prod = multiply(A, x, bj) if side == "left" else multiply(A, bj, x)
        cols.append(prod.coords)
    return [[cols[j][k] for j in range(A.dim)] for k in range(A.dim)]


def find_units(A: StructureAlgebra) -> UnitReport:
    """Exact left/right/two-sided unit solution sets.

    A left unit e and a right unit f are equal, e = ef = f, so when both
    exist each set is that one point and it is the two-sided unit.
    """
    if A._units is not None:
        return A._units
    n = A.dim

    def system(left: bool):
        rows, rhs = [], []
        for j in range(n):
            for k in range(n):
                if left:
                    rows.append([A.constants[i][j][k] for i in range(n)])
                else:
                    rows.append([A.constants[j][i][k] for i in range(n)])
                rhs.append(Fraction(1) if j == k else Fraction(0))
        return rows, rhs

    lsol = solve_affine(*system(True))
    rsol = solve_affine(*system(False))

    def verify(e_coords, left: bool):
        e = Element(tuple(e_coords))
        for j in range(n):
            bj = A.basis_element(j)
            p = multiply(A, e, bj) if left else multiply(A, bj, e)
            if p != bj:
                raise AssertionError("unit re-verification failed")

    left = None
    if lsol is not None:
        verify(lsol[0], True)
        left = AffineSet(tuple(lsol[0]), tuple(tuple(v) for v in lsol[1]))
    right = None
    if rsol is not None:
        verify(rsol[0], False)
        right = AffineSet(tuple(rsol[0]), tuple(tuple(v) for v in rsol[1]))
    two = None
    if left is not None and right is not None:
        if left.particular != right.particular:
            raise AssertionError("left and right units differ")
        two = Element(left.particular)
    report = UnitReport(left, right, two)
    A._units = report
    return report


def eval_free_poly(A: StructureAlgebra, poly: FreePoly,
                   assignment: Dict[str, Element]) -> Element:
    """Homomorphic evaluation of a free polynomial at algebra elements."""
    missing = poly.variables() - set(assignment)
    if missing:
        raise ValueError(f"assignment misses variables {sorted(missing)}")
    unit_elt = None
    if poly.contains_unit():
        units = find_units(A)
        if units.two_sided is None:
            raise ValueError("unit leaf requires a two-sided unit")
        unit_elt = units.two_sided
    cache: Dict[FreeTerm, Element] = {}

    def walk(t: FreeTerm) -> Element:
        if isinstance(t, str):
            if t == UNIT:
                return unit_elt
            return assignment[t]
        got = cache.get(t)
        if got is None:
            got = multiply(A, walk(t[0]), walk(t[1]))
            cache[t] = got
        return got

    out = A.zero()
    for t, c in poly.terms.items():
        out = out + walk(t).scale(c)
    return out


# ---------------------------------------------------------------------------
# Identity checking
# ---------------------------------------------------------------------------


#: random elements after the basis sums and differences; callers take at
#: most 120 candidates in all, so the stream never runs out
_WITNESS_RANDOM = 400


def _witness_points(n: int):
    """The witness candidates as integer coordinate points: the basis
    vectors, then e_i + e_j and e_i - e_j for i < j, then seeded random
    points with coordinates in -3..3."""
    for i in range(n):
        yield tuple(int(k == i) for k in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            yield tuple(int(k == i) + int(k == j) for k in range(n))
            yield tuple(int(k == i) - int(k == j) for k in range(n))
    rng = random.Random(12345)
    for _ in range(_WITNESS_RANDOM):
        yield tuple(rng.randint(-3, 3) for _ in range(n))


def _find_witness(A: StructureAlgebra, poly: FreePoly, value: engine.SymVec):
    """The first candidate assignment at which poly evaluates nonzero.

    value is poly at generic elements, one variable group per variable in
    sorted order, as ``identity_holds`` builds it: a nonzero multiple of
    poly, so at an integer point it is zero exactly when poly is.  The
    candidates are the first 80 of ``_witness_points``.  One variable walks
    them lazily, so the random ones are drawn only when no basis element,
    sum or difference is a witness.  Two variables (x and y) take pairs in
    ``itertools.product`` order: for each x candidate, all y candidates are
    tested at once, from y's monomials evaluated once at every candidate.
    Only the keys of value whose monomial is nonzero at the x candidate
    enter the test (``engine.sym_nonzero_at``).  One ``eval_free_poly``
    confirms the witness found.
    """
    vars_ = sorted(poly.variables())
    exps = engine.sym_exponents(value, A.dim)
    points = itertools.islice(_witness_points(A.dim), 0, 80)
    combo = None
    if len(exps) == 1:
        # one point at a time: its monomial values weigh the keys
        ones = np.ones((1, len(value.keys)), dtype=np.int64)
        combo = next(((p,) for p in points if engine.sym_nonzero_at(
            value, ones, engine.monomial_values(exps[0], [p])[0])[0]), None)
    else:
        ex, ey = exps
        cands = list(points)
        # y's monomials, once per run of equal exponent rows: y's exponents
        # are the top bits of the sorted keys, so equal rows are adjacent
        start = np.r_[True, np.any(ey[1:] != ey[:-1], axis=1)]
        M = engine.monomial_values(ey[start], cands)[:, np.cumsum(start) - 1]
        for p in cands:
            hits = engine.sym_nonzero_at(
                value, M, engine.monomial_values(ex, [p])[0])
            if hits.any():
                combo = (p, cands[int(np.argmax(hits))])
                break
    if combo is None:
        return None
    assignment = {v: A.element([Fraction(c) for c in p])
                  for v, p in zip(vars_, combo)}
    if eval_free_poly(A, poly, assignment).is_zero():
        raise AssertionError("the witness does not refute the identity")
    return assignment


def _symbolic_groups(A: StructureAlgebra, vars_: Sequence[str],
                     max_degree: int = 1) -> Dict[str, engine.SymVec]:
    """Generic elements, one variable group each, whose packed keys hold
    exponents up to ``max_degree``."""
    n = A.dim
    nvars = n * len(vars_)
    bits = max_degree.bit_length()
    return {v: engine.SymVec.generic(n, nvars, bits, gi * n)
            for gi, v in enumerate(vars_)}


def identity_holds(A: StructureAlgebra, poly: FreePoly,
                   backend: str = "symbolic") -> HoldsResult:
    """Does the identity poly = 0 hold for all elements of A?

    poly must be homogeneous in each of its variables (true for all the
    linearization components and one-variable power identities used here).
    The symbolic backend evaluates at generic elements with polynomial
    coordinates; the multilinear backend fully polarizes to multilinearity
    (valid in characteristic zero) and evaluates on all basis tuples.  Both
    report a concrete witness when the identity fails.
    """
    check_backend(backend)
    if poly.is_zero():
        return HoldsResult(True, backend)
    if poly.contains_unit():
        raise ValueError("identity polynomials must be unit-free")
    vars_ = sorted(poly.variables())
    if backend == "symbolic":
        max_degree = max(max(term_bidegree(t)) for t in poly.terms)
        groups = _symbolic_groups(A, vars_, max_degree)
        value = engine.SymContext(A.tensor(), groups).eval_poly(poly)
        if engine.sym_is_zero(value):
            return HoldsResult(True, backend)
        return HoldsResult(False, backend, _find_witness(A, poly, value))
    ok, idx = A.ml_engine().check(poly)
    if ok:
        return HoldsResult(True, backend)
    xs, ys = idx
    witness = {"x_tuple": tuple(A.basis_element(i) for i in xs)}
    if ys:
        witness["y_tuple"] = tuple(A.basis_element(j) for j in ys)
    return HoldsResult(False, backend, witness)


# ---------------------------------------------------------------------------
# Subalgebra generation, degree
# ---------------------------------------------------------------------------


def _pair_closure(A: StructureAlgebra, x: Element):
    """Close span{x} under products of basis elements, by ``Echelon``.

    Each ordered pair (i, j) of basis indices is tested once.  Round by
    round, the pairs of the basis as it stood at the start of the round are
    taken row by row, skipping those an earlier round took; the closure
    stops when a round adds nothing or the basis reaches dim A.  Returns the
    basis and, for each element after x, the pair (i, j) whose product it is.
    """
    basis, pairs = [x], []
    span = Echelon()
    span.add(x.coords)
    seen = 0
    while seen < len(basis) < A.dim:
        k = len(basis)
        for i in range(k):
            for j in range(0 if i >= seen else seen, k):
                v = multiply(A, basis[i], basis[j])
                if span.add(v.coords):
                    basis.append(v)
                    pairs.append((i, j))
                    if len(basis) == A.dim:
                        return basis, pairs
        seen = k
    return basis, pairs


def subalgebra_generated(A: StructureAlgebra, x: Element) -> SubalgebraResult:
    """Basis and dimension of the subalgebra A(x) generated by a concrete x,
    closed exactly by ``_pair_closure``."""
    if x.is_zero():
        return SubalgebraResult((), 0)
    basis, _ = _pair_closure(A, x)
    return SubalgebraResult(tuple(basis), len(basis))


def generic_closure(A: StructureAlgebra) -> GenericClosure:
    """A(x) at the generic x: its dimension and the words that span it.

    A(x) is closed first at the specialization x_i = i + 1, which can only
    drop rank.  If the words found there span A, then A(x) = A, and the
    result has no words: no polynomial work is done.  Otherwise the same
    words are evaluated at x, on packed keys in one ``engine.SymContext``,
    and every other pair is queued.  ``engine.SymSpan`` decides over the
    function field K(x) whether a product is in the span of the kept words:
    the d x d minor of the kept rows on their columns R is a nonzero
    polynomial, so the product c is in the span exactly when every
    (d+1)-minor bordering it by c and one more column vanishes, and these
    minors are the coordinates of sum_r (-1)^r M_r v_r over the rows v_r of
    the words and c, M_r the minor on R of the rows other than r (see
    ``engine.SymSpan``).  An independent product joins the words, R gains a
    column where that sum is nonzero, and its own pairs are queued.  The
    words of the specialization are independent at x because their values at
    the point are, so the test must keep each of them.  ``words`` holds the
    ``FreeTerm`` in "x" behind each element of a basis of A(x).  The result
    is kept on A.
    """
    if A._generic is not None:
        return A._generic
    n = A.dim
    special, pairs = _pair_closure(A, A.element(
        [Fraction(1 + i) for i in range(n)]))
    if len(special) == n:
        A._generic = GenericClosure(n, ())
        return A._generic
    # the k-th kept word has degree at most 2^k, and a test multiplies at
    # most n rows, so no exponent reaches 2^n
    ctx = engine.SymContext(A.tensor(), _symbolic_groups(A, (X,),
                                                         (1 << n) - 1))
    span = engine.SymSpan()
    words = [X]
    for i, j in pairs:
        words.append((words[i], words[j]))
    for w in words:
        if not span.add(ctx.eval_term(w)):
            raise AssertionError("a word independent at the specialization "
                                 "is dependent at the generic element")
    queue = [(i, j) for i in range(len(words)) for j in range(len(words))
             if (i, j) not in pairs]
    # the loop also takes the pairs appended to the queue while it runs
    for i, j in queue:
        if len(words) == n:
            break
        w = (words[i], words[j])
        if span.add(ctx.eval_term(w)):
            k = len(words)
            words.append(w)
            queue.extend([(m, k) for m in range(k + 1)]
                         + [(k, m) for m in range(k)])
    A._generic = GenericClosure(len(words), tuple(words))
    return A._generic


def degree(A: StructureAlgebra) -> int:
    """max over x of dim A(x): the dimension at a fully generic element.

    Exact over the function field; see ``generic_closure``.  The closure
    is kept on A, so ``degree`` and the power-associativity check close A(x)
    once between them.
    """
    return generic_closure(A).dim


#: Hurwitz: a positive-definite q with M_x^T M_x = q(x)*I for all x exists
#: only in these dimensions
_COMPOSITION_DIMS = (1, 2, 4, 8)


def _composition_form(A: StructureAlgebra, side: str):
    """The Gram matrix of q with M_x^T M_x = q(x)*I for every x, or None.

    M_x is L_x (side "left") or R_x.  M_x^T M_x = sum_ij x_i x_j M_i^T M_j
    with M_i = M_{b_i}, so it is q(x)*I for all x exactly when every block
    M_i^T M_j + M_j^T M_i equals 2*q_ij*I.  Each entry of a block sums 2n
    products of two constants (times 1 + 3 with a sqrt 3 part), which
    bounds every partial sum and picks the tier of the products.
    """
    t = A.tensor()
    n = t.n
    fold = 1 + SQRT_RADICAND if len(t.parts) > 1 else 1
    kind = engine._tier(2 * n * t.max_abs ** 2 * fold)
    # (L_{b_i})_{kj} = c[i][j][k] and (R_{b_i})_{kj} = c[j][i][k]; the rows
    # of M are (i, a) with M[(i, a), k] = (M_{b_i})_{ka}
    M = [(c if side == "left" else c.transpose(1, 0, 2)).reshape(n * n, n)
         for c in engine._cast(t.parts, kind)]
    # G[i, j, a, b] = (M_i^T M_j)_{ab} = sum_k M[(i, a), k] M[(j, b), k]
    G = [g.reshape(n, n, n, n).transpose(0, 2, 1, 3)
         for g in engine._field_product(M, [m.T for m in M])]
    S = [g + g.transpose(1, 0, 2, 3) for g in G]
    eye = np.eye(t.n, dtype=int)
    if any(not np.array_equal(s, s[:, :, :1, :1] * eye) for s in S):
        return None
    denom = 2 * t.scale ** 2

    def entry(i, j):
        a = Fraction(int(S[0][i, j, 0, 0]), denom)
        return a if len(S) == 1 else \
            QuadExt(a, Fraction(int(S[1][i, j, 0, 0]), denom))

    return [[entry(i, j) for j in range(t.n)] for i in range(t.n)]


def _positive_definite(q) -> bool:
    """Sylvester's criterion: every leading principal minor of q is > 0.

    While row k of q keeps lead column k, the rows kept by Echelon stay in
    the order added and its minor is the k-th leading principal minor.
    """
    ech = Echelon()
    return all(ech.add(row) and ech.leads[k] == k and
               scalar_sign(ech.minor) > 0 for k, row in enumerate(q))


def _division_certified(A: StructureAlgebra) -> bool:
    """Exact proof that L_x and R_x are invertible for every nonzero real x.

    When M_x^T M_x = q(x)*I with q positive definite, det(M_x)^2 = q(x)^n
    > 0 for x != 0 (the composition law of Hurwitz algebras, which also
    covers isotopes f(x)g(y) with f and g orthogonal).  False means no proof
    was found, not that A has zero divisors.
    """
    if A.dim not in _COMPOSITION_DIMS:
        return False
    for side in ("left", "right"):
        q = _composition_form(A, side)
        if q is None or not _positive_definite(q):
            return False
    return True


def _sample_division(A: StructureAlgebra, trials: int,
                     seed: int) -> DivisionReport:
    """det L_x != 0 and det R_x != 0 on seeded random nonzero elements."""
    rng = random.Random(seed)
    for _ in range(trials):
        coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(A.dim)]
        if not any(coords):
            coords[rng.randrange(A.dim)] = Fraction(1)
        x = A.element(coords)
        for side in ("left", "right"):
            m = mult_operator(A, x, side)
            if scalar_is_zero(det(m)):
                return DivisionReport(False, trials, seed, x)
    return DivisionReport(True, trials, seed)


def division_sampled(A: StructureAlgebra, trials: int = 1000,
                     seed: int = 0) -> DivisionReport:
    """Is det L_x != 0 and det R_x != 0 on seeded random nonzero elements?

    In dimensions 1, 2, 4 and 8 an exact composition certificate is tried
    first: L_x^T L_x = q(x)*I and R_x^T R_x = q'(x)*I with q and q' positive
    definite prove both operators invertible at every nonzero real x, so
    every trial would pass and the report is returned without sampling.
    Otherwise the trials run.  They are a falsifier, not a certificate:
    passing all of them is evidence, not proof, that A has no zero
    divisors.  The report is the same on either path.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if _division_certified(A):
        return DivisionReport(True, trials, seed)
    return _sample_division(A, trials, seed)
