"""Finite-dimensional algebras given by structure constants.

An algebra is given by its structure constants c[i][j][k] (the coefficient
of basis vector k in b_i * b_j) over Q or Q(sqrt 3), stored only as an
integer table: one common denominator and the integer parts of the nonzero
constants (``StructureAlgebra.integer_table``).  Elements are
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

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import engine
from .exactmath import (SQRT_RADICAND, Echelon, QuadExt, clear_denominators,
                        det, from_parts, scalar_is_zero, scalar_sign,
                        solve_affine)
from .freealg import FreePoly, FreeTerm, UNIT, X, term_bidegree

FIELD_Q = "Q"
FIELD_QSQRT3 = "Q(sqrt 3)"

BACKENDS = ("symbolic", "multilinear")


def check_backend(backend: str) -> None:
    """Raise ValueError unless backend names an identity-checking backend."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")


def _integer_table(dim: int, entries) -> Tuple:
    """(scale, width, table) of the nonzero constants given as entries
    (i, j, k, p, q, r, s), c[i][j][k] = p/q + (r/s)*sqrt 3 with each pair
    reduced and q, s > 0: see ``StructureAlgebra.integer_table``.  Each
    cell lists its constants in ascending k, whatever the entries' order."""
    scale = math.lcm(*[e[4] for e in entries], *[e[6] for e in entries])
    table = [[[] for _ in range(dim)] for _ in range(dim)]
    width = 1
    for i, j, k, p, q, r, s in entries:
        table[i][j].append((k, p * (scale // q), r * (scale // s)))
        if r:
            width = 2
    for row in table:
        for cell in row:
            cell.sort()
    return scale, width, tuple(tuple(map(tuple, row)) for row in table)


class StructureAlgebra:
    """Immutable finite-dimensional algebra over Q or Q(sqrt 3), stored as
    its integer table; ``constants`` is a view derived from the table on
    first read and then kept."""

    def __init__(self, name: str, dim: int, field: str, constants,
                 basis_names: Optional[Sequence[str]] = None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if field not in (FIELD_Q, FIELD_QSQRT3):
            raise ValueError(f"unknown field tag {field!r}")
        entries = []
        for i in range(dim):
            plane = constants[i]
            for j in range(dim):
                cell = plane[j]
                for k in range(dim):
                    c = cell[k]
                    if isinstance(c, QuadExt):
                        if field != FIELD_QSQRT3:
                            raise ValueError(
                                "quadratic scalar in a rational algebra")
                        a, b = c.a, c.b
                    else:
                        if not isinstance(c, (Fraction, int)):
                            c = Fraction(c)
                        a, b = c, 0
                    if a or b:
                        entries.append((i, j, k, a.numerator, a.denominator,
                                        b.numerator, b.denominator))
        self._store(name, dim, field, entries, basis_names)

    @classmethod
    def from_entries(cls, name: str, dim: int, field: str, entries,
                     basis_names: Optional[Sequence[str]] = None
                     ) -> "StructureAlgebra":
        """The algebra of the nonzero constants in entries, as
        ``_integer_table`` takes them.  Nothing is checked: the caller
        gives distinct in-range indices, reduced pairs and a valid field."""
        A = cls.__new__(cls)
        A._store(name, dim, field, entries, basis_names)
        return A

    def _store(self, name, dim, field, entries, basis_names) -> None:
        self.name = name
        self.dim = dim
        self.field = field
        self._table: Tuple = _integer_table(dim, entries)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i}" for i in range(dim))
        if len(self.basis_names) != dim:
            raise ValueError("basis name count mismatch")
        self._constants: Optional[tuple] = None
        self._tensor: Optional[engine.ScaledTensor] = None
        self._ml: Optional[engine.MultilinearEngine] = None
        self._units: Optional[UnitReport] = None
        self._generic: Optional[GenericClosure] = None
        self._verdicts: dict = {}

    @property
    def constants(self) -> tuple:
        """c[i][j][k] as nested tuples of exact scalars, derived from the
        integer table on first read and then kept: Fractions, or QuadExts
        when the table has a sqrt 3 part.  It is a function of the table
        alone, so two threads reading it first only derive it twice."""
        if self._constants is None:
            scale, width, table = self._table
            n = self.dim
            planes = []
            for row in table:
                cells = []
                for cell in row:
                    parts = [[0] * n for _ in range(width)]
                    for k, a, b in cell:
                        parts[0][k] = a
                        if width == 2:
                            parts[1][k] = b
                    cells.append(from_parts(parts, scale))
                planes.append(tuple(cells))
            self._constants = tuple(planes)
        return self._constants

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

    def integer_table(self) -> Tuple:
        """(scale, width, table), the algebra's stored form: every constant
        is c[i][j][k] = (a + b*sqrt 3) / scale, scale the least common
        denominator of their rational and sqrt 3 parts, and table[i][j]
        lists the (k, a, b) of the nonzero constants of b_i b_j in
        ascending k.  width is 2 when some b is nonzero, 1 otherwise."""
        return self._table

    def tensor(self) -> engine.ScaledTensor:
        if self._tensor is None:
            scale, _, table = self.integer_table()
            self._tensor = engine.ScaledTensor(self.dim, scale, table)
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


def product_parts(A: StructureAlgebra, u: Sequence[List[int]],
                  v: Sequence[List[int]]) -> tuple:
    """The integer parts of scale * (u v), for u and v given by integer
    parts (see ``exactmath.clear_denominators``), by A's integer table: a
    loop over plain Python ints, with a sqrt 3 part when u, v or the table
    has one, multiplied by (a, b)(a', b') = (aa' + 3bb', ab' + ba')."""
    _, width, table = A.integer_table()
    n = A.dim
    if width == len(u) == len(v) == 1:
        out = [0] * n
        for i, x in enumerate(u[0]):
            if x:
                row = table[i]
                for j, y in enumerate(v[0]):
                    if y:
                        p = x * y
                        for k, c, _ in row[j]:
                            out[k] += p * c
        return (out,)
    zero = [0] * n
    ua, ub = u if len(u) == 2 else (u[0], zero)
    va, vb = v if len(v) == 2 else (v[0], zero)
    oa, ob = [0] * n, [0] * n
    for i in range(n):
        xa, xb = ua[i], ub[i]
        if xa or xb:
            row = table[i]
            for j in range(n):
                ya, yb = va[j], vb[j]
                if ya or yb:
                    pa = xa * ya + SQRT_RADICAND * xb * yb
                    pb = xa * yb + xb * ya
                    pb3 = SQRT_RADICAND * pb
                    for k, a, b in row[j]:
                        oa[k] += pa * a + pb3 * b
                        ob[k] += pa * b + pb * a
    return oa, ob


def multiply(A: StructureAlgebra, u: Element, v: Element) -> Element:
    """Bilinear product (u*v)_k = sum u_i v_j c[i][j][k], exact: the integer
    product ``product_parts`` of the cleared coordinates, with one Fraction
    (or QuadExt) formed per output coordinate."""
    if len(u.coords) != A.dim or len(v.coords) != A.dim:
        raise ValueError("dimension mismatch")
    pu, du = clear_denominators(u.coords)
    pv, dv = clear_denominators(v.coords)
    return Element(from_parts(product_parts(A, pu, pv),
                              du * dv * A.integer_table()[0]))


def mult_operator(A: StructureAlgebra, x: Element, side: str):
    """Matrix of L_x (columns x*b_j) or R_x (columns b_j*x), in one pass
    over the integer table: entry (k, j) is sum_i x_i c[i][j][k] (left) or
    sum_i x_i c[j][i][k] (right), summed on the integer parts of x and
    formed by one ``from_parts`` over the one denominator."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    n = A.dim
    if len(x.coords) != n:
        raise ValueError("dimension mismatch")
    scale, width, table = A.integer_table()
    parts, d = clear_denominators(x.coords)
    xa, xb = parts if len(parts) == 2 else (parts[0], [0] * n)
    left = side == "left"
    oa, ob = [0] * (n * n), [0] * (n * n)
    for i in range(n):
        ya, yb = xa[i], xb[i]
        if ya or yb:
            yb3 = SQRT_RADICAND * yb
            for j in range(n):
                for k, a, b in table[i][j] if left else table[j][i]:
                    oa[k * n + j] += ya * a + yb3 * b
                    ob[k * n + j] += ya * b + yb * a
    flat = from_parts((oa, ob) if width == 2 or len(parts) == 2 else (oa,),
                      d * scale)
    return [list(flat[k * n:(k + 1) * n]) for k in range(n)]


def find_units(A: StructureAlgebra) -> UnitReport:
    """Exact left/right/two-sided unit solution sets.

    A left unit e and a right unit f are equal, e = ef = f, so when both
    exist each set is that one point and it is the two-sided unit.
    """
    if A._units is not None:
        return A._units
    n = A.dim
    scale, width, table = A.integer_table()

    def system(left: bool):
        # row (j, k): coordinate k of e b_j = b_j (left) or b_j e = b_j,
        # sum_i e_i c[i][j][k] = [j == k] or sum_i e_i c[j][i][k] = [j == k],
        # times scale: integer rows over Q, QuadExt entries over Q(sqrt 3)
        rows = [[0] * n for _ in range(n * n)]
        for i in range(n):
            for j in range(n):
                for k, a, b in table[i][j]:
                    row, col = (j, i) if left else (i, j)
                    rows[row * n + k][col] = a if width == 1 else QuadExt(a, b)
        return rows, [scale * (j == k) for j in range(n) for k in range(n)]

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
    """Homomorphic evaluation of a free polynomial at algebra elements.

    Every product is ``product_parts`` on integer parts, each term's value
    kept over its own denominator; the sum is formed over their least
    common multiple, with one Fraction (or QuadExt) per coordinate at the
    end."""
    missing = poly.variables() - set(assignment)
    if missing:
        raise ValueError(f"assignment misses variables {sorted(missing)}")
    unit_elt = None
    if poly.contains_unit():
        units = find_units(A)
        if units.two_sided is None:
            raise ValueError("unit leaf requires a two-sided unit")
        unit_elt = units.two_sided
    scale = A.integer_table()[0]
    leaves = {v: clear_denominators(e.coords) for v, e in assignment.items()}
    if unit_elt is not None:
        leaves[UNIT] = clear_denominators(unit_elt.coords)
    # a term's value as (integer parts, denominator)
    cache: Dict[FreeTerm, Tuple] = {}

    def walk(t: FreeTerm) -> Tuple:
        if isinstance(t, str):
            return leaves[t]
        got = cache.get(t)
        if got is None:
            (pu, du), (pv, dv) = walk(t[0]), walk(t[1])
            got = cache[t] = (product_parts(A, pu, pv), du * dv * scale)
        return got

    values = [(walk(t), c) for t, c in poly.terms.items()]
    # one denominator for the sum, and the integer parts over it
    d = math.lcm(*(den * c.denominator for (_, den), c in values))
    width = max([1] + [len(parts) for (parts, _), _ in values])
    out = [[0] * A.dim for _ in range(width)]
    for (parts, den), c in values:
        f = c.numerator * (d // (den * c.denominator))
        for acc, part in zip(out, parts):
            for k, a in enumerate(part):
                if a:
                    acc[k] += f * a
    return Element(from_parts(out, d))


# ---------------------------------------------------------------------------
# Identity checking
# ---------------------------------------------------------------------------


def _witness_points(n: int):
    """The witness candidates as integer coordinate points: the basis
    vectors, then e_i + e_j and e_i - e_j for i < j, then seeded random
    points with coordinates in -3..3, without end."""
    for i in range(n):
        yield tuple(int(k == i) for k in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            yield tuple(int(k == i) + int(k == j) for k in range(n))
            yield tuple(int(k == i) - int(k == j) for k in range(n))
    rng = random.Random(12345)
    while True:
        yield tuple(rng.randint(-3, 3) for _ in range(n))


def _confirmed(A: StructureAlgebra, poly: FreePoly, vars_: Sequence[str],
               combo) -> dict:
    """The assignment of the points combo to vars_, after one
    ``eval_free_poly`` has confirmed that it refutes poly; every witness
    ``_find_witness`` reports passes through it."""
    assignment = {v: A.element([Fraction(c) for c in p])
                  for v, p in zip(vars_, combo)}
    if eval_free_poly(A, poly, assignment).is_zero():
        raise AssertionError("the witness does not refute the identity")
    return assignment


#: the candidates (one variable), or the pairs of the first candidate with
#: them (two variables), at which ``_decide_identity`` probes an identity
#: before its generic value is built; never more than the n^2 basis
#: elements, sums and differences
_PROBE_POINTS = 8


@functools.lru_cache(maxsize=None)
def _probe_points(n: int, k: int) -> Tuple[tuple, np.ndarray]:
    """The first k points of ``_witness_points(n)``, as tuples and as the
    rows of one float64 array, read-only since every caller shares it: the
    y candidates of each chunk of ``_find_witness``."""
    cands = tuple(itertools.islice(_witness_points(n), k))
    rows = np.array(cands, dtype=np.float64)
    rows.flags.writeable = False
    return cands, rows


def _find_witness(A: StructureAlgebra, poly: FreePoly, vars_: Sequence[str],
                  nx: int = 80, ny: int = 80) -> Optional[dict]:
    """The first assignment of witness candidates at which poly is nonzero,
    or None when there is none.

    vars_ is poly's sorted variables, one or two.  The last takes the
    first ny points of ``_witness_points``, and x, when there are two, the
    first nx, in ``itertools.product`` order.  poly is evaluated exactly at
    a chunk of points at once (``engine.poly_nonzero_at``).  One variable
    takes the n^2 basis elements, sums and differences as its first chunk
    and the seeded random points as its second, so those are drawn only
    when no structured candidate is a witness; two take one chunk per x
    candidate, with all ny y candidates.  The first nonzero point is
    confirmed (``_confirmed``).

    ``_decide_identity`` calls it twice: as the probe, at sizes 1 and
    min(``_PROBE_POINTS``, n^2), before any generic value is built, and
    at the full sizes once the generic value has proved poly nonzero.
    """
    n = A.dim
    if len(vars_) == 1:
        head = min(n * n, ny)
        chunks = [((), 0, head), ((), head, ny)]
    else:
        chunks = (((x,), 0, ny)
                  for x in itertools.islice(_witness_points(n), nx))
    for prefix, lo, hi in chunks:
        if lo == hi:
            continue
        cands, rows = _probe_points(n, hi)
        points = {vars_[-1]: rows[lo:hi]}
        if prefix:
            points[vars_[0]] = np.repeat(
                np.array(prefix, dtype=np.float64), hi - lo, axis=0)
        hits = engine.poly_nonzero_at(poly, A.tensor(), points)
        if hits.any():
            y = cands[lo + int(np.argmax(hits))]
            return _confirmed(A, poly, vars_, (*prefix, y))
    return None


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

    The verdict is kept on A under (poly, backend), so an equal polynomial
    asked of the same backend again is answered from it; the backends never
    share an entry.  A call that raises keeps nothing.
    """
    key = (poly, backend)
    res = A._verdicts.get(key)
    if res is None:
        res = A._verdicts[key] = _decide_identity(A, poly, backend)
    return res


def _decide_identity(A: StructureAlgebra, poly: FreePoly,
                     backend: str) -> HoldsResult:
    check_backend(backend)
    if poly.is_zero():
        return HoldsResult(True, backend)
    if poly.contains_unit():
        raise ValueError("identity polynomials must be unit-free")
    vars_ = sorted(poly.variables())
    if backend == "symbolic":
        witness = _find_witness(A, poly, vars_, 1,
                                min(_PROBE_POINTS, A.dim ** 2))
        if witness is not None:
            return HoldsResult(False, backend, witness)
        max_degree = max(max(term_bidegree(t)) for t in poly.terms)
        groups = _symbolic_groups(A, vars_, max_degree)
        value = engine.SymContext(A.tensor(), groups).eval_poly(poly)
        if engine.sym_is_zero(value):
            return HoldsResult(True, backend)
        return HoldsResult(False, backend, _find_witness(A, poly, vars_))
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

    The basis is held as integer parts (``product_parts``), each divided by
    the gcd of its entries.  Each element is then a nonzero rational
    multiple of the true product, and scaling a vector changes no span, so
    every test, and so every pair, is the same as on the true elements.
    """
    parts, _ = clear_denominators(x.coords)
    basis, pairs = [parts], []
    span = Echelon()
    span.add_parts(parts)
    seen = 0
    while seen < len(basis) < A.dim:
        k = len(basis)
        for i in range(k):
            for j in range(0 if i >= seen else seen, k):
                v = product_parts(A, basis[i], basis[j])
                if span.add_parts(v):
                    g = math.gcd(*(a for part in v for a in part))
                    basis.append(tuple([a // g for a in part] for part in v))
                    pairs.append((i, j))
                    if len(basis) == A.dim:
                        return basis, pairs
        seen = k
    return basis, pairs


def subalgebra_generated(A: StructureAlgebra, x: Element) -> SubalgebraResult:
    """Basis and dimension of the subalgebra A(x) generated by a concrete x,
    closed exactly by ``_pair_closure``: the basis is x and the products of
    its pairs, in order."""
    if x.is_zero():
        return SubalgebraResult((), 0)
    _, pairs = _pair_closure(A, x)
    basis = [x]
    for i, j in pairs:
        basis.append(multiply(A, basis[i], basis[j]))
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
    """The Gram matrix of q with M_x^T M_x = q(x)*I for every x, or None:
    (parts, d), q = (parts[0] + parts[1]*sqrt 3) / d with d = 2*scale^2 and
    parts one or two n x n lists of ints.

    M_x is L_x (side "left") or R_x.  M_x^T M_x = sum_ij x_i x_j M_i^T M_j
    with M_i = M_{b_i}, so it is q(x)*I for all x exactly when every block
    M_i^T M_j + M_j^T M_i equals 2*q_ij*I.  Each entry of a block sums 2n
    products of two constants (times 1 + 3 with a sqrt 3 part), which
    bounds every partial sum: from 2^52 on, the product of the blocks runs
    on Python ints.
    """
    t = A.tensor()
    n = t.n
    fold = 1 + SQRT_RADICAND if len(t.parts) > 1 else 1
    C = t.parts
    if 2 * n * t.max_abs ** 2 * fold >= engine._FLOAT_EXACT:
        # float64 constants are exact ints below 2^52
        C = [c.astype(np.int64).astype(object) if c.dtype == np.float64
             else c for c in C]
    # (L_{b_i})_{kj} = c[i][j][k] and (R_{b_i})_{kj} = c[j][i][k]; the rows
    # of M are (i, a) with M[(i, a), k] = (M_{b_i})_{ka}
    M = [(c if side == "left" else c.transpose(1, 0, 2)).reshape(n * n, n)
         for c in C]
    # G[i, j, a, b] = (M_i^T M_j)_{ab} = sum_k M[(i, a), k] M[(j, b), k]
    G = [g.reshape(n, n, n, n).transpose(0, 2, 1, 3)
         for g in engine._field_product(M, [m.T for m in M])]
    S = [g + g.transpose(1, 0, 2, 3) for g in G]
    eye = np.eye(n, dtype=int)
    if any(not np.array_equal(s, s[:, :, :1, :1] * eye) for s in S):
        return None
    return (tuple([[int(x) for x in row] for row in s[:, :, 0, 0]]
                  for s in S), 2 * t.scale ** 2)


def _positive_definite(form) -> bool:
    """Sylvester's criterion: every leading principal minor of the form
    (parts, d) of _composition_form is > 0.

    A positive d keeps the sign of every minor of the integer parts.  While
    row k keeps lead column k, the rows kept by Echelon stay in the order
    added and its minor is the k-th leading principal minor.
    """
    parts, _ = form
    ech = Echelon()
    return all(ech.add_parts([p[k] for p in parts]) and ech.leads[k] == k
               and scalar_sign(ech.minor) > 0 for k in range(len(parts[0])))


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
