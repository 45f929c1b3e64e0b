"""Independent oracles for the integer kernels of ``nalab.engine``,
``nalab.algebra`` and ``nalab.exactmath``.

Generic elements on MultiPoly coordinates check the packed symbolic kernels:
``fraction_multiply`` and ``fraction_eval_free_poly`` (below) run on these
coordinates.  ``inclusion_exclusion_multilin`` evaluates a full
multilinearization through ordinary algebra multiplication.
``expanded_components`` polarizes (x^p, x^q, x^r) = 0 the long way, by
expanding the associator of (x + y)^p, (x + y)^q and (x + y)^r in full with
``FreePoly`` arithmetic and grading it by y-degree: the reference for the
components ``freealg`` builds from their block associators.
``konig_cover`` finds a minimum vertex cover of a bipartite graph by maximum
matching and König's theorem, the reference for the multilinear engine's
greedy word grouping.

The big-int oracle carries out the products of the identity kernels in exact
Python integers (object dtype), with no magnitude tier and no residues: the
symbolic product (``bigint_sym_product``), linear combinations and scalar
multiples of symbolic elements (``bigint_sym_combine``,
``bigint_sym_scale``, both as ``dict_sum`` dicts) and multilinear word
tensors (``bigint_word_tensor``).  The sqrt 3 rule (a + b s)(a' + b' s) = aa' + 3bb'
+ (ab' + ba') s is written out part by part (``field_op``), not by the
kernels' block product.

The field oracles run the concrete kernels of ``nalab.algebra`` and
``nalab.exactmath`` on ``Fraction`` and ``QuadExt`` scalars, with no
integer clearing: row reduction to leading ones (``FractionEchelon``, with
``fraction_solve_affine``, ``fraction_det``, ``fraction_scalar_rank`` and
``fraction_span_membership`` on it), the product over the constants
(``fraction_multiply``), the multiplication operators built column by
column from it (``fraction_mult_operator``) and free-polynomial evaluation
on it (``fraction_eval_free_poly``), also point by point over a batch of
integer points as ``engine.poly_nonzero_at`` takes them
(``fraction_nonzero_at``).  ``fraction_multiply`` and
``fraction_eval_free_poly`` are duck-typed, so they also run on MultiPoly
coordinates (``generic_element``).

The file loader as it was before algebras were stored as integer tables
parses every constant to a Fraction or QuadExt into a dense table
(``fraction_load``); the integer table is derived from that table
(``fraction_integer_table``) and the file form written back by walking all
of its cells (``fraction_save``).
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nalab import engine
from nalab.algebra import FIELD_Q, FIELD_QSQRT3, Element, eval_free_poly
from nalab.catalog import (MAX_DIM, AlgebraSpec, SpecFormatError,
                           spec_from_dict)
from nalab.exactmath import MultiPoly, QuadExt, format_scalar, scalar_is_zero
from nalab.freealg import UNIT, X, Y, FreePoly, associator, term_bidegree


def generic_element(A, nvars=None, offset=0):
    """The element of A whose coordinates are the independent variables
    x_offset .. x_{offset+dim-1} of a polynomial ring in nvars variables
    (dim A by default)."""
    nv = A.dim if nvars is None else nvars
    return Element(tuple(MultiPoly.variable(nv, offset + i)
                         for i in range(A.dim)))


def bigint(arr):
    """The exact integers of arr (float64, int64 or object) as Python ints."""
    if arr.dtype == np.float64:
        arr = arr.astype(np.int64)
    return arr.astype(object)


def dict_sum(keys, parts):
    """{key: per-part row sums} of the rows whose sums are not all zero, in
    Python integers."""
    sums = {}
    for r, key in enumerate(keys):
        acc = sums.setdefault(int(key), [[0] * p.shape[1] for p in parts])
        for a, p in zip(acc, parts):
            for k in range(p.shape[1]):
                a[k] += int(p[r, k])
    return {key: acc for key, acc in sums.items()
            if any(x for row in acc for x in row)}


def field_op(X, Y, op):
    """The part tuple of X * Y, each product of parts taken by the bilinear
    op: rational and sqrt 3 parts, with s * s = 3."""
    out = {}
    for i, x in enumerate(X):
        for j, y in enumerate(Y):
            z = op(x, y) * (3 if i == j == 1 else 1)
            h = (i + j) % 2
            out[h] = z if h not in out else out[h] + z
    return tuple(out[h] for h in sorted(out))


def _max_abs(parts):
    return max([1] + [int(np.abs(p).max()) for p in parts if p.size])


def bigint_sym_product(u, v, t):
    """``engine.sym_product`` in Python ints: the same keys, parts (object
    dtype), degrees and denominator power, each key's rows summed in a
    dict and the rows zero in every part dropped."""
    n = t.n
    degrees = tuple(a + b for a, b in zip(u.degrees, v.degrees))
    if max(degrees) >= 1 << u.bits:
        raise ValueError("exponent overflow")
    C = [bigint(c) for c in t.parts]
    U = [bigint(x) for x in u.parts]
    V = [bigint(x) for x in v.parts]
    # uC[a, j, k] = sum_i u[a, i] C[i, j, k]
    uC = field_op(U, C, lambda x, c: np.tensordot(x, c, axes=([1], [0])))
    # out[b, a, k] = sum_j v[b, j] uC[a, j, k]
    out = field_op(V, uC, lambda y, w: np.einsum("bj,ajk->bak", y, w))
    sums = {}
    for b, kv in enumerate(v.keys):
        for a, ku in enumerate(u.keys):
            rows = sums.setdefault(int(kv) + int(ku),
                                   [[0] * n for _ in out])
            for row, o in zip(rows, out):
                for k in range(n):
                    row[k] += o[b, a, k]
    keys = sorted(k for k, rows in sums.items()
                  if any(x for row in rows for x in row))
    parts = tuple(np.array([sums[k][h] for k in keys],
                           dtype=object).reshape(len(keys), n)
                  for h in range(len(out)))
    return engine.SymVec(u.nvars, u.bits, degrees,
                         u.denom_power + v.denom_power + 1,
                         np.array(keys, dtype=u.keys.dtype), parts,
                         _max_abs(parts))


def bigint_sym_combine(terms):
    """``engine.sym_combine`` in Python ints, as a ``dict_sum`` dict: the
    rows of each (c, s) term times c, a missing sqrt 3 part zero."""
    width = max(len(s.parts) for _, s in terms)
    keys = np.concatenate([s.keys for _, s in terms])
    parts = [np.concatenate([
        c * bigint(s.parts[h]) if h < len(s.parts)
        else np.zeros(s.parts[0].shape, dtype=object) for c, s in terms])
        for h in range(width)]
    return dict_sum(keys, parts)


def bigint_sym_scale(s, v):
    """``engine.sym_sum([(1, s, v)], m)`` in Python ints, as a ``dict_sum``
    dict: every row of the scalar s times every row of v, keys added."""
    m = v.parts[0].shape[1]
    out = field_op([bigint(p) for p in s.parts], [bigint(p) for p in v.parts],
                   lambda a, b: (a[:, None, :] * b[None]).reshape(-1, m))
    return dict_sum((s.keys[:, None] + v.keys[None, :]).reshape(-1), out)


def tier(bound):
    """The tier a kernel step runs in when bound bounds its entries and
    partial sums: "f" (exact float64) below 2^52, "o" (residues mod
    primes) from there on.  The tiers order as strings: "f" < "o"."""
    return "f" if bound < 2 ** 52 else "o"


def bigint_word_tensor(t, term, cache=None):
    """The word tensor of term in Python ints, as (parts, max_abs): axes
    are term's leaves in left-to-right order, then out, and
    T[l..., r..., k] = sum_ij L[l..., i] R[r..., j] C[i, j, k]."""
    cache = {} if cache is None else cache
    if term in cache:
        return cache[term]
    if isinstance(term, str):
        res = (bigint(np.eye(t.n, dtype=np.int64)),), 1
    else:
        L, _ = bigint_word_tensor(t, term[0], cache)
        R, _ = bigint_word_tensor(t, term[1], cache)
        C = [bigint(c) for c in t.parts]
        nl = L[0].ndim - 1
        # LC[l..., j, k] = sum_i L[l..., i] C[i, j, k]
        LC = field_op(L, C, lambda x, c: np.tensordot(x, c, axes=([-1], [0])))
        # contract j with R's out axis, then move k last
        parts = field_op(LC, R, lambda lc, r: np.moveaxis(
            np.tensordot(lc, r, axes=([nl], [r.ndim - 1])), nl, -1))
        res = parts, _max_abs(parts)
    cache[term] = res
    return res


def expanded_components(p, q, r):
    """[f_0, ..., f_{p+q+r}]: the associator of (x+y)^p, (x+y)^q and
    (x+y)^r expanded in full, f_m its terms of degree m in y."""
    s = FreePoly.var(X) + FreePoly.var(Y)
    pw = {1: s, 2: s * s}
    full = associator(pw[p], pw[q], pw[r])
    return [FreePoly({t: c for t, c in full.terms.items()
                      if term_bidegree(t)[1] == m})
            for m in range(p + q + r + 1)]


def konig_cover(edges):
    """(lefts, rights): a minimum vertex cover of the bipartite graph with
    the given (left, right) edges, left and right vertices kept apart.

    A maximum matching is grown by augmenting paths; by König's theorem the
    cover is then the left vertices not reachable from an unmatched left
    vertex by an alternating path, and the right vertices that are.
    """
    adj = {}
    for left, right in edges:
        adj.setdefault(left, []).append(right)
    match = {}  # right vertex -> its matched left vertex

    def augment(left, seen) -> bool:
        for right in adj[left]:
            if right not in seen:
                seen.add(right)
                if right not in match or augment(match[right], seen):
                    match[right] = left
                    return True
        return False

    for left in adj:
        augment(left, set())
    reached = [left for left in adj if left not in match.values()]
    zl, zr = set(reached), set()
    while reached:
        for right in adj[reached.pop()]:
            if right not in zr:
                # matched, or the matching would not be maximum
                zr.add(right)
                if match[right] not in zl:
                    zl.add(match[right])
                    reached.append(match[right])
    return set(adj) - zl, zr


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


class FractionEchelon:
    """Row echelon form over the field, built one row at a time: kept rows
    are scaled to a leading 1 and ordered by leading column (``leads``).  A
    new row is reduced only until its own leading column is found, and only
    the entries right of each pivot are updated.  ``minor`` is the
    determinant of the kept rows, as added, on their lead columns."""

    def __init__(self):
        self.rows: list = []
        self.leads: list = []
        self.minor = Fraction(1)

    def add(self, row) -> bool:
        """Reduce row and keep it; False when it reduces to zero."""
        row = list(row)
        leads, rows = self.leads, self.rows
        k = 0
        for c in range(len(row)):
            x = row[c]
            if k < len(leads) and leads[k] == c:
                if not scalar_is_zero(x):
                    row[c + 1:] = [a - x * b for a, b in
                                   zip(row[c + 1:], rows[k][c + 1:])]
                k += 1
            elif not scalar_is_zero(x):
                break
        else:
            return False
        # sorting the rows by lead moves the new row past the kept rows of
        # larger lead; each such exchange flips the sign of the minor
        self.minor = self.minor * x if (len(leads) - k) % 2 == 0 else \
            -(self.minor * x)
        inv = x.inverse() if isinstance(x, QuadExt) else 1 / x
        rows.insert(k, [Fraction(0)] * c + [Fraction(1)]
                    + [a * inv for a in row[c + 1:]])
        leads.insert(k, c)
        return True


def fraction_solve_affine(matrix, rhs):
    """M v = rhs over the field: (particular, nullspace_basis) or None, the
    free variables of the particular solution set to 0."""
    if not matrix:
        return [], []
    n = len(matrix[0])
    ech = FractionEchelon()
    seen = set()
    for row, b in zip(matrix, rhs):
        aug = (*row, b)
        if aug in seen or not any(aug):
            continue
        seen.add(aug)
        if ech.add(aug) and ech.leads[-1] == n:
            return None
    rows, leads = ech.rows, ech.leads

    def back_substitute(v):
        # v[n] is -1 for the particular solution, 0 for a homogeneous one
        for c, row in zip(reversed(leads), reversed(rows)):
            v[c] = -sum((a * b for a, b in zip(row[c + 1:], v[c + 1:])),
                        Fraction(0))
        return v[:n]

    particular = back_substitute([Fraction(0)] * n + [Fraction(-1)])
    basis = [back_substitute([Fraction(int(c == free)) for c in range(n + 1)])
             for free in range(n) if free not in leads]
    return particular, basis


def fraction_det(matrix):
    ech = FractionEchelon()
    for row in matrix:
        if not ech.add(row):
            return Fraction(0)
    return ech.minor


def fraction_scalar_rank(matrix):
    ech = FractionEchelon()
    return sum(ech.add(row) for row in matrix)


def fraction_span_membership(target, generators):
    """(inside, coefficients) of target in the span of the generators."""
    if not target:
        return True, [Fraction(0)] * len(generators)
    sol = fraction_solve_affine(
        [[g[i] for g in generators] for i in range(len(target))], target)
    return (False, None) if sol is None else (True, sol[0])


def fraction_multiply(A, u, v):
    """(u v)_k = sum u_i v_j c[i][j][k] over A's constants, summed in the
    coordinates' own arithmetic."""
    n = A.dim
    out = [Fraction(0)] * n
    for i, ui in enumerate(u.coords):
        if not ui:
            continue
        for j, vj in enumerate(v.coords):
            if not vj:
                continue
            p = ui * vj
            for k, c in enumerate(A.constants[i][j]):
                if c:
                    out[k] = out[k] + p * c
    return Element(tuple(out))


def fraction_eval_free_poly(A, poly, assignment, unit=None):
    """poly at the assignment, every product by ``fraction_multiply``; unit
    stands for the unit leaf."""
    cache = {}

    def walk(t):
        if isinstance(t, str):
            return unit if t == UNIT else assignment[t]
        if t not in cache:
            cache[t] = fraction_multiply(A, walk(t[0]), walk(t[1]))
        return cache[t]

    out = A.zero()
    for t, c in poly.terms.items():
        out = out + walk(t).scale(c)
    return out


def fraction_nonzero_at(A):
    """``engine.poly_nonzero_at`` on A's tensor, one point at a time by
    ``fraction_eval_free_poly``: for each row k of the points, one integer
    row per variable, is poly nonzero there?"""
    def nonzero_at(poly, t, points):
        assert t.n == A.dim
        rows = len(next(iter(points.values())))
        return np.array([not fraction_eval_free_poly(A, poly, {
            v: A.element([Fraction(int(c)) for c in p[k]])
            for v, p in points.items()}).is_zero() for k in range(rows)],
            dtype=bool)
    return nonzero_at


def fraction_pair_closure(A, x):
    """The pair closure of ``nalab.algebra._pair_closure`` on field
    elements: (basis, pairs), the basis the true products."""
    basis, pairs = [x], []
    span = FractionEchelon()
    span.add(x.coords)
    seen = 0
    while seen < len(basis) < A.dim:
        k = len(basis)
        for i in range(k):
            for j in range(0 if i >= seen else seen, k):
                v = fraction_multiply(A, basis[i], basis[j])
                if span.add(v.coords):
                    basis.append(v)
                    pairs.append((i, j))
                    if len(basis) == A.dim:
                        return basis, pairs
        seen = k
    return basis, pairs


def fraction_mult_operator(A, x, side):
    """L_x (columns x b_j) or R_x (columns b_j x), one
    ``fraction_multiply`` per column."""
    n = A.dim
    basis = [A.basis_element(j) for j in range(n)]
    cols = [(fraction_multiply(A, x, b) if side == "left"
             else fraction_multiply(A, b, x)).coords for b in basis]
    return [[cols[j][k] for j in range(n)] for k in range(n)]


# ---------------------------------------------------------------------------
# The Fraction loader
# ---------------------------------------------------------------------------


_FRACTION_SCALAR = re.compile(
    r"(-?\d+(?:/\d+)?)(?:([+-])(-?\d+(?:/\d+)?)\*sqrt3)?")


def fraction_parse_scalar(text):
    """A scalar string as a Fraction, or a QuadExt when its sqrt 3 part is
    written, each part parsed by ``Fraction``."""
    m = _FRACTION_SCALAR.fullmatch(text.strip().replace(" ", ""))
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    try:
        a = Fraction(m.group(1))
        b = None if m.group(2) is None else Fraction(m.group(3))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None
    if b is None:
        return a
    return QuadExt(a, -b if m.group(2) == "-" else b)


@dataclass
class FractionAlgebra:
    """What ``fraction_load`` builds: the dense table of parsed scalars."""

    name: str
    dim: int
    field: str
    constants: tuple
    basis_names: tuple


def _fraction_spec_constants(entries):
    """The constants of a JSON spec, each index checked to be a JSON
    integer."""
    def index(value, what):
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecFormatError(f"{what} must be an integer, not {value!r}")
        return value

    try:
        return [tuple(index(e[h], f"constants[{pos}] index")
                      for h in range(3)) + (str(e[3]),)
                for pos, e in enumerate(entries)]
    except (KeyError, TypeError, IndexError) as exc:
        raise SpecFormatError(f"missing or malformed key: {exc}") from exc


def fraction_load(spec):
    """``catalog.load`` on a dense Fraction table, with the same checks and
    messages.  A JSON spec's constants are read by
    ``_fraction_spec_constants``; its other keys, assumed well formed, by
    ``spec_from_dict``."""
    if isinstance(spec, dict):
        consts = _fraction_spec_constants(spec["constants"])
        spec = spec_from_dict({**spec, "constants": []})
        spec.constants = consts
    if spec.field not in (FIELD_Q, FIELD_QSQRT3):
        raise SpecFormatError(f"unknown field tag {spec.field!r}")
    n = spec.dim
    if n < 1:
        raise SpecFormatError("dim must be >= 1")
    if n > MAX_DIM:
        raise SpecFormatError(f"dim {n} is above the limit of {MAX_DIM}")
    if len(spec.basis) != n:
        raise SpecFormatError("basis length does not match dim")
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    first_pos = {}
    for pos, (i, j, k, s) in enumerate(spec.constants):
        for idx in (i, j, k):
            if not (isinstance(idx, int) and 0 <= idx < n):
                raise SpecFormatError(
                    f"constants[{pos}]: index {idx} out of range 0..{n - 1}")
        if (i, j, k) in first_pos:
            raise SpecFormatError(
                f"constants[{pos}]: [{i}, {j}, {k}] already given at "
                f"constants[{first_pos[i, j, k]}]")
        first_pos[i, j, k] = pos
        try:
            val = fraction_parse_scalar(s)
        except ValueError as exc:
            raise SpecFormatError(f"constants[{pos}]: {exc}") from exc
        if isinstance(val, QuadExt) and spec.field == FIELD_Q:
            raise SpecFormatError(
                f"constants[{pos}]: sqrt scalar in a rational algebra")
        constants[i][j][k] = val
    return FractionAlgebra(
        spec.name, n, spec.field,
        tuple(tuple(map(tuple, row)) for row in constants), tuple(spec.basis))


def fraction_integer_table(constants):
    """(scale, width, table) derived from a dense table of scalars: scale
    the least common denominator of every rational and sqrt 3 part, and
    table[i][j] the (k, a, b) of the nonzero c[i][j][k] = (a + b sqrt 3) /
    scale in ascending k."""
    n = len(constants)
    nonzero = [(i, j, k) + ((c.a, c.b) if isinstance(c, QuadExt)
                            else (Fraction(c), Fraction(0)))
               for i, row in enumerate(constants)
               for j, cell in enumerate(row)
               for k, c in enumerate(cell) if c]
    scale = math.lcm(*(x.denominator for *_, a, b in nonzero
                       for x in (a, b)))
    table = [[[] for _ in range(n)] for _ in range(n)]
    for i, j, k, a, b in nonzero:
        table[i][j].append((k, a.numerator * (scale // a.denominator),
                            b.numerator * (scale // b.denominator)))
    width = 2 if any(b for *_, b in nonzero) else 1
    return scale, width, tuple(tuple(map(tuple, row)) for row in table)


def fraction_save(A):
    """The file form of A, one entry per nonzero cell of its dense table in
    ascending (i, j, k)."""
    consts = [(i, j, k, format_scalar(c))
              for i, row in enumerate(A.constants)
              for j, cell in enumerate(row)
              for k, c in enumerate(cell) if not scalar_is_zero(c)]
    return AlgebraSpec(A.name, A.dim, A.field, list(A.basis_names), consts)
