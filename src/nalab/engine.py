"""Integer kernels for exact identity checking on structure-constant algebras.

Structure constants are cleared of denominators once per algebra, after which
symbolic evaluation of identities reduces to integer tensor arithmetic: a
symbolic element is a polynomial whose coefficients are integer coordinate
vectors, and a fully multilinearized identity is an integer tensor indexed by
basis tuples.  Spans of symbolic elements over the function field are decided
by division-free minors (``SymSpan``).  Every exact value is a tuple of
parts: one integer array for a rational value, or two (rational part, sqrt 3
part) for a value in Q(sqrt 3).
One rule, ``_field_product``, multiplies part tuples under any bilinear numpy
operation.  Everything is exact: each product runs in float64 (BLAS) while
a rigorous magnitude bound stays below 2^52, and beyond that on float64
residues modulo primes below 2^22 (``_primes``), enough of them that their
product exceeds the bound.  Each symbolic operation, a product
(``sym_product``) or a sum of scaled terms (``sym_sum``: a linear
combination, and each bordered minor of ``SymSpan``), sums its rows by key
once, in one routine for both tiers (``_sum_by_key``), and rebuilds the
rows left from their residues by CRT.  Two kernels only test for zero,
so they run one prime at a time and rebuild nothing: the multilinear
check, and the witness search, which evaluates an identity exactly at a
chunk of integer points at once (``poly_nonzero_at``, a batched pointwise
product, ``point_product``).  Every aggregation runs on float64: symbolic
values are stored as float64 arrays, or as object arrays of Python ints
when rebuilt by CRT.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactmath import SQRT_RADICAND, clear_denominators
from .freealg import FreePoly, FreeTerm, UNIT, X, Y, term_bidegree

_FLOAT_EXACT = 1 << 52

#: primes below 2^22, in the order they are used: a product of two residues
#: is below 2^44, so float64 sums 512 of them exactly (``_residue_width``).
#: ``_primes`` extends the list, below its last entry, when a bound needs
#: more.
_PRIMES = [4194301, 4194287, 4194277, 4194271, 4194247, 4194217, 4194199,
           4194191, 4194187, 4194181, 4194173, 4194167, 4194143, 4194137,
           4194131, 4194107]


def _primes(bound: int) -> List[int]:
    """The first primes of _PRIMES whose product exceeds bound."""
    out, product = [], 1
    while product <= bound:
        if len(out) == len(_PRIMES):
            q = _PRIMES[-1] - 2
            while any(q % d == 0 for d in range(3, math.isqrt(q) + 1, 2)):
                q -= 2
            _PRIMES.append(q)
        out.append(_PRIMES[len(out)])
        product *= out[-1]
    return out


def _residue_width(p: int) -> int:
    """The widest inner dimension K of an exact float64 product of residues
    mod p, with the margin _fmod needs: K (p - 1)^2 <= 2^53 - p."""
    return ((1 << 53) - p) // (p - 1) ** 2


def _fmod(x, p: int):
    """A residue of x mod p: the float64 integers r = x - q p with |r| < p,
    q the nearest integer to one rounded x / p.  x holds exact integers of
    magnitude at most 2^53 - p, for a prime 5 <= p < 2^22.

    The rounded quotient is within 2 / p of x / p, so |r| <= p / 2 + 2 < p,
    and |q p| <= |x| + p / 2 + 2 < 2^53 keeps q p and x - q p exact.  A
    residue is zero exactly when x is divisible by p.
    """
    r = x * (1.0 / p)
    np.rint(r, out=r)
    r *= -p
    r += x
    return r


def _residues(arr, p: int):
    """The exact integers arr (any dtype) mod p, as float64 residues (see
    _fmod)."""
    if arr.dtype == np.float64:
        return _fmod(arr, p)
    return (arr % p).astype(np.float64)


def _reduce(parts, p: int) -> Tuple:
    """_residues on every part."""
    return tuple(_residues(x, p) for x in parts)


def _mod(parts, m: int, p: int) -> Tuple:
    """A multilinear tensor's parts as residues mod p.  m is its entry
    bound, and m >= 2^52 marks parts that are residues already."""
    return tuple(parts) if m >= _FLOAT_EXACT else _reduce(parts, p)


def _crt(residues: Sequence[np.ndarray], primes: Sequence[int]) -> np.ndarray:
    """The integers of magnitude below M/2, M the product of primes, with the
    given int64 residues, as an object array.

    Garner's mixed-radix digits d_i (x = d_0 + p_0 (d_1 + p_1 (d_2 + ...)))
    are found in int64, where every step stays below 2^44; two digits at a
    time join into one int64 below 2^44 before Python ints are formed.
    """
    digits: List[np.ndarray] = []
    for r, p in zip(residues, primes):
        x = r
        for d, q in zip(digits, primes):
            x = (x - d) * pow(q, -1, p) % p
        digits.append(x)
    pairs = [(digits[i] + primes[i] * digits[i + 1], primes[i] * primes[i + 1])
             if i + 1 < len(digits) else (digits[i], primes[i])
             for i in range(0, len(digits), 2)]
    acc = pairs[-1][0].astype(object)
    for e, radix in reversed(pairs[:-1]):
        acc = acc * radix + e.astype(object)
    M = math.prod(primes)
    return np.where(acc > M // 2, acc - M, acc)


def _matmul(P, Q, p: Optional[int]):
    """P @ Q; with p, a product of residues mod p, reduced mod p.  It is
    exact while the inner dimension K keeps K (p - 1)^2 <= 2^53 - p (see
    _residue_width), and raises ValueError beyond."""
    if p is None:
        return P @ Q
    if P.shape[-1] > _residue_width(p):
        raise ValueError(f"an inner dimension of {P.shape[-1]} is too wide "
                         f"for exact float64 products modulo {p}")
    return _fmod(P @ Q, p)


def _field_product(A: Tuple, B: Tuple, p: Optional[int] = None) -> Tuple:
    """Matrix product of part tuples by the rule (a, b)(a', b') =
    (aa' + 3bb', ab' + ba'): A's parts are (m, k) and B's (k, p) matrices,
    or stacks of them, (..., m, k) and (..., k, p), multiplied pairwise.

    A missing sqrt 3 part is zero, so the result has one exactly when a
    factor has one.  When both factors have one, the rule is a single
    product of blocks, [[a, 3b], [b, a]] @ [a'; b'], whose rows sum the
    same terms as the rule (so every bound on the rule bounds its partial
    sums) with no pass over the result to combine parts.  With p, the parts
    are float64 residues mod p and so is the result (see _matmul); the
    block's inner dimension is 2k.
    """
    if len(A) == 2 and len(B) == 2:
        a, b = A
        b3 = b * SQRT_RADICAND if p is None else \
            _fmod(b * SQRT_RADICAND, p)
        block = np.concatenate([np.concatenate([a, b3], axis=-1),
                                np.concatenate([b, a], axis=-1)], axis=-2)
        out = _matmul(block, np.concatenate(B, axis=-2), p)
        m = a.shape[-2]
        return out[..., :m, :], out[..., m:, :]
    return tuple(_matmul(P, Q, p) for P in A for Q in B)


def _max_abs(parts) -> int:
    """Largest entry magnitude over all parts, at least 1."""
    return max([1] + [max(int(p.max()), -int(p.min()))
                      for p in parts if p.size])


def _padded(parts, width: int) -> Tuple:
    """parts with zero sqrt 3 parts appended up to width."""
    return tuple(parts) + tuple(np.zeros_like(parts[0])
                                for _ in range(width - len(parts)))


def _float(arr):
    """An exact integer-valued array as float64; the caller's bound keeps
    its entries below 2^53."""
    return arr if arr.dtype == np.float64 else arr.astype(np.float64)


class ScaledTensor:
    """Structure constants as integer arrays: c = (parts[0] + parts[1]*sqrt 3)
    / scale, with parts[1] present only when some constant has a sqrt 3
    part.  Built from an integer table (see
    ``StructureAlgebra.integer_table``): table[i][j] lists the (k, a, b)
    with c[i][j][k] = (a + b*sqrt 3) / scale nonzero."""

    __slots__ = ("n", "scale", "parts", "max_abs", "_mod")

    def __init__(self, n: int, scale: int, table):
        # (flat index, rational part, sqrt 3 part) of every nonzero constant
        nonzero = [((i * n + j) * n + k, a, b)
                   for i, row in enumerate(table)
                   for j, cell in enumerate(row) for k, a, b in cell]
        width = 2 if any(b for _, _, b in nonzero) else 1
        self.n = n
        self.scale = scale
        self.max_abs = max([1] + [abs(x) for _, a, b in nonzero
                                  for x in (a, b)])
        # constants from 2^52 on stay Python ints, read through mod and by
        # the division certificate: max_abs sends products to residues
        dtype = np.float64 if self.max_abs < _FLOAT_EXACT else object
        where = np.array([pos for pos, _, _ in nonzero], dtype=np.intp)
        parts = []
        for h in range(width):
            flat = np.zeros(n ** 3, dtype=dtype)
            flat[where] = np.array([v[1 + h] for v in nonzero], dtype=dtype)
            parts.append(flat.reshape(n, n, n))
        self.parts = tuple(parts)
        self._mod: Dict[int, Tuple] = {}

    def mod(self, p: int) -> Tuple:
        """The parts as float64 residues mod p, kept per prime."""
        got = self._mod.get(p)
        if got is None:
            got = self._mod[p] = _reduce(self.parts, p)
        return got


# ---------------------------------------------------------------------------
# Symbolic elements: polynomials with integer coordinate-vector coefficients
# ---------------------------------------------------------------------------


class SymVec:
    """Symbolic algebra element: sum over monomials of coordinate vectors.

    keys are exponent vectors packed ``bits`` bits per variable: uint64 while
    ``nvars * bits`` fits in 64 bits, Python ints (object dtype) beyond.
    ``degrees[g]`` bounds the exponents of the variables in group g (the
    coordinates x_{g*n} .. x_{g*n+n-1}); sym_product refuses a product in
    which one could reach 2**bits, so packed keys never carry into each
    other.  parts holds the integer coordinate rows, one per key, as a part
    tuple; true coordinates are (parts[0] + parts[1]*sqrt 3) /
    scale**denom_power.  The rows are float64 (exact below 2^52), or object
    (Python ints) when rebuilt by CRT or made by constant_like from 2^52 on.
    An operation that needs them mod a prime reduces them (_sym_parts).
    """

    __slots__ = ("nvars", "bits", "degrees", "denom_power", "keys", "parts",
                 "max_abs")

    def __init__(self, nvars, bits, degrees, denom_power, keys, parts,
                 max_abs):
        self.nvars = nvars
        self.bits = bits
        self.degrees = degrees
        self.denom_power = denom_power
        self.keys = keys
        self.parts = parts
        self.max_abs = max_abs

    @classmethod
    def generic(cls, n: int, nvars: int, bits: int, offset: int) -> "SymVec":
        """The generic element with coordinates x_offset .. x_{offset+n-1}."""
        if offset % n or nvars % n:
            raise ValueError("variable groups must be whole blocks of n")
        wide = nvars * bits > 64
        keys = np.array([1 << (bits * (offset + i)) for i in range(n)],
                        dtype=object if wide else np.uint64)
        degrees = tuple(int(g == offset // n) for g in range(nvars // n))
        return cls(nvars, bits, degrees, 0, keys,
                   (np.eye(n),), 1)

    def constant_like(self, coords) -> "SymVec":
        """The constant vector coords (rational or QuadExt entries) times
        the lcm of their denominators, over the same variables and key
        width."""
        rows, _ = clear_denominators(coords)
        rows = rows[:2 if any(rows[-1]) else 1]
        m = max(1, *(abs(x) for row in rows for x in row))
        dtype = np.float64 if m < _FLOAT_EXACT else object
        return SymVec(self.nvars, self.bits, (0,) * len(self.degrees), 0,
                      np.zeros(1, dtype=self.keys.dtype),
                      tuple(np.array([row], dtype=dtype) for row in rows), m)

    def zero_like(self, degrees, denom_power, n) -> "SymVec":
        """The zero element over the same variables and key width."""
        return SymVec(self.nvars, self.bits, degrees, denom_power,
                      self.keys[:0], (np.zeros((0, n)),), 1)


#: rows gathered at once in _aggregate (a key's rows are never split): a
#: larger product is never copied whole into key order
_AGGREGATE_ROWS = 1 << 13


def _runs(keys):
    """(order, bounds, unique keys): one stable argsort orders the keys, and
    the rows order[bounds[r]:bounds[r + 1]] hold the r-th unique key."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # a run starts at 0 and at each change of key; the last bound is the end
    flags = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=flags[1:-1])
    bounds = np.flatnonzero(flags)
    return order, bounds, sorted_keys[bounds[:-1]]


def _run_sums(parts, order, bounds) -> List[np.ndarray]:
    """The rows of every part summed over each run of _runs, by one
    np.add.reduceat per part up to _AGGREGATE_ROWS rows, and beyond over
    blocks of whole runs of about _AGGREGATE_ROWS rows.  Each part keeps
    its dtype: float64 sums are exact while the caller's bound holds every
    partial sum below 2^53."""
    if bounds[-1] <= _AGGREGATE_ROWS:
        return [np.add.reduceat(p[order], bounds[:-1], axis=0) for p in parts]
    runs = len(bounds) - 1
    sums = [np.empty((runs, p.shape[1]), dtype=p.dtype) for p in parts]
    lo = 0
    while lo < runs:
        hi = int(np.searchsorted(bounds, bounds[lo] + _AGGREGATE_ROWS,
                                 "right")) - 1
        hi = min(max(hi, lo + 1), runs)
        rows = order[bounds[lo]:bounds[hi]]
        for s, p in zip(sums, parts):
            s[lo:hi] = np.add.reduceat(p[rows], bounds[lo:hi] - bounds[lo],
                                       axis=0)
        lo = hi
    return sums


def _live(sums) -> np.ndarray:
    """The rows that are nonzero in some part."""
    live = (sums[0] != 0).any(axis=1)
    for s in sums[1:]:
        live |= (s != 0).any(axis=1)
    return live


def _aggregate(keys, parts):
    """Sum the rows of every part by key and drop rows zero in all parts.
    Returns (sorted unique keys, summed parts, max_abs); see _run_sums."""
    order, bounds, uk = _runs(keys)
    sums = _run_sums(parts, order, bounds)
    live = _live(sums)
    if not live.all():
        uk, sums = uk[live], [s[live] for s in sums]
    return uk, tuple(sums), _max_abs(sums)


def _product_degrees(u: SymVec, v: SymVec) -> Tuple[int, ...]:
    """The degrees of a product of u and v; ValueError when an exponent
    could reach 2**bits and carry into the next packed variable."""
    degrees = tuple(a + b for a, b in zip(u.degrees, v.degrees))
    if max(degrees) >= 1 << u.bits:
        raise ValueError(f"an exponent of degree {max(degrees)} does not "
                         f"fit in {u.bits} bits")
    return degrees


def _sym_parts(x: SymVec, p: Optional[int]) -> Tuple:
    """x's parts as exact float64, or with p as residues mod p."""
    if p is None:
        return tuple(map(_float, x.parts))
    return _reduce(x.parts, p)


def _times(parts, c: int, p: Optional[int]) -> List[np.ndarray]:
    """c times every part: exact float64, or with p residues mod p."""
    return [x * c if p is None else _fmod(x * (c % p), p) for x in parts]


def _sum_by_key(keys, rows, bound: int):
    """(unique keys, parts, max_abs), as _aggregate: the rows of rows(p)
    summed by key, rows zero in every part dropped.  bound bounds every
    entry and every partial sum of the sums.

    Below 2^52, rows(None) are exact float64 and one _aggregate sums them.
    From there on rows(p) are their residues mod p, for primes whose
    product exceeds 2 * bound, one prime at a time, summed by key (fewer
    than 2^31 residues a key, within _fmod's margin); a row is zero when
    all its residues are, and the others are rebuilt, signs included, by
    CRT.
    """
    if bound < _FLOAT_EXACT:
        return _aggregate(keys, rows(None))
    order, bounds, uk = _runs(keys)
    primes = _primes(2 * bound)
    sums = [[_fmod(s, p) for s in _run_sums(rows(p), order, bounds)]
            for p in primes]
    live = _live([s for per_prime in sums for s in per_prime])
    sums = [[s[live] for s in per_prime] for per_prime in sums]
    parts = tuple(_crt([(per_prime[h] % p).astype(np.int64)
                        for per_prime, p in zip(sums, primes)], primes)
                  for h in range(len(sums[0])))
    return uk[live], parts, _max_abs(parts)


def _product_rows(U: Tuple, V: Tuple, C: Tuple, n: int,
                  p: Optional[int] = None) -> List[np.ndarray]:
    """Row (b, a) is the product of the rows V[b] and U[a] through the
    structure tensor C: one (len(V) * len(U), n) array per part.  With p,
    every part is a residue mod p."""
    A = len(U[0])
    # uC[a, (j, k)] = sum_i U[a, i] C[i, j, k]
    uC = _field_product(U, [c.reshape(n, n * n) for c in C], p)
    # out[b, (a, k)] = sum_j V[b, j] uC[a, j, k]
    out = _field_product(
        V, [np.moveaxis(W.reshape(A, n, n), 1, 0).reshape(n, A * n)
            for W in uC], p)
    del uC
    return [o.reshape(-1, n) for o in out]


def sym_product(u: SymVec, v: SymVec, t: ScaledTensor) -> SymVec:
    """Algebra product of symbolic elements via the structure tensor."""
    n = t.n
    degrees = _product_degrees(u, v)
    P, Q = len(u.keys), len(v.keys)
    dp = u.denom_power + v.denom_power + 1
    if P == 0 or Q == 0:
        return u.zero_like(degrees, dp, n)
    # rigorous bound on every product entry and every partial sum of it,
    # before and during aggregation: a key is the sum of at most min(P, Q)
    # pairs of keys, each entry of a pair sums n^2 terms
    fold = (1 + SQRT_RADICAND) ** 2 \
        if max(map(len, (u.parts, v.parts, t.parts))) > 1 else 1
    bound = min(P, Q) * n * n * u.max_abs * v.max_abs * t.max_abs * fold
    keys = (v.keys[:, None] + u.keys[None, :]).reshape(-1)
    return SymVec(u.nvars, u.bits, degrees, dp, *_sum_by_key(
        keys, lambda p: _product_rows(
            _sym_parts(u, p), _sym_parts(v, p),
            t.parts if p is None else t.mod(p), n, p), bound))


def sym_sum(terms: Sequence[Tuple[int, Optional[SymVec], SymVec]],
            m: int) -> SymVec:
    """The sum of c s v over the terms (c, s, v): s a scalar (one coordinate
    column), or None for the constant 1, and v a vector of m columns.  Keys
    add, every row of c s multiplies every row of v, and the rows of all
    the terms are summed by key once (_sum_by_key).  The terms with c, s
    and v nonzero must share one denom_power."""
    degrees = tuple(map(max, zip(*(v.degrees if s is None
                                   else _product_degrees(s, v)
                                   for _, s, v in terms))))
    live = [(c, s, v) for c, s, v in terms
            if c != 0 and len(v.keys) and (s is None or len(s.keys))]
    dps = {v.denom_power + (0 if s is None else s.denom_power)
           for _, s, v in live or terms[:1]}
    if len(dps) > 1:
        raise ValueError("mixed denominator powers in combination")
    (dp,), first = dps, terms[0][2]
    if not live:
        return first.zero_like(degrees, dp, m)
    # a key sums at most min(P, Q) products of a row of s and one of v (P,
    # Q their key counts), each entry one product, or two under the sqrt 3
    # rule when both have a sqrt 3 part: this bounds every entry and every
    # partial sum of the aggregation
    bound = sum(
        abs(c) * v.max_abs if s is None else
        abs(c) * min(len(s.keys), len(v.keys)) * s.max_abs * v.max_abs
        * (1 + SQRT_RADICAND if min(len(s.parts), len(v.parts)) > 1 else 1)
        for c, s, v in live)
    keys = np.concatenate([v.keys if s is None else
                           (s.keys[:, None] + v.keys[None, :]).reshape(-1)
                           for _, s, v in live])

    def rows(p):
        out = []
        for c, s, v in live:
            V = _sym_parts(v, p)
            out.append(_times(V, c, p) if s is None else [
                o.reshape(-1, m) for o in _field_product(
                    _times(_sym_parts(s, p), c, p),
                    [x.reshape(1, -1) for x in V], p)])
        width = max(map(len, out))
        return [np.concatenate(col)
                for col in zip(*(_padded(r, width) for r in out))]

    return SymVec(first.nvars, first.bits, degrees, dp,
                  *_sum_by_key(keys, rows, bound))


def sym_coordinate(v: SymVec, k: int) -> SymVec:
    """Coordinate k of v, as a scalar (one coordinate column)."""
    cols = [p[:, k:k + 1] for p in v.parts]
    live = np.any([c[:, 0] != 0 for c in cols], axis=0)
    cols = [c[live] for c in cols]
    return SymVec(v.nvars, v.bits, v.degrees, v.denom_power, v.keys[live],
                  tuple(cols), _max_abs(cols))


def sym_combine(terms: Sequence[Tuple[int, SymVec]], n: int) -> SymVec:
    """Integer linear combination of symbolic elements (same denom_power)."""
    return sym_sum([(c, None, v) for c, v in terms], n)


def sym_is_zero(s: SymVec) -> bool:
    return len(s.keys) == 0


class SymSpan:
    """Symbolic rows kept while they are independent over the function field
    K(x), by one exact test per row and no division.

    The kept rows v_0 .. v_{d-1} come with columns R = c_0 .. c_{d-1} on
    which their d x d minor is a nonzero polynomial.  A new row v_d is in
    their span exactly when w = sum_r (-1)^r M_r v_r is zero, M_r the minor
    of the rows other than r on R: coordinate k of w is, by Laplace along
    its first column, the (d+1)-minor of all rows on k followed by R, and a
    nonzero d-minor is bordered only by zero (d+1)-minors exactly when the
    rank is d.  A row found independent is kept, and R gains the first
    column k with w_k != 0, the new minor being (-1)^d w_k.  The minors are
    Laplace expansions over row subsets, each one sym_sum of its terms, as
    is w; those of kept rows only are kept for later rows.  Scaling a row by
    a nonzero constant changes no rank, so the rows' denom_power is
    dropped.
    """

    def __init__(self):
        self.rows: List[SymVec] = []
        self.cols: List[int] = []
        #: S (sorted kept row indices) -> minor of the rows S on R[:len(S)]
        self._minors: Dict[Tuple[int, ...], SymVec] = {}

    def add(self, v: SymVec) -> bool:
        """Keep v when it is independent of the kept rows; False when not."""
        v = SymVec(v.nvars, v.bits, v.degrees, 0, v.keys, v.parts, v.max_abs)
        d = len(self.rows)
        rows = self.rows + [v]
        minors = collections.ChainMap({}, self._minors)
        if d == 0:
            minors[()] = v.constant_like([1])
        # the minors of subsets with v, each along its last column of R
        for size in range(1, d + 1):
            col = self.cols[size - 1]
            for rest in itertools.combinations(range(d), size - 1):
                S = rest + (d,)
                minors[S] = sym_sum(
                    [((-1) ** (i + size - 1), sym_coordinate(rows[s], col),
                      minors[S[:i] + S[i + 1:]])
                     for i, s in enumerate(S)], 1)
        full = tuple(range(d + 1))
        w = sym_sum([((-1) ** r, minors[full[:r] + full[r + 1:]], rows[r])
                     for r in full], v.parts[0].shape[1])
        if sym_is_zero(w):
            return False
        k = int(np.flatnonzero(np.any([p != 0 for p in w.parts],
                                      axis=(0, 1)))[0])
        minor = minors[full] = sym_coordinate(w, k)
        if d % 2:
            minor.parts = tuple(-p for p in minor.parts)
        self._minors.update(minors.maps[0])
        self.rows.append(v)
        self.cols.append(k)
        return True


# ---------------------------------------------------------------------------
# Word evaluation
# ---------------------------------------------------------------------------


class SymContext:
    """Evaluation context: generic variable groups plus a per-term cache."""

    def __init__(self, tensor: ScaledTensor, groups: Dict[str, SymVec]):
        self.tensor = tensor
        self.groups = groups
        self.cache: Dict[FreeTerm, SymVec] = {}

    def eval_term(self, term: FreeTerm) -> SymVec:
        if isinstance(term, str):
            if term == UNIT:
                raise ValueError("unit leaf requires a unital evaluation")
            return self.groups[term]
        got = self.cache.get(term)
        if got is None:
            got = sym_product(self.eval_term(term[0]), self.eval_term(term[1]),
                              self.tensor)
            self.cache[term] = got
        return got

    def eval_poly(self, poly: FreePoly) -> Optional[SymVec]:
        """Evaluate a FreePoly whose terms all have the same leaf-degree.

        Returns None for the zero polynomial.  Coefficients are cleared to
        integers; scaling never affects zero-testing.
        """
        if poly.is_zero():
            return None
        degs = {sum(term_bidegree(t)) for t in poly.terms}
        if len(degs) != 1:
            raise ValueError("engine evaluation needs leaf-degree homogeneity")
        denom = math.lcm(*(c.denominator for c in poly.terms.values()))
        parts = [(int(c * denom), self.eval_term(t))
                 for t, c in poly.terms.items()]
        return sym_combine(parts, self.tensor.n)


# ---------------------------------------------------------------------------
# Values at integer points
# ---------------------------------------------------------------------------


def point_product(U: Tuple, V: Tuple, t: ScaledTensor,
                  p: Optional[int] = None) -> Tuple:
    """Row k is the product of the rows U[k] and V[k] through the structure
    tensor, out[k, c] = sum_{i, j} U[k, i] V[k, j] C[i, j, c]: one (K, n)
    array per part, by two _field_product calls, the second a stack of K
    (1, n) @ (n, n) products.  With p, every part is a residue mod p."""
    n = t.n
    C = t.parts if p is None else t.mod(p)
    # uC[k, (j, c)] = sum_i U[k, i] C[i, j, c]
    uC = _field_product(U, [c.reshape(n, n * n) for c in C], p)
    out = _field_product([v[:, None, :] for v in V],
                         [w.reshape(-1, n, n) for w in uC], p)
    return tuple(o[:, 0] for o in out)


def poly_nonzero_at(poly: FreePoly, t: ScaledTensor,
                    points: Dict[str, np.ndarray]) -> np.ndarray:
    """For each row k of the points, one (K, n) integer array per variable
    of poly, is poly nonzero there?

    Each subterm is evaluated once at all K points (point_product), and
    the terms are summed with poly's coefficients cleared to integers.
    The integer constants are scale times the true ones and every term has
    one leaf-degree, so the sum is a nonzero multiple of poly's value.
    The points are rational, so every product has the tensor's parts.

    Every product is bounded before it is formed.  Let s be the sum of a
    value's entry magnitudes over all parts at a point.  A product of
    values with s and s' has every entry and every partial sum within
    fold max(s, 1) max(s', 1) max|C|, fold 9 when the tensor has a sqrt 3
    part (two steps of the rule, each at most 3 times the magnitudes),
    else 1.  The product is formed in exact float64 when that is below
    2^52 at every point, and the sum when the sum of |c| s over the terms
    is.  s is measured on the exact values in float64, which is exact
    below 2^53 and stays at least 2^53 beyond, so both comparisons are
    exact.  Otherwise s is bounded again in Python ints, n w times the
    product's bound for a product left unformed (w the tensor's parts),
    and the test runs on residues mod primes whose product exceeds the
    bound of the sum: a point is nonzero when any residue is.  Nothing is
    rebuilt.
    """
    n, width = t.n, len(t.parts)
    fold = 1 if width == 1 else SQRT_RADICAND ** 2
    # fold max|C| as a float; at 2^52 it leaves every product unformed
    top = float(min(fold * t.max_abs, _FLOAT_EXACT))
    denom = math.lcm(*(c.denominator for c in poly.terms.values()))
    coeffs = [(c.numerator * (denom // c.denominator), term)
              for term, c in poly.terms.items()]
    # each subterm's exact float64 parts, or None when left unformed, and
    # max(s, 1) of those formed
    values: Dict[FreeTerm, Optional[Tuple]] = {}
    mags: Dict[FreeTerm, np.ndarray] = {}

    def value(term: FreeTerm) -> Optional[Tuple]:
        if term in values:
            return values[term]
        if isinstance(term, str):
            W = (_float(points[term]),)
        else:
            U, V = value(term[0]), value(term[1])
            W = None
            if U is not None and V is not None and (
                    top * mags[term[0]] * mags[term[1]]).max() < _FLOAT_EXACT:
                W = point_product(U, V, t)
        values[term] = W
        if W is not None:
            s = np.abs(W[0]).sum(axis=1)
            for x in W[1:]:
                s += np.abs(x).sum(axis=1)
            mags[term] = np.maximum(s, 1, out=s)
        return W

    def nonzero(parts_of, p: Optional[int]) -> np.ndarray:
        acc: List[np.ndarray] = []
        for c, term in coeffs:
            for h, x in enumerate(_times(parts_of(term), c, p)):
                if h < len(acc):
                    acc[h] += x
                else:
                    acc.append(x)
        hits = np.zeros(len(acc[0]), dtype=bool)
        for a in acc:
            hits |= (a if p is None else _fmod(a, p)).any(axis=1)
        return hits

    formed = [value(term) is not None for _, term in coeffs]
    if all(formed) and sum(abs(c) * mags[term]
                           for c, term in coeffs).max() < _FLOAT_EXACT:
        return nonzero(values.__getitem__, None)
    bounds: Dict[FreeTerm, List[int]] = {}

    def bound(term: FreeTerm) -> List[int]:
        got = bounds.get(term)
        if got is None:
            W = values[term]
            if W is not None:
                got = sum(np.abs(x).astype(np.int64).sum(axis=1)
                          for x in W).tolist()
            else:
                got = [width * n * fold * t.max_abs * max(a, 1) * max(b, 1)
                       for a, b in zip(bound(term[0]), bound(term[1]))]
            bounds[term] = got
        return got

    hits = np.zeros(len(next(iter(points.values()))), dtype=bool)
    for p in _primes(max(map(sum, zip(*([abs(c) * x for x in bound(term)]
                                         for c, term in coeffs))))):
        residues: Dict[FreeTerm, Tuple] = {}

        def residue(term: FreeTerm) -> Tuple:
            got = residues.get(term)
            if got is None:
                W = values[term]
                if W is not None:
                    got = _reduce(W, p)
                else:
                    got = point_product(residue(term[0]), residue(term[1]),
                                        t, p)
                residues[term] = got
            return got

        hits |= nonzero(residue, p)
    return hits


# ---------------------------------------------------------------------------
# Multilinear tensors
# ---------------------------------------------------------------------------


def _leaf_labels(term: FreeTerm) -> List[str]:
    if isinstance(term, str):
        return [] if term == UNIT else [term]
    return _leaf_labels(term[0]) + _leaf_labels(term[1])


def _leaf_slots(term: FreeTerm) -> Tuple[List[int], List[int]]:
    """Positions of the x leaves and of the y leaves among term's leaves."""
    labels = _leaf_labels(term)
    return ([i for i, s in enumerate(labels) if s == X],
            [i for i, s in enumerate(labels) if s == Y])


def _sorted_plan(n: int, k: int):
    """(tuples, steps): the nondecreasing k-tuples over range(n) in
    lexicographic order, as the rows of an (M, k) array, and the gathers of
    _sorted_sums, per slot j the (drops, tuples) of the sorted
    (j+1)-tuples.  drops[i, r] is the row of the sorted j-tuple that is the
    r-th sorted (j+1)-tuple without slot i.  There are M = C(n + k - 1, k)
    sorted k-tuples, and the first j steps are _sorted_plan(n, j)'s."""
    tuples = np.zeros((1, 0), dtype=np.intp)
    last = np.zeros(1, dtype=np.intp)
    steps = []
    for j in range(k):
        # the sorted (j+1)-tuples, in order: each sorted j-tuple extended by
        # every value no smaller than its last
        parent, a = np.nonzero(np.arange(n) >= last[:, None])
        if steps:
            # row[q, v]: the row of the sorted (j-1)-tuple q extended by v
            row = np.empty((rows_before, n), dtype=np.intp)
            row[built] = np.arange(len(tuples))
            drops = np.vstack([row[steps[-1][0][:, parent], a], parent])
        else:
            drops = parent[None]
        rows_before, built = len(tuples), (parent, a)
        tuples = np.column_stack([tuples[parent], a])
        last = a
        steps.append((drops, tuples))
    return tuples, steps


def _sorted_sums(T, n: int, k: int, plan=None):
    """(S, tuples): the sums of T (shape (B, n^k, m)) over all permutations
    of its k slot axes, at the nondecreasing k-tuples only.

    tuples (M, k) lists the nondecreasing tuples in lexicographic order and
    S[b, r] = sum over the k! permutations sigma of T[b, sigma(tuples[r])].
    The sum is built one slot at a time: with the first j slots summed at
    sorted tuples and the others free, the sum at a sorted (j+1)-tuple t
    adds, for each position i, the j-slot sum at t without t_i with t_i in
    slot j (a coset decomposition of the symmetric group, so j+1 gathers
    per slot rather than k! in all).  Every partial sum is a sum of some of
    the k! permuted entries.  plan is _sorted_plan(n, k), built when not
    given.
    """
    B, m = T.shape[0], T.shape[-1]
    tuples, steps = _sorted_plan(n, k) if plan is None else plan
    V = T.reshape(B, 1, -1)
    for j, (drops, rows) in enumerate(steps):
        V4 = V.reshape(B, -1, n, n ** (k - j - 1) * m)
        if j == 0:
            V = V4[:, 0]
        else:
            V = V4[:, drops[0], rows[:, 0]]
            for i in range(1, j + 1):
                V += V4[:, drops[i], rows[:, i]]
    return V, tuples


def _splits(steps, a: int) -> Tuple[np.ndarray, np.ndarray]:
    """(inside, outside), each of shape (C(k, a), M): for each set I of a
    of the k slots, in combinations order, the rows of t_I among the
    sorted a-tuples and of t without I among the sorted (k - a)-tuples, t
    over the M sorted k-tuples in order.  steps is the second item of
    _sorted_plan(n, k).  A subsequence of a sorted tuple is sorted, so the
    slots are dropped one at a time through the plan's drops, the largest
    first, so that the others keep their positions."""
    k = len(steps)
    sets = list(itertools.combinations(range(k), a))
    everything = np.arange(len(steps[-1][1]) if k else 1)
    inside, outside = (np.empty((len(sets), len(everything)), dtype=np.intp)
                       for _ in range(2))
    for I, kept, dropped in zip(sets, inside, outside):
        for out, drop in ((kept, [i for i in range(k) if i not in I]),
                          (dropped, I)):
            rows = everything
            for j, i in enumerate(reversed(drop)):
                rows = steps[k - 1 - j][0][i].take(rows)
            out[:] = rows
    return inside, outside


def _vertex_cover(edges) -> Tuple[set, set]:
    """(lefts, rights): a vertex cover of the bipartite graph with the given
    (left, right) edges, left and right vertices kept apart.  Greedy: the
    vertex on the most edges not yet covered joins it, ties going to the
    first met walking the edges, left before right.  The cover is minimum on
    every polynomial the program multilinearizes; a larger one would cost
    contractions but change no sum.
    """
    cover: Tuple[set, set] = (set(), set())
    while edges:
        (side, vertex), _ = collections.Counter(
            v for edge in edges for v in enumerate(edge)).most_common(1)[0]
        cover[side].add(vertex)
        edges = [edge for edge in edges if edge[side] != vertex]
    return cover


def _cover_groups(poly: FreePoly):
    """(dx, dy, groups) of a bidegree-homogeneous poly: groups maps a key
    (side, shared factor) to the members (c, other factor) of its words, c
    the word's coefficient times the lcm of poly's denominators.

    The keys are the vertices of a greedy vertex cover of the bipartite
    graph whose edges are the words' (left factor, right factor) pairs
    (``_vertex_cover``).  A word L R goes to ("L", L) with member (c, R)
    when L is in the cover, and to ("R", R) with member (c, L) otherwise.
    Each pick covers a word no earlier pick covered, so every key holds a
    word.  A bare leaf c v has no factors: it goes to ("L", None) with
    member (c, v).
    """
    bdegs = poly.bidegrees()
    if len(bdegs) != 1:
        raise ValueError("polynomial is not bidegree-homogeneous")
    (dx, dy), = bdegs
    denom = math.lcm(*(c.denominator for c in poly.terms.values()))
    words = sorted(poly.terms.items(), key=lambda kv: str(kv[0]))
    lefts, _ = _vertex_cover([t for t, _ in words if not isinstance(t, str)])
    groups: Dict[Tuple[str, Optional[FreeTerm]], List] = {}
    for term, coeff in words:
        if isinstance(term, str):
            key, member = ("L", None), term
        elif term[0] in lefts:
            key, member = ("L", term[0]), term[1]
        else:
            key, member = ("R", term[1]), term[0]
        groups.setdefault(key, []).append((int(coeff * denom), member))
    return dx, dy, groups


#: entries per part of a block: check builds the multilinearization for as
#: many out indices at a time as keep the accumulator and every contraction
#: of a group within it, and at least one
_BLOCK_ENTRIES = 1 << 18

#: copies alive at once of the arrays a block needs, the largest factor
#: word tensor, the largest contraction and the accumulator: intermediates
#: of the contractions, of the slot sums and of the gathers, and the
#: engine's tables of sorted tuples (a (2,2,2) check on a fresh engine
#: peaked at 3.5 to 4.7 times those arrays at n = 8 to 12)
_LIVE_ARRAYS = 5


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


class MultilinearEngine:
    """Builds and tests fully multilinearized identity tensors.

    For a word with k variable leaves the unsymmetrized tensor has axes
    (leaf_1 .. leaf_k, out); the full multilinearization of a homogeneous
    polynomial is the sum over all assignments of distinct slot labels to
    equal-variable leaves, realized as axis-permuted sums.  The product is
    bilinear, so the words that share a left factor L cost one contraction
    L * (sum of c * R), those that share a right factor R one contraction
    (sum of c * L) * R, and top-level words are never built; the words are
    split between the two kinds by a greedy vertex cover of their (L, R)
    pairs (``_cover_groups``).  The multilinearization is symmetric in its
    x slots and in its y slots, so it is formed at the sorted slot tuples
    only, and each group's sum over the slot permutations from the sums of
    its two factors over their own (``multilinearization``); no
    unsymmetrized tensor of the whole identity is built.  The out slot is
    never symmetrized, so check builds and tests it one block of out
    indices at a time.  Every tensor comes with an entry bound m.  While a
    rigorous bound stays below 2^52 its arrays hold the exact integers in
    float64 (so BLAS paths stay exact) and m is their measured maximum.
    From 2^52 on they hold float64 residues mod the engine's current prime
    (``multilinearization`` sets it) and m is that rigorous bound:
    ``check`` only tests for zero, so it runs once per prime of a set whose
    product exceeds its bound and never rebuilds an integer.
    """

    def __init__(self, tensor: ScaledTensor):
        self.t = tensor
        #: exact word tensors
        self.cache: Dict[FreeTerm, Tuple] = {}
        #: the prime of the residue tier, and the residue word tensors
        self._prime = _PRIMES[0]
        self._residue_cache: Dict[FreeTerm, Tuple] = {}
        #: the steps of the largest _sorted_plan built, and _splits per
        #: (slots, subset size)
        self._steps: List = []
        self._splits: Dict[Tuple[int, int], Tuple] = {}

    def _contract(self, L, lmax: int, R, rmax: int,
                  out: slice = slice(None)) -> Tuple:
        """(parts, bound): the product tensor of the part tuples L and R,
        each with its output axis last, with axes (L's other axes..., R's
        other axes..., out), at the out indices out only.

        lmax and rmax bound the entries of L and R.  The product is taken
        in two steps, V = R * C and then L * V.  n * rmax * max|C|, times
        1 + 3 when R or C has a sqrt 3 part, rigorously bounds every entry
        and partial sum of V, and bound = n * lmax * max|V|, times 1 + 3
        when L or V has one, those of the product, with max|V| measured
        when V is exact.  Each step is exact in float64 below 2^52, and
        from there on it is taken mod the current prime.  Below 2^52, L, R
        and the constants are exact float64 arrays already.
        """
        t = self.t
        n = t.n
        p = self._prime
        fold = 1 + SQRT_RADICAND
        vbound = n * rmax * t.max_abs * \
            (fold if max(len(R), len(t.parts)) > 1 else 1)
        exact = vbound < _FLOAT_EXACT
        C = [c[:, :, out] for c in (t.parts if exact else t.mod(p))]
        b = C[0].shape[2]
        # V[r, (i, k)] = sum_j R[r, j] C[i, j, k], r over R's other axes
        V = _field_product([x.reshape(-1, n) for x in
                            (R if exact else _mod(R, rmax, p))],
                           [c.transpose(1, 0, 2).reshape(n, n * b)
                            for c in C], None if exact else p)
        vmax = _max_abs(V) if exact else vbound
        bound = n * lmax * vmax * (fold if max(len(L), len(V)) > 1 else 1)
        if bound >= _FLOAT_EXACT:
            L, V = _mod(L, lmax, p), _mod(V, vmax, p)
        else:
            p = None
        # prod[l, (r, k)] = sum_i L[l, i] V[r, i, k]
        prod = _field_product(
            [x.reshape(-1, n) for x in L],
            [np.moveaxis(v.reshape(-1, n, b), 1, 0).reshape(n, -1)
             for v in V], p)
        shape = L[0].shape[:-1] + R[0].shape[:-1] + (b,)
        return tuple(x.reshape(shape) for x in prod), bound

    def word_tensor(self, term: FreeTerm):
        """(*parts, m) with axes = leaves in left-to-right order + out.

        m is the measured magnitude maximum of the exact result, or its
        rigorous bound when that reaches 2^52 and the parts are residues
        mod the current prime; the tier for each node is chosen from a
        rigorous bound derived from the children's m (see _contract).
        """
        got = self.cache.get(term) or self._residue_cache.get(term)
        if got is not None:
            return got
        if isinstance(term, str):
            if term == UNIT:
                raise ValueError(
                    "unit leaves are not supported by the multilinear backend")
            res = (np.eye(self.t.n), 1)
        else:
            *L, lmax = self.word_tensor(term[0])
            *R, rmax = self.word_tensor(term[1])
            parts, bound = self._contract(L, lmax, R, rmax)
            res = (*parts, bound if bound >= _FLOAT_EXACT
                   else _max_abs(parts))
        cache = self._residue_cache if res[-1] >= _FLOAT_EXACT else self.cache
        cache[term] = res
        return res

    def _summed(self, members) -> Tuple:
        """(parts, m) of the sum of c * F over the (c, F) members, each F's
        axes aligned as (x leaves, y leaves, out).

        The sum is exact in float64 while its bound sum |c| * max F stays
        below 2^52, and its maximum is then measured; from 2^52 on it is
        taken mod the current prime, and m is that bound.
        """
        p = self._prime
        terms = []
        for c, factor in members:
            *F, fmax = self.word_tensor(factor)
            xs, ys = _leaf_slots(factor)
            perm = xs + ys + [len(xs) + len(ys)]
            terms.append((c, [np.transpose(x, perm) for x in F], fmax))
        bound = sum(abs(c) * fmax for c, _, fmax in terms)
        width = max(len(F) for _, F, _ in terms)
        if bound < _FLOAT_EXACT:
            S = [sum(c * x for (c, _, _), x in zip(terms, col))
                 for col in zip(*(_padded(F, width) for _, F, _ in terms))]
            return S, _max_abs(S)
        S = []
        for col in zip(*(_padded(_mod(F, fmax, p), width)
                         for _, F, fmax in terms)):
            acc = np.zeros_like(col[0])
            for (c, _, _), x in zip(terms, col):
                # below p + (p - 1)^2 < 2^45: within _fmod's margin
                acc = _fmod(acc + (c % p) * x, p)
            S.append(acc)
        return S, bound

    def _plan(self, k: int):
        """_sorted_plan(n, k): a prefix of the largest plan built on the
        engine."""
        if len(self._steps) < k:
            self._steps = _sorted_plan(self.t.n, k)[1]
        steps = self._steps[:k]
        return steps[-1][1] if k else np.zeros((1, 0), dtype=np.intp), steps

    def _split(self, k: int, a: int):
        """_splits of the sorted k-tuples into a slots and the rest, kept on
        the engine."""
        if (k, a) not in self._splits:
            self._splits[k, a] = _splits(self._plan(k)[1], a)
        return self._splits[k, a]

    def _symmetrized(self, parts, m: int, kx: int, ky: int) -> Tuple:
        """(parts, m) of a factor (axes: kx x slots, ky y slots, out) summed
        over the kx! ky! permutations of its x slots and of its y slots, at
        the sorted x tuples and sorted y tuples (see _sorted_sums), with
        axes (x tuple, y tuple, out).

        The sums are exact in float64 while kx! ky! m stays below 2^52,
        and their maximum is then measured; from 2^52 on they are taken
        mod the current prime, and m is that bound.
        """
        n, p = self.t.n, self._prime
        bound = m * math.factorial(kx) * math.factorial(ky)
        residues = bound >= _FLOAT_EXACT
        if residues:
            parts = _mod(parts, m, p)
        out = []
        for x in parts:
            # one slot or none has one permutation, and every tuple sorted
            S = x.reshape(n ** kx, -1) if kx < 2 else _sorted_sums(
                x.reshape(1, n ** kx, -1), n, kx, self._plan(kx))[0][0]
            if ky > 1:
                S = _sorted_sums(S.reshape(len(S), n ** ky, -1), n, ky,
                                 self._plan(ky))[0]
            S = S.reshape(len(S), -1, n)
            # sums of kx! ky! < 2^31 residues: within _fmod's margin
            out.append(_fmod(S, p) if residues else S)
        return out, bound if residues else _max_abs(out)

    def _group(self, key, members, dx: int, dy: int, out: slice, factors):
        """(parts, bound, xs, ys) of one group of _cover_groups at the out
        indices out: the contraction G' of its two factors, each summed over
        its own slot permutations at sorted tuples (_symmetrized), with one
        row per pair of the factors' tuples and one column per out index; a
        bound on its entries; and the rows of G' that the sorted tuples
        read, per split of the x slots and of the y slots between the
        factors: at the split (I, J), the i-th sorted x tuple and the j-th
        sorted y tuple read the row xs[I][i] + ys[J][j].  The group's sum
        over the dx! dy! slot permutations at the sorted tuples is the sum
        of G' at those rows.  A bare-leaf group has no factors: its sum is
        symmetrized as it is, and read row for row.

        The shared factor's word tensor and the sum of the others
        (_summed) are symmetrized once and kept in factors under key.
        """
        side, shared = key
        if key not in factors:
            S, smax = self._summed(members)
            if shared is None:
                factors[key] = self._symmetrized(S, smax, dx, dy)
            else:
                *F, fmax = self.word_tensor(shared)
                xs, ys = _leaf_slots(shared)
                perm = xs + ys + [len(xs) + len(ys)]
                F = self._symmetrized([np.transpose(f, perm) for f in F],
                                      fmax, len(xs), len(ys))
                S = self._symmetrized(S, smax, dx - len(xs), dy - len(ys))
                factors[key] = (F, S, len(xs), len(ys)) if side == "L" \
                    else (S, F, dx - len(xs), dy - len(ys))
        if shared is None:
            S, smax = factors[key]
            mx, my = S[0].shape[:2]
            return [s[..., out].reshape(mx * my, -1) for s in S], smax, \
                [np.arange(mx) * my], [np.arange(my)]
        (L, lmax), (R, rmax), ax, ay = factors[key]
        G, bound = self._contract(L, lmax, R, rmax, out)
        (mxl, myl), (mxr, myr) = L[0].shape[:2], R[0].shape[:2]
        # G' row of (l, r): (lx * myl + ly) * mxr * myr + rx * myr + ry
        lx, rx = self._split(dx, ax)
        ly, ry = self._split(dy, ay)
        xs = lx * (myl * mxr * myr) + rx * myr
        ys = ly * (mxr * myr) + ry
        return [g.reshape(mxl * myl * mxr * myr, -1) for g in G], bound, \
            xs, ys

    def _sizes(self, dx: int, dy: int, groups) -> Tuple[int, int, int]:
        """(accumulator, contraction, word): the rows of the accumulator and
        of the largest contraction G' of _group, per out index, and the
        entries of the largest factor's word tensor, counted without
        building anything."""
        n = self.t.n

        def rows(kx, ky):
            return math.comb(n + kx - 1, kx) * math.comb(n + ky - 1, ky)

        contraction, leaves = 0, 0
        for side, shared in groups:
            if shared is None:
                leaves = dx + dy
                continue
            fx, fy = term_bidegree(shared)
            contraction = max(contraction,
                              rows(fx, fy) * rows(dx - fx, dy - fy))
            leaves = max(leaves, fx + fy, dx + dy - fx - fy)
        return rows(dx, dy), contraction, n ** (leaves + 1)

    def _refuse_beyond_memory(self, dx: int, dy: int, groups,
                              width: int) -> None:
        """Raise MemoryError, before anything is allocated, when the arrays
        of a block of width out indices would not fit in physical memory:
        the largest factor word tensor, the largest contraction and the
        accumulator (see _sizes), _LIVE_ARRAYS of each."""
        accumulator, contraction, word = self._sizes(dx, dy, groups)
        entries = word + (accumulator + contraction) * width
        need = entries * len(self.t.parts) * 8 * _LIVE_ARRAYS
        have = _physical_memory()
        if have is not None and need > have:
            raise MemoryError(
                f"the multilinear check needs about {need / 2 ** 30:.1f} GiB "
                f"at one out index, more than the {have / 2 ** 30:.1f} GiB "
                "of physical memory")

    def multilinearization(self, poly: FreePoly, p: Optional[int] = None,
                           out: slice = slice(None),
                           factors: Optional[Dict] = None):
        """Full multilinearization of a bidegree-homogeneous poly at the
        sorted x tuples and sorted y tuples, at the out indices out (by
        default all of them).

        Returns (parts, dx, dy, bound).  parts[h][i, j, k] is the sum, over
        all permutations of the dx x slots and of the dy y slots, of the
        unsymmetrized multilinearization at the i-th sorted x tuple, the
        j-th sorted y tuple and the k-th index of out (tuples in
        lexicographic order, see _sorted_plan).  bound bounds every
        entry of it and every partial sum on the way.  While bound < 2^52,
        parts hold the exact integers in float64; beyond, their residues
        mod p (float64, see _fmod), which becomes the engine's current
        prime (by default the first prime of _PRIMES).  factors, a dict,
        keeps the groups' symmetrized factors for further calls on the same
        poly and prime.

        The words are grouped by a greedy vertex cover of their (left
        factor, right factor) pairs (see _cover_groups).  Per group the
        factors on the unshared side are summed with their coefficients,
        slots aligned, into one tensor (see _summed).  The product is
        bilinear, so a group's sum over the slot permutations at sorted
        tuples t, u is the sum, over the sets I of the x slots and J of the
        y slots that its left factor takes, of G'(t_I, u_J; t_notI,
        u_notJ): the contraction of the two factors each summed over its
        own slot permutations (see _group).  Every t_I of a sorted t is
        sorted, so G' is built at sorted tuples only, once per group, with
        only the out indices out of the constants taken, and read by a
        gather per (I, J) that is added in place into the accumulator.
        The accumulator is exact float64 while running stays below 2^52,
        and residues from there on.  running sums the groups' contraction
        bounds times their numbers of gathers; where that sum would leave
        float64 while the new group is exact, it is replaced by the
        measured maxima of the accumulator and of the new group.  Either
        way it bounds every partial sum of the accumulation.  MemoryError
        is raised before anything is allocated when the out indices would
        not fit in physical memory.
        """
        dx, dy, groups = _cover_groups(poly)
        n = self.t.n
        width = len(range(n)[out])
        self._refuse_beyond_memory(dx, dy, groups, width)
        p = _PRIMES[0] if p is None else p
        if p != self._prime:
            self._prime, self._residue_cache = p, {}
        factors = {} if factors is None else factors
        self._plan(max(dx, dy))  # the others are its prefixes
        shape = (math.comb(n + dx - 1, dx), math.comb(n + dy - 1, dy), width)
        acc = tuple(np.zeros((shape[0] * shape[1], width))
                    for _ in self.t.parts)
        # the rows one gather reads, and what it reads
        index = np.empty(shape[:2], dtype=np.intp)
        buf = np.empty_like(acc[0])
        residues = False
        running = 0  # exact bound on the accumulated entries
        for key, members in groups.items():
            G, bound, xs, ys = self._group(key, members, dx, dy, out,
                                           factors)
            gathers = len(xs) * len(ys)
            if not residues and bound < _FLOAT_EXACT <= \
                    running + bound * gathers:
                # the bounds would leave float64: measure what they bound
                running = _max_abs(acc) + _max_abs(G) * gathers
            else:
                running += bound * gathers
            if not residues and running >= _FLOAT_EXACT:
                residues = True
                acc = _reduce(acc, p)
            if residues and bound < _FLOAT_EXACT:
                G = _reduce(G, p)
            for x in xs:
                for y in ys:
                    np.add(x[:, None], y, out=index)
                    for a, g in zip(acc, G):
                        a += np.take(g, index.ravel(), axis=0, out=buf)
        if residues:
            # fewer than 2^31 gathers of residues: within _fmod's margin
            acc = tuple(_fmod(a, p) for a in acc)
        return tuple(a.reshape(shape) for a in acc), dx, dy, running

    def _masks(self, poly: FreePoly, blocks):
        """The masks of check: per block of out indices, whether the
        multilinearization is nonzero at each (sorted x tuple, sorted y
        tuple), first for every block at the first prime, then for every
        residue block at each further prime that the largest residue
        block's bound asks for (_primes)."""
        def nonzero(parts):
            return np.any([np.any(x != 0, axis=-1) for x in parts], axis=0)

        p = _PRIMES[0]
        residue, top, factors = [], 0, {}
        for block in blocks:
            parts, _, _, bound = self.multilinearization(poly, p, block,
                                                         factors)
            if bound >= _FLOAT_EXACT:
                residue.append(block)
                top = max(top, bound)
            yield nonzero(parts)
        for q in _primes(top)[1:]:
            factors = {}
            for block in residue:
                yield nonzero(self.multilinearization(poly, q, block,
                                                      factors)[0])

    def check(self, poly: FreePoly):
        """(holds, witness_basis_tuple or None): tests the multilinearized
        identity on all basis tuples; the first failing tuple in
        lexicographic order is reported.

        The multilinearization is symmetric in its x slots and in its y
        slots, so a tuple is nonzero exactly when its sorting is, and the
        sorting is no later in lexicographic order: the first failing tuple
        has sorted x slots and sorted y slots, and only those are formed
        (see multilinearization).  The out slot is not permuted, so the
        multilinearization is built one block of out indices at a time,
        as many as keep the accumulator and every contraction within
        _BLOCK_ENTRIES entries per part, and at least one; a tuple fails
        when it is nonzero in any block.  A block whose bound reaches 2^52
        is tested once per prime of _primes(bound), bound the largest such
        block bound, with the primes outer and the blocks inner so that each
        prime's residue word tensors and symmetrized factors are built
        once.  A failure at the first sorted tuple is the witness whatever
        the other blocks and primes hold, so the check stops there.
        """
        dx, dy, groups = _cover_groups(poly)
        n = self.t.n
        rows = max(self._sizes(dx, dy, groups)[:2])
        width = min(n, max(1, _BLOCK_ENTRIES // rows))
        blocks = [slice(lo, lo + width) for lo in range(0, n, width)]
        nz = None
        for mask in self._masks(poly, blocks):
            nz = mask if nz is None else nz | mask
            if nz[0, 0]:
                break
        if not nz.any():
            return True, None
        i, j = np.unravel_index(np.argmax(nz), nz.shape)
        return False, (tuple(int(a) for a in self._plan(dx)[0][i]),
                       tuple(int(b) for b in self._plan(dy)[0][j]))
