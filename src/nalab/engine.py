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
product exceeds the bound.  The symbolic product rebuilds the rows left
after aggregation from their residues by CRT; the multilinear check and the
witness search only test for zero, so they run one prime at a time and
rebuild nothing.  Symbolic values are stored as float64 arrays, or as
object arrays of Python ints when rebuilt by CRT or formed past 2^52 by
``sym_scale`` and ``sym_combine``.
"""

from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactmath import SQRT_RADICAND, QuadExt
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
    (aa' + 3bb', ab' + ba'): A's parts are (m, k) and B's (k, p) matrices.

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
        out = _matmul(np.block([[a, b3], [b, a]]), np.concatenate(B), p)
        return out[:len(a)], out[len(a):]
    return tuple(_matmul(P, Q, p) for P in A for Q in B)


def _max_abs(parts) -> int:
    """Largest entry magnitude over all parts, at least 1."""
    return max([1] + [max(int(p.max()), -int(p.min()))
                      for p in parts if p.size])


def _tier(bound: int) -> str:
    """The tier of a product whose entries and partial sums are below
    bound: "f" (float64, exact) below 2^52, "o" beyond.  The identity
    kernels hold "o" values as residues mod primes (``_primes``);
    sym_scale, sym_combine and the composition form hold them in object
    dtype (Python ints).  The tiers order as strings: "f" < "o"."""
    return "f" if bound < _FLOAT_EXACT else "o"


def _padded(parts, width: int) -> Tuple:
    """parts with zero sqrt 3 parts appended up to width."""
    return tuple(parts) + tuple(np.zeros_like(parts[0])
                                for _ in range(width - len(parts)))


def _to_kind(arr, kind: str):
    """Convert an exact integer-valued array between float64 ("f") and
    object ("o").  The caller's bound guarantees that the entries fit the
    target kind.
    """
    if kind == "f":
        return arr if arr.dtype == np.float64 else arr.astype(np.float64)
    # floats hold exact ints below 2^53, so the round trip is exact
    if arr.dtype == np.float64:
        return arr.astype(np.int64).astype(object)
    return arr.astype(object) if arr.dtype != object else arr


def _cast(parts, kind: str) -> Tuple:
    """_to_kind on every part."""
    return tuple(_to_kind(p, kind) for p in parts)


class ScaledTensor:
    """Structure constants as integer arrays: c = (parts[0] + parts[1]*sqrt 3)
    / scale, with parts[1] present only when some constant has a sqrt 3
    part.  Built from the nonzero constants: sparse[i][j] lists the (k, c)
    pairs with c = c[i][j][k] nonzero, c a Fraction or a QuadExt."""

    __slots__ = ("n", "scale", "parts", "max_abs", "_mod")

    def __init__(self, n: int, sparse):
        # (flat index, rational part, sqrt 3 part) of every nonzero constant
        nonzero = [((i * n + j) * n + k,) + ((c.a, c.b) if isinstance(
                       c, QuadExt) else (c, 0))
                   for i, row in enumerate(sparse)
                   for j, cell in enumerate(row) for k, c in cell]
        scale = math.lcm(*(x.denominator for _, a, b in nonzero
                           for x in (a, b)))
        values = [[x.numerator * (scale // x.denominator) for x in (a, b)]
                  for _, a, b in nonzero]
        width = 2 if any(b for _, b in values) else 1
        self.n = n
        self.scale = scale
        self.max_abs = max([1] + [abs(x) for v in values for x in v])
        # constants from 2^52 on stay Python ints: max_abs then sends every
        # product to the residue tier
        dtype = np.float64 if self.max_abs < _FLOAT_EXACT else object
        where = np.array([pos for pos, _, _ in nonzero], dtype=np.intp)
        parts = []
        for h in range(width):
            flat = np.zeros(n ** 3, dtype=dtype)
            flat[where] = np.array([v[h] for v in values], dtype=dtype)
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
    (Python ints) when formed past 2^52 or by constant_like.  A value rebuilt
    from residues keeps them, by prime, in ``residues`` (None otherwise),
    so later products need not reduce its big ints again.
    """

    __slots__ = ("nvars", "bits", "degrees", "denom_power", "keys", "parts",
                 "max_abs", "residues")

    def __init__(self, nvars, bits, degrees, denom_power, keys, parts,
                 max_abs, residues=None):
        self.nvars = nvars
        self.bits = bits
        self.degrees = degrees
        self.denom_power = denom_power
        self.keys = keys
        self.parts = parts
        self.max_abs = max_abs
        self.residues: Optional[Dict[int, Tuple]] = residues

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
        pairs = [(c.a, c.b) if isinstance(c, QuadExt)
                 else (Fraction(c), Fraction(0)) for c in coords]
        scale = math.lcm(*(q.denominator for pair in pairs for q in pair))
        parts = tuple(np.array([[int(pair[h] * scale) for pair in pairs]],
                               dtype=object)
                      for h in range(2 if any(b for _, b in pairs) else 1))
        return SymVec(self.nvars, self.bits, (0,) * len(self.degrees), 0,
                      np.zeros(1, dtype=self.keys.dtype), parts,
                      _max_abs(parts))

    def zero_like(self, degrees, denom_power, n) -> "SymVec":
        """The zero element over the same variables and key width."""
        return SymVec(self.nvars, self.bits, degrees, denom_power,
                      self.keys[:0], (np.zeros((0, n)),), 1)


#: rows gathered at once in _aggregate (a key's rows are never split): a
#: product is never copied whole into key order
_AGGREGATE_ROWS = 1 << 13


def _runs(keys):
    """(order, bounds, unique keys): one stable argsort orders the keys, and
    the rows order[bounds[r]:bounds[r + 1]] hold the r-th unique key."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], sorted_keys[1:] != sorted_keys[:-1])))
    return order, np.append(starts, len(keys)), sorted_keys[starts]


def _run_sums(parts, order, bounds) -> List[np.ndarray]:
    """The rows of every part summed over each run of _runs, by
    np.add.reduceat over blocks of whole runs of about _AGGREGATE_ROWS rows.
    Each part keeps its dtype: float64 sums are exact while the caller's
    bound holds every partial sum below 2^53."""
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
    return np.any([np.any(s != 0, axis=1) for s in sums], axis=0)


def _aggregate(keys, parts, n):
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


def _sym_residues(x: SymVec, p: int) -> Tuple:
    """x's parts mod p: kept from the product that built x, or reduced."""
    if x.residues and p in x.residues:
        return x.residues[p]
    return _reduce(x.parts, p)


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
    if bound < _FLOAT_EXACT:
        out = _product_rows(*(_cast(x.parts, "f") for x in (u, v, t)), n)
        keys = (v.keys[:, None] + u.keys[None, :]).reshape(-1)
        return SymVec(u.nvars, u.bits, degrees, dp,
                      *_aggregate(keys, out, n))
    # residues mod primes whose product exceeds 2 * bound, one prime at a
    # time, summed by key (at most min(P, Q) < 2^31 residues a key, within
    # _fmod's margin); a row is zero when all its residues are, and the
    # others are rebuilt, signs included, by CRT
    order, bounds, uk = _runs((v.keys[:, None] + u.keys[None, :]).reshape(-1))
    primes = _primes(2 * bound)
    sums = []
    for p in primes:
        out = _product_rows(_sym_residues(u, p), _sym_residues(v, p),
                            t.mod(p), n, p)
        sums.append([_fmod(s, p) for s in _run_sums(out, order, bounds)])
        del out
    live = _live([s for per_prime in sums for s in per_prime])
    sums = [[s[live] for s in per_prime] for per_prime in sums]
    parts = tuple(_crt([(per_prime[h] % p).astype(np.int64)
                        for per_prime, p in zip(sums, primes)], primes)
                  for h in range(len(sums[0])))
    return SymVec(u.nvars, u.bits, degrees, dp, uk[live], parts,
                  _max_abs(parts), dict(zip(primes, map(tuple, sums))))


def sym_scale(s: SymVec, v: SymVec) -> SymVec:
    """The product of the scalar s (one coordinate column) and the vector v:
    keys add, every row of s's parts multiplies every row of v's, and equal
    keys are summed."""
    m = v.parts[0].shape[1]
    degrees = _product_degrees(s, v)
    P, Q = len(s.keys), len(v.keys)
    dp = s.denom_power + v.denom_power
    if P == 0 or Q == 0:
        return v.zero_like(degrees, dp, m)
    # each entry is one product (two under the sqrt 3 rule) and a key sums
    # at most min(P, Q) of them
    fold = 1 + SQRT_RADICAND if max(len(s.parts), len(v.parts)) > 1 else 1
    kind = _tier(min(P, Q) * s.max_abs * v.max_abs * fold)
    out = _field_product(_cast(s.parts, kind),
                         [p.reshape(1, Q * m) for p in _cast(v.parts, kind)])
    keys = (s.keys[:, None] + v.keys[None, :]).reshape(-1)
    return SymVec(v.nvars, v.bits, degrees, dp,
                  *_aggregate(keys, [o.reshape(P * Q, m) for o in out], m))


def sym_coordinate(v: SymVec, k: int) -> SymVec:
    """Coordinate k of v, as a scalar (one coordinate column)."""
    cols = [p[:, k:k + 1] for p in v.parts]
    live = np.any([c[:, 0] != 0 for c in cols], axis=0)
    cols = [c[live] for c in cols]
    return SymVec(v.nvars, v.bits, v.degrees, v.denom_power, v.keys[live],
                  tuple(cols), _max_abs(cols))


def sym_combine(terms: Sequence[Tuple[int, SymVec]], n: int) -> SymVec:
    """Integer linear combination of symbolic elements (same denom_power)."""
    first = terms[0][1]
    degrees = tuple(map(max, zip(*(s.degrees for _, s in terms))))
    live = [(c, s) for c, s in terms if c != 0 and len(s.keys)]
    if not live:
        return first.zero_like(degrees, first.denom_power, n)
    dp = live[0][1].denom_power
    if any(s.denom_power != dp for _, s in live):
        raise ValueError("mixed denominator powers in combination")
    kind = _tier(sum(abs(c) * s.max_abs for c, s in live))
    width = max(len(s.parts) for _, s in live)
    keys = np.concatenate([s.keys for _, s in live])
    scaled = [[p * c for p in _cast(_padded(s.parts, width), kind)]
              for c, s in live]
    return SymVec(first.nvars, first.bits, degrees, dp,
                  *_aggregate(keys, [np.concatenate(col)
                                     for col in zip(*scaled)], n))


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
    Laplace expansions over row subsets; those of kept rows only are kept
    for later rows.  Scaling a row by a nonzero constant changes no rank, so
    the rows' denom_power is dropped.
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
                minors[S] = sym_combine(
                    [((-1) ** (i + size - 1),
                      sym_scale(sym_coordinate(rows[s], col),
                                minors[S[:i] + S[i + 1:]]))
                     for i, s in enumerate(S)], 1)
        full = tuple(range(d + 1))
        w = sym_combine([((-1) ** r, sym_scale(minors[full[:r] + full[r + 1:]],
                                               rows[r]))
                         for r in full], v.parts[0].shape[1])
        if sym_is_zero(w):
            return False
        k = int(np.flatnonzero(np.any([p != 0 for p in w.parts],
                                      axis=(0, 1)))[0])
        minors[full] = sym_combine([((-1) ** d, sym_coordinate(w, k))], 1)
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


def sym_exponents(v: SymVec, n: int) -> List[np.ndarray]:
    """The exponents of v's keys, one (K, n) int64 array per group of n
    variables."""
    shifts = np.arange(v.nvars) * v.bits
    mask = (1 << v.bits) - 1
    if v.keys.dtype == object:
        E = (v.keys[:, None] >> shifts.astype(object)) & mask
    else:
        E = (v.keys[:, None] >> shifts.astype(np.uint64)) & np.uint64(mask)
    E = E.astype(np.int64)
    return [E[:, g * n:(g + 1) * n] for g in range(v.nvars // n)]


#: entries of the (points, monomials, variables) array of powers formed at
#: once in monomial_values
_POWER_CHUNK = 1 << 20


def monomial_values(E: np.ndarray, points) -> np.ndarray:
    """(C, K): the value at each integer point (row of points, (C, n)) of
    each monomial whose exponents are a row of E (K, n), exactly: int64
    while max|point| ** degree stays below 2^62, Python ints beyond."""
    P = np.asarray(points, dtype=np.int64)
    top = int(np.abs(P).max(initial=0)) ** int(E.sum(axis=1).max(initial=0))
    dtype = np.int64 if top < 1 << 62 else object
    P, E = P.astype(dtype), E.astype(dtype)
    step = max(1, _POWER_CHUNK // max(1, E.size))
    return np.concatenate([np.prod(P[lo:lo + step, None, :] ** E[None], axis=2)
                           for lo in range(0, len(P), step)])


def sym_nonzero_at(v: SymVec, M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """For each row c of M (C, K), is sum_k M[c, k] w[k] v_k nonzero, v_k
    the coordinate row of v's k-th key?  That sum is v at a point whose
    monomial values are M[c, k] w[k]; it is zero exactly when its rational
    part and its sqrt 3 part are.  Only the keys with w != 0 are used, and
    the tier comes from the bound K' max|M| max|w| max|v| over those K'
    keys, so the test is exact.  Past 2^62 the sums are taken mod primes
    whose product exceeds the bound, K' keys a block at a time, with no
    rebuild: a sum is nonzero exactly when one of its residues is."""
    live = np.flatnonzero(w)
    M, w = M[:, live], w[live]
    bound = len(live) * _max_abs([M]) * _max_abs([w]) * v.max_abs
    if bound < _FLOAT_EXACT:
        w = _to_kind(w, "f")[:, None]
        out = _field_product((_to_kind(M, "f"),),
                             [_to_kind(p[live], "f") * w for p in v.parts])
        return np.any([np.any(o != 0, axis=1) for o in out], axis=0)
    nonzero = np.zeros(len(M), dtype=bool)
    for p in _primes(bound):
        Mp, wp = _residues(M, p), _residues(w, p)[:, None]
        width = _residue_width(p)
        for part in v.parts:
            # products of two residues are at most (p - 1)^2 < 2^44, and
            # the blocks' residues sum below K p: within _fmod's margin
            x = _fmod(_residues(part[live], p) * wp, p)
            acc = sum(_matmul(Mp[:, lo:lo + width], x[lo:lo + width], p)
                      for lo in range(0, len(live), width))
            nonzero |= np.any(_fmod(acc, p) != 0, axis=1)
    return nonzero


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


def _sorted_sums(T, n: int, k: int):
    """(S, tuples): the sums of T (shape (B, n^k, m)) over all permutations
    of its k slot axes, at the nondecreasing k-tuples only.

    tuples (M, k) lists the nondecreasing tuples in lexicographic order and
    S[b, r] = sum over the k! permutations sigma of T[b, sigma(tuples[r])].
    The sum is built one slot at a time: with the first j slots summed at
    sorted tuples and the others free, the sum at a sorted (j+1)-tuple t
    adds, for each position i, the j-slot sum at t without t_i with t_i in
    slot j (a coset decomposition of the symmetric group, so j+1 gathers
    per slot rather than k! in all).  Every partial sum is a sum of some of
    the k! permuted entries.
    """
    B, m = T.shape[0], T.shape[-1]
    tuples = np.zeros((1, 0), dtype=np.intp)
    last = np.zeros(1, dtype=np.intp)
    drops: List = []  # drops[i][r]: the row of tuples[r] without slot i
    V = T.reshape(B, 1, -1)
    for j in range(k):
        # the sorted (j+1)-tuples, in order: each sorted j-tuple extended by
        # every value no smaller than its last
        parent, a = np.nonzero(np.arange(n) >= last[:, None])
        if drops:
            # row[q, v]: the row of the sorted (j-1)-tuple q extended by v
            row = np.empty((rows_before, n), dtype=np.intp)
            row[built] = np.arange(len(tuples))
            drops = [row[d[parent], a] for d in drops]
        drops.append(parent)
        rows_before, built = len(tuples), (parent, a)
        tuples = np.column_stack([tuples[parent], a])
        last = a
        V4 = V.reshape(B, -1, n, n ** (k - j - 1) * m)
        if j == 0:
            V = V4[:, 0]
        else:
            V = V4[:, drops[0], tuples[:, 0]]
            for i in range(1, j + 1):
                V += V4[:, drops[i], tuples[:, i]]
    return V, tuples


class MultilinearEngine:
    """Builds and tests fully multilinearized identity tensors.

    For a word with k variable leaves the unsymmetrized tensor has axes
    (leaf_1 .. leaf_k, out); the full multilinearization of a homogeneous
    polynomial is the sum over all assignments of distinct slot labels to
    equal-variable leaves, realized as axis-permuted sums.  The product is
    bilinear, so the words of a polynomial that share a left factor L cost
    one contraction L * (sum of c * R), and top-level words are never built.
    Every tensor comes with an entry bound m.  While a rigorous bound stays
    below 2^52 its arrays hold the exact integers in float64 (so BLAS paths
    stay exact) and m is their measured maximum.  From 2^52 on they hold
    float64 residues mod the engine's current prime (``multilinearization``
    sets it) and m is that rigorous bound: ``check`` only tests for zero,
    so it runs once per prime of a set whose product exceeds its bound and
    never rebuilds an integer.
    """

    #: cache word tensors only up to this many variable leaves; larger ones
    #: (from 8^6 * 8 B = 2 MB per part at dim 8) are rebuilt on demand to
    #: bound memory
    _CACHE_LEAVES = 4

    def __init__(self, tensor: ScaledTensor):
        self.t = tensor
        #: exact word tensors
        self.cache: Dict[FreeTerm, Tuple] = {}
        #: the prime of the residue tier, and the residue word tensors
        self._prime = _PRIMES[0]
        self._residue_cache: Dict[FreeTerm, Tuple] = {}

    def _contract(self, L, lmax: int, R, rmax: int) -> Tuple:
        """(parts, bound): the product tensor of the part tuples L and R,
        each with its output axis last, with axes (L's leaf axes..., R's
        leaf axes..., out).

        lmax and rmax bound the entries of L and R.  bound = n^2 * lmax *
        rmax * max|C|, times (1 + 3)^2 when a sqrt 3 part is present, is a
        rigorous bound on every entry and every intermediate partial sum;
        the exact float64 product is used only below 2^52, and from there on
        the product is taken mod the current prime.  Below 2^52, L, R and
        the constants are exact float64 arrays already.
        """
        t = self.t
        n = t.n
        p = self._prime
        fold = (1 + SQRT_RADICAND) ** 2 \
            if max(map(len, (L, R, t.parts))) > 1 else 1
        bound = n * n * lmax * rmax * t.max_abs * fold
        if bound >= _FLOAT_EXACT:
            L, R, C = _mod(L, lmax, p), _mod(R, rmax, p), t.mod(p)
        else:
            C, p = t.parts, None
        nl, nr = L[0].ndim - 1, R[0].ndim - 1
        # V[r, (i, k)] = sum_j R[r, j] C[i, j, k], r over R's leaf axes
        V = _field_product([x.reshape(-1, n) for x in R],
                           [c.transpose(1, 0, 2).reshape(n, n * n)
                            for c in C], p)
        # out[l, (r, k)] = sum_i L[l, i] V[r, i, k]
        out = _field_product(
            [x.reshape(-1, n) for x in L],
            [np.moveaxis(v.reshape(-1, n, n), 1, 0).reshape(n, -1)
             for v in V], p)
        return tuple(o.reshape((n,) * (nl + nr + 1)) for o in out), bound

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
        if isinstance(term, str) or res[0].ndim - 1 <= self._CACHE_LEAVES:
            cache = self._residue_cache if res[-1] >= _FLOAT_EXACT \
                else self.cache
            cache[term] = res
        return res

    def _summed_right(self, members) -> Tuple:
        """(parts, m) of the sum of c * R over the (c, R) members, each R's
        axes aligned as (x leaves, y leaves, out).

        The sum is exact in float64 while its bound sum |c| * max R stays
        below 2^52, and its maximum is then measured; from 2^52 on it is
        taken mod the current prime, and m is that bound.
        """
        p = self._prime
        terms = []
        for c, right in members:
            *R, rmax = self.word_tensor(right)
            xs, ys = _leaf_slots(right)
            perm = xs + ys + [len(xs) + len(ys)]
            terms.append((c, [np.transpose(x, perm) for x in R], rmax))
        bound = sum(abs(c) * rmax for c, _, rmax in terms)
        width = max(len(R) for _, R, _ in terms)
        if bound < _FLOAT_EXACT:
            S = [sum(c * x for (c, _, _), x in zip(terms, col))
                 for col in zip(*(_padded(R, width) for _, R, _ in terms))]
            return S, _max_abs(S)
        S = []
        for col in zip(*(_padded(_mod(R, rmax, p), width)
                         for _, R, rmax in terms)):
            acc = np.zeros_like(col[0])
            for (c, _, _), x in zip(terms, col):
                # below p + (p - 1)^2 < 2^45: within _fmod's margin
                acc = _fmod(acc + (c % p) * x, p)
            S.append(acc)
        return S, bound

    def multilinearization(self, poly: FreePoly, p: Optional[int] = None):
        """Unsymmetrized multilinearization tensor of a bidegree-homogeneous
        poly.

        Axes: dx slots for the x-copies, then dy slots for the y-copies,
        then the output coordinate.  Returns (parts, dx, dy, bound).  The
        full multilinearization is the sum of parts over all permutations of
        the x slots and of the y slots; check forms that sum where it needs
        it.  bound bounds every entry of it and every partial sum on the way.
        While bound < 2^52, parts hold the exact integers in float64;
        beyond, their residues mod p (float64, see _fmod), which becomes the
        engine's current prime (by default the first prime of _PRIMES).

        The words are grouped by their left factor L.  Per group the right
        factors are summed with their coefficients, slots aligned, into one
        small tensor R (see _summed_right); L * R is contracted once,
        transposed into the slot order (x leaves of L, then of R, y leaves
        of L, then of R, out) and added in place into the accumulator.  A
        bare-leaf word has no left factor: its R is added as it is.  The
        accumulator is exact float64 while running * dx! * dy! stays below
        2^52, and residues from there on.  running sums the groups'
        contraction bounds; where that sum would leave float64 while the
        new group is exact, it is replaced by the measured maxima of the
        accumulator and of the new group.  Either way it bounds every
        partial sum of the accumulation and of the permutation sums in
        check.
        """
        bdegs = poly.bidegrees()
        if len(bdegs) != 1:
            raise ValueError("polynomial is not bidegree-homogeneous")
        dx, dy = next(iter(bdegs))
        p = _PRIMES[0] if p is None else p
        if p != self._prime:
            self._prime, self._residue_cache = p, {}
        denom = math.lcm(*(c.denominator for c in poly.terms.values()))
        groups: Dict[Optional[FreeTerm], List] = {}
        for term, coeff in sorted(poly.terms.items(),
                                  key=lambda kv: str(kv[0])):
            left, right = (None, term) if isinstance(term, str) else term
            groups.setdefault(left, []).append((int(coeff * denom), right))
        slots = math.factorial(dx) * math.factorial(dy)
        U = tuple(np.zeros((self.t.n,) * (dx + dy + 1))
                  for _ in self.t.parts)
        residues = False
        running = 0  # exact bound on the accumulated entries
        for left, members in groups.items():
            R, rmax = self._summed_right(members)
            if left is None:
                G, bound, perm = R, rmax, list(range(R[0].ndim))
            else:
                *L, lmax = self.word_tensor(left)
                G, bound = self._contract(L, lmax, R, rmax)
                xs, ys = _leaf_slots(left)
                right = list(range(len(xs) + len(ys), G[0].ndim))
                perm = xs + right[:dx - len(xs)] + ys + right[dx - len(xs):]
            if not residues and bound < _FLOAT_EXACT <= \
                    (running + bound) * slots:
                # the bounds would leave float64: measure what they bound
                running = _max_abs(U) + _max_abs(G)
            else:
                running += bound
            if not residues and running * slots >= _FLOAT_EXACT:
                residues = True
                U = _reduce(U, p)
            for u, g in zip(U, G):
                g = np.transpose(g, perm)
                u += _residues(g, p) if residues and bound < _FLOAT_EXACT \
                    else g
        if residues:
            # fewer than 2^31 groups of residues: within _fmod's margin
            U = tuple(_fmod(u, p) for u in U)
        return U, dx, dy, running * slots

    def _nonzero(self, U, dx: int, dy: int, p: Optional[int]):
        """(mask, X, Y): mask[i, j] tells whether the sum of U (residues mod
        p when p is given) over the dx! dy! slot permutations is nonzero at
        the sorted x tuple X[i] and the sorted y tuple Y[j]; see check."""
        n = self.t.n
        S = []
        for u in U:
            Sx, X = _sorted_sums(u.reshape(1, n ** dx, -1), n, dx)
            Sxy, Y = _sorted_sums(Sx.reshape(len(X), n ** dy, n), n, dy)
            # sums of dx! dy! < 2^31 residues: within _fmod's margin
            S.append(Sxy if p is None else _fmod(Sxy, p))
        return np.any([np.any(s != 0, axis=-1) for s in S], axis=0), X, Y

    def check(self, poly: FreePoly):
        """(holds, witness_basis_tuple or None): tests the multilinearized
        identity on all basis tuples; the first failing tuple in
        lexicographic order is reported.

        The multilinearization is symmetric in its x slots and in its y
        slots, so a tuple is nonzero exactly when its sorting is, and the
        sorting is no later in lexicographic order: the first failing tuple
        has sorted x slots and sorted y slots.  So the sum over the dx! dy!
        slot permutations of the accumulator is formed at those tuples only
        (see _sorted_sums).  When the accumulator's bound reaches 2^52, that
        is done once per prime of _primes(bound), one prime at a time, and
        a tuple fails when its sum is nonzero mod any of them.
        """
        U, dx, dy, bound = self.multilinearization(poly)
        residues = bound >= _FLOAT_EXACT
        nz, X, Y = self._nonzero(U, dx, dy, _PRIMES[0] if residues else None)
        if residues:
            for q in _primes(bound)[1:]:
                del U
                U = self.multilinearization(poly, q)[0]
                nz |= self._nonzero(U, dx, dy, q)[0]
        if not nz.any():
            return True, None
        i, j = divmod(int(np.argmax(nz)), len(Y))
        return False, (tuple(int(a) for a in X[i]),
                       tuple(int(b) for b in Y[j]))
