"""Integer kernels for exact identity checking on structure-constant algebras.

Structure constants are cleared of denominators once per algebra, after which
symbolic evaluation of identities reduces to integer tensor arithmetic: a
symbolic element is a polynomial whose coefficients are integer coordinate
vectors, and a fully multilinearized identity is an integer tensor indexed by
basis tuples.  Every exact value is a tuple of parts: one integer array for a
rational value, or two (rational part, sqrt d part) for a value in Q(sqrt d).
One rule, ``_field_product``, multiplies part tuples under any bilinear numpy
operation.  Everything is exact; int64 arrays are used while a rigorous
magnitude bound permits, with an object-dtype (big-int) fallback otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactmath import QuadExt
from .freealg import FreePoly, FreeTerm, UNIT, X, Y, term_bidegree

_INT64_LIMIT = 1 << 62
_FLOAT_EXACT = 1 << 52


def _field_product(op: Callable, A: Tuple, B: Tuple, d: int) -> Tuple:
    """op on part tuples by the rule (a, b)(a', b') = (aa' + d*bb', ab' + ba').

    op is any bilinear array operation.  A missing sqrt(d) part is zero, so
    the result has one exactly when a factor has one.
    """
    out = {}
    for i, P in enumerate(A):
        for j, Q in enumerate(B):
            Z = op(P, Q) * d if i and j else op(P, Q)
            out[i ^ j] = out[i ^ j] + Z if i ^ j in out else Z
    return tuple(out.values())


def _max_abs(parts) -> int:
    """Largest entry magnitude over all parts, at least 1."""
    return max([1] + [int(np.abs(p).max()) for p in parts if p.size])


def _padded(parts, width: int) -> Tuple:
    """parts with zero sqrt(d) parts appended up to width."""
    return tuple(parts) + tuple(np.zeros_like(parts[0])
                                for _ in range(width - len(parts)))


def _to_kind(arr, kind: str):
    """Convert an exact integer-valued array between float64/int64/object."""
    if kind == "f":
        return arr if arr.dtype == np.float64 else arr.astype(np.float64)
    if kind == "i":
        return arr.astype(np.int64) if arr.dtype == np.float64 else arr
    # object: floats hold exact ints < 2^52, so the round trip is exact
    if arr.dtype == np.float64:
        return arr.astype(np.int64).astype(object)
    return arr.astype(object) if arr.dtype != object else arr


def _cast(parts, kind: str) -> Tuple:
    """_to_kind on every part."""
    return tuple(_to_kind(p, kind) for p in parts)


class ScaledTensor:
    """Structure constants as integer arrays: c = (parts[0] + parts[1]*sqrt(d))
    / scale, with parts[1] present only when some constant has a sqrt(d)
    part."""

    __slots__ = ("n", "scale", "parts", "d", "max_abs")

    def __init__(self, constants, d: int = 3):
        n = len(constants)
        pairs = [(c.a, c.b) if isinstance(c, QuadExt) else
                 (Fraction(c), 0)
                 for plane in constants for row in plane for c in row]
        scale = math.lcm(*(x.denominator for p in pairs for x in p))
        parts = tuple(np.array([int(p[h] * scale) if p[h] else 0
                                for p in pairs],
                               dtype=object).reshape(n, n, n)
                      for h in range(2))
        if not np.any(parts[1] != 0):
            parts = parts[:1]
        self.n = n
        self.scale = scale
        self.d = d
        self.max_abs = _max_abs(parts)
        # constants too wide for int64 stay Python ints: max_abs then sends
        # every product to the object tier
        if self.max_abs < _INT64_LIMIT:
            parts = tuple(p.astype(np.int64) for p in parts)
        self.parts = parts


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
    tuple; true coordinates are (parts[0] + parts[1]*sqrt(d)) /
    scale**denom_power.
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
                   (np.eye(n, dtype=np.int64),), 1)

    def zero_like(self, degrees, denom_power, n) -> "SymVec":
        """The zero element over the same variables and key width."""
        return SymVec(self.nvars, self.bits, degrees, denom_power,
                      self.keys[:0], (np.zeros((0, n), dtype=np.int64),), 1)


def _aggregate(keys, parts, n):
    """Sum the rows of every part by key and drop rows zero in all parts.

    Returns (sorted unique keys, summed parts, max_abs).
    """
    uk, inv = np.unique(keys, return_inverse=True)
    sums = []
    for p in parts:
        s = np.zeros((len(uk), n), dtype=p.dtype)
        np.add.at(s, inv, p)
        sums.append(s)
    live = np.any([np.any(s != 0, axis=1) for s in sums], axis=0)
    if not live.all():
        uk, sums = uk[live], [s[live] for s in sums]
    return uk, tuple(sums), _max_abs(sums)


def sym_product(u: SymVec, v: SymVec, t: ScaledTensor) -> SymVec:
    """Algebra product of symbolic elements via the structure tensor."""
    n = t.n
    degrees = tuple(a + b for a, b in zip(u.degrees, v.degrees))
    if max(degrees) >= 1 << u.bits:
        raise ValueError(f"an exponent of degree {max(degrees)} does not "
                         f"fit in {u.bits} bits")
    P, Q = len(u.keys), len(v.keys)
    dp = u.denom_power + v.denom_power + 1
    if P == 0 or Q == 0:
        return u.zero_like(degrees, dp, n)
    # rigorous magnitude bound: per (p,q,k) entry then aggregation multiplicity
    fold = (1 + t.d) ** 2 if max(map(len, (u.parts, v.parts, t.parts))) > 1 \
        else 1
    bound = min(P, Q) * n * n * u.max_abs * v.max_abs * t.max_abs * fold
    kind = "o" if bound >= _INT64_LIMIT else "i"
    # uC[p, j, k] = sum_i u[p, i] C[i, j, k]
    uC = _field_product(
        lambda U, C: np.dot(U, C.reshape(n, n * n)).reshape(len(U), n, n),
        _cast(u.parts, kind), _cast(t.parts, kind), t.d)
    # out[p, q, k] = sum_j uC[p, j, k] v[q, j]
    out = _field_product(
        lambda W, V: np.moveaxis(np.tensordot(W, V, axes=([1], [1])), 2, 1),
        uC, _cast(v.parts, kind), t.d)
    keys = (u.keys[:, None] + v.keys[None, :]).reshape(-1)
    return SymVec(u.nvars, u.bits, degrees, dp,
                  *_aggregate(keys, [o.reshape(P * Q, n) for o in out], n))


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
    kind = "o" if any(s.parts[0].dtype == object for _, s in live) or \
        sum(abs(c) * s.max_abs for c, s in live) >= _INT64_LIMIT else "i"
    width = max(len(s.parts) for _, s in live)
    keys = np.concatenate([s.keys for _, s in live])
    scaled = [[p * c for p in _cast(_padded(s.parts, width), kind)]
              for c, s in live]
    return SymVec(first.nvars, first.bits, degrees, dp,
                  *_aggregate(keys, [np.concatenate(col)
                                     for col in zip(*scaled)], n))


def sym_is_zero(s: SymVec) -> bool:
    return len(s.keys) == 0


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


def poly_vanishes_symbolically(poly: FreePoly, tensor: ScaledTensor,
                               groups: Dict[str, SymVec]) -> bool:
    out = SymContext(tensor, groups).eval_poly(poly)
    return out is None or sym_is_zero(out)


# ---------------------------------------------------------------------------
# Multilinear tensors
# ---------------------------------------------------------------------------


def _leaf_labels(term: FreeTerm) -> List[str]:
    if isinstance(term, str):
        return [] if term == UNIT else [term]
    return _leaf_labels(term[0]) + _leaf_labels(term[1])


def _symmetrize_axes(arr, start: int, count: int):
    """Sum over all permutations of axes [start, start+count), incrementally.

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


class MultilinearEngine:
    """Builds and tests fully multilinearized identity tensors.

    For a word with k variable leaves the unsymmetrized tensor has axes
    (leaf_1 .. leaf_k, out); the full multilinearization of a homogeneous
    polynomial is the sum over all assignments of distinct slot labels to
    equal-variable leaves, realized as axis-permuted sums.  Arrays hold exact
    integers: float64 while a rigorous bound stays below 2^52 (so BLAS paths
    stay exact), int64 below 2^62, big-int objects beyond.
    """

    #: cache word tensors only up to this many variable leaves; larger ones
    #: (16 MB and up at dim 8) are rebuilt on demand to bound memory
    _CACHE_LEAVES = 4

    def __init__(self, tensor: ScaledTensor):
        self.t = tensor
        self.cache: Dict[FreeTerm, Tuple] = {}

    def word_tensor(self, term: FreeTerm):
        """(*parts, max_abs) with axes = leaves in left-to-right order + out.

        max_abs is the measured magnitude maximum of the exact result; the
        dtype for each node is chosen from a rigorous bound derived from the
        children's measured maxima, so float64 is used only while every
        intermediate partial sum stays below 2^52.
        """
        got = self.cache.get(term)
        if got is not None:
            return got
        t = self.t
        n = t.n
        if isinstance(term, str):
            if term == UNIT:
                raise ValueError(
                    "unit leaves are not supported by the multilinear backend")
            res = (np.eye(n, dtype=np.float64), 1)
        else:
            *L, lmax = self.word_tensor(term[0])
            *R, rmax = self.word_tensor(term[1])
            fold = (1 + t.d) ** 2 if max(map(len, (L, R, t.parts))) > 1 \
                else 1
            bound = n * n * lmax * rmax * t.max_abs * fold
            kind = "f" if bound < _FLOAT_EXACT else \
                "i" if bound < _INT64_LIMIT else "o"
            L, R, C = (_cast(x, kind) for x in (L, R, t.parts))
            nl = L[0].ndim - 1
            # contract the left output axis with the first tensor index:
            # axes (left leaves..., j, out)
            step1 = _field_product(
                lambda A, B: np.tensordot(A, B, axes=([nl], [0])), L, C, t.d)
            # then j with the right output axis:
            # axes (left leaves..., out, right leaves...)
            step2 = _field_product(
                lambda A, B: np.tensordot(A, B, axes=([nl], [B.ndim - 1])),
                step1, R, t.d)
            k = step2[0].ndim
            perm = list(range(nl)) + list(range(nl + 1, k)) + [nl]
            parts = [np.ascontiguousarray(np.transpose(p, perm))
                     for p in step2]
            res = (*parts, _max_abs(parts))
        if isinstance(term, str) or res[0].ndim - 1 <= self._CACHE_LEAVES:
            self.cache[term] = res
        return res

    def multilinearization(self, poly: FreePoly):
        """Full multilinearization tensor of a bidegree-homogeneous poly.

        Axes: dx slots for the x-copies, then dy slots for the y-copies,
        then the output coordinate.  Returns (parts, dx, dy).
        """
        bdegs = poly.bidegrees()
        if len(bdegs) != 1:
            raise ValueError("polynomial is not bidegree-homogeneous")
        dx, dy = next(iter(bdegs))
        denom = math.lcm(*(c.denominator for c in poly.terms.values()))
        words = sorted(poly.terms.items(), key=lambda kv: str(kv[0]))
        width = len(self.t.parts)
        U: Tuple = ()
        kind = "i"
        running = 0  # exact bound on the accumulated entries
        for term, coeff in words:
            fresh = term not in self.cache
            *T, mx = self.word_tensor(term)
            if fresh:
                # top-level words of one polynomial are never reused: keep
                # only their children (8 MB per 4-leaf word at dim 16)
                self.cache.pop(term, None)
            labels = _leaf_labels(term)
            xs = [i for i, s in enumerate(labels) if s == X]
            ys = [i for i, s in enumerate(labels) if s == Y]
            if len(xs) != dx or len(ys) != dy:
                raise AssertionError("bidegree bookkeeping broken")
            perm = xs + ys + [len(labels)]
            c = int(coeff * denom)
            running += abs(c) * mx
            if kind == "i" and running >= _INT64_LIMIT:
                kind = "o"
                U = _cast(U, kind)
            T = _cast([np.ascontiguousarray(np.transpose(p, perm))
                       for p in _padded(T, width)], kind)
            U = tuple(u + p * c for u, p in zip(U, T)) if U else \
                tuple(p * c for p in T)
        if kind == "i" and \
                running * math.factorial(dx) * math.factorial(dy) >= _INT64_LIMIT:
            U = _cast(U, "o")
        # symmetrize over the x slots, then over the y slots
        S = tuple(_symmetrize_axes(_symmetrize_axes(p, 0, dx), dx, dy)
                  for p in U)
        return S, dx, dy

    def check(self, poly: FreePoly):
        """(holds, witness_basis_tuple or None): tests the multilinearized
        identity on all basis tuples; the first failing tuple in enumeration
        order is reported."""
        S, dx, dy = self.multilinearization(poly)
        nz = np.any([np.any(p != 0, axis=-1) for p in S], axis=0)
        if not nz.any():
            return True, None
        idx = np.argwhere(nz)[0]
        return False, (tuple(int(i) for i in idx[:dx]),
                       tuple(int(j) for j in idx[dx:]))
