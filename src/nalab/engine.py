"""Integer kernels for exact identity checking on structure-constant algebras.

Structure constants are cleared of denominators once per algebra, after which
symbolic evaluation of identities reduces to integer tensor arithmetic: a
symbolic element is a polynomial whose coefficients are integer coordinate
vectors, and a fully multilinearized identity is an integer tensor indexed by
basis tuples.  Scalars from Q(sqrt d) are carried as (rational, sqrt d) integer
component pairs.  Everything is exact; int64 arrays are used while a rigorous
magnitude bound permits, with an object-dtype (big-int) fallback otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactmath import QuadExt
from .freealg import FreePoly, FreeTerm, UNIT, X, Y, term_bidegree

_INT64_LIMIT = 1 << 62


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


class ScaledTensor:
    """Structure constants as integer arrays: c = (ca + cb*sqrt(d)) / scale."""

    __slots__ = ("n", "scale", "ca", "cb", "d", "max_abs")

    def __init__(self, constants, d: int = 3):
        n = len(constants)
        scale = 1
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    c = constants[i][j][k]
                    if isinstance(c, QuadExt):
                        scale = _lcm(scale, _lcm(c.a.denominator,
                                                 c.b.denominator))
                    else:
                        scale = _lcm(scale, Fraction(c).denominator)
        ca = np.zeros((n, n, n), dtype=object)
        cb = np.zeros((n, n, n), dtype=object)
        has_b = False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    c = constants[i][j][k]
                    if isinstance(c, QuadExt):
                        ca[i, j, k] = int(c.a * scale)
                        bval = int(c.b * scale)
                        cb[i, j, k] = bval
                        has_b = has_b or bval != 0
                    else:
                        ca[i, j, k] = int(Fraction(c) * scale)
        m = int(np.abs(ca).max()) if n else 0
        if has_b:
            m = max(m, int(np.abs(cb).max()))
        self.n = n
        self.scale = scale
        self.d = d
        self.max_abs = max(m, 1)
        # constants too wide for int64 stay Python ints: max_abs then sends
        # every product to the object tier
        if self.max_abs < _INT64_LIMIT:
            ca, cb = ca.astype(np.int64), cb.astype(np.int64)
        self.ca = ca
        self.cb = cb if has_b else None


def _pair_arrays(t: ScaledTensor, as_object: bool):
    ca = t.ca.astype(object) if as_object else t.ca
    cb = None
    if t.cb is not None:
        cb = t.cb.astype(object) if as_object else t.cb
    return ca, cb


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
    other.  va/vb hold the rational and sqrt(d) components of the integer
    coordinate rows.  True coordinates are (va + vb*sqrt(d)) /
    scale**denom_power.
    """

    __slots__ = ("nvars", "bits", "degrees", "keys", "va", "vb",
                 "denom_power", "max_abs")

    def __init__(self, nvars, bits, degrees, keys, va, vb, denom_power,
                 max_abs):
        self.nvars = nvars
        self.bits = bits
        self.degrees = degrees
        self.keys = keys
        self.va = va
        self.vb = vb
        self.denom_power = denom_power
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
        va = np.eye(n, dtype=np.int64)
        return cls(nvars, bits, degrees, keys, va, None, 0, 1)


def _agg(keys_flat, vals, n):
    """Sum rows of vals grouped by key; returns sorted unique keys and sums."""
    uk, inv = np.unique(keys_flat, return_inverse=True)
    out = np.zeros((len(uk), n), dtype=vals.dtype)
    np.add.at(out, inv, vals)
    return uk, out


def _drop_zero_rows(keys, arrs):
    mask = np.zeros(len(keys), dtype=bool)
    for a in arrs:
        if a is not None:
            mask |= np.any(a != 0, axis=1)
    if mask.all():
        return keys, arrs
    return keys[mask], [None if a is None else a[mask] for a in arrs]


def sym_product(u: SymVec, v: SymVec, t: ScaledTensor) -> SymVec:
    """Algebra product of symbolic elements via the structure tensor."""
    n = t.n
    degrees = tuple(a + b for a, b in zip(u.degrees, v.degrees))
    if max(degrees) >= 1 << u.bits:
        raise ValueError(f"an exponent of degree {max(degrees)} does not "
                         f"fit in {u.bits} bits")
    P, Q = len(u.keys), len(v.keys)
    if P == 0 or Q == 0:
        return SymVec(u.nvars, u.bits, degrees, u.keys[:0],
                      np.zeros((0, n), dtype=np.int64), None,
                      u.denom_power + v.denom_power + 1, 1)
    # rigorous magnitude bound: per (p,q,k) entry then aggregation multiplicity
    fold = 1 if (u.vb is None and v.vb is None and t.cb is None) else (1 + t.d) ** 2
    bound = min(P, Q) * n * n * u.max_abs * v.max_abs * t.max_abs * fold
    as_object = bound >= _INT64_LIMIT
    ca, cb = _pair_arrays(t, as_object)
    ua = u.va.astype(object) if as_object else u.va
    ub = None if u.vb is None else (u.vb.astype(object) if as_object else u.vb)
    va = v.va.astype(object) if as_object else v.va
    vb = None if v.vb is None else (v.vb.astype(object) if as_object else v.vb)

    def bil(Xa, C):
        if Xa is None or C is None:
            return None
        w = np.dot(Xa, C.reshape(n, n * n))
        return w.reshape(len(Xa), n, n)

    def comb(W, Yv):
        # W[p, j, k], Yv[q, j] -> [p, q, k]
        if W is None or Yv is None:
            return None
        out = np.tensordot(W, Yv, axes=([1], [1]))  # (p, k, q)
        return np.moveaxis(out, 2, 1)

    def add(Aarr, Barr, factor=1):
        if Aarr is None:
            return None if Barr is None else (Barr * factor if factor != 1 else Barr)
        if Barr is None:
            return Aarr
        return Aarr + Barr * factor

    waa = bil(ua, ca)
    wab = bil(ua, cb)
    wba = bil(ub, ca)
    wbb = bil(ub, cb)
    # (uC)_a = ua*ca + d*ub*cb ; (uC)_b = ua*cb + ub*ca
    wa = add(waa, wbb, t.d)
    wb = add(wab, wba)
    # out_a = (uC)_a*va + d*(uC)_b*vb ; out_b = (uC)_a*vb + (uC)_b*va
    oa = add(comb(wa, va), comb(wb, vb), t.d)
    ob = add(comb(wa, vb), comb(wb, va))

    keys = (u.keys[:, None] + v.keys[None, :]).reshape(-1)
    oa_flat = oa.reshape(P * Q, n)
    all_keys, agg_a = _agg(keys, oa_flat, n)
    agg_b = None
    if ob is not None:
        _, agg_b = _agg(keys, ob.reshape(P * Q, n), n)
    all_keys, (agg_a, agg_b) = _drop_zero_rows(all_keys, [agg_a, agg_b])
    m = 1
    if len(all_keys):
        m = max(m, int(np.abs(agg_a).max()))
        if agg_b is not None:
            m = max(m, int(np.abs(agg_b).max()))
    return SymVec(u.nvars, u.bits, degrees, all_keys, agg_a, agg_b,
                  u.denom_power + v.denom_power + 1, m)


def sym_combine(parts: Sequence[Tuple[int, SymVec]], n: int) -> SymVec:
    """Integer linear combination of symbolic elements (same denom_power)."""
    first = parts[0][1]
    degrees = tuple(map(max, zip(*(s.degrees for _, s in parts))))
    live = [(c, s) for c, s in parts if c != 0 and len(s.keys)]
    if not live:
        return SymVec(first.nvars, first.bits, degrees, first.keys[:0],
                      np.zeros((0, n), dtype=np.int64), None,
                      first.denom_power, 1)
    dp = live[0][1].denom_power
    if any(s.denom_power != dp for _, s in live):
        raise ValueError("mixed denominator powers in combination")
    as_object = any(s.va.dtype == object for _, s in live) or \
        sum(abs(c) * s.max_abs for c, s in live) >= _INT64_LIMIT
    keys = np.concatenate([s.keys for _, s in live])
    has_b = any(s.vb is not None for _, s in live)

    def stack(which):
        rows = []
        for c, s in live:
            arr = s.va if which == "a" else s.vb
            if arr is None:
                arr = np.zeros((len(s.keys), n),
                               dtype=object if as_object else np.int64)
            if as_object and arr.dtype != object:
                arr = arr.astype(object)
            rows.append(arr * c)
        return np.concatenate(rows)

    all_keys, agg_a = _agg(keys, stack("a"), n)
    agg_b = None
    if has_b:
        _, agg_b = _agg(keys, stack("b"), n)
    all_keys, (agg_a, agg_b) = _drop_zero_rows(all_keys, [agg_a, agg_b])
    m = 1
    if len(all_keys):
        m = max(m, int(np.abs(agg_a).max()))
        if agg_b is not None:
            m = max(m, int(np.abs(agg_b).max()))
    return SymVec(first.nvars, first.bits, degrees, all_keys, agg_a, agg_b,
                  dp, m)


def sym_is_zero(s: SymVec) -> bool:
    return len(s.keys) == 0


def unpack_key(key: int, nvars: int, bits: int) -> Tuple[int, ...]:
    mask = (1 << bits) - 1
    return tuple((int(key) >> (bits * i)) & mask for i in range(nvars))


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
        denom = 1
        for c in poly.terms.values():
            denom = _lcm(denom, c.denominator)
        parts = [(int(c * denom), self.eval_term(t))
                 for t, c in poly.terms.items()]
        return sym_combine(parts, self.tensor.n)


def poly_vanishes_symbolically(poly: FreePoly, tensor: ScaledTensor,
                               groups: Dict[str, SymVec],
                               ctx: Optional[SymContext] = None) -> bool:
    ctx = ctx or SymContext(tensor, groups)
    out = ctx.eval_poly(poly)
    return out is None or sym_is_zero(out)


# ---------------------------------------------------------------------------
# Multilinear tensors
# ---------------------------------------------------------------------------


def _leaf_labels(term: FreeTerm) -> List[str]:
    if isinstance(term, str):
        return [] if term == UNIT else [term]
    return _leaf_labels(term[0]) + _leaf_labels(term[1])


def _pair_tensordot(A: Tuple, B: Tuple, axes, d: int):
    """tensordot on (a, b) sqrt(d)-component pairs."""
    Aa, Ab = A
    Ba, Bb = B

    def td(Xq, Yq):
        if Xq is None or Yq is None:
            return None
        return np.tensordot(Xq, Yq, axes=axes)

    def add(P, Q, f=1):
        if P is None:
            return None if Q is None else (Q * f if f != 1 else Q)
        if Q is None:
            return P
        return P + Q * f

    out_a = add(td(Aa, Ba), td(Ab, Bb), d)
    out_b = add(td(Aa, Bb), td(Ab, Ba))
    return out_a, out_b


_FLOAT_EXACT = 1 << 52


def _measured_max(Ta, Tb) -> int:
    m = 0
    if Ta is not None and Ta.size:
        m = int(np.abs(Ta).max())
    if Tb is not None and Tb.size:
        m = max(m, int(np.abs(Tb).max()))
    return max(m, 1)


def _to_kind(arr, kind: str):
    """Convert an exact integer-valued array between float64/int64/object."""
    if arr is None:
        return None
    if kind == "f":
        return arr if arr.dtype == np.float64 else arr.astype(np.float64)
    if kind == "i":
        if arr.dtype == np.float64:
            return arr.astype(np.int64)
        return arr if arr.dtype == np.int64 else arr
    # object: floats hold exact ints < 2^52, so the round trip is exact
    if arr.dtype == np.float64:
        return arr.astype(np.int64).astype(object)
    return arr.astype(object) if arr.dtype != object else arr


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
        """(Ta, Tb, max_abs) with axes = leaves in left-to-right order + out.

        max_abs is the measured magnitude maximum of the exact result; the
        dtype for each node is chosen from a rigorous bound derived from the
        children's measured maxima, so float64 is used only while every
        intermediate partial sum stays below 2^52.
        """
        got = self.cache.get(term)
        if got is not None:
            return got
        n = self.t.n
        if isinstance(term, str):
            if term == UNIT:
                raise ValueError(
                    "unit leaves are not supported by the multilinear backend")
            res = (np.eye(n, dtype=np.float64), None, 1)
        else:
            La, Lb, lmax = self.word_tensor(term[0])
            Ra, Rb, rmax = self.word_tensor(term[1])
            fold = 1 if (Lb is None and Rb is None and self.t.cb is None) \
                else (1 + self.t.d) ** 2
            bound = n * n * lmax * rmax * self.t.max_abs * fold
            kind = "f" if bound < _FLOAT_EXACT else \
                "i" if bound < _INT64_LIMIT else "o"
            ca, cb = _pair_arrays(self.t, kind == "o")
            if kind == "f":
                ca = ca.astype(np.float64)
                cb = None if cb is None else cb.astype(np.float64)
            L = (_to_kind(La, kind), _to_kind(Lb, kind))
            R = (_to_kind(Ra, kind), _to_kind(Rb, kind))
            # step 1: contract left output axis with first tensor index
            step1 = _pair_tensordot(L, (ca, cb),
                                    axes=([L[0].ndim - 1], [0]), d=self.t.d)
            # step1 axes: (left leaves..., j, out)
            step2 = _pair_tensordot(step1, R,
                                    axes=([step1[0].ndim - 2],
                                          [R[0].ndim - 1]), d=self.t.d)
            # step2 axes: (left leaves..., out, right leaves...)
            Ta, Tb = step2
            k = Ta.ndim
            nl = L[0].ndim - 1
            perm = list(range(nl)) + list(range(nl + 1, k)) + [nl]
            Ta = np.ascontiguousarray(np.transpose(Ta, perm))
            Tb = None if Tb is None else np.ascontiguousarray(
                np.transpose(Tb, perm))
            mx = _measured_max(Ta, Tb)
            res = (Ta, Tb, mx)
        if isinstance(term, str) or res[0].ndim - 1 <= self._CACHE_LEAVES:
            self.cache[term] = res
        return res

    def multilinearization(self, poly: FreePoly):
        """Full multilinearization tensor of a bidegree-homogeneous poly.

        Axes: dx slots for the x-copies, then dy slots for the y-copies,
        then the output coordinate.  Returns (Ta, Tb, dx, dy).
        """
        bdegs = poly.bidegrees()
        if len(bdegs) != 1:
            raise ValueError("polynomial is not bidegree-homogeneous")
        dx, dy = next(iter(bdegs))
        denom = 1
        for c in poly.terms.values():
            denom = _lcm(denom, c.denominator)
        words = sorted(poly.terms.items(), key=lambda kv: str(kv[0]))
        Ua = None
        Ub = None
        kind = "i"
        running = 0  # exact bound on the accumulated entries
        has_b = self.t.cb is not None
        for term, coeff in words:
            fresh = term not in self.cache
            Ta, Tb, mx = self.word_tensor(term)
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
                Ua = _to_kind(Ua, kind)
                Ub = _to_kind(Ub, kind)
            Ta = _to_kind(np.ascontiguousarray(np.transpose(Ta, perm)), kind)
            Ua = Ta * c if Ua is None else Ua + Ta * c
            if has_b:
                if Tb is None:
                    Tb = np.zeros_like(Ta)
                else:
                    Tb = _to_kind(np.ascontiguousarray(
                        np.transpose(Tb, perm)), kind)
                Ub = Tb * c if Ub is None else Ub + Tb * c
        if Ua is None:
            return None, None, dx, dy
        if kind == "i" and \
                running * math.factorial(dx) * math.factorial(dy) >= _INT64_LIMIT:
            Ua = _to_kind(Ua, "o")
            Ub = _to_kind(Ub, "o")
        # symmetrize over the x slots, then over the y slots
        Sa = _symmetrize_axes(_symmetrize_axes(Ua, 0, dx), dx, dy)
        Sb = None
        if Ub is not None:
            Sb = _symmetrize_axes(_symmetrize_axes(Ub, 0, dx), dx, dy)
        return Sa, Sb, dx, dy

    def check(self, poly: FreePoly):
        """(holds, witness_basis_tuple or None): tests the multilinearized
        identity on all basis tuples; the first failing tuple in enumeration
        order is reported."""
        Sa, Sb, dx, dy = self.multilinearization(poly)
        if Sa is None:
            return True, None
        nz = np.any(Sa != 0, axis=-1)
        if Sb is not None:
            nz |= np.any(Sb != 0, axis=-1)
        if not nz.any():
            return True, None
        idx = np.argwhere(nz)[0]
        return False, (tuple(int(i) for i in idx[:dx]),
                       tuple(int(j) for j in idx[dx:]))
