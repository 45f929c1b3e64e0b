"""Independent oracles for the integer kernels of ``nalab.engine``.

Generic elements on MultiPoly coordinates check the packed symbolic kernels:
``multiply`` and ``eval_free_poly`` are duck-typed, so they run unchanged on
these coordinates.  ``inclusion_exclusion_multilin`` evaluates a full
multilinearization through ordinary algebra multiplication.

The big-int oracle carries out the products of the identity kernels in exact
Python integers (object dtype), with no magnitude tier and no residues: the
symbolic product (``bigint_sym_product``), the value of a symbolic element
at integer points (``bigint_nonzero_at``) and multilinear word tensors
(``bigint_word_tensor``).  The sqrt 3 rule (a + b s)(a' + b' s) = aa' + 3bb'
+ (ab' + ba') s is written out part by part (``field_op``), not by the
kernels' block product.
"""

import numpy as np

from nalab import engine
from nalab.algebra import Element, eval_free_poly
from nalab.exactmath import MultiPoly


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


def bigint_nonzero_at(v, M, w):
    """``engine.sym_nonzero_at`` in Python ints: is sum_k M[c, k] w[k] v_k
    nonzero in some part, for each row c of M?"""
    W = bigint(np.asarray(w))[:, None]
    vals = [bigint(np.asarray(M)).dot(bigint(p) * W) for p in v.parts]
    return np.array([any(x != 0 for val in vals for x in val[c])
                     for c in range(len(M))], dtype=bool)


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
