"""Exact scalar arithmetic, sparse multivariate polynomials and exact linear algebra.

Scalars are either ``fractions.Fraction`` (the rational field) or ``QuadExt``
(a + b*sqrt 3 with rational a, b, in the one quadratic field Q(sqrt 3)).  All
arithmetic is exact: there is no floating point anywhere in this package.
``MultiPoly`` and ``poly_rank`` are reference implementations that the tests
compare the packed symbolic kernels against; no analysis path uses them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence, Union

#: the radicand of the one quadratic field, Q(sqrt 3)
SQRT_RADICAND = 3


class DivisionByZeroError(ZeroDivisionError):
    """Exact division by the zero scalar."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class QuadExt:
    """Element a + b*sqrt 3 of the real quadratic field Q(sqrt 3), the field
    of the pseudo-octonion construction.

    Representation is unique, so equality and hashing are component-wise.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return QuadExt(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadExt(self.a * o.a + SQRT_RADICAND * self.b * o.b,
                       self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise DivisionByZeroError("inverse of zero quadratic element")
        return QuadExt(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def norm(self) -> Fraction:
        """Field norm a^2 - 3*b^2 (rational)."""
        return self.a * self.a - SQRT_RADICAND * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_scalar(self)


Scalar = Union[Fraction, QuadExt]


def scalar_is_zero(x) -> bool:
    if isinstance(x, QuadExt):
        return x.is_zero()
    return x == 0


def scalar_sign(x: Scalar) -> int:
    """Sign (-1, 0 or 1) of x under the real embedding with sqrt 3 > 0.

    For a + b*sqrt 3 with a and b of opposite signs, the larger of a^2 and
    3*b^2 decides, so no square root is ever evaluated.
    """
    if not isinstance(x, QuadExt):
        return (x > 0) - (x < 0)
    sa, sb = (x.a > 0) - (x.a < 0), (x.b > 0) - (x.b < 0)
    if sa * sb >= 0:
        return sa or sb
    n = x.norm()
    return sa if n > 0 else sb if n < 0 else 0


def format_scalar(x: Scalar) -> str:
    """Canonical text form: 'n', 'n/m', or 'a+b*sqrt3' / 'a-b*sqrt3'."""
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        sep = "+" if x.b > 0 else "-"
        return f"{x.a}{sep}{abs(x.b)}*sqrt{SQRT_RADICAND}"
    return str(x)


_SCALAR = re.compile(
    rf"(-?\d+(?:/\d+)?)(?:([+-])(-?\d+(?:/\d+)?)\*sqrt{SQRT_RADICAND})?")


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar grammar R | R+R*sqrt3 | R-R*sqrt3, R = [-]digits[/digits]."""
    m = _SCALAR.fullmatch(text.strip().replace(" ", ""))
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    try:
        a = Fraction(m.group(1))
        b = None if m.group(2) is None else Fraction(m.group(3))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None
    if b is None:
        return a
    if m.group(2) == "-":
        b = -b
    return QuadExt(a, b)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------


class MultiPoly:
    """Sparse multivariate polynomial: map from exponent tuple to nonzero Scalar.

    Variables are positional (x_0 .. x_{nvars-1}); no zero coefficients are
    ever stored, so the zero polynomial has an empty term map and equality is
    map equality.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        if terms:
            for exps, c in terms.items():
                if not scalar_is_zero(c):
                    clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int, c=Fraction(1)) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomial rings of different arity")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            other = MultiPoly.const(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if scalar_is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            other = MultiPoly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            if scalar_is_zero(other):
                return MultiPoly(self.nvars)
            return MultiPoly(self.nvars,
                             {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if scalar_is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def evaluate(self, point: Sequence) -> Scalar:
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        acc = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v = v * x
            acc = v + acc
        return acc

    def _lead(self):
        """Leading (exponent, coeff) in lexicographic order."""
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact polynomial quotient self/other; raises if division is inexact.

        Used by fraction-free elimination, where every division is exact by
        the Sylvester determinant identity.
        """
        if isinstance(other, (int, Fraction, QuadExt)):
            other = MultiPoly.const(self.nvars, other)
        self._check(other)
        if other.is_zero():
            raise DivisionByZeroError("polynomial division by zero")
        rem = dict(self.terms)
        quo: dict = {}
        de, dc = other._lead()
        while rem:
            le = max(rem)
            lc = rem[le]
            qe = tuple(a - b for a, b in zip(le, de))
            if any(k < 0 for k in qe):
                raise ValueError("inexact polynomial division")
            qc = lc / dc
            quo[qe] = quo.get(qe, 0) + qc
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(qe, e2))
                s = rem.get(e, 0) - qc * c2
                if scalar_is_zero(s):
                    rem.pop(e, None)
                else:
                    rem[e] = s
        return MultiPoly(self.nvars, quo)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            other = MultiPoly.const(self.nvars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"x{i}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k
            )
            bits.append(f"{format_scalar(c)}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _entry_exact_div(x, y):
    if isinstance(x, MultiPoly) or isinstance(y, MultiPoly):
        if not isinstance(x, MultiPoly):
            x = MultiPoly.const(y.nvars, x)
        return x.exact_div(y)
    return x / y


def poly_rank(matrix: Sequence[Sequence]) -> int:
    """Rank over the fraction field, by fraction-free Bareiss elimination.

    Entries may be MultiPoly over one ring, or plain scalars.  Pivots are the
    first nonzero entry in column order, so the result is deterministic.
    """
    rows = [list(r) for r in matrix]
    if not rows:
        return 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("matrix is not rectangular")
    rank = 0
    prev = None
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            x = rows[r][col]
            for c in range(ncols):
                num = p * rows[r][c] - x * rows[rank][c]
                rows[r][c] = num if prev is None else _entry_exact_div(num, prev)
        prev = p
        rank += 1
        if rank == len(rows):
            break
    return rank


class Echelon:
    """Row echelon form over an exact field, built one row at a time.

    The one row-reduction routine for scalar matrices.  Kept rows are scaled
    to a leading 1 and ordered by leading column (``leads``).  A new row is
    reduced only until its own leading column is found, and only the entries
    right of each pivot are updated: entries above a pivot are never cleared.
    """

    def __init__(self):
        self.rows: list = []
        self.leads: list = []
        #: determinant of the kept rows, as added, on their lead columns
        self.minor: Scalar = Fraction(1)

    def add(self, row: Sequence[Scalar]) -> bool:
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


def span_membership(target: Sequence[Scalar],
                    generators: Sequence[Sequence[Scalar]]):
    """Decide whether target is a linear combination of the generators.

    Returns (inside, coefficients); when inside, the coefficients exactly
    reproduce the target in generator order.  Works over Q or Q(sqrt 3).
    """
    n = len(target)
    if any(len(g) != n for g in generators):
        raise ValueError("vector length mismatch")
    if n == 0:
        return True, [Fraction(0)] * len(generators)
    sol = solve_affine([[g[i] for g in generators] for i in range(n)], target)
    if sol is None:
        return False, None
    return True, sol[0]


def solve_affine(matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]):
    """Solve M v = rhs exactly; returns (particular, nullspace_basis) or None.

    The nullspace basis spans all homogeneous solutions, so the full solution
    set is particular + span(nullspace_basis).  Both depend only on the row
    space of the augmented matrix (the particular solution sets the free
    variables to 0), so zero and repeated augmented rows are skipped, and
    the system is inconsistent as soon as a row's lead is the rhs column.
    """
    if not matrix:
        return [], []
    n = len(matrix[0])
    ech = Echelon()
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


def det(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Exact determinant by Gaussian elimination over the field."""
    if any(len(r) != len(matrix) for r in matrix):
        raise ValueError("determinant of non-square matrix")
    ech = Echelon()
    for row in matrix:
        if not ech.add(row):
            return Fraction(0)
    return ech.minor


def scalar_rank(matrix: Sequence[Sequence[Scalar]]) -> int:
    """Rank of a scalar matrix by Gaussian elimination (field arithmetic)."""
    ech = Echelon()
    return sum(ech.add(row) for row in matrix)
