"""Exact scalar arithmetic, sparse multivariate polynomials and exact linear algebra.

Scalars are either ``fractions.Fraction`` (the rational field) or ``QuadExt``
(a + b*sqrt 3 with rational a, b, in the one quadratic field Q(sqrt 3)).  All
arithmetic is exact.  The linear algebra runs on integers: a vector is
cleared to integer parts over one denominator (``clear_denominators``) and
``Echelon`` eliminates without fractions.  No scalar of this module is a
float; ``nalab.engine`` carries exact integers in float64 arrays, below 2^52
or as residues modulo primes.  ``MultiPoly`` and ``poly_rank`` are reference
implementations that the tests compare the packed symbolic kernels against;
no analysis path uses them.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

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
    rf"(-?\d+)(?:/(\d+))?(?:([+-])(-?\d+)(?:/(\d+))?\*sqrt{SQRT_RADICAND})?")


def _reduced(num: str, den: Optional[str]) -> Tuple[int, int]:
    if den is None:
        return int(num), 1
    p, q = int(num), int(den)
    if q == 0:
        raise ZeroDivisionError
    g = math.gcd(p, q)
    return (p, q) if g == 1 else (p // g, q // g)


def scalar_parts(text: str) -> tuple:
    """Parse the scalar grammar R | R+R*sqrt3 | R-R*sqrt3, R =
    [-]digits[/digits], to reduced integer pairs: (p, q) for p/q, or
    (p, q, r, s) for p/q + (r/s)*sqrt 3 when the sqrt 3 part is written,
    even as zero; q, s > 0 and each pair is coprime."""
    m = _SCALAR.fullmatch(text.strip().replace(" ", ""))
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    a_num, a_den, sign, b_num, b_den = m.groups()
    try:
        a = _reduced(a_num, a_den)
        if sign is None:
            return a
        r, s = _reduced(b_num, b_den)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None
    return a + ((-r if sign == "-" else r), s)


def parse_scalar(text: str) -> Scalar:
    """The scalar of ``scalar_parts``: a Fraction, or a QuadExt when the
    sqrt 3 part is written."""
    parts = scalar_parts(text)
    a = Fraction(parts[0], parts[1])
    return a if len(parts) == 2 else QuadExt(a, Fraction(parts[2], parts[3]))


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


# ---------------------------------------------------------------------------
# Exact elimination on integers
# ---------------------------------------------------------------------------
#
# A vector over Q or Q(sqrt 3) is held as integer parts and one denominator:
# (parts, d) stands for (parts[0] + sqrt 3 parts[1]) / d, with parts[1]
# present only over Q(sqrt 3).  An element of Z[sqrt 3] is a pair (a, b) of
# ints, multiplied by the rule (a, b)(a', b') = (aa' + 3bb', ab' + ba').


def clear_denominators(vector: Sequence) -> Tuple[tuple, int]:
    """(parts, d) with vector = (parts[0] + sqrt 3 parts[1]) / d, d > 0 the
    least common denominator of the entries (ints, Fractions or QuadExts);
    parts[1] is present exactly when some entry is a QuadExt."""
    n = len(vector)
    types = set(map(type, vector))
    if types <= {int}:
        return (list(vector),), 1
    if QuadExt in types:
        flat = [x.a if type(x) is QuadExt else x for x in vector] + \
            [x.b if type(x) is QuadExt else 0 for x in vector]
    else:
        flat = vector
    ratios = [x.as_integer_ratio() for x in flat]
    d = math.lcm(*[q for _, q in ratios])
    nums = [a for a, _ in ratios] if d == 1 else \
        [a * (d // q) for a, q in ratios]
    return ((nums,) if len(nums) == n else (nums[:n], nums[n:])), d


_ZERO = Fraction(0)


def from_parts(parts: Sequence[Sequence[int]], d: int) -> tuple:
    """The scalars (parts[0] + sqrt 3 parts[1]) / d, for a nonzero int d:
    Fractions, or QuadExts when there is a sqrt 3 part."""
    if len(parts) == 1:
        return tuple(Fraction(a, d) if a else _ZERO for a in parts[0])
    return tuple(QuadExt(Fraction(a, d) if a else _ZERO,
                         Fraction(b, d) if b else _ZERO)
                 for a, b in zip(*parts))


def _qmul(x, y):
    """The product of two elements of Z[sqrt 3]."""
    return (x[0] * y[0] + SQRT_RADICAND * x[1] * y[1],
            x[0] * y[1] + x[1] * y[0])


def _ratio(num, den) -> Scalar:
    """num / den for ints (a Fraction) or elements of Z[sqrt 3] (a QuadExt,
    by the conjugate of den)."""
    if isinstance(num, int):
        return Fraction(num, den)
    norm = den[0] * den[0] - SQRT_RADICAND * den[1] * den[1]
    a, b = _qmul(num, (den[0], -den[1]))
    return QuadExt(Fraction(a, norm), Fraction(b, norm))


class Echelon:
    """Row echelon form over Q or Q(sqrt 3), built one row at a time with
    no fractions.

    The one row-reduction routine for scalar matrices.  A row enters cleared
    to integers (``clear_denominators``): its entries lie in Z, or in
    Z[sqrt 3] as rational and sqrt 3 parts once some row has a sqrt 3 part.
    It is reduced only until its own leading column is found: at the lead c
    of each kept row where its entry x is nonzero, the row becomes
    t * row - x * kept, t the kept row's lead, and only the entries right of
    c are updated, so entries above a pivot are never cleared.  A kept row
    is divided by the gcd of its integer entries (its content).  Each kept
    row is a nonzero multiple of the row a field elimination to leading ones
    keeps, so ``leads``, the kept rows' leading columns in increasing order,
    are the same as there.  ``minor`` is exact.
    """

    def __init__(self):
        #: the kept rows, ordered by lead, as tuples of int lists: one part,
        #: or rational and sqrt 3 parts when width is 2
        self.rows: list = []
        self.leads: list = []
        self.width = 1
        # (lead, factor, sign) of each row added since minor was last read:
        # the row's lead in the field elimination is lead / factor
        self._pivots: list = []
        self._minor: Scalar = Fraction(1)

    @property
    def minor(self) -> Scalar:
        """Determinant of the kept rows, as added, on their lead columns."""
        for lead, factor, sign in self._pivots:
            m = self._minor * _ratio(lead, factor)
            self._minor = m if sign > 0 else -m
        self._pivots.clear()
        return self._minor

    def add(self, row: Sequence[Scalar]) -> bool:
        """Reduce row and keep it; False when it reduces to zero."""
        return self.add_parts(*clear_denominators(row))

    def add_parts(self, parts: Sequence[Sequence[int]], d: int = 1) -> bool:
        """``add`` for the row (parts[0] + sqrt 3 parts[1]) / d given by its
        integer parts, which are left as they are."""
        if len(parts) > self.width:
            self.width = 2
            self.rows = [(r[0], [0] * len(r[0])) for r in self.rows]
        if self.width == 1:
            found = self._reduce(list(parts[0]), d)
        else:
            found = self._reduce_quadratic(
                list(parts[0]),
                list(parts[1]) if len(parts) > 1 else [0] * len(parts[0]), d)
        if found is None:
            return False
        c, k, kept, lead, factor = found
        # sorting the rows by lead moves the new row past the kept rows of
        # larger lead; each such exchange flips the sign of the minor
        self._pivots.append((lead, factor, -1 if (len(self.leads) - k) % 2
                             else 1))
        self.rows.insert(k, kept)
        self.leads.insert(k, c)
        return True

    def _reduce(self, row: list, factor: int):
        """(lead column, position, kept row, lead, factor) of an integer row,
        or None when it reduces to zero; row / factor is the row in the
        field elimination, in every column right of each pivot."""
        leads, rows = self.leads, self.rows
        k = 0
        for c in range(len(row)):
            x = row[c]
            if k < len(leads) and leads[k] == c:
                if x:
                    kept = rows[k][0]
                    t = kept[c]
                    row[c + 1:] = [t * a - x * b for a, b in
                                   zip(row[c + 1:], kept[c + 1:])]
                    factor *= t
                k += 1
            elif x:
                break
        else:
            return None
        g = math.gcd(*row[c:])
        return c, k, ([0] * c + [a // g for a in row[c:]],), x, factor

    def _reduce_quadratic(self, ra: list, rb: list, d: int):
        """``_reduce`` on Z[sqrt 3] rows, held as rational parts ra and
        sqrt 3 parts rb."""
        leads, rows = self.leads, self.rows
        factor = (d, 0)
        k = 0
        for c in range(len(ra)):
            xa, xb = ra[c], rb[c]
            if k < len(leads) and leads[k] == c:
                if xa or xb:
                    ka, kb = rows[k]
                    ta, tb = ka[c], kb[c]
                    t3, x3 = SQRT_RADICAND * tb, SQRT_RADICAND * xb
                    tail = list(zip(ra[c + 1:], rb[c + 1:],
                                    ka[c + 1:], kb[c + 1:]))
                    ra[c + 1:] = [ta * a + t3 * b - xa * p - x3 * q
                                  for a, b, p, q in tail]
                    rb[c + 1:] = [ta * b + tb * a - xa * q - xb * p
                                  for a, b, p, q in tail]
                    factor = _qmul(factor, (ta, tb))
                k += 1
            elif xa or xb:
                break
        else:
            return None
        g = math.gcd(*ra[c:], *rb[c:])
        kept = ([0] * c + [a // g for a in ra[c:]],
                [0] * c + [b // g for b in rb[c:]])
        return c, k, kept, (xa, xb), factor


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
    Back substitution runs on the integer rows of ``Echelon``: a solution is
    held as integer parts V over one denominator D, and solving for a lead
    column multiplies both by that row's lead.
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
    steps = list(zip(reversed(ech.leads), reversed(ech.rows)))

    def back_substitute(V):
        # V[n] is -1 for the particular solution, 0 for a homogeneous one
        D = 1
        for c, (row,) in steps:
            s = sum(a * v for a, v in zip(row[c + 1:], V[c + 1:]))
            t = row[c]
            if t != 1:
                V = [t * v for v in V]
                D *= t
            V[c] = -s
        return [Fraction(v, D) for v in V[:n]]

    def back_substitute_quadratic(V):
        Va, Vb, D = V, [0] * len(V), (1, 0)
        for c, (ra, rb) in steps:
            tail = list(zip(ra[c + 1:], rb[c + 1:], Va[c + 1:], Vb[c + 1:]))
            sa = sum(a * v + SQRT_RADICAND * b * w for a, b, v, w in tail)
            sb = sum(a * w + b * v for a, b, v, w in tail)
            ta, tb = ra[c], rb[c]
            Va, Vb = ([ta * v + SQRT_RADICAND * tb * w
                       for v, w in zip(Va, Vb)],
                      [ta * w + tb * v for v, w in zip(Va, Vb)])
            D = _qmul(D, (ta, tb))
            Va[c], Vb[c] = -sa, -sb
        return [_ratio(v, D) for v in zip(Va[:n], Vb[:n])]

    solve = back_substitute if ech.width == 1 else back_substitute_quadratic
    particular = solve([0] * n + [-1])
    basis = [solve([int(c == free) for c in range(n + 1)])
             for free in range(n) if free not in ech.leads]
    return particular, basis


def det(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Exact determinant: the minor of ``Echelon`` once every row is kept."""
    if any(len(r) != len(matrix) for r in matrix):
        raise ValueError("determinant of non-square matrix")
    ech = Echelon()
    for row in matrix:
        if not ech.add(row):
            return Fraction(0)
    return ech.minor


def scalar_rank(matrix: Sequence[Sequence[Scalar]]) -> int:
    """Rank of a scalar matrix: the number of rows ``Echelon`` keeps."""
    ech = Echelon()
    return sum(ech.add(row) for row in matrix)
