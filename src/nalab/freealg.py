"""Free nonassociative algebra on the variables {x, y}, optionally unital.

Terms are binary trees: a leaf is "x", "y" or the unit "1", and a product is
an ordered pair of terms.  Squares carry their parenthesization: x^2 is the
tree (x, x) and there is no separate power symbol.  Polynomials are rational
linear combinations of canonical terms.  The module implements the jordan
product and commutator, associators, homomorphic substitution, and the
polarization of the associator identities in degrees p, q, r <= 2, together
with a hand-encoded copy of their published component tables for
cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

X = "x"
Y = "y"
UNIT = "1"

FreeTerm = Union[str, tuple]


class UnitModeError(ValueError):
    """Unit symbol used while not in unital mode."""


class TableRowError(KeyError):
    """Requested (p, q, r, m) row is not one of the encoded table rows."""


def mul_term(s: FreeTerm, t: FreeTerm) -> FreeTerm:
    """Product of two terms with the unital rewrite 1*t -> t, t*1 -> t."""
    if s == UNIT:
        return t
    if t == UNIT:
        return s
    return (s, t)


def term_degree(t: FreeTerm) -> int:
    """Number of variable leaves (the unit does not count)."""
    if isinstance(t, str):
        return 0 if t == UNIT else 1
    return term_degree(t[0]) + term_degree(t[1])


def term_bidegree(t: FreeTerm) -> Tuple[int, int]:
    """(degree in x, degree in y)."""
    if isinstance(t, str):
        if t == X:
            return (1, 0)
        if t == Y:
            return (0, 1)
        return (0, 0)
    lx, ly = term_bidegree(t[0])
    rx, ry = term_bidegree(t[1])
    return (lx + rx, ly + ry)


def term_key(t: FreeTerm):
    """Total order on terms: by leaf-degree, then structurally, left first."""
    if isinstance(t, str):
        return (term_degree(t), 0, t)
    return (term_degree(t), 1, term_key(t[0]), term_key(t[1]))


def term_swap_xy(t: FreeTerm) -> FreeTerm:
    if isinstance(t, str):
        return Y if t == X else X if t == Y else t
    return (term_swap_xy(t[0]), term_swap_xy(t[1]))


def term_contains_unit(t: FreeTerm) -> bool:
    if isinstance(t, str):
        return t == UNIT
    return term_contains_unit(t[0]) or term_contains_unit(t[1])


def render_term(t: FreeTerm) -> str:
    """Juxtaposition form: e.g. (xx)x, x(xy)."""
    if isinstance(t, str):
        return t

    def wrap(u: FreeTerm) -> str:
        return u if isinstance(u, str) else "(" + render_term(u) + ")"

    return wrap(t[0]) + wrap(t[1])


def enumerate_trees(leaves: int, leaf: FreeTerm = X) -> List[FreeTerm]:
    """All binary trees with the given number of identical leaves.

    The count is the Catalan number C_{leaves-1}; order is deterministic
    (split position ascending, then recursively).
    """
    if leaves < 1:
        raise ValueError("need at least one leaf")
    if leaves == 1:
        return [leaf]
    out: List[FreeTerm] = []
    for k in range(1, leaves):
        for left in enumerate_trees(k, leaf):
            for right in enumerate_trees(leaves - k, leaf):
                out.append((left, right))
    return out


class FreePoly:
    """Rational linear combination of canonical free terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[FreeTerm, Fraction]] = None):
        clean: Dict[FreeTerm, Fraction] = {}
        if terms:
            for t, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[t] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FreePoly is immutable")

    @classmethod
    def zero(cls) -> "FreePoly":
        return cls()

    @classmethod
    def term(cls, t: FreeTerm, c=1) -> "FreePoly":
        return cls({t: Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "FreePoly":
        if name not in (X, Y):
            raise ValueError(f"unknown variable {name!r}")
        return cls({name: Fraction(1)})

    @classmethod
    def unit(cls) -> "FreePoly":
        return cls({UNIT: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "FreePoly") -> "FreePoly":
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = out.get(t, Fraction(0)) + c
            if s == 0:
                out.pop(t, None)
            else:
                out[t] = s
        return FreePoly(out)

    def __neg__(self) -> "FreePoly":
        return FreePoly({t: -c for t, c in self.terms.items()})

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        return self + (-other)

    def __mul__(self, other: "FreePoly") -> "FreePoly":
        out: Dict[FreeTerm, Fraction] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = mul_term(t1, t2)
                s = out.get(t, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(t, None)
                else:
                    out[t] = s
        return FreePoly(out)

    def scale(self, c) -> "FreePoly":
        c = Fraction(c)
        if c == 0:
            return FreePoly()
        return FreePoly({t: c * v for t, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def swap_xy(self) -> "FreePoly":
        out: Dict[FreeTerm, Fraction] = {}
        for t, c in self.terms.items():
            out[term_swap_xy(t)] = c
        return FreePoly(out)

    def bidegrees(self) -> set:
        return {term_bidegree(t) for t in self.terms}

    def variables(self) -> set:
        out = set()

        def walk(t):
            if isinstance(t, str):
                if t in (X, Y):
                    out.add(t)
            else:
                walk(t[0])
                walk(t[1])

        for t in self.terms:
            walk(t)
        return out

    def contains_unit(self) -> bool:
        return any(term_contains_unit(t) for t in self.terms)

    def __repr__(self):
        return f"FreePoly({render_poly(self)})"


def render_poly(p: FreePoly) -> str:
    """Deterministic plain-text form: terms in canonical order, reduced
    rational coefficients, multiplication implicit."""
    if p.is_zero():
        return "0"
    bits = []
    for t in sorted(p.terms, key=term_key):
        c = p.terms[t]
        body = render_term(t)
        if c == 1:
            piece = body
        elif c == -1:
            piece = "-" + body
        else:
            piece = f"{c} {body}"
        bits.append(piece)
    out = bits[0]
    for piece in bits[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


def jordan(a: FreePoly, b: FreePoly) -> FreePoly:
    return a * b + b * a


def commutator(a: FreePoly, b: FreePoly) -> FreePoly:
    return a * b - b * a


def associator(a: FreePoly, b: FreePoly, c: FreePoly) -> FreePoly:
    """(ab)c - a(bc), trilinear."""
    return (a * b) * c - a * (b * c)


def substitute(poly: FreePoly, assignment: Dict[str, FreePoly],
               unital: bool = False) -> FreePoly:
    """Homomorphic substitution of variables, then unital simplification.

    Every variable occurring in poly must be assigned.  Substituting a
    polynomial containing the unit requires unital=True.
    """
    missing = poly.variables() - set(assignment)
    if missing:
        raise ValueError(f"assignment misses variables {sorted(missing)}")
    if not unital:
        for v, val in assignment.items():
            if val.contains_unit():
                raise UnitModeError(
                    f"substitution {v} -> unit-bearing value in non-unital mode")

    cache: Dict[FreeTerm, FreePoly] = {}

    def walk(t: FreeTerm) -> FreePoly:
        if isinstance(t, str):
            if t == UNIT:
                return FreePoly.unit()
            return assignment[t]
        got = cache.get(t)
        if got is None:
            got = walk(t[0]) * walk(t[1])
            cache[t] = got
        return got

    out = FreePoly()
    for t, c in poly.terms.items():
        out = out + walk(t).scale(c)
    return out


# ---------------------------------------------------------------------------
# Polarization
# ---------------------------------------------------------------------------

#: Grading blocks of (x + y)^p as integer terms: for p = 1 the components
#: are x, y; for p = 2 they are x^2, x*y + y*x, y^2 (as y-degree 0, 1, 2).
_BLOCK_TERMS = {
    "x": ((X, 1),),
    "y": ((Y, 1),),
    "xx": (((X, X), 1),),
    "yy": (((Y, Y), 1),),
    "xoy": (((X, Y), 1), ((Y, X), 1)),
}

_BLOCK_DISPLAY = {"x": "x", "y": "y", "xx": "x^2", "yy": "y^2", "xoy": "x.y"}


def _power_block(p: int, a: int) -> str:
    """Block name of the y-degree-a component of (x+y)^p, p in {1,2}."""
    if p == 1:
        return ("x", "y")[a]
    return ("xx", "xoy", "yy")[a]


def _check_pqr_args(p: int, q: int, r: int):
    if not all(v in (1, 2) for v in (p, q, r)):
        raise ValueError("p, q, r must each be 1 or 2")


def polarize_blocks(p: int, q: int, r: int, m: int) -> List[Tuple[str, str, str]]:
    """The m-th linearization component as a sum of block associators.

    Each entry (g1, g2, g3) stands for the associator (g1, g2, g3) with
    g in {x, y, x^2, y^2, x.y}; the component is the coefficient-1 sum of
    these terms.  Derived combinatorially from the grading of (x+y)^p.
    """
    _check_pqr_args(p, q, r)
    if not 0 <= m <= p + q + r:
        raise ValueError("component index out of range")
    out = []
    for a in range(p + 1):
        for b in range(q + 1):
            c = m - a - b
            if 0 <= c <= r:
                out.append((_power_block(p, a), _power_block(q, b),
                            _power_block(r, c)))
    return out


def render_blocks(blocks: Sequence[Tuple[str, str, str]]) -> str:
    return " + ".join(
        "(" + ", ".join(_BLOCK_DISPLAY[g] for g in t) + ")" for t in blocks
    )


def _sum_blocks(blocks: Sequence[Tuple[str, str, str]]) -> FreePoly:
    """The sum of the block associators (g1, g2, g3) = (g1 g2) g3 - g1 (g2 g3),
    accumulated term by term with integer coefficients, its terms in
    term_key order."""
    acc: Dict[FreeTerm, int] = {}
    for g1, g2, g3 in blocks:
        for a, ca in _BLOCK_TERMS[g1]:
            for b, cb in _BLOCK_TERMS[g2]:
                for c, cc in _BLOCK_TERMS[g3]:
                    k = ca * cb * cc
                    left, right = ((a, b), c), (a, (b, c))
                    acc[left] = acc.get(left, 0) + k
                    acc[right] = acc.get(right, 0) - k
    return FreePoly({t: acc[t] for t in sorted(acc, key=term_key)})


@dataclass(frozen=True)
class PolarizedIdentity:
    """Linearization components f_1 .. f_{p+q+r-1} of (x^p, x^q, x^r) = 0.

    Component m is homogeneous of degree (p+q+r-m) in x and m in y.  Each
    call of f(m) builds that component alone, as the sum of the block
    associators listed by polarize_blocks; nothing is stored.  The
    degree-0 and degree-(p+q+r) components are (x^p, x^q, x^r) and
    (y^p, y^q, y^r).
    """

    p: int
    q: int
    r: int

    @property
    def total(self) -> int:
        return self.p + self.q + self.r

    def f(self, m: int) -> FreePoly:
        if not 1 <= m <= self.total - 1:
            raise ValueError(f"m must be in 1..{self.total - 1}")
        return _sum_blocks(polarize_blocks(self.p, self.q, self.r, m))


def pqr_associator(p: int, q: int, r: int) -> FreePoly:
    """(x^p, x^q, x^r) with x^2 the tree (x, x): the y-degree-0 block."""
    return _sum_blocks(polarize_blocks(p, q, r, 0))


def polarize(p: int, q: int, r: int) -> PolarizedIdentity:
    """Polarize (x^p, x^q, x^r) = 0 by substituting x -> x + y.

    The associator is trilinear, so its y-degree-m component is the sum of
    the associators of the graded blocks of the shifted powers whose
    y-degrees add up to m; f(m) builds it on demand.  This yields the same
    components as carrying a scalar parameter, since the field has
    characteristic zero.
    """
    _check_pqr_args(p, q, r)
    return PolarizedIdentity(p, q, r)


# ---------------------------------------------------------------------------
# Hand-encoded identity tables (golden data, independent of polarize)
# ---------------------------------------------------------------------------

# Display encoding: ("assoc", g1, g2, g3) or ("comm", g1, g2) over block names.
_A = "assoc"
_C = "comm"

_GOLDEN: Dict[Tuple[int, int, int, int], List[tuple]] = {
    # first corresponding identity (m = 1)
    (1, 1, 1, 1): [(_C, "xx", "y"), (_C, "xoy", "x")],
    (1, 1, 2, 1): [(_A, "x", "x", "xoy"), (_A, "x", "y", "xx"),
                   (_A, "y", "x", "xx")],
    (1, 2, 1, 1): [(_A, "x", "xx", "y"), (_A, "x", "xoy", "x"),
                   (_A, "y", "xx", "x")],
    (1, 2, 2, 1): [(_A, "x", "xx", "xoy"), (_A, "x", "xoy", "xx"),
                   (_A, "y", "xx", "xx")],
    (2, 1, 1, 1): [(_A, "xx", "x", "y"), (_A, "xx", "y", "x"),
                   (_A, "xoy", "x", "x")],
    (2, 1, 2, 1): [(_A, "xx", "x", "xoy"), (_A, "xx", "y", "xx"),
                   (_A, "xoy", "x", "xx")],
    (2, 2, 1, 1): [(_A, "xx", "xx", "y"), (_A, "xx", "xoy", "x"),
                   (_A, "xoy", "xx", "x")],
    (2, 2, 2, 1): [(_A, "xx", "xx", "xoy"), (_A, "xx", "xoy", "xx"),
                   (_A, "xoy", "xx", "xx")],
    # second corresponding identity (m = 2).  The (1,1,1) row repeats the
    # m = 1 expression verbatim in the published table; it is kept as printed
    # and flagged by the cross-check (see golden_table_corrected).
    (1, 1, 1, 2): [(_C, "xx", "y"), (_C, "xoy", "x")],
    (1, 1, 2, 2): [(_A, "x", "x", "yy"), (_A, "x", "y", "xoy"),
                   (_A, "y", "x", "xoy"), (_A, "y", "y", "xx")],
    (1, 2, 1, 2): [(_A, "x", "xoy", "y"), (_A, "x", "yy", "x"),
                   (_A, "y", "xx", "y"), (_A, "y", "xoy", "x")],
    (1, 2, 2, 2): [(_A, "x", "xx", "yy"), (_A, "x", "yy", "xx"),
                   (_A, "y", "xoy", "xx"), (_A, "y", "xx", "xoy"),
                   (_A, "x", "xoy", "xoy")],
    (2, 1, 1, 2): [(_A, "xx", "y", "y"), (_A, "xoy", "x", "y"),
                   (_A, "xoy", "y", "x"), (_A, "yy", "x", "x")],
    (2, 1, 2, 2): [(_A, "xx", "x", "yy"), (_A, "xx", "y", "xoy"),
                   (_A, "xoy", "x", "xoy"), (_A, "xoy", "y", "xx"),
                   (_A, "yy", "x", "xx")],
    (2, 2, 1, 2): [(_A, "xx", "xoy", "y"), (_A, "xx", "yy", "x"),
                   (_A, "xoy", "xx", "y"), (_A, "xoy", "xoy", "x"),
                   (_A, "yy", "xx", "x")],
    (2, 2, 2, 2): [(_A, "xx", "xx", "yy"), (_A, "xx", "xoy", "xoy"),
                   (_A, "xx", "yy", "xx"), (_A, "xoy", "xx", "xoy"),
                   (_A, "xoy", "xoy", "xx"), (_A, "yy", "xx", "xx")],
    # third corresponding identity (only for p = q = r = 2)
    (2, 2, 2, 3): [(_A, "xoy", "xx", "yy"), (_A, "xx", "xoy", "yy"),
                   (_A, "xx", "yy", "xoy"), (_A, "xoy", "yy", "xx"),
                   (_A, "yy", "xoy", "xx"), (_A, "yy", "xx", "xoy"),
                   (_A, "xoy", "xoy", "xoy")],
}


def _display_to_poly(entries: Sequence[tuple]) -> FreePoly:
    out = FreePoly()
    for e in entries:
        gs = [FreePoly(dict(_BLOCK_TERMS[g])) for g in e[1:]]
        if e[0] == _A:
            out = out + associator(*gs)
        elif e[0] == _C:
            out = out + commutator(*gs)
        else:
            raise AssertionError(e)
    return out


def golden_table(p: int, q: int, r: int, m: int) -> FreePoly:
    """The (p.q.r.m) table row exactly as printed, expanded to a FreePoly."""
    key = (p, q, r, m)
    if key not in _GOLDEN:
        raise TableRowError(f"no table row ({p}.{q}.{r}.{m})")
    return _display_to_poly(_GOLDEN[key])


def golden_table_corrected(p: int, q: int, r: int, m: int) -> FreePoly:
    """Table row with the single known misprint repaired.

    The published (1.1.1.2) cell repeats the m = 1 expression; by the
    symmetry f_m(y, x) = f_{p+q+r-m}(x, y) the correct second component is
    the variable swap of the first.  All other rows are returned as printed.
    """
    if (p, q, r, m) == (1, 1, 1, 2):
        return golden_table(1, 1, 1, 1).swap_xy()
    return golden_table(p, q, r, m)


def golden_row_is_misprinted(p: int, q: int, r: int, m: int) -> bool:
    return (p, q, r, m) == (1, 1, 1, 2)


def render_golden(p: int, q: int, r: int, m: int) -> str:
    """Table-style rendering of a golden row, e.g. '[x^2,y] + [x.y,x]'."""
    key = (p, q, r, m)
    if key not in _GOLDEN:
        raise TableRowError(f"no table row ({p}.{q}.{r}.{m})")
    bits = []
    for e in _GOLDEN[key]:
        if e[0] == _A:
            bits.append("(" + ", ".join(_BLOCK_DISPLAY[g] for g in e[1:]) + ")")
        else:
            bits.append("[" + ", ".join(_BLOCK_DISPLAY[g] for g in e[1:]) + "]")
    return " + ".join(bits)


def golden_rows() -> List[Tuple[int, int, int, int]]:
    """All 17 encoded (p, q, r, m) rows, in table order."""
    keys = sorted(_GOLDEN, key=lambda k: (k[3], k[0], k[1], k[2]))
    return keys


# ---------------------------------------------------------------------------
# Degree-4 consequences of (x, x, x) = 0
# ---------------------------------------------------------------------------

#: Basis of the degree-4 one-variable word space, in canonical order.
DEGREE4_WORDS: Tuple[FreeTerm, ...] = (
    (((X, (X, X))), X),   # (x x^2) x
    ((((X, X), X)), X),   # (x^2 x) x
    (X, (X, (X, X))),     # x (x x^2)
    (X, ((X, X), X)),     # x (x^2 x)
    ((X, X), (X, X)),     # x^2 x^2
)


def degree4_consequences() -> List[FreePoly]:
    """The three degree-4 one-variable consequences of (x, x, x) = 0.

    In order: x*(x,x,x), (x,x,x)*x, and the first linearization component of
    (x,x,x) = 0 evaluated at y = x^2.
    """
    x = FreePoly.var(X)
    a = associator(x, x, x)
    f1 = polarize(1, 1, 1).f(1)
    third = substitute(f1, {X: x, Y: FreePoly.term((X, X))})
    return [x * a, a * x, third]


def poly_to_word_vector(p: FreePoly,
                        words: Sequence[FreeTerm] = DEGREE4_WORDS
                        ) -> List[Fraction]:
    """Coefficient vector of p on the given word basis; p must be supported
    on those words."""
    extra = set(p.terms) - set(words)
    if extra:
        raise ValueError(f"polynomial not supported on word basis: {extra}")
    return [p.terms.get(w, Fraction(0)) for w in words]
