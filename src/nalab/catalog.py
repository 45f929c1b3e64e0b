"""Constructions of the named algebras and load/save of user algebras.

The classical algebras R, C, H, O come from Cayley-Dickson doubling with the
fixed convention (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)) and
conjugation (a, b) -> (conj(a), -b).  The standard isotopes *A and **A replace
the product by conj(x) y and conj(x) conj(y) respectively; their tables are
products of conjugated basis elements in A.  The pseudo-octonion algebra P has
the structure constants d - f/sqrt(3), with d and f the symmetric and the
antisymmetric su(3) structure constants on the Gell-Mann basis.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .algebra import (FIELD_Q, FIELD_QSQRT3, Element, StructureAlgebra,
                      multiply)
from .exactmath import (QuadExt, format_scalar, from_parts, scalar_is_zero,
                        scalar_parts)


@dataclass(frozen=True)
class InvolutiveAlgebra:
    """Algebra with a linear involution x -> conj(x) (an anti-automorphism)."""

    algebra: StructureAlgebra
    conjugation: tuple  # dim x dim matrix, column i = conj(b_i)

    def conj_element(self, x: Element) -> Element:
        n = self.algebra.dim
        out = []
        for k in range(n):
            acc = Fraction(0)
            for i in range(n):
                c = self.conjugation[k][i]
                if not scalar_is_zero(c):
                    acc = acc + c * x.coords[i]
            out.append(acc)
        return Element(tuple(out))


# ---------------------------------------------------------------------------
# Cayley-Dickson doubling
# ---------------------------------------------------------------------------


def _cd_conj(v: List[Fraction]) -> List[Fraction]:
    n = len(v)
    if n == 1:
        return list(v)
    h = n // 2
    return _cd_conj(v[:h]) + [-c for c in v[h:]]


def _cd_mul(u: List[Fraction], v: List[Fraction]) -> List[Fraction]:
    n = len(u)
    if n == 1:
        return [u[0] * v[0]]
    h = n // 2
    a, b = u[:h], u[h:]
    c, d = v[:h], v[h:]
    left = [p - q for p, q in zip(_cd_mul(a, c), _cd_mul(_cd_conj(d), b))]
    right = [p + q for p, q in zip(_cd_mul(d, a), _cd_mul(b, _cd_conj(c)))]
    return left + right


_CLASSICAL_DIM = {"R": 1, "C": 2, "H": 4, "O": 8}
_CLASSICAL_BASIS = {
    "R": ("e",),
    "C": ("e", "i"),
    "H": ("e", "i", "j", "k"),
    "O": ("e", "e1", "e2", "e3", "e4", "e5", "e6", "e7"),
}


@lru_cache(maxsize=None)
def classical(name: str) -> InvolutiveAlgebra:
    """Cayley-Dickson algebra R, C, H or O with its standard conjugation."""
    if name not in _CLASSICAL_DIM:
        raise KeyError(f"unknown classical algebra {name!r}")
    n = _CLASSICAL_DIM[name]
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        ei = [Fraction(int(t == i)) for t in range(n)]
        for j in range(n):
            ej = [Fraction(int(t == j)) for t in range(n)]
            prod = _cd_mul(ei, ej)
            for k in range(n):
                constants[i][j][k] = prod[k]
    conj_cols = []
    for i in range(n):
        ei = [Fraction(int(t == i)) for t in range(n)]
        conj_cols.append(_cd_conj(ei))
    conj = tuple(tuple(conj_cols[i][k] for i in range(n)) for k in range(n))
    alg = StructureAlgebra(name, n, FIELD_Q, constants, _CLASSICAL_BASIS[name])
    return InvolutiveAlgebra(alg, conj)


class MissingConjugationError(ValueError):
    pass


def _basis_and_conjugates(inv: InvolutiveAlgebra):
    if inv.conjugation is None:
        raise MissingConjugationError("isotope needs a conjugation")
    A = inv.algebra
    basis = [A.basis_element(i) for i in range(A.dim)]
    return A, basis, [inv.conj_element(b) for b in basis]


def star_left(inv: InvolutiveAlgebra) -> StructureAlgebra:
    """The isotope *A with product x * y = conj(x) y."""
    A, basis, bars = _basis_and_conjugates(inv)
    constants = [[multiply(A, x, y).coords for y in basis] for x in bars]
    return StructureAlgebra("*" + A.name, A.dim, A.field, constants,
                            A.basis_names)


def star_both(inv: InvolutiveAlgebra) -> StructureAlgebra:
    """The isotope **A with product x * y = conj(x) conj(y)."""
    A, _, bars = _basis_and_conjugates(inv)
    constants = [[multiply(A, x, y).coords for y in bars] for x in bars]
    return StructureAlgebra("**" + A.name, A.dim, A.field, constants,
                            A.basis_names)


# ---------------------------------------------------------------------------
# Pseudo-octonions (Okubo algebra)
# ---------------------------------------------------------------------------

_SQRT3 = QuadExt(0, 1)
_HALF = Fraction(1, 2)

#: su(3) structure constants on the Gell-Mann matrices l1..l8 (indices
#: 0..7), one entry per index set: [l_a, l_b] = 2i f_abc l_c with f totally
#: antisymmetric, {l_a, l_b} = (4/3) delta_ab I + 2 d_abc l_c with d totally
#: symmetric.
_SU3_F = {
    (0, 1, 2): 1, (0, 3, 6): _HALF, (0, 4, 5): -_HALF, (1, 3, 5): _HALF,
    (1, 4, 6): _HALF, (2, 3, 4): _HALF, (2, 5, 6): -_HALF,
    (3, 4, 7): _SQRT3 / 2, (5, 6, 7): _SQRT3 / 2,
}
_SU3_D = {
    (0, 0, 7): _SQRT3 / 3, (1, 1, 7): _SQRT3 / 3, (2, 2, 7): _SQRT3 / 3,
    (7, 7, 7): -_SQRT3 / 3, (3, 3, 7): -_SQRT3 / 6, (4, 4, 7): -_SQRT3 / 6,
    (5, 5, 7): -_SQRT3 / 6, (6, 6, 7): -_SQRT3 / 6,
    (0, 3, 5): _HALF, (0, 4, 6): _HALF, (1, 3, 6): -_HALF, (1, 4, 5): _HALF,
    (2, 3, 3): _HALF, (2, 4, 4): _HALF, (2, 5, 5): -_HALF, (2, 6, 6): -_HALF,
}
#: even and odd permutations of the three positions of an index triple
_EVEN = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
_ODD = ((1, 0, 2), (0, 2, 1), (2, 1, 0))


@lru_cache(maxsize=None)
def okubo() -> StructureAlgebra:
    """The 8-dimensional pseudo-octonion algebra P over Q(sqrt 3).

    The product on traceless 3x3 hermitian matrices is
    x * y = mu x y + conj(mu) y x - (1/3) Tr(x y) I with mu = 1/2 + (sqrt3/6) i.
    With l_a l_b = (2/3) delta_ab I + (d_abc + i f_abc) l_c,
    mu + conj(mu) = 1 and mu - conj(mu) = i/sqrt 3, the Gell-Mann basis
    products are l_a * l_b = sum_c (d_abc - f_abc/sqrt 3) l_c, so the
    structure constants are read off the su(3) tensors d and f.  Every
    constant is a QuadExt.
    """
    n = 8
    constants = [[[QuadExt()] * n for _ in range(n)] for _ in range(n)]
    for idx, v in _SU3_D.items():
        for a, b, k in set(itertools.permutations(idx)):
            constants[a][b][k] += v
    for idx, v in _SU3_F.items():
        for sign, perms in ((1, _EVEN), (-1, _ODD)):
            for p in perms:
                a, b, k = (idx[t] for t in p)
                constants[a][b][k] -= sign * v / _SQRT3
    return StructureAlgebra("P", n, FIELD_QSQRT3, constants,
                            tuple(f"l{i}" for i in range(1, 9)))


# ---------------------------------------------------------------------------
# Catalog registry
# ---------------------------------------------------------------------------

CATALOG_NAMES: Tuple[str, ...] = (
    "R", "C", "H", "O", "*C", "*H", "*O", "**C", "**H", "**O", "P")

_ALIASES = {
    "starC": "*C", "starH": "*H", "starO": "*O",
    "dstarC": "**C", "dstarH": "**H", "dstarO": "**O",
}


def catalog_algebra(name: str) -> StructureAlgebra:
    """Look up a catalog algebra by name (aliases starX / dstarX accepted)."""
    return _catalog_algebra(_ALIASES.get(name, name))


@lru_cache(maxsize=None)
def _catalog_algebra(key: str) -> StructureAlgebra:
    if key in ("R", "C", "H", "O"):
        return classical(key).algebra
    if key.startswith("**"):
        return star_both(classical(key[2:]))
    if key.startswith("*"):
        return star_left(classical(key[1:]))
    if key == "P":
        return okubo()
    raise KeyError(f"unknown catalog algebra {key!r}")


def catalog_conjugation(name: str):
    key = _ALIASES.get(name, name)
    if key in ("R", "C", "H", "O"):
        return classical(key).conjugation
    return None


# ---------------------------------------------------------------------------
# AlgebraSpec file format
# ---------------------------------------------------------------------------


@dataclass
class AlgebraSpec:
    """File form of an algebra: sparse constants with exact scalar strings."""

    name: str
    dim: int
    field: str
    basis: List[str]
    constants: List[Tuple[int, int, int, str]]
    conjugation: Optional[List[List[str]]] = None
    properties: Optional[dict] = None  # advisory only, never trusted

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "dim": self.dim,
            "field": self.field,
            "basis": list(self.basis),
            "constants": [[i, j, k, s] for (i, j, k, s) in self.constants],
        }
        if self.conjugation is not None:
            out["conjugation"] = [list(row) for row in self.conjugation]
        if self.properties is not None:
            out["properties"] = self.properties
        return out


class SpecFormatError(ValueError):
    """Malformed algebra file, with a location hint."""


#: Largest dim a spec may declare; the kernels (``engine.ScaledTensor``,
#: the multilinear word tensors) allocate dense arrays of dim^3 and more.
MAX_DIM = 64


def _check_field(field_tag: str) -> None:
    if field_tag not in (FIELD_Q, FIELD_QSQRT3):
        raise SpecFormatError(f"unknown field tag {field_tag!r}")


def _field_parts(text: str, rational: bool, what: str) -> tuple:
    """The ``scalar_parts`` of a scalar of the file's field, rational or
    not; anything else is malformed."""
    try:
        parts = scalar_parts(text)
    except ValueError as exc:
        raise SpecFormatError(f"{what}: {exc}") from exc
    if rational and len(parts) > 2:
        raise SpecFormatError(f"{what}: sqrt scalar in a rational algebra")
    return parts


def load(spec) -> StructureAlgebra:
    """Build an algebra from an AlgebraSpec or its JSON dictionary.

    Each constant string is parsed straight to reduced integer pairs
    (``exactmath.scalar_parts``) and the zeros are dropped, so the integer
    table is built with no Fraction per constant.  The entries may come in
    any order."""
    if isinstance(spec, dict):
        spec = spec_from_dict(spec)
    _check_field(spec.field)
    n = spec.dim
    if n < 1:
        raise SpecFormatError("dim must be >= 1")
    if n > MAX_DIM:
        raise SpecFormatError(f"dim {n} is above the limit of {MAX_DIM}")
    if len(spec.basis) != n:
        raise SpecFormatError("basis length does not match dim")
    rational = spec.field == FIELD_Q
    entries = []
    first_pos = {}
    for pos, (i, j, k, s) in enumerate(spec.constants):
        key = (i, j, k)
        if not (type(i) is type(j) is type(k) is int
                and 0 <= i < n and 0 <= j < n and 0 <= k < n):
            for idx in key:
                if not (isinstance(idx, int) and 0 <= idx < n):
                    raise SpecFormatError(f"constants[{pos}]: index {idx} "
                                          f"out of range 0..{n - 1}")
            # a bool from a Python caller indexes as the int it equals
            i, j, k = map(int, key)
        first = first_pos.setdefault(key, pos)
        if first != pos:
            raise SpecFormatError(
                f"constants[{pos}]: [{key[0]}, {key[1]}, {key[2]}] already "
                f"given at constants[{first}]")
        parts = _field_parts(s, rational, f"constants[{pos}]")
        if len(parts) == 2:
            if parts[0]:
                entries.append((i, j, k, *parts, 0, 1))
        elif parts[0] or parts[2]:
            entries.append((i, j, k, *parts))
    return StructureAlgebra.from_entries(spec.name, n, spec.field, entries,
                                         spec.basis)


def save(A: StructureAlgebra, conjugation=None,
         properties: Optional[dict] = None) -> AlgebraSpec:
    """Serialize an algebra to its sparse file form (canonical ordering):
    the nonzero constants of its integer table, in ascending (i, j, k)."""
    scale, width, table = A.integer_table()
    consts = []
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            if cell:
                parts = ([a for _, a, _ in cell], [b for _, _, b in cell])
                consts += [(i, j, k, format_scalar(c)) for (k, _, _), c in
                           zip(cell, from_parts(parts[:width], scale))]
    conj = None
    if conjugation is not None:
        conj = [[format_scalar(conjugation[r][c]) for c in range(A.dim)]
                for r in range(A.dim)]
    return AlgebraSpec(A.name, A.dim, A.field, list(A.basis_names), consts,
                       conj, properties)


def _json_int(value, what: str) -> int:
    """A JSON integer; a float, a bool or a string is malformed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"{what} must be an integer, not {value!r}")
    return value


def _text(value: str, what: str) -> str:
    """A string the CLI prints; JSON admits lone surrogates, UTF-8 does not."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SpecFormatError(f"{what} is not UTF-8 text: {value!r}") from exc
    return value


def spec_from_dict(data: dict) -> AlgebraSpec:
    try:
        name = data["name"]
        dim = _json_int(data["dim"], "dim")
        field_tag = data["field"]
        basis = data["basis"]
        # entries of three plain ints and a scalar take the short path;
        # anything else is checked index by index
        consts = [(e[0], e[1], e[2], str(e[3]))
                  if type(e) is list and len(e) >= 4 and type(e[0]) is int
                  and type(e[1]) is int and type(e[2]) is int
                  else tuple(_json_int(e[h], f"constants[{pos}] index")
                             for h in range(3)) + (str(e[3]),)
                  for pos, e in enumerate(data["constants"])]
    except (KeyError, TypeError, IndexError) as exc:
        raise SpecFormatError(f"missing or malformed key: {exc}") from exc
    if not (isinstance(basis, list)
            and all(isinstance(b, str) for b in basis)):
        raise SpecFormatError(f"basis must be a list of strings, not {basis!r}")
    for pos, b in enumerate(basis):
        _text(b, f"basis[{pos}]")
    conj = data.get("conjugation")
    if conj is not None:
        if not (isinstance(conj, list)
                and all(isinstance(row, list) for row in conj)):
            raise SpecFormatError(
                f"conjugation must be null or a list of lists, not {conj!r}")
        if len(conj) != dim or any(len(row) != dim for row in conj):
            raise SpecFormatError(
                f"conjugation must be a {dim} x {dim} matrix, not "
                f"{len(conj)} rows of lengths {[len(r) for r in conj]}")
        conj = [[str(x) for x in row] for row in conj]
        for r, row in enumerate(conj):
            for c, x in enumerate(row):
                what = f"conjugation[{r}][{c}]"
                if field_tag not in (FIELD_Q, FIELD_QSQRT3):
                    raise SpecFormatError(
                        f"{what}: unknown field tag {field_tag!r}")
                _field_parts(x, field_tag == FIELD_Q, what)
    return AlgebraSpec(_text(str(name), "name"), dim, str(field_tag), basis,
                       consts, conj, data.get("properties"))


def load_file(path: str) -> StructureAlgebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SpecFormatError(
            f"{path}: byte {exc.start} is not UTF-8") from exc
    except RecursionError as exc:
        raise SpecFormatError(f"{path}: nested too deeply to parse") from exc
    return load(spec_from_dict(data))


def save_file(A: StructureAlgebra, path: str, conjugation=None,
              properties: Optional[dict] = None) -> None:
    spec = save(A, conjugation, properties)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
