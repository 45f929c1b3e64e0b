"""Constructions of the named algebras and load/save of user algebras.

The classical algebras R, C, H, O come from Cayley-Dickson doubling with the
fixed convention (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c)) and
conjugation (a, b) -> (conj(a), -b).  The standard isotopes *A and **A replace
the product by conj(x) y and conj(x) conj(y) respectively.  The pseudo-octonion
algebra P is built from its 3x3 traceless hermitian matrix model over
Q(sqrt 3) with complex intermediates; the construction verifies closure
(tracelessness, hermiticity, real structure constants) as it runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .algebra import FIELD_Q, FIELD_QSQRT3, Element, StructureAlgebra
from .exactmath import (ComplexScalar, QuadExt, format_scalar,
                        parse_scalar, scalar_is_zero)


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


def star_left(inv: InvolutiveAlgebra) -> StructureAlgebra:
    """The isotope *A with product x * y = conj(x) y."""
    if inv.conjugation is None:
        raise MissingConjugationError("isotope needs a conjugation")
    A = inv.algebra
    n = A.dim
    conj = inv.conjugation
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = Fraction(0)
                for m in range(n):
                    cm = conj[m][i]
                    if not scalar_is_zero(cm):
                        acc = acc + cm * A.constants[m][j][k]
                constants[i][j][k] = acc
    return StructureAlgebra("*" + A.name, n, A.field, constants, A.basis_names)


def star_both(inv: InvolutiveAlgebra) -> StructureAlgebra:
    """The isotope **A with product x * y = conj(x) conj(y)."""
    if inv.conjugation is None:
        raise MissingConjugationError("isotope needs a conjugation")
    A = inv.algebra
    n = A.dim
    conj = inv.conjugation
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = Fraction(0)
                for m in range(n):
                    cm = conj[m][i]
                    if scalar_is_zero(cm):
                        continue
                    for l in range(n):
                        cl = conj[l][j]
                        if not scalar_is_zero(cl):
                            acc = acc + cm * cl * A.constants[m][l][k]
                constants[i][j][k] = acc
    return StructureAlgebra("**" + A.name, n, A.field, constants,
                            A.basis_names)


# ---------------------------------------------------------------------------
# Pseudo-octonions (Okubo algebra)
# ---------------------------------------------------------------------------


def _cs(a=0, b=0) -> ComplexScalar:
    """Complex scalar re=a, im=b over Q(sqrt 3); a, b may be QuadExt."""
    re = a if isinstance(a, QuadExt) else QuadExt(a, 0, 3)
    im = b if isinstance(b, QuadExt) else QuadExt(b, 0, 3)
    return ComplexScalar(re, im)


def _gell_mann() -> List[List[List[ComplexScalar]]]:
    """The eight lambda matrices, normalized so Tr(l_a l_b) = 2 delta_ab."""
    z = _cs()
    one = _cs(1)
    i_ = _cs(0, 1)
    # 1/sqrt(3) = sqrt(3)/3
    inv_r3 = QuadExt(0, Fraction(1, 3), 3)
    lam = []
    lam.append([[z, one, z], [one, z, z], [z, z, z]])
    lam.append([[z, -i_, z], [i_, z, z], [z, z, z]])
    lam.append([[one, z, z], [z, -one, z], [z, z, z]])
    lam.append([[z, z, one], [z, z, z], [one, z, z]])
    lam.append([[z, z, -i_], [z, z, z], [i_, z, z]])
    lam.append([[z, z, z], [z, z, one], [z, one, z]])
    lam.append([[z, z, z], [z, z, -i_], [z, i_, z]])
    lam.append([[_cs(inv_r3), z, z], [z, _cs(inv_r3), z],
                [z, z, _cs(-1 * inv_r3 - inv_r3)]])
    return lam


def _mat_mul(A, B):
    return [[sum((A[i][t] * B[t][j] for t in range(3)), _cs())
             for j in range(3)] for i in range(3)]


def _mat_add(A, B):
    return [[A[i][j] + B[i][j] for j in range(3)] for i in range(3)]


def _mat_scale(c, A):
    return [[c * A[i][j] for j in range(3)] for i in range(3)]


def _mat_trace(A) -> ComplexScalar:
    return A[0][0] + A[1][1] + A[2][2]


def _mat_is_hermitian(A) -> bool:
    for i in range(3):
        for j in range(3):
            if A[i][j] != A[j][i].conjugate():
                return False
    return True


class OkuboConstructionError(AssertionError):
    """Internal consistency failure while building the pseudo-octonions."""


@lru_cache(maxsize=None)
def okubo() -> StructureAlgebra:
    """The 8-dimensional pseudo-octonion algebra P over Q(sqrt 3).

    Product on traceless 3x3 hermitian matrices:
    x * y = mu x y + conj(mu) y x - (1/3) Tr(x y) I with mu = 1/2 + (sqrt3/6) i
    (so mu + conj(mu) = 1 and the product is traceless and hermitian again).
    Structure constants are expanded on the Gell-Mann basis and must come out
    real, in Q(sqrt 3); anything else raises OkuboConstructionError.
    """
    lam = _gell_mann()
    mu = ComplexScalar(QuadExt(Fraction(1, 2), 0, 3),
                       QuadExt(0, Fraction(1, 6), 3))
    mubar = mu.conjugate()
    eye = [[_cs(1) if i == j else _cs() for j in range(3)] for i in range(3)]
    n = 8
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    for a in range(n):
        for b in range(n):
            xy = _mat_mul(lam[a], lam[b])
            yx = _mat_mul(lam[b], lam[a])
            prod = _mat_add(_mat_scale(mu, xy), _mat_scale(mubar, yx))
            tr = _mat_trace(xy)  # Tr(xy) = Tr(yx)
            prod = _mat_add(prod, _mat_scale(_cs(-1) * tr * third, eye))
            if not _mat_trace(prod).is_zero():
                raise OkuboConstructionError("product is not traceless")
            if not _mat_is_hermitian(prod):
                raise OkuboConstructionError("product is not hermitian")
            for k in range(n):
                # coefficient on lambda_k: Tr(prod * lambda_k) / 2
                coef = _mat_trace(_mat_mul(prod, lam[k])) * half
                if not coef.is_real():
                    raise OkuboConstructionError(
                        "non-real structure constant found")
                constants[a][b][k] = coef.re
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


def _spec_field_d(field_tag: str) -> int:
    if field_tag == FIELD_Q:
        return 3  # irrelevant, no sqrt part may occur
    if field_tag == FIELD_QSQRT3:
        return 3
    raise SpecFormatError(f"unknown field tag {field_tag!r}")


def load(spec) -> StructureAlgebra:
    """Build an algebra from an AlgebraSpec or its JSON dictionary."""
    if isinstance(spec, dict):
        spec = spec_from_dict(spec)
    d = _spec_field_d(spec.field)
    n = spec.dim
    if n < 1:
        raise SpecFormatError("dim must be >= 1")
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
            val = parse_scalar(s, d)
        except ValueError as exc:
            raise SpecFormatError(f"constants[{pos}]: {exc}") from exc
        if isinstance(val, QuadExt) and spec.field == FIELD_Q:
            raise SpecFormatError(
                f"constants[{pos}]: sqrt scalar in a rational algebra")
        constants[i][j][k] = val
    return StructureAlgebra(spec.name, n, spec.field, constants, spec.basis)


def save(A: StructureAlgebra, conjugation=None,
         properties: Optional[dict] = None) -> AlgebraSpec:
    """Serialize an algebra to its sparse file form (canonical ordering)."""
    consts = []
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                c = A.constants[i][j][k]
                if not scalar_is_zero(c):
                    consts.append((i, j, k, format_scalar(c)))
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


def spec_from_dict(data: dict) -> AlgebraSpec:
    try:
        name = data["name"]
        dim = _json_int(data["dim"], "dim")
        field_tag = data["field"]
        basis = list(data["basis"])
        consts = [tuple(_json_int(e[h], f"constants[{pos}] index")
                        for h in range(3)) + (str(e[3]),)
                  for pos, e in enumerate(data["constants"])]
    except (KeyError, TypeError, IndexError) as exc:
        raise SpecFormatError(f"missing or malformed key: {exc}") from exc
    conj = data.get("conjugation")
    if conj is not None:
        conj = [[str(x) for x in row] for row in conj]
    return AlgebraSpec(str(name), dim, str(field_tag), basis, consts,
                       conj, data.get("properties"))


def load_file(path: str) -> StructureAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise SpecFormatError(
                f"{path}: byte {exc.start} is not UTF-8") from exc
    return load(spec_from_dict(data))


def save_file(A: StructureAlgebra, path: str, conjugation=None,
              properties: Optional[dict] = None) -> None:
    spec = save(A, conjugation, properties)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_json_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
