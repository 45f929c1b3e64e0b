"""Verdict oracle: decides which benchmark requests returned a wrong answer.

Four independent checks:

* pinned results (``expected.json``) for every catalog and D8 request,
  themselves cross-checked against the facts acceptance criteria 5-8 assert;
* every failing symbolic verdict's witness is re-evaluated with
  ``eval_free_poly`` and must give a nonzero element;
* the symbolic and multilinear verdicts of each (algebra, polynomial) pair
  agree, the only check there is for the random ``files`` algebras;
* a D8 zero-divisor witness is checked with the determinant of its diagonal
  multiplication operators, the product of its coordinates, not with
  ``exactmath.det``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Dict, List, Set

from nalab import algebra, catalog, freealg
from nalab.exactmath import parse_scalar

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

_STAR = ("*C", "*H", "*O")
_DSTAR = ("**C", "**H", "**O")

#: (request key, field, value): facts from acceptance criteria 5-8.  A key
#: ending in "s=*" stands for every division seed of the pool.
FACTS = (
    [(f"predicate|{a}|associative", "value", True) for a in "RCH"]
    + [(f"predicate|{a}|quadratic", "value", True) for a in ("C", "H", "O")]
    + [("degree|R", None, 1), ("degree|C", None, 2), ("degree|H", None, 2),
       ("degree|O", None, 2),
       ("predicate|O|alternative", "value", True),
       ("predicate|O|associative", "value", False)]
    + [(f"predicate|{a}|{p}", "value", v) for a in _STAR
       for p, v in (("has_left_unit", True), ("has_right_unit", False),
                    ("TPA", False))]
    + [(f"degree|{a}", None, 2) for a in _STAR]
    + [(f"check|{a}|(2,{q},{r})|symbolic", "holds", True) for a in _STAR
       for q in (1, 2) for r in (1, 2)]
    + [("check|*O|(2,2,2)|multilinear", "holds", True)]
    + [(f"predicate|{a}|{p}", "value", v) for a in _DSTAR
       for p, v in (("has_left_unit", False), ("has_right_unit", False),
                    ("flexible", True))]
    + [(f"predicate|{a}|power_associative", "value", False)
       for a in ("**H", "**O")]
    + [(f"predicate|P|{p}", "value", v)
       for p, v in (("has_left_unit", False), ("has_right_unit", False),
                    ("flexible", True), ("TPA", True),
                    ("power_associative", False))]
    + [("check|P|(1,1,1)|symbolic", "holds", True),
       ("division|P|s=*", "all_invertible", True)]
    + [(f"report|{a}|s=*", "consistent", True)
       for a in catalog.CATALOG_NAMES]
    + [("predicate|D8|associative", "value", True),
       ("predicate|D8|has_unit", "value", True),
       ("degree|D8", None, 8),
       ("division|D8|s=*", "all_invertible", False)]
)


def load_expected() -> Dict[str, object]:
    """The pinned results, after checking them against FACTS."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return check_facts(json.load(fh))


def check_facts(expected: Dict[str, object]) -> Dict[str, object]:
    """expected itself; raises AssertionError if it contradicts FACTS."""
    for key, fld, value in FACTS:
        if key.endswith("s=*"):
            prefix = key[:-1]
            matches = [v for k, v in expected.items() if k.startswith(prefix)]
        else:
            matches = [expected[key]] if key in expected else []
        if not matches:
            raise AssertionError(f"pinned results miss {key}")
        for got in matches:
            got = got if fld is None else got[fld]
            if got != value:
                raise AssertionError(
                    f"pinned {key} has {fld} = {got!r}, criteria say {value!r}")
    return expected


def _element(A, coords: List[str]) -> algebra.Element:
    return A.element([parse_scalar(c) for c in coords])


def failed_keys(inputs, canon: Dict[str, List[object]],
                expected: Dict[str, object]) -> Set[str]:
    """Request keys with a wrong, unstable or unverifiable result.

    canon maps each request key to its canonical result in every pass (an
    exception is recorded as {"error": ...}).
    """
    bad: Set[str] = set()
    for key, results in canon.items():
        first = results[0]
        if any(r != first for r in results) or \
                isinstance(first, dict) and "error" in first:
            bad.add(key)
        elif key in expected and expected[key] != first:
            bad.add(key)
    pred_polys = _predicate_polys()
    for key, results in canon.items():
        if key in bad:
            continue
        parts = key.split("|")
        first = results[0]
        if parts[0] == "predicate" and parts[2] in pred_polys and \
                first["mode"] == "symbolic-proof" and not first["value"]:
            if not any(_witness_fails(inputs.algebras[parts[1]], f,
                                      first.get("witness"))
                       for f in pred_polys[parts[2]]):
                bad.add(key)
        elif parts[-1] == "symbolic":
            twin = canon.get("|".join(parts[:-1] + ["multilinear"]))
            if twin is None or twin[0].get("holds") != first["holds"]:
                bad.add(key)
            elif not first["holds"] and not _witness_fails(
                    inputs.algebras[parts[1]], inputs.polys[parts[2]],
                    first.get("witness")):
                bad.add(key)
        elif parts[0] == "division" and parts[1] == "D8":
            if not _diagonal_zero_divisor(first.get("witness")):
                bad.add(key)
    return bad


def _predicate_polys() -> Dict[str, List[freealg.FreePoly]]:
    """The identities behind each identity predicate; a witness of a false
    predicate must violate one of them."""
    x, y = freealg.FreePoly.var(freealg.X), freealg.FreePoly.var(freealg.Y)
    xx = x * x
    return {
        "alternative": [freealg.associator(x, x, y),
                        freealg.associator(y, x, x)],
        "flexible": [freealg.associator(x, y, x)],
        "TPA": [freealg.pqr_associator(1, 1, 1)],
        "x_x2_x": [freealg.pqr_associator(1, 2, 1)],
        "power_associative": [x * xx - xx * x, xx * xx - (xx * x) * x],
    }


def _witness_fails(A, poly, witness) -> bool:
    """Does the identity evaluate to a nonzero element at the witness?"""
    if not witness or not set(witness) >= poly.variables():
        return False
    assignment = {v: _element(A, witness[v]) for v in poly.variables()}
    return not algebra.eval_free_poly(A, poly, assignment).is_zero()


def _diagonal_zero_divisor(coords) -> bool:
    """In D_n, L_x = R_x = diag(x): singular iff a coordinate vanishes."""
    if not coords:
        return False
    det = Fraction(1)
    for c in coords:
        det *= Fraction(c)
    return det == 0 and any(Fraction(c) != 0 for c in coords)
