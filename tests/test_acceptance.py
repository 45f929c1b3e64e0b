"""Acceptance gate: the nine repository criteria, one pass/fail line each.

Every criterion is exact (no tolerances beyond the stated wall-clock
budgets, which are asserted inside the criterion implementations).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import pytest

from nalab import paperverify

NAMES = {
    1: "golden tables (17 rows, misprint flagged)",
    2: "polarization symmetry and sum expansion",
    3: "degree-4 span membership with exact coefficients",
    4: "unital substitution constants for the 7 admissible triples",
    5: "catalog property matrix (incl. 8^6-tuple multilinear checks)",
    6: "symbolic/multilinear backend equivalence on all catalog algebras",
    7: "hierarchy chart consistency",
    8: "degrees lie in {1, 2, 4, 8}; degree(*H) = 2",
    9: "file and structured-output round trips, seeded determinism",
}


def _run(num):
    results = paperverify.run([num])
    failed = [r for r in results if not r.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] criterion {num}: {NAMES[num]} "
          f"({len(results) - len(failed)}/{len(results)} checks)")
    for r in failed:
        print(f"    FAILED: {r.key} {r.detail}")
    assert not failed, f"criterion {num} failed: " + \
        "; ".join(f"{r.key} {r.detail}" for r in failed)


def test_criterion_1_golden_tables():
    _run(1)


def test_criterion_2_symmetry_and_expansion():
    _run(2)


def test_criterion_3_degree4_membership():
    _run(3)


def test_criterion_4_unital_substitution():
    _run(4)


def test_criterion_5_catalog_matrix():
    _run(5)


def test_criterion_6_backend_equivalence():
    _run(6)


def test_criterion_7_hierarchy_consistency():
    _run(7)


def test_criterion_8_degrees():
    _run(8)


def test_criterion_9_round_trips():
    _run(9)


def test_criterion_9_decides_each_run(monkeypatch):
    """Both runs of ``check H --identity 1,1,2`` decide the identity: the
    second is not answered from a verdict kept on H by the first."""
    from nalab import algebra
    from nalab.freealg import pqr_associator
    decide, decided = algebra._decide_identity, []

    def recording(A, poly, backend):
        decided.append((A.name, poly, backend))
        return decide(A, poly, backend)

    monkeypatch.setattr(algebra, "_decide_identity", recording)
    assert all(r.passed for r in paperverify.criterion_9())
    assert decided.count(("H", pqr_associator(1, 1, 2), "symbolic")) == 2


def test_paper_verify_cli_entry():
    """The CLI entry point reports the same verdicts (fast criteria)."""
    from nalab.cli_io import parse_structured, run_capture
    code, out = run_capture(["paper-verify", "--criteria", "1,3,4",
                             "--format", "structured"])
    assert code == 0
    data = parse_structured(out)
    assert data["all_passed"] is True
    crits = {r["criterion"] for r in data["results"]}
    assert crits == {1, 3, 4}
