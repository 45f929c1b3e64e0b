"""Regenerate expected.json, the pinned results of every catalog and D8
request, including every division seed of the pool.

    python3 perfbench/pin.py        (from a checkout root)

Only run this on a commit whose answers are trusted: the benchmark counts
any later difference as a failed request.  The results are checked against
the facts of acceptance criteria 5-8 before they are written.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reqs = list(workloads.build_check(0).requests)
    for A in workloads.analysis_algebras().values():
        for kind in workloads.ANALYSIS_KINDS:
            seeds = range(workloads.DIVISION_SEED_POOL) \
                if kind in ("division", "report") else (0,)
            reqs += [workloads.analysis_request(A, kind, s) for s in seeds]
    expected = {}
    for req in reqs:
        expected[req.key] = req.canon(req.run())
    oracle.check_facts(expected)
    tmp = oracle.EXPECTED_PATH + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, oracle.EXPECTED_PATH)
    print(f"pinned {len(expected)} results in {oracle.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
