"""Golden CLI output: the stdout and exit code of the analysis commands, and
of the symbolic commands (``check`` on every (p, q, r) triple and the
power-commutativity scan), on the catalog algebras and D8, pinned byte for
byte.

``golden_cli.json`` maps each command line (D8 as the file ``D8.json``) to
the sha256 of its stdout and its exit code.  The runs are replayed in
process.  To record the file again after an intended output change, run

    PYTHONPATH=src python tests/test_golden_cli.py

from the root of a checkout.
"""

import hashlib
import itertools
import json
import pathlib
import sys
import tempfile
from fractions import Fraction

import pytest

from nalab import catalog
from nalab.algebra import FIELD_Q, StructureAlgebra
from nalab.cli_io import run_capture

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

COMMANDS = (
    ("units",),
    ("degree",),
    ("division", "--trials", "20"),
    ("predicate", "--name", "associative"),
    ("predicate", "--name", "power_associative"),
    ("predicate", "--name", "quadratic"),
    ("report",),
    ("predicate", "--name", "power_commutative", "--bound", "4"),
    *(("check", "--identity", ",".join(map(str, triple)),
       "--backend", "symbolic")
      for triple in itertools.product((1, 2), repeat=3)),
)

D8_FILE = "D8.json"


def _write_d8(directory: pathlib.Path) -> None:
    n = 8
    consts = [[[Fraction(int(i == j == k)) for k in range(n)]
               for j in range(n)] for i in range(n)]
    catalog.save_file(StructureAlgebra("D8", n, FIELD_Q, consts),
                      str(directory / D8_FILE))


def golden_cases():
    """The command lines, each as a tuple of arguments with D8 named by
    its file name."""
    return [(cmd[0], alg, *cmd[1:], "--format", fmt)
            for alg in (*catalog.CATALOG_NAMES, D8_FILE)
            for cmd in COMMANDS for fmt in ("text", "structured")]


def replay(case, directory: pathlib.Path) -> dict:
    argv = [str(directory / a) if a == D8_FILE else a for a in case]
    code, out = run_capture(argv)
    return {"sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "exit": code}


@pytest.fixture(scope="module")
def d8_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_d8(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(c) for c in golden_cases())


@pytest.mark.parametrize("case", golden_cases(), ids=" ".join)
def test_cli_output_matches_golden(case, golden, d8_dir):
    assert replay(case, d8_dir) == golden[" ".join(case)]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        _write_d8(directory)
        data = {" ".join(c): replay(c, directory) for c in golden_cases()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
