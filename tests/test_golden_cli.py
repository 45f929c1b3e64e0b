"""Golden CLI output: the stdout and exit code of the analysis commands, of
the symbolic commands (``check`` on every (p, q, r) triple and the
power-commutativity scan), of the multilinear ``check`` on every triple
and of ``show``, on the catalog algebras and D8, pinned byte for byte.
The load and save paths are pinned on algebra files: ``show``, ``units``,
``degree``, one symbolic ``check``, the identity predicates (alternative,
flexible, TPA, x_x2_x) and the power-commutativity scan on the ``files``
algebras of the benchmark at seed 1, and on one hand-written Q(sqrt 3)
file whose entries come out of k order, with unreduced fractions, written
zeros (``-0``, ``0/7``, ``0+0*sqrt3``), spaces inside scalars and
rational constants beside sqrt 3 ones.  The seed-1 ``files`` algebras also
run every other symbolic ``check``, and six catalog algebras with their
constants scaled by 2^12 to 2^25 (saved as files) run every catalog
command: their symbolic sums and the products of the division certificate
pass 2^52 and float64.  ``polarize``, which takes no algebra, runs on every
(p, q, r) triple, with each component alone and with them all, and on the
inputs it refuses with exit 2.

``golden_cli.json`` maps each command line (a file algebra by its file
name, such as ``D8.json``) to the sha256 of its stdout and its exit code.
The runs are replayed in process, each on freshly built catalog algebras:
a verdict kept on a cached algebra by an earlier run would answer in place
of the kernels.  To record the file again after an
intended output change, run

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
from nalab.paperverify import _fresh_catalog

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: the symbolic check of every (p, q, r) triple with p, q, r <= 2
CHECKS = tuple(("check", "--identity", ",".join(map(str, triple)),
                "--backend", "symbolic")
               for triple in itertools.product((1, 2), repeat=3))

#: the same checks through the multilinear backend
MULTILINEAR_CHECKS = tuple(cmd[:-1] + ("multilinear",) for cmd in CHECKS)

#: the identity predicates whose failing witnesses can lie past the first
#: few candidates that are probed before a generic value is built
PREDICATES = tuple(("predicate", "--name", name)
                   for name in ("alternative", "flexible", "TPA", "x_x2_x"))

COMMANDS = (
    ("units",),
    ("degree",),
    ("division", "--trials", "20"),
    ("predicate", "--name", "associative"),
    *PREDICATES,
    ("predicate", "--name", "power_associative"),
    ("predicate", "--name", "quadratic"),
    ("report",),
    ("predicate", "--name", "power_commutative", "--bound", "4"),
    *CHECKS,
    *MULTILINEAR_CHECKS,
    ("show",),
)

#: the commands run on the algebra files below
FILE_COMMANDS = (
    ("show",),
    ("units",),
    ("degree",),
    ("check", "--identity", "1,1,2", "--backend", "symbolic"),
    *PREDICATES,
    ("predicate", "--name", "power_commutative", "--bound", "4"),
)

#: the algebra-free ``polarize`` runs: every triple with p, q, r <= 2,
#: without --m and with each m in 1..p+q+r-1, then the inputs that exit 2:
#: a 3 in the triple, and --m 0 and --m p+q+r on every triple
TRIPLES = tuple(tuple(map(str, t))
                for t in itertools.product((1, 2), repeat=3))
POLARIZE = (
    *(("polarize", *t, *m) for t in TRIPLES
      for m in ((), *(("--m", str(k))
                      for k in range(1, sum(map(int, t)))))),
    *(("polarize", *t) for t in (("3", "1", "1"), ("1", "3", "1"),
                                 ("1", "1", "3"))),
    *(("polarize", *t, "--m", str(k)) for t in TRIPLES
      for k in (0, sum(map(int, t)))),
)

D8_FILE = "D8.json"

#: the seed-1 ``files`` algebras of the benchmark, by file name
FILES_SEED = 1
FILES_NAMES = ("S16", "sparse9", "sparse10", "dense4", "dense6")

#: catalog algebras with every constant times 2^k, as (name, k): each runs
#: COMMANDS from a file named by ``_scaled_file``
SCALED = (("H", 20), ("**H", 20), ("O", 12), ("P", 12), ("H", 25),
          ("P", 23))

#: a hand-written file over Q(sqrt 3) with a two-sided unit u
HAND_FILE = "hand3.json"
HAND_SPEC = {
    "name": "hand3",
    "dim": 3,
    "field": "Q(sqrt 3)",
    "basis": ["u", "v", "w"],
    "constants": [
        [0, 0, 0, "1"],
        [0, 1, 1, "2/2"],
        [1, 0, 1, "1"],
        [0, 2, 2, " 3 / 3 "],
        [2, 0, 2, "1+0*sqrt3"],
        [1, 1, 2, "6/4"],
        [1, 1, 0, "-1/2+1/2*sqrt3"],
        [1, 2, 2, "0/7"],
        [1, 2, 0, "0+0*sqrt3"],
        [1, 2, 1, "-0"],
        [2, 1, 2, "1/3"],
        [2, 1, 0, "1 - 2 * sqrt3"],
        [2, 2, 1, "0-3/6*sqrt3"],
        [2, 2, 0, "-4/6"],
    ],
}


def _files_specs() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return workloads.files_algebras(FILES_SEED)


def _scaled_file(name: str, k: int) -> str:
    return f"{name.replace('*', 'star')}_x2^{k}.json"


def _write_files(directory: pathlib.Path) -> None:
    """D8, the scaled catalog algebras, the seed-1 ``files`` algebras and
    the hand-written file, each in ``directory`` under its file name."""
    n = 8
    consts = [[[Fraction(int(i == j == k)) for k in range(n)]
               for j in range(n)] for i in range(n)]
    catalog.save_file(StructureAlgebra("D8", n, FIELD_Q, consts),
                      str(directory / D8_FILE))
    for name, k in SCALED:
        A = catalog.catalog_algebra(name)
        catalog.save_file(
            StructureAlgebra(f"{name}*2^{k}", A.dim, A.field,
                             [[[c * 2 ** k for c in row] for row in plane]
                              for plane in A.constants]),
            str(directory / _scaled_file(name, k)))
    specs = {f"{name}.json": spec for name, spec in _files_specs().items()}
    specs[HAND_FILE] = HAND_SPEC
    for file_name, spec in specs.items():
        with open(directory / file_name, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=1, sort_keys=True)


SEED_FILES = tuple(f"{name}.json" for name in FILES_NAMES)
FILE_ALGEBRAS = (*SEED_FILES, HAND_FILE)


def golden_cases():
    """The command lines, each as a tuple of arguments with a file algebra
    named by its file name."""
    files_checks = [c for c in CHECKS if c not in FILE_COMMANDS]
    return [(cmd[0], alg, *cmd[1:], "--format", fmt)
            for algs, cmds in (((*catalog.CATALOG_NAMES, D8_FILE,
                                 *(_scaled_file(*s) for s in SCALED)),
                                COMMANDS),
                               (FILE_ALGEBRAS, FILE_COMMANDS),
                               (SEED_FILES, files_checks))
            for alg in algs
            for cmd in cmds for fmt in ("text", "structured")] + \
        [(*cmd, "--format", fmt)
         for cmd in POLARIZE for fmt in ("text", "structured")]


def replay(case, directory: pathlib.Path) -> dict:
    argv = [str(directory / a) if a.endswith(".json") else a for a in case]
    _fresh_catalog()
    code, out = run_capture(argv)
    return {"sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "exit": code}


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_files(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(c) for c in golden_cases())


@pytest.mark.parametrize("case", golden_cases(), ids=" ".join)
def test_cli_output_matches_golden(case, golden, files_dir):
    assert replay(case, files_dir) == golden[" ".join(case)]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        _write_files(directory)
        data = {" ".join(c): replay(c, directory) for c in golden_cases()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
