"""Algebras shared by several test modules, as session fixtures."""

import pathlib
import sys
from fractions import Fraction

import pytest

from nalab import catalog
from nalab.algebra import FIELD_Q, StructureAlgebra


@pytest.fixture(scope="session")
def ut3():
    """UT3: the upper-triangular 3 x 3 matrices over Q, with basis E_ij
    (i <= j) and E_ij E_kl = [j == k] E_il.  Associative, of dimension 6.
    A generic x has three distinct eigenvalues and no unit is adjoined, so
    A(x) = span{x, x^2, x x^2}: degree 3."""
    cells = [(i, j) for i in range(3) for j in range(i, 3)]
    n = len(cells)

    def const(a, b, c):
        (i, j), (k, l) = cells[a], cells[b]
        return Fraction(int(j == k and cells[c] == (i, l)))

    return StructureAlgebra("UT3", n, FIELD_Q, [
        [[const(a, b, c) for c in range(n)] for b in range(n)]
        for a in range(n)])


def _files_algebras(seed):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                           / "perfbench"))
    import workloads
    return {name: catalog.load(spec)
            for name, spec in workloads.files_algebras(seed).items()}


@pytest.fixture(scope="session")
def files_algebras():
    """The algebras of the benchmark's ``files`` workload at seed 1, loaded
    from their file specs: S16, sparse9, sparse10, dense4 and dense6."""
    return _files_algebras(1)


@pytest.fixture(scope="session")
def files_by_seed(files_algebras):
    """The ``files`` algebras of seeds 1-3, by seed.  S16 is the same at
    every seed; the random algebras vary."""
    return {1: files_algebras, 2: _files_algebras(2), 3: _files_algebras(3)}
