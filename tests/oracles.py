"""Generic elements on MultiPoly coordinates, for the oracles that check the
packed symbolic kernels.  ``multiply`` and ``eval_free_poly`` are
duck-typed, so they run unchanged on these coordinates."""

from nalab.algebra import Element
from nalab.exactmath import MultiPoly


def generic_element(A, nvars=None, offset=0):
    """The element of A whose coordinates are the independent variables
    x_offset .. x_{offset+dim-1} of a polynomial ring in nvars variables
    (dim A by default)."""
    nv = A.dim if nvars is None else nvars
    return Element(tuple(MultiPoly.variable(nv, offset + i)
                         for i in range(A.dim)))
