"""nalab: exact computations in finite-dimensional nonassociative algebras.

Submodules:
  exactmath   exact scalars (Q, Q(sqrt 3)) and exact linear algebra (span
              membership, affine solve, determinants)
  freealg     free nonassociative algebra on {x, y}: associators, jordan
              product, polarization of (x^p, x^q, x^r) = 0, golden tables
  algebra     structure-constant algebras: products, units, identity checks
              (symbolic / multilinear), subalgebras A(x) of concrete x, the
              generic closure, degree, division
  catalog     R, C, H, O, the isotopes *A and **A, pseudo-octonions P, and
              the algebra file format
  identities  predicate suite, statement verifications, hierarchy report
  cli         the `nalab` command line driver
"""

from .algebra import (Element, StructureAlgebra, degree, division_sampled,
                      eval_free_poly, find_units, generic_closure,
                      identity_holds, mult_operator, multiply,
                      subalgebra_generated)
from .catalog import (CATALOG_NAMES, InvolutiveAlgebra, catalog_algebra,
                      classical, load, load_file, okubo, save, save_file,
                      star_both, star_left)
from .exactmath import QuadExt, span_membership
from .freealg import (FreePoly, PolarizedIdentity, associator, commutator,
                      degree4_consequences, golden_table,
                      golden_table_corrected, jordan, polarize, render_poly,
                      substitute)
from .identities import (HIERARCHY_EDGES, check_pqr, hierarchy_report,
                         predicate, verify_instances, verify_prop1,
                         verify_prop2)

__version__ = "0.1.0"
