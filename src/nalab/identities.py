"""Predicate suite and statement-level verifications.

Implements the identity checks (x^p, x^q, x^r) = 0, the named structural
predicates (associative, alternative, flexible, third power-associative,
power-associative, power-commutative, quadratic, unit predicates), the
degree-4 span membership behind the "TPA implies (x, x^2, x) = 0" statement,
the unital substitution constants behind "unital + one identity implies TPA",
instance-level verification of the division-algebra statements on catalog
algebras, and the property hierarchy consistency report.

Associativity has one check, ``_nonassociative_triple``, on exact products
of a list of elements.  It decides the "associative" predicate on A's basis
for both backends, and A(x) = A in the cross-check of "power_associative".
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import engine
from .algebra import (Element, HoldsResult, StructureAlgebra,
                      _find_witness, _symbolic_groups, _witness_points,
                      check_backend, degree, division_sampled, find_units,
                      generic_closure, identity_holds, multiply,
                      product_parts)
from .exactmath import clear_denominators, scalar_rank, span_membership
from .freealg import (DEGREE4_WORDS, FreePoly, X, Y, associator,
                      degree4_consequences, enumerate_trees, polarize,
                      poly_to_word_vector, pqr_associator, substitute,
                      term_degree)

ALL_TRIPLES: Tuple[Tuple[int, int, int], ...] = tuple(
    itertools.product((1, 2), repeat=3))

PROPERTY_NAMES = (
    "associative", "alternative", "flexible", "TPA", "x_x2_x",
    "power_associative", "power_commutative", "quadratic",
    "has_left_unit", "has_right_unit", "has_unit",
)


@dataclass(frozen=True)
class PredicateResult:
    name: str
    value: bool
    mode: str  # "symbolic-proof" | "multilinear-proof" | "bounded(D)"
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "value": self.value, "mode": self.mode}
        if self.witness is not None:
            out["witness"] = {k: [str(c) for c in v.coords]
                              if isinstance(v, Element) else str(v)
                              for k, v in self.witness.items()}
        return out


@dataclass
class PropertyReport:
    algebra: str
    entries: Dict[str, PredicateResult] = field(default_factory=dict)

    def value(self, name: str) -> bool:
        return self.entries[name].value

    def to_dict(self) -> dict:
        return {"algebra": self.algebra,
                "properties": {k: v.to_dict()
                               for k, v in sorted(self.entries.items())}}


def check_pqr(A: StructureAlgebra, p: int, q: int, r: int,
              backend: str = "symbolic") -> HoldsResult:
    """Does (x^p, x^q, x^r) = 0 hold identically in A?

    The symbolic backend tests the one-variable identity at a generic
    element.  The multilinear backend tests the linearization component
    f_1 on all basis tuples.  In characteristic zero each component alone
    is equivalent to the identity: the full linearization of f_m is
    C(d, m) (d-m)! m! times that of the degree-d identity (Zhevlakov et al.,
    *Rings that are nearly associative*, ch. 1), so f_1 decides it.
    """
    check_backend(backend)
    if backend == "symbolic":
        return identity_holds(A, pqr_associator(p, q, r), "symbolic")
    return identity_holds(A, polarize(p, q, r).f(1), "multilinear")


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def _identity_predicate(A, name, poly, backend) -> PredicateResult:
    res = identity_holds(A, poly, backend)
    mode = f"{backend}-proof"
    return PredicateResult(name, res.holds, mode, res.witness)


def _nonassociative_triple(A: StructureAlgebra, elements: Sequence[Element]
                           ) -> Optional[Tuple[int, int, int]]:
    """The first (a, b, c), in lexicographic order, with
    (w_a w_b) w_c != w_a (w_b w_c) for w = elements; None when every triple
    associates.

    Only the integer product ``product_parts`` is used, so the check shares
    no code with either identity backend.  Each element is cleared to
    integers first: both sides of a triple are trilinear, so clearing scales
    them by the same nonzero factor, and both carry the factor scale^2 of
    two integer products.  Each pair product w_a w_b is formed at most once,
    when first needed: a triple costs two more products.
    """
    w = [clear_denominators(e.coords)[0] for e in elements]
    pairs: Dict[Tuple[int, int], tuple] = {}

    def pair(a: int, b: int) -> tuple:
        if (a, b) not in pairs:
            pairs[a, b] = product_parts(A, w[a], w[b])
        return pairs[a, b]

    for a, b, c in itertools.product(range(len(w)), repeat=3):
        if product_parts(A, pair(a, b), w[c]) != \
                product_parts(A, w[a], pair(b, c)):
            return a, b, c
    return None


def _is_associative(A: StructureAlgebra, backend: str) -> PredicateResult:
    """Associativity, decided on A's basis triples for both backends: the
    associator is trilinear, so that is exact.  The witness is the first
    non-associating triple (x, y, z) in lexicographic order.

    The mode is an output rule, not a record of which backend ran:
    "multilinear-proof" for the multilinear backend or dimension above 5,
    "symbolic-proof" otherwise.  Structured output pins it byte for byte.
    """
    mode = ("multilinear-proof" if backend == "multilinear" or A.dim > 5
            else "symbolic-proof")
    basis = [A.basis_element(i) for i in range(A.dim)]
    triple = _nonassociative_triple(A, basis)
    if triple is None:
        return PredicateResult("associative", True, mode)
    wit = {v: basis[i] for v, i in zip(("x", "y", "z"), triple)}
    return PredicateResult("associative", False, mode, wit)


#: From this bound on, the generic closure is asked before the full scan.
#: Standalone on fresh copies of the catalog algebras and the ``files``
#: algebras of seeds 1-3 (2 vCPUs), a bound-3 scan costs less than the
#: closure on each (S16: 10-25 ms against about 45); at bound 4 the
#: closure path costs P 74 -> 32 ms, S16 about 71 -> 40 ms and H 2.6 ->
#: 7.3 ms, and at bound 5 it is cheaper on all but H (6.4 -> 6.5 ms).
_CLOSURE_BOUND = 4


def _power_commutative_bounded(A: StructureAlgebra, bound: int
                               ) -> PredicateResult:
    """All parenthesized words in one variable of leaf-degree <= bound
    commute pairwise at a generic element.

    The first step that decides stops:

    1. A is commutative (its constants are symmetric in i and j): every
       pair of words commutes, so True.
    2. From bound ``_CLOSURE_BOUND`` on, the bound-2 scan: x and x^2 are
       the first two words any scan keeps, so if [x, x^2] != 0 every scan
       fails at that pair with the same witness, and its answer is the
       answer.
    3. Then, if the words of the generic closure (``generic_closure``)
       commute pairwise, True: they span A(x) over the function field and
       commutators are bilinear, so every pair of words commutes.
    4. Otherwise ``_power_commutative_scan`` answers.

    Only the scan answers False or gives a witness.
    """
    mode = f"bounded({bound})"
    t = A.tensor()
    if all(np.array_equal(p, p.transpose(1, 0, 2)) for p in t.parts):
        return PredicateResult("power_commutative", True, mode)
    if bound >= _CLOSURE_BOUND:
        first = _power_commutative_scan(A, 2)
        if not first.value:
            return replace(first, mode=mode)
        if _closure_words_commute(A):
            return PredicateResult("power_commutative", True, mode)
    return _power_commutative_scan(A, bound)


def _sym_commutator(u: engine.SymVec, v: engine.SymVec,
                    t: engine.ScaledTensor) -> engine.SymVec:
    """[u, v] = uv - vu, on packed keys."""
    return engine.sym_combine([(1, engine.sym_product(u, v, t)),
                               (-1, engine.sym_product(v, u, t))], t.n)


def _closure_words_commute(A: StructureAlgebra) -> bool:
    """Do the words of the generic closure commute pairwise, evaluated in
    one ``engine.SymContext``?  The closure keeps no words when A(x) = A;
    then nothing is shown, so False."""
    words = generic_closure(A).words
    if not words:
        return False
    t = A.tensor()
    top = max(term_degree(w) for w in words)
    ctx = engine.SymContext(t, _symbolic_groups(A, (X,), 2 * top))
    values = [ctx.eval_term(w) for w in words]
    return all(engine.sym_is_zero(_sym_commutator(u, v, t))
               for u, v in itertools.combinations(values, 2))


def _power_commutative_scan(A: StructureAlgebra, bound: int
                            ) -> PredicateResult:
    """The bounded(D) scan: all parenthesized words in one variable of
    leaf-degree <= bound, commuted pairwise at a generic element.

    A word is skipped when its generic value is zero or equal to that of an
    earlier kept word of the same leaf-degree.  One degree shares one
    denom_power, so ``sym_combine`` decides the equality exactly.

    Skipping cannot move the answer.  Let (a, b) be the first pair, in
    enumeration order over all words, with [w_a, w_b] != 0.  Were w_b
    skipped, w_b = sum c_k w_k over kept k < b; commutators are bilinear
    and [w, w] = 0, so some [w_a, w_k] != 0 with k != a, and the pair
    (a, k) or (k, a) comes before (a, b).  Were w_a skipped, w_a =
    sum c_k w_k over kept k < a gives some [w_k, w_b] != 0, and (k, b)
    comes first.  So both are kept, (a, b) is also the first failing kept
    pair, and the value, the mode and the [w1, w2] witness are those of
    the full enumeration.  The argument holds for any skipping of words in
    the rational span of earlier kept ones.
    """
    mode = f"bounded({bound})"
    n = A.dim
    t = A.tensor()
    # commutators multiply two words of degree <= bound
    ctx = engine.SymContext(t, _symbolic_groups(A, (X,), 2 * bound))
    reps: List[Tuple] = []  # (word, SymVec), distinct nonzero values
    for deg in range(1, bound + 1):
        start = len(reps)
        for w in enumerate_trees(deg):
            sv = ctx.eval_term(w)
            if engine.sym_is_zero(sv) or any(
                    engine.sym_is_zero(engine.sym_combine(
                        [(1, sv), (-1, kept)], n))
                    for _, kept in reps[start:]):
                continue
            reps.append((w, sv))
    for (w1, s1), (w2, s2) in itertools.combinations(reps, 2):
        comm = _sym_commutator(s1, s2, t)
        if not engine.sym_is_zero(comm):
            wit = _commutation_witness(A, w1, w2)
            return PredicateResult("power_commutative", False, mode, wit)
    return PredicateResult("power_commutative", True, mode)


def _commutation_witness(A: StructureAlgebra, w1, w2):
    """A witness of [w1, w2] != 0, once the generic x has shown that the
    commutator is nonzero: the first candidate x at which it is."""
    poly = FreePoly.term(w1) * FreePoly.term(w2) - \
        FreePoly.term(w2) * FreePoly.term(w1)
    wit = _find_witness(A, poly, (X,))
    if wit is None:
        return None
    wit = dict(wit)
    wit["words"] = f"[{w1}, {w2}]"
    return wit


def _power_associative(A: StructureAlgebra, backend: str) -> PredicateResult:
    """Characteristic-zero criterion: x x^2 = x^2 x and x^2 x^2 = (x^2 x) x.

    These two identities imply full power-associativity over characteristic
    zero (A. A. Albert, "Power-associative rings", Trans. AMS 64, 1948; used
    here as an external fact).  When both hold, an exact cross-check asks
    whether A(x) is associative at a generic x; a failure raises
    AssertionError.  With no words (A(x) = A) A's basis triples decide it;
    otherwise the associator is trilinear, so every associator of the words
    spanning A(x) must vanish, evaluated in one ``engine.SymContext``.
    """
    x = FreePoly.var(X)
    xx = FreePoly.term((X, X))
    fourth = xx * xx - (xx * x) * x
    # x x^2 - x^2 x = -(x, x, x): the same zero set and the same witness
    r1 = identity_holds(A, pqr_associator(1, 1, 1), backend)
    if not r1.holds:
        return PredicateResult("power_associative", False,
                               f"{backend}-proof", r1.witness)
    r2 = identity_holds(A, fourth, backend)
    if not r2.holds:
        return PredicateResult("power_associative", False,
                               f"{backend}-proof", r2.witness)
    words = generic_closure(A).words
    if not words:
        basis = [A.basis_element(i) for i in range(A.dim)]
        associative = _nonassociative_triple(A, basis) is None
    else:
        top = max(term_degree(w) for w in words)
        ctx = engine.SymContext(A.tensor(),
                                _symbolic_groups(A, (X,), 3 * top))
        terms = [FreePoly.term(w) for w in words]
        associative = all(
            engine.sym_is_zero(ctx.eval_poly(associator(a, b, c)))
            for a, b, c in itertools.product(terms, repeat=3))
    if not associative:
        raise AssertionError(
            "power-associativity criterion contradicted by the generic A(x)")
    return PredicateResult("power_associative", True, f"{backend}-proof")


def _quadratic(A: StructureAlgebra) -> PredicateResult:
    """Unital, and {e, x, x^2} linearly dependent for every x: at a generic
    x, ``engine.SymSpan`` keeps e, then x, then x^2 only while each is
    independent of the rows before it over the function field."""
    units = find_units(A)
    if units.two_sided is None:
        return PredicateResult("quadratic", False, "symbolic-proof",
                               {"reason": "no two-sided unit"})
    e = units.two_sided
    # the test multiplies e, x and x^2: degree 3
    x = _symbolic_groups(A, (X,), 3)[X]
    span = engine.SymSpan()
    if not all(span.add(row) for row in (
            x.constant_like(e.coords), x,
            engine.sym_product(x, x, A.tensor()))):
        return PredicateResult("quadratic", True, "symbolic-proof")
    wit = _find_dependence_witness(A, e)
    return PredicateResult("quadratic", False, "symbolic-proof", wit)


def _find_dependence_witness(A: StructureAlgebra, e: Element):
    for point in itertools.islice(_witness_points(A.dim), 0, 120):
        cand = A.element([Fraction(c) for c in point])
        x2 = multiply(A, cand, cand)
        m = [list(e.coords), list(cand.coords), list(x2.coords)]
        if scalar_rank(m) == 3:
            return {"x": cand}
    return None


def predicate(A: StructureAlgebra, name: str, backend: str = "symbolic",
              bound: int = 5) -> PredicateResult:
    """Evaluate a named structural predicate with proof-mode bookkeeping.

    backend must be "symbolic" or "multilinear" for every name, though only
    the identity predicates use it.  The result is kept on A under (name,
    backend, bound), beside the verdicts of ``identity_holds``, so each
    predicate is decided once per algebra; the backends never share an
    entry, and a call that raises keeps nothing.
    """
    key = (name, backend, bound)
    res = A._verdicts.get(key)
    if res is None:
        res = A._verdicts[key] = _decide_predicate(A, name, backend, bound)
    return res


def _decide_predicate(A: StructureAlgebra, name: str, backend: str,
                      bound: int) -> PredicateResult:
    check_backend(backend)
    x, y = FreePoly.var(X), FreePoly.var(Y)
    if name == "associative":
        return _is_associative(A, backend)
    if name == "alternative":
        left = identity_holds(A, associator(x, x, y), backend)
        if not left.holds:
            return PredicateResult(name, False, f"{backend}-proof",
                                   left.witness)
        right = identity_holds(A, associator(y, x, x), backend)
        return PredicateResult(name, right.holds, f"{backend}-proof",
                               right.witness)
    if name == "flexible":
        return _identity_predicate(A, name, associator(x, y, x), backend)
    if name == "TPA":
        return _identity_predicate(A, name, pqr_associator(1, 1, 1), backend)
    if name == "x_x2_x":
        return _identity_predicate(A, name, pqr_associator(1, 2, 1), backend)
    if name == "power_associative":
        return _power_associative(A, backend)
    if name == "power_commutative":
        return _power_commutative_bounded(A, bound)
    if name == "quadratic":
        return _quadratic(A)
    if name in ("has_left_unit", "has_right_unit", "has_unit"):
        units = find_units(A)
        val = {"has_left_unit": units.has_left,
               "has_right_unit": units.has_right,
               "has_unit": units.has_unit}[name]
        return PredicateResult(name, val, "symbolic-proof")
    raise ValueError(f"unknown property name {name!r}")


# ---------------------------------------------------------------------------
# Statement-level verifications
# ---------------------------------------------------------------------------


def verify_prop1() -> dict:
    """(x, x^2, x) lies in the degree-4 span of the consequences of
    (x, x, x) = 0; returns the exact coefficients and the word-space size."""
    target = associator(FreePoly.var(X), FreePoly.term((X, X)),
                        FreePoly.var(X))
    gens = degree4_consequences()
    inside, coeffs = span_membership(
        poly_to_word_vector(target),
        [poly_to_word_vector(g) for g in gens])
    return {
        "member": inside,
        "coefficients": coeffs,
        "word_space_dim": len(DEGREE4_WORDS),
    }


class NotProportionalError(AssertionError):
    """Unital substitution did not collapse to a multiple of (x, x, x)."""


def verify_prop2(p: int, q: int, r: int) -> dict:
    """Substitute y = 1 in component m = p+q+r-3 and extract the constant c
    with f_m(x, 1) = c (x, x, x); requires (p, q, r) != (1, 1, 1)."""
    if (p, q, r) == (1, 1, 1):
        raise ValueError("the triple (1, 1, 1) is excluded")
    m = p + q + r - 3
    pol = polarize(p, q, r)
    subbed = substitute(pol.f(m), {X: FreePoly.var(X), Y: FreePoly.unit()},
                        unital=True)
    tpa = pqr_associator(1, 1, 1)
    if subbed.is_zero():
        raise NotProportionalError("substitution collapsed to zero")
    # candidate constant from any common term
    t0 = next(iter(tpa.terms))
    c = subbed.terms.get(t0, Fraction(0)) / tpa.terms[t0]
    if c == 0 or subbed != tpa.scale(c):
        raise NotProportionalError(
            f"f_{m}(x, 1) is not proportional to (x, x, x) for "
            f"({p}, {q}, {r})")
    return {"m": m, "constant": c}


@dataclass(frozen=True)
class StatementCheck:
    statement: str
    hypothesis_satisfied: bool
    conclusion_holds: Optional[bool]
    verdict: str  # "consistent" | "vacuous" | "unresolved" | "violated"
    notes: str = ""

    @property
    def consistent(self) -> bool:
        return self.verdict != "violated"

    def to_dict(self) -> dict:
        return {
            "statement": self.statement,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "conclusion_holds": self.conclusion_holds,
            "verdict": self.verdict,
            "consistent": self.consistent,
            "notes": self.notes,
        }


def verify_instances(A: StructureAlgebra, trials: int = 200,
                     seed: int = 0, bound: int = 5) -> List[StatementCheck]:
    """Instance-level consistency of the division-algebra statements on A.

    Hypotheses use exact unit/degree computations plus the division check
    of ``division_sampled``: an exact composition certificate in dimensions
    1, 2, 4 and 8 where one exists, seeded sampling otherwise.  A statement
    whose hypotheses fail is recorded as vacuous.  A failing conclusion
    yields "violated" only when every hypothesis component was decided
    exactly; statements resting on division evidence degrade to
    "unresolved" instead, whichever path decided it, because sampled
    invertibility over Q or Q(sqrt 3) does not certify a division algebra
    over the reals.  A "violated" verdict must never occur (it would
    contradict this implementation first).
    """
    units = find_units(A)
    division = division_sampled(A, trials=trials, seed=seed)
    # every statement that reads the degree also needs a left unit, and
    # tests it first
    deg = degree(A) if units.has_left else None
    idents = {(p, q, r): check_pqr(A, p, q, r).holds
              for (p, q, r) in ALL_TRIPLES}
    tpa = idents[(1, 1, 1)]
    out: List[StatementCheck] = []

    limited_note = ("division hypothesis rests on sampled field-relative "
                    "evidence; a failing conclusion means the algebra is "
                    "most likely not a real division algebra")

    @functools.cache
    def holds(name: str) -> bool:
        # conclusions only: each is asked for behind `hyp and`
        return predicate(A, name, bound=bound).value

    def add(name, hyp, concl, notes="", limited=False):
        if not hyp:
            verdict = "vacuous"
        elif concl:
            verdict = "consistent"
        elif limited:
            verdict = "unresolved"
            notes = (notes + "; " if notes else "") + limited_note
        else:
            verdict = "violated"
        out.append(StatementCheck(name, hyp, concl if hyp else None,
                                  verdict, notes))

    one_qr = [idents[(1, q, r)] for q, r in itertools.product((1, 2), (1, 2))]
    any_ident = any(idents.values())

    # Unital algebra satisfying one identity is TPA (proposition 2 instance);
    # holds over any characteristic-zero field, so never evidence-limited
    hyp = units.has_unit and any_ident
    add("prop2_unital_identity_implies_TPA", hyp, tpa,
        "two-sided unit + some (p,q,r) identity -> TPA")

    # Left unit + no zero divisors + (x, x^q, x^r) = 0 -> unit and TPA
    hyp = units.has_left and division.all_invertible and any(one_qr)
    add("prop3_left_unit_division_implies_unit_TPA", hyp,
        units.has_unit and tpa,
        "sampled division evidence" if hyp else "", limited=True)

    # Left unit + no zero divisors + (x, x, x^2) = 0 -> unit and PA
    hyp = units.has_left and division.all_invertible and idents[(1, 1, 2)]
    add("prop4_left_unit_division_112_implies_PA", hyp,
        hyp and units.has_unit and holds("power_associative"),
        "sampled division evidence" if hyp else "", limited=True)

    # Theorem 1: division + left unit + (x, x, x^2) = 0 -> unit and quadratic
    hyp = division.all_invertible and units.has_left and idents[(1, 1, 2)]
    add("thm1_left_unit_division_112_implies_quadratic", hyp,
        hyp and units.has_unit and holds("quadratic"),
        "sampled division evidence" if hyp else "", limited=True)

    # Lemma 1: degree <= 4 + left unit + (case 1 or case 2) -> PC.
    # Case 1 (two-sided unit + identity) is field-general; case 2 needs the
    # no-zero-divisor hypothesis, hence division evidence.
    case1 = units.has_unit and any_ident
    case2 = division.all_invertible and any(one_qr)
    hyp = units.has_left and deg <= 4 and (case1 or case2)
    add("lemma1_degree_le4_implies_power_commutative", hyp,
        hyp and holds("power_commutative"),
        f"power-commutativity in bounded({bound}) mode" if hyp else "",
        limited=not case1)

    # Theorem 2: division + unit + degree <= 4: identity <=> PA <=> quadratic
    hyp = division.all_invertible and units.has_unit and deg <= 4
    equiv = hyp and (any_ident == holds("power_associative")
                     == holds("quadratic"))
    add("thm2_equivalence_identity_PA_quadratic", hyp, equiv,
        "" if hyp else "hypothesis fails (needs two-sided unit + division + "
        "degree <= 4)", limited=True)

    # Theorem 3: division + degree <= 4 + left unit:
    #   some (x, x^q, x^r) identity <=> quadratic
    hyp = division.all_invertible and units.has_left and deg <= 4
    equiv = hyp and (any(one_qr) == holds("quadratic"))
    add("thm3_left_unit_equivalence", hyp, equiv,
        "" if hyp else "hypothesis fails (needs left unit + division)",
        limited=True)

    # whether unital TPA division algebras of degree 8 exist is open; flag
    # candidates without drawing any conclusion
    if (A.dim == 8 and units.has_unit and tpa and deg == 8 and
            division.all_invertible):
        out.append(StatementCheck(
            "open_question_degree8_unital_TPA_division", True, None,
            "consistent",
            "matches the open existence question for degree-8 unital TPA "
            "division algebras; division evidence here is sampled and over "
            "the represented field only"))

    return out


# ---------------------------------------------------------------------------
# Hierarchy
# ---------------------------------------------------------------------------

#: The implication chart between the structural properties.
HIERARCHY_EDGES: Tuple[Tuple[str, str], ...] = (
    ("associative", "alternative"),
    ("alternative", "flexible"),
    ("alternative", "power_associative"),
    ("flexible", "power_commutative"),
    ("power_associative", "power_commutative"),
    ("power_commutative", "TPA"),
    ("TPA", "x_x2_x"),
    ("TPA", "x2_x2_x2"),
)


@dataclass(frozen=True)
class EdgeVerdict:
    premise: str
    conclusion: str
    applicable: bool
    verdict: str  # "consistent" | "consistent at <mode>" | "violated"

    def to_dict(self) -> dict:
        return {"premise": self.premise, "conclusion": self.conclusion,
                "applicable": self.applicable, "verdict": self.verdict}


def hierarchy_report(A: StructureAlgebra, bound: int = 5
                     ) -> Tuple[PropertyReport, List[EdgeVerdict], bool]:
    """All predicates, checked symbolically, plus edge-by-edge consistency
    of the implication chart.

    Returns (report, edge verdicts, ok).  A violated edge means a bug in
    this implementation or a counterexample to the published chart, so ok is
    expected to be True for every catalog algebra.
    """
    report = PropertyReport(A.name)
    for name in PROPERTY_NAMES:
        report.entries[name] = predicate(A, name, bound=bound)
    res222 = check_pqr(A, 2, 2, 2)
    report.entries["x2_x2_x2"] = PredicateResult(
        "x2_x2_x2", res222.holds, "symbolic-proof", res222.witness)
    verdicts: List[EdgeVerdict] = []
    ok = True
    for prem, concl in HIERARCHY_EDGES:
        pres = report.entries[prem]
        cres = report.entries[concl]
        if not pres.value:
            verdicts.append(EdgeVerdict(prem, concl, False, "consistent"))
            continue
        if cres.value:
            qualifier = ""
            for m in (pres.mode, cres.mode):
                if m.startswith("bounded"):
                    qualifier = f" at {m}"
            verdicts.append(EdgeVerdict(prem, concl, True,
                                        "consistent" + qualifier))
        else:
            ok = False
            verdicts.append(EdgeVerdict(prem, concl, True, "violated"))
    return report, verdicts, ok
