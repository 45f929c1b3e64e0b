"""Seeded request streams for the nalab benchmark.

A workload is a *pass*: a fixed multiset of requests whose composition does
not depend on the seed.  The seed fixes the order of every pass, the
division seeds and the random algebras of the ``files`` workload.  Keeping
the composition fixed is what makes throughput and latency comparable across
seeds: request costs span four orders of magnitude, so a time window over a
random subset of them would measure the subset, not the program.

A request is the library call that one ``nalab`` CLI command makes, run on a
fresh ``StructureAlgebra`` copy so that the per-algebra caches start cold.
Calls go through module attributes (``algebra.identity_holds``, not a
from-import) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from nalab import algebra, catalog, freealg, identities
from nalab.exactmath import format_scalar

WORKLOADS = ("check", "analysis", "files")

#: Largest multilinear tensor (n ** (degree + 1) entries) a request may build:
#: the dimension-8, degree-6 size the catalog already uses.  Dimension 16 at
#: degree 6 would be 2**28 entries, about 2 GB per float64 array.
MAX_TENSOR_ENTRIES = 2 ** 21

#: Two-variable identities above this degree run only where the packed
#: symbolic key fits (dim <= 8).  Above dimension 8 they fall back to
#: MultiPoly evaluation, where one degree-4 request takes 2-8 s, longer
#: than a whole pass of any workload.
MAX_FALLBACK_DEGREE = 3

#: Trials per division_sampled call and per verify_instances call.  At 200
#: trials one P division request alone takes about 5 s.
DIVISION_TRIALS = 50
#: Division seeds are drawn from this pool, so every catalog and D8
#: division request has a pinned expected result.
DIVISION_SEED_POOL = 16
#: Bound for power_commutative (the CLI's --bound); bound 5 costs ~2 s on P.
PC_BOUND = 4

#: Dimensions of the random algebras in one files pass.
SPARSE_DIMS = (9, 10)
DENSE_DIMS = (4, 6)

BACKENDS = ("symbolic", "multilinear")


@dataclass(frozen=True)
class Request:
    """One library call.  ``key`` names the call and its inputs exactly."""

    key: str
    run: Callable[[], object]
    canon: Callable[[object], object]


@dataclass
class Inputs:
    workload: str
    seed: int
    requests: List[Request]
    #: algebras and polynomials by the names used in request keys, for the
    #: oracle's witness re-evaluation
    algebras: Dict[str, algebra.StructureAlgebra] = field(default_factory=dict)
    polys: Dict[str, freealg.FreePoly] = field(default_factory=dict)
    #: file specs of generated algebras (files workload)
    specs: Dict[str, dict] = field(default_factory=dict)
    digest: str = ""

    def pass_order(self, k: int) -> List[Request]:
        """Requests of pass k in their seeded order."""
        order = list(self.requests)
        random.Random(f"{self.workload}:{self.seed}:pass{k}").shuffle(order)
        return order


# ---------------------------------------------------------------------------
# Canonical results (what the oracle compares)
# ---------------------------------------------------------------------------


def _coords(e) -> List[str]:
    return [format_scalar(c) for c in e.coords]


def canon_holds(res) -> dict:
    out = {"holds": res.holds}
    if res.witness:
        out["witness"] = {k: _coords(v) if isinstance(v, algebra.Element)
                          else [_coords(e) for e in v]
                          for k, v in sorted(res.witness.items())}
    return out


def canon_predicate(res) -> dict:
    return res.to_dict()


def canon_units(rep) -> dict:
    def side(s):
        if s is None:
            return None
        return {"particular": [format_scalar(c) for c in s.particular],
                "homogeneous": [[format_scalar(c) for c in v]
                                for v in s.homogeneous]}
    return {"left": side(rep.left), "right": side(rep.right),
            "two_sided": None if rep.two_sided is None
            else _coords(rep.two_sided)}


def canon_division(rep) -> dict:
    return {"all_invertible": rep.all_invertible,
            "witness": None if rep.failing_witness is None
            else _coords(rep.failing_witness)}


def canon_report(res) -> dict:
    (rep, verdicts, ok), checks = res
    full = {"properties": rep.to_dict()["properties"],
            "hierarchy": [v.to_dict() for v in verdicts],
            "statements": [c.to_dict() for c in checks],
            "consistent": ok and all(c.consistent for c in checks)}
    text = json.dumps(full, sort_keys=True)
    return {"consistent": full["consistent"],
            "values": {k: v["value"] for k, v in full["properties"].items()},
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


# ---------------------------------------------------------------------------
# Algebras the benchmark builds
# ---------------------------------------------------------------------------


def _fresh(A: algebra.StructureAlgebra) -> algebra.StructureAlgebra:
    return algebra.StructureAlgebra(A.name, A.dim, A.field, A.constants,
                                    A.basis_names)


def _round_trip(A: algebra.StructureAlgebra) -> dict:
    """Save A to the file format, load it back, and check nothing changed."""
    spec = catalog.save(A).to_json_dict()
    B = catalog.load(json.loads(json.dumps(spec)))
    if (B.dim, B.field, B.constants, B.basis_names) != \
            (A.dim, A.field, A.constants, A.basis_names):
        raise AssertionError(f"save/load round trip changed {A.name}")
    return spec


def diagonal_algebra(n: int = 8) -> algebra.StructureAlgebra:
    """D_n: Q^n with the componentwise product (zero divisors everywhere)."""
    constants = [[[Fraction(int(i == j == k)) for k in range(n)]
                  for j in range(n)] for i in range(n)]
    return algebra.StructureAlgebra(f"D{n}", n, algebra.FIELD_Q, constants)


def sedenions() -> algebra.StructureAlgebra:
    """S16 by Cayley-Dickson doubling of O with the catalog convention
    (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c))."""
    inv = catalog.classical("O")
    O = inv.algebra

    def mul(u, v):
        return list(algebra.multiply(O, O.element(u), O.element(v)).coords)

    def conj(u):
        return list(inv.conj_element(O.element(u)).coords)

    n = 16
    constants = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            u = [Fraction(int(t == i)) for t in range(n)]
            v = [Fraction(int(t == j)) for t in range(n)]
            a, b, c, d = u[:8], u[8:], v[:8], v[8:]
            left = [p - q for p, q in zip(mul(a, c), mul(conj(d), b))]
            right = [p + q for p, q in zip(mul(d, a), mul(b, conj(c)))]
            constants[i][j] = left + right
    S = algebra.StructureAlgebra("S16", n, algebra.FIELD_Q, constants)
    block = tuple(tuple(row[:8] for row in plane[:8])
                  for plane in S.constants[:8])
    if block != O.constants:
        raise AssertionError("S16 does not restrict to O on its first block")
    return S


def sparse_random(n: int, rng: random.Random) -> algebra.StructureAlgebra:
    """Each b_i b_j has exactly two nonzero coordinates in {-2, -1, 1, 2}."""
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in rng.sample(range(n), 2):
                constants[i][j][k] = Fraction(rng.choice((-2, -1, 1, 2)))
    return algebra.StructureAlgebra(f"sparse{n}", n, algebra.FIELD_Q,
                                    constants)


def dense_random(n: int, rng: random.Random) -> algebra.StructureAlgebra:
    """Every constant nonzero-able, numerators up to 2^10, denominators to 7:
    large enough to push word tensors out of the float64 tier."""
    constants = [[[Fraction(rng.randint(-1024, 1024), rng.randint(1, 7))
                   for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return algebra.StructureAlgebra(f"dense{n}", n, algebra.FIELD_Q,
                                    constants)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def _pqr_key(p, q, r) -> str:
    return f"({p},{q},{r})"


def _component_key(p, q, r, m) -> str:
    return f"({p}.{q}.{r}.{m})"


def _degree(f: freealg.FreePoly) -> int:
    (dx, dy), = f.bidegrees()
    return dx + dy


def tensor_ok(n: int, f: freealg.FreePoly) -> bool:
    return n ** (_degree(f) + 1) <= MAX_TENSOR_ENTRIES


def packed_key_fits(A: algebra.StructureAlgebra, f: freealg.FreePoly) -> bool:
    """Does identity_holds(A, f, "symbolic") use the packed symbolic key
    rather than the MultiPoly fallback?  Asks the program's own rule."""
    return algebra._symbolic_groups(A, sorted(f.variables())) is not None


def check_polys() -> Dict[str, freealg.FreePoly]:
    """Each (x^p, x^q, x^r) and its first linearization component f_1.

    f_{p+q+r-1} is f_1 with x and y swapped, so f_1 stands for both ends of
    the table.  The middle components of (2,2,2) are left out: m = 2, 3, 4
    alone cost 35 of the 46 s of the full 36-polynomial matrix, more than a
    run can hold as whole passes.
    """
    out = {}
    for p, q, r in identities.ALL_TRIPLES:
        out[_pqr_key(p, q, r)] = freealg.pqr_associator(p, q, r)
        out[_component_key(p, q, r, 1)] = freealg.polarize(p, q, r).f(1)
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def build_check(seed: int) -> Inputs:
    algs = {name: catalog.catalog_algebra(name)
            for name in catalog.CATALOG_NAMES}
    polys = check_polys()
    reqs = [Request(f"check|{A.name}|{pkey}|{b}",
                    lambda A=A, f=f, b=b: algebra.identity_holds(
                        _fresh(A), f, b),
                    canon_holds)
            for A in algs.values() for pkey, f in polys.items()
            if tensor_ok(A.dim, f) for b in BACKENDS]
    return Inputs("check", seed, reqs, algs, polys)


def analysis_algebras() -> Dict[str, algebra.StructureAlgebra]:
    algs = {name: catalog.catalog_algebra(name)
            for name in catalog.CATALOG_NAMES}
    D8 = catalog.load(_round_trip(diagonal_algebra(8)))
    algs[D8.name] = D8
    return algs


def analysis_request(A, kind: str, s: int = 0) -> Request:
    """One analysis request; s is the division seed where one is used."""
    if kind in identities.PROPERTY_NAMES:
        return Request(f"predicate|{A.name}|{kind}",
                       lambda: identities.predicate(_fresh(A), kind,
                                                    bound=PC_BOUND),
                       canon_predicate)
    if kind == "degree":
        return Request(f"degree|{A.name}",
                       lambda: algebra.degree(_fresh(A)), int)
    if kind == "units":
        return Request(f"units|{A.name}",
                       lambda: algebra.find_units(_fresh(A)), canon_units)
    if kind == "division":
        return Request(f"division|{A.name}|s={s}",
                       lambda: algebra.division_sampled(
                           _fresh(A), DIVISION_TRIALS, s), canon_division)
    if kind == "report":
        def report():
            B = _fresh(A)
            return (identities.hierarchy_report(B, bound=PC_BOUND),
                    identities.verify_instances(B, DIVISION_TRIALS, s,
                                                bound=PC_BOUND))
        return Request(f"report|{A.name}|s={s}", report, canon_report)
    raise ValueError(kind)


ANALYSIS_KINDS = identities.PROPERTY_NAMES + ("degree", "units", "division",
                                              "report")


def build_analysis(seed: int) -> Inputs:
    algs = analysis_algebras()
    rng = random.Random(f"analysis:{seed}")
    reqs = [analysis_request(A, kind, rng.randrange(DIVISION_SEED_POOL))
            for A in algs.values() for kind in ANALYSIS_KINDS]
    return Inputs("analysis", seed, reqs, algs)


def files_algebras(seed: int) -> Dict[str, dict]:
    """File specs of S16, the sparse and the dense random algebras."""
    rng = random.Random(f"files:{seed}")
    built = [sedenions()]
    built += [sparse_random(n, rng) for n in SPARSE_DIMS]
    built += [dense_random(n, rng) for n in DENSE_DIMS]
    return {A.name: _round_trip(A) for A in built}


def _files_identities(
        A: algebra.StructureAlgebra) -> List[Tuple[str, Callable, freealg.FreePoly]]:
    """(key, make, poly): make is what the request itself calls."""
    out = []
    for p, q, r in identities.ALL_TRIPLES:
        out.append((_pqr_key(p, q, r),
                    lambda p=p, q=q, r=r: freealg.pqr_associator(p, q, r),
                    freealg.pqr_associator(p, q, r)))
        if p + q + r > 4:
            continue
        for m in range(1, p + q + r):
            f = freealg.polarize(p, q, r).f(m)
            if not packed_key_fits(A, f) and \
                    _degree(f) > MAX_FALLBACK_DEGREE:
                continue
            out.append((_component_key(p, q, r, m),
                        lambda p=p, q=q, r=r, m=m:
                        freealg.polarize(p, q, r).f(m), f))
    return out


def build_files(seed: int) -> Inputs:
    specs = files_algebras(seed)
    reqs: List[Request] = []
    polys: Dict[str, freealg.FreePoly] = {}
    algs = {name: catalog.load(spec) for name, spec in specs.items()}
    for name, spec in specs.items():
        n = spec["dim"]
        for pkey, make, f in _files_identities(algs[name]):
            polys[pkey] = f
            # a symbolic verdict on a random algebra is only checked against
            # its multilinear twin, so a pair is dropped as a whole
            if not tensor_ok(n, f):
                continue
            for b in BACKENDS:
                reqs.append(Request(
                    f"files|{name}|{pkey}|{b}",
                    lambda spec=spec, make=make, b=b: algebra.identity_holds(
                        catalog.load(spec), make(), b),
                    canon_holds))
        reqs.append(Request(
            f"files|{name}|power_commutative",
            lambda spec=spec: identities.predicate(
                catalog.load(spec), "power_commutative", bound=PC_BOUND),
            canon_predicate))
        reqs.append(Request(
            f"files|{name}|units",
            lambda spec=spec: algebra.find_units(catalog.load(spec)),
            canon_units))
    return Inputs("files", seed, reqs, algs, polys, specs)


def build(workload: str, seed: int) -> Inputs:
    inputs = {"check": build_check, "analysis": build_analysis,
              "files": build_files}[workload](seed)
    payload = {"requests": [r.key for r in inputs.pass_order(0)],
               "specs": inputs.specs}
    inputs.digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return inputs
