"""Command line driver.

Subcommands mirror the library operations one to one:

  list                                  catalog overview
  show ALG                              basis, field and multiplication data
  check ALG --identity p,q,r            does (x^p, x^q, x^r) = 0 hold?
  predicate ALG --name PROP             structural predicate with proof mode
  degree ALG                            symbolic degree max dim A(x)
  units ALG                             left/right/two-sided unit report
  division ALG [--trials N] [--seed S]  sampled invertibility check
  polarize p q r [--m M]                linearization components
  report ALG                            predicates + hierarchy + statements
  paper-verify [--criteria LIST]        the full verification suite

ALG is a catalog name (see `list`; quote names like '*H') or a path to an
algebra file.  Every command accepts --format text|structured; structured
output is stable JSON with a schema_version field.  Exit codes: 0 success,
1 a checked assertion failed, 2 usage or input errors, or a computation that
ran out of memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import catalog, freealg, paperverify
from .algebra import (BACKENDS, Element, StructureAlgebra, degree,
                      division_sampled, find_units)
from .exactmath import format_scalar
from .identities import (PROPERTY_NAMES, check_pqr, hierarchy_report,
                         predicate, verify_instances)

SCHEMA_VERSION = "1"


class CliInputError(Exception):
    """Bad algebra name, unreadable file, or malformed argument."""


def _emit(data: dict, text: str, fmt: str) -> None:
    if fmt == "structured":
        data = {"schema_version": SCHEMA_VERSION, **data}
        print(json.dumps(data, sort_keys=True))
    else:
        print(text)


def _coords(e: Element) -> List[str]:
    return [format_scalar(c) for c in e.coords]


def _resolve(source: str) -> StructureAlgebra:
    try:
        return catalog.catalog_algebra(source)
    except KeyError:
        pass
    if os.path.exists(source):
        try:
            return catalog.load_file(source)
        except catalog.SpecFormatError as exc:
            raise CliInputError(f"malformed algebra file: {exc}") from exc
    raise CliInputError(
        f"unknown algebra {source!r} (not a catalog name or readable file)")


def _parse_triple(text: str):
    try:
        p, q, r = (int(t) for t in text.split(","))
    except ValueError as exc:
        raise CliInputError(f"--identity expects p,q,r, got {text!r}") from exc
    if not all(v in (1, 2) for v in (p, q, r)):
        raise CliInputError("identity exponents must be 1 or 2")
    return p, q, r


def count(text: str) -> int:
    """argparse type for --trials and --bound: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_list(args) -> int:
    rows = []
    for name in catalog.CATALOG_NAMES:
        A = catalog.catalog_algebra(name)
        rows.append({"name": name, "dim": A.dim, "field": A.field})
    text = "\n".join(f"{r['name']:>4}  dim {r['dim']}  over {r['field']}"
                     for r in rows)
    _emit({"command": "list", "algebras": rows}, text, args.format)
    return 0


def _cmd_show(args) -> int:
    A = _resolve(args.algebra)
    spec = catalog.save(A, catalog.catalog_conjugation(args.algebra))
    lines = [f"{A.name}: dim {A.dim} over {A.field}",
             "basis: " + " ".join(A.basis_names),
             f"nonzero structure constants: {len(spec.constants)}"]
    if A.dim <= 4:
        for i in range(A.dim):
            row = []
            for j in range(A.dim):
                prod = [format_scalar(c) for c in A.constants[i][j]]
                row.append("(" + ",".join(prod) + ")")
            lines.append(f"  b{i} * b_j -> " + " ".join(row))
    _emit({"command": "show", "algebra": spec.to_json_dict()},
          "\n".join(lines), args.format)
    return 0


def _cmd_check(args) -> int:
    A = _resolve(args.algebra)
    p, q, r = _parse_triple(args.identity)
    res = check_pqr(A, p, q, r, backend=args.backend)
    data = {"command": "check", "algebra": A.name,
            "identity": [p, q, r], "backend": args.backend,
            "holds": res.holds}
    if res.witness:
        data["witness"] = {k: _coords(v) if isinstance(v, Element)
                           else [_coords(e) for e in v]
                           for k, v in res.witness.items()}
    verdict = "holds" if res.holds else "fails"
    _emit(data, f"(x^{p}, x^{q}, x^{r}) = 0 in {A.name}: {verdict} "
          f"({args.backend})", args.format)
    return 0 if res.holds else 1


def _cmd_predicate(args) -> int:
    A = _resolve(args.algebra)
    if args.name not in PROPERTY_NAMES:
        raise CliInputError(
            f"unknown property {args.name!r}; choose from "
            + ", ".join(PROPERTY_NAMES))
    res = predicate(A, args.name, backend=args.backend, bound=args.bound)
    data = {"command": "predicate", "algebra": A.name,
            "result": res.to_dict()}
    text = f"{args.name} on {A.name}: {res.value} [{res.mode}]"
    if res.witness is not None and "x" in res.witness:
        text += f"  witness x = {_coords(res.witness['x'])}"
    _emit(data, text, args.format)
    return 0


def _cmd_degree(args) -> int:
    A = _resolve(args.algebra)
    d = degree(A)
    _emit({"command": "degree", "algebra": A.name, "degree": d},
          f"degree({A.name}) = {d}", args.format)
    return 0


def _cmd_units(args) -> int:
    A = _resolve(args.algebra)
    rep = find_units(A)

    def side(s):
        if s is None:
            return None
        return {"particular": [format_scalar(c) for c in s.particular],
                "homogeneous": [[format_scalar(c) for c in v]
                                for v in s.homogeneous]}

    data = {"command": "units", "algebra": A.name,
            "left": side(rep.left), "right": side(rep.right),
            "two_sided": None if rep.two_sided is None
            else _coords(rep.two_sided)}
    lines = [f"units of {A.name}:"]
    for label, s in (("left", rep.left), ("right", rep.right)):
        if s is None:
            lines.append(f"  {label}: none")
        else:
            extra = "" if s.unique else \
                f" (+{len(s.homogeneous)}-dim homogeneous part)"
            lines.append(f"  {label}: {[format_scalar(c) for c in s.particular]}"
                         + extra)
    lines.append("  two-sided: " + ("none" if rep.two_sided is None
                                    else str(_coords(rep.two_sided))))
    _emit(data, "\n".join(lines), args.format)
    return 0


def _cmd_division(args) -> int:
    A = _resolve(args.algebra)
    rep = division_sampled(A, trials=args.trials, seed=args.seed)
    data = {"command": "division", "algebra": A.name,
            "trials": rep.trials, "seed": rep.seed,
            "all_invertible": rep.all_invertible,
            "failing_witness": None if rep.failing_witness is None
            else _coords(rep.failing_witness)}
    if rep.all_invertible:
        text = (f"{A.name}: all L_x, R_x invertible on {rep.trials} seeded "
                f"samples (seed {rep.seed}; evidence, not a certificate)")
    else:
        text = (f"{A.name}: zero divisor evidence at x = "
                f"{_coords(rep.failing_witness)}")
    _emit(data, text, args.format)
    return 0 if rep.all_invertible else 1


def _cmd_polarize(args) -> int:
    p, q, r = args.p, args.q, args.r
    if not all(v in (1, 2) for v in (p, q, r)):
        raise CliInputError("p, q, r must each be 1 or 2")
    pol = freealg.polarize(p, q, r)
    total = p + q + r
    ms = [args.m] if args.m is not None else list(range(1, total))
    if args.m is not None and not 1 <= args.m <= total - 1:
        raise CliInputError(f"--m must be in 1..{total - 1}")
    comps = []
    lines = []
    for m in ms:
        if (p, q, r, m) in freealg.golden_rows() and \
                not freealg.golden_row_is_misprinted(p, q, r, m):
            display = freealg.render_golden(p, q, r, m)
        else:
            display = freealg.render_blocks(
                freealg.polarize_blocks(p, q, r, m))
        note = ""
        if freealg.golden_row_is_misprinted(p, q, r, m):
            note = ("published table repeats the m=1 row here; showing the "
                    "symmetry-corrected component")
        canonical = freealg.render_poly(pol.f(m))
        comps.append({"m": m, "display": display, "canonical": canonical,
                      **({"note": note} if note else {})})
        lines.append(f"({p}.{q}.{r}.{m}):  {display}")
        if note:
            lines.append(f"  note: {note}")
        lines.append(f"  expanded: {canonical}")
    data = {"command": "polarize", "p": p, "q": q, "r": r,
            "components": comps}
    _emit(data, "\n".join(lines), args.format)
    return 0


def _cmd_report(args) -> int:
    A = _resolve(args.algebra)
    rep, verdicts, ok = hierarchy_report(A, bound=args.bound)
    checks = verify_instances(A, trials=args.trials, seed=args.seed,
                              bound=args.bound)
    consistent = ok and all(c.consistent for c in checks)
    data = {"command": "report", "algebra": A.name,
            "properties": rep.to_dict()["properties"],
            "hierarchy": [v.to_dict() for v in verdicts],
            "statements": [c.to_dict() for c in checks],
            "consistent": consistent}
    lines = [f"property report for {A.name}:"]
    for name, entry in sorted(rep.entries.items()):
        lines.append(f"  {name:>20}: {str(entry.value):5}  [{entry.mode}]")
    lines.append("hierarchy edges:")
    for v in verdicts:
        lines.append(f"  {v.premise} => {v.conclusion}: {v.verdict}")
    lines.append("statement instances:")
    for c in checks:
        state = c.verdict.upper() if c.verdict == "violated" else c.verdict
        lines.append(f"  {c.statement}: hypothesis="
                     f"{c.hypothesis_satisfied} conclusion="
                     f"{c.conclusion_holds} -> {state}")
    lines.append(f"overall: {'consistent' if consistent else 'INCONSISTENT'}")
    _emit(data, "\n".join(lines), args.format)
    return 0 if consistent else 1


def _cmd_paper_verify(args) -> int:
    criteria = None
    if args.criteria:
        try:
            criteria = [int(t) for t in args.criteria.split(",")]
        except ValueError as exc:
            raise CliInputError("--criteria expects e.g. 1,2,3") from exc
    try:
        results = paperverify.run(criteria)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    ok = all(r.passed for r in results)
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        note = f"  ({r.detail})" if r.detail else ""
        lines.append(f"[{mark}] criterion {r.criterion}: {r.key}{note}")
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks "
                 f"passed")
    data = {"command": "paper-verify",
            "results": [r.to_dict() for r in results], "all_passed": ok}
    _emit(data, "\n".join(lines), args.format)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nalab",
        description="exact computations in finite-dimensional nonassociative "
                    "algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")
        return p

    add("list", _cmd_list, help="list catalog algebras")

    p = add("show", _cmd_show, help="show an algebra")
    p.add_argument("algebra")

    p = add("check", _cmd_check, help="check an identity (x^p,x^q,x^r)=0")
    p.add_argument("algebra")
    p.add_argument("--identity", required=True, metavar="p,q,r")
    p.add_argument("--backend", choices=BACKENDS, default="symbolic")

    p = add("predicate", _cmd_predicate, help="evaluate a named predicate")
    p.add_argument("algebra")
    p.add_argument("--name", required=True)
    p.add_argument("--bound", type=count, default=5,
                   help="word-degree bound for power-commutativity")
    p.add_argument("--backend", choices=BACKENDS, default="symbolic")

    p = add("degree", _cmd_degree, help="symbolic degree of an algebra")
    p.add_argument("algebra")

    p = add("units", _cmd_units, help="left/right unit solution sets")
    p.add_argument("algebra")

    p = add("division", _cmd_division, help="sampled invertibility check")
    p.add_argument("algebra")
    p.add_argument("--trials", type=count, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("polarize", _cmd_polarize, help="print linearization components")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--m", type=int, default=None)

    p = add("report", _cmd_report, help="full property/hierarchy report")
    p.add_argument("algebra")
    p.add_argument("--bound", type=count, default=5)
    p.add_argument("--trials", type=count, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = add("paper-verify", _cmd_paper_verify,
            help="run the published-results verification suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the multilinear backend allocates dim^(degree+1) tensor entries
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}; try --backend symbolic",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        # a limit of the exact kernels, such as a packed exponent width or
        # an inner dimension too wide for exact products of residues
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
