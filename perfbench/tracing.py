"""Layer tracing from outside the program.

The traced run replaces the public functions of each ``nalab`` module with
timing wrappers, at every module binding (``algebra.det`` as well as
``exactmath.det``) and on the classes whose methods recurse through the class
attribute (``MultilinearEngine.word_tensor``, ``MultiPoly.__mul__``).
``src/nalab`` itself is not touched.  A span's self time is its duration
minus the time covered by its child spans.  Spans are aggregated per request
id in memory; counters are derived from the wrapped calls' arguments and
return values.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from nalab import algebra, catalog, engine, exactmath, freealg, identities

import workloads

#: span name -> (owner, attribute) of the original function
LAYERS: Tuple[Tuple[str, object, str], ...] = (
    ("engine.word_tensor", engine.MultilinearEngine, "word_tensor"),
    ("engine.multilinearization", engine.MultilinearEngine,
     "multilinearization"),
    ("engine.ml_check", engine.MultilinearEngine, "check"),
    ("engine.sym_product", engine, "sym_product"),
    ("engine.sym_combine", engine, "sym_combine"),
    ("algebra.identity_holds", algebra, "identity_holds"),
    ("algebra.division_sampled", algebra, "division_sampled"),
    ("algebra.mult_operator", algebra, "mult_operator"),
    ("algebra.multiply", algebra, "multiply"),
    ("algebra.subalgebra_generated", algebra, "subalgebra_generated"),
    ("algebra.find_units", algebra, "find_units"),
    ("algebra.eval_free_poly", algebra, "eval_free_poly"),
    ("exactmath.multipoly_mul", exactmath.MultiPoly, "__mul__"),
    ("exactmath.multipoly_mul", exactmath.MultiPoly, "__rmul__"),
    ("exactmath.det", exactmath, "det"),
    ("exactmath.scalar_rank", exactmath, "scalar_rank"),
    ("exactmath.poly_rank", exactmath, "poly_rank"),
    ("exactmath.solve_affine", exactmath, "solve_affine"),
    ("exactmath.span_membership", exactmath, "span_membership"),
    ("catalog.build", catalog, "classical"),
    ("catalog.build", catalog, "star_left"),
    ("catalog.build", catalog, "star_both"),
    ("catalog.build", catalog, "okubo"),
    ("catalog.load", catalog, "load"),
    ("freealg.polarize", freealg, "polarize"),
    ("identities.predicate", identities, "predicate"),
    ("identities.check_pqr", identities, "check_pqr"),
    ("identities.hierarchy_report", identities, "hierarchy_report"),
    ("identities.verify_instances", identities, "verify_instances"),
)

ROOT = "bench"
SETUP = "setup"

_TIERS = {np.dtype(np.float64): "tier_f", np.dtype(np.int64): "tier_i",
          np.dtype(object): "tier_o"}


def _nalab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nalab" or name.startswith("nalab."))]


class Tracer:
    """Span recorder with per-request aggregation and layer counters."""

    def __init__(self):
        #: request id -> span name -> [calls, self seconds, total seconds]
        self.spans: Dict[object, Dict[str, List]] = {}
        self.counters: Counter = Counter()
        self.max_entries = 0
        self._stack: List[List[float]] = []
        self._current = self._bucket(SETUP)
        self._patches: List[Tuple[object, str, object]] = []

    def _bucket(self, rid):
        return self.spans.setdefault(rid, defaultdict(lambda: [0, 0.0, 0.0]))

    def wrap(self, name: str, fn: Callable,
             pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(*args, **kwargs) if pre else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = self._current[name]
                rec[0] += 1
                rec[1] += dt - frame[0]
                rec[2] += dt
            if post:
                post(res, state, *args, **kwargs)
            return res
        return wrapper

    def run_request(self, rid, fn: Callable[[], object]):
        """Run one request under the root span, its spans filed under rid."""
        self._current = self._bucket(rid)
        try:
            return self.wrap(ROOT, fn)()
        finally:
            self._current = self._bucket(SETUP)

    # -- counters derived from arguments and return values -------------------

    def _hooks(self, name: str):
        c = self.counters
        if name == "engine.word_tensor":
            def pre(eng, term):
                return term in eng.cache

            def post(res, hit, eng, term):
                if hit:
                    c["engine.word_tensor.cache_hits"] += 1
                elif not isinstance(term, str):
                    size = res[0].size
                    c["engine.word_tensor.entries"] += size
                    self.max_entries = max(self.max_entries, size)
                    c["engine.word_tensor." + _TIERS[res[0].dtype]] += 1
            return pre, post
        if name == "engine.sym_product":
            def post(res, state, *args):
                c["engine.sym_product.keys_out"] += len(res.keys)
            return None, post
        if name == "algebra.identity_holds":
            def post(res, state, A, poly, backend="symbolic"):
                c["algebra.identity_holds.fails"] += not res.holds
                if backend == "symbolic" and not poly.is_zero() and \
                        not workloads.packed_key_fits(A, poly):
                    c["algebra.identity_holds.fallback_calls"] += 1
            return None, post
        if name == "algebra.division_sampled":
            def pre(*args, **kwargs):
                return c["_left_operators"]

            def post(res, before, *args, **kwargs):
                c["algebra.division_sampled.trials"] += \
                    c["_left_operators"] - before
            return pre, post
        if name == "algebra.mult_operator":
            def post(res, state, A, x, side):
                c["_left_operators"] += side == "left"
            return None, post
        if name == "exactmath.det":
            def post(res, state, matrix):
                c["exactmath.det.zero"] += exactmath.scalar_is_zero(res)
            return None, post
        return None, None

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at every binding that holds it."""
        modules = _nalab_modules()
        for name, owner, attr in LAYERS:
            original = owner.__dict__[attr]
            pre, post = self._hooks(name)
            wrapped = self.wrap(name, original, pre, post)
            owners = [owner] if isinstance(owner, type) else \
                [m for m in modules if vars(m).get(attr) is original]
            for o in owners:
                self._patches.append((o, attr, original))
                setattr(o, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -----------------------------------------------------------

    def totals(self, rids) -> Dict[str, List]:
        out: Dict[str, List] = defaultdict(lambda: [0, 0.0, 0.0])
        for rid in rids:
            for name, rec in self.spans.get(rid, {}).items():
                for j, v in enumerate(rec):
                    out[name][j] += v
        return out
