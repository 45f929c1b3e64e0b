"""nalab benchmark: seeded closed-loop request streams with layer tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 36 --trace 0

One process, one client: each request starts when the previous one has
returned.  The stream runs whole passes of the workload (see workloads.py),
with fresh-interpreter set-ups timed between them, until about --seconds
have gone by, then checks every result.  The last line
of stdout is one JSON object with the fields correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
separately traced stream with --trace 1.  The line before it records the
environment, a hash of the generated inputs and the request latencies.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

# One BLAS thread, set before numpy is first imported (here and in the
# set-up interpreters, which inherit it): the client is one thread, and on a
# shared two-vCPU host a second BLAS thread only adds scheduler noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: setup_s is the median of fresh-interpreter set-ups timed between the
#: passes of the stream, so that they sample the same stretch of machine
#: time as the passes: after each pass, set-ups until they have taken
#: SETUP_SHARE of the run so far, and at least SETUP_MIN in all
SETUP_MIN, SETUP_SHARE = 5, 0.2
#: the recorded tail latency is the 10th-slowest request, the highest order
#: statistic with ten samples beyond it
TAIL_RANK = 10
#: setup_s and throughput_rps count seconds of a reference machine speed,
#: at which one run of speed_probe() takes PROBE_REF_S (about its median on
#: a 2-vCPU Xeon at 2.1 GHz; see NOTES.md, Metrics)
PROBE_REF_S = 3e-3


def declared_metrics(kind: str):
    """(name, unit) of each metric BENCHMARK.json declares under kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _blas_threads():
    """OpenBLAS thread count of numpy's bundled library, if it has one."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": _blas_threads()}


def time_setup(args, probe) -> tuple:
    """Seconds from spawning a fresh interpreter until its inputs are ready,
    the mean time of the probes run just before and after, and the input
    hash the interpreter reports."""
    before = probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline().split()
        dt = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or len(line) != 2 or line[0] != "ready":
        _fail("set-up in a fresh interpreter failed")
    return dt, (before + probe()) / 2, line[1]


def speed_probe():
    """A fixed kernel that calls nothing in nalab, for gauging the machine's
    speed between requests: Fraction and small-dict arithmetic, a float64
    tensordot and scattered lookups in a large dict, the three kinds of work
    nalab's requests do.  On the shared host its time moves by a factor of
    two within seconds and requests slow down with it."""
    import numpy as np
    cube = np.random.default_rng(0).random((64, 64, 64))
    mat = np.random.default_rng(1).random((64, 64))
    table = {k: k for k in range(0, 10 ** 6, 37)}
    keys = [(k * 7919) % 10 ** 6 for k in range(3000)]

    def probe() -> float:
        t0 = time.perf_counter()
        s, d = Fraction(0), {}
        for i in range(1, 400):
            s += Fraction(i % 97, i % 13 + 1)
            d[i % 50, i % 7] = d.get((i % 50, i % 7), 0) + i
        np.tensordot(cube, mat, axes=([2], [0])).sum()
        sum(table.get(k, 0) for k in keys)
        return time.perf_counter() - t0
    return probe


def stream(inputs, seconds: float, call, between=None, probe=None):
    """Whole passes, each followed by between(elapsed) if given, until the
    next pass would end further past the deadline than stopping now falls
    short of it.  Each request is recorded as (request, seconds, result,
    speed), speed being the mean time of the probes run just before and
    just after it, or None without a probe."""
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        done = []
        before = probe() if probe else None
        for i, req in enumerate(inputs.pass_order(k)):
            t0 = time.perf_counter()
            try:
                raw = call((k, i), req)
            except Exception as exc:  # a failing request is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                raw = exc
            dt = time.perf_counter() - t0
            after = probe() if probe else None
            done.append((req, dt, raw,
                         (before + after) / 2 if probe else None))
            before = after
        passes.append(done)
        if between is not None:
            between(time.perf_counter() - start)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes, elapsed


def canonical(passes):
    """request key -> canonical result in each pass."""
    canon = {}
    for done in passes:
        for req, _, raw, _ in done:
            val = {"error": repr(raw)} if isinstance(raw, Exception) \
                else req.canon(raw)
            canon.setdefault(req.key, []).append(val)
    return canon


def count_failed(inputs, passes, canon) -> int:
    import oracle
    bad = oracle.failed_keys(inputs, canon, oracle.load_expected())
    for key in sorted(bad):
        print(f"perfbench: wrong result for {key}: {canon[key][0]}",
              file=sys.stderr)
    return sum(req.key in bad for done in passes for req, *_ in done)


def request_latencies(passes, at_reference_speed=False):
    """Each request's latency, the median of its repeats in the run (one per
    pass), slowest first: single passes on the shared machine run up to a
    third slower than their neighbours.  At reference speed, each repeat is
    first scaled by PROBE_REF_S over the speed probed around it."""
    repeats = {}
    for done in passes:
        for req, dt, _, speed in done:
            if at_reference_speed:
                dt *= PROBE_REF_S / speed
            repeats.setdefault(req.key, []).append(dt)
    return sorted((statistics.median(v) for v in repeats.values()),
                  reverse=True)


def e2e_metrics(passes, setups) -> dict:
    lat = request_latencies(passes, at_reference_speed=True)
    values = {
        "setup_s": statistics.median(dt * PROBE_REF_S / speed
                                     for dt, speed, _ in setups),
        "throughput_rps": len(lat) / sum(lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared_metrics("end_to_end")}


def latency_record(passes) -> dict:
    """Wall-clock figures for the record line only: the median and
    10th-slowest request latency, the plain rate (requests over the time
    spent in them) and the median probe time.  They move with the shared
    machine's speed, by more than any bound a benchmark metric may have."""
    lat = request_latencies(passes)
    done = [rec for recs in passes for rec in recs]
    speeds = [speed for *_, speed in done if speed is not None]
    return {"requests": len(lat), "p50_s": statistics.median(lat),
            "tail_s": lat[min(TAIL_RANK, len(lat)) - 1],
            "wall_rps": len(done) / sum(dt for _, dt, _, _ in done),
            "probe_median_s": statistics.median(speeds) if speeds else None}


def layer_metrics(tracer, passes, elapsed, overhead) -> dict:
    """Counts and self times are per pass; catalog.build runs once, in
    set-up."""
    import tracing
    rids = [(k, i) for k, done in enumerate(passes) for i in range(len(done))]
    totals = tracer.totals(rids)
    setup = tracer.totals([tracing.SETUP])
    n = len(passes)
    values = {}
    for name, unit in declared_metrics("per_layer"):
        span, _, what = name.rpartition(".")
        if name == "catalog.build.self_s":
            v = setup[span][1]
        elif name == "engine.word_tensor.max_entries":
            v = tracer.max_entries
        elif name == "trace.overhead_ratio":
            v = overhead
        elif name == "trace.accounted_ratio":
            v = sum(rec[1] for rec in totals.values()) / elapsed
        elif what == "calls":
            v = totals[span][0] / n
        elif what == "self_s":
            v = totals[span][1] / n
        elif what == "total_s":
            v = totals[span][2] / n
        else:
            v = tracer.counters[name] / n
        values[name] = {"value": v, "unit": unit}
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nalab", "__init__.py")):
        _fail(f"no nalab sources under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    if args.setup_only:
        inputs = workloads.build(args.workload, args.seed)
        print("ready", inputs.digest, flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    inputs = workloads.build(args.workload, args.seed)

    setups = []
    if tracer is None:
        probe = speed_probe()

        def between(elapsed):
            while sum(dt for dt, _, _ in setups) < SETUP_SHARE * elapsed:
                setups.append(time_setup(args, probe))
                elapsed += setups[-1][0]

        passes, elapsed = stream(inputs, args.seconds,
                                 lambda rid, req: req.run(), between, probe)
        while len(setups) < SETUP_MIN:
            setups.append(time_setup(args, probe))
        metrics = e2e_metrics(passes, setups)
        replay_differs = False
    else:
        tracer.counters.clear()
        tracer.max_entries = 0
        passes, elapsed = stream(inputs, args.seconds,
                                 lambda rid, req: tracer.run_request(
                                     rid, req.run))
        tracer.uninstall()
        # replay the first pass untraced: same answers, and the overhead
        # against the median traced pass (the first one also warms up)
        replay, replay_s = stream(inputs, 0, lambda rid, req: req.run())
        traced_s = statistics.median(sum(dt for _, dt, _, _ in done)
                                     for done in passes)
        replay_differs = canonical(replay) != canonical(passes[:1])
        metrics = layer_metrics(tracer, passes, elapsed, traced_s / replay_s)

    canon = canonical(passes)
    failed = count_failed(inputs, passes, canon)
    attempted = sum(len(done) for done in passes)
    same_inputs = all(digest == inputs.digest for *_, digest in setups)
    if not same_inputs:
        print("perfbench: a fresh set-up generated other inputs",
              file=sys.stderr)
    if replay_differs:
        print("perfbench: the traced and untraced runs disagree",
              file=sys.stderr)
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "inputs_sha256": inputs.digest,
                      "passes": len(passes), "setups": len(setups),
                      "stream_s": elapsed,
                      "setup_wall_s": statistics.median(dt for dt, _, _ in
                                                        setups)
                      if setups else None,
                      "latency": latency_record(passes)}))
    print(json.dumps({"correct": failed == 0 and same_inputs
                      and not replay_differs,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
