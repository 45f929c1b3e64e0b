"""The hooks of the benchmark in perfbench/ still find what they call.

perfbench/ reaches into nalab by module attribute: the tracer wraps the
functions named in ``tracing.LAYERS``, and the workloads call private
helpers such as ``algebra._symbolic_groups``.  A rename or a deletion in
src/ that breaks either fails here instead of in a benchmark run.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from nalab import catalog, freealg  # noqa: E402


def test_every_traced_layer_exists():
    for name, owner, attr in tracing.LAYERS:
        assert attr in vars(owner), name
    originals = [(owner, attr, vars(owner)[attr])
                 for _, owner, attr in tracing.LAYERS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer._patches
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_packed_key_fits_on_catalog_algebra():
    H = catalog.catalog_algebra("H")
    assert workloads.packed_key_fits(H, freealg.pqr_associator(2, 2, 2))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_builds(workload):
    inputs = workloads.build(workload, 1)
    assert inputs.requests and inputs.digest
