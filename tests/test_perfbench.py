"""The benchmark's traced run still reaches every span it requires.

`perfbench/run.py --trace 1` fails when its traced run records no call of a
span that `tracing.REQUIRED` lists for the workload, which happens when a
listed function stops being called through a binding the tracer wraps.
Here the smoke-size job list of each workload runs under `tracing.Tracer`,
set-up included, as a traced run does, and every answer must still pass the
workload's own check.  The per-layer metrics of that run must then count
the generators and the stored nonzeros of every complex it built as the
complexes themselves do: the nonzeros as the lines of their
`export-matrices` dump, the generators by walking them.  The benchmark's
files are read, not changed.
"""

import contextlib
import io
import os
import random
import sys

import pytest

from prismhom import chains, cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

sys.path.insert(0, PERFBENCH)
try:
    import tracing
    import workloads
finally:
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("workload", ["verify-s3", "homology-ladder", "ktg-invariants"])
def test_a_traced_smoke_run_records_every_required_span(workload, tmp_path):
    setup, check = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        prepared = setup(str(tmp_path), random.Random(1), "smoke")
        seen = {}
        for job in prepared.jobs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(list(job.argv)) == 0, job.key
            assert check(job, out.getvalue(), seen), job.key
    finally:
        tracer.uninstall()
    assert tracer.missing(workload) == []
    # the timing arguments feed only timing metrics, which are not read here
    metrics = tracing.layer_metrics(tracer, 0, 1.0, 1.0, [1.0, 1.0])
    generators = dict.fromkeys(tracing.DEGREES, 0)
    nnz = dict.fromkeys(tracing.DEGREES, 0)
    for K in tracer.complexes:
        dump = io.StringIO()
        chains.export_boundary_triplets(K.cc, dump)
        for line in dump.getvalue().splitlines():
            n = int(line.split()[0])
            if n in nnz:
                nnz[n] += 1
        for n in tracing.DEGREES:
            generators[n] += sum(1 for _ in K.generators(n))
    assert tracer.complexes and any(nnz.values())
    for n in tracing.DEGREES:
        assert metrics[f"prismatic.generators.d{n}"]["value"] == generators[n]
        assert metrics[f"prismatic.boundary_nnz.d{n}"]["value"] == nnz[n]
