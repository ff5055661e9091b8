"""Cluster-coordinator benchmark: bounded overhead.

The cluster coordinator (:func:`repro.parallel.cluster.run_cluster`)
buys crash tolerance — shard JSONL resume logs, liveness watchdog,
dead-shard re-issue, incremental merge — and pays for it with worker
subprocess launches and file-tail polling that a plain in-process pool
does not have.  The ``cluster`` spec of :mod:`repro.bench` runs the
same synthetic campaign through
:func:`repro.parallel.campaign.run_campaign` on a process pool and
through the coordinator on the same worker count, asserts the rows
identical (the byte-identity contract) and zero deaths, and records the
coordinator's **overhead ratio**.

This file bounds that overhead by a generous constant: the
coordinator's fixed costs (subprocess spawn, poll interval) dominate at
quick shapes, so the bound is loose; it exists to catch accidental
serialization (e.g. overhead growing with the scenario count would blow
far past it).  The committed-entry evidence and the regression gate
live in ``test_bench_kernel.py``; launch cost amortizes with campaign
size, so the gate only compares overhead at matching shapes.
"""

from __future__ import annotations

import pytest

from repro.bench import SPECS, measure

SPEC = next(spec for spec in SPECS if spec.kernel == "cluster")


@pytest.mark.benchmark(group="cluster")
def test_coordinator_pays_bounded_overhead(benchmark):
    """Coordinator completes with identical rows at bounded overhead."""
    quick = SPEC.quick
    result = benchmark.pedantic(measure, (SPEC, quick), rounds=1, iterations=1)
    print()
    print(
        f"cluster: {result['scenarios']} scenarios "
        f"{result['pool_s']:.3f}s single pool -> "
        f"{result['cluster_s']:.3f}s coordinated "
        f"({result['overhead']:.2f}x overhead, "
        f"{result['shards']} shards on {result['workers']} workers)"
    )
    # The cluster arm itself asserts zero deaths and measure() asserts
    # rows identical; here we pin the shape and bound the fixed-cost
    # overhead.
    assert result["scenarios"] == quick["points"] * quick["sims_per_graph"]
    assert result["shards"] == 2 and result["workers"] == 2
    assert result["cluster_s"] > 0 and result["pool_s"] > 0
    # At 48 scenarios the subprocess launches dominate, so the ratio is
    # large but fixed; a coordinator that serialized the campaign or
    # spun on its poll loop would blow far past this.
    assert result["overhead"] < 30.0
