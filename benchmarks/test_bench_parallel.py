"""Wall-clock speedup of the parallel experiment engine.

Measures the full Fig. 6 (a)/(b) sweep two ways on the same preset:

* **baseline** — the harness as shipped in the seed: every
  replication through the per-replication reference simulator, driven
  serially (``jobs=1``);
* **optimized** — the batched replay tiers (:func:`repro.sim.batch.run_batch`)
  with per-graph work fanned across 4 worker processes.

The optimized run must be at least 2x faster.  Two independent factors
multiply into that number: batched replay on one core and
process-level parallelism (near-linear on real multicore; ~1x on a
single-CPU container, where the pool can only time-slice).  Measuring
end-to-end keeps the claim honest either way — the committed result in
``out/parallel_speedup_ab.json`` records both wall times plus the
worker utilization, so the contribution of each factor is visible.

Run ``python -m benchmarks.parallel_speedup --preset default`` for the
default-preset measurement (minutes); this benchmark uses the bench
preset so the suite stays fast.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.common import BENCH_AB
from benchmarks.parallel_speedup import measure_speedup
from repro.experiments.fig6 import run_fig6_ab
from repro.experiments.reporting import csv_ab


@pytest.mark.benchmark(group="parallel")
def test_parallel_speedup_ab(benchmark, out_dir):
    report = benchmark.pedantic(
        lambda: measure_speedup(BENCH_AB, jobs=4), rounds=1, iterations=1
    )

    print()
    print(
        f"baseline {report['baseline_s']:.2f}s -> optimized "
        f"{report['optimized_s']:.2f}s = {report['speedup']:.2f}x "
        f"({report['jobs']} workers, {report['cpus']} CPU(s), "
        f"{report['utilization']:.0%} busy)"
    )
    (out_dir / "parallel_speedup_ab.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    assert report["speedup"] >= 2.0, report


@pytest.mark.benchmark(group="parallel")
def test_jobs_do_not_change_the_csv(benchmark, out_dir):
    serial = csv_ab(run_fig6_ab(BENCH_AB, jobs=1))
    parallel = benchmark.pedantic(
        lambda: csv_ab(run_fig6_ab(BENCH_AB, jobs=4)), rounds=1, iterations=1
    )
    assert parallel == serial
