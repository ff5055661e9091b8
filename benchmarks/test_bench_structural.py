"""Structural-edit benchmarks: derived scenarios vs per-candidate compiles.

The structural delta-compilation work extends
:class:`repro.sim.batch.CompiledScenario` beyond offsets: period,
priority and capacity edits become
:meth:`~repro.sim.batch.CompiledScenario.edit` siblings that invalidate
only the tables the edit touches (release grids per period, rank
tables per priority band, channel tables per edge) and share the rest
with the base — capacity edits even share the memoized schedule, since
buffer sizes never affect scheduling.  Two structural assertions guard
it (machine independent, current run only):

* a mixed period/capacity sweep evaluated through edits must beat
  compiling a fresh scenario per candidate — with byte-identical
  per-candidate disparities (the ``structural`` spec of
  :mod:`repro.bench`, checked with the other specs in
  ``test_bench_kernel.py``, which also holds the committed-baseline
  gate);
* a capacity edit evaluated at draws its base has already scheduled
  must hit the shared schedule memo instead of re-simulating (this
  file).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.gen import generate_random_scenario
from repro.sim.batch import CompiledScenario
from repro.sim.exec_time import wcet_policy
from repro.units import seconds


@pytest.mark.benchmark(group="structural")
def test_capacity_edit_shares_schedule(benchmark):
    """Capacity edits replay the base's memoized schedule for free."""
    rng = random.Random(2023)
    scenario = generate_random_scenario(20, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(0.25)
    warmup = duration // 4
    vector = tuple(rng.randint(1, t.period) for t in system.graph.tasks)
    channel = system.graph.channels[0]
    edge = (channel.src, channel.dst)

    def measure():
        base = CompiledScenario(system, sink)
        started = time.perf_counter()
        base.disparity(vector, 0, duration, warmup, wcet_policy)
        cold_s = time.perf_counter() - started
        derived = base.edit(capacities={edge: 4})
        assert derived._sched_cache is base._sched_cache
        started = time.perf_counter()
        derived.disparity(vector, 0, duration, warmup, wcet_policy)
        shared_s = time.perf_counter() - started
        return cold_s, shared_s, base._sched_cache.stats()

    cold_s, shared_s, stats = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    print()
    print(
        f"schedule {cold_s*1e3:.2f} ms cold, capacity edit "
        f"{shared_s*1e3:.2f} ms via shared memo "
        f"(hits={stats['hits']}, misses={stats['misses']})"
    )
    assert stats["hits"] >= 1
    assert shared_s < cold_s
