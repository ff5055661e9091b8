"""Structural-edit benchmarks: derived scenarios vs per-candidate compiles.

The structural delta-compilation work extends
:class:`repro.sim.batch.CompiledScenario` beyond offsets: period,
priority and capacity edits become
:meth:`~repro.sim.batch.CompiledScenario.edit` siblings that invalidate
only the tables the edit touches (the period table, rank tables per
priority band, channel tables per edge) and share the rest with the
base.  Two structural assertions guard it (machine
independent, current run only):

* a mixed period/capacity sweep evaluated through edits must beat
  compiling a fresh scenario per candidate — with byte-identical
  per-candidate disparities (the ``structural`` spec of
  :mod:`repro.bench`, checked with the other specs in
  ``test_bench_kernel.py``, which also holds the committed-baseline
  gate);
* a capacity edit probed (offset-search probe) at a vector its base
  has already probed must reuse the base's period and rank tables and
  agree with a fresh compile of the edited system (this file).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.gen import generate_random_scenario
from repro.sim.batch import CompiledScenario
from repro.sim.exec_time import wcet_policy
from repro.sim.ckernel import load_kernel
from repro.units import seconds


@pytest.mark.benchmark(group="structural")
def test_capacity_edit_shares_unit_tables(benchmark):
    """Capacity edits replay the offset-search probe on the base's unit tables."""
    loaded, why = load_kernel()
    if loaded is None:
        pytest.skip(f"columnar kernel unavailable: {why}")
    rng = random.Random(2023)
    scenario = generate_random_scenario(20, rng)
    system, sink = scenario.system, scenario.sink
    duration = seconds(0.25)
    warmup = duration // 4
    vector = tuple(rng.randint(1, t.period) for t in system.graph.tasks)
    channel = system.graph.channels[0]
    edge = (channel.src, channel.dst)

    def probe(compiled):
        return compiled.windowed_maxima(
            vector, duration, warmup, duration - warmup, 1, policy=wcet_policy
        )

    def measure():
        base = CompiledScenario(system, sink)
        started = time.perf_counter()
        probe(base)
        cold_s = time.perf_counter() - started
        tables = (base.periods, base.rank_tid)
        derived = base.edit(capacities={edge: 4})
        started = time.perf_counter()
        got = probe(derived)
        shared_s = time.perf_counter() - started
        return cold_s, shared_s, tables, derived, got

    cold_s, shared_s, tables, derived, got = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    print()
    print(
        f"replay {cold_s*1e3:.2f} ms cold, capacity edit "
        f"{shared_s*1e3:.2f} ms on shared unit tables"
    )
    assert derived.periods is tables[0]
    assert derived.rank_tid is tables[1]
    fresh = CompiledScenario(system.with_channel_capacity(*edge, 4), sink)
    assert got == probe(fresh)
