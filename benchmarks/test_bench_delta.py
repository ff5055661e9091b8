"""Delta-compilation benchmarks: replayed views vs per-candidate compiles.

The delta-compilation work splits :class:`repro.sim.batch.CompiledScenario`
into offset-independent tables compiled once plus cheap per-candidate
:meth:`~repro.sim.batch.CompiledScenario.with_offsets` views.  Two
structural assertions guard it (machine independent, current run only):

* evaluating many offset candidates through delta-replayed views must
  beat compiling a fresh scenario per candidate — with byte-identical
  per-candidate disparities (the ``delta`` spec of :mod:`repro.bench`,
  checked with the other specs in ``test_bench_kernel.py``, which also
  holds the committed-baseline gate);
* constructing a view must be orders of magnitude cheaper than a
  compile, so sweeps can create one view per candidate without budget
  (this file).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.gen import generate_random_scenario
from repro.sim.batch import CompiledScenario


@pytest.mark.benchmark(group="delta")
def test_offset_view_is_cheap(benchmark):
    """One view per candidate costs a fraction of one compile."""
    rng = random.Random(2023)
    scenario = generate_random_scenario(20, rng)
    system, sink = scenario.system, scenario.sink
    periods = [task.period for task in system.graph.tasks]
    vectors = [
        tuple(rng.randint(1, period) for period in periods)
        for _ in range(500)
    ]

    def measure():
        started = time.perf_counter()
        compiled = CompiledScenario(system, sink)
        compile_s = time.perf_counter() - started
        started = time.perf_counter()
        views = [compiled.with_offsets(vector) for vector in vectors]
        views_s = time.perf_counter() - started
        return compile_s, views_s / len(views), views

    compile_s, per_view_s, views = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    print()
    print(
        f"compile {compile_s*1e3:.2f} ms, view {per_view_s*1e6:.2f} us "
        f"({compile_s/per_view_s:.0f}x cheaper per candidate)"
    )
    assert all(view.delta_replay for view in views)
    assert per_view_s * 20 < compile_s
