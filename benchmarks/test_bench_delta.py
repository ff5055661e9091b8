"""Delta-compilation benchmarks: offset replays vs per-candidate compiles.

The delta-compilation work splits :class:`repro.sim.batch.CompiledScenario`
into offset-independent tables compiled once plus a per-candidate offset
vector passed to :meth:`~repro.sim.batch.CompiledScenario.disparity`.
Two structural assertions guard it (machine independent, current run
only):

* evaluating many offset candidates through delta replays must beat
  compiling a fresh scenario per candidate — with byte-identical
  per-candidate disparities (the ``delta`` spec of :mod:`repro.bench`,
  checked with the other specs in ``test_bench_kernel.py``, which also
  holds the committed-baseline gate);
* admitting a candidate to the delta path (the ``[0, T]`` domain check,
  the only per-candidate work before the replay itself) must be orders
  of magnitude cheaper than a compile, so sweeps pay nothing per
  candidate beyond the replay (this file).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.gen import generate_random_scenario
from repro.sim.batch import CompiledScenario


@pytest.mark.benchmark(group="delta")
def test_offset_candidate_is_cheap(benchmark):
    """Admitting one candidate costs a fraction of one compile."""
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
        admitted = [compiled.in_domain(vector) for vector in vectors]
        admit_s = time.perf_counter() - started
        return compile_s, admit_s / len(vectors), compiled.eligible, admitted

    compile_s, per_candidate_s, eligible, admitted = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    print()
    print(
        f"compile {compile_s*1e3:.2f} ms, candidate "
        f"{per_candidate_s*1e6:.2f} us "
        f"({compile_s/per_candidate_s:.0f}x cheaper per candidate)"
    )
    assert eligible and all(admitted)
    assert per_candidate_s * 20 < compile_s
