"""Regression pins for the batched LET sweeps.

The LET analytical sweeps used to live as one-at-a-time ``simulate``
loops (``examples/let_vs_implicit.py``); they now run through
``observed_batch`` sessions, i.e. delta-replayed compiled scenarios.
Two things are pinned here:

* **identity** — per semantics, the batched observed column equals a
  sequential loop of independent ``simulate`` calls under the batch
  RNG discipline (execution seed first, then one offset in ``[1, T]``
  per task in graph order), so the port changed the engine, not the
  results;
* **stability** — the exact numbers of the example study (bounds and
  observed disparities) as committed constants, so a cross-PR drift in
  any layer underneath (generation, LET bounds, batch replay) surfaces
  as a one-line diff.

The ``explore`` sweeps' new ``semantics="let"`` mode is pinned the
same way: candidate bounds equal the LET bounds cache evaluation and
results are identical for any ``jobs`` value.
"""

from __future__ import annotations

import random

import pytest

from repro.api import AnalysisSession
from repro.chains.backward import BackwardBoundsCache
from repro.core.disparity import disparity_bound
from repro.explore import buffer_capacity_sweep, period_sensitivity
from repro.let import backward_bounds_let, semantics_tradeoff
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ModelError, Task, source_task
from repro.sim.ckernel import load_kernel
from repro.sim.metrics import DisparityMonitor
from repro.units import ms, seconds


def _two_sensor_pipeline() -> System:
    """The example's camera/LiDAR fusion pipeline, verbatim."""
    graph = CauseEffectGraph()
    graph.add_task(source_task("cam", ms(10), ecu="e", priority=0))
    graph.add_task(source_task("lidar", ms(50), ecu="e", priority=1))
    graph.add_task(Task("img", ms(10), ms(2), ms(1), ecu="e", priority=2))
    graph.add_task(Task("pcl", ms(50), ms(8), ms(3), ecu="e", priority=3))
    graph.add_task(Task("fuse", ms(50), ms(4), ms(2), ecu="e", priority=4))
    graph.add_channel("cam", "img")
    graph.add_channel("lidar", "pcl")
    graph.add_channel("img", "fuse")
    graph.add_channel("pcl", "fuse")
    return System.build(graph)


def _sequential_observed(system, task, semantics, *, sims, duration,
                         warmup, seed):
    """The pre-port reference: N independent simulate calls, one rng."""
    session = AnalysisSession(system, semantics=semantics)
    rng = random.Random(seed)
    worst = 0
    for _ in range(sims):
        monitor = DisparityMonitor([task], warmup=warmup)
        session.simulate(
            duration,
            seed=rng.randrange(2**31),
            observers=[monitor],
            offsets_rng=rng,
        )
        worst = max(worst, monitor.disparity(task))
    return worst


def test_semantics_tradeoff_matches_sequential_simulate():
    system = _two_sensor_pipeline()
    result = semantics_tradeoff(
        system, "fuse", sims=6, duration=seconds(8), warmup=seconds(1), seed=3
    )
    kernel, _why = load_kernel()
    tier = "columnar" if kernel is not None else "simulator"
    for point in result.points:
        assert point.engine == tier, point
        assert point.observed == _sequential_observed(
            system,
            "fuse",
            point.semantics,
            sims=6,
            duration=seconds(8),
            warmup=seconds(1),
            seed=3,
        )


def test_semantics_tradeoff_pins_example_study():
    """The exact example numbers, committed (cross-PR stability pin)."""
    system = _two_sensor_pipeline()
    result = semantics_tradeoff(
        system, "fuse", sims=6, duration=seconds(8), warmup=seconds(1), seed=3
    )
    assert result.implicit.bound == ms(113)
    assert result.let.bound == ms(140)
    assert result.implicit.observed == 57045482
    assert result.let.observed == 97045482
    assert result.bound_delta == ms(27)
    assert result.observed_delta == ms(40)
    assert result.implicit.sound and result.let.sound


def test_semantics_tradeoff_validation():
    system = _two_sensor_pipeline()
    with pytest.raises(ModelError):
        semantics_tradeoff(system, "fuse", sims=0, duration=seconds(1))


def test_buffer_capacity_sweep_let_semantics():
    system = _two_sensor_pipeline()
    kwargs = dict(
        max_capacity=4,
        semantics="let",
        observed_sims=2,
        observed_duration=seconds(4),
        observed_warmup=seconds(1),
        seed=11,
    )
    points = buffer_capacity_sweep(system, ("img", "fuse"), "fuse", **kwargs)
    assert len(points) == 4
    for point in points:
        candidate = system.with_channel_capacity("img", "fuse", point.value)
        assert point.bound == disparity_bound(
            candidate,
            "fuse",
            cache=BackwardBoundsCache(candidate, strategy=backward_bounds_let),
        )
        assert point.observed is not None
        assert point.observed <= point.bound
    parallel = buffer_capacity_sweep(
        system, ("img", "fuse"), "fuse", jobs=2, **kwargs
    )
    assert parallel == points


def test_period_sensitivity_let_semantics_matches_session():
    system = _two_sensor_pipeline()
    points = period_sensitivity(
        system,
        "img",
        "fuse",
        candidate_periods=(ms(10), ms(25)),
        semantics="let",
        observed_sims=2,
        observed_duration=seconds(4),
        seed=7,
    )
    assert all(p.schedulable for p in points)
    # The ms(10) candidate is the unmodified system: its bound must
    # agree with Theorem 2 over the LET backward bounds.
    assert points[0].bound == disparity_bound(
        system,
        "fuse",
        cache=BackwardBoundsCache(system, strategy=backward_bounds_let),
    )


def test_explore_sweeps_reject_unknown_semantics():
    system = _two_sensor_pipeline()
    with pytest.raises(ModelError):
        period_sensitivity(
            system, "img", "fuse", candidate_periods=(ms(10),), semantics="e2e"
        )
    with pytest.raises(ModelError):
        buffer_capacity_sweep(
            system, ("img", "fuse"), "fuse", semantics="e2e"
        )
