"""LET-versus-implicit trade-off sweeps on batched sessions (extension).

The classic LET study (``examples/let_vs_implicit.py``) compares, for
one sink task, the analytical disparity bound and the observed
disparity under both communication semantics.  Its original simulation
loop ran one :func:`repro.sim.engine.simulate` per replication; this
module replays the same study through
:meth:`repro.api.AnalysisSession.observed_batch`, so every replication
of a semantics is an offset-delta replay of one compiled scenario
(:mod:`repro.sim.batch`), byte-identical to the sequential loop under
the batch RNG discipline (per replication: execution seed first, then
one offset in ``[1, T]`` per task in graph order).

Both semantics consume *the same* derived seed stream (a fresh
``random.Random(seed)`` each), so their observed columns differ only
by data-flow semantics — the comparison is paired, not two unrelated
random draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.model.system import System
from repro.model.task import ModelError
from repro.units import Time

#: The semantics compared by :func:`semantics_tradeoff`, in order.
SEMANTICS = ("implicit", "let")


@dataclass(frozen=True)
class SemanticsPoint:
    """One semantics' analytical bound next to its observed disparity.

    ``observed`` is the max disparity over the sweep's batched
    replications — the empirical lower bound under that semantics —
    and ``engine`` records which replay tier produced it
    (``"columnar"`` for the batched kernel, ``"simulator"`` for the
    per-replication fallback; see :class:`~repro.sim.batch.BatchResult`).
    """

    semantics: str
    bound: Time
    observed: Time
    engine: str

    @property
    def sound(self) -> bool:
        """True when the observed disparity respects the bound."""
        return self.observed <= self.bound


@dataclass(frozen=True)
class TradeoffResult:
    """Paired implicit/LET disparity study of one task."""

    task: str
    implicit: SemanticsPoint
    let: SemanticsPoint

    @property
    def points(self) -> tuple:
        """Both points, implicit first."""
        return (self.implicit, self.let)

    @property
    def bound_delta(self) -> Time:
        """``bound(LET) - bound(implicit)``: negative when LET wins."""
        return self.let.bound - self.implicit.bound

    @property
    def observed_delta(self) -> Time:
        """``observed(LET) - observed(implicit)`` over paired seeds."""
        return self.let.observed - self.implicit.observed


def semantics_tradeoff(
    system: System,
    task: str,
    *,
    sims: int,
    duration: Time,
    warmup: Time = 0,
    seed: int = 0,
    method: str = "forkjoin",
    policy: str = "uniform",
) -> TradeoffResult:
    """Analytical bound and observed disparity under both semantics.

    For each semantics the function opens an
    :class:`~repro.api.AnalysisSession` under it (whose ``semantics``
    picks both the backward bounds and the replay), reads the
    Theorem 2 bound, and replays ``sims`` batched replications of
    ``duration`` (discarding ``warmup``).  Replications of both
    semantics draw from identical ``random.Random(seed)`` streams, so
    the two observed values are a paired comparison.

    Args:
        system: The analyzed system.
        task: Sink task whose disparity is studied.
        sims: Batched replications per semantics (must be positive).
        duration: Simulated horizon per replication.
        warmup: Transient discarded from each replication.
        seed: Seed of the per-semantics replication stream.
        method: Disparity estimator (``"forkjoin"``/``"s-diff"`` etc.).
        policy: Execution-time policy name for the replications.
    """
    from repro.api import AnalysisSession

    if sims < 1:
        raise ModelError(f"sims must be >= 1, got {sims}")
    points = {}
    for semantics in SEMANTICS:
        session = AnalysisSession(system, semantics=semantics)
        batch = session.observed_batch(
            task,
            sims=sims,
            duration=duration,
            warmup=warmup,
            rng=random.Random(seed),
            policy=policy,
        )
        points[semantics] = SemanticsPoint(
            semantics=semantics,
            bound=session.disparity(task, method=method),
            observed=batch.max_disparity,
            engine=batch.engine,
        )
    return TradeoffResult(
        task=task, implicit=points["implicit"], let=points["let"]
    )


__all__ = ["SEMANTICS", "SemanticsPoint", "TradeoffResult", "semantics_tradeoff"]
