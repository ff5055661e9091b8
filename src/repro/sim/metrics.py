"""Simulation metrics: observed disparity, backward time, data age.

Observers subscribe to job completions and aggregate the run-time
quantities the paper's evaluation reports:

* :class:`DisparityMonitor` — per-task maximum observed time disparity
  (the ``Sim`` / ``Sim-B`` series of Fig. 6), with optional per-source-
  pair breakdown for validating pairwise bounds;
* :class:`BackwardTimeMonitor` — observed backward-time range per
  (tail task, source) for validating Lemmas 4/5 and 6;
* :class:`DataAgeMonitor` — observed data age (footnote 2);
* :class:`JobTableMonitor` — full job table for invariant checks.

All monitors accept a ``warmup`` horizon: jobs released before it are
ignored.  This realizes Lemma 6's "in the long term" premise — FIFO
buffers must fill before the shifted bounds apply — and also skips the
startup transient where channels are still empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.engine import Job, Observer
from repro.sim.provenance import Token, disparity_of, pairwise_disparity_of
from repro.units import Time


class DisparityMonitor(Observer):
    """Track the maximum observed time disparity per task.

    Args:
        tasks: Task names to monitor; ``None`` monitors every task.
        warmup: Ignore jobs released before this time.
        track_pairs: Additionally record, for every pair of sources seen
            in a token, the max pairwise timestamp difference (heavier;
            used by validation tests, not by the Fig. 6 harness).
    """

    def __init__(
        self,
        tasks: Optional[Sequence[str]] = None,
        *,
        warmup: Time = 0,
        track_pairs: bool = False,
    ) -> None:
        self._tasks: Optional[Set[str]] = set(tasks) if tasks is not None else None
        self._warmup = warmup
        self._track_pairs = track_pairs
        self.max_disparity: Dict[str, Time] = {}
        self.samples: Dict[str, int] = {}
        self.pair_max: Dict[Tuple[str, str, str], Time] = {}

    def on_job_complete(self, job: Job, token: Token) -> None:
        name = job.task.name
        if self._tasks is not None and name not in self._tasks:
            return
        if job.release < self._warmup:
            return
        disparity = disparity_of(token.provenance)
        if disparity is None:
            return
        self.samples[name] = self.samples.get(name, 0) + 1
        if disparity > self.max_disparity.get(name, -1):
            self.max_disparity[name] = disparity
        if self._track_pairs:
            sources = sorted(token.provenance)
            for i, a in enumerate(sources):
                for b in sources[i:]:
                    value = pairwise_disparity_of(token.provenance, a, b)
                    if value is None:
                        continue
                    key = (name, a, b)
                    if value > self.pair_max.get(key, -1):
                        self.pair_max[key] = value

    def disparity(self, task: str) -> Time:
        """Max observed disparity of ``task`` (0 if never observed)."""
        return self.max_disparity.get(task, 0)


@dataclass
class ObservedRange:
    """Min/max of an observed quantity plus the sample count."""

    lo: Optional[Time] = None
    hi: Optional[Time] = None
    samples: int = 0

    def add(self, value: Time) -> None:
        """Fold one observation into the range."""
        if self.lo is None or value < self.lo:
            self.lo = value
        if self.hi is None or value > self.hi:
            self.hi = value
        self.samples += 1


class BackwardTimeMonitor(Observer):
    """Observed backward times per (tail task, source task).

    For a job ``J`` of the tail whose output token carries source
    timestamps ``[min_ts, max_ts]`` for source ``s``, the observed
    backward times to ``s`` span ``[r(J) - max_ts, r(J) - min_ts]``.
    On systems with a unique path from ``s`` to the tail both ends
    coincide with the true ``len`` of the immediate backward job chain,
    which Lemmas 4/5 bound.
    """

    def __init__(
        self, tails: Optional[Sequence[str]] = None, *, warmup: Time = 0
    ) -> None:
        self._tails: Optional[Set[str]] = set(tails) if tails is not None else None
        self._warmup = warmup
        self.ranges: Dict[Tuple[str, str], ObservedRange] = {}

    def on_job_complete(self, job: Job, token: Token) -> None:
        name = job.task.name
        if self._tails is not None and name not in self._tails:
            return
        if job.release < self._warmup:
            return
        for source, (min_ts, max_ts) in token.provenance.items():
            observed = self.ranges.setdefault((name, source), ObservedRange())
            observed.add(job.release - max_ts)
            observed.add(job.release - min_ts)

    def range_for(self, tail: str, source: str) -> ObservedRange:
        return self.ranges.get((tail, source), ObservedRange())


class DataAgeMonitor(Observer):
    """Observed data age per (tail task, source task).

    Age of an output = ``f(J) - t(source)`` (footnote 2 of the paper).
    """

    def __init__(
        self, tails: Optional[Sequence[str]] = None, *, warmup: Time = 0
    ) -> None:
        self._tails: Optional[Set[str]] = set(tails) if tails is not None else None
        self._warmup = warmup
        self.ranges: Dict[Tuple[str, str], ObservedRange] = {}

    def on_job_complete(self, job: Job, token: Token) -> None:
        name = job.task.name
        if self._tails is not None and name not in self._tails:
            return
        if job.release < self._warmup or job.finish is None:
            return
        for source, (min_ts, max_ts) in token.provenance.items():
            observed = self.ranges.setdefault((name, source), ObservedRange())
            observed.add(job.finish - max_ts)
            observed.add(job.finish - min_ts)

    def range_for(self, tail: str, source: str) -> ObservedRange:
        return self.ranges.get((tail, source), ObservedRange())


@dataclass
class JobRecord:
    """Immutable summary of one completed job (for invariant checks)."""

    task: str
    index: int
    unit: Optional[str]
    release: Time
    start: Time
    finish: Time


class JobTableMonitor(Observer):
    """Record every completed job; supports schedule invariant checks.

    Memory grows with the number of jobs — use only on short horizons
    (tests, examples), never in the Fig. 6 harness.
    """

    def __init__(self) -> None:
        self.jobs: List[JobRecord] = []

    def on_job_complete(self, job: Job, token: Token) -> None:
        assert job.start is not None and job.finish is not None
        self.jobs.append(
            JobRecord(
                task=job.task.name,
                index=job.index,
                unit=job.task.ecu,
                release=job.release,
                start=job.start,
                finish=job.finish,
            )
        )

    def by_task(self, name: str) -> List[JobRecord]:
        return [record for record in self.jobs if record.task == name]

    def check_invariants(self, instantaneous: Set[str]) -> None:
        """Assert fundamental schedule properties.

        * ``release <= start <= finish`` for every job;
        * jobs of one task execute in release order;
        * executing jobs on one unit never overlap (non-preemption +
          mutual exclusion); instantaneous tasks are exempt (off-CPU).
        """
        per_unit: Dict[str, List[JobRecord]] = {}
        per_task: Dict[str, List[JobRecord]] = {}
        for record in self.jobs:
            if not record.release <= record.start <= record.finish:
                raise AssertionError(f"job times out of order: {record}")
            per_task.setdefault(record.task, []).append(record)
            if record.unit is not None and record.task not in instantaneous:
                per_unit.setdefault(record.unit, []).append(record)
        for name, records in per_task.items():
            records.sort(key=lambda r: r.index)
            for earlier, later in zip(records, records[1:]):
                if later.start < earlier.start:
                    raise AssertionError(
                        f"jobs of {name} started out of order: {earlier} {later}"
                    )
        for unit, records in per_unit.items():
            records.sort(key=lambda r: r.start)
            for earlier, later in zip(records, records[1:]):
                if later.start < earlier.finish:
                    raise AssertionError(
                        f"overlapping execution on {unit}: {earlier} vs {later}"
                    )
