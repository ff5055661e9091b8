"""Fault injection: release dropouts (extension).

Automotive sensor stacks must tolerate transient sensor loss — a
camera blinded by glare, a LiDAR packet burst dropped by the switch.
In the cause-effect model this is a *release dropout*: during a fault
window the task releases no jobs, so its consumers keep reading the
last token written before the fault (overwrite registers never empty),
and the data age and time disparity of everything downstream grow
linearly until the sensor recovers.

:class:`FaultPlan` describes per-task dropout windows; the simulator
consults it at every release.  The :class:`StalenessMonitor` measures
the consumer-visible effect: the maximum age of the data a job reads,
per (consumer, source).

Use cases: failure-injection testing of the provenance machinery
(stale timestamps propagate correctly), and quantifying how quickly a
disparity requirement is violated under sensor loss (see
``examples/fault_injection.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.model.task import ModelError
from repro.sim.engine import Job, Observer
from repro.sim.provenance import Token
from repro.units import Time


@dataclass(frozen=True)
class DropoutWindow:
    """A half-open interval ``[start, end)`` of suppressed releases."""

    start: Time
    end: Time

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ModelError(
                f"invalid dropout window [{self.start}, {self.end})"
            )

    def contains(self, time: Time) -> bool:
        """True when ``time`` lies inside the window."""
        return self.start <= time < self.end


class FaultPlan:
    """Per-task release-dropout schedule."""

    def __init__(self) -> None:
        self._windows: Dict[str, List[DropoutWindow]] = {}

    def drop(self, task: str, start: Time, end: Time) -> "FaultPlan":
        """Suppress all releases of ``task`` in ``[start, end)``.

        Windows are normalized to a sorted, **disjoint** form:
        overlapping, adjacent, and duplicate windows merge into one, so
        the stored shape — and everything derived from it
        (:meth:`windows_for` order, release masks) —
        depends only on the *set* of suppressed instants, never on
        insertion order.
        """
        window = DropoutWindow(start=start, end=end)
        merged: List[DropoutWindow] = []
        for current in sorted(
            self._windows.get(task, []) + [window],
            key=lambda w: (w.start, w.end),
        ):
            if merged and current.start <= merged[-1].end:
                last = merged[-1]
                if current.end > last.end:
                    merged[-1] = DropoutWindow(start=last.start, end=current.end)
            else:
                merged.append(current)
        self._windows[task] = merged
        return self

    def is_dropped(self, task: str, release: Time) -> bool:
        """Whether the release of ``task`` at ``release`` is suppressed.

        A release at exactly ``DropoutWindow.end`` is **not** suppressed
        (windows are half-open); every simulation tier applies the same
        rule, pinned by ``tests/test_faults.py``.
        """
        windows = self._windows.get(task)
        if not windows:
            return False
        return any(window.contains(release) for window in windows)

    def windows_for(self, task: str) -> Tuple[DropoutWindow, ...]:
        """The normalized (sorted, disjoint) windows of one task."""
        return tuple(self._windows.get(task, ()))

    @property
    def tasks(self) -> Tuple[str, ...]:
        """Names of the tasks with at least one dropout window."""
        return tuple(self._windows)

    def validate(self, task_names: Sequence[str]) -> None:
        """Reject plans naming tasks absent from the system."""
        unknown = set(self._windows) - set(task_names)
        if unknown:
            raise ModelError(f"fault plan names unknown tasks: {sorted(unknown)}")

    def __bool__(self) -> bool:
        return bool(self._windows)


class StalenessMonitor(Observer):
    """Max age of the data each job *reads*, per (consumer, source).

    Age of a read = job start (implicit) or release (LET) minus the
    source timestamp; under a dropout the age keeps growing because the
    register still holds the pre-fault token.  The monitor records the
    maximum over the run, plus the time at which it occurred.
    """

    def __init__(
        self, consumers: Optional[Sequence[str]] = None, *, warmup: Time = 0
    ) -> None:
        self._consumers: Optional[Set[str]] = (
            set(consumers) if consumers is not None else None
        )
        self._warmup = warmup
        self.max_age: Dict[Tuple[str, str], Time] = {}
        self.max_age_at: Dict[Tuple[str, str], Time] = {}

    def on_job_complete(self, job: Job, token: Token) -> None:
        name = job.task.name
        if self._consumers is not None and name not in self._consumers:
            return
        if job.release < self._warmup:
            return
        reference = job.start if job.start is not None else job.release
        for read in job.reads:
            for source, (min_ts, _max_ts) in read.provenance.items():
                age = reference - min_ts
                key = (name, source)
                if age > self.max_age.get(key, -1):
                    self.max_age[key] = age
                    self.max_age_at[key] = reference

    def age_for(self, consumer: str, source: str) -> Optional[Time]:
        """Max observed read age for ``(consumer, source)`` (None if unseen)."""
        return self.max_age.get((consumer, source))
