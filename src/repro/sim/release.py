"""Per-task release tables: the one source of truth for release instants.

The paper's model is strictly periodic — job ``k`` of a task releases
at ``offset + k * period`` and every simulation tier derives that
arithmetic inline.  The jitter and sporadic release models
(:class:`repro.model.task.ReleaseModel`) replace the arithmetic with a
**pre-drawn release table** per ``(seed, task)``: a sorted list of
release instants within the horizon, drawn from a deterministic RNG
stream derived here.  Every tier — the reference event loop
(:class:`~repro.sim.engine.Simulator`) and the columnar C kernel —
builds the same table from the same ``(seed, task name)`` pair, so
they stay byte-identical without sharing any runtime state.

Two deliberate properties of the stream derivation:

* It is **independent of the execution-time policy stream** (the
  ``random.Random(seed)`` the simulator hands to the policy).  Periodic
  workloads draw nothing here, so adding the mechanism changed no
  existing schedule, and a jittered run consumes the policy stream
  exactly like a periodic one.
* It is keyed on the task *name*, so edited scenarios (new offsets
  or periods) re-draw per task rather than shifting every stream.

Fault plans compose as a boolean **mask over the table**: a
:class:`~repro.sim.faults.FaultPlan` never changes which instants are
drawn, only which of them produce a job — so faulted runs stay
data-independent and eligible for the batched tiers.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Sequence, Tuple

from repro.model.task import ReleaseModel, Task
from repro.units import Time

__all__ = [
    "release_seed",
    "release_rng",
    "release_table",
    "max_jobs",
    "kept_mask",
    "split_kept",
    "needs_tables",
]


def release_seed(seed: int, name: str) -> int:
    """Deterministic per-task seed for the release stream.

    Derived by hashing ``"{seed}:{name}"`` so tasks never share a
    stream and the mapping is stable across processes and platforms
    (unlike ``hash()``, which is salted).
    """
    digest = hashlib.blake2b(
        f"{seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def release_rng(seed: int, name: str) -> random.Random:
    """The release-stream RNG of one ``(seed, task)`` pair."""
    return random.Random(release_seed(seed, name))


def release_table(
    task: Task,
    seed: Optional[int],
    duration: Time,
    offset: Optional[Time] = None,
) -> List[Time]:
    """All release instants of ``task`` in ``[0, duration]``, sorted.

    * periodic — ``offset + k * period`` (no randomness; ``seed`` may
      be ``None``);
    * jitter — one uniform draw ``J_k`` in ``[0, jitter]`` per nominal
      instant ``offset + k * period <= duration``; the jittered release
      is kept only while it stays within the horizon.  ``jitter <
      period`` (validated on the task) keeps the table strictly
      increasing;
    * sporadic — first release at ``offset``, then each gap drawn
      uniformly from ``[min_gap, max_gap]``.

    ``offset`` overrides ``task.offset`` — the batched tiers evaluate
    one compiled task set at many candidate offset vectors, and the
    table of a task at offset ``o`` must equal the table of the same
    task with its offset *edited* to ``o`` (the stream is keyed on the
    task name, not the offset).  The same ``(task, offset, seed,
    duration)`` tuple always yields the same table, which is what
    keeps the simulation tiers byte-identical.
    """
    model = task.release_model
    period = task.period
    if offset is None:
        offset = task.offset
    if model.is_periodic:
        return list(range(offset, duration + 1, period))
    if seed is None:
        raise ValueError(
            f"task {task.name!r} uses a {model.kind!r} release model; "
            f"a simulation seed is required to draw its release table"
        )
    rng = release_rng(seed, task.name)
    if model.kind == "jitter":
        jmax = model.jitter
        table = []
        for base in range(offset, duration + 1, period):
            at = base + rng.randint(0, jmax)
            if at <= duration:
                table.append(at)
        return table
    # sporadic
    lo, hi = model.min_gap, model.max_gap
    table = []
    at = offset
    while at <= duration:
        table.append(at)
        at += rng.randint(lo, hi)
    return table


def max_jobs(task: Task, duration: Time) -> int:
    """Upper bound on ``len(release_table(task, seed, duration))``.

    Used by the batched tiers to size job slots before any table is
    drawn (sporadic tables are seed-dependent in length).
    """
    model = task.release_model
    if model.kind == "sporadic":
        return duration // model.min_gap + 1
    return duration // task.period + 1


def kept_mask(plan, name: str, table: Sequence[Time]) -> List[bool]:
    """Per-entry "produces a job" mask of one task's release table.

    ``plan`` is a :class:`~repro.sim.faults.FaultPlan` or ``None``;
    entry ``k`` is ``False`` exactly when the plan suppresses the
    release (half-open windows: a release at ``window.end`` is kept).
    """
    if plan is None:
        return [True] * len(table)
    windows = plan.windows_for(name)
    if not windows:
        return [True] * len(table)
    return [
        not any(w.start <= at < w.end for w in windows) for at in table
    ]


def split_kept(
    plan, name: str, table: Sequence[Time]
) -> Tuple[List[Time], int]:
    """``(kept release instants, dropped count)`` of one table."""
    mask = kept_mask(plan, name, table)
    kept = [at for at, ok in zip(table, mask) if ok]
    return kept, len(table) - len(kept)


def needs_tables(tasks: Sequence[Task], faults=None) -> bool:
    """Whether a run must materialize release tables.

    True when any task releases non-periodically or a non-empty fault
    plan is active; strictly periodic fault-free runs keep the original
    arithmetic paths (and their byte-identical behavior) untouched.
    """
    if faults is not None and faults:
        return True
    return any(not t.release_model.is_periodic for t in tasks)
