"""Deterministic process-pool map with per-item timing stats.

The primitive under the parallel experiment engine: apply a picklable
function to a sequence of items across worker processes and deliver the
results keyed by **input index**, no matter which worker finished
first.  Because every Fig. 6 graph task carries its own pre-derived
seed (see :func:`repro.experiments.fig6.graph_tasks`), index-keyed
collection is all it takes for ``jobs=1`` and ``jobs=N`` to produce
bit-identical output.

Two consumption modes share one dispatch core:

* :meth:`PoolRunner.map_ordered` returns the full result list in input
  order — the right shape for small fan-outs (restart searches, sweep
  candidates).
* :meth:`PoolRunner.map_consume` delivers each result to a callback as
  it completes and retains **nothing** — the campaign engine folds
  results into bounded accumulators this way, so resident memory stays
  O(items in flight) even on million-scenario campaigns.

Each item is one pool task.  At most two items per worker are in
flight, so a worker always has its next item queued and no item waits
behind a slow one on another worker.  Fig. 6 graph items take
milliseconds to tenths of a second, so one pickle round-trip per item
is noise next to the work.  Inline (``jobs=1``) maps run the same
one-item-at-a-time loop without an executor.

Every item's wall time is measured inside the worker so the caller can
report worker utilization (busy time / (wall time × workers)) — the
honest number for judging whether a sweep is IPC-bound or
compute-bound.  :meth:`PoolRunner.map_consume` takes a ``heartbeat``
hook that observes the running :class:`MapStats` after every item,
which is what feeds the live ``--progress`` line of campaign runs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.sim.ckernel import set_thread_budget, thread_budget

Item = TypeVar("Item")
Result = TypeVar("Result")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``--jobs`` value: ``None``/``0`` means every CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _timed(
    fn: Callable[[Item], Result], index: int, item: Item
) -> Tuple[int, Result, float]:
    """Worker-side call: run one item and time it."""
    started = time.perf_counter()
    result = fn(item)
    return index, result, time.perf_counter() - started


@dataclass
class MapStats:
    """Observability record of one :class:`PoolRunner` map call."""

    jobs: int
    n_items: int = 0
    #: Items delivered so far (== ``n_items`` once the map returns).
    completed: int = 0
    wall_s: float = 0.0
    #: Summed in-worker wall time of every item (CPU-side busy time).
    busy_s: float = 0.0

    @property
    def utilization(self) -> float:
        """Worker busy fraction: ``busy / (wall * jobs)``, in [0, 1]."""
        if self.wall_s <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.wall_s * self.jobs))

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "n_items": self.n_items,
            "wall_s": round(self.wall_s, 6),
            "busy_s": round(self.busy_s, 6),
            "utilization": round(self.utilization, 4),
        }


class PoolRunner:
    """A reusable worker pool with deterministic maps.

    With ``jobs=1`` no processes are spawned and the map runs inline —
    the degenerate case shares every code path except the executor, so
    serial/parallel parity is structural, not coincidental.  Use as a
    context manager; one runner can serve many map calls (the Fig. 6
    campaign reuses it across the whole sweep so workers are forked
    once, not once per point).

    Each worker process gets ``thread_budget() // jobs`` (at least 1)
    kernel threads, so pool workers and kernel threads together stay
    within this process's CPUs.

    Args:
        jobs: Worker processes (``0``/negative resolve to every CPU).
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = resolve_jobs(jobs)
        self._executor: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "PoolRunner":
        if self.jobs > 1:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=set_thread_budget,
                initargs=(max(1, thread_budget() // self.jobs),),
            )
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # public maps
    # ------------------------------------------------------------------

    def map_ordered(
        self,
        fn: Callable[[Item], Result],
        items: Sequence[Item],
    ) -> Tuple[List[Result], MapStats]:
        """Apply ``fn`` to every item; results come back in input order.

        Args:
            fn: Picklable callable (top-level function or a
                ``functools.partial`` of one) applied to each item.
            items: The inputs; each must be picklable under ``jobs>1``.
        """
        results: List[Optional[Result]] = [None] * len(items)

        def deliver(index: int, result: Result, elapsed: float) -> None:
            results[index] = result

        stats = self._dispatch(fn, items, deliver, None)
        return results, stats  # type: ignore[return-value]

    def map_consume(
        self,
        fn: Callable[[Item], Result],
        items: Sequence[Item],
        *,
        on_item: Callable[[int, Result, float], None],
        heartbeat: Optional[Callable[[MapStats], None]] = None,
    ) -> MapStats:
        """Apply ``fn`` to every item, retaining **no** results.

        Each completion is handed to ``on_item(index, result,
        elapsed_s)`` — in completion order — and then dropped, so the
        runner's resident memory is bounded by the items in flight
        regardless of how many items the map covers.  The campaign
        engine folds results into per-point accumulators this way.
        """
        return self._dispatch(fn, items, on_item, heartbeat)

    # ------------------------------------------------------------------
    # dispatch core
    # ------------------------------------------------------------------

    def _dispatch(
        self,
        fn: Callable[[Item], Result],
        items: Sequence[Item],
        deliver: Callable[[int, Result, float], None],
        heartbeat: Optional[Callable[[MapStats], None]],
    ) -> MapStats:
        stats = MapStats(jobs=self.jobs, n_items=len(items))
        started = time.perf_counter()

        def account(index: int, result: Result, elapsed: float) -> None:
            stats.busy_s += elapsed
            stats.completed += 1
            deliver(index, result, elapsed)
            stats.wall_s = time.perf_counter() - started
            if heartbeat is not None:
                heartbeat(stats)

        if self._executor is None:
            for index, item in enumerate(items):
                account(*_timed(fn, index, item))
        else:
            submit = partial(self._executor.submit, _timed, fn)
            indexed = enumerate(items)
            pending: set = set()
            while True:
                # Top up to two items per worker in flight.
                for index, item in islice(indexed, 2 * self.jobs - len(pending)):
                    pending.add(submit(index, item))
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    account(*future.result())

        stats.wall_s = time.perf_counter() - started
        return stats


__all__ = [
    "MapStats",
    "PoolRunner",
    "resolve_jobs",
]
