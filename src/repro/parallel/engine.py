"""Deterministic process-pool map with adaptive chunking and stats.

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

Pool items are dispatched in chunks (several items per pickle
round-trip) to amortize IPC overhead on short tasks, and chunk sizes
*adapt*: the runner starts small, measures per-item wall time inside
the workers, and resizes subsequent chunks toward
:data:`CHUNK_TARGET_S` seconds of work each — long items get chunk
size 1 (maximum stealing), sub-millisecond items get batched hundreds
at a time.  At most two chunks per worker are in flight, so a cost
cliff mid-campaign never strands a stale chunk size.  Inline
(``jobs=1``) maps run one item at a time.

Every item's wall time is measured inside the worker so the caller can
report worker utilization (busy time / (wall time × workers)) — the
honest number for judging whether a sweep is IPC-bound or
compute-bound.  :meth:`PoolRunner.map_consume` takes a ``heartbeat``
hook that observes the running :class:`MapStats` after every chunk,
which is what feeds the live ``--progress`` line of campaign runs.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.sim.ckernel import set_thread_budget, thread_budget

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Seconds of work the adaptive dispatcher aims to pack per chunk.
CHUNK_TARGET_S = 0.2

#: Upper bound on an adaptive chunk (keeps pickles and latency sane).
MAX_ADAPTIVE_CHUNK = 256


def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``--jobs`` value: ``None``/``0`` means every CPU."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _run_chunk(
    fn: Callable[[Item], Result], chunk: Sequence[Tuple[int, Item]]
) -> List[Tuple[int, Result, float]]:
    """Worker-side loop: run every item of a chunk, timing each."""
    out: List[Tuple[int, Result, float]] = []
    for index, item in chunk:
        started = time.perf_counter()
        result = fn(item)
        out.append((index, result, time.perf_counter() - started))
    return out


@dataclass
class MapStats:
    """Observability record of one :class:`PoolRunner` map call."""

    jobs: int
    n_items: int = 0
    n_chunks: int = 0
    #: Items delivered so far (== ``n_items`` once the map returns).
    completed: int = 0
    wall_s: float = 0.0
    #: Summed in-worker wall time of every item (CPU-side busy time).
    busy_s: float = 0.0
    #: Smallest / largest chunk the adaptive dispatcher actually sent.
    chunk_min: int = 0
    chunk_max: int = 0

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
            "n_chunks": self.n_chunks,
            "wall_s": round(self.wall_s, 6),
            "busy_s": round(self.busy_s, 6),
            "utilization": round(self.utilization, 4),
            "chunk_min": self.chunk_min,
            "chunk_max": self.chunk_max,
        }


class PoolRunner:
    """A reusable worker pool with deterministic chunked maps.

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
        runner's resident memory is bounded by the chunks in flight
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

        def account_chunk(
            chunk_results: List[Tuple[int, Result, float]]
        ) -> None:
            stats.n_chunks += 1
            for index, result, elapsed in chunk_results:
                stats.busy_s += elapsed
                stats.completed += 1
                deliver(index, result, elapsed)
            stats.wall_s = time.perf_counter() - started
            if heartbeat is not None:
                heartbeat(stats)

        if self._executor is None:
            # Inline: one item at a time is both the simplest and the
            # most responsive chunking (no IPC to amortize).
            stats.chunk_min = stats.chunk_max = min(1, len(items))
            for indexed in enumerate(items):
                account_chunk(_run_chunk(fn, [indexed]))
        else:
            self._dispatch_pool(fn, items, stats, account_chunk)

        stats.wall_s = time.perf_counter() - started
        return stats

    def _dispatch_pool(
        self,
        fn: Callable[[Item], Result],
        items: Sequence[Item],
        stats: MapStats,
        account_chunk: Callable[[List[Tuple[int, Result, float]]], None],
    ) -> None:
        """Chunked pool dispatch with observed-timing chunk resizing."""
        assert self._executor is not None
        indexed = list(enumerate(items))
        n = len(indexed)
        cursor = 0
        ewma_item_s: Optional[float] = None

        def next_size(remaining: int) -> int:
            if ewma_item_s is None:
                # Cold start: small chunks so timings arrive quickly.
                return max(1, min(4, remaining // (self.jobs * 4) or 1))
            size = int(CHUNK_TARGET_S / max(ewma_item_s, 1e-9))
            # Never let the tail collapse onto too few workers.
            fair = max(1, remaining // (self.jobs * 2))
            return max(1, min(size or 1, fair, MAX_ADAPTIVE_CHUNK))

        def submit_one():
            nonlocal cursor
            size = next_size(n - cursor)
            chunk = indexed[cursor : cursor + size]
            cursor += len(chunk)
            stats.chunk_min = (
                len(chunk)
                if stats.chunk_min == 0
                else min(stats.chunk_min, len(chunk))
            )
            stats.chunk_max = max(stats.chunk_max, len(chunk))
            return self._executor.submit(_run_chunk, fn, chunk)

        pending = set()
        while cursor < n and len(pending) < self.jobs * 2:
            pending.add(submit_one())
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                chunk_results = future.result()
                if chunk_results:
                    mean = sum(r[2] for r in chunk_results) / len(
                        chunk_results
                    )
                    ewma_item_s = (
                        mean
                        if ewma_item_s is None
                        else 0.7 * ewma_item_s + 0.3 * mean
                    )
                account_chunk(chunk_results)
            while cursor < n and len(pending) < self.jobs * 2:
                pending.add(submit_one())


__all__ = [
    "CHUNK_TARGET_S",
    "MAX_ADAPTIVE_CHUNK",
    "MapStats",
    "PoolRunner",
    "resolve_jobs",
]
