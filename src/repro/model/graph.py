"""Cause-effect graph: a DAG of periodic tasks connected by channels.

The graph ``G = <V, E>`` of Section II-A.  Vertices are :class:`Task`
objects; each edge ``(tau_i, tau_j)`` is a :class:`Channel` — the input
channel of ``tau_j`` and output channel of ``tau_i``.  A channel is a
buffer with size 1 by default (an overwrite register under implicit
communication); the optimization of Section IV enlarges selected
channels into FIFOs of capacity ``n > 1``.

The class is a plain adjacency-dict DAG rather than a networkx wrapper:
the analyses need exact, explicit semantics (channel capacities, source
conventions) and the structure queries used here are simple.  Conversion
helpers to/from ``networkx`` live in :mod:`repro.gen.graphgen` where the
random generators need them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.model.task import ModelError, Task
from repro.units import Time


@dataclass(frozen=True)
class Channel:
    """A directed communication channel (one edge of the graph).

    Attributes:
        src: Producer task name.
        dst: Consumer task name.
        capacity: Buffer capacity.  ``1`` is the default overwrite
            register of the base model.  Capacities ``n > 1`` follow the
            FIFO semantics of Section IV: a reader always *peeks* the
            oldest element; a write enqueues and evicts the oldest
            element when the buffer is full.
    """

    src: str
    dst: str
    capacity: int = 1

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ModelError(
                f"channel {self.src}->{self.dst}: capacity must be >= 1, got {self.capacity}"
            )

    @property
    def key(self) -> Tuple[str, str]:
        """The ``(src, dst)`` identifier of this channel."""
        return (self.src, self.dst)


class CauseEffectGraph:
    """A directed acyclic graph of tasks with explicit channels.

    Construction is incremental (``add_task`` / ``add_channel``) or bulk
    (:meth:`from_tasks`).  Acyclicity is enforced on every edge insert;
    all structural queries (sources, sinks, predecessors, chains) are
    derived from the adjacency maps.
    """

    def __init__(self) -> None:
        self._tasks: Dict[str, Task] = {}
        self._channels: Dict[Tuple[str, str], Channel] = {}
        self._succ: Dict[str, List[str]] = {}
        self._pred: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tasks(
        cls,
        tasks: Iterable[Task],
        edges: Iterable[Tuple[str, str]] = (),
        *,
        capacities: Optional[Mapping[Tuple[str, str], int]] = None,
    ) -> "CauseEffectGraph":
        """Build a graph from a task collection and ``(src, dst)`` edges."""
        graph = cls()
        for task in tasks:
            graph.add_task(task)
        capacities = dict(capacities or {})
        for src, dst in edges:
            graph.add_channel(src, dst, capacity=capacities.get((src, dst), 1))
        return graph

    def add_task(self, task: Task) -> None:
        """Insert a task vertex; names must be unique."""
        if task.name in self._tasks:
            raise ModelError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task
        self._succ[task.name] = []
        self._pred[task.name] = []

    def add_channel(self, src: str, dst: str, *, capacity: int = 1) -> Channel:
        """Insert an edge ``src -> dst``; rejects cycles and duplicates."""
        self._require_task(src)
        self._require_task(dst)
        if src == dst:
            raise ModelError(f"self-loop on task {src!r} is not allowed")
        if (src, dst) in self._channels:
            raise ModelError(f"duplicate channel {src!r}->{dst!r}")
        if self._reaches(dst, src):
            raise ModelError(f"channel {src!r}->{dst!r} would create a cycle")
        channel = Channel(src=src, dst=dst, capacity=capacity)
        self._channels[(src, dst)] = channel
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        return channel

    def replace_task(self, task: Task) -> None:
        """Swap in a modified task object (same name, new attributes)."""
        self._require_task(task.name)
        self._tasks[task.name] = task

    def set_channel_capacity(self, src: str, dst: str, capacity: int) -> None:
        """Resize the buffer of an existing channel (Section IV design)."""
        channel = self.channel(src, dst)
        self._channels[(src, dst)] = replace(channel, capacity=capacity)

    def copy(self) -> "CauseEffectGraph":
        """Deep-enough copy: tasks and channels are immutable values."""
        clone = CauseEffectGraph()
        for task in self._tasks.values():
            clone.add_task(task)
        for channel in self._channels.values():
            clone.add_channel(channel.src, channel.dst, capacity=channel.capacity)
        return clone

    def with_offsets(self, offsets: Mapping[str, Time]) -> "CauseEffectGraph":
        """A copy whose named tasks carry the given release offsets."""
        clone = self.copy()
        for name, offset in offsets.items():
            clone.replace_task(clone.task(name).with_offset(offset))
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        self._require_task(name)
        return self._tasks[name]

    def channel(self, src: str, dst: str) -> Channel:
        """Look up the channel of edge ``src -> dst``."""
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise ModelError(f"no channel {src!r}->{dst!r}") from None

    def has_channel(self, src: str, dst: str) -> bool:
        """True when the edge ``src -> dst`` exists."""
        return (src, dst) in self._channels

    @property
    def tasks(self) -> Tuple[Task, ...]:
        """All tasks, in insertion order."""
        return tuple(self._tasks.values())

    @property
    def task_names(self) -> Tuple[str, ...]:
        """All task names, in insertion order."""
        return tuple(self._tasks)

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All channels, in insertion order."""
        return tuple(self._channels.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def successors(self, name: str) -> Tuple[str, ...]:
        """Names of the direct successors of ``name``."""
        self._require_task(name)
        return tuple(self._succ[name])

    def predecessors(self, name: str) -> Tuple[str, ...]:
        """Names of the direct predecessors of ``name``."""
        self._require_task(name)
        return tuple(self._pred[name])

    def in_degree(self, name: str) -> int:
        """Number of incoming edges of ``name``."""
        return len(self.predecessors(name))

    def out_degree(self, name: str) -> int:
        """Number of outgoing edges of ``name``."""
        return len(self.successors(name))

    def sources(self) -> Tuple[str, ...]:
        """Tasks with no incoming edges (the sensors of the application)."""
        return tuple(name for name in self._tasks if not self._pred[name])

    def sinks(self) -> Tuple[str, ...]:
        """Tasks with no outgoing edges (the actuators / final outputs)."""
        return tuple(name for name in self._tasks if not self._succ[name])

    def is_source(self, name: str) -> bool:
        """True when ``name`` has no incoming edges."""
        return self.in_degree(name) == 0

    def is_sink(self, name: str) -> bool:
        """True when ``name`` has no outgoing edges."""
        return self.out_degree(name) == 0

    def topological_order(self) -> Tuple[str, ...]:
        """Kahn topological order; stable with respect to insertion order."""
        in_deg = {name: len(self._pred[name]) for name in self._tasks}
        ready = [name for name in self._tasks if in_deg[name] == 0]
        order: List[str] = []
        cursor = 0
        while cursor < len(ready):
            name = ready[cursor]
            cursor += 1
            order.append(name)
            for succ in self._succ[name]:
                in_deg[succ] -= 1
                if in_deg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._tasks):
            raise ModelError("graph contains a cycle")  # unreachable by construction
        return tuple(order)

    def ancestors(self, name: str) -> Set[str]:
        """All tasks with a directed path to ``name`` (excluding itself)."""
        self._require_task(name)
        seen: Set[str] = set()
        stack = list(self._pred[name])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._pred[node])
        return seen

    def descendants(self, name: str) -> Set[str]:
        """All tasks reachable from ``name`` (excluding itself)."""
        self._require_task(name)
        seen: Set[str] = set()
        stack = list(self._succ[name])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succ[node])
        return seen

    def source_ancestors(self, name: str) -> Tuple[str, ...]:
        """Source tasks whose data can propagate to ``name``."""
        if self.is_source(name):
            return (name,)
        return tuple(a for a in sorted(self.ancestors(name)) if self.is_source(a))

    def paths_between(self, src: str, dst: str) -> Iterator[Tuple[str, ...]]:
        """Enumerate every directed path from ``src`` to ``dst``.

        Depth-first enumeration; path counts in cause-effect graphs of
        the sizes studied in the paper (<= 35 tasks) are small.
        """
        self._require_task(src)
        self._require_task(dst)
        path: List[str] = [src]

        def walk(node: str) -> Iterator[Tuple[str, ...]]:
            if node == dst:
                yield tuple(path)
                return
            for succ in self._succ[node]:
                path.append(succ)
                yield from walk(succ)
                path.pop()

        yield from walk(src)

    def is_weakly_connected(self) -> bool:
        """True when the underlying undirected graph is connected."""
        if not self._tasks:
            return True
        first = next(iter(self._tasks))
        seen = {first}
        stack = [first]
        while stack:
            node = stack.pop()
            for neigh in list(self._succ[node]) + list(self._pred[node]):
                if neigh not in seen:
                    seen.add(neigh)
                    stack.append(neigh)
        return len(seen) == len(self._tasks)

    def hyperperiod(self) -> Time:
        """LCM of all task periods (simulation horizon helper)."""
        from repro.units import lcm

        return lcm(*(task.period for task in self._tasks.values()))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require_task(self, name: str) -> None:
        if name not in self._tasks:
            raise ModelError(f"unknown task {name!r}")

    def _reaches(self, start: str, goal: str) -> bool:
        if start == goal:
            return True
        stack = [start]
        seen = {start}
        while stack:
            node = stack.pop()
            for succ in self._succ[node]:
                if succ == goal:
                    return True
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CauseEffectGraph(tasks={len(self._tasks)}, "
            f"channels={len(self._channels)}, sources={list(self.sources())}, "
            f"sinks={list(self.sinks())})"
        )
