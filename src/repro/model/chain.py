"""Cause-effect chains (paths in the graph) and their decomposition.

A *chain* ``pi = (pi^1, ..., pi^{|pi|})`` is a directed path in the
cause-effect graph (Section II-A).  This module provides:

* :class:`Chain` — an immutable validated path with convenience slicing;
* :func:`enumerate_source_chains` — the set ``P`` of Definition 2's
  analysis: every chain starting at a source task and ending at the
  analyzed task;
* :func:`common_tasks` and :func:`decompose_pair` — the fork-join
  decomposition used by Theorem 2: split two chains sharing common tasks
  ``o_1 .. o_c`` into sub-chain pairs ``(alpha_i, beta_i)``;
* :func:`truncate_common_suffix` — drop the shared suffix of two chains
  (the backward job chain on a shared suffix is unique, so the disparity
  at the original analyzed task equals the disparity at the last
  divergence point; this realizes the paper's remark "consider the last
  joint task of them as the analyzed task").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.model.graph import CauseEffectGraph
from repro.model.task import ModelError, Task


@dataclass(frozen=True)
class Chain:
    """An immutable cause-effect chain (sequence of task names)."""

    tasks: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tasks) < 1:
            raise ModelError("a chain must contain at least one task")
        if len(set(self.tasks)) != len(self.tasks):
            raise ModelError(f"chain repeats a task: {self.tasks}")

    @classmethod
    def of(cls, *tasks: str) -> "Chain":
        """Build a chain from task names: ``Chain.of("a", "b")``."""
        return cls(tuple(tasks))

    @property
    def head(self) -> str:
        """The first task of the chain (``pi^1``)."""
        return self.tasks[0]

    @property
    def tail(self) -> str:
        """The last task of the chain (``pi^{|pi|}``)."""
        return self.tasks[-1]

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> str:
        return self.tasks[index]

    def index(self, name: str) -> int:
        """Position of ``name`` within the chain (0-based)."""
        return self.tasks.index(name)

    def sub(self, start: int, stop: int) -> "Chain":
        """Sub-chain ``tasks[start:stop]`` (stop exclusive)."""
        if stop - start < 1:
            raise ModelError(f"empty sub-chain [{start}:{stop}] of {self.tasks}")
        return Chain(self.tasks[start:stop])

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        """Consecutive ``(pi^i, pi^{i+1})`` pairs."""
        return tuple(zip(self.tasks, self.tasks[1:]))

    def validate(self, graph: CauseEffectGraph) -> None:
        """Check that ``graph`` has every task and every consecutive edge."""
        for name in self.tasks:
            if name not in graph:
                raise ModelError(f"chain {self.tasks} uses unknown task {name!r}")
        for src, dst in self.edges():
            if not graph.has_channel(src, dst):
                raise ModelError(
                    f"chain {self.tasks} uses non-existent channel {src!r}->{dst!r}"
                )

    def resolve(self, graph: CauseEffectGraph) -> Tuple[Task, ...]:
        """Task objects along the chain, after validation."""
        self.validate(graph)
        return tuple(graph.task(name) for name in self.tasks)

    def __repr__(self) -> str:
        return "Chain(" + " -> ".join(self.tasks) + ")"


def enumerate_source_chains(graph: CauseEffectGraph, task: str) -> Tuple[Chain, ...]:
    """The set ``P``: all chains from any source task to ``task``.

    If ``task`` is itself a source, the singleton chain ``(task,)`` is
    returned — such a task trivially has zero disparity.
    """
    if graph.is_source(task):
        return (Chain((task,)),)
    chains: List[Chain] = []
    for source in graph.source_ancestors(task):
        for path in graph.paths_between(source, task):
            chains.append(Chain(path))
    return tuple(chains)


def enumerate_all_chains(graph: CauseEffectGraph) -> Tuple[Chain, ...]:
    """All source-to-sink chains of the graph (used by reports/tests)."""
    chains: List[Chain] = []
    for source in graph.sources():
        for sink in graph.sinks():
            for path in graph.paths_between(source, sink):
                chains.append(Chain(path))
    return tuple(chains)


def common_tasks(
    lam: Chain, nu: Chain, graph: CauseEffectGraph, *, include_sources: bool = False
) -> Tuple[str, ...]:
    """Common tasks of two chains, in chain order — ``{o_1, ..., o_c}``.

    Theorem 2 excludes the *source* tasks from the common-task list (a
    shared source head is handled separately by the period-flooring
    case), hence ``include_sources=False`` by default.

    Raises :class:`ModelError` when the common tasks appear in different
    relative orders in the two chains — impossible for paths of a DAG,
    so hitting it signals a malformed input.
    """
    shared = set(lam.tasks) & set(nu.tasks)
    if not include_sources:
        shared = {name for name in shared if not graph.is_source(name)}
    in_lam = [name for name in lam.tasks if name in shared]
    in_nu = [name for name in nu.tasks if name in shared]
    if in_lam != in_nu:
        raise ModelError(
            f"common tasks of {lam} and {nu} disagree in order: {in_lam} vs {in_nu}"
        )
    return tuple(in_lam)


@dataclass(frozen=True)
class PairDecomposition:
    """Fork-join decomposition of a chain pair at common tasks.

    ``alphas[i]`` / ``betas[i]`` are the sub-chains of ``lam`` / ``nu``
    ending at common task ``joints[i]`` (``o_{i+1}`` in paper indexing,
    which is 1-based).  For ``i >= 1`` both sub-chains start at
    ``joints[i-1]``; ``alphas[0]`` / ``betas[0]`` start at the chain
    heads.
    """

    lam: Chain
    nu: Chain
    joints: Tuple[str, ...]
    alphas: Tuple[Chain, ...]
    betas: Tuple[Chain, ...]

    @property
    def c(self) -> int:
        """Number of common tasks (paper's ``c``)."""
        return len(self.joints)


def decompose_pair(lam: Chain, nu: Chain, graph: CauseEffectGraph) -> PairDecomposition:
    """Split ``lam`` and ``nu`` at their common non-source tasks.

    Both chains must end at the same (analyzed) task; it is always the
    last joint ``o_c``.  Each ``(alpha_i, beta_i)`` pair forms a
    fork-join sub-graph between consecutive joints.
    """
    if lam.tail != nu.tail:
        raise ModelError(
            f"chains must end at the same task: {lam.tail!r} vs {nu.tail!r}"
        )
    joints = common_tasks(lam, nu, graph)
    if not joints or joints[-1] != lam.tail:
        # The tail is common by construction; it is excluded only if it
        # is a source task, i.e. both chains are the singleton source.
        raise ModelError(
            f"chains {lam} and {nu} have no common non-source task at the tail"
        )
    alphas: List[Chain] = []
    betas: List[Chain] = []
    prev_lam = 0
    prev_nu = 0
    for joint in joints:
        i_lam = lam.index(joint)
        i_nu = nu.index(joint)
        alphas.append(lam.sub(prev_lam, i_lam + 1))
        betas.append(nu.sub(prev_nu, i_nu + 1))
        prev_lam = i_lam
        prev_nu = i_nu
    return PairDecomposition(
        lam=lam, nu=nu, joints=joints, alphas=tuple(alphas), betas=tuple(betas)
    )


def truncate_common_suffix(lam: Chain, nu: Chain) -> Tuple[Chain, Chain, str]:
    """Drop the maximal shared suffix of two chains ending at one task.

    Returns the truncated pair plus the new analyzed task (the first
    task of the shared suffix).  The immediate backward job chain along
    a shared suffix is unique, so every job of the original analyzed
    task traces to a single job of the divergence task; disparity is
    preserved exactly.

    When the chains are identical the result degenerates to two
    single-task chains at the head.
    """
    if lam.tail != nu.tail:
        raise ModelError(
            f"chains must end at the same task: {lam.tail!r} vs {nu.tail!r}"
        )
    k = 0
    max_k = min(len(lam), len(nu))
    while k < max_k and lam.tasks[-1 - k] == nu.tasks[-1 - k]:
        k += 1
    # k >= 1 always (shared tail).  Keep the first task of the shared
    # suffix as the new analyzed tail.
    cut_lam = lam.sub(0, len(lam) - k + 1)
    cut_nu = nu.sub(0, len(nu) - k + 1)
    return cut_lam, cut_nu, cut_lam.tail
