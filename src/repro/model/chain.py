"""Cause-effect chains (paths in the graph) and their decomposition.

A *chain* ``pi = (pi^1, ..., pi^{|pi|})`` is a directed path in the
cause-effect graph (Section II-A).  This module provides:

* :class:`Chain` — an immutable validated path with convenience slicing;
* :func:`enumerate_source_chains` — the set ``P`` of Definition 2's
  analysis: every chain starting at a source task and ending at the
  analyzed task;
* :func:`joint_positions`, :func:`common_tasks` and
  :func:`decompose_pair` — the fork-join decomposition used by
  Theorem 2: split two chains sharing common tasks ``o_1 .. o_c`` into
  sub-chain pairs ``(alpha_i, beta_i)``.  The Theorem 2 pair loop of
  :mod:`repro.core.pairwise` finds its joints with the same
  :func:`joint_positions` and builds its evidence with
  :func:`decompose_at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

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


def check_same_tail(lam: Tuple[str, ...], nu: Tuple[str, ...]) -> None:
    """Raise unless two chains (as task tuples) end at the same task."""
    if lam[-1] != nu[-1]:
        raise ModelError(
            f"chains must end at the same task: {lam[-1]!r} vs {nu[-1]!r}"
        )


def joint_positions(
    lam: Tuple[str, ...],
    nu: Tuple[str, ...],
    nu_pos: Mapping[str, int],
    first: int = 0,
) -> List[Tuple[int, int]]:
    """Positions ``(i, j)`` of the tasks ``lam[first:]`` shares with ``nu``.

    In chain order; ``nu_pos`` maps each task of ``nu`` to its position
    and may cover a longer chain that ``nu`` is a prefix of (positions
    past ``len(nu)`` are ignored).  Raises :class:`ModelError` when the
    common tasks appear in different relative orders in the two chains
    — impossible for paths of a DAG, so hitting it signals a malformed
    input.
    """
    n_nu = len(nu)
    joints: List[Tuple[int, int]] = []
    last = -1
    ordered = True
    for i in range(first, len(lam)):
        j = nu_pos.get(lam[i])
        if j is not None and j < n_nu:
            ordered = ordered and j > last
            joints.append((i, j))
            last = j
    if not ordered:
        in_lam = [lam[i] for i, _ in joints]
        in_nu = [nu[j] for _, j in sorted(joints, key=lambda ij: ij[1])]
        raise ModelError(
            f"common tasks of {Chain(lam)} and {Chain(nu)} disagree in order: "
            f"{in_lam} vs {in_nu}"
        )
    return joints


def _positions(chain: Chain) -> Dict[str, int]:
    return dict(zip(chain.tasks, range(len(chain))))


def common_tasks(
    lam: Chain, nu: Chain, graph: CauseEffectGraph, *, include_sources: bool = False
) -> Tuple[str, ...]:
    """Common tasks of two chains, in chain order — ``{o_1, ..., o_c}``.

    Theorem 2 excludes the *source* tasks from the common-task list (a
    shared source head is handled separately by the period-flooring
    case), hence ``include_sources=False`` by default.  Only the head
    of a chain can be a source.

    Raises :class:`ModelError` when the common tasks appear in different
    relative orders in the two chains (see :func:`joint_positions`).
    """
    first = 0 if include_sources or not graph.is_source(lam.head) else 1
    joints = joint_positions(lam.tasks, nu.tasks, _positions(nu), first)
    return tuple(lam.tasks[i] for i, _ in joints)


def tail_joint_error(lam: Chain, nu: Chain) -> ModelError:
    """The diagnostic for a pair whose tail is not a common non-source task."""
    return ModelError(
        f"chains {lam} and {nu} have no common non-source task at the tail"
    )


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


def decompose_at(
    lam: Chain, nu: Chain, joints: Sequence[Tuple[int, int]]
) -> PairDecomposition:
    """The decomposition of ``lam`` and ``nu`` at joint positions ``(i, j)``.

    ``joints`` comes from :func:`joint_positions` and ends at both tails.
    """
    alphas: List[Chain] = []
    betas: List[Chain] = []
    prev_lam = prev_nu = 0
    for i, j in joints:
        alphas.append(lam.sub(prev_lam, i + 1))
        betas.append(nu.sub(prev_nu, j + 1))
        prev_lam, prev_nu = i, j
    return PairDecomposition(
        lam=lam,
        nu=nu,
        joints=tuple(lam.tasks[i] for i, _ in joints),
        alphas=tuple(alphas),
        betas=tuple(betas),
    )


def decompose_pair(lam: Chain, nu: Chain, graph: CauseEffectGraph) -> PairDecomposition:
    """Split ``lam`` and ``nu`` at their common non-source tasks.

    Both chains must end at the same (analyzed) task; it is always the
    last joint ``o_c``.  Each ``(alpha_i, beta_i)`` pair forms a
    fork-join sub-graph between consecutive joints.
    """
    check_same_tail(lam.tasks, nu.tasks)
    first = 1 if graph.is_source(lam.head) else 0
    joints = joint_positions(lam.tasks, nu.tasks, _positions(nu), first)
    if not joints or joints[-1][0] != len(lam) - 1:
        # The tail is common by construction; it is excluded only if it
        # is a source task, i.e. both chains are the singleton source.
        raise tail_joint_error(lam, nu)
    return decompose_at(lam, nu, joints)
