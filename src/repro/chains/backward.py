"""Backward-time bounds under non-preemptive fixed-priority scheduling.

The *backward time* of an immediate backward job chain
``len(pi_k) = r(pi_k^{|pi|}) - r(pi_k^1)`` measures how far in the past
the source datum of an output was released (Section II-C).  The paper
bounds it from above (Lemma 4) and below (Lemma 5):

* **Lemma 4 (WCBT upper bound).**  ``W(pi) = sum_{i=1}^{|pi|-1} theta_i``
  where the per-hop budget ``theta_i`` depends on where consecutive
  tasks run:

  - different units:        ``theta_i = T(pi^i) + R(pi^i)``
  - same unit, hp producer: ``theta_i = T(pi^i)``
  - same unit, lp producer: ``theta_i = T(pi^i) + R(pi^i) - (W(pi^i) + B(pi^{i+1}))``

  The same-unit refinements are what make this bound tighter than the
  scheduling-agnostic state of the art (see :mod:`repro.chains.duerr`).

* **Lemma 5 (BCBT lower bound).**
  ``B(pi) = sum_{i=1}^{|pi|} B(pi^i) - R(pi^{|pi|})`` — possibly
  *negative*: the source job of an immediate backward job chain can be
  released after the tail job (the tail reads data produced by a job
  that started before it but was released later... strictly, a negative
  bound simply reflects that release-time differences can invert).

Both bounds apply per chain and are the ``W``/``B`` ingredients of all
disparity theorems.

**Buffered channels (Lemma 6, generalized).**  Section IV enlarges the
input channel of a chain's second task to a FIFO of capacity ``n``; in
the long term (buffer full) a reader always peeks the oldest element,
whose timestamp trails the newest arrival by ``(n-1)`` producer
periods, so both bounds shift: ``W(pi)^n = W(pi) + (n-1) T(pi^1)`` and
``B(pi)^n = B(pi) + (n-1) T(pi^1)``.  The same argument applies to a
FIFO on *any* hop ``(pi^i, pi^{i+1})`` with shift ``(n-1) T(pi^i)``;
the functions below therefore account for every channel capacity along
the chain, with Lemma 6 as the head-channel special case.  The shifted
*lower* bound is only valid once buffers are full — the simulator's
metrics use a warm-up horizon accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.analysis_regime import regime_of
from repro.model.chain import Chain
from repro.model.system import System
from repro.model.task import ModelError
from repro.units import Time


@dataclass(frozen=True)
class BackwardBounds:
    """The ``[B(pi), W(pi)]`` interval of a chain's backward time."""

    chain: Chain
    wcbt: Time
    bcbt: Time

    def __post_init__(self) -> None:
        if self.bcbt > self.wcbt:
            raise ModelError(
                f"inconsistent backward bounds for {self.chain}: "
                f"BCBT={self.bcbt} > WCBT={self.wcbt}"
            )

    @property
    def width(self) -> Time:
        """Width of the sampling window this chain induces."""
        return self.wcbt - self.bcbt


def hop_budget(system: System, producer: str, consumer: str) -> Time:
    """``theta_i`` of Lemma 4 for one hop ``producer -> consumer``.

    The producer must actually precede the consumer in the graph; the
    caller (``wcbt_upper``) guarantees this by walking a validated
    chain.
    """
    T_p = system.T(producer)
    R_p = system.R(producer)
    if not system.same_unit(producer, consumer):
        return T_p + R_p
    if system.in_hp(producer, consumer):
        return T_p
    # Same unit, producer has lower priority than consumer.
    return T_p + R_p - (system.W(producer) + system.B(consumer))


def buffer_shift(chain: Chain, system: System) -> Time:
    """Total backward-time shift from buffered channels along the chain.

    ``sum over hops of (capacity - 1) * T(producer)`` — zero for the
    all-register base model; the head-channel case is Lemma 6.
    """
    shift = 0
    for producer, consumer in chain.edges():
        capacity = system.graph.channel(producer, consumer).capacity
        if capacity > 1:
            shift += (capacity - 1) * system.T(producer)
    return shift


def wcbt_upper(chain: Chain, system: System) -> Time:
    """Lemma 4 (+ Lemma 6 shift): upper bound ``W(pi)`` on the WCBT.

    Periodic releases only: the per-hop budget ``theta_i`` counts
    whole producer periods between reads, which release jitter and
    sporadic gaps invalidate (see :mod:`repro.analysis_regime`).
    """
    regime_of(system).require_analytical("WCBT upper bound (Lemma 4)")
    chain.validate(system.graph)
    if len(chain) == 1:
        return 0
    total = 0
    for producer, consumer in chain.edges():
        total += hop_budget(system, producer, consumer)
    return total + buffer_shift(chain, system)


def bcbt_lower(chain: Chain, system: System) -> Time:
    """Lemma 5 (+ Lemma 6 shift): lower bound ``B(pi)`` on the BCBT.

    With buffered channels the bound holds in the long term only
    (buffers full); see the module docstring.  Periodic releases only,
    as for :func:`wcbt_upper`.
    """
    regime_of(system).require_analytical("BCBT lower bound (Lemma 5)")
    chain.validate(system.graph)
    if len(chain) == 1:
        return 0
    total = sum(system.B(name) for name in chain)
    return total - system.R(chain.tail) + buffer_shift(chain, system)


def backward_bounds(chain: Chain, system: System) -> BackwardBounds:
    """Both bounds of a chain as a :class:`BackwardBounds` record."""
    return BackwardBounds(
        chain=chain,
        wcbt=wcbt_upper(chain, system),
        bcbt=bcbt_lower(chain, system),
    )


class BackwardBoundsCache:
    """Memoized backward bounds, shared across the chains of one DAG.

    The disparity analysis evaluates ``W``/``B`` for every sub-chain of
    every decomposition of every chain pair, and those sub-chains share
    almost all of their prefixes (they are paths through one DAG).
    With the default ``strategy`` (the paper's non-preemptive bounds,
    :func:`backward_bounds`) the cache runs a prefix-sharing dynamic
    program that

    * computes each per-hop ingredient exactly once per **edge**
      (``theta_i`` of Lemma 4 plus the Lemma 6 capacity shift folded
      into one interned edge weight) and once per **task** (``B`` and
      ``R``), and
    * accumulates ``W``/``B`` along a trie of chain prefixes, so a
      chain costs ``O(1)`` amortized once any chain sharing its prefix
      has been seen.

    Both lemmas are sums of per-edge/per-task terms, so the prefix
    recurrence is exact:

        W(pi[:k+1])  = W(pi[:k])  + theta(pi^k, pi^{k+1}) + shift(edge)
        SB(pi[:k+1]) = SB(pi[:k]) + B(pi^{k+1}) + shift(edge)
        B(pi)        = SB(pi) - R(pi.tail)          (len > 1)

    with ``W = B = 0`` for single-task chains, matching
    :func:`wcbt_upper` / :func:`bcbt_lower` bit for bit, invalid chains
    included (same :class:`~repro.model.task.ModelError`).

    Passing a different ``strategy`` (one function computing the bounds
    of one chain) retargets *every* disparity theorem to another
    communication/scheduling model — e.g.
    :func:`repro.let.backward_bounds_let` for Logical Execution Time —
    because Theorems 1-3 only consume the per-chain ``[B, W]``
    intervals plus task periodicity.  Such a strategy bypasses the DP
    (the recurrence is only known to be sound for the paper's additive
    bounds) and is memoized per whole chain.
    """

    def __init__(self, system: System, strategy=None) -> None:
        self._system = system
        self._strategy = strategy
        self._cache: Dict[Tuple[str, ...], BackwardBounds] = {}
        # Classified once; checked lazily in bounds() so a session over
        # a non-periodic system can still simulate — only the first
        # analytical query raises.
        self._regime = regime_of(system)
        # tasks-tuple -> (W accumulator, sum-of-B accumulator), both
        # including every capacity shift along the prefix.
        self._prefix: Dict[Tuple[str, ...], Tuple[Time, Time]] = {}
        self._edge_weight: Dict[Tuple[str, str], Tuple[Time, Time]] = {}
        self._task_b: Dict[str, Time] = {}
        self._task_r: Dict[str, Time] = {}

    @property
    def system(self) -> System:
        """The system the cached bounds were computed against."""
        return self._system

    def _edge(self, producer: str, consumer: str) -> Tuple[Time, Time]:
        """Interned ``(theta + shift, B(consumer) + shift)`` of one hop."""
        key = (producer, consumer)
        found = self._edge_weight.get(key)
        if found is None:
            system = self._system
            channel = system.graph.channel(producer, consumer)
            shift = (channel.capacity - 1) * system.T(producer)
            theta = hop_budget(system, producer, consumer)
            found = (theta + shift, self._b(consumer) + shift)
            self._edge_weight[key] = found
        return found

    def _b(self, name: str) -> Time:
        found = self._task_b.get(name)
        if found is None:
            found = self._task_b[name] = self._system.B(name)
        return found

    def _r(self, name: str) -> Time:
        found = self._task_r.get(name)
        if found is None:
            found = self._task_r[name] = self._system.R(name)
        return found

    def _accumulators(self, tasks: Tuple[str, ...]) -> Tuple[Time, Time]:
        """``(W, sum B)`` of the prefix ``tasks``, extending the trie.

        Walks back to the longest already-known prefix and extends it
        one edge at a time, memoizing every intermediate prefix (they
        are the alphas/betas of upcoming decompositions).
        """
        prefix = self._prefix
        found = prefix.get(tasks)
        if found is not None:
            return found
        # Find the longest memoized ancestor.
        known = len(tasks) - 1
        while known > 1 and tasks[:known] not in prefix:
            known -= 1
        if known <= 1:
            acc = (0, self._b(tasks[0]))
            prefix[tasks[:1]] = acc
            known = 1
        else:
            acc = prefix[tasks[:known]]
        w_acc, sb_acc = acc
        for index in range(known, len(tasks)):
            w_edge, b_edge = self._edge(tasks[index - 1], tasks[index])
            w_acc += w_edge
            sb_acc += b_edge
            prefix[tasks[: index + 1]] = (w_acc, sb_acc)
        return (w_acc, sb_acc)

    def bounds(self, chain: Chain) -> BackwardBounds:
        """Bounds of ``chain``, computed once and memoized."""
        key = chain.tasks
        found = self._cache.get(key)
        if found is not None:
            return found
        if self._strategy is not None:
            found = self._strategy(chain, self._system)
        else:
            # The DP inlines Lemmas 4/5 without calling wcbt_upper /
            # bcbt_lower, so it must repeat their periodic-release gate
            # and their chain validation.
            self._regime.require_analytical("backward bounds (Lemmas 4-5)")
            if len(key) == 1:
                chain.validate(self._system.graph)
                found = BackwardBounds(chain=chain, wcbt=0, bcbt=0)
            else:
                try:
                    w_acc, sb_acc = self._accumulators(key)
                except (KeyError, ModelError) as exc:
                    # Unknown edge or task: surface the same diagnostic
                    # the per-chain path produces.
                    chain.validate(self._system.graph)
                    raise ModelError(
                        f"backward bounds lookup failed for {chain}: {exc}"
                    ) from exc
                found = BackwardBounds(
                    chain=chain, wcbt=w_acc, bcbt=sb_acc - self._r(key[-1])
                )
        self._cache[key] = found
        return found

    def wcbt(self, chain: Chain) -> Time:
        """Memoized ``W(chain)``."""
        return self.bounds(chain).wcbt

    def bcbt(self, chain: Chain) -> Time:
        """Memoized ``B(chain)``."""
        return self.bounds(chain).bcbt

    def register(self, chains: Iterable[Chain]) -> None:
        """Pre-compute the bounds of ``chains`` (and their prefixes).

        A no-op beyond warming the memo: callers that are about to
        evaluate an all-pairs loop (``worst_case_disparity``) register
        the enumerated chains up front so the loop itself only performs
        dictionary hits.
        """
        for chain in chains:
            self.bounds(chain)

    def __len__(self) -> int:
        return len(self._cache)
