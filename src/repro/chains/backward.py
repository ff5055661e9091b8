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
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis_regime import regime_of
from repro.model.chain import Chain
from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.engine import check_semantics
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


class ChainSpans:
    """One chain's backward bounds by position: any sub-chain in O(1).

    ``span(i, j)`` is ``(W, B)`` of the sub-chain ``tasks[i..j]``
    (both ends included).  Both semantics are sums of per-hop terms plus
    end terms, so prefix sums answer every sub-chain:

        W(i..j) = W[j] - W[i]
        B(i..j) = head(i) + SB[j] - SB[i] - tail(j)     (i < j)

    with ``head = B`` and ``tail = R`` under implicit communication
    (Lemma 5) and no end terms under LET.  The arrays hold
    ``hi[i] = head(i) - SB[i]`` and ``lo[j] = SB[j] - tail(j)``, so a
    span is two subtractions and an addition.  A single-task span is
    ``(0, 0)``.  ``periods`` holds the task periods, ``head_is_source``
    says whether the head is a source task (only the head of a valid
    chain can be), and :attr:`pos` maps each task to its position.
    """

    __slots__ = ("tasks", "periods", "head_is_source", "_w", "_hi", "_lo", "_pos")

    def __init__(
        self,
        tasks: Tuple[str, ...],
        periods: List[Time],
        head_is_source: bool,
        w: List[Time],
        hi: List[Time],
        lo: List[Time],
    ) -> None:
        self.tasks = tasks
        self.periods = periods
        self.head_is_source = head_is_source
        self._w = w
        self._hi = hi
        self._lo = lo
        self._pos: Optional[Dict[str, int]] = None

    @property
    def pos(self) -> Dict[str, int]:
        """Task -> position, built on the first fork-join pair."""
        if self._pos is None:
            self._pos = dict(zip(self.tasks, range(len(self.tasks))))
        return self._pos

    def span(self, i: int, j: int) -> Tuple[Time, Time]:
        """``(W, B)`` of ``tasks[i..j]``; raises if ``B > W``."""
        if i == j:
            return 0, 0
        wcbt = self._w[j] - self._w[i]
        bcbt = self._hi[i] + self._lo[j]
        if bcbt > wcbt:
            # The record's own check raises the usual diagnostic.
            BackwardBounds(chain=Chain(self.tasks[i : j + 1]), wcbt=wcbt, bcbt=bcbt)
        return wcbt, bcbt


class _StrategySpans(ChainSpans):
    """Spans of a per-chain strategy: each sub-chain is a memoized lookup."""

    __slots__ = ("_bounds",)

    def __init__(self, tasks, periods, head_is_source, bounds) -> None:
        super().__init__(tasks, periods, head_is_source, [], [], [])
        self._bounds = bounds

    def span(self, i: int, j: int) -> Tuple[Time, Time]:
        found = self._bounds(Chain(self.tasks[i : j + 1]))
        return found.wcbt, found.bcbt


class BackwardBoundsCache:
    """Memoized backward bounds, shared across the chains of one DAG.

    The disparity analysis reads ``W``/``B`` of every sub-chain of every
    decomposition of every chain pair.  Both supported communication
    models are sums of per-hop terms plus per-task end terms, so the
    cache keeps one :class:`ChainSpans` of prefix sums per chain and
    answers any sub-chain by position in ``O(1)``:

    * ``semantics="implicit"`` (the paper's non-preemptive bounds):
      a hop costs ``theta_i`` of Lemma 4 in ``W`` and ``B(consumer)``
      in ``B``; the head adds its ``B`` and the tail subtracts its
      ``R`` (Lemma 5);
    * ``semantics="let"`` (:mod:`repro.let.analysis`): a hop costs
      :func:`~repro.let.analysis.let_hop_terms` of its producer, with
      no end terms.

    Either way every hop also adds its Lemma 6 capacity shift to both
    bounds.  Each hop and task term is computed once per edge and task
    and interned.  ``W = B = 0`` for single-task chains.  The results
    match :func:`backward_bounds` and
    :func:`~repro.let.analysis.backward_bounds_let` bit for bit,
    invalid chains included (same :class:`~repro.model.task.ModelError`),
    and the implicit bounds keep their periodic-release gate.

    Passing a ``strategy`` (one function computing the bounds of one
    chain, e.g. :func:`backward_bounds`) makes the cache a per-chain
    reference instead: ``semantics`` is then ignored and every
    sub-chain is one strategy call, memoized per task tuple.  The
    tests compare the prefix sums against it; Theorems 1-3 only
    consume the per-chain ``[B, W]`` intervals plus task periodicity,
    so they run unchanged on either.
    """

    def __init__(
        self, system: System, strategy=None, *, semantics: str = "implicit"
    ) -> None:
        check_semantics(semantics)
        self._system = system
        self._strategy = strategy
        self._let = semantics == "let"
        self._cache: Dict[Tuple[str, ...], BackwardBounds] = {}
        self._spans: Dict[Tuple[str, ...], ChainSpans] = {}
        # Classified once; checked lazily so a session over a
        # non-periodic system can still simulate: only the first
        # analytical query raises.
        self._regime = regime_of(system)
        # (producer, consumer) -> (W term, B term), shift included.
        self._edges: Dict[Tuple[str, str], Tuple[Time, Time]] = {}
        # name -> (period, head term, tail term, is source).
        self._tasks: Dict[str, Tuple[Time, Time, Time, bool]] = {}

    @property
    def system(self) -> System:
        """The system the cached bounds were computed against."""
        return self._system

    def _edge(self, producer: str, consumer: str) -> Tuple[Time, Time]:
        """Interned ``(W term, B term)`` of one hop, shift included."""
        key = (producer, consumer)
        found = self._edges.get(key)
        if found is None:
            system = self._system
            channel = system.graph.channel(producer, consumer)
            shift = (channel.capacity - 1) * system.T(producer)
            if self._let:
                # Imported here: repro.let.analysis imports this module.
                from repro.let.analysis import let_hop_terms

                w_term, b_term = let_hop_terms(system, producer)
            else:
                w_term = hop_budget(system, producer, consumer)
                b_term = system.B(consumer)
            found = self._edges[key] = (w_term + shift, b_term + shift)
        return found

    def _task(self, name: str) -> Tuple[Time, Time, Time, bool]:
        """Interned ``(T, head term, tail term, is source)`` of one task."""
        found = self._tasks.get(name)
        if found is None:
            system = self._system
            head, tail = (0, 0) if self._let else (system.B(name), system.R(name))
            found = (system.T(name), head, tail, system.is_source(name))
            self._tasks[name] = found
        return found

    def spans(self, chain: Chain) -> ChainSpans:
        """Prefix sums of ``chain`` (memoized per task tuple)."""
        found = self._spans.get(chain.tasks)
        if found is None:
            found = self._spans[chain.tasks] = self._build(chain)
        return found

    def _build(self, chain: Chain) -> ChainSpans:
        system = self._system
        tasks = chain.tasks
        if self._strategy is not None:
            self.bounds(chain)  # the strategy validates the chain
            return _StrategySpans(
                tasks,
                [system.T(name) for name in tasks],
                system.is_source(tasks[0]),
                self.bounds,
            )
        if not self._let:
            # The sums inline Lemmas 4/5 without calling wcbt_upper /
            # bcbt_lower, so they repeat their periodic-release gate.
            self._regime.require_analytical("backward bounds (Lemmas 4-5)")
        task_terms, edge_terms = self._tasks, self._edges
        periods, w, hi, lo = [], [], [], []
        previous = None
        w_acc = sb_acc = 0
        try:
            for name in tasks:
                period, head, tail, _ = task_terms.get(name) or self._task(name)
                if previous is not None:
                    w_term, b_term = edge_terms.get(
                        (previous, name)
                    ) or self._edge(previous, name)
                    w_acc += w_term
                    sb_acc += b_term
                periods.append(period)
                w.append(w_acc)
                hi.append(head - sb_acc)
                lo.append(sb_acc - tail)
                previous = name
        except (KeyError, ModelError) as exc:
            # Unknown edge or task: surface the same diagnostic the
            # per-chain path produces.
            chain.validate(system.graph)
            raise ModelError(
                f"backward bounds lookup failed for {chain}: {exc}"
            ) from exc
        return ChainSpans(tasks, periods, task_terms[tasks[0]][3], w, hi, lo)

    def bounds(self, chain: Chain) -> BackwardBounds:
        """Bounds of ``chain``, computed once and memoized."""
        key = chain.tasks
        found = self._cache.get(key)
        if found is not None:
            return found
        if self._strategy is not None:
            found = self._strategy(chain, self._system)
        else:
            wcbt, bcbt = self.spans(chain).span(0, len(key) - 1)
            found = BackwardBounds(chain=chain, wcbt=wcbt, bcbt=bcbt)
        self._cache[key] = found
        return found

    def wcbt(self, chain: Chain) -> Time:
        """Memoized ``W(chain)``."""
        return self.bounds(chain).wcbt

    def bcbt(self, chain: Chain) -> Time:
        """Memoized ``B(chain)``."""
        return self.bounds(chain).bcbt

    def register(self, chains: Iterable[Chain]) -> None:
        """Pre-compute the bounds of ``chains``.

        Raises the first invalid chain's diagnostic up front, before an
        all-pairs loop (``worst_case_disparity``) starts reading spans.
        """
        for chain in chains:
            self.bounds(chain)

    def __len__(self) -> int:
        return len(self._cache)
