"""Algorithm 1 and Theorem 3: buffer sizing to cut down time disparity.

Theorem 2 shows that a task's disparity with respect to two chains is
largely the relative offset between the *sampling windows* of its two
sources.  Algorithm 1 shifts the later window left by enlarging the
FIFO on the input channel of the corresponding chain's second task:
a buffer of capacity ``m + 1`` delays the consumed data by
``m T(source)`` (Lemma 6), moving that chain's window left by the same
amount.  The capacity is chosen so the two window *midpoints* come as
close as possible:

    m = floor((M_later - M_earlier) / T(source));  L = m * T(source)

and Theorem 3 certifies the improved bound: the Theorem 2 bound minus
``L`` (with the same shared-source flooring rule).

The two-chain algorithm is the paper's; :func:`design_buffers_multi`
extends it heuristically to tasks fed by more than two chains by
aligning every chain's Lemma-1 window midpoint to the leftmost one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.chains.backward import BackwardBoundsCache
from repro.core.pairwise import PairwiseResult, disparity_bound_forkjoin
from repro.model.chain import Chain
from repro.model.system import System
from repro.model.task import ModelError
from repro.units import Time, floor_div


@dataclass(frozen=True)
class BufferDesign:
    """Output of Algorithm 1 for one pair of chains.

    Attributes:
        channel: The ``(source, second-task)`` edge whose capacity is
            enlarged; ``None`` when no shift helps (``L = 0`` and every
            capacity stays 1).
        capacity: The designed capacity of that channel.
        shift: ``L`` — the certified left-shift of the later window,
            a multiple of the shifted chain's source period.
        shifted_chain: Which input chain (``"lam"`` or ``"nu"``) was
            shifted; ``None`` when ``L = 0`` produced no change.
    """

    channel: Optional[Tuple[str, str]]
    capacity: int
    shift: Time
    shifted_chain: Optional[str]

    @property
    def plan(self) -> Dict[Tuple[str, str], int]:
        """Channel-capacity plan consumable by ``System.with_buffer_plan``."""
        if self.channel is None or self.capacity == 1:
            return {}
        return {self.channel: self.capacity}


def design_buffer_pair(
    lam: Chain,
    nu: Chain,
    cache: BackwardBoundsCache,
    *,
    truncate_suffix: bool = True,
) -> BufferDesign:
    """Algorithm 1: choose a head-channel capacity for one chain pair.

    Lines 2–3 compute the Theorem 2 offset intervals, lines 4–6 the two
    sampling windows relative to the ``o_1`` job of ``lam``, and lines
    7–12 shift the window with the larger midpoint left by the largest
    multiple of its source period not exceeding the midpoint gap.
    """
    return _design_from(
        disparity_bound_forkjoin(lam, nu, cache, truncate_suffix=truncate_suffix),
        cache.system,
    )


def _design_from(evidence: PairwiseResult, system: System) -> BufferDesign:
    """Lines 7–12 of Algorithm 1 on a Theorem 2 result's windows."""
    decomposition = evidence.decomposition
    if decomposition is None:
        # Identical chains: nothing to align.
        return BufferDesign(channel=None, capacity=1, shift=0, shifted_chain=None)
    work_lam, work_nu = decomposition.lam, decomposition.nu
    window_lam, window_nu = evidence.window_lam, evidence.window_nu

    # Compare midpoints exactly: M = (A + B) / 2, so compare A + B.
    m_lam_x2 = window_lam.midpoint_x2
    m_nu_x2 = window_nu.midpoint_x2
    if m_lam_x2 >= m_nu_x2:
        shifted_name = "lam"
        shifted = work_lam
        gap_x2 = m_lam_x2 - m_nu_x2
    else:
        shifted_name = "nu"
        shifted = work_nu
        gap_x2 = m_nu_x2 - m_lam_x2

    period = system.T(shifted.head)
    m = floor_div(gap_x2, 2 * period)  # floor((M_hi - M_lo) / T)
    if m == 0 or len(shifted) < 2:
        return BufferDesign(channel=None, capacity=1, shift=0, shifted_chain=None)
    return BufferDesign(
        channel=(shifted.head, shifted[1]),
        capacity=m + 1,
        shift=m * period,
        shifted_chain=shifted_name,
    )


def disparity_bound_buffered(
    lam: Chain,
    nu: Chain,
    cache: BackwardBoundsCache,
    *,
    truncate_suffix: bool = True,
) -> Tuple[PairwiseResult, BufferDesign]:
    """Theorem 3: the Theorem 2 bound improved by Algorithm 1's shift.

    Returns the buffered pairwise result (method ``"S-diff-B"``)
    together with the design that realizes it.  The inputs must be
    chains of a *base* system (all capacities 1); apply the returned
    design's plan to obtain the deployed system the bound describes.
    """
    base = disparity_bound_forkjoin(lam, nu, cache, truncate_suffix=truncate_suffix)
    design = _design_from(base, cache.system)
    bound = base.bound - design.shift
    if bound < 0:
        raise ModelError(
            f"Theorem 3 produced a negative bound ({bound}) for pair "
            f"{lam} / {nu}; this indicates an inconsistency"
        )
    result = PairwiseResult(
        lam=lam,
        nu=nu,
        bound=bound,
        method="S-diff-B",
        analyzed_task=base.analyzed_task,
        shared_source=base.shared_source,
        decomposition=base.decomposition,
        offsets=base.offsets,
        window_lam=base.window_lam,
        window_nu=base.window_nu,
    )
    return result, design


@dataclass(frozen=True)
class MultiChainDesign:
    """Result of a multi-chain buffer design heuristic.

    ``observed_before`` / ``observed_after`` are the max observed
    disparities of the undesigned and designed systems over paired
    batched replications (same seeds and offset draws);
    ``None`` unless requested via ``observed_sims``.
    """

    task: str
    plan: Dict[Tuple[str, str], int]
    bound_before: Time
    bound_after: Time
    observed_before: Optional[Time] = None
    observed_after: Optional[Time] = None


def design_buffers_greedy(
    system: System,
    task: str,
    *,
    max_iterations: int = 8,
    method: str = "forkjoin",
    observed_sims: int = 0,
    observed_duration: Optional[Time] = None,
    observed_warmup: Time = 0,
    observed_seed: int = 0,
) -> MultiChainDesign:
    """Iterative pairwise buffer design: fix the binding pair, repeat.

    Each round runs the task-level analysis, applies Algorithm 1 to the
    *binding* pair (the pair attaining the maximum), and keeps the new
    capacities only if the re-analyzed task bound improves — other
    pairs sharing the buffered channel shift too, so re-analysis is the
    arbiter.  Monotone by construction; terminates when a round stops
    helping or after ``max_iterations``.

    Compared to :func:`design_buffers_multi` (one-shot window
    alignment), the greedy loop handles interacting chains better at
    the cost of one full analysis per round.  With ``observed_sims >
    0`` the final plan is additionally measured by paired batched
    replications against the undesigned system (see
    :func:`repro.sim.batch.observed_pair`).
    """
    from repro.core.disparity import worst_case_disparity
    from repro.sim.batch import observed_pair

    if max_iterations < 1:
        raise ModelError(f"max_iterations must be >= 1, got {max_iterations}")
    current = system
    plan: Dict[Tuple[str, str], int] = {}
    bound_before = worst_case_disparity(system, task, method=method).bound
    best = bound_before

    for _iteration in range(max_iterations):
        cache = BackwardBoundsCache(current)
        result = worst_case_disparity(current, task, method=method, cache=cache)
        if result.worst_pair is None:
            break
        design = design_buffer_pair(
            result.worst_pair.lam, result.worst_pair.nu, cache
        )
        if design.channel is None:
            break
        # Compose with any capacity this channel already received.
        existing = plan.get(design.channel, 1)
        candidate_plan = dict(plan)
        candidate_plan[design.channel] = existing + design.capacity - 1
        candidate = system.with_buffer_plan(candidate_plan)
        candidate_bound = worst_case_disparity(
            candidate, task, method=method
        ).bound
        if candidate_bound >= best:
            break
        plan, current, best = candidate_plan, candidate, candidate_bound
    observed_before = observed_after = None
    if observed_sims > 0:
        observed_before, observed_after = observed_pair(
            system,
            system.with_buffer_plan(plan),
            task,
            sims=observed_sims,
            duration=observed_duration,
            warmup=observed_warmup,
            seed=observed_seed,
        )
    return MultiChainDesign(
        task=task,
        plan=plan,
        bound_before=bound_before,
        bound_after=best,
        observed_before=observed_before,
        observed_after=observed_after,
    )


def design_buffers_multi(
    system: System,
    task: str,
    *,
    method: str = "forkjoin",
) -> MultiChainDesign:
    """Align the sampling windows of *every* chain into ``task``.

    Extension beyond the paper (which designs for two chains): compute
    each chain's Lemma-1 window ``[-W(pi), -B(pi)]`` relative to the
    analyzed job, find the leftmost midpoint, and enlarge each other
    chain's head channel so its midpoint moves as close as possible.
    Chains sharing a head channel are shifted together using the
    smallest requested capacity (a larger one would over-shift the
    other chain, and any common capacity shifts all of them safely —
    the resulting system is re-analyzed from scratch for the certified
    bound).
    """
    from repro.api import AnalysisSession

    return _design_buffers_multi(AnalysisSession(system), task, method)


def _design_buffers_multi(session, task: str, method: str) -> MultiChainDesign:
    """:func:`design_buffers_multi` on a session's bounds and semantics."""
    cache = session.cache
    chains = session.chains(task)
    bound_before = session.disparity(task, method=method)
    if len(chains) < 2:
        return MultiChainDesign(task=task, plan={}, bound_before=bound_before,
                                bound_after=bound_before)

    windows = {
        chain: (-cache.wcbt(chain), -cache.bcbt(chain)) for chain in chains
    }
    # Leftmost midpoint is the alignment target.
    target_x2 = min(lo + hi for lo, hi in windows.values())

    requested: Dict[Tuple[str, str], int] = {}
    for chain, (lo, hi) in windows.items():
        if len(chain) < 2:
            continue
        gap_x2 = (lo + hi) - target_x2
        period = session.system.T(chain.head)
        m = floor_div(gap_x2, 2 * period)
        if m <= 0:
            continue
        key = (chain.head, chain[1])
        capacity = m + 1
        if key in requested:
            requested[key] = min(requested[key], capacity)
        else:
            requested[key] = capacity

    if not requested:
        return MultiChainDesign(task=task, plan={}, bound_before=bound_before,
                                bound_after=bound_before)
    bound_after = session.with_buffer_plan(requested).disparity(task, method=method)
    if bound_after >= bound_before:
        # The heuristic did not help (possible with interacting chains);
        # keep the base design.
        return MultiChainDesign(task=task, plan={}, bound_before=bound_before,
                                bound_after=bound_before)
    return MultiChainDesign(
        task=task, plan=requested, bound_before=bound_before, bound_after=bound_after
    )
