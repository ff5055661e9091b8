"""Disparity diagnosis: explain *why* a bound is what it is.

A bound that merely says "431 ms" doesn't tell a designer what to fix.
:func:`explain_disparity` decomposes the task-level worst case into its
mechanics:

* the binding pair of chains and their sampling windows;
* the per-hop Lemma 4 budgets of both chains, largest first — the hops
  worth re-mapping, re-prioritizing, or speeding up;
* the effect each available lever would have: the Theorem 1 vs
  Theorem 2 gap (structure), the Algorithm 1 shift (buffering), and
  the window *widths* (the irreducible part — no buffer can shrink a
  window, only move it).

The report renders as plain text (:func:`render_explanation`) for CLI
and notebook use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.buffers.sizing import BufferDesign, design_buffer_pair
from repro.chains.backward import BackwardBoundsCache, hop_budget
from repro.core.disparity import worst_case_disparity
from repro.core.pairwise import PairwiseResult, disparity_bound_independent
from repro.model.chain import Chain
from repro.model.system import System
from repro.units import Time, format_time


@dataclass(frozen=True)
class HopContribution:
    """One hop's Lemma 4 budget within a chain."""

    producer: str
    consumer: str
    budget: Time
    same_unit: bool
    producer_is_hp: bool


@dataclass(frozen=True)
class DisparityExplanation:
    """Structured account of a task's worst-case disparity bound."""

    task: str
    bound: Time
    p_diff_bound: Time
    binding_pair: Optional[PairwiseResult]
    hops_lam: Tuple[HopContribution, ...]
    hops_nu: Tuple[HopContribution, ...]
    buffer_design: Optional[BufferDesign]
    window_width_lam: Optional[Time]
    window_width_nu: Optional[Time]

    @property
    def structural_gain(self) -> Time:
        """How much Theorem 2 saved over Theorem 1 on the binding pair."""
        return self.p_diff_bound - self.bound

    @property
    def buffering_gain(self) -> Time:
        """How much Algorithm 1 would further save (its shift ``L``)."""
        if self.buffer_design is None:
            return 0
        return self.buffer_design.shift


def _hop_contributions(chain: Chain, system: System) -> Tuple[HopContribution, ...]:
    hops = []
    for producer, consumer in chain.edges():
        hops.append(
            HopContribution(
                producer=producer,
                consumer=consumer,
                budget=hop_budget(system, producer, consumer),
                same_unit=system.same_unit(producer, consumer),
                producer_is_hp=system.same_unit(producer, consumer)
                and system.in_hp(producer, consumer),
            )
        )
    return tuple(sorted(hops, key=lambda h: -h.budget))


def explain_disparity(
    system: System,
    task: str,
    *,
    truncate_suffix: bool = True,
) -> DisparityExplanation:
    """Build the full diagnosis for ``task``'s S-diff bound."""
    cache = BackwardBoundsCache(system)
    result = worst_case_disparity(
        system, task, method="forkjoin", truncate_suffix=truncate_suffix,
        cache=cache,
    )
    binding = result.worst_pair
    if binding is None:
        return DisparityExplanation(
            task=task,
            bound=0,
            p_diff_bound=0,
            binding_pair=None,
            hops_lam=(),
            hops_nu=(),
            buffer_design=None,
            window_width_lam=None,
            window_width_nu=None,
        )
    p_result = disparity_bound_independent(binding.lam, binding.nu, cache)
    design = design_buffer_pair(
        binding.lam, binding.nu, cache, truncate_suffix=truncate_suffix
    )
    return DisparityExplanation(
        task=task,
        bound=result.bound,
        p_diff_bound=p_result.bound,
        binding_pair=binding,
        hops_lam=_hop_contributions(binding.lam, system),
        hops_nu=_hop_contributions(binding.nu, system),
        buffer_design=design,
        window_width_lam=(
            binding.window_lam.width if binding.window_lam is not None else None
        ),
        window_width_nu=(
            binding.window_nu.width if binding.window_nu is not None else None
        ),
    )


def render_explanation(explanation: DisparityExplanation, *, top_hops: int = 4) -> str:
    """Plain-text rendering of a diagnosis."""
    lines: List[str] = []
    lines.append(
        f"worst-case time disparity of {explanation.task!r}: "
        f"{format_time(explanation.bound)} (S-diff)"
    )
    if explanation.binding_pair is None:
        lines.append("  single-chain task: no disparity to explain")
        return "\n".join(lines)
    binding = explanation.binding_pair
    lines.append(f"  binding pair (analyzed at {binding.analyzed_task!r}):")
    lines.append(f"    lam: {' -> '.join(binding.lam.tasks)}")
    lines.append(f"    nu:  {' -> '.join(binding.nu.tasks)}")
    lines.append(
        f"  Theorem 1 would give {format_time(explanation.p_diff_bound)} "
        f"(structure saves {format_time(explanation.structural_gain)})"
    )
    if explanation.window_width_lam is not None:
        lines.append(
            f"  sampling window widths: lam "
            f"{format_time(explanation.window_width_lam)}, nu "
            f"{format_time(explanation.window_width_nu)} "
            f"(irreducible by buffering)"
        )
    for label, hops in (("lam", explanation.hops_lam), ("nu", explanation.hops_nu)):
        lines.append(f"  largest hop budgets on {label}:")
        for hop in hops[:top_hops]:
            kind = (
                "same unit, hp"
                if hop.producer_is_hp
                else ("same unit, lp" if hop.same_unit else "cross unit")
            )
            lines.append(
                f"    {hop.producer} -> {hop.consumer}: "
                f"{format_time(hop.budget)} ({kind})"
            )
    design = explanation.buffer_design
    if design is not None and design.channel is not None:
        lines.append(
            f"  Algorithm 1: buffer {design.channel[0]} -> {design.channel[1]} "
            f"at capacity {design.capacity} to save {format_time(design.shift)}"
        )
    else:
        lines.append("  Algorithm 1: windows already aligned; no buffer gain")
    return "\n".join(lines)
