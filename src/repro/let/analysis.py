"""Backward-time bounds under Logical Execution Time (extension).

Under the LET paradigm (Kirsch & Sokolova; used by the age-latency
analysis of Kordon & Tang that the paper cites as [4]/[15]), a job
reads its inputs at its *release* and its output becomes visible at its
*deadline* (= the next release for implicit-deadline periodic tasks),
regardless of when the job actually executes inside that window.  This
decouples the data-flow timing from the scheduler entirely:

* a consumer job released at ``r`` reads the newest producer token
  *published* no later than ``r``; the producing job was released at
  the largest ``r_p`` with ``r_p + T_p <= r``, so the per-hop release
  distance lies in ``[T_p, 2 T_p)`` **exactly** — no response times,
  no execution-time jitter;
* summing over the hops:

      B_LET(pi) = sum_i T(pi^i)            (hops, i = 1..|pi|-1)
      W_LET(pi) = sum_i 2 T(pi^i)          (safe; each hop < 2 T_i)

Source tasks keep the paper's convention (they publish at release, so
the source hop contributes ``[0, T_source)`` — we charge the full
``T``-per-hop/2T-per-hop budget for uniformity and safety; the
source-specific refinement is applied below).

Because Theorems 1-3 consume only per-chain ``[B, W]`` intervals plus
task periodicity, the entire disparity machinery retargets to LET by
swapping the per-hop terms: a ``semantics="let"``
:class:`~repro.api.AnalysisSession` sums :func:`let_hop_terms` in its
bounds cache's prefix sums, which equal :func:`backward_bounds_let`
on every chain (see :func:`disparity_bound_let`).

Buffered channels compose exactly as under implicit communication:
a capacity-``n`` FIFO delays the consumed token by ``(n-1)`` producer
periods in the long term.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis_regime import max_release_gap
from repro.chains.backward import BackwardBounds, buffer_shift
from repro.model.chain import Chain
from repro.model.system import System
from repro.units import Time


def let_hop_terms(system: System, producer: str) -> Tuple[Time, Time]:
    """``(W, B)`` terms of one LET hop out of ``producer``, before shifts.

    ``W`` costs the producer's maximum release gap ``gap_max`` for a
    source (it publishes at release) and ``T + gap_max`` otherwise (it
    publishes one period after release).  ``B`` costs ``T`` for a
    non-source producer and nothing for a source.  Both chain bounds
    below and the prefix sums of a ``semantics="let"``
    :class:`~repro.chains.backward.BackwardBoundsCache` add these up.
    """
    gap_max = max_release_gap(system.graph.task(producer))
    if system.is_source(producer):
        return gap_max, 0
    # Publish happens one nominal period after release, and the
    # producing release trails the consumer's read by less than one
    # maximal inter-release gap on top of that.
    period = system.T(producer)
    return period + gap_max, period


def wcbt_upper_let(chain: Chain, system: System) -> Time:
    """Safe WCBT bound under LET: ``2 T`` per hop (``T`` for sources).

    A source task publishes at its release (a sensor stamps and emits
    immediately), so the head hop's release distance is in
    ``[0, T_source)`` and costs at most ``T_source``; every other hop
    publishes one period after release and costs below ``2 T``.

    These bounds **survive non-periodic releases** with each hop's
    inter-release term widened to the producer's *maximum* release gap
    (:func:`~repro.analysis_regime.max_release_gap`: ``T + J`` under
    bounded jitter, ``max_gap`` for sporadic tasks).  The argument only
    uses how far apart consecutive producer publications can be — the
    consumer reads the newest token published no later than its
    release, whose producer released at most ``gap_max`` before the
    previous publication boundary — so no periodicity is needed.  For
    strictly periodic tasks this reduces to the ``T`` / ``2 T`` budgets
    above exactly.
    """
    chain.validate(system.graph)
    if len(chain) == 1:
        return 0
    total = 0
    for producer, _consumer in chain.edges():
        total += let_hop_terms(system, producer)[0]
    return total + buffer_shift(chain, system)


def bcbt_lower_let(chain: Chain, system: System) -> Time:
    """Exact BCBT lower bound under LET: ``T`` per non-source hop.

    A non-source producer's token only becomes visible one full period
    after its release, so each such hop contributes at least ``T_p``;
    the source hop can contribute 0 (sample published exactly at the
    consumer's release).

    This lower bound holds **unchanged** under jittered and sporadic
    releases: the publish delay is exactly one nominal period after the
    (possibly shifted) release in every regime, so the read-to-sample
    distance of each non-source hop can never drop below ``T_p``.
    """
    chain.validate(system.graph)
    if len(chain) == 1:
        return 0
    total = 0
    for producer, _consumer in chain.edges():
        total += let_hop_terms(system, producer)[1]
    return total + buffer_shift(chain, system)


def backward_bounds_let(chain: Chain, system: System) -> BackwardBounds:
    """Per-chain LET bounds (the reference a LET cache's sums must match)."""
    return BackwardBounds(
        chain=chain,
        wcbt=wcbt_upper_let(chain, system),
        bcbt=bcbt_lower_let(chain, system),
    )


def disparity_bound_let(
    system: System,
    task: str,
    *,
    method: str = "forkjoin",
    truncate_suffix: bool = True,
) -> Time:
    """Worst-case time disparity of ``task`` under LET communication.

    Identical pair enumeration and theorems as the implicit-semantics
    analysis, evaluated over the LET backward-time intervals — a LET
    :class:`~repro.api.AnalysisSession`'s
    :meth:`~repro.api.AnalysisSession.disparity`.  Useful for the
    classic LET trade-off study: LET removes all scheduling jitter from
    the data flow (often *shrinking* the disparity bound, since
    sampling windows become narrow) at the price of one extra period of
    latency per hop.
    """
    from repro.api import AnalysisSession

    return AnalysisSession(system, semantics="let").disparity(
        task, method=method, truncate_suffix=truncate_suffix
    )
