"""Pairwise worst-case time-disparity bounds (Theorems 1 and 2).

Given two chains ``lam`` and ``nu`` from source tasks to the same
analyzed task, bound the maximum difference between the timestamps of
the two sources an output of the analyzed task originates from:

* **Theorem 1 (P-diff)** treats the chains as independent.  With
  ``O_{lam,nu} = max(|W(lam) - B(nu)|, |W(nu) - B(lam)|)`` the
  difference is at most ``O_{lam,nu}``; when both chains start at the
  *same* source task the timestamps differ by a multiple of its period,
  so the bound floors to ``floor(O / T(lam^1)) * T(lam^1)``.

* **Theorem 2 (S-diff)** exploits the fork-join structure.  The chains
  are decomposed at their common non-source tasks ``o_1 .. o_c``
  (``o_c`` = analyzed task) into sub-chain pairs ``(alpha_j, beta_j)``.
  Because the jobs of each ``o_j`` appearing in the two immediate
  backward job chains are jobs of the *same task*, their release times
  differ by an integer multiple of ``T(o_j)``; propagating this
  constraint backwards yields, per joint, an integer interval
  ``[x_j, y_j]`` such that (nu-job release) - (lam-job release) is in
  ``[x_j T(o_j), y_j T(o_j)]``:

      x_c = y_c = 0
      x_j = ceil ((B(alpha_{j+1}) - W(beta_{j+1}) + x_{j+1} T(o_{j+1})) / T(o_j))
      y_j = floor((W(alpha_{j+1}) - B(beta_{j+1}) + y_{j+1} T(o_{j+1})) / T(o_j))

  The final bound is the shifted operator of Lemma 3 applied to
  ``(alpha_1, beta_1)``:

      O^{x,y} = max(|W(beta_1) - B(alpha_1) - x T(o_1)|,
                    |B(beta_1) - W(alpha_1) - y T(o_1)|)

  again floored to a multiple of the shared source's period when
  ``lam^1 = nu^1``.

Both theorems are *symmetric* in their inputs; the implementation keeps
the paper's asymmetric-looking formulas and verifies symmetry in tests.

A shared suffix of the two chains is truncated before decomposition by
default (the immediate backward job chain along a shared suffix is
unique, so the disparity at the original tail equals the disparity at
the last divergence point — the paper's "consider the last joint task
of them as the analyzed task").

Each theorem has one implementation on chain positions and per-chain
prefix sums (:func:`independent_bound`, :func:`forkjoin_terms`); the
all-pairs loop of :mod:`repro.core.disparity` calls them directly and
builds no object per pair.  :func:`disparity_bound_independent` and
:func:`disparity_bound_forkjoin` wrap the same arithmetic and add the
evidence (:class:`PairwiseResult`) for one pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.chains.backward import BackwardBoundsCache, ChainSpans
from repro.model.chain import (
    Chain,
    PairDecomposition,
    check_same_tail,
    decompose_at,
    joint_positions,
    tail_joint_error,
)
from repro.model.task import ModelError
from repro.units import Time, ceil_div, floor_div


@dataclass(frozen=True)
class SamplingWindow:
    """Interval ``[lo, hi]`` known to contain a source timestamp.

    Times are relative to the release of the analyzed job (or of the
    relevant joint job), as in Lemma 1: ``t in [-W(pi), -B(pi)]``.
    """

    lo: Time
    hi: Time

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ModelError(f"empty sampling window [{self.lo}, {self.hi}]")

    @property
    def midpoint_x2(self) -> Time:
        """Twice the midpoint (kept integral; callers compare midpoints)."""
        return self.lo + self.hi

    @property
    def width(self) -> Time:
        """Window width ``hi - lo``."""
        return self.hi - self.lo

    def shifted(self, delta: Time) -> "SamplingWindow":
        """The window translated by ``delta``."""
        return SamplingWindow(self.lo + delta, self.hi + delta)


@dataclass(frozen=True)
class OffsetInterval:
    """Per-joint integer interval ``[x_j, y_j]`` of Theorem 2."""

    joint: str
    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x > self.y:
            raise ModelError(
                f"empty offset interval at joint {self.joint!r}: "
                f"[{self.x}, {self.y}]"
            )


@dataclass(frozen=True)
class PairwiseResult:
    """A pairwise disparity bound plus the evidence that produced it."""

    lam: Chain
    nu: Chain
    bound: Time
    method: str
    analyzed_task: str
    shared_source: bool
    decomposition: Optional[PairDecomposition] = None
    offsets: Tuple[OffsetInterval, ...] = ()
    window_lam: Optional[SamplingWindow] = None
    window_nu: Optional[SamplingWindow] = None


def independent_operator(
    w_lam: Time, b_lam: Time, w_nu: Time, b_nu: Time
) -> Time:
    """``O_{lam,nu}`` of Theorem 1."""
    return max(abs(w_lam - b_nu), abs(w_nu - b_lam))


def shifted_operator(
    w_lam: Time,
    b_lam: Time,
    w_nu: Time,
    b_nu: Time,
    x: int,
    y: int,
    period_nu_tail: Time,
) -> Time:
    """``O^{x,y}_{lam,nu}`` of Lemma 3.

    Bounds ``|t(lam-source) - t(nu'-source)|`` where ``nu'`` is the
    immediate backward job chain of the job released ``k`` periods of
    the nu-tail after the analyzed job, ``x <= k <= y``.  With
    ``x = y = 0`` it reduces to :func:`independent_operator`.
    """
    return max(
        abs(w_nu - b_lam - x * period_nu_tail),
        abs(b_nu - w_lam - y * period_nu_tail),
    )


def floor_to_period(value: Time, period: Time) -> Time:
    """Round a bound down to a multiple of ``period`` (shared source)."""
    if value < 0:
        raise ModelError(f"disparity bound cannot be negative: {value}")
    return floor_div(value, period) * period


def independent_bound(lam: ChainSpans, nu: ChainSpans) -> Time:
    """Theorem 1 (P-diff) on two chains given by their prefix sums."""
    check_same_tail(lam.tasks, nu.tasks)
    w_lam, b_lam = lam.span(0, len(lam.tasks) - 1)
    w_nu, b_nu = nu.span(0, len(nu.tasks) - 1)
    operator = independent_operator(w_lam, b_lam, w_nu, b_nu)
    if lam.tasks[0] == nu.tasks[0]:
        return floor_to_period(operator, lam.periods[0])
    return operator


#: What :func:`forkjoin_terms` returns: the bound, the joint positions
#: ``(i, j)`` in ``lam`` and ``nu`` (the last one at the analyzed task),
#: and the offsets ``x_j`` / ``y_j`` per joint in chain order.
ForkJoinTerms = Tuple[Time, List[Tuple[int, int]], List[int], List[int]]


def forkjoin_terms(
    lam: ChainSpans, nu: ChainSpans, truncate_suffix: bool
) -> ForkJoinTerms:
    """Theorem 2 (S-diff) on two chains given by their prefix sums.

    Works on positions only: the shared suffix is cut by index, the
    joints come from ``nu``'s position map, and every sub-chain bound is
    a span lookup, so no chain or decomposition object is built.
    Identical chains (after truncation) give bound 0 and no joints.
    """
    tasks_lam, tasks_nu = lam.tasks, nu.tasks
    check_same_tail(tasks_lam, tasks_nu)
    if truncate_suffix:
        # Keep the first task of the shared suffix as the analyzed task.
        shared = 1
        limit = min(len(tasks_lam), len(tasks_nu))
        while shared < limit and tasks_lam[-1 - shared] == tasks_nu[-1 - shared]:
            shared += 1
        if shared == len(tasks_lam) == len(tasks_nu):
            # Identical chains: a single source job, zero disparity.
            return 0, [], [], []
        if shared > 1:
            tasks_lam = tasks_lam[: 1 - shared]
            tasks_nu = tasks_nu[: 1 - shared]

    # Common non-source tasks in chain order.  Only a chain's head can
    # be a source, and a shared source is the head of both chains.
    joints = joint_positions(
        tasks_lam, tasks_nu, nu.pos, 1 if lam.head_is_source else 0
    )
    if not joints or joints[-1][0] != len(tasks_lam) - 1:
        raise tail_joint_error(Chain(tasks_lam), Chain(tasks_nu))

    # The [x_j, y_j] recursion, from the analyzed task backwards.
    periods = lam.periods
    c = len(joints)
    xs = [0] * c
    ys = [0] * c
    x = y = 0
    i_next, j_next = joints[-1]
    t_next = periods[i_next]
    for k in range(c - 2, -1, -1):
        i_here, j_here = joints[k]
        t_here = periods[i_here]
        w_alpha, b_alpha = lam.span(i_here, i_next)
        w_beta, b_beta = nu.span(j_here, j_next)
        x = xs[k] = ceil_div(b_alpha - w_beta + x * t_next, t_here)
        y = ys[k] = floor_div(w_alpha - b_beta + y * t_next, t_here)
        i_next, j_next, t_next = i_here, j_here, t_here
    if any(x > y for x, y in zip(xs, ys)):
        # The first empty interval in chain order raises.
        for (i, _), x, y in zip(joints, xs, ys):
            OffsetInterval(joint=tasks_lam[i], x=x, y=y)

    i_first, j_first = joints[0]
    w_alpha, b_alpha = lam.span(0, i_first)
    w_beta, b_beta = nu.span(0, j_first)
    operator = shifted_operator(
        w_alpha, b_alpha, w_beta, b_beta, xs[0], ys[0], periods[i_first]
    )
    if tasks_lam[0] == tasks_nu[0]:
        operator = floor_to_period(operator, periods[0])
    return operator, joints, xs, ys


def disparity_bound_independent(
    lam: Chain,
    nu: Chain,
    cache: BackwardBoundsCache,
) -> PairwiseResult:
    """Theorem 1 (P-diff) for one pair, with its sampling windows."""
    bound = independent_bound(cache.spans(lam), cache.spans(nu))
    bl = cache.bounds(lam)
    bn = cache.bounds(nu)
    return PairwiseResult(
        lam=lam,
        nu=nu,
        bound=bound,
        method="P-diff",
        analyzed_task=lam.tail,
        shared_source=lam.head == nu.head,
        window_lam=SamplingWindow(-bl.wcbt, -bl.bcbt),
        window_nu=SamplingWindow(-bn.wcbt, -bn.bcbt),
    )


def offset_intervals(
    decomposition: PairDecomposition,
    cache: BackwardBoundsCache,
) -> Tuple[OffsetInterval, ...]:
    """The ``[x_j, y_j]`` recursion of Theorem 2, joint by joint.

    Returned in chain order (``o_1`` first).  The interval at ``o_c``
    (the analyzed task) is always ``[0, 0]``.  Every interval is
    non-empty because the actual release-time difference is both a
    multiple of ``T(o_j)`` and inside the real-valued window the
    recursion rounds; an empty interval therefore signals a bug and
    raises.
    """
    _, _, xs, ys = forkjoin_terms(
        cache.spans(decomposition.lam), cache.spans(decomposition.nu), False
    )
    return tuple(
        OffsetInterval(joint=joint, x=x, y=y)
        for joint, x, y in zip(decomposition.joints, xs, ys)
    )


def sampling_windows(
    decomposition: PairDecomposition,
    offsets: Tuple[OffsetInterval, ...],
    cache: BackwardBoundsCache,
) -> Tuple[SamplingWindow, SamplingWindow]:
    """Source sampling windows relative to the ``o_1`` job of ``lam``.

    Lines 4–5 of Algorithm 1:
    ``[A_lam, B_lam] = [-W(alpha_1), -B(alpha_1)]`` and
    ``[A_nu, B_nu]  = [x_1 T(o_1) - W(beta_1), y_1 T(o_1) - B(beta_1)]``.
    """
    system = cache.system
    first = offsets[0]
    t_o1 = system.T(decomposition.joints[0])
    ba = cache.bounds(decomposition.alphas[0])
    bb = cache.bounds(decomposition.betas[0])
    window_lam = SamplingWindow(-ba.wcbt, -ba.bcbt)
    window_nu = SamplingWindow(
        first.x * t_o1 - bb.wcbt, first.y * t_o1 - bb.bcbt
    )
    return window_lam, window_nu


def disparity_bound_forkjoin(
    lam: Chain,
    nu: Chain,
    cache: BackwardBoundsCache,
    *,
    truncate_suffix: bool = True,
) -> PairwiseResult:
    """Theorem 2 (S-diff) for one pair, with its full evidence.

    The bound is :func:`forkjoin_terms`'; this wrapper adds the
    decomposition, the offset intervals and the sampling windows.
    """
    bound, joints, xs, ys = forkjoin_terms(
        cache.spans(lam), cache.spans(nu), truncate_suffix
    )
    if not joints:
        return PairwiseResult(
            lam=lam,
            nu=nu,
            bound=0,
            method="S-diff",
            analyzed_task=lam.head,
            shared_source=True,
        )
    i_tail, j_tail = joints[-1]
    decomposition = decompose_at(
        lam.sub(0, i_tail + 1), nu.sub(0, j_tail + 1), joints
    )
    offsets = tuple(
        OffsetInterval(joint=joint, x=x, y=y)
        for joint, x, y in zip(decomposition.joints, xs, ys)
    )
    window_lam, window_nu = sampling_windows(decomposition, offsets, cache)
    return PairwiseResult(
        lam=lam,
        nu=nu,
        bound=bound,
        method="S-diff",
        analyzed_task=decomposition.joints[-1],
        shared_source=lam.head == nu.head,
        decomposition=decomposition,
        offsets=offsets,
        window_lam=window_lam,
        window_nu=window_nu,
    )
