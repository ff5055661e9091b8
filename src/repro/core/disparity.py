"""Task-level worst-case time disparity (Definition 2).

The worst-case time disparity of a task ``tau`` is the maximum, over
all jobs ``J`` of ``tau``, of the maximum difference among the
timestamps of all of ``J``'s sources.  Each source is traced through an
immediate backward job chain along one chain of

    P = { every chain from a source task to tau },

so the task-level bound is the maximum over all unordered pairs of
distinct chains in ``P`` of the pairwise bound (Theorem 1 or 2).

``method`` selects the estimator:

* ``"independent"`` — Theorem 1 on every pair (paper's *P-diff*);
* ``"forkjoin"``    — Theorem 2 on every pair (paper's *S-diff*);
* ``"best"``        — the per-pair minimum of the two (both are safe
  upper bounds, so their minimum is safe; an extension beyond the
  paper's reported series).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from repro.chains.backward import BackwardBoundsCache, ChainSpans
from repro.core.pairwise import (
    PairwiseResult,
    disparity_bound_forkjoin,
    disparity_bound_independent,
    forkjoin_terms,
    independent_bound,
)
from repro.model.chain import Chain, enumerate_source_chains
from repro.model.system import System
from repro.model.task import ModelError
from repro.units import Time

Method = str

_VALID_METHODS = ("independent", "forkjoin", "best")

#: Accepted method spellings.  Canonical names are the estimator
#: identifiers; the aliases mirror the series labels the CLI and the
#: paper print (``P-diff`` = Theorem 1, ``S-diff`` = Theorem 2), so the
#: name read off a figure or a CLI table works verbatim in the API.
METHOD_ALIASES: Dict[str, str] = {
    "independent": "independent",
    "p-diff": "independent",
    "pdiff": "independent",
    "theorem1": "independent",
    "forkjoin": "forkjoin",
    "s-diff": "forkjoin",
    "sdiff": "forkjoin",
    "theorem2": "forkjoin",
    "best": "best",
}


def normalize_method(method: Method) -> Method:
    """Map any accepted method spelling to its canonical name.

    Raises:
        ValueError: For an unknown name, listing every accepted choice
            (:class:`ModelError`, a ``ValueError`` subclass).
    """
    canonical = METHOD_ALIASES.get(str(method).strip().lower())
    if canonical is None:
        raise ModelError(
            f"unknown disparity method {method!r}; canonical choices are "
            f"{list(_VALID_METHODS)}, also accepted: "
            f"{sorted(alias for alias in METHOD_ALIASES if alias not in _VALID_METHODS)}"
        )
    return canonical


@dataclass(frozen=True)
class TaskDisparityResult:
    """Worst-case disparity bound of one task, with the worst pair's evidence.

    ``pair_bounds`` holds every pair's bound in ``combinations(chains,
    2)`` order; ``worst_pair`` is the full evidence of the first pair
    that attains the maximum (``None`` with fewer than two chains).
    """

    task: str
    method: Method
    bound: Time
    chains: Tuple[Chain, ...]
    pair_bounds: Tuple[Time, ...]
    worst_pair: Optional[PairwiseResult]

    @property
    def n_pairs(self) -> int:
        """Number of chain pairs the maximum ranged over."""
        return len(self.pair_bounds)


def _pair_bound(
    lam: ChainSpans, nu: ChainSpans, method: Method, truncate_suffix: bool
) -> Time:
    if method == "independent":
        return independent_bound(lam, nu)
    forkjoin = forkjoin_terms(lam, nu, truncate_suffix)[0]
    if method == "forkjoin":
        return forkjoin
    # "best": fork-join wherever it is no worse than independent.
    return min(forkjoin, independent_bound(lam, nu))


def _pair_evidence(
    lam: Chain,
    nu: Chain,
    cache: BackwardBoundsCache,
    method: Method,
    truncate_suffix: bool,
) -> PairwiseResult:
    if method == "best":
        spans_lam, spans_nu = cache.spans(lam), cache.spans(nu)
        forkjoin = forkjoin_terms(spans_lam, spans_nu, truncate_suffix)[0]
        independent = independent_bound(spans_lam, spans_nu)
        method = "forkjoin" if forkjoin <= independent else "independent"
    if method == "independent":
        return disparity_bound_independent(lam, nu, cache)
    return disparity_bound_forkjoin(lam, nu, cache, truncate_suffix=truncate_suffix)


def worst_case_disparity(
    system: System,
    task: str,
    *,
    method: Method = "forkjoin",
    truncate_suffix: bool = True,
    cache: Optional[BackwardBoundsCache] = None,
    chains: Optional[Tuple[Chain, ...]] = None,
) -> TaskDisparityResult:
    """Bound the worst-case time disparity of ``task``.

    Enumerates ``P`` and maximizes the selected pairwise bound over all
    unordered pairs of distinct chains.  A task reachable from at most
    one source chain has zero disparity by definition.  Every pair is
    evaluated on the chains' prefix sums (integer arithmetic, no object
    per pair); only the first pair attaining the maximum gets its
    evidence built, as ``worst_pair``.

    Args:
        system: The analyzed system.
        task: Name of the analyzed task.
        method: ``"independent"`` (P-diff), ``"forkjoin"`` (S-diff) or
            ``"best"`` — aliases like ``"p-diff"``/``"s-diff"`` are
            accepted too (see :data:`METHOD_ALIASES`).
        truncate_suffix: Truncate shared chain suffixes before the
            fork-join decomposition (no effect on Theorem 1).
        cache: Optional shared backward-bounds cache (reuse across
            tasks of the same system).
        chains: Pre-enumerated source chains of ``task`` (an
            :class:`repro.api.AnalysisSession` passes its memoized
            enumeration; when ``None`` they are enumerated here).

    Periodic releases only: Theorems 1-3 use the fact that release
    differences are exact multiples of the task periods (the
    ``floor_to_period`` rounding and the Theorem 2 offset recursion).
    Jittered or sporadic workloads raise a structured
    :class:`~repro.analysis_regime.RegimeError` — measure them with the
    simulation tiers instead.
    """
    from repro.analysis_regime import regime_of

    regime_of(system).require_analytical(
        "worst-case time disparity bound (Theorems 1-3)"
    )
    method = normalize_method(method)
    if cache is None:
        cache = BackwardBoundsCache(system)
    if chains is None:
        chains = enumerate_source_chains(system.graph, task)
    cache.register(chains)
    spans = [cache.spans(chain) for chain in chains]
    pair_bounds: List[Time] = []
    worst: Optional[Tuple[int, int]] = None
    bound = 0
    for i, j in combinations(range(len(spans)), 2):
        pair = _pair_bound(spans[i], spans[j], method, truncate_suffix)
        pair_bounds.append(pair)
        if worst is None or pair > bound:
            worst, bound = (i, j), pair
    evidence = None
    if worst is not None:
        lam, nu = chains[worst[0]], chains[worst[1]]
        evidence = _pair_evidence(lam, nu, cache, method, truncate_suffix)
    return TaskDisparityResult(
        task=task,
        method=method,
        bound=bound,
        chains=chains,
        pair_bounds=tuple(pair_bounds),
        worst_pair=evidence,
    )


def disparity_bound(
    system: System,
    task: str,
    *,
    method: Method = "forkjoin",
    truncate_suffix: bool = True,
    cache: Optional[BackwardBoundsCache] = None,
    chains: Optional[Tuple[Chain, ...]] = None,
) -> Time:
    """Just the numeric bound of :func:`worst_case_disparity`."""
    return worst_case_disparity(
        system,
        task,
        method=method,
        truncate_suffix=truncate_suffix,
        cache=cache,
        chains=chains,
    ).bound


def all_sink_disparities(
    system: System,
    *,
    method: Method = "forkjoin",
    truncate_suffix: bool = True,
) -> Dict[str, TaskDisparityResult]:
    """Disparity bounds of every sink task, sharing one bounds cache."""
    cache = BackwardBoundsCache(system)
    return {
        sink: worst_case_disparity(
            system, sink, method=method, truncate_suffix=truncate_suffix, cache=cache
        )
        for sink in system.graph.sinks()
    }


def check_disparity_requirement(
    system: System,
    task: str,
    threshold: Time,
    *,
    method: Method = "forkjoin",
) -> bool:
    """Verify the paper's design requirement: disparity within a range.

    Returns True when the worst-case time disparity bound of ``task``
    is at most ``threshold`` — the verification question posed at the
    start of Section III ("whether the time disparity of a task is
    bounded by a pre-defined value").
    """
    return disparity_bound(system, task, method=method) <= threshold
