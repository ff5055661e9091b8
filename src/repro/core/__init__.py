"""Core contribution: worst-case time-disparity analysis."""

from repro.core.disparity import (
    METHOD_ALIASES,
    TaskDisparityResult,
    all_sink_disparities,
    check_disparity_requirement,
    disparity_bound,
    normalize_method,
    worst_case_disparity,
)
from repro.core.pairwise import (
    OffsetInterval,
    PairwiseResult,
    SamplingWindow,
    disparity_bound_forkjoin,
    disparity_bound_independent,
    forkjoin_terms,
    independent_bound,
    independent_operator,
    offset_intervals,
    sampling_windows,
    shifted_operator,
)

__all__ = [
    "METHOD_ALIASES",
    "normalize_method",
    "TaskDisparityResult",
    "all_sink_disparities",
    "check_disparity_requirement",
    "disparity_bound",
    "worst_case_disparity",
    "OffsetInterval",
    "PairwiseResult",
    "SamplingWindow",
    "disparity_bound_forkjoin",
    "disparity_bound_independent",
    "forkjoin_terms",
    "independent_bound",
    "independent_operator",
    "offset_intervals",
    "sampling_windows",
    "shifted_operator",
]
