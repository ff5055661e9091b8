"""Per-chain timing analysis: backward time, baselines, latency."""

from repro.chains.backward import (
    BackwardBounds,
    BackwardBoundsCache,
    backward_bounds,
    bcbt_lower,
    hop_budget,
    wcbt_upper,
)
from repro.chains.duerr import (
    bcbt_lower_agnostic,
    bcbt_lower_trivial,
    wcbt_upper_agnostic,
)
from repro.chains.latency import (
    max_data_age,
    max_data_age_agnostic,
    max_reaction_time,
    max_reaction_time_np,
)

__all__ = [
    "BackwardBounds",
    "BackwardBoundsCache",
    "backward_bounds",
    "bcbt_lower",
    "hop_budget",
    "wcbt_upper",
    "bcbt_lower_agnostic",
    "bcbt_lower_trivial",
    "wcbt_upper_agnostic",
    "max_data_age",
    "max_data_age_agnostic",
    "max_reaction_time",
    "max_reaction_time_np",
]
