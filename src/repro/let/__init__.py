"""Logical Execution Time semantics (extension beyond the paper).

LET decouples data-flow timing from scheduling: jobs read at release
and publish at their deadline.  The analysis here retargets the
paper's disparity theorems to LET by swapping the per-chain
backward-time bounds; the simulator supports LET via
``simulate(..., semantics="let")`` (the reference loop; campaigns
replay LET through the batch tiers, where LET data flow is pure
release/deadline arithmetic — see ``docs/performance.md``).

For both sides of a LET study in one object, open a LET session; its
one ``semantics`` switch picks the LET backward bounds (the bounds of
:func:`backward_bounds_let`, summed from :func:`let_hop_terms`) *and*
LET replay::

    from repro.api import AnalysisSession

    session = AnalysisSession(system, semantics="let")
    bound = session.disparity(sink)                  # LET Theorem 2
    seen = session.observed_batch(sink, sims=100, duration=horizon)

``observed_batch`` then replays LET replications through the compiled
batch engine (byte-identical to sequential ``simulate`` calls, several
times faster than the reference loop).  :func:`semantics_tradeoff` runs
the full paired implicit/LET study (bound + observed per semantics) on
one such session per semantics.
"""

from repro.let.analysis import (
    backward_bounds_let,
    bcbt_lower_let,
    disparity_bound_let,
    let_hop_terms,
    wcbt_upper_let,
)
from repro.let.sweep import (
    SEMANTICS,
    SemanticsPoint,
    TradeoffResult,
    semantics_tradeoff,
)

__all__ = [
    "SEMANTICS",
    "SemanticsPoint",
    "TradeoffResult",
    "backward_bounds_let",
    "bcbt_lower_let",
    "disparity_bound_let",
    "let_hop_terms",
    "semantics_tradeoff",
    "wcbt_upper_let",
]
