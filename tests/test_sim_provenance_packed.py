"""Property-based equivalence: columnar provenance == dict provenance.

The columnar kernel folds the ``(min, max)`` stamps of every source per
job; this test pins its per-job disparities to the simulator's dict
tokens (:func:`repro.sim.provenance.merge_provenance`) over full
simulated DAG runs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.tiers import assert_provenance_matches, random_system


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
)
def test_dag_run_provenance_matches_reference_loop(seed, n_tasks):
    """Columnar per-job disparities on a random DAG run == the
    simulator's dict tokens.

    Runs the same scenario through the columnar kernel (stamps folded
    per source in the derive) and the reference ``Simulator`` (dict
    provenance), and compares every sink job's disparity.
    """
    system = random_system(seed, n_tasks)
    duration = 4 * max(task.period for task in system.graph.tasks)
    for sink in system.graph.sinks():
        assert_provenance_matches(system, sink, seed=seed, duration=duration)
