"""Property-based equivalence: the prefix DP == per-chain bounds.

The DAG-shared prefix DP of :class:`BackwardBoundsCache` (its default
strategy) must reproduce the per-chain Lemma 4/5 sums
(:func:`backward_bounds`) exactly, for every chain and sub-chain of
randomly generated WATERS scenarios, and reject invalid chains with
the same diagnostic.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.backward import (
    BackwardBoundsCache,
    backward_bounds,
    bcbt_lower,
    wcbt_upper,
)
from repro.core.disparity import worst_case_disparity
from repro.gen import generate_random_scenario
from repro.model.chain import Chain, enumerate_source_chains
from repro.model.task import ModelError


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=14),
)
def test_table_matches_per_chain_bounds(seed, n_tasks):
    """Every chain (and contiguous sub-chain) of a random WATERS graph."""
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    table = BackwardBoundsCache(system)
    for chain in enumerate_source_chains(system.graph, sink):
        tasks = chain.tasks
        for i in range(len(tasks)):
            for j in range(i, len(tasks)):
                sub = Chain(tasks[i : j + 1])
                reference = backward_bounds(sub, system)
                shared = table.bounds(sub)
                assert shared.wcbt == reference.wcbt
                assert shared.bcbt == reference.bcbt


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    method=st.sampled_from(["independent", "forkjoin", "best"]),
)
def test_disparity_identical_with_table(seed, method):
    """End-to-end: theorems fed by the table give identical bounds."""
    rng = random.Random(seed)
    scenario = generate_random_scenario(rng.randint(5, 12), rng)
    system, sink = scenario.system, scenario.sink
    per_chain = BackwardBoundsCache(system, strategy=backward_bounds)
    via_cache = worst_case_disparity(system, sink, method=method, cache=per_chain)
    via_table = worst_case_disparity(system, sink, method=method)
    assert via_table.bound == via_cache.bound
    assert via_table.pair_bounds == via_cache.pair_bounds


def test_table_rejects_non_chain():
    rng = random.Random(7)
    scenario = generate_random_scenario(8, rng)
    system = scenario.system
    names = system.graph.task_names
    # Two tasks with no channel between them (a sink never feeds back).
    sink = scenario.sink
    other = next(n for n in names if n != sink)
    chain = Chain((sink, other))
    with pytest.raises(ModelError) as reference:
        wcbt_upper(chain, system)
    table = BackwardBoundsCache(system)
    with pytest.raises(ModelError) as err:
        table.bounds(chain)
    assert str(err.value) == str(reference.value)


@pytest.mark.parametrize("strategy", [None, backward_bounds])
def test_unknown_single_task_chain_rejected(strategy):
    """A one-task chain has no edge to check, but its task must exist."""
    scenario = generate_random_scenario(6, random.Random(3))
    system = scenario.system
    chain = Chain(("nosuch",))
    with pytest.raises(ModelError, match="unknown task 'nosuch'") as reference:
        wcbt_upper(chain, system)
    with pytest.raises(ModelError, match="unknown task 'nosuch'"):
        bcbt_lower(chain, system)
    with pytest.raises(ModelError) as err:
        BackwardBoundsCache(system, strategy=strategy).bounds(chain)
    assert str(err.value) == str(reference.value)


def test_table_register_warms_every_prefix():
    rng = random.Random(11)
    scenario = generate_random_scenario(10, rng)
    system, sink = scenario.system, scenario.sink
    table = BackwardBoundsCache(system)
    chains = enumerate_source_chains(system.graph, sink)
    table.register(chains)
    assert len(table) >= len(chains)
