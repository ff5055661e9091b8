"""Pair analysis on per-chain prefix sums, against per-chain references.

:class:`BackwardBoundsCache` answers every sub-chain from one chain's
prefix sums under either semantics, and :func:`worst_case_disparity`
evaluates every chain pair on them, building evidence only for the
worst pair.  These properties compare both against per-chain references
(:func:`backward_bounds` / :func:`backward_bounds_let` as the cache's
``strategy=``) over generated systems with random buffer plans, in
every release regime the LET bounds accept.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pairwise as pairwise
import repro.model.chain as chain_module
from repro.analysis_regime import RegimeError
from repro.api import AnalysisSession
from repro.chains.backward import BackwardBoundsCache, backward_bounds, wcbt_upper
from repro.core.disparity import worst_case_disparity
from repro.core.pairwise import disparity_bound_forkjoin, disparity_bound_independent
from repro.gen import generate_random_scenario
from repro.let.analysis import backward_bounds_let, wcbt_upper_let
from repro.model.chain import Chain
from repro.model.system import System
from repro.model.task import ModelError, ReleaseModel
from repro.units import ms

REFERENCE = {"implicit": backward_bounds, "let": backward_bounds_let}
REGIMES = ("periodic", "jitter", "sporadic", "mixed")


def _system(seed: int, n_tasks: int, regime: str = "periodic"):
    """A generated system with random channel capacities in ``regime``."""
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system = scenario.system.with_buffer_plan(
        {
            (channel.src, channel.dst): rng.randint(1, 4)
            for channel in scenario.system.graph.channels
        }
    )
    if regime != "periodic":
        graph = system.graph.copy()
        for task in system.graph.tasks:
            kind = rng.choice(("periodic", "jitter", "sporadic")) if regime == "mixed" else regime
            period = task.period
            if kind == "jitter":
                model = ReleaseModel.jittered(rng.randint(0, period - 1))
            elif kind == "sporadic":
                model = ReleaseModel.sporadic(
                    rng.randint(period // 2, period), rng.randint(period, 2 * period)
                )
            else:
                continue
            graph.replace_task(task.with_release_model(model))
        system = System(graph=graph, response_times=system.response_times)
    return system, scenario.sink


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=14),
    regime=st.sampled_from(REGIMES),
)
def test_let_prefix_sums_match_per_chain_bounds(seed, n_tasks, regime):
    """Every LET sub-chain of every chain, in every release regime."""
    system, sink = _system(seed, n_tasks, regime)
    cache = BackwardBoundsCache(system, semantics="let")
    for chain in AnalysisSession(system).chains(sink):
        tasks = chain.tasks
        for i in range(len(tasks)):
            for j in range(i, len(tasks)):
                sub = Chain(tasks[i : j + 1])
                reference = backward_bounds_let(sub, system)
                assert cache.bounds(sub) == reference
                assert cache.spans(chain).span(i, j) == (
                    reference.wcbt, reference.bcbt
                )


def _evidence(lam, nu, cache, method, truncate_suffix):
    """The evidence function the method names for one pair."""
    independent = disparity_bound_independent(lam, nu, cache)
    if method == "independent":
        return independent
    forkjoin = disparity_bound_forkjoin(lam, nu, cache, truncate_suffix=truncate_suffix)
    if method == "forkjoin" or forkjoin.bound <= independent.bound:
        return forkjoin
    return independent


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=14),
    semantics=st.sampled_from(("implicit", "let")),
)
def test_session_pairs_match_per_chain_reference(seed, n_tasks, semantics):
    """Bounds, every pair's bound and the worst pair's evidence."""
    system, sink = _system(seed, n_tasks)
    session = AnalysisSession(system, semantics=semantics)
    reference = BackwardBoundsCache(system, strategy=REFERENCE[semantics])
    for method in ("independent", "forkjoin", "best"):
        for truncate_suffix in (True, False):
            result = session.worst_case(
                sink, method=method, truncate_suffix=truncate_suffix
            )
            expected = worst_case_disparity(
                system,
                sink,
                method=method,
                truncate_suffix=truncate_suffix,
                cache=reference,
            )
            assert result.bound == expected.bound
            assert result.pair_bounds == expected.pair_bounds
            assert result.n_pairs == len(result.chains) * (len(result.chains) - 1) // 2
            if result.worst_pair is None:
                assert result.n_pairs == 0
                continue
            worst = result.worst_pair
            # The first maximal pair in combinations order.
            first = result.pair_bounds.index(result.bound)
            pairs = [
                (lam, nu)
                for index, lam in enumerate(result.chains)
                for nu in result.chains[index + 1 :]
            ]
            assert (worst.lam, worst.nu) == pairs[first]
            assert worst == _evidence(
                worst.lam, worst.nu, reference, method, truncate_suffix
            )
            assert worst == expected.worst_pair


def _count_constructions(monkeypatch):
    """Count PairwiseResult, PairDecomposition and Chain constructions."""
    counts = {"result": 0, "decomposition": 0, "chain": 0}

    class CountingResult(pairwise.PairwiseResult):
        def __init__(self, *args, **kwargs):
            counts["result"] += 1
            super().__init__(*args, **kwargs)

    class CountingDecomposition(chain_module.PairDecomposition):
        def __init__(self, *args, **kwargs):
            counts["decomposition"] += 1
            super().__init__(*args, **kwargs)

    original = Chain.__post_init__

    def counting_post_init(self):
        counts["chain"] += 1
        original(self)

    monkeypatch.setattr(pairwise, "PairwiseResult", CountingResult)
    monkeypatch.setattr(chain_module, "PairDecomposition", CountingDecomposition)
    monkeypatch.setattr(Chain, "__post_init__", counting_post_init)
    return counts


@pytest.mark.parametrize("semantics", ["implicit", "let"])
@pytest.mark.parametrize("method", ["independent", "forkjoin", "best"])
def test_only_the_worst_pair_gets_evidence(monkeypatch, semantics, method):
    scenario = generate_random_scenario(20, random.Random(2))
    session = AnalysisSession(scenario.system, semantics=semantics)
    session.cache.register(session.chains(scenario.sink))
    counts = _count_constructions(monkeypatch)
    result = session.worst_case(scenario.sink, method=method)
    assert result.n_pairs >= 20
    assert counts["result"] == 1
    worst = result.worst_pair
    if worst.decomposition is None:
        assert counts["decomposition"] == 0
        assert counts["chain"] == 0
    else:
        # The truncated pair plus one alpha and one beta per joint.
        assert counts["decomposition"] == 1
        assert counts["chain"] == 2 + 2 * len(worst.offsets)


@pytest.mark.parametrize("semantics, per_chain", [
    ("implicit", wcbt_upper), ("let", wcbt_upper_let),
])
def test_invalid_chains_keep_their_diagnostic(semantics, per_chain):
    scenario = generate_random_scenario(8, random.Random(7))
    system, sink = scenario.system, scenario.sink
    other = next(name for name in system.graph.task_names if name != sink)
    for chain in (Chain((sink, other)), Chain(("nosuch",))):
        with pytest.raises(ModelError) as reference:
            per_chain(chain, system)
        with pytest.raises(ModelError) as err:
            BackwardBoundsCache(system, semantics=semantics).bounds(chain)
        assert str(err.value) == str(reference.value)


def test_jittered_system_keeps_its_regime_errors():
    scenario = generate_random_scenario(8, random.Random(3))
    graph = scenario.system.graph.copy()
    graph.replace_task(
        graph.task("s0").with_release_model(ReleaseModel.jittered(ms(1)))
    )
    system = System(graph=graph, response_times=scenario.system.response_times)
    regime = (
        "assumes strictly periodic releases, but this system is in the "
        "'jitter' release regime (jitter release regime — non-periodic "
        "tasks: s0 (jitter<=1.000ms)); this combination is simulation-only "
        "— measure it with simulate()/run_batch(), or restore periodic "
        "release models for analytical bounds"
    )
    for semantics in ("implicit", "let"):
        with pytest.raises(RegimeError) as err:
            AnalysisSession(system, semantics=semantics).disparity(scenario.sink)
        assert str(err.value) == (
            "worst-case time disparity bound (Theorems 1-3) " + regime
        )
    chain = AnalysisSession(system).chains(scenario.sink)[0]
    with pytest.raises(RegimeError) as err:
        BackwardBoundsCache(system).bounds(chain)
    assert str(err.value) == "backward bounds (Lemmas 4-5) " + regime
    # LET bounds survive the jitter, as the per-chain reference does.
    let = BackwardBoundsCache(system, semantics="let").bounds(chain)
    assert let == backward_bounds_let(chain, system)
