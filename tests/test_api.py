"""The :class:`repro.api.AnalysisSession` facade and top-level API.

Covers the session's cache-reuse contract (repeated queries return the
*same object* without recomputation), method-name normalization, the
bounded compiled-scenario LRU, structural edits of the session's
compiled core, and the removal of the PR-1 deprecation shims from the
top-level package (the functional forms live on in
:mod:`repro.core.disparity`).
"""

from __future__ import annotations

import inspect
import random

import pytest

import repro
import repro.api
from repro import AnalysisSession, generate_random_scenario, seconds
from repro.core.disparity import METHOD_ALIASES, normalize_method
from repro.sim.metrics import DisparityMonitor


@pytest.fixture(scope="module")
def scenario():
    return generate_random_scenario(10, random.Random(7))


@pytest.fixture()
def session(scenario):
    return AnalysisSession(scenario.system)


class TestCacheReuse:
    def test_worst_case_returns_same_object(self, session, scenario):
        first = session.worst_case(scenario.sink)
        second = session.worst_case(scenario.sink)
        assert first is second

    def test_alias_methods_share_one_memo_entry(self, session, scenario):
        canonical = session.worst_case(scenario.sink, method="forkjoin")
        via_alias = session.worst_case(scenario.sink, method="s-diff")
        assert canonical is via_alias

    def test_no_recompute_after_first_query(self, session, scenario, monkeypatch):
        session.worst_case(scenario.sink)

        def explode(*args, **kwargs):
            raise AssertionError("cached result must not be recomputed")

        monkeypatch.setattr(repro.api, "worst_case_disparity", explode)
        session.worst_case(scenario.sink)  # served from the memo

    def test_chains_enumerated_once(self, session, scenario):
        assert session.chains(scenario.sink) is session.chains(scenario.sink)

    def test_backward_bounds_cache_warm_after_first_query(self, session, scenario):
        session.disparity(scenario.sink, method="independent")
        cached = len(session.cache)
        assert cached > 0
        session.disparity(scenario.sink, method="independent")
        assert len(session.cache) == cached

    def test_matches_functional_api(self, session, scenario):
        from repro.core.disparity import disparity_bound

        assert session.disparity(scenario.sink) == disparity_bound(
            scenario.system, scenario.sink, method="forkjoin"
        )

    def test_all_sinks_covers_every_sink(self, session):
        results = session.all_sinks()
        assert set(results) == set(session.graph.sinks())


class TestMethodNormalization:
    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("p-diff", "independent"),
            ("P-Diff", "independent"),
            ("theorem1", "independent"),
            ("s-diff", "forkjoin"),
            ("  SDIFF ", "forkjoin"),
            ("best", "best"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert normalize_method(alias) == canonical

    def test_unknown_method_raises_value_error_listing_choices(self):
        with pytest.raises(ValueError) as excinfo:
            normalize_method("bogus")
        message = str(excinfo.value)
        assert "independent" in message and "forkjoin" in message
        assert "p-diff" in message  # aliases are listed too

    def test_session_rejects_unknown_method(self, session, scenario):
        with pytest.raises(ValueError):
            session.disparity(scenario.sink, method="bogus")

    def test_disparity_bound_accepts_cli_names(self, scenario):
        from repro.core.disparity import disparity_bound

        assert disparity_bound(
            scenario.system, scenario.sink, method="s-diff"
        ) == disparity_bound(scenario.system, scenario.sink, method="forkjoin")

    def test_every_alias_maps_to_a_canonical_method(self):
        assert set(METHOD_ALIASES.values()) == {
            "independent",
            "forkjoin",
            "best",
        }


class TestSimulation:
    def test_simulate_accepts_policy_names(self, session):
        result = session.simulate(seconds(1), seed=3, policy="wcet")
        assert result.stats.jobs_completed > 0

    def test_simulate_is_deterministic_per_seed(self, session, scenario):
        def observed(seed):
            monitor = DisparityMonitor([scenario.sink])
            session.simulate(seconds(1), seed=seed, observers=[monitor])
            return monitor.disparity(scenario.sink)

        assert observed(11) == observed(11)

    def test_observed_disparity_below_bound(self, session, scenario):
        observed = session.observed_disparity(
            scenario.sink, sims=3, duration=seconds(2), rng=random.Random(5)
        )
        assert observed <= session.disparity(scenario.sink)

    def test_buffered_session_reuses_response_times(self, session, scenario):
        design = session.design_buffers(scenario.sink)
        buffered = session.with_buffer_plan(design.plan)
        assert buffered.response_times() is session.response_times()


class TestObservedStats:
    def test_exact_fields_match_observed_batch(self, session, scenario):
        # Chunked streaming consumes the same generator stream as one
        # big batch, so count/max/min are exactly the batch's values
        # even when sims is not a multiple of the chunk size.
        batch = session.observed_batch(
            scenario.sink, sims=7, duration=seconds(2), rng=random.Random(9)
        )
        summary = session.observed_stats(
            scenario.sink, sims=7, duration=seconds(2),
            rng=random.Random(9), chunk=3,
        )
        assert summary["count"] == batch.sims == 7
        assert summary["max"] == batch.max_disparity
        assert summary["min"] == min(batch.disparities)
        assert summary["mean"] == pytest.approx(
            sum(batch.disparities) / batch.sims
        )
        assert set(summary["quantiles"]) == {"p50", "p90", "p99"}

    def test_zero_sims_yields_empty_summary(self, session, scenario):
        summary = session.observed_stats(
            scenario.sink, sims=0, duration=seconds(2)
        )
        assert summary["count"] == 0
        assert "max" not in summary

    def test_validation(self, session, scenario):
        with pytest.raises(ValueError):
            session.observed_stats(
                scenario.sink, sims=-1, duration=seconds(2)
            )
        with pytest.raises(ValueError):
            session.observed_stats(
                scenario.sink, sims=1, duration=seconds(2), chunk=0
            )


class TestShimRemoval:
    """The PR-1 deprecation shims are gone after two releases of warning."""

    def test_all_sink_disparities_removed_from_package(self):
        with pytest.raises(AttributeError):
            repro.all_sink_disparities

    def test_check_disparity_requirement_removed_from_package(self):
        with pytest.raises(AttributeError):
            repro.check_disparity_requirement

    def test_removed_names_left_all(self):
        assert "all_sink_disparities" not in repro.__all__
        assert "check_disparity_requirement" not in repro.__all__

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_name

    def test_functional_forms_stay_importable(self, scenario, recwarn):
        from repro.core.disparity import (  # noqa: F401
            all_sink_disparities,
            check_disparity_requirement,
        )

        assert check_disparity_requirement(
            scenario.system, scenario.sink, 10**15
        )
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]

    def test_session_replacements_cover_the_removed_surface(self, session):
        results = session.all_sinks()
        assert set(results) == set(session.graph.sinks())
        sink = next(iter(results))
        assert session.check_requirement(sink, 10**15)


class TestCompiledCacheBound:
    """The per-(task, semantics) compiled-scenario memo is a bounded LRU."""

    def test_repeat_queries_hit_without_eviction(self, session, scenario):
        first = session.compiled_scenario(scenario.sink)
        again = session.compiled_scenario(scenario.sink)
        assert first is again
        stats = session.compiled_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0

    def test_lru_evicts_past_the_bound(self, session, scenario):
        bound = repro.api.COMPILED_CACHE_SIZE
        tasks = [t.name for t in scenario.system.graph.tasks][: bound + 1]
        assert len(tasks) == bound + 1
        for name in tasks:
            session.compiled_scenario(name)
        stats = session.compiled_cache_stats()
        assert stats["size"] == bound
        assert stats["maxsize"] == bound
        assert stats["evictions"] == 1
        # The oldest entry was dropped; re-querying recompiles it.
        first = session.compiled_scenario(tasks[0])
        assert session.compiled_cache_stats()["evictions"] == 2
        assert first.task == tasks[0]

    def test_recently_used_entry_survives(self, session, scenario):
        bound = repro.api.COMPILED_CACHE_SIZE
        tasks = [t.name for t in scenario.system.graph.tasks][: bound + 1]
        a = session.compiled_scenario(tasks[0])
        second = session.compiled_scenario(tasks[1])
        for name in tasks[2:bound]:
            session.compiled_scenario(name)
        session.compiled_scenario(tasks[0])  # refresh a
        session.compiled_scenario(tasks[bound])  # evicts tasks[1]
        assert session.compiled_scenario(tasks[0]) is a
        assert session.compiled_scenario(tasks[1]) is not second

    def test_invalid_bound_rejected(self):
        # The bound is a positive module constant; sessions take no
        # per-instance override that could set it out of range.
        assert repro.api.COMPILED_CACHE_SIZE >= 1
        params = inspect.signature(AnalysisSession).parameters
        assert set(params) == {"system", "bounds_strategy", "semantics"}


class TestEditScenario:
    def test_unknown_edit_key_raises_value_error_listing_choices(
        self, session, scenario
    ):
        core = session.compiled_scenario(scenario.sink)
        with pytest.raises(ValueError) as excinfo:
            core.edit(capacity={})
        message = str(excinfo.value)
        assert "capacities" in message and "periods" in message

    def test_structural_edit_reuses_the_cached_core(self, session, scenario):
        core = session.compiled_scenario(scenario.sink)
        name = next(
            t.name for t in session.graph.tasks if not t.is_instantaneous
        )
        derived = session.compiled_scenario(scenario.sink).edit(
            periods={name: session.graph.task(name).period * 2}
        )
        assert derived is not core
        assert derived._grid_cache is core._grid_cache
