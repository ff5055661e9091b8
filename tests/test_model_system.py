"""Tests for System construction and validation stages."""

import pytest

import repro.model.system
import repro.model.validation
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ModelError, Task, source_task
from repro.model.validation import (
    validate_deployment,
    validate_schedulability,
    validate_structure,
    validate_system,
)
from repro.units import ms, us


class TestSystemAccessors:
    def test_parameters(self, diamond_system):
        assert diamond_system.T("m") == ms(20)
        assert diamond_system.W("m") == ms(1)
        assert diamond_system.B("m") == ms(1)

    def test_source_response_time_zero(self, diamond_system):
        assert diamond_system.R("s") == 0

    def test_same_unit(self, diamond_system):
        assert diamond_system.same_unit("a", "b")

    def test_in_hp(self, diamond_system):
        assert diamond_system.in_hp("a", "b")
        assert not diamond_system.in_hp("b", "a")
        assert not diamond_system.in_hp("a", "a")

    def test_is_source(self, diamond_system):
        assert diamond_system.is_source("s")
        assert not diamond_system.is_source("m")

    def test_chain_helper(self, diamond_system):
        chain = diamond_system.chain("s", "a", "m")
        assert chain.tasks == ("s", "a", "m")
        with pytest.raises(ModelError):
            diamond_system.chain("s", "m")

    def test_with_channel_capacity(self, diamond_system):
        buffered = diamond_system.with_channel_capacity("s", "a", 3)
        assert buffered.graph.channel("s", "a").capacity == 3
        # original untouched
        assert diamond_system.graph.channel("s", "a").capacity == 1
        # response times shared
        assert buffered.R("m") == diamond_system.R("m")

    def test_with_buffer_plan(self, diamond_system):
        buffered = diamond_system.with_buffer_plan(
            {("s", "a"): 2, ("s", "b"): 4}
        )
        assert buffered.graph.channel("s", "b").capacity == 4

    def test_describe(self, diamond_system):
        text = diamond_system.describe()
        assert "sink" in text
        assert "sources: s" in text


class TestValidation:
    def test_valid_system_builds(self, diamond_graph):
        system = System.build(diamond_graph)
        assert len(system.graph) == 7

    def test_source_with_wcet_rejected(self):
        graph = CauseEffectGraph()
        graph.add_task(Task("s", ms(10), us(1), us(1), ecu="e", priority=0))
        graph.add_task(Task("t", ms(10), us(1), us(1), ecu="e", priority=1))
        graph.add_channel("s", "t")
        report = validate_structure(graph)
        assert not report.ok
        assert any("W=B=0" in err for err in report.errors)

    def test_empty_graph_rejected(self):
        report = validate_structure(CauseEffectGraph())
        assert not report.ok

    def test_no_source_rejected(self):
        # single task that is both source and sink but has WCET: the
        # W=B=0 convention fails first.
        graph = CauseEffectGraph()
        graph.add_task(Task("only", ms(10), us(1), us(1), ecu="e", priority=0))
        report = validate_structure(graph)
        assert not report.ok

    def test_disconnected_warns(self, diamond_graph):
        diamond_graph.add_task(source_task("lonely", ms(10), ecu="ecu0", priority=9))
        report = validate_structure(diamond_graph)
        assert report.ok
        assert any("connected" in w for w in report.warnings)

    def test_unmapped_rejected(self):
        graph = CauseEffectGraph()
        graph.add_task(source_task("s", ms(10)))
        report = validate_deployment(graph)
        assert not report.ok

    def test_duplicate_priority_rejected(self):
        graph = CauseEffectGraph()
        graph.add_task(source_task("s", ms(10), ecu="e", priority=0))
        graph.add_task(Task("a", ms(10), us(1), us(1), ecu="e", priority=1))
        graph.add_task(Task("b", ms(10), us(1), us(1), ecu="e", priority=1))
        graph.add_channel("s", "a")
        graph.add_channel("s", "b")
        report = validate_deployment(graph)
        assert not report.ok
        assert any("share priority" in err for err in report.errors)

    def test_unschedulable_rejected(self):
        graph = CauseEffectGraph()
        graph.add_task(source_task("s", ms(10), ecu="e", priority=0))
        # Two tasks whose combined demand exceeds the period.
        graph.add_task(Task("a", ms(10), ms(6), ms(1), ecu="e", priority=1))
        graph.add_task(Task("b", ms(10), ms(6), ms(1), ecu="e", priority=2))
        graph.add_channel("s", "a")
        graph.add_channel("a", "b")
        report = validate_schedulability(graph)
        assert not report.ok
        with pytest.raises(ModelError):
            System.build(graph)

    def test_validate_system_aggregates(self, diamond_graph):
        report = validate_system(diamond_graph)
        assert report.ok

    def test_raise_if_failed(self):
        report = validate_structure(CauseEffectGraph())
        with pytest.raises(ModelError):
            report.raise_if_failed()

    def test_build_without_validation_skips_checks(self):
        # Malformed source convention, but validate=False tolerates it;
        # response-time analysis still runs.
        graph = CauseEffectGraph()
        graph.add_task(Task("s", ms(10), us(1), us(1), ecu="e", priority=0))
        system = System.build(graph, validate=False)
        assert system.R("s") == us(1)


class TestResponseTimeReuse:
    @pytest.fixture
    def analyze_calls(self, monkeypatch):
        """Count ``analyze_all`` calls from validation and ``System``."""
        calls = []
        real = repro.model.system.analyze_all

        def counted(tasks, *, preemptive=False):
            calls.append(preemptive)
            return real(tasks, preemptive=preemptive)

        for module in (repro.model.system, repro.model.validation):
            monkeypatch.setattr(module, "analyze_all", counted)
        return calls

    def test_np_build_analyzes_once(self, diamond_graph, analyze_calls):
        # The schedulability check's NP-FP table is the system's table.
        system = System.build(diamond_graph)
        assert analyze_calls == [False]
        assert system.response_times == validate_system(
            diamond_graph
        ).response_times

    def test_preemptive_build_validates_under_np_fp(
        self, diamond_graph, analyze_calls
    ):
        # Validation checks R <= T under NP-FP; the table is P-FP's.
        System.build(diamond_graph, preemptive=True)
        assert analyze_calls == [False, True]
