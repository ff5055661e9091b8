"""Tests for the random graph generators."""

import os
import random
import subprocess
import sys

import pytest

from repro.gen.graphgen import (
    chain_graph,
    count_source_sink_paths,
    deploy,
    from_networkx,
    fusion_pipeline_graph,
    merged_chain_pair,
    random_cause_effect_graph,
    random_dag_edges,
    to_networkx,
)
from repro.model.task import ModelError
from repro.model.validation import validate_structure


class TestRandomDagEdges:
    def test_single_sink(self, rng):
        for n in (5, 12, 30):
            edges = random_dag_edges(n, round(1.5 * n), rng)
            out_degree = [0] * n
            for a, b in edges:
                assert a < b  # DAG orientation
                out_degree[a] += 1
            sinks = [v for v in range(n) if out_degree[v] == 0]
            assert sinks == [n - 1]

    def test_no_isolated_nodes(self, rng):
        edges = random_dag_edges(10, 5, rng)
        touched = set()
        for a, b in edges:
            touched.add(a)
            touched.add(b)
        assert touched == set(range(10))

    def test_too_few_tasks_rejected(self, rng):
        with pytest.raises(ModelError):
            random_dag_edges(1, 1, rng)

    def test_edge_count_capped(self, rng):
        edges = random_dag_edges(5, 100, rng)
        assert len(edges) <= 10  # C(5, 2)


class TestGnmGraph:
    def test_structure_valid(self, rng):
        for n in (5, 20, 35):
            graph = random_cause_effect_graph(n, rng)
            assert len(graph) == n
            report = validate_structure(graph)
            assert report.ok, report.errors
            assert len(graph.sinks()) == 1

    def test_sources_have_zero_wcet(self, rng):
        graph = random_cause_effect_graph(15, rng)
        for name in graph.sources():
            task = graph.task(name)
            assert task.wcet == 0 and task.bcet == 0

    def test_deterministic_per_seed(self):
        g1 = random_cause_effect_graph(12, random.Random(3))
        g2 = random_cause_effect_graph(12, random.Random(3))
        assert [t.name for t in g1.tasks] == [t.name for t in g2.tasks]
        assert [(c.src, c.dst) for c in g1.channels] == [
            (c.src, c.dst) for c in g2.channels
        ]


class TestFusionPipeline:
    def test_exact_task_count(self, rng):
        for n in (4, 5, 10, 20, 35):
            graph = fusion_pipeline_graph(n, rng)
            assert len(graph) == n, f"n={n}"

    def test_single_sink_multi_source(self, rng):
        graph = fusion_pipeline_graph(20, rng)
        assert len(graph.sinks()) == 1
        assert len(graph.sources()) >= 2
        assert validate_structure(graph).ok

    def test_all_sources_reach_sink(self, rng):
        graph = fusion_pipeline_graph(25, rng)
        sink = graph.sinks()[0]
        for source in graph.sources():
            assert next(graph.paths_between(source, sink), None) is not None

    def test_too_small_rejected(self, rng):
        with pytest.raises(ModelError):
            fusion_pipeline_graph(3, rng)

    def test_fusion_node_is_bottleneck(self, rng):
        # Every source-to-sink chain passes through "fuse".
        graph = fusion_pipeline_graph(15, rng)
        sink = graph.sinks()[0]
        for source in graph.sources():
            for path in graph.paths_between(source, sink):
                assert "fuse" in path


class TestMergedChains:
    def test_structure(self, rng):
        graph = merged_chain_pair(6, rng)
        assert len(graph) == 2 * 6 - 1  # shared sink
        assert set(graph.sources()) == {"a0", "b0"}
        assert graph.sinks() == ("sink",)

    def test_chains_disjoint_except_sink(self, rng):
        graph = merged_chain_pair(5, rng)
        paths = list(graph.paths_between("a0", "sink"))
        assert len(paths) == 1
        assert not any(task.startswith("b") for task in paths[0])

    def test_minimum_size(self, rng):
        with pytest.raises(ModelError):
            merged_chain_pair(2, rng)


class TestChainGraph:
    def test_linear(self, rng):
        graph = chain_graph(5, rng)
        assert len(graph) == 5
        assert graph.sources() == ("c0",)
        assert graph.sinks() == ("c4",)

    def test_too_small(self, rng):
        with pytest.raises(ModelError):
            chain_graph(1, rng)


class TestPathCounting:
    def test_matches_enumeration(self, rng):
        from repro.model.chain import enumerate_source_chains

        for _ in range(5):
            graph = random_cause_effect_graph(12, rng)
            sink = graph.sinks()[0]
            counted = count_source_sink_paths(graph, sink)
            enumerated = len(enumerate_source_chains(graph, sink))
            assert counted == enumerated


class TestDeploy:
    def test_all_mapped_and_prioritized(self, rng):
        graph = fusion_pipeline_graph(12, rng)
        deployed = deploy(graph, rng, n_ecus=2)
        for task in deployed.tasks:
            assert task.ecu is not None
            assert task.priority is not None

    def test_message_tasks_inserted(self, rng):
        # With several ECUs some edge crosses almost surely at n=20.
        graph = fusion_pipeline_graph(20, rng)
        deployed = deploy(graph, rng, n_ecus=3)
        messages = [t for t in deployed.tasks if t.kind == "message"]
        assert messages  # statistically certain with 3 ECUs
        assert all(t.ecu == "can0" for t in messages)

    def test_single_ecu_no_messages(self, rng):
        graph = fusion_pipeline_graph(12, rng)
        deployed = deploy(graph, rng, n_ecus=1)
        assert not [t for t in deployed.tasks if t.kind == "message"]


class TestNetworkxInterop:
    def test_roundtrip(self, rng):
        graph = deploy(fusion_pipeline_graph(10, rng), rng, n_ecus=1)
        digraph = to_networkx(graph)
        back = from_networkx(digraph)
        assert set(back.task_names) == set(graph.task_names)
        assert {(c.src, c.dst) for c in back.channels} == {
            (c.src, c.dst) for c in graph.channels
        }
        for name in graph.task_names:
            assert back.task(name).period == graph.task(name).period
            assert back.task(name).ecu == graph.task(name).ecu


def test_runtime_imports_leave_networkx_out():
    # networkx is imported only by the gnm generator and the interop
    # helpers; campaigns, cluster workers and the replay never pay for
    # it.  A fresh interpreter, since this one imported it already.
    code = (
        "import sys\n"
        "import repro, repro.experiments.fig6, repro.parallel.cluster\n"
        "import repro.parallel.worker, repro.sim.columnar\n"
        "print([m for m in sys.modules if m.startswith('networkx')])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout
    assert out.strip() == "[]"
