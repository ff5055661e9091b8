"""Tests for chains, enumeration, decomposition, and suffix truncation."""

import pytest

from repro.chains.backward import BackwardBoundsCache
from repro.core.pairwise import disparity_bound_forkjoin
from repro.model.chain import (
    Chain,
    common_tasks,
    decompose_pair,
    enumerate_all_chains,
    enumerate_source_chains,
    joint_positions,
)
from repro.model.task import ModelError


class TestChainBasics:
    def test_of(self):
        chain = Chain.of("a", "b", "c")
        assert chain.head == "a"
        assert chain.tail == "c"
        assert len(chain) == 3

    def test_iteration_and_indexing(self):
        chain = Chain.of("a", "b", "c")
        assert list(chain) == ["a", "b", "c"]
        assert chain[1] == "b"
        assert chain.index("c") == 2

    def test_edges(self):
        assert Chain.of("a", "b", "c").edges() == (("a", "b"), ("b", "c"))

    def test_sub(self):
        assert Chain.of("a", "b", "c", "d").sub(1, 3).tasks == ("b", "c")

    def test_empty_sub_rejected(self):
        with pytest.raises(ModelError):
            Chain.of("a", "b").sub(1, 1)

    def test_empty_chain_rejected(self):
        with pytest.raises(ModelError):
            Chain(())

    def test_repeated_task_rejected(self):
        with pytest.raises(ModelError):
            Chain.of("a", "b", "a")

    def test_singleton_chain(self):
        chain = Chain.of("a")
        assert chain.head == chain.tail == "a"

    def test_validate_against_graph(self, diamond_graph):
        Chain.of("s", "a", "m").validate(diamond_graph)
        with pytest.raises(ModelError):
            Chain.of("s", "m").validate(diamond_graph)

    def test_resolve(self, diamond_graph):
        tasks = Chain.of("s", "a").resolve(diamond_graph)
        assert [t.name for t in tasks] == ["s", "a"]


class TestEnumeration:
    def test_source_chains_to_sink(self, diamond_graph):
        chains = enumerate_source_chains(diamond_graph, "sink")
        assert len(chains) == 4
        assert all(chain.head == "s" and chain.tail == "sink" for chain in chains)

    def test_source_chains_to_middle(self, diamond_graph):
        chains = enumerate_source_chains(diamond_graph, "m")
        assert {chain.tasks for chain in chains} == {
            ("s", "a", "m"),
            ("s", "b", "m"),
        }

    def test_source_chain_of_source(self, diamond_graph):
        chains = enumerate_source_chains(diamond_graph, "s")
        assert chains == (Chain(("s",)),)

    def test_two_source_graph(self, two_source_graph):
        chains = enumerate_source_chains(two_source_graph, "fuse")
        assert {chain.tasks for chain in chains} == {
            ("cam", "fuse"),
            ("lidar", "fuse"),
        }

    def test_enumerate_all(self, merged_graph):
        chains = enumerate_all_chains(merged_graph)
        assert {chain.tasks for chain in chains} == {
            ("sa", "pa", "sink"),
            ("sb", "pb", "sink"),
        }


class TestCommonTasks:
    def test_excludes_sources_by_default(self, diamond_graph):
        lam = Chain.of("s", "a", "m", "x", "sink")
        nu = Chain.of("s", "b", "m", "y", "sink")
        assert common_tasks(lam, nu, diamond_graph) == ("m", "sink")

    def test_includes_sources_on_request(self, diamond_graph):
        lam = Chain.of("s", "a", "m", "x", "sink")
        nu = Chain.of("s", "b", "m", "y", "sink")
        assert common_tasks(lam, nu, diamond_graph, include_sources=True) == (
            "s",
            "m",
            "sink",
        )

    def test_disjoint_chains(self, merged_graph):
        lam = Chain.of("sa", "pa", "sink")
        nu = Chain.of("sb", "pb", "sink")
        assert common_tasks(lam, nu, merged_graph) == ("sink",)

    def test_positions_in_chain_order(self):
        lam = ("s", "a", "m", "x", "sink")
        nu = ("s", "b", "m", "y", "sink")
        positions = {name: k for k, name in enumerate(nu)}
        assert joint_positions(lam, nu, positions, 1) == [(2, 2), (4, 4)]
        # Positions past a truncated nu are ignored.
        assert joint_positions(lam[:3], nu[:3], positions, 1) == [(2, 2)]

    def test_order_disagreement_rejected(self, diamond_graph):
        lam = Chain.of("s", "a", "m", "sink")
        nu = Chain.of("s", "m", "a", "sink")
        message = (
            "common tasks of Chain(s -> a -> m -> sink) and "
            "Chain(s -> m -> a -> sink) disagree in order: "
            "['a', 'm', 'sink'] vs ['m', 'a', 'sink']"
        )
        with pytest.raises(ModelError) as err:
            common_tasks(lam, nu, diamond_graph)
        assert str(err.value) == message
        with pytest.raises(ModelError) as err:
            decompose_pair(lam, nu, diamond_graph)
        assert str(err.value) == message


class TestDecomposition:
    def test_diamond_pair(self, diamond_graph):
        lam = Chain.of("s", "a", "m", "x", "sink")
        nu = Chain.of("s", "b", "m", "y", "sink")
        decomposition = decompose_pair(lam, nu, diamond_graph)
        assert decomposition.joints == ("m", "sink")
        assert decomposition.c == 2
        assert decomposition.alphas[0].tasks == ("s", "a", "m")
        assert decomposition.betas[0].tasks == ("s", "b", "m")
        assert decomposition.alphas[1].tasks == ("m", "x", "sink")
        assert decomposition.betas[1].tasks == ("m", "y", "sink")

    def test_disjoint_pair_single_joint(self, merged_graph):
        lam = Chain.of("sa", "pa", "sink")
        nu = Chain.of("sb", "pb", "sink")
        decomposition = decompose_pair(lam, nu, merged_graph)
        assert decomposition.joints == ("sink",)
        assert decomposition.alphas[0] == lam
        assert decomposition.betas[0] == nu

    def test_mismatched_tails_rejected(self, diamond_graph):
        with pytest.raises(ModelError):
            decompose_pair(
                Chain.of("s", "a", "m"),
                Chain.of("s", "b", "m", "x"),
                diamond_graph,
            )


class TestSuffixTruncation:
    """Theorem 2 cuts a shared suffix before decomposing (by index).

    The evidence of :func:`disparity_bound_forkjoin` shows the cut: its
    decomposition holds the truncated pair and ``analyzed_task`` is the
    first task of the shared suffix.
    """

    @staticmethod
    def _evidence(system, lam, nu):
        return disparity_bound_forkjoin(lam, nu, BackwardBoundsCache(system))

    def test_shared_suffix_cut(self, diamond_system):
        lam = Chain.of("s", "a", "m", "x", "sink")
        nu = Chain.of("s", "b", "m", "x", "sink")
        result = self._evidence(diamond_system, lam, nu)
        assert result.analyzed_task == "m"
        assert result.decomposition.lam.tasks == ("s", "a", "m")
        assert result.decomposition.nu.tasks == ("s", "b", "m")

    def test_no_shared_suffix_beyond_tail(self, merged_system):
        lam = Chain.of("sa", "pa", "sink")
        nu = Chain.of("sb", "pb", "sink")
        result = self._evidence(merged_system, lam, nu)
        assert result.analyzed_task == "sink"
        assert result.decomposition.lam == lam
        assert result.decomposition.nu == nu

    def test_identical_chains_degenerate(self, diamond_system):
        lam = Chain.of("s", "a", "m", "x", "sink")
        result = self._evidence(diamond_system, lam, lam)
        assert result.analyzed_task == "s"
        assert result.bound == 0
        assert result.decomposition is None

    def test_diamond_not_truncated_through_divergence(self, diamond_system):
        # Shared suffix is only the sink; the diamond (x vs y) blocks
        # further truncation even though m is common.
        lam = Chain.of("s", "a", "m", "x", "sink")
        nu = Chain.of("s", "b", "m", "y", "sink")
        result = self._evidence(diamond_system, lam, nu)
        assert result.analyzed_task == "sink"
        assert result.decomposition.lam == lam

    def test_mismatched_tails_rejected(self, diamond_system):
        with pytest.raises(ModelError, match="must end at the same task"):
            self._evidence(
                diamond_system, Chain.of("s", "a", "m"), Chain.of("s", "b", "m", "x")
            )
