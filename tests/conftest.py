"""Shared fixtures: small hand-analyzable systems.

The fixtures build deployments whose response times and backward-time
bounds are easy to compute by hand, so tests can assert exact values
rather than "it ran".  All times use integer milliseconds via
``repro.units.ms`` to keep the arithmetic readable.

``--sanitize-kernel`` builds the columnar C kernel with AddressSanitizer
and UBSan for the whole session; the interpreter must then run with the
sanitizer runtimes preloaded, e.g.::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) \
    $(gcc -print-file-name=libubsan.so)" ASAN_OPTIONS=detect_leaks=0 \
    python -m pytest --sanitize-kernel tests/test_batch_columnar.py
"""

from __future__ import annotations

import random

import pytest

from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import Task, source_task
from repro.sim import ckernel
from repro.units import ms

#: Kernel build flags under ``--sanitize-kernel``: any out-of-bounds
#: access or undefined behaviour aborts the run with a report.
SANITIZE_CFLAGS = (
    "-O1", "-g", "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined", "-fPIC", "-shared", "-pthread",
)


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize-kernel", action="store_true", default=False,
        help="build the columnar C kernel with ASan and UBSan (preload "
        "libasan and libubsan)",
    )


def pytest_configure(config):
    """Swap in the sanitized kernel before any test module loads one."""
    if not config.getoption("--sanitize-kernel"):
        return
    ckernel.CFLAGS = SANITIZE_CFLAGS
    ckernel.reset_kernel_state()
    kernel, why = ckernel.load_kernel()
    if kernel is None:
        raise pytest.UsageError(f"sanitized kernel did not load: {why}")


def build_diamond_graph() -> CauseEffectGraph:
    """Single source, diamond, single sink — the Theorem 2 showcase.

    Structure::

        s -> a -> m -> x -> sink
                  m -> y -> sink    (diamond between m and sink)
        s -> b -> m                 (diamond between s and m)

    All tasks run on one ECU with priorities along the topological
    order (producers have higher priority than consumers), so every
    same-unit hop budget of Lemma 4 is exactly ``T(producer)``.
    """
    graph = CauseEffectGraph()
    graph.add_task(source_task("s", ms(10), ecu="ecu0", priority=0))
    graph.add_task(Task("a", ms(10), ms(1), ms(1), ecu="ecu0", priority=1))
    graph.add_task(Task("b", ms(20), ms(1), ms(1), ecu="ecu0", priority=2))
    graph.add_task(Task("m", ms(20), ms(1), ms(1), ecu="ecu0", priority=3))
    graph.add_task(Task("x", ms(20), ms(1), ms(1), ecu="ecu0", priority=4))
    graph.add_task(Task("y", ms(40), ms(1), ms(1), ecu="ecu0", priority=5))
    graph.add_task(Task("sink", ms(40), ms(1), ms(1), ecu="ecu0", priority=6))
    graph.add_channel("s", "a")
    graph.add_channel("s", "b")
    graph.add_channel("a", "m")
    graph.add_channel("b", "m")
    graph.add_channel("m", "x")
    graph.add_channel("m", "y")
    graph.add_channel("x", "sink")
    graph.add_channel("y", "sink")
    return graph


def build_two_source_graph() -> CauseEffectGraph:
    """Two sensors fused by one task — the minimal disparity scenario.

    ``cam -> fuse <- lidar`` with different sampling periods, one ECU.
    """
    graph = CauseEffectGraph()
    graph.add_task(source_task("cam", ms(10), ecu="ecu0", priority=0))
    graph.add_task(source_task("lidar", ms(30), ecu="ecu0", priority=1))
    graph.add_task(Task("fuse", ms(30), ms(2), ms(1), ecu="ecu0", priority=2))
    graph.add_channel("cam", "fuse")
    graph.add_channel("lidar", "fuse")
    return graph


def build_merged_chains_graph() -> CauseEffectGraph:
    """Two disjoint 3-stage chains merged at one sink (Fig. 6c shape)."""
    graph = CauseEffectGraph()
    graph.add_task(source_task("sa", ms(10), ecu="ecu0", priority=0))
    graph.add_task(source_task("sb", ms(50), ecu="ecu0", priority=1))
    graph.add_task(Task("pa", ms(10), ms(1), ms(1), ecu="ecu0", priority=2))
    graph.add_task(Task("pb", ms(50), ms(2), ms(1), ecu="ecu0", priority=3))
    graph.add_task(Task("sink", ms(20), ms(1), ms(1), ecu="ecu0", priority=4))
    graph.add_channel("sa", "pa")
    graph.add_channel("sb", "pb")
    graph.add_channel("pa", "sink")
    graph.add_channel("pb", "sink")
    return graph


@pytest.fixture
def diamond_graph() -> CauseEffectGraph:
    return build_diamond_graph()


@pytest.fixture
def diamond_system(diamond_graph) -> System:
    return System.build(diamond_graph)


@pytest.fixture
def two_source_graph() -> CauseEffectGraph:
    return build_two_source_graph()


@pytest.fixture
def two_source_system(two_source_graph) -> System:
    return System.build(two_source_graph)


@pytest.fixture
def merged_graph() -> CauseEffectGraph:
    return build_merged_chains_graph()


@pytest.fixture
def merged_system(merged_graph) -> System:
    return System.build(merged_graph)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
