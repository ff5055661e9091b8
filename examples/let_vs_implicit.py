#!/usr/bin/env python3
"""LET versus implicit communication: the disparity/latency trade-off.

The Logical Execution Time paradigm (reads at release, publishes at
the deadline) removes all scheduling jitter from the data flow.  For
time disparity this cuts both ways:

* sampling windows become narrow and deterministic — the *disparity*
  bound typically shrinks and no longer depends on priorities or
  execution times;
* every non-source hop delays data by one full period — the *data age*
  grows.

This script quantifies both effects on the same two-sensor pipeline,
analytically and in simulation.

Run:  python examples/let_vs_implicit.py
"""

from repro import (
    CauseEffectGraph,
    System,
    Task,
    format_time,
    ms,
    source_task,
)
from repro.api import AnalysisSession
from repro.let import semantics_tradeoff
from repro.units import seconds


def build_system() -> System:
    graph = CauseEffectGraph()
    graph.add_task(source_task("cam", ms(10), ecu="e", priority=0))
    graph.add_task(source_task("lidar", ms(50), ecu="e", priority=1))
    graph.add_task(Task("img", ms(10), ms(2), ms(1), ecu="e", priority=2))
    graph.add_task(Task("pcl", ms(50), ms(8), ms(3), ecu="e", priority=3))
    graph.add_task(Task("fuse", ms(50), ms(4), ms(2), ecu="e", priority=4))
    graph.add_channel("cam", "img")
    graph.add_channel("lidar", "pcl")
    graph.add_channel("img", "fuse")
    graph.add_channel("pcl", "fuse")
    return System.build(graph)


def main() -> None:
    system = build_system()

    print("=== per-chain backward-time windows ===")
    # One session per semantics: its ``semantics`` picks the bounds.
    implicit_session = AnalysisSession(system)
    let_session = AnalysisSession(system, semantics="let")
    for chain in implicit_session.chains("fuse"):
        imp = implicit_session.backward(chain)
        let = let_session.backward(chain)
        print(f"  {' -> '.join(chain.tasks)}")
        print(
            f"    implicit: [{format_time(imp.bcbt)}, {format_time(imp.wcbt)}]"
            f"  LET: [{format_time(let.bcbt)}, {format_time(let.wcbt)}]"
        )

    # One paired study: analytical bound + 6 batched random-offset
    # replications per semantics, both semantics on identical seed
    # streams (delta-replayed through one compiled scenario each).
    result = semantics_tradeoff(
        system, "fuse", sims=6, duration=seconds(8), warmup=seconds(1), seed=3
    )

    print("\n=== worst-case time disparity of 'fuse' ===")
    print(f"  implicit (Theorem 2): {format_time(result.implicit.bound)}")
    print(f"  LET:                  {format_time(result.let.bound)}")

    print("\n=== simulated disparity (6 random-offset runs each) ===")
    for point in result.points:
        print(
            f"  {point.semantics:<9} observed {format_time(point.observed):>11} "
            f"<= bound {format_time(point.bound):>11}: {point.sound}"
        )

    print("\nLET makes the sampling windows deterministic (no response-time")
    print("terms, no execution jitter) but shifts every window right by one")
    print("producer period per non-source hop.  Whether the *disparity*")
    print("improves depends on how the extra shifts balance across the two")
    print("chains — here the slow LiDAR chain pays more, so implicit")
    print("communication wins on disparity while LET wins on determinism.")


if __name__ == "__main__":
    main()
