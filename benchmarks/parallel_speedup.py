"""Measure the Fig. 6 harness speedup over the seed-equivalent baseline.

Usage::

    python -m benchmarks.parallel_speedup --preset default --jobs 4

Runs the (a)/(b) sweep twice on the same preset — once with the C
kernel reported unavailable, so every replication falls back to the
per-replication reference simulator, and no worker pool (the seed's
configuration), once with the batched replay tiers and ``--jobs``
workers — and writes the wall times,
speedup, and worker utilization to
``benchmarks/out/parallel_speedup_<preset>_ab.json``.

The two runs cover the same workload (same preset, same pre-derived
per-graph seeds) and produce identical simulated series, since every
tier is byte-identical to the simulator.  The speedup multiplies the
single-core batched-replay gain with the process-level parallel gain;
on a single-CPU host the latter is ~1x and the report's ``cpus`` field
says so.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.fig6 import AB_PART
from repro.parallel import run_campaign
from repro.sim import ckernel


def measure_speedup(config, *, jobs: int = 4) -> dict:
    """Baseline (seed-equivalent serial) vs optimized (batched + pool)."""
    original = ckernel.load_kernel
    ckernel.load_kernel = lambda: (None, "disabled for the baseline pass")
    try:
        started = time.perf_counter()
        run_campaign(AB_PART, config, jobs=1)
        baseline_s = time.perf_counter() - started
    finally:
        ckernel.load_kernel = original

    started = time.perf_counter()
    _, timing = run_campaign(AB_PART, config, jobs=jobs)
    optimized_s = time.perf_counter() - started

    return {
        "workload": repr(config),
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "baseline_s": round(baseline_s, 3),
        "optimized_s": round(optimized_s, 3),
        "speedup": round(baseline_s / optimized_s, 3),
        "utilization": timing.utilization,
        "stage_totals": timing.stage_totals(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--preset", choices=("paper", "default", "smoke"), default="default"
    )
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out", help="output JSON path (default: out/)")
    args = parser.parse_args(argv)

    from repro.experiments.runner import preset_ab

    config = preset_ab(args.preset)
    report = measure_speedup(config, jobs=args.jobs)
    report["preset"] = args.preset

    out = Path(
        args.out
        or Path(__file__).parent / "out" / f"parallel_speedup_{args.preset}_ab.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"baseline {report['baseline_s']:.2f}s -> optimized "
        f"{report['optimized_s']:.2f}s = {report['speedup']:.2f}x "
        f"({args.jobs} workers, {report['cpus']} CPU(s))"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
