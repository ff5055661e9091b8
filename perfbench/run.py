"""Repository benchmark: Fig. 6 campaigns, offset search, a LET cluster run.

Run from the repository root::

    python3 perfbench/run.py --workload fig6 --seed 1 --seconds 30 --trace 0

``--trace 0`` times several passes over the workload's fixed input with
nothing wrapped and prints every end-to-end metric of
``BENCHMARK.json``, medians over the passes; ``--trace 1`` runs the same
input once untraced and once with spans around each layer's entry
points, and prints every per-layer metric.  Either way
the outputs are checked, failures are printed to stderr, and the last
stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run refuses (non-zero exit, no result) when the ``repro`` source
tree is missing or the columnar C kernel does not load, since the
fallback tier is a different program.  Everything it writes (kernel
cache, temporary files, cluster shard files, spans) goes under
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

#: Modules a run needs before its first item; ``setup_s`` times a fresh
#: interpreter importing them and loading the C kernel.
SETUP_MODULES = (
    "repro.experiments.fig6",
    "repro.exact.search",
    "repro.parallel.cluster",
    "repro.let",
    "repro.sim.columnar",
)
SETUP_SAMPLES = 7

_PROBE = (
    "import " + ", ".join(SETUP_MODULES) + "\n"
    "from repro.sim.ckernel import load_kernel\n"
    "kernel, why = load_kernel()\n"
    "print('ready' if kernel is not None else f'no kernel: {why}', flush=True)\n"
)


class Refusal(Exception):
    """The run cannot measure the program it is meant to measure."""


def _environment() -> None:
    """Keep every file the run and its children write inside the checkout."""
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["REPRO_CKERNEL_CACHE"] = os.path.join(WORK, "ckernel")
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, SRC)


def _setup_sample() -> float:
    """Seconds from spawning a fresh interpreter to it being ready."""
    started = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _PROBE], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline().strip()
        ready = perf_counter() - started
        proc.stdout.read()
        proc.wait(timeout=60)
    if line != "ready":
        raise Refusal(f"set-up probe failed: {line or f'exit {proc.returncode}'}")
    return ready


def _cold_kernel_build() -> dict:
    """Build the C kernel in a fresh interpreter with an empty cache."""
    cache = tempfile.mkdtemp(prefix="ckernel-cold-", dir=WORK)
    code = (
        "from time import perf_counter\n"
        "started = perf_counter()\n"
        "from repro.sim.ckernel import load_kernel\n"
        "kernel, why = load_kernel()\n"
        "print(perf_counter() - started, int(kernel is not None))\n"
    )
    try:
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "REPRO_CKERNEL_CACHE": cache},
            capture_output=True, text=True, timeout=150, check=True,
        ).stdout.split()
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return {"build_s": float(out[0]), "loaded": int(out[1])}


def _peak_rss_mb() -> float:
    """Peak resident memory of this process (children not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(spec: dict, args) -> dict:
    """Run one workload; returns the result object printed last."""
    for module in SETUP_MODULES:
        importlib.import_module(module)
    from repro.sim.ckernel import load_kernel

    kernel, why = load_kernel()  # also warms the cache the probes load from
    if kernel is None:
        raise Refusal(f"columnar C kernel did not load ({why})")
    import tracing
    import workloads

    workload = workloads.workloads(WORK)[args.workload]
    setup_s = statistics.median(_setup_sample() for _ in range(SETUP_SAMPLES))
    data = workload.make_input(args.seed, args.seconds)

    if not args.trace:
        outcome = workload.run(data, workloads.PASSES)
        peak = (
            statistics.median(outcome.item_peaks_mb)
            if outcome.item_peaks_mb
            else _peak_rss_mb()
        )
        attempted, failures = workload.verify(data, outcome)
        metrics = {"wall_s": outcome.wall_s, "setup_s": setup_s, "peak_rss_mb": peak}
        units = spec["end_to_end"]
    else:
        plain = workload.run(data)
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            traced = workload.run(data)
        finally:
            tracer.restore()
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))
        attempted, failures = workload.verify(data, plain)
        if traced.csv != plain.csv:
            attempted += 1
            failures.append(
                f"{args.workload}: traced CSV differs from the untraced run's"
            )
        metrics = tracing.layer_metrics(tracer, plain, traced, _cold_kernel_build())
        units = spec["per_layer"]

    expected = [entry["name"] for entry in units]
    if sorted(metrics) != sorted(expected):
        mismatch = sorted(set(metrics) ^ set(expected))
        raise RuntimeError(f"metrics {mismatch} disagree with BENCHMARK.json")
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    failed_frac = len(failures) / attempted
    print(f"{args.workload} seed {args.seed}: {attempted} item(s) checked, "
          f"{len(failures)} failed")
    if not args.trace:
        walls = ", ".join(f"{wall:.3f}" for wall in outcome.pass_walls)
        print(f"  pass walls {walls} s")
    for entry in units:
        print(f"  {entry['name']} {metrics[entry['name']]:.6g} {entry['unit']}")
    print(f"  failed_frac {failed_frac:.6g} ratio")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in units
        },
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    _environment()
    try:
        result = measure(spec, args)
    except Refusal as exc:
        print(f"perfbench: refusing to measure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
