"""Spans around the program's layer entry points, recorded from outside.

The benchmark wraps the public entry point of each ``repro`` layer for
the length of one traced pass and restores the originals afterwards;
no file of the program changes.  Each call becomes a span
``[name, start, end, parent]`` kept in memory and written out as JSON
lines when the run ends.  Self time is a span's duration minus the part
of it covered by its child spans.

Counters are recorded at the same boundaries (calls, chain pairs,
simulated replications, engine tier per batch, compiled-scenario LRU
traffic), so ratios are taken where the work happens.  The metric
names, and which end-to-end metric each should move on which
workload, are listed in ``LAYERS.md`` next to this file.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """In-memory span recorder over monkey-patched entry points."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None]`` per call.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`restore`.

        ``before(args, kwargs)`` runs ahead of the span and its return
        value is handed to ``after(counts, args, kwargs, result, state)``,
        which runs once the span has closed, so neither adds to the
        span's duration.
        """
        original = getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts[name] += 1
            if after is not None:
                after(counts, args, kwargs, result, state)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def busy(self, name: str) -> float:
        """Summed duration of the spans called ``name`` (children included)."""
        return sum(end - start for span_name, start, end, _ in self.spans
                   if span_name == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus time covered by children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: Dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's entry points (see ``LAYERS.md``).

    Functions are wrapped where their callers look them up: the Fig. 6
    harness imported its generators, the fork-join bound and Algorithm 1
    by name, so those names are wrapped in :mod:`repro.experiments.fig6`.
    """
    from repro.api import AnalysisSession
    from repro.exact import search
    from repro.experiments import fig6
    from repro.gen import scenario
    from repro.sim.batch import CompiledScenario

    def chain_pairs(counts, args, kwargs, result, state) -> None:
        session, task = args[0], args[1]
        n = len(session.chains(task))
        counts["core.chain_pairs"] += n * (n - 1) // 2

    def one_pair(counts, args, kwargs, result, state) -> None:
        counts["core.chain_pairs"] += 1

    def lru_before(args, kwargs) -> dict:
        return args[0].compiled_cache_stats()

    def batch_after(counts, args, kwargs, result, before) -> None:
        now = args[0].compiled_cache_stats()
        counts["sim.batch.lru_hits"] += now["hits"] - before["hits"]
        counts["sim.batch.lru_misses"] += now["misses"] - before["misses"]
        counts["sim.batch.sims"] += result.sims
        counts["sim.batch.tier_" + result.engine] += 1
        if result.engine == "columnar":
            counts["sim.columnar.sims"] += result.sims

    def search_after(counts, args, kwargs, result, state) -> None:
        counts["exact.search.evals"] += result.evaluations

    tracer.wrap(scenario, "generate_random_scenario", "gen")
    tracer.wrap(fig6, "generate_random_scenario", "gen")
    tracer.wrap(fig6, "generate_merged_pair_scenario", "gen")
    tracer.wrap(AnalysisSession, "disparity", "core", after=chain_pairs)
    tracer.wrap(fig6, "disparity_bound_forkjoin", "core", after=one_pair)
    tracer.wrap(fig6, "design_buffer_pair", "buffers")
    tracer.wrap(AnalysisSession, "observed_batch", "sim.batch.run",
                before=lru_before, after=batch_after)
    tracer.wrap(CompiledScenario, "__init__", "sim.batch.compile")
    tracer.wrap(search, "maximize_disparity_offsets", "exact.search",
                after=search_after)
    tracer.wrap(search, "steady_state_disparity", "exact.search.fallback")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, plain, traced, kernel: dict) -> Dict[str, float]:
    """Per-layer numbers of one traced pass.

    ``plain`` and ``traced`` are the workload's untraced and traced
    outcomes of the same input; ``kernel`` holds the cold build time and
    load status of the columnar C kernel.
    """
    counts, phases, details = tracer.counts, traced.phases, traced.details
    batches = counts["sim.batch.run"]
    columnar_s = phases["draw_s"] + phases["advance_s"] + phases["derive_s"]
    search_s = tracer.busy("exact.search")
    stages = details.get("stages")
    if stages is not None:
        # Cluster workers run in their own processes: their busy time
        # per stage is read back from the per-graph timing in the shard
        # records, and the coordinator's own wall is the rest.
        gen_s = stages["generate_s"]
        core_s = stages["analyze_s"]
        sim_s = stages["simulate_s"]
        worker_busy = gen_s + core_s + sim_s
        unattributed = traced.wall_s - worker_busy
        utilization = _ratio(worker_busy, traced.wall_s * details["workers"])
    else:
        gen_s = tracer.busy("gen")
        core_s = tracer.busy("core")
        sim_s = tracer.busy("sim.batch.run")
        worker_busy = 0.0
        unattributed = traced.wall_s - sum(tracer.self_times().values())
        utilization = details.get("utilization", 0.0)
    report = details.get("report")
    return {
        "gen.busy_s": gen_s,
        "gen.calls": counts["gen"],
        "core.busy_s": core_s,
        "core.calls": counts["core"],
        "core.chain_pairs": counts["core.chain_pairs"],
        "buffers.busy_s": tracer.busy("buffers"),
        "sim.batch.compile_s": phases["compile_s"],
        "sim.batch.compiles": counts["sim.batch.compile"],
        "sim.batch.run_s": sim_s,
        "sim.batch.batches": batches,
        "sim.batch.sims": counts["sim.batch.sims"],
        "sim.batch.replicate_s": phases["replicate_s"],
        "sim.batch.tier_columnar": counts["sim.batch.tier_columnar"],
        "sim.batch.tier_compiled": counts["sim.batch.tier_compiled"],
        "sim.batch.tier_simulator": counts["sim.batch.tier_simulator"],
        "sim.batch.columnar_frac": _ratio(counts["sim.batch.tier_columnar"], batches),
        "sim.batch.lru_hits": counts["sim.batch.lru_hits"],
        "sim.batch.lru_misses": counts["sim.batch.lru_misses"],
        "sim.columnar.draw_s": phases["draw_s"],
        "sim.columnar.advance_s": phases["advance_s"],
        "sim.columnar.derive_s": phases["derive_s"],
        "sim.columnar.sims_per_s": _ratio(counts["sim.columnar.sims"], columnar_s),
        "sim.ckernel.build_s": kernel["build_s"],
        "sim.ckernel.loaded": kernel["loaded"],
        "exact.search.busy_s": search_s,
        "exact.search.evals": counts["exact.search.evals"],
        "exact.search.evals_per_s": _ratio(counts["exact.search.evals"], search_s),
        "exact.search.fallback_evals": counts["exact.search.fallback"],
        "parallel.engine.utilization": utilization,
        "parallel.checkpoint.records": details.get("records", 0),
        "parallel.checkpoint.bytes": details.get("bytes", 0),
        "parallel.cluster.shard_wall_s": (
            sum(shard.wall_s for shard in report.shards) if report else 0.0
        ),
        "parallel.cluster.worker_busy_s": worker_busy,
        "parallel.cluster.overhead_s": traced.wall_s - worker_busy if report else 0.0,
        "parallel.cluster.deaths": report.deaths if report else 0,
        "parallel.cluster.re_issues": report.re_issues if report else 0,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "trace.unattributed_s": unattributed,
    }
