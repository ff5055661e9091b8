"""The analyzed system: graph + platform + cached scheduling facts.

:class:`System` is the object every analysis consumes.  It bundles a
validated cause-effect graph with the response-time table computed once
under non-preemptive fixed-priority scheduling, and exposes the
accessors the paper's formulas read: ``T``, ``W``, ``B`` (task
parameters), ``R`` (WCRT), ``hp`` membership, and same-unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.model.chain import Chain
from repro.model.graph import CauseEffectGraph
from repro.model.task import ModelError, Task
from repro.model.validation import validate_system
from repro.sched.response_time import ResponseTimeTable, analyze_all
from repro.units import Time


@dataclass(frozen=True)
class System:
    """An immutable, validated, analyzable cause-effect system."""

    graph: CauseEffectGraph
    response_times: ResponseTimeTable

    @classmethod
    def build(
        cls,
        graph: CauseEffectGraph,
        *,
        validate: bool = True,
        preemptive: bool = False,
    ) -> "System":
        """Validate ``graph`` and pre-compute response times.

        Validation's schedulability check already analyzes under NP-FP,
        so a validated NP-FP build reuses that table.
        ``preemptive=True`` analyzes under preemptive FP instead (an
        extension; the paper's Lemma 4 is specific to non-preemptive
        scheduling, and the backward-time analysis rejects preemptive
        systems unless explicitly asked to use scheduler-agnostic
        bounds).  Validation still checks ``R <= T`` under NP-FP then,
        the paper's standing assumption.
        """
        table = None
        if validate:
            report = validate_system(graph)
            report.raise_if_failed()
            table = report.response_times
        if preemptive or table is None:
            table = analyze_all(graph.tasks, preemptive=preemptive)
        return cls(graph=graph, response_times=table)

    # ------------------------------------------------------------------
    # parameter accessors (paper notation)
    # ------------------------------------------------------------------

    def task(self, name: str) -> Task:
        """Look up a task of the underlying graph by name."""
        return self.graph.task(name)

    def T(self, name: str) -> Time:
        """Period ``T(tau)``."""
        return self.graph.task(name).period

    def W(self, name: str) -> Time:
        """Worst-case execution time ``W(tau)``."""
        return self.graph.task(name).wcet

    def B(self, name: str) -> Time:
        """Best-case execution time ``B(tau)``."""
        return self.graph.task(name).bcet

    def R(self, name: str) -> Time:
        """Worst-case response time ``R(tau)`` under the system scheduler."""
        return self.response_times[name]

    def same_unit(self, a: str, b: str) -> bool:
        """True when both tasks execute on the same processing unit."""
        return self.graph.task(a).ecu == self.graph.task(b).ecu

    def in_hp(self, a: str, b: str) -> bool:
        """True when ``a`` is in ``hp(b)``: same unit and higher priority."""
        ta = self.graph.task(a)
        tb = self.graph.task(b)
        if ta.ecu != tb.ecu:
            return False
        if ta.priority is None or tb.priority is None:
            raise ModelError(f"tasks {a!r}/{b!r} lack priorities")
        return ta.priority < tb.priority

    def is_source(self, name: str) -> bool:
        """True when ``name`` is a source task of the graph."""
        return self.graph.is_source(name)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def chain(self, *tasks: str) -> Chain:
        """Build and validate a chain against this system's graph."""
        chain = Chain(tuple(tasks))
        chain.validate(self.graph)
        return chain

    def with_channel_capacity(self, src: str, dst: str, capacity: int) -> "System":
        """A new system whose channel ``src->dst`` has the given capacity.

        Buffer sizes do not affect scheduling, so the response-time
        table is reused as-is.
        """
        modified = self.graph.copy()
        modified.set_channel_capacity(src, dst, capacity)
        return System(graph=modified, response_times=self.response_times)

    def with_offsets(self, offsets: Mapping[str, Time]) -> "System":
        """A new system whose named tasks have the given release offsets.

        Offsets do not enter the response-time analysis, so the table
        is reused as-is.
        """
        return System(
            graph=self.graph.with_offsets(offsets),
            response_times=self.response_times,
        )

    def with_buffer_plan(self, plan: Dict[Tuple[str, str], int]) -> "System":
        """Apply several channel capacities at once (Algorithm 1 output)."""
        modified = self.graph.copy()
        for (src, dst), capacity in plan.items():
            modified.set_channel_capacity(src, dst, capacity)
        return System(graph=modified, response_times=self.response_times)

    def describe(self) -> str:
        """Multi-line text summary for the CLI and examples."""
        lines = [
            f"system: {len(self.graph)} tasks, {len(self.graph.channels)} channels",
            f"sources: {', '.join(self.graph.sources())}",
            f"sinks:   {', '.join(self.graph.sinks())}",
        ]
        from repro.units import format_time

        for task in self.graph.tasks:
            lines.append(
                "  "
                + task.describe()
                + f" R={format_time(self.R(task.name))}"
            )
        return "\n".join(lines)
