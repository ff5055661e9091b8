"""Configurations for the Fig. 6 evaluation harness.

The paper's full-fidelity setup (``PAPER_*``) simulates each graph ten
times with random offsets for ten simulated minutes, ten graphs per
point, with the number of tasks sweeping [5, 35] (a/b) and the tasks
per chain sweeping [5, 30] (c/d).  ``repro fig6 --preset paper --jobs
2`` took 16 minutes on a 2-CPU VM (part ab 240 s, part cd 722 s, over
99% of the busy time in simulation), so the default configurations
(``DEFAULT_*``) scale the horizon and the replication down while
keeping every qualitative shape (see EXPERIMENTS.md for both);
``SMOKE_*`` are the few-second variants run inside the test and
benchmark suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.gen.scenario import ScenarioConfig
from repro.units import Time, seconds


@dataclass(frozen=True)
class Fig6ABConfig:
    """Configuration of the Fig. 6 (a)/(b) sweep: random DAGs."""

    x_values: Tuple[int, ...]
    graphs_per_point: int = 10
    sims_per_graph: int = 10
    sim_duration: Time = seconds(600)
    warmup: Time = seconds(1)
    seed: int = 2023
    policy: str = "uniform"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    #: Communication semantics of analysis *and* simulation:
    #: ``"implicit"`` (the paper's model, the default) or ``"let"``
    #: (bounds via :func:`repro.let.backward_bounds_let`, LET replay).
    semantics: str = "implicit"

    def scaled(self, **overrides) -> "Fig6ABConfig":
        """A copy with selected fields overridden."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class Fig6CDConfig:
    """Configuration of the Fig. 6 (c)/(d) sweep: merged chain pairs."""

    x_values: Tuple[int, ...]
    graphs_per_point: int = 10
    sims_per_graph: int = 10
    sim_duration: Time = seconds(600)
    warmup: Time = seconds(1)
    seed: int = 2023
    policy: str = "uniform"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    #: Communication semantics; see :class:`Fig6ABConfig.semantics`.
    semantics: str = "implicit"

    def scaled(self, **overrides) -> "Fig6CDConfig":
        return replace(self, **overrides)


#: Full-fidelity configuration matching the paper's description.
PAPER_AB = Fig6ABConfig(x_values=tuple(range(5, 36)))
PAPER_CD = Fig6CDConfig(x_values=tuple(range(5, 31)))

#: Laptop-scale defaults: same sweep, but many *short* runs instead of
#: few long ones.  WATERS periods share a 200 ms hyperperiod, so with
#: microsecond execution jitter a run's behaviour repeats after a few
#: hyperperiods; the observed disparity is determined almost entirely
#: by the random offset draw.  Many draws with a horizon of a few
#: seconds therefore dominate the paper's 10-minute horizon at a small
#: fraction of the cost (see EXPERIMENTS.md).
DEFAULT_AB = Fig6ABConfig(
    x_values=tuple(range(5, 36, 5)),
    graphs_per_point=5,
    sims_per_graph=20,
    sim_duration=seconds(6),
    warmup=seconds(3),
)
DEFAULT_CD = Fig6CDConfig(
    x_values=tuple(range(5, 31, 5)),
    graphs_per_point=5,
    sims_per_graph=20,
    sim_duration=seconds(8),
    warmup=seconds(3),
)

#: Seconds-scale variants for tests and pytest-benchmark runs.
SMOKE_AB = Fig6ABConfig(
    x_values=(5, 15, 25),
    graphs_per_point=2,
    sims_per_graph=4,
    sim_duration=seconds(4),
    warmup=seconds(2),
)
SMOKE_CD = Fig6CDConfig(
    x_values=(5, 15, 25),
    graphs_per_point=2,
    sims_per_graph=4,
    sim_duration=seconds(5),
    warmup=seconds(2),
)
