"""Experiment running helpers.

:func:`run_with_sampler` attaches a :class:`~repro.metrics.collectors.ConfigurationSampler`
to a GRP deployment (or to a baseline clustering driver) and advances the
simulation.  :class:`ExperimentResult` is the uniform return type of every
experiment in :mod:`repro.experiments.suite`: a list of flat dict rows plus
free-form notes, printable with :func:`repro.metrics.report.format_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.protocol import GRPDeployment
from repro.metrics.collectors import ConfigurationSampler
from repro.metrics.report import format_table

if TYPE_CHECKING:
    from repro.baselines.base import SnapshotClusteringAlgorithm
    from repro.baselines.periodic import PeriodicClusteringDriver

__all__ = ["ExperimentResult", "run_with_sampler", "attach_baseline"]


@dataclass
class ExperimentResult:
    """Outcome of one experiment: tabular rows plus context."""

    experiment: str
    description: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        """Append one result row."""
        self.rows.append(dict(values))

    def add_note(self, note: str) -> None:
        """Append a free-form note (expected shape, caveat, seed...)."""
        self.notes.append(note)

    def to_text(self) -> str:
        """Render the result as the plain-text block the CLI prints."""
        parts = [f"== {self.experiment} — {self.description} =="]
        if self.rows:
            parts.append(format_table(self.rows))
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)


def run_with_sampler(deployment: GRPDeployment, duration: float,
                     sample_interval: float = 1.0,
                     warmup: float = 0.0,
                     views_provider: Optional[Callable[[], Dict]] = None) -> ConfigurationSampler:
    """Run ``deployment`` for ``duration`` seconds under a configuration sampler.

    ``warmup`` seconds are simulated *before* the sampler starts (useful to
    measure steady-state behaviour only).  The sampler measures the GRP views
    by default; pass ``views_provider`` to measure something else (e.g. a
    baseline driver) running on the same network.
    """
    deployment.start()
    if warmup > 0:
        deployment.sim.run(until=deployment.sim.now + warmup)
    provider = views_provider if views_provider is not None else deployment.views
    sampler = ConfigurationSampler(
        sim=deployment.sim,
        views_provider=provider,
        links_provider=deployment.link_snapshot,
        dmax=deployment.config.dmax,
        interval=sample_interval,
    )
    sampler.start()
    deployment.sim.run(until=deployment.sim.now + duration)
    sampler.sample_now()
    sampler.stop()
    return sampler


def attach_baseline(deployment: GRPDeployment, algorithm: SnapshotClusteringAlgorithm,
                    period: float = 1.0) -> PeriodicClusteringDriver:
    """Attach a periodic re-clustering driver to the deployment's network.

    The driver recomputes the baseline partition on the same topology the GRP
    nodes experience, so GRP and baselines are compared on identical runs.
    """
    from repro.baselines.periodic import PeriodicClusteringDriver

    driver = PeriodicClusteringDriver(
        sim=deployment.sim,
        network=deployment.network,
        algorithm=algorithm,
        dmax=deployment.config.dmax,
        period=period,
    )
    deployment.start()
    driver.start()
    return driver

