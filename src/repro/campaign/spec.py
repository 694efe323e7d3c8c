"""Declarative campaign specifications.

A *campaign* is a grid of {experiment cell x scenario cell x traffic cell x
seed replicate} expanded into independent tasks.  Each experiment identifier
(``"E1"`` ... ``"E11"``) names one measurement of the reproduction suite; the
optional scenario axis re-runs it across registered workloads
(:class:`repro.scenarios.ScenarioSpec` entries, e.g. a ``--sweep`` over node
count or speed), the optional traffic axis re-runs it across registered
application workloads (:class:`repro.traffic.TrafficSpec` entries), and the
replicate dimension derives one deterministic seed per task from the
campaign's root seed (via the same SHA-256 stream derivation the simulator
uses, see :func:`repro.sim.randomness.derive_seed`).

Determinism contract: ``CampaignSpec.expand()`` always yields the same task
list — same identifiers, same seeds, same order — for the same spec fields,
regardless of how (or on how many workers) the tasks later execute.  The
canonical spec hash (:meth:`CampaignSpec.spec_hash`) covers the scenario and
traffic axes too and namespaces the result store, so records of one campaign
never satisfy the resume check of another.  Per-task seeds mix the scenario's
canonical JSON — and, separately prefixed, the traffic cell's — into the
derivation, so no two cells of the same experiment ever share a seed
sequence, and a traffic cell can never impersonate a scenario cell in the
stream name (the ``traffic=`` prefix cannot be produced by a scenario's
canonical JSON, which always starts with ``{``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.scenarios import ScenarioSpec, normalize_spec
from repro.sim.randomness import derive_seed
from repro.traffic import TrafficSpec, normalize_traffic_spec

__all__ = ["CampaignTask", "CampaignSpec"]


@dataclass(frozen=True)
class CampaignTask:
    """One independent unit of campaign work: a single seeded experiment run."""

    task_id: str
    experiment: str
    replicate: int
    seed: int
    quick: bool
    scenario: Optional[ScenarioSpec] = None
    traffic: Optional[TrafficSpec] = None

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        return {
            "task_id": self.task_id,
            "experiment": self.experiment,
            "replicate": self.replicate,
            "seed": self.seed,
            "quick": self.quick,
            "scenario": None if self.scenario is None else self.scenario.as_dict(),
            "traffic": None if self.traffic is None else self.traffic.as_dict(),
        }


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a multi-seed experiment campaign.

    Parameters
    ----------
    name:
        Free-form campaign label (participates in the spec hash, so two
        otherwise identical campaigns with different names keep separate
        result namespaces).
    experiments:
        Experiment identifiers to run (each is one measurement of the suite).
    replicates:
        Seed replicates per {experiment x scenario} cell.
    root_seed:
        Master seed; per-task seeds are derived deterministically from it.
    quick:
        Use the quick workload sizes (the full sizes otherwise).
    max_trace_records:
        Kept for spec-hash compatibility only: it is validated and part of
        the spec hash, so existing spec hashes, task ids and stores keep
        resuming, but no experiment attaches a trace recorder and the
        executor no longer reads it.  ``None`` or a count >= 0.
    scenarios:
        Scenario-axis cells: every experiment runs once per entry (specs or
        their ``as_dict`` forms).  Empty means "no scenario axis": each
        experiment builds its own default workload, task ids and seeds stay
        exactly as in scenario-less campaigns.
    traffics:
        Traffic-axis cells (:class:`repro.traffic.TrafficSpec` entries or
        their ``as_dict`` forms): every {experiment x scenario} cell runs
        once per entry.  Empty means "no traffic axis": traffic-aware
        experiments use their default workload, and task ids, seeds and the
        spec hash stay exactly as in traffic-less campaigns.
    task_timeout:
        Wall-clock budget (seconds) per task *attempt*; an attempt past the
        budget is aborted and counts as a failure.  ``None`` (default) never
        times out.
    task_retries:
        Extra attempts after a failed (crashed or timed-out) first attempt.
        A task that exhausts ``1 + task_retries`` attempts records a
        structured failure row instead of killing the campaign.
    obs:
        Collect runtime observability (metrics + spans, see
        :mod:`repro.obs`) around every task and persist the export blob in
        each :class:`~repro.campaign.store.TaskRecord`.  Off by default; the
        obs layer never consumes RNG or reorders events, so results are
        bit-identical either way — but the blobs change the stored records,
        so the flag participates in the spec hash when set.
    obs_heap:
        Additionally track peak heap per task via :mod:`tracemalloc`
        (noticeably slower; implies nothing unless ``obs`` is on).
    """

    name: str
    experiments: Tuple[str, ...]
    replicates: int = 1
    root_seed: int = 0
    quick: bool = True
    max_trace_records: Optional[int] = 100_000
    scenarios: Tuple[ScenarioSpec, ...] = field(default=())
    task_timeout: Optional[float] = None
    task_retries: int = 0
    traffics: Tuple[TrafficSpec, ...] = field(default=())
    obs: bool = False
    obs_heap: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "experiments",
                           tuple(str(e).upper() for e in self.experiments))
        if not self.experiments:
            raise ValueError("a campaign needs at least one experiment")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.max_trace_records is not None and self.max_trace_records < 0:
            raise ValueError("max_trace_records must be >= 0 or None")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive or None")
        if self.task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        # Normalizing against the registry schema makes labels, seeds and the
        # spec hash describe the workload that actually builds: n=8, n=8.0
        # and n="8" are the same cell (and duplicate as such), and unknown
        # scenarios/parameters fail at spec creation, not mid-campaign.
        scenarios = tuple(
            normalize_spec(spec if isinstance(spec, ScenarioSpec)
                           else ScenarioSpec.from_dict(spec))
            for spec in self.scenarios)
        object.__setattr__(self, "scenarios", scenarios)
        labels = [spec.label() for spec in scenarios]
        if len(set(labels)) != len(labels):
            duplicates = sorted({lab for lab in labels if labels.count(lab) > 1})
            raise ValueError(f"duplicate scenario cell(s): {duplicates}")
        traffics = tuple(
            normalize_traffic_spec(spec if isinstance(spec, TrafficSpec)
                                   else TrafficSpec.from_dict(spec))
            for spec in self.traffics)
        object.__setattr__(self, "traffics", traffics)
        traffic_labels = [spec.label() for spec in traffics]
        if len(set(traffic_labels)) != len(traffic_labels):
            duplicates = sorted({lab for lab in traffic_labels
                                 if traffic_labels.count(lab) > 1})
            raise ValueError(f"duplicate traffic cell(s): {duplicates}")

    # ----------------------------------------------------------- identity

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serializable).

        The ``scenarios`` key is omitted when the axis is empty, and the
        execution-policy keys (``task_timeout`` / ``task_retries``) are
        omitted at their defaults, so the spec hash of a campaign that does
        not use these features is identical to what the earlier code produced
        — existing result stores keep resuming.  The policy keys *do*
        participate when set: a timeout can turn a slow task into a failure
        row, so records produced under different policies must not mix.
        """
        data: Dict[str, object] = {
            "name": self.name,
            "experiments": list(self.experiments),
            "replicates": self.replicates,
            "root_seed": self.root_seed,
            "quick": self.quick,
            "max_trace_records": self.max_trace_records,
        }
        if self.scenarios:
            data["scenarios"] = [spec.as_dict() for spec in self.scenarios]
        if self.task_timeout is not None:
            data["task_timeout"] = self.task_timeout
        if self.task_retries:
            data["task_retries"] = self.task_retries
        # Like the scenario axis: omitted when empty, so traffic-less
        # campaigns keep their pre-axis spec hash and stores keep resuming.
        if self.traffics:
            data["traffics"] = [spec.as_dict() for spec in self.traffics]
        # Omitted when off (the pre-obs hash), present when on: obs blobs
        # change the stored records, so observed and unobserved campaigns
        # must not share a result namespace.
        if self.obs:
            data["obs"] = True
            if self.obs_heap:
                data["obs_heap"] = True
        return data

    def spec_hash(self) -> str:
        """Canonical hash of the spec, used to namespace result-store records."""
        payload = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # ---------------------------------------------------------- expansion

    def scenario_cells(self) -> Tuple[Optional[ScenarioSpec], ...]:
        """The scenario axis: the declared cells, or a single default cell."""
        return self.scenarios if self.scenarios else (None,)

    def traffic_cells(self) -> Tuple[Optional[TrafficSpec], ...]:
        """The traffic axis: the declared cells, or a single default cell."""
        return self.traffics if self.traffics else (None,)

    def task_count(self) -> int:
        """Number of tasks :meth:`expand` yields, without deriving any seeds.

        Cheap arithmetic (progress denominators and the like should not pay
        one SHA-256 per task just to learn the grid size).
        """
        return (len(self.experiments) * len(self.scenario_cells())
                * len(self.traffic_cells()) * self.replicates)

    def task_seed(self, experiment: str, replicate: int,
                  scenario: Optional[ScenarioSpec] = None,
                  traffic: Optional[TrafficSpec] = None) -> int:
        """Deterministic seed of the (experiment, scenario, traffic, replicate) task.

        Axis-less derivation is unchanged from pre-axis campaigns, so adding
        either axis never silently re-seeds existing grids.  With a scenario
        the cell's canonical JSON joins the stream name; a traffic cell joins
        as a ``traffic=``-prefixed segment.  The prefix keeps the two axes
        collision-free by construction: a scenario's canonical JSON always
        starts with ``{``, so no scenario segment can ever read
        ``traffic=...`` — two cells of different kinds (or a cell and a
        cell-pair) never share a seed stream even when the underlying specs
        render identically (see ``tests/test_traffic.py``).
        """
        name = f"campaign/{experiment}"
        if scenario is not None:
            name += f"/{scenario.canonical_json()}"
        if traffic is not None:
            name += f"/traffic={traffic.canonical_json()}"
        return derive_seed(self.root_seed, f"{name}/rep{replicate}")

    def expand(self) -> List[CampaignTask]:
        """Expand the grid into independent tasks, in canonical order."""
        tasks: List[CampaignTask] = []
        for experiment in self.experiments:
            for scenario in self.scenario_cells():
                for traffic in self.traffic_cells():
                    prefix = experiment
                    if scenario is not None:
                        prefix += f"/{scenario.label()}"
                    if traffic is not None:
                        prefix += f"/{traffic.label()}"
                    for replicate in range(self.replicates):
                        tasks.append(CampaignTask(
                            task_id=f"{prefix}/r{replicate}",
                            experiment=experiment,
                            replicate=replicate,
                            seed=self.task_seed(experiment, replicate, scenario,
                                                traffic),
                            quick=self.quick,
                            scenario=scenario,
                            traffic=traffic,
                        ))
        return tasks
