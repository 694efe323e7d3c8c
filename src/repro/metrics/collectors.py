"""Configuration sampling.

The predicates of the Dynamic Group Service are defined on configurations and
on pairs of consecutive configurations.  :class:`ConfigurationSampler` snapshots
the views and the topology at a fixed interval and evaluates:

* the static predicates ΠA, ΠS, ΠM on each sample;
* the transition predicates ΠT, ΠC between consecutive samples.

The sampler works with any *views provider* (a callable returning the current
views), so GRP deployments and baseline clustering drivers are measured with
exactly the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional

from repro.core.predicates import (ConfigurationReport, Groups,
                                   agreement_violations, continuity,
                                   continuity_violations, evaluate_configuration, omega,
                                   safety_violations, topological)
from repro.net.topology import LinkSnapshot
from repro.obs import current as _obs_current
from repro.sim.engine import Simulator

__all__ = ["ConfigurationSample", "TransitionRecord", "ConfigurationSampler"]

Views = Dict[Hashable, FrozenSet[Hashable]]


@dataclass(frozen=True)
class ConfigurationSample:
    """One sampled configuration.

    ``links`` is the network's shared, immutable link snapshot of that
    instant; :attr:`graph` exports it as a ``networkx`` graph on first read.
    """

    time: float
    views: Views
    groups: Groups
    links: LinkSnapshot
    report: ConfigurationReport

    @cached_property
    def graph(self):
        """The sampled topology as a ``networkx.Graph`` (built on first read)."""
        return self.links.to_graph()


@dataclass(frozen=True)
class TransitionRecord:
    """Predicates evaluated on a pair of consecutive samples."""

    time: float
    topological_ok: bool
    continuity_ok: bool
    lost_members: int

    @property
    def best_effort_violation(self) -> bool:
        """ΠT held but ΠC did not — the violation the best-effort property forbids."""
        return self.topological_ok and not self.continuity_ok


class ConfigurationSampler:
    """Periodically snapshots a running deployment and evaluates the predicates.

    Parameters
    ----------
    sim:
        The simulator driving the run.
    views_provider:
        Callable returning the current views (node -> frozenset of members).
    links_provider:
        Callable returning the current symmetric-link
        :class:`~repro.net.topology.LinkSnapshot`.
    dmax:
        Diameter bound used by ΠS / ΠM / ΠT.
    interval:
        Sampling period (simulated seconds).
    """

    def __init__(self, sim: Simulator, views_provider: Callable[[], Views],
                 links_provider: Callable[[], LinkSnapshot], dmax: int,
                 interval: float = 1.0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.views_provider = views_provider
        self.links_provider = links_provider
        self.dmax = int(dmax)
        self.interval = float(interval)
        self.samples: List[ConfigurationSample] = []
        self.transitions: List[TransitionRecord] = []
        self._handle = None
        self._previous: Optional[ConfigurationSample] = None
        # Protocol observatory: captured once at construction (PR-7 contract —
        # off costs exactly this attribute check per sample).
        self._obs = _obs_current()
        self._first_legitimate: Optional[float] = None
        self._stable_since: Optional[float] = None

    # ------------------------------------------------------------------ wiring

    def start(self) -> None:
        """Take one immediate sample and schedule periodic sampling."""
        self.sample_now()
        self._handle = self.sim.call_every(self.interval, self.sample_now)

    def stop(self) -> None:
        """Stop the periodic sampling (emits the stabilization milestone)."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if self._obs is not None and self._stable_since is not None:
            self._obs.record_event("convergence.stabilized", self.sim.now,
                                   since=self._stable_since)
            self._stable_since = None

    # ---------------------------------------------------------------- sampling

    def sample_now(self) -> ConfigurationSample:
        """Take a sample immediately (also called by the periodic schedule)."""
        views = dict(self.views_provider())
        links = self.links_provider()
        groups = omega(views)
        report = evaluate_configuration(self.sim.now, views, links, self.dmax,
                                        groups=groups)
        sample = ConfigurationSample(
            time=self.sim.now,
            views=views,
            groups=groups,
            links=links,
            report=report,
        )
        previous = self._previous
        transition: Optional[TransitionRecord] = None
        if previous is not None:
            lost = continuity_violations(previous.groups, groups)
            lost_members = sum(len(prev - new) for _, prev, new in lost)
            transition = TransitionRecord(
                time=self.sim.now,
                topological_ok=topological(previous.groups, links, self.dmax),
                continuity_ok=continuity(previous.groups, groups),
                lost_members=lost_members,
            )
            self.transitions.append(transition)
        self._previous = sample
        self.samples.append(sample)
        if self._obs is not None:
            self._emit_events(previous, sample, transition)
        return sample

    # ---------------------------------------------------------- event feed

    @staticmethod
    def _group_key(group: FrozenSet[Hashable]) -> List[str]:
        return sorted(map(str, group))

    @staticmethod
    def _group_payload(group: FrozenSet[Hashable]) -> Dict[str, object]:
        payload: Dict[str, object] = {"size": len(group)}
        if len(group) <= 8:
            payload["members"] = sorted(map(str, group))
        return payload

    def _emit_events(self, previous: Optional[ConfigurationSample],
                     sample: ConfigurationSample,
                     transition: Optional[TransitionRecord]) -> None:
        """Feed the protocol observatory from one sample.

        Observation only: every fact here is derived from the snapshot, and
        the group-lifecycle classification walks the two partitions in sorted
        order so the emitted stream is a pure function of the run.
        """
        obs = self._obs
        now = sample.time
        report = sample.report
        if previous is not None:
            prev_groups = set(previous.groups.values())
            new_groups = set(sample.groups.values())
            for group in sorted(new_groups - prev_groups, key=self._group_key):
                if len(group) == 1:
                    continue  # shrink/dissolution is reported from the old side
                if any(parent >= group for parent in prev_groups):
                    continue
                parents = sorted((p for p in prev_groups if p & group and len(p) > 1),
                                 key=self._group_key)
                if len(parents) >= 2:
                    obs.record_event("group.merged", now, parents=len(parents),
                                     **self._group_payload(group))
                elif not parents:
                    obs.record_event("group.formed", now,
                                     **self._group_payload(group))
                else:
                    obs.record_event("group.changed", now,
                                     prev_size=len(parents[0]),
                                     **self._group_payload(group))
            for group in sorted(prev_groups - new_groups, key=self._group_key):
                if len(group) == 1:
                    continue
                fragments = {sample.groups.get(member, frozenset({member}))
                             for member in group}
                if any(fragment >= group for fragment in fragments):
                    continue  # absorbed — the new side reported merged/changed
                if all(len(fragment) == 1 for fragment in fragments):
                    obs.record_event("group.dissolved", now, size=len(group))
                elif len(fragments) >= 2:
                    obs.record_event("group.split", now, prev_size=len(group),
                                     fragments=len(fragments))
                else:
                    remnant = next(iter(fragments))
                    if remnant < group:
                        obs.record_event("group.changed", now,
                                         prev_size=len(group),
                                         **self._group_payload(remnant))
        if not report.agreement:
            violations = agreement_violations(sample.views)
            first = min(violations, key=lambda v: str(v[0]))
            obs.record_event("predicate.agreement_violation", now,
                             count=len(violations), node=str(first[0]),
                             reason=first[1])
        if not report.safety:
            violations = safety_violations(sample.views, sample.links, self.dmax)
            worst = max((d for _, d in violations if d != float("inf")),
                        default=None)
            obs.record_event("predicate.safety_violation", now,
                             count=len(violations), worst_diameter=worst)
        if not report.maximality:
            obs.record_event("predicate.maximality_violation", now,
                             group_count=report.group_count,
                             largest_group=report.largest_group)
        if transition is not None and not transition.continuity_ok:
            obs.record_event("predicate.continuity_violation", now,
                             lost_members=transition.lost_members,
                             topological_ok=transition.topological_ok)
            if transition.best_effort_violation:
                obs.record_event("predicate.best_effort_violation", now,
                                 lost_members=transition.lost_members)
        if report.legitimate:
            if self._first_legitimate is None:
                self._first_legitimate = now
                obs.record_event("convergence.first_legitimate", now,
                                 group_count=report.group_count,
                                 largest_group=report.largest_group)
            if self._stable_since is None:
                self._stable_since = now
        elif self._stable_since is not None:
            obs.record_event("convergence.legitimacy_lost", now,
                             since=self._stable_since)
            self._stable_since = None

    # ----------------------------------------------------------------- queries

    @property
    def last(self) -> Optional[ConfigurationSample]:
        """Most recent sample, if any."""
        return self.samples[-1] if self.samples else None

    def best_effort_violations(self) -> List[TransitionRecord]:
        """Transitions where ΠT held but ΠC did not."""
        return [t for t in self.transitions if t.best_effort_violation]
