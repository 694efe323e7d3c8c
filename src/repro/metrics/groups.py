"""Group quality and stability metrics (experiments E2, E4, E5).

Two families of measurements:

* *partition quality* at a sampled instant: number of groups, isolated nodes,
  group sizes and diameters — what the clusterhead baselines optimise;
* *stability* across samples: membership churn (how many (node, lost-member)
  pairs per transition) and group lifetime (how long a given composition
  survives) — what GRP optimises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Sequence

from .collectors import ConfigurationSample

__all__ = [
    "PartitionQuality",
    "partition_quality",
    "membership_churn",
    "average_membership_churn",
    "group_lifetimes",
    "mean_group_lifetime",
    "max_group_diameter",
]


@dataclass(frozen=True)
class PartitionQuality:
    """Quality statistics of one sampled partition."""

    time: float
    group_count: int
    isolated_nodes: int
    mean_group_size: float
    largest_group: int
    max_diameter: float


def partition_quality(sample: ConfigurationSample) -> PartitionQuality:
    """Partition-quality statistics of one sample."""
    groups = set(sample.groups.values())
    sizes = [len(g) for g in groups]
    diameters = [sample.links.diameter(g) for g in groups if len(g) > 1]
    return PartitionQuality(
        time=sample.time,
        group_count=len(groups),
        isolated_nodes=sum(1 for s in sizes if s == 1),
        mean_group_size=(sum(sizes) / len(sizes)) if sizes else 0.0,
        largest_group=max(sizes) if sizes else 0,
        max_diameter=max(diameters) if diameters else 0.0,
    )


def max_group_diameter(samples: Sequence[ConfigurationSample]) -> float:
    """Largest group diameter observed across all samples (safety headline of E2)."""
    worst = 0.0
    for sample in samples:
        quality = partition_quality(sample)
        worst = max(worst, quality.max_diameter)
    return worst


def membership_churn(previous: ConfigurationSample, current: ConfigurationSample) -> int:
    """Number of (node, lost-member) pairs between two samples.

    For every node, members of its previous group that are no longer in its
    current group count as churn.  Baselines that recompute clusters from
    scratch exhibit high churn under mobility even when the topology barely
    changed; GRP's continuity keeps it near zero.
    """
    churn = 0
    for node, prev_group in previous.groups.items():
        new_group = current.groups.get(node, frozenset({node}))
        churn += len(prev_group - new_group)
    return churn


def average_membership_churn(samples: Sequence[ConfigurationSample]) -> float:
    """Mean churn per transition (0 when fewer than two samples)."""
    if len(samples) < 2:
        return 0.0
    total = sum(membership_churn(a, b) for a, b in zip(samples, samples[1:]))
    return total / (len(samples) - 1)


def group_lifetimes(samples: Sequence[ConfigurationSample]) -> List[float]:
    """Lifetimes of every multi-member group composition observed.

    A group composition is "alive" while it appears identically in consecutive
    samples; its lifetime is the span between its first and last consecutive
    appearance.  Singleton groups are ignored (every isolated node would
    otherwise count as an immortal group).
    """
    lifetimes: List[float] = []
    alive: Dict[FrozenSet[Hashable], float] = {}
    previous_time = None
    for sample in samples:
        current = {g for g in set(sample.groups.values()) if len(g) > 1}
        # Close groups that disappeared.
        for group in list(alive):
            if group not in current:
                start = alive.pop(group)
                end = previous_time if previous_time is not None else start
                lifetimes.append(max(0.0, end - start))
        # Open newly appeared groups.
        for group in current:
            alive.setdefault(group, sample.time)
        previous_time = sample.time
    for group, start in alive.items():
        end = previous_time if previous_time is not None else start
        lifetimes.append(max(0.0, end - start))
    return lifetimes


def mean_group_lifetime(samples: Sequence[ConfigurationSample]) -> float:
    """Mean lifetime of multi-member group compositions (0 when none observed)."""
    lifetimes = group_lifetimes(samples)
    if not lifetimes:
        return 0.0
    return sum(lifetimes) / len(lifetimes)
