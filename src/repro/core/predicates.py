"""Formal predicates of the Dynamic Group Service specification.

These functions evaluate, on configuration snapshots, the predicates defined
in Section 3 of the paper:

* ``Ω`` (group of a node) — :func:`omega`;
* ΠA (agreement) — :func:`agreement`;
* ΠS (safety) — :func:`safety`;
* ΠM (maximality) — :func:`maximality`;
* ΠT (topological, on consecutive configurations) — :func:`topological`;
* ΠC (continuity, on consecutive configurations) — :func:`continuity`.

A *configuration snapshot* consists of the views (mapping node → frozenset of
members) and the :class:`~repro.net.topology.LinkSnapshot` of symmetric links
at that instant.  The metric collectors (:mod:`repro.metrics`) call these
functions at sampling times; the tests call them directly on hand-built
configurations and hold them to the ``networkx`` reference forms in
``tests/reference_topology.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.net.topology import LinkSnapshot

__all__ = [
    "Views",
    "Groups",
    "omega",
    "groups_partition",
    "agreement",
    "agreement_violations",
    "safety",
    "safety_violations",
    "maximality",
    "maximality_violations",
    "topological",
    "continuity",
    "continuity_violations",
    "legitimate",
    "ConfigurationReport",
    "evaluate_configuration",
]

NodeId = Hashable
Views = Mapping[NodeId, FrozenSet[NodeId]]
Groups = Dict[NodeId, FrozenSet[NodeId]]


def omega(views: Views) -> Groups:
    """The group Ω_v of every node.

    Ω_v equals view_v when v belongs to its own view and every member shares
    exactly the same view; otherwise Ω_v = {v} (paper Section 3).
    """
    groups: Groups = {}
    for node, view in views.items():
        if node in view and all(views.get(member) == view for member in view):
            groups[node] = frozenset(view)
        else:
            groups[node] = frozenset({node})
    return groups


def groups_partition(views: Views) -> Set[FrozenSet[NodeId]]:
    """The set of distinct groups {Ω_v : v}."""
    return set(omega(views).values())


def agreement_violations(views: Views) -> List[Tuple[NodeId, str]]:
    """Nodes violating ΠA, with a human-readable reason."""
    violations: List[Tuple[NodeId, str]] = []
    for node, view in views.items():
        if node not in view:
            violations.append((node, "node absent from its own view"))
            continue
        for member in view:
            other = views.get(member)
            if other is None:
                violations.append((node, f"view member {member!r} is not a node"))
                break
            if other != view:
                violations.append((node, f"view member {member!r} disagrees"))
                break
    return violations


def agreement(views: Views) -> bool:
    """ΠA: the views define a partition on which all members agree."""
    return not agreement_violations(views)


def _diameters_ok(groups: Iterable[FrozenSet], links: LinkSnapshot, dmax: int) -> bool:
    """Every group's diameter inside its own subgraph is ≤ ``dmax``."""
    return all(len(group) <= 1 or links.diameter(group, cutoff=dmax) <= dmax
               for group in groups)


def _mergeable_pairs(groups: Sequence[FrozenSet], links: LinkSnapshot,
                     dmax: int) -> Iterator[Tuple[int, int]]:
    """Index pairs ``(a, b)``, ``a < b``, of ``groups`` whose union has diameter ≤ ``dmax``.

    Ω partitions the nodes — a member ``u`` of Ω_v = view_v has
    view_u = view_v, hence Ω_u = Ω_v — so two distinct groups share no node
    and their union is connected only through a link joining them.  The
    candidates are therefore the group pairs of the links that cross
    groups; only those get a (cut-off) diameter check, in ascending pair
    order.
    """
    count = len(groups)
    group_of = np.full(len(links), -1, dtype=np.int64)
    row_of = links.row_of
    for index, group in enumerate(groups):
        for node in group:
            row = row_of.get(node)
            if row is not None:
                group_of[row] = index
    src = group_of[np.repeat(np.arange(len(links)), np.diff(links.indptr))]
    dst = group_of[links.indices]
    cross = (src >= 0) & (src < dst)
    for key in np.unique(src[cross] * count + dst[cross]).tolist():
        index_a, index_b = divmod(key, count)
        if links.diameter(groups[index_a] | groups[index_b], cutoff=dmax) <= dmax:
            yield index_a, index_b


def safety_violations(views: Views, links: LinkSnapshot,
                      dmax: int) -> List[Tuple[FrozenSet, float]]:
    """Groups violating ΠS with their exact (possibly infinite) diameter."""
    violations: List[Tuple[FrozenSet, float]] = []
    for group in set(omega(views).values()):
        diameter = links.diameter(group)
        if diameter > dmax:
            violations.append((group, diameter))
    return violations


def safety(views: Views, links: LinkSnapshot, dmax: int) -> bool:
    """ΠS: every group is connected with diameter ≤ Dmax inside the group subgraph."""
    return _diameters_ok(set(omega(views).values()), links, dmax)


def maximality_violations(views: Views, links: LinkSnapshot,
                          dmax: int) -> List[Tuple[FrozenSet, FrozenSet]]:
    """Pairs of distinct groups that could merge without breaking ΠS.

    Groups are ordered by their sorted member names, and pairs follow that
    order.
    """
    groups = sorted(set(omega(views).values()), key=lambda g: sorted(map(str, g)))
    return [(groups[a], groups[b]) for a, b in _mergeable_pairs(groups, links, dmax)]


def maximality(views: Views, links: LinkSnapshot, dmax: int) -> bool:
    """ΠM: no two distinct groups could be merged while keeping the diameter ≤ Dmax."""
    groups = list(set(omega(views).values()))
    return next(_mergeable_pairs(groups, links, dmax), None) is None


def legitimate(views: Views, links: LinkSnapshot, dmax: int) -> bool:
    """The stabilization target ΠA ∧ ΠS ∧ ΠM."""
    return agreement(views) and safety(views, links, dmax) and maximality(views, links, dmax)


def topological(previous_groups: Groups, new_links: LinkSnapshot, dmax: int) -> bool:
    """ΠT on a pair of consecutive configurations.

    For every node, the members of its *previous* group must still be within
    distance ``Dmax`` of each other in the *new* topology, counting only paths
    inside the previous group.
    """
    return _diameters_ok(set(previous_groups.values()), new_links, dmax)


def continuity_violations(previous_groups: Groups,
                          new_groups: Groups) -> List[Tuple[NodeId, FrozenSet, FrozenSet]]:
    """Nodes whose group lost at least one member between two configurations."""
    violations: List[Tuple[NodeId, FrozenSet, FrozenSet]] = []
    for node, previous in previous_groups.items():
        new = new_groups.get(node, frozenset({node}))
        if not previous <= new:
            violations.append((node, previous, new))
    return violations


def continuity(previous_groups: Groups, new_groups: Groups) -> bool:
    """ΠC: no node disappears from any group between two configurations."""
    return not continuity_violations(previous_groups, new_groups)


@dataclass(frozen=True)
class ConfigurationReport:
    """Predicate values of one sampled configuration."""

    time: float
    agreement: bool
    safety: bool
    maximality: bool
    group_count: int
    largest_group: int
    isolated_nodes: int

    @property
    def legitimate(self) -> bool:
        """ΠA ∧ ΠS ∧ ΠM."""
        return self.agreement and self.safety and self.maximality


def evaluate_configuration(time: float, views: Views, links: LinkSnapshot, dmax: int,
                           groups: Optional[Groups] = None) -> ConfigurationReport:
    """Evaluate every static predicate on one configuration snapshot.

    ``groups`` may pass ``omega(views)`` when the caller already has it.
    """
    if groups is None:
        groups = omega(views)
    distinct = list(set(groups.values()))
    sizes = [len(group) for group in distinct]
    return ConfigurationReport(
        time=time,
        agreement=agreement(views),
        safety=_diameters_ok(distinct, links, dmax),
        maximality=next(_mergeable_pairs(distinct, links, dmax), None) is None,
        group_count=len(distinct),
        largest_group=max(sizes) if sizes else 0,
        isolated_nodes=sum(1 for size in sizes if size == 1),
    )
