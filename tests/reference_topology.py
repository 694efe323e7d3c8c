"""Test-only ``networkx`` reference forms of the topology predicates.

The production predicates (:mod:`repro.core.predicates`) run a
group-restricted BFS on a :class:`repro.net.topology.LinkSnapshot`.  This
module keeps the straightforward ``networkx`` formulation of the same
definitions — subgraph distances and diameters, ΠS, ΠM, ΠT and the
configuration report — plus the brute-force snapshot builder and a few
graph helpers, so tests can hold the fast path to them.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

import networkx as nx

from repro.core.predicates import ConfigurationReport, Groups, Views, agreement, omega

__all__ = [
    "snapshot_graph", "subgraph_distance", "distance_matrix_within", "subgraph_diameter",
    "group_is_connected", "group_diameter_ok", "merged_diameter_ok", "neighbors_within",
    "connected_components",
    "safety_violations", "safety", "maximality_violations", "maximality", "legitimate",
    "topological", "evaluate_configuration",
]


# ------------------------------------------------------------------ graph helpers

def snapshot_graph(positions: Mapping[Hashable, Sequence[float]],
                   link_predicate, active: Optional[Set[Hashable]] = None) -> nx.Graph:
    """Brute-force undirected symmetric-link snapshot of the network.

    An undirected edge ``(u, v)`` exists when *both* ``link_predicate(u, v)``
    and ``link_predicate(v, u)`` hold (asymmetric links are filtered out by
    the handshake).  ``link_predicate`` is called as
    ``(sender, receiver, sender_pos, receiver_pos) -> bool``; when ``active``
    is given only those nodes are included.  Nodes and edges are inserted in
    ``positions`` order, the order every neighbour engine reproduces.
    """
    graph = nx.Graph()
    nodes = [n for n in positions if active is None or n in active]
    graph.add_nodes_from(nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if (link_predicate(u, v, positions[u], positions[v])
                    and link_predicate(v, u, positions[v], positions[u])):
                graph.add_edge(u, v)
    return graph


def subgraph_distance(graph: nx.Graph, members: Iterable[Hashable],
                      source: Hashable, target: Hashable) -> float:
    """Distance from ``source`` to ``target`` using only edges inside ``members``.

    ``inf`` when no such path exists or either endpoint is not in the graph
    (the paper's convention d_X(u, v) = +inf).
    """
    members = set(members)
    if source not in graph or target not in graph:
        return float("inf")
    if source not in members or target not in members:
        return float("inf")
    sub = graph.subgraph(members)
    try:
        return float(nx.shortest_path_length(sub, source, target))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return float("inf")


def distance_matrix_within(graph: nx.Graph,
                           members: Iterable[Hashable]) -> Dict[Hashable, Dict[Hashable, float]]:
    """All-pairs shortest-path lengths restricted to the ``members`` subgraph."""
    members = [m for m in members if m in graph]
    sub = graph.subgraph(members)
    lengths = dict(nx.all_pairs_shortest_path_length(sub))
    out: Dict[Hashable, Dict[Hashable, float]] = {}
    for u in members:
        row = lengths.get(u, {})
        out[u] = {v: float(row[v]) if v in row else float("inf") for v in members}
    return out


def subgraph_diameter(graph: nx.Graph, members: Iterable[Hashable]) -> float:
    """Diameter of the subgraph induced by ``members``.

    0 for empty or singleton member sets, ``inf`` when the induced subgraph
    is disconnected or contains nodes absent from the graph.
    """
    members = list(members)
    if len(members) <= 1:
        return 0.0
    if any(m not in graph for m in members):
        return float("inf")
    sub = graph.subgraph(members)
    if not nx.is_connected(sub):
        return float("inf")
    return float(nx.diameter(sub))


def group_is_connected(graph: nx.Graph, members: Iterable[Hashable]) -> bool:
    """Whether the subgraph induced by ``members`` is connected (singletons are)."""
    members = list(members)
    if len(members) <= 1:
        return True
    if any(m not in graph for m in members):
        return False
    return nx.is_connected(graph.subgraph(members))


def group_diameter_ok(graph: nx.Graph, members: Iterable[Hashable], dmax: int) -> bool:
    """ΠS for one group: connected and diameter <= dmax within the group subgraph."""
    return subgraph_diameter(graph, members) <= dmax


def merged_diameter_ok(graph: nx.Graph, group_a: Iterable[Hashable],
                       group_b: Iterable[Hashable], dmax: int) -> bool:
    """Whether the union of the two groups has diameter <= dmax (the ΠM test)."""
    return subgraph_diameter(graph, set(group_a) | set(group_b)) <= dmax


def neighbors_within(graph: nx.Graph, node: Hashable, hops: int) -> Set[Hashable]:
    """Nodes at distance <= ``hops`` from ``node`` (excluding ``node`` itself)."""
    if node not in graph:
        return set()
    lengths = nx.single_source_shortest_path_length(graph, node, cutoff=hops)
    return {v for v, d in lengths.items() if v != node and d <= hops}


def connected_components(graph: nx.Graph) -> Tuple[FrozenSet[Hashable], ...]:
    """Connected components as a tuple of frozensets (deterministic order)."""
    comps = [frozenset(c) for c in nx.connected_components(graph)]
    return tuple(sorted(comps, key=lambda c: sorted(map(repr, c))))


# ------------------------------------------------------------------ predicates

def safety_violations(views: Views, graph: nx.Graph, dmax: int) -> List[Tuple[FrozenSet, float]]:
    """Groups violating ΠS with their (possibly infinite) diameter."""
    violations: List[Tuple[FrozenSet, float]] = []
    for group in set(omega(views).values()):
        diameter = subgraph_diameter(graph, group)
        if diameter > dmax:
            violations.append((group, diameter))
    return violations


def safety(views: Views, graph: nx.Graph, dmax: int) -> bool:
    """ΠS: every group is connected with diameter <= Dmax inside the group subgraph."""
    return not safety_violations(views, graph, dmax)


def maximality_violations(views: Views, graph: nx.Graph,
                          dmax: int) -> List[Tuple[FrozenSet, FrozenSet]]:
    """Pairs of distinct groups that could merge without breaking ΠS.

    Candidates are the groups sharing a node and the groups joined by an
    edge; each gets a diameter check on the union.
    """
    groups = sorted(set(omega(views).values()), key=lambda g: sorted(map(str, g)))
    member_of: Dict[Hashable, List[int]] = {}
    for index, group in enumerate(groups):
        for node in group:
            member_of.setdefault(node, []).append(index)
    candidates: Set[Tuple[int, int]] = set()
    for indices in member_of.values():
        for i, index_a in enumerate(indices):
            for index_b in indices[i + 1:]:
                candidates.add((min(index_a, index_b), max(index_a, index_b)))
    for node_u, node_v in graph.edges():
        for index_a in member_of.get(node_u, ()):
            for index_b in member_of.get(node_v, ()):
                if index_a != index_b:
                    candidates.add((min(index_a, index_b), max(index_a, index_b)))
    return [(groups[a], groups[b]) for a, b in sorted(candidates)
            if merged_diameter_ok(graph, groups[a], groups[b], dmax)]


def maximality(views: Views, graph: nx.Graph, dmax: int) -> bool:
    """ΠM: no two distinct groups could be merged while keeping the diameter <= Dmax."""
    return not maximality_violations(views, graph, dmax)


def legitimate(views: Views, graph: nx.Graph, dmax: int) -> bool:
    """ΠA ∧ ΠS ∧ ΠM."""
    return agreement(views) and safety(views, graph, dmax) and maximality(views, graph, dmax)


def topological(previous_groups: Groups, new_graph: nx.Graph, dmax: int) -> bool:
    """ΠT: every previous group still has diameter <= Dmax in the new topology."""
    return all(len(group) <= 1 or subgraph_diameter(new_graph, group) <= dmax
               for group in set(previous_groups.values()))


def evaluate_configuration(time: float, views: Views, graph: nx.Graph,
                           dmax: int) -> ConfigurationReport:
    """Every static predicate of one configuration, on the ``networkx`` forms."""
    groups = set(omega(views).values())
    sizes = [len(group) for group in groups]
    return ConfigurationReport(
        time=time,
        agreement=agreement(views),
        safety=safety(views, graph, dmax),
        maximality=maximality(views, graph, dmax),
        group_count=len(groups),
        largest_group=max(sizes) if sizes else 0,
        isolated_nodes=sum(1 for size in sizes if size == 1),
    )
