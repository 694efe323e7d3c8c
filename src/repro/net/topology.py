"""Symmetric-link snapshots of the network topology.

The correctness predicates of the Dynamic Group Service (ΠS, ΠM, ΠT) are
defined over *subgraph distances*: the distance between two members of a group
counted only along edges whose both endpoints belong to the group.
:class:`LinkSnapshot` is the immutable value those predicates run on: the
active nodes of one instant plus their symmetric links as an int32 CSR, with a
group-restricted BFS for diameters.  :meth:`LinkSnapshot.to_graph` exports it
as a ``networkx`` graph for callers that want one; this module imports
networkx only there.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LinkSnapshot"]

_INF = float("inf")


class LinkSnapshot:
    """The active nodes and their symmetric links at one instant.

    Row ``i`` is node ``nodes[i]``; the partners of row ``i`` are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending.  Every link appears in
    both rows.  The snapshot owns its arrays (they are never views of a
    buffer someone else rewrites), so a snapshot taken before a topology
    change keeps describing the instant it was taken at.

    Network snapshots list nodes in insertion order, so ascending rows are
    the ``(order[u], order[v])`` sequence every neighbour engine produces.
    """

    __slots__ = ("nodes", "indptr", "indices", "_row_of", "_adjacency")

    def __init__(self, nodes: Sequence[Hashable], indptr: np.ndarray, indices: np.ndarray):
        self.nodes: Tuple[Hashable, ...] = tuple(nodes)
        self.indptr = indptr
        self.indices = indices
        self._row_of = None
        self._adjacency = None

    # ------------------------------------------------------------ builders

    @classmethod
    def from_arcs(cls, nodes: Sequence[Hashable], src: np.ndarray,
                  dst: np.ndarray) -> "LinkSnapshot":
        """Snapshot over ``nodes`` from row-index arc arrays.

        ``src``/``dst`` must hold every link in both directions; duplicate
        arcs collapse into one.
        """
        n = len(nodes)
        keys = np.unique(np.asarray(src, dtype=np.int64) * n
                         + np.asarray(dst, dtype=np.int64))
        indptr = np.zeros(n + 1, dtype=np.int32)
        if keys.size:
            np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(nodes, indptr, (keys % max(n, 1)).astype(np.int32))

    @classmethod
    def from_edges(cls, nodes: Iterable[Hashable],
                   edges: Iterable[Tuple[Hashable, Hashable]]) -> "LinkSnapshot":
        """Snapshot over ``nodes`` and the undirected ``edges`` between them.

        Like ``networkx.Graph.add_edges_from``, an endpoint missing from
        ``nodes`` is appended as a new node.  Self-loops carry no distance
        and are dropped.
        """
        nodes = list(nodes)
        row_of = {node: row for row, node in enumerate(nodes)}
        src: List[int] = []
        dst: List[int] = []
        for u, v in edges:
            if u == v:
                continue
            for node in (u, v):
                if node not in row_of:
                    row_of[node] = len(nodes)
                    nodes.append(node)
            src.append(row_of[u])
            dst.append(row_of[v])
        return cls.from_arcs(nodes, np.array(src + dst, dtype=np.int64),
                             np.array(dst + src, dtype=np.int64))

    @classmethod
    def from_graph(cls, graph) -> "LinkSnapshot":
        """Snapshot of an undirected ``networkx`` graph (rows in node order)."""
        return cls.from_edges(graph.nodes, graph.edges())

    # ------------------------------------------------------------- exports

    def edges(self) -> List[Tuple[Hashable, Hashable]]:
        """Every link once, as ``(nodes[i], nodes[j])`` with ``i < j``, sorted by ``(i, j)``."""
        n = len(self.nodes)
        src = np.repeat(np.arange(n), np.diff(self.indptr))
        keep = src < self.indices
        ids = self.nodes
        return [(ids[u], ids[v])
                for u, v in zip(src[keep].tolist(), self.indices[keep].tolist())]

    def to_graph(self):
        """A fresh ``networkx.Graph`` with the snapshot's node and edge order."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges())
        return graph

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def row_of(self) -> dict:
        """Mapping node -> row (built on first use)."""
        if self._row_of is None:
            self._row_of = {node: row for row, node in enumerate(self.nodes)}
        return self._row_of

    def neighbors(self, node: Hashable) -> List[Hashable]:
        """Link partners of ``node`` in row order (empty if ``node`` is absent)."""
        row = self.row_of.get(node)
        if row is None:
            return []
        ids = self.nodes
        return [ids[other] for other in self._neighbours()[row]]

    def _neighbours(self) -> List[List[int]]:
        """Per-row partner lists (built on first use; BFS reads these)."""
        if self._adjacency is None:
            ptr = self.indptr.tolist()
            ind = self.indices.tolist()
            self._adjacency = [ind[ptr[row]:ptr[row + 1]] for row in range(len(self.nodes))]
        return self._adjacency

    def diameter(self, members: Iterable[Hashable], cutoff: Optional[float] = None) -> float:
        """Diameter of the subgraph induced by ``members``.

        Distances count only links whose both endpoints are members.  Empty
        and singleton sets have diameter 0; a set that is disconnected or
        holds a node absent from the snapshot has diameter ``inf``.  With a
        ``cutoff`` the search stops as soon as the diameter is known to
        exceed it and returns ``inf``; a diameter within the cutoff is exact.
        """
        members = set(members)
        size = len(members)
        if size <= 1:
            return 0.0
        row_of = self.row_of
        rows = set()
        for member in members:
            row = row_of.get(member)
            if row is None:
                return _INF
            rows.add(row)
        adjacency = self._neighbours()
        limit = _INF if cutoff is None else cutoff
        worst = 0
        for source in rows:
            seen = {source}
            frontier = [source]
            depth = 0
            while len(seen) < size:
                if not frontier or depth >= limit:
                    return _INF
                depth += 1
                reached = []
                for row in frontier:
                    for other in adjacency[row]:
                        if other in rows and other not in seen:
                            seen.add(other)
                            reached.append(other)
                frontier = reached
            if depth > worst:
                worst = depth
        return float(worst)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LinkSnapshot(nodes={len(self.nodes)}, links={self.indices.size // 2})"
