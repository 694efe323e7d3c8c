"""Uniform-grid spatial index over node positions.

Every neighbour query of the network used to be a linear scan over all nodes
(and every topology snapshot an O(N²) rebuild), which caps simulations at toy
sizes.  This module provides :class:`UniformGridIndex`, a classic uniform grid
hash: the plane is partitioned into square cells of side ``cell_size`` (chosen
as the radio's maximum range), and each node is stored in the cell containing
its position.  A range query with radius ``r`` then only inspects the
``(2k+1)²`` cells with ``k = ceil(r / cell_size)`` around the query point, so
for bounded-range radios the cost of a broadcast or a snapshot edge scan is
proportional to the *local* density instead of the network size.

Invariants maintained by the index (and relied upon by
:class:`repro.net.network.Network`):

* the index always mirrors the network's position table exactly — every call
  to ``add_node`` / ``remove_node`` / ``set_position`` / mobility step
  translates into an :meth:`insert` / :meth:`remove` / :meth:`update`;
* cell membership is ``(floor(x / cell_size), floor(y / cell_size))``, so a
  node sitting exactly on a cell edge belongs to the higher-indexed cell and
  to exactly one cell overall;
* queries are *exact*: candidates harvested from the cell neighbourhood are
  filtered with the Euclidean distance, with the same inclusive ``d <= r``
  comparison the radio models use, so indexed and brute-force neighbour sets
  are identical (including nodes exactly at range ``r`` and coincident
  points).  Dense queries take a vectorized squared-distance path whose
  boundary band is re-checked with the scalar predicate, keeping the same
  guarantee (see :mod:`repro.net.arraystate` for the exactness argument);
* iteration order is deterministic: cells and their occupants are stored in
  insertion-ordered dictionaries, never plain sets.

The index is purely geometric — it knows nothing about node activity or radio
asymmetry; the network filters its candidates through the radio model exactly
as the brute-force path does.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from .arraystate import HYPOT_GUARD_BAND
from .geometry import Point

__all__ = ["UniformGridIndex", "x_tile_cuts"]

Cell = Tuple[int, int]

# Candidate count above which query_ball switches from the scalar hypot loop
# to the vectorized squared-distance filter.  Below this, building the
# coordinate array costs more than the loop it replaces.
_VECTOR_MIN_CANDIDATES = 64


class UniformGridIndex:
    """Incremental uniform grid hash over 2-D node positions.

    Parameters
    ----------
    cell_size:
        Side of the square grid cells.  Choosing the radio's maximum range
        makes every bounded query touch at most the 3x3 cell neighbourhood;
        any positive value is *correct* (queries widen their cell ring as
        needed), it only changes performance.
    positions:
        Optional initial ``node -> (x, y)`` mapping to bulk-load.
    """

    def __init__(self, cell_size: float,
                 positions: Mapping[Hashable, Sequence[float]] = ()):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._cells: Dict[Cell, Dict[Hashable, None]] = {}
        self._cell_of: Dict[Hashable, Cell] = {}
        self._positions: Dict[Hashable, Point] = {}
        for node, pos in dict(positions).items():
            self.insert(node, pos)

    # ------------------------------------------------------------- bookkeeping

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._positions

    def position_of(self, node: Hashable) -> Point:
        """Stored position of ``node``."""
        return self._positions[node]

    def cell_key(self, position: Sequence[float]) -> Cell:
        """Grid cell containing ``position``."""
        return (math.floor(position[0] / self.cell_size),
                math.floor(position[1] / self.cell_size))

    def insert(self, node: Hashable, position: Sequence[float]) -> None:
        """Add ``node`` at ``position`` (it must not already be indexed)."""
        if node in self._positions:
            raise ValueError(f"node {node!r} already indexed; use update()")
        pos = (float(position[0]), float(position[1]))
        cell = self.cell_key(pos)
        self._positions[node] = pos
        self._cell_of[node] = cell
        self._cells.setdefault(cell, {})[node] = None

    def remove(self, node: Hashable) -> None:
        """Drop ``node`` from the index (no-op when absent)."""
        if node not in self._positions:
            return
        cell = self._cell_of.pop(node)
        del self._positions[node]
        occupants = self._cells[cell]
        del occupants[node]
        if not occupants:
            del self._cells[cell]

    def update(self, node: Hashable, position: Sequence[float]) -> None:
        """Move ``node`` to ``position``; only touches the grid on cell change."""
        pos = (float(position[0]), float(position[1]))
        old_cell = self._cell_of.get(node)
        if old_cell is None:
            self.insert(node, pos)
            return
        self._positions[node] = pos
        new_cell = self.cell_key(pos)
        if new_cell == old_cell:
            return
        occupants = self._cells[old_cell]
        del occupants[node]
        if not occupants:
            del self._cells[old_cell]
        self._cell_of[node] = new_cell
        self._cells.setdefault(new_cell, {})[node] = None

    # ----------------------------------------------------------------- queries

    def _ring_extent(self, r: float) -> int:
        return max(1, math.ceil(r / self.cell_size))

    def query_ball(self, position: Sequence[float], r: float) -> List[Hashable]:
        """All indexed nodes within Euclidean distance ``r`` of ``position``.

        The comparison is inclusive (``d <= r``) to match the radio models.
        """
        if r < 0:
            return []
        cx, cy = self.cell_key(position)
        k = self._ring_extent(r)
        cells = self._cells
        occupied: List[Dict[Hashable, None]] = []
        total = 0
        for dx in range(-k, k + 1):
            for dy in range(-k, k + 1):
                occupants = cells.get((cx + dx, cy + dy))
                if occupants:
                    occupied.append(occupants)
                    total += len(occupants)
        if total == 0:
            return []
        positions, hypot = self._positions, math.hypot
        px, py = float(position[0]), float(position[1])
        if total < _VECTOR_MIN_CANDIDATES:
            # Local aliases and an inlined math.hypot keep this hot loop cheap
            # while computing the exact same float as geometry.distance().
            out: List[Hashable] = []
            for occupants in occupied:
                for node in occupants:
                    q = positions[node]
                    if hypot(q[0] - px, q[1] - py) <= r:
                        out.append(node)
            return out
        # Vectorized filter on squared distances.  Candidates whose squared
        # distance falls within a tiny relative band of r² are re-checked with
        # the scalar math.hypot predicate (on the identical float differences)
        # so the result matches the loop above bit for bit — including points
        # exactly at range r and coincident with the query position.
        names: List[Hashable] = []
        for occupants in occupied:
            names.extend(occupants)
        coords = np.fromiter((positions[n] for n in names),
                             dtype=np.dtype((np.float64, 2)), count=total)
        dxs = coords[:, 0] - px
        dys = coords[:, 1] - py
        sq = dxs * dxs
        sq += dys * dys
        rsq = r * r
        keep = sq <= rsq
        band = np.flatnonzero(np.abs(sq - rsq) <= rsq * (2.0 * HYPOT_GUARD_BAND))
        for i in band.tolist():
            keep[i] = hypot(dxs[i], dys[i]) <= r
        return [names[i] for i in np.flatnonzero(keep).tolist()]

    def neighbors_within(self, node: Hashable, r: float) -> List[Hashable]:
        """Indexed nodes within distance ``r`` of ``node`` (excluding itself)."""
        position = self._positions[node]
        return [n for n in self.query_ball(position, r) if n != node]


    def pairs_within(self, r: float) -> Iterator[Tuple[Hashable, Hashable]]:
        """Yield every unordered pair ``(u, v)`` with ``d(u, v) <= r`` once.

        Pairs inside one cell are produced in occupant insertion order; pairs
        across cells scan only the forward half of the ``(2k+1)²``
        neighbourhood so each cell pair is visited a single time.
        """
        if r < 0:
            return
        k = self._ring_extent(r)
        forward = [(dx, dy) for dx in range(0, k + 1) for dy in range(-k, k + 1)
                   if dx > 0 or dy > 0]
        positions, hypot = self._positions, math.hypot
        for cell, occupants in self._cells.items():
            nodes = list(occupants)
            for i, u in enumerate(nodes):
                ux, uy = positions[u]
                for v in nodes[i + 1:]:
                    q = positions[v]
                    if hypot(q[0] - ux, q[1] - uy) <= r:
                        yield (u, v)
            cx, cy = cell
            for dx, dy in forward:
                others = self._cells.get((cx + dx, cy + dy))
                if not others:
                    continue
                for u in nodes:
                    ux, uy = positions[u]
                    for v in others:
                        q = positions[v]
                        if hypot(q[0] - ux, q[1] - uy) <= r:
                            yield (u, v)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"UniformGridIndex(cell={self.cell_size}, nodes={len(self._positions)}, "
                f"occupied_cells={len(self._cells)})")


# --------------------------------------------------------- tile partitioning

def x_tile_cuts(xs: Sequence[float], cell_size: float, tiles: int) -> List[int]:
    """Cut the grid's x-columns into ``tiles`` contiguous bands of cells,
    balanced by node count.

    ``xs`` are node x-coordinates; each node lands in column
    ``floor(x / cell_size)`` — the same cell convention as
    :meth:`UniformGridIndex.cell_key`, so a band of columns is exactly a band
    of grid cells.  The return value is ``tiles - 1`` ascending cut columns:
    tile ``t`` owns every column ``c`` with ``cuts[t-1] < c <= cuts[t]``
    (tile 0 is unbounded below, the last tile unbounded above, so *every*
    possible column — including ones nodes only reach later through mobility
    — has exactly one owner).

    The cuts are chosen greedily against the ideal quantile targets
    ``total * (t+1) / tiles`` while reserving one column for each remaining
    tile, so no tile is ever an empty range when there are at least ``tiles``
    occupied columns.  The assignment is a pure function of the inputs —
    deterministic across processes, so every shard worker derives the same
    ownership on its own.
    """
    if tiles < 1:
        raise ValueError("tiles must be >= 1")
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    if tiles == 1:
        return []
    counts: Dict[int, int] = {}
    for x in xs:
        column = math.floor(x / cell_size)
        counts[column] = counts.get(column, 0) + 1
    columns = sorted(counts)
    if len(columns) < tiles:
        raise ValueError(
            f"cannot split {len(columns)} occupied grid columns into {tiles} tiles; "
            "use fewer shards or a smaller cell size")
    total = sum(counts.values())
    cuts: List[int] = []
    acc = 0
    index = 0
    for tile in range(tiles - 1):
        target = total * (tile + 1) / tiles
        # Rightmost column this cut may take: each of the remaining tiles
        # (later cuts plus the final tile) must keep at least one column.
        last_allowed = len(columns) - (tiles - tile - 1) - 1
        while True:
            acc += counts[columns[index]]
            if acc >= target or index == last_allowed:
                break
            index += 1
        cuts.append(columns[index])
        index += 1
    return cuts
