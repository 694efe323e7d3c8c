"""Spatial tiles: contiguous x-bands of grid columns, one per shard worker.

The sharded executor (:mod:`repro.shard.runner`) splits one simulated field
across workers *by grid region*: the plane is cut into columns of width
``cell_size`` (the radio's ``max_range``), the columns are grouped into
contiguous x-bands balanced by node count (:func:`x_tile_cuts`), and every
node is owned by the tile containing its initial position.  Ownership is **static**: protocol
state lives at the owner for the whole run, so a mobile node that wanders
into another tile's territory keeps its owner (its traffic just crosses the
shard boundary more often).  Which receivers of a broadcast are owned
elsewhere is decided per receiver batch by the network's receiver partition
(:meth:`repro.net.network.Network.set_partition`), not geometrically.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

__all__ = ["TileMap", "x_tile_cuts"]


def x_tile_cuts(xs: Sequence[float], cell_size: float, tiles: int) -> List[int]:
    """Cut the grid's x-columns into ``tiles`` contiguous bands of columns,
    balanced by node count.

    ``xs`` are node x-coordinates; each node lands in column
    ``floor(x / cell_size)``.  The return value is ``tiles - 1`` ascending
    cut columns: tile ``t`` owns every column ``c`` with
    ``cuts[t-1] < c <= cuts[t]`` (tile 0 is unbounded below, the last tile
    unbounded above, so *every* possible column — including ones nodes only
    reach later through mobility — has exactly one owner).

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


@dataclass(frozen=True)
class TileMap:
    """Assignment of grid x-columns to ``tiles`` contiguous spatial tiles.

    ``cuts`` are the ascending cut columns from :func:`x_tile_cuts`: tile ``t`` owns every column
    ``c`` with ``cuts[t-1] < c <= cuts[t]`` (open-ended at both extremes, so
    any position — however far mobility strays — maps to exactly one tile).
    """

    cuts: Tuple[int, ...]
    cell_size: float
    tiles: int

    @classmethod
    def from_positions(cls, positions: Mapping[Hashable, Sequence[float]],
                       cell_size: float, tiles: int) -> "TileMap":
        """Balance ``tiles`` x-bands over the given node positions."""
        xs = [pos[0] for pos in positions.values()]
        cuts = x_tile_cuts(xs, cell_size, tiles)
        return cls(cuts=tuple(cuts), cell_size=float(cell_size), tiles=int(tiles))

    def tile_of_x(self, x: float) -> int:
        """Tile owning the column that contains x-coordinate ``x``."""
        return bisect_left(self.cuts, math.floor(x / self.cell_size))

    def tile_of(self, position: Sequence[float]) -> int:
        """Tile owning ``position`` (only the x-coordinate matters)."""
        return self.tile_of_x(position[0])

    def assign(self, positions: Mapping[Hashable, Sequence[float]]) -> Dict[Hashable, int]:
        """Owner tile of every node, keyed by node id."""
        return {node: self.tile_of_x(pos[0]) for node, pos in positions.items()}
