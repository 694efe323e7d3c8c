"""Spatial tiles: contiguous x-bands of grid cells, one per shard worker.

The sharded executor (:mod:`repro.shard.runner`) splits one simulated field
across workers *by grid region*: the columns of the network's
:class:`~repro.net.spatialindex.UniformGridIndex` (cell side = the radio's
``max_range``) are cut into contiguous x-bands balanced by node count
(:func:`repro.net.spatialindex.x_tile_cuts`), and every node is owned by the
tile containing its initial position.  Ownership is **static**: protocol
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
from typing import Dict, Hashable, Mapping, Sequence, Tuple

from repro.net.spatialindex import x_tile_cuts

__all__ = ["TileMap"]


@dataclass(frozen=True)
class TileMap:
    """Assignment of grid x-columns to ``tiles`` contiguous spatial tiles.

    ``cuts`` are the ascending cut columns from
    :func:`~repro.net.spatialindex.x_tile_cuts`: tile ``t`` owns every column
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
