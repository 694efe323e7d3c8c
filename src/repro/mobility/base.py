"""Mobility model interface.

A mobility model transforms the node-position mapping at fixed time intervals.
Models are deliberately stateless with respect to the network: the
:class:`repro.net.network.Network` owns the positions and calls
:meth:`MobilityModel.step` periodically (every ``step_interval`` simulated
seconds).  Models keep per-node kinematic state (destination, speed, lane…)
internally, keyed by node id, and create it lazily the first time they see a
node — so nodes may join or leave at any time.

Delta notification contract
---------------------------
The network maintains its array store and link-state caches by
*diffing* each step's result against the current positions: a node whose
returned position equals its current one costs nothing downstream.  With the
array backend the whole step lands as one bulk comparison-and-masked-write
into the contiguous position array (``Network._apply_position_updates``);
the scalar fallback compares per node.  Either way, models signal "this node
did not move" simply by echoing the input position unchanged (pass the same
tuple through, as the stock models do for paused waypoint nodes and for
:class:`~repro.mobility.static.StaticMobility`) rather than recomputing a
float that might differ in the last ulp — the cheapest possible delta
notification, and one that cannot desynchronize.  :func:`moved_nodes`
implements the same comparison for tests and tooling (the network itself no
longer calls it; the bulk write subsumes it).
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

__all__ = ["MobilityModel", "moved_nodes"]

Point = Tuple[float, float]


def moved_nodes(before: Mapping[Hashable, Point],
                after: Mapping[Hashable, Point]) -> Dict[Hashable, Point]:
    """The subset of ``after`` whose position differs from ``before``.

    Values are normalized to float tuples on both sides, so the comparison is
    by coordinate value whatever numeric types the model emitted.  Nodes
    absent from ``before`` (new arrivals carried by the model) count as
    moved.  This is the exact comparison
    :meth:`repro.net.network.Network.start_mobility` applies when mirroring a
    mobility step into its array store and link-state cache.
    """
    moved: Dict[Hashable, Point] = {}
    for node, pos in after.items():
        new = (float(pos[0]), float(pos[1]))
        old = before.get(node)
        if old is None or (float(old[0]), float(old[1])) != new:
            moved[node] = new
    return moved


class MobilityModel:
    """Base class for all mobility models."""

    def __init__(self, step_interval: float = 1.0,
                 rng: Optional[np.random.Generator] = None):
        if step_interval <= 0:
            raise ValueError("step_interval must be positive")
        self.step_interval = float(step_interval)
        self._rng = rng if rng is not None else np.random.default_rng()

    @property
    def rng(self) -> np.random.Generator:
        """Random stream of the model."""
        return self._rng

    def set_rng(self, rng: np.random.Generator) -> None:
        """Inject the random stream (called by :func:`repro.core.protocol.build_grp_network`)."""
        self._rng = rng

    # ------------------------------------------------------------------- API

    def initial_positions(self, node_ids, **kwargs) -> Dict[Hashable, Point]:
        """Optional helper producing initial positions consistent with the model."""
        raise NotImplementedError(f"{type(self).__name__} does not provide initial positions")

    def step(self, positions: Mapping[Hashable, Point], dt: float) -> Dict[Hashable, Point]:
        """Return the new positions after ``dt`` simulated seconds."""
        raise NotImplementedError
