"""Wireless network substrate: geometry, radios, channels, network, faults."""

from .channel import (ChannelDecision, ChannelModel, CollisionChannel, LossyChannel,
                      PerfectChannel)
from .faults import FaultInjector
from .geometry import (bounding_box, clamp_to_area, distance, distances_from, grid_positions,
                       line_positions, pairwise_distances, random_positions)
from .network import Network
from .radio import AsymmetricRangeRadio, ProbabilisticDiskRadio, RadioModel, UnitDiskRadio
from .topology import LinkSnapshot

__all__ = [
    "ChannelDecision", "ChannelModel", "CollisionChannel", "LossyChannel", "PerfectChannel",
    "FaultInjector",
    "bounding_box", "clamp_to_area", "distance", "distances_from", "grid_positions",
    "line_positions", "pairwise_distances", "random_positions",
    "Network",
    "AsymmetricRangeRadio", "ProbabilisticDiskRadio", "RadioModel", "UnitDiskRadio",
    "LinkSnapshot",
]
