"""Sharded mega-world execution: one scenario, many workers, bit-identical.

Splits a single simulated field across shard workers by spatial tile
(:mod:`repro.shard.tiles`), runs each slice under conservative window
synchronization (:mod:`repro.shard.runner`) with send-time capture of
cross-shard deliveries through the network's receiver partition
(:mod:`repro.shard.world`), and merges a result that
matches the single-process run bit for bit — including post-run RNG states.
"""

from .channel import PerSenderChannel
from .runner import ShardRunResult, run_sharded
from .tiles import TileMap
from .world import SUPPORTED_TRAFFIC, ShardSpec, ShardUnsupportedError, ShardWorld

__all__ = ["PerSenderChannel", "ShardRunResult", "run_sharded", "TileMap",
           "SUPPORTED_TRAFFIC", "ShardSpec", "ShardUnsupportedError", "ShardWorld"]
