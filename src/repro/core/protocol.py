"""Convenience helpers to instantiate a GRP network.

``build_grp_network`` wires together the simulator, a radio, a channel, an
optional mobility model and one :class:`~repro.core.node.GRPNode` per node.
The examples and the experiment scenarios are thin wrappers around it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Tuple

from repro.net.channel import ChannelModel, LossyChannel, PerfectChannel
from repro.net.network import Network
from repro.net.radio import RadioModel, UnitDiskRadio
from repro.net.topology import LinkSnapshot
from repro.sim.engine import Simulator
from repro.sim.randomness import SeedSequenceFactory

from .node import GRPConfig, GRPNode

__all__ = ["GRPDeployment", "build_grp_network"]


class GRPDeployment:
    """A ready-to-run GRP deployment: simulator + network + nodes.

    Attributes
    ----------
    sim:
        The discrete-event simulator.
    network:
        The wireless network carrying the GRP messages.
    nodes:
        Mapping node id -> :class:`GRPNode`.
    scenario_metadata:
        Structural facts published by the scenario builder (e.g. the member
        lists of a clustered layout); empty for unstructured scenarios.
    """

    def __init__(self, sim: Simulator, network: Network, nodes: Dict[Hashable, GRPNode],
                 config: GRPConfig):
        self.sim = sim
        self.network = network
        self.nodes = nodes
        self.config = config
        self.scenario_metadata: Dict[str, object] = {}
        self._started = False

    def start(self) -> None:
        """Start every node and the mobility process (idempotent)."""
        if not self._started:
            self.network.start()
            self._started = True

    def run(self, duration: float) -> None:
        """Start if needed and advance the simulation by ``duration`` time units."""
        self.start()
        self.sim.run(until=self.sim.now + duration)

    def views(self) -> Dict[Hashable, frozenset]:
        """Current views of all active nodes (a configuration snapshot)."""
        return {node_id: node.current_view()
                for node_id, node in self.nodes.items() if node.active}

    def topology(self):
        """Current symmetric-link topology over active nodes, as a ``networkx.Graph``."""
        return self.network.topology()

    def link_snapshot(self) -> LinkSnapshot:
        """Current symmetric-link :class:`~repro.net.topology.LinkSnapshot` (shared, immutable)."""
        return self.network.link_snapshot()

    def node(self, node_id: Hashable) -> GRPNode:
        """The GRP node with the given identifier."""
        return self.nodes[node_id]


def build_grp_network(positions: Mapping[Hashable, Tuple[float, float]],
                      config: GRPConfig,
                      radio: Optional[RadioModel] = None,
                      radio_range: float = 1.0,
                      channel: Optional[ChannelModel] = None,
                      loss_probability: float = 0.0,
                      mobility=None,
                      seed: Optional[int] = None) -> GRPDeployment:
    """Build a GRP deployment from node positions.

    Parameters
    ----------
    positions:
        Mapping node id -> initial (x, y) position.
    config:
        GRP protocol configuration (shared by all nodes).
    radio:
        Vicinity model; defaults to a :class:`UnitDiskRadio` with ``radio_range``.
    radio_range:
        Range of the default unit-disk radio (ignored when ``radio`` is given).
    channel:
        Channel model; defaults to a perfect channel, or a :class:`LossyChannel`
        when ``loss_probability`` > 0.
    loss_probability:
        Per-receiver message loss probability of the default channel.
    mobility:
        Optional mobility model (see :mod:`repro.mobility`).
    seed:
        Master seed; sub-streams are derived for the simulator, the channel and
        the mobility model.
    """
    seeds = SeedSequenceFactory(seed)
    sim = Simulator(seed=seeds.seed_for("simulator"))
    if radio is None:
        radio = UnitDiskRadio(radio_range)
    if channel is None:
        if loss_probability > 0:
            channel = LossyChannel(loss_probability=loss_probability,
                                   rng=seeds.stream("channel"))
        else:
            channel = PerfectChannel()
    elif isinstance(channel, LossyChannel):
        channel.set_rng(seeds.stream("channel"))
    if mobility is not None and hasattr(mobility, "set_rng"):
        mobility.set_rng(seeds.stream("mobility"))
    network = Network(sim, radio=radio, channel=channel, mobility=mobility)
    nodes: Dict[Hashable, GRPNode] = {}
    for node_id in sorted(positions, key=str):
        node = GRPNode(node_id, config)
        network.add_node(node, positions[node_id])
        nodes[node_id] = node
    return GRPDeployment(sim=sim, network=network, nodes=nodes, config=config)
