"""Protocol overhead measurements (experiment E8)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.protocol import GRPDeployment

__all__ = ["OverheadSummary", "overhead_summary"]


@dataclass(frozen=True)
class OverheadSummary:
    """Message overhead of one GRP run."""

    duration: float
    node_count: int
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    messages_per_node_per_second: float
    mean_payload_slots: float
    computations_per_node_per_second: float

    def as_row(self) -> Dict[str, object]:
        """Flat representation used by the experiment tables."""
        return {
            "nodes": self.node_count,
            "msgs/node/s": round(self.messages_per_node_per_second, 3),
            "payload slots": round(self.mean_payload_slots, 2),
            "computes/node/s": round(self.computations_per_node_per_second, 3),
            "delivered": self.messages_delivered,
            "dropped": self.messages_dropped,
        }


def overhead_summary(deployment: GRPDeployment, duration: float) -> OverheadSummary:
    """Summarise the message overhead of a finished (or running) deployment.

    The payload size is estimated from the message each node would send *now*
    (list + priorities + view), expressed in identity slots — a proxy for bytes
    that is independent of the identity encoding.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    network = deployment.network
    nodes = deployment.nodes
    node_count = max(len(nodes), 1)
    payload_sizes = []
    computations = 0
    for node in nodes.values():
        payload_sizes.append(node.outgoing_message().size_estimate())
        computations += node.computations
    return OverheadSummary(
        duration=float(duration),
        node_count=len(nodes),
        messages_sent=network.messages_sent,
        messages_delivered=network.messages_delivered,
        messages_dropped=network.messages_dropped,
        messages_per_node_per_second=network.messages_sent / node_count / duration,
        mean_payload_slots=(sum(payload_sizes) / len(payload_sizes)) if payload_sizes else 0.0,
        computations_per_node_per_second=computations / node_count / duration,
    )
