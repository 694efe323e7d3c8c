"""Node churn schedules.

The paper's model lets nodes be *active* or *inactive*; appearance and
disappearance of nodes are transient faults the protocol must absorb.
:class:`ChurnSchedule` drives the ``activate``/``deactivate`` transitions of a
:class:`repro.net.network.Network`, either from an explicit schedule or from a
random on/off process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence

import numpy as np

from repro.net.network import Network

__all__ = ["ChurnEvent", "ChurnSchedule", "random_churn_schedule"]


@dataclass(frozen=True)
class ChurnEvent:
    """One planned activation change."""

    time: float
    node_id: Hashable
    active: bool


class ChurnSchedule:
    """Applies a list of :class:`ChurnEvent` to a network through the simulator."""

    def __init__(self, events: Sequence[ChurnEvent]):
        self.events: List[ChurnEvent] = sorted(events, key=lambda e: e.time)
        self.applied = 0

    def install(self, network: Network) -> None:
        """Schedule every event on the network's simulator."""
        for event in self.events:
            network.sim.schedule_at(event.time, self._apply, network, event)

    def _apply(self, network: Network, event: ChurnEvent) -> None:
        if event.node_id not in network:
            return
        if event.active:
            network.activate_node(event.node_id)
        else:
            network.deactivate_node(event.node_id)
        self.applied += 1


def random_churn_schedule(node_ids: Sequence[Hashable], duration: float,
                          off_rate: float, mean_off_time: float,
                          rng: Optional[np.random.Generator] = None,
                          start: float = 0.0) -> ChurnSchedule:
    """Generate a random on/off churn schedule.

    Each node independently switches off with exponential inter-arrival times of
    mean ``1 / off_rate`` and stays off for an exponential duration of mean
    ``mean_off_time``.

    Parameters
    ----------
    node_ids:
        Nodes subject to churn.
    duration:
        Horizon of the schedule (simulated seconds).
    off_rate:
        Rate (per simulated second) at which an active node switches off.
    mean_off_time:
        Mean duration of an off period.
    rng:
        Random stream.
    start:
        Time before which no churn event is generated (lets the protocol
        stabilize first).
    """
    if off_rate < 0 or mean_off_time <= 0:
        raise ValueError("off_rate must be >= 0 and mean_off_time > 0")
    rng = rng if rng is not None else np.random.default_rng()
    events: List[ChurnEvent] = []
    for node in node_ids:
        time = start
        while True:
            if off_rate == 0:
                break
            time += float(rng.exponential(1.0 / off_rate))
            if time >= duration:
                break
            events.append(ChurnEvent(time=time, node_id=node, active=False))
            time += float(rng.exponential(mean_off_time))
            if time >= duration:
                break
            events.append(ChurnEvent(time=time, node_id=node, active=True))
    return ChurnSchedule(events)
