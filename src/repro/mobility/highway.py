"""Highway (VANET) mobility.

The paper motivates the Dynamic Group Service with vehicular networks:
vehicles travelling on a highway form convoys (groups) that grow, split when
too stretched, and merge again thanks to relative speeds.  This model places
vehicles on a multi-lane one-dimensional road:

* each lane has a nominal speed; vehicles keep a per-vehicle speed drawn around
  their lane's nominal speed;
* vehicles optionally change lane at random (which changes their speed and
  therefore the convoy composition over time);
* the road wraps around (ring road) so density stays constant, or vehicles can
  be configured to drive off the end and re-enter at the start.

Positions are 2-D: ``x`` along the road, ``y`` the lane offset — so the usual
unit-disk radio applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

import numpy as np

from .base import MobilityModel

__all__ = ["HighwayMobility"]

Point = Tuple[float, float]


@dataclass
class _VehicleState:
    lane: int
    speed: float


class HighwayMobility(MobilityModel):
    """Multi-lane highway with per-lane nominal speeds.

    Parameters
    ----------
    road_length:
        Length of the road (positions wrap around it).
    lane_count:
        Number of parallel lanes.
    lane_spacing:
        Lateral distance between two adjacent lanes.
    lane_speeds:
        Nominal speed of each lane (length must equal ``lane_count``); defaults
        to evenly spaced speeds between ``base_speed`` and ``base_speed * 1.5``.
    base_speed:
        Used to derive default lane speeds.
    speed_jitter:
        Relative jitter applied to each vehicle's personal speed.
    lane_change_probability:
        Probability, per step, that a vehicle changes to an adjacent lane.
    """

    def __init__(self, road_length: float, lane_count: int = 2, lane_spacing: float = 5.0,
                 lane_speeds: Optional[Iterable[float]] = None, base_speed: float = 20.0,
                 speed_jitter: float = 0.1, lane_change_probability: float = 0.02,
                 step_interval: float = 1.0, rng: Optional[np.random.Generator] = None):
        super().__init__(step_interval=step_interval, rng=rng)
        if road_length <= 0:
            raise ValueError("road_length must be positive")
        if lane_count < 1:
            raise ValueError("lane_count must be >= 1")
        if not 0.0 <= lane_change_probability <= 1.0:
            raise ValueError("lane_change_probability must be in [0, 1]")
        self.road_length = float(road_length)
        self.lane_count = int(lane_count)
        self.lane_spacing = float(lane_spacing)
        if lane_speeds is None:
            if lane_count == 1:
                lane_speeds = [base_speed]
            else:
                lane_speeds = list(np.linspace(base_speed, base_speed * 1.5, lane_count))
        self.lane_speeds = [float(s) for s in lane_speeds]
        if len(self.lane_speeds) != self.lane_count:
            raise ValueError("lane_speeds must have one entry per lane")
        self.speed_jitter = float(speed_jitter)
        self.lane_change_probability = float(lane_change_probability)
        self._states: Dict[Hashable, _VehicleState] = {}

    # -------------------------------------------------------------- internals

    def _draw_speed(self, lane: int) -> float:
        nominal = self.lane_speeds[lane]
        if self.speed_jitter == 0:
            return nominal
        low = nominal * (1 - self.speed_jitter)
        high = nominal * (1 + self.speed_jitter)
        return float(self._rng.uniform(low, high))

    def _state_of(self, node: Hashable, position: Point) -> _VehicleState:
        state = self._states.get(node)
        if state is None:
            lane = int(round(position[1] / self.lane_spacing)) if self.lane_spacing > 0 else 0
            lane = min(max(lane, 0), self.lane_count - 1)
            state = _VehicleState(lane=lane, speed=self._draw_speed(lane))
            self._states[node] = state
        return state

    # ------------------------------------------------------------------- API

    def initial_positions(self, node_ids, spacing: float = 30.0,
                          **kwargs) -> Dict[Hashable, Point]:
        """Place vehicles along the road with the given nominal spacing, lanes interleaved."""
        positions: Dict[Hashable, Point] = {}
        for index, node in enumerate(node_ids):
            lane = index % self.lane_count
            x = (index * spacing) % self.road_length
            x += float(self._rng.uniform(-spacing / 4, spacing / 4))
            positions[node] = (x % self.road_length, lane * self.lane_spacing)
            self._states[node] = _VehicleState(lane=lane, speed=self._draw_speed(lane))
        return positions

    def step(self, positions: Mapping[Hashable, Point], dt: float) -> Dict[Hashable, Point]:
        new_positions: Dict[Hashable, Point] = {}
        for node, position in positions.items():
            state = self._state_of(node, position)
            if self.lane_count > 1 and self._rng.random() < self.lane_change_probability:
                delta = 1 if self._rng.random() < 0.5 else -1
                new_lane = min(max(state.lane + delta, 0), self.lane_count - 1)
                if new_lane != state.lane:
                    state.lane = new_lane
                    state.speed = self._draw_speed(new_lane)
            x = (position[0] + state.speed * dt) % self.road_length
            y = state.lane * self.lane_spacing
            new_positions[node] = (x, y)
        return new_positions
