"""Registered scenario builders.

The nine historical workloads live here as registry entries, plus three newer
regimes: urban Manhattan-grid mobility, flash-crowd join/leave bursts, and a
sparse intermittently-connected field over a lossy delayed channel.  Build
one with ``repro.scenarios.build(ScenarioSpec.create(name, **params),
seed=seed)``.

Every builder is a pure function of ``(seed, config, **params)``: all random
streams derive from the seed (via :class:`~repro.sim.randomness.SeedSequenceFactory`),
so the same spec and seed always produce a bit-identical deployment.
Structural scenarios publish their layout through
``deployment.scenario_metadata`` (e.g. the two cluster member lists).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.node import GRPConfig
from repro.core.protocol import GRPDeployment, build_grp_network
from repro.mobility.churn import ChurnEvent, ChurnSchedule
from repro.mobility.highway import HighwayMobility
from repro.mobility.manhattan import ManhattanGridMobility
from repro.mobility.random_walk import RandomWalkMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.rpgm import ReferencePointGroupMobility
from repro.mobility.sparse_waypoint import SparseWaypointMobility
from repro.net.channel import LossyChannel
from repro.net.geometry import line_positions, random_positions
from repro.sim.randomness import SeedSequenceFactory

from .registry import ScenarioParameter, scenario

__all__: List[str] = []  # Everything is consumed through the registry.


def _config(config: Optional[GRPConfig], dmax: int) -> GRPConfig:
    return config if config is not None else GRPConfig(dmax=dmax)


# ------------------------------------------------------------ static layouts

@scenario(
    "static_random",
    "Uniformly random static placement in a square area",
    [ScenarioParameter("n", "int", 20, "number of nodes"),
     ScenarioParameter("area", "float", 300.0, "side of the square area"),
     ScenarioParameter("radio_range", "float", 110.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("loss_probability", "float", 0.0, "per-receiver message loss probability")])
def static_random(*, seed: int, config: Optional[GRPConfig], n: int, area: float,
                  radio_range: float, dmax: int, loss_probability: float) -> GRPDeployment:
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    positions = random_positions(range(n), area=(area, area), rng=seeds.stream("placement"))
    return build_grp_network(positions, cfg, radio_range=radio_range,
                             loss_probability=loss_probability, seed=seed)


@scenario(
    "line_topology",
    "Chain of equally spaced static nodes",
    [ScenarioParameter("n", "int", 6, "number of nodes"),
     ScenarioParameter("spacing", "float", 45.0, "distance between consecutive nodes"),
     ScenarioParameter("radio_range", "float", 50.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound")])
def line_topology(*, seed: int, config: Optional[GRPConfig], n: int, spacing: float,
                  radio_range: float, dmax: int) -> GRPDeployment:
    cfg = _config(config, dmax)
    positions = line_positions(range(n), spacing=spacing)
    return build_grp_network(positions, cfg, radio_range=radio_range, seed=seed)


@scenario(
    "two_cluster_topology",
    "Two tight static clusters separated by a gap (merging experiment)",
    [ScenarioParameter("cluster_size", "int", 3, "nodes per cluster"),
     ScenarioParameter("gap", "float", 400.0, "distance between the clusters"),
     ScenarioParameter("spacing", "float", 30.0, "intra-cluster node spacing"),
     ScenarioParameter("radio_range", "float", 90.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound")])
def two_cluster_topology(*, seed: int, config: Optional[GRPConfig], cluster_size: int,
                         gap: float, spacing: float, radio_range: float,
                         dmax: int) -> GRPDeployment:
    cfg = _config(config, dmax)
    positions: Dict[Hashable, Tuple[float, float]] = {}
    left = list(range(cluster_size))
    right = list(range(cluster_size, 2 * cluster_size))
    for index, node in enumerate(left):
        positions[node] = (index * spacing, 0.0)
    offset = (cluster_size - 1) * spacing + gap
    for index, node in enumerate(right):
        positions[node] = (offset + index * spacing, 0.0)
    deployment = build_grp_network(positions, cfg, radio_range=radio_range, seed=seed)
    deployment.scenario_metadata = {"left": left, "right": right}
    return deployment


@scenario(
    "ring_of_clusters",
    "Static clusters on a circle, each in range of both neighbours",
    [ScenarioParameter("cluster_count", "int", 4, "number of clusters on the ring"),
     ScenarioParameter("cluster_size", "int", 3, "nodes per cluster"),
     ScenarioParameter("ring_radius", "float", 110.0, "radius of the ring of cluster centres"),
     ScenarioParameter("cluster_radius", "float", 18.0, "spread of one cluster around its centre"),
     ScenarioParameter("radio_range", "float", 120.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound")])
def ring_of_clusters(*, seed: int, config: Optional[GRPConfig], cluster_count: int,
                     cluster_size: int, ring_radius: float, cluster_radius: float,
                     radio_range: float, dmax: int) -> GRPDeployment:
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    rng = seeds.stream("placement")
    positions: Dict[Hashable, Tuple[float, float]] = {}
    clusters: List[List] = []
    node_id = 0
    for index in range(cluster_count):
        angle = 2 * math.pi * index / cluster_count
        cx = ring_radius * math.cos(angle) + ring_radius
        cy = ring_radius * math.sin(angle) + ring_radius
        members = []
        for _ in range(cluster_size):
            dx, dy = rng.uniform(-cluster_radius, cluster_radius, size=2)
            positions[node_id] = (cx + float(dx), cy + float(dy))
            members.append(node_id)
            node_id += 1
        clusters.append(members)
    deployment = build_grp_network(positions, cfg, radio_range=radio_range, seed=seed)
    deployment.scenario_metadata = {"clusters": clusters}
    return deployment


# ----------------------------------------------------------- mobile regimes

@scenario(
    "manet_waypoint",
    "Random-waypoint MANET in a square area",
    [ScenarioParameter("n", "int", 20, "number of nodes"),
     ScenarioParameter("area", "float", 300.0, "side of the square area"),
     ScenarioParameter("radio_range", "float", 120.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("speed", "float", 2.0, "max node speed (min is half of it)"),
     ScenarioParameter("pause_time", "float", 0.0, "pause at each waypoint"),
     ScenarioParameter("loss_probability", "float", 0.0, "per-receiver message loss probability")])
def manet_waypoint(*, seed: int, config: Optional[GRPConfig], n: int, area: float,
                   radio_range: float, dmax: int, speed: float, pause_time: float,
                   loss_probability: float) -> GRPDeployment:
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    mobility = RandomWaypointMobility((area, area), min_speed=speed * 0.5, max_speed=speed,
                                      pause_time=pause_time, rng=seeds.stream("mobility"))
    positions = mobility.initial_positions(range(n))
    return build_grp_network(positions, cfg, radio_range=radio_range, mobility=mobility,
                             loss_probability=loss_probability, seed=seed)


@scenario(
    "vanet_highway",
    "Multi-lane ring-road VANET with per-lane speeds",
    [ScenarioParameter("n", "int", 18, "number of vehicles"),
     ScenarioParameter("road_length", "float", 1500.0, "length of the ring road"),
     ScenarioParameter("radio_range", "float", 180.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("lane_count", "int", 2, "number of lanes"),
     ScenarioParameter("base_speed", "float", 25.0, "nominal speed of the slowest lane"),
     ScenarioParameter("spacing", "float", 40.0, "initial bumper-to-bumper spacing"),
     ScenarioParameter("loss_probability", "float", 0.0, "per-receiver message loss probability")])
def vanet_highway(*, seed: int, config: Optional[GRPConfig], n: int, road_length: float,
                  radio_range: float, dmax: int, lane_count: int, base_speed: float,
                  spacing: float, loss_probability: float) -> GRPDeployment:
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    mobility = HighwayMobility(road_length=road_length, lane_count=lane_count,
                               base_speed=base_speed, rng=seeds.stream("mobility"))
    positions = mobility.initial_positions(range(n), spacing=spacing)
    return build_grp_network(positions, cfg, radio_range=radio_range, mobility=mobility,
                             loss_probability=loss_probability, seed=seed)


@scenario(
    "rpgm_scenario",
    "Reference-point group mobility: convoys moving together",
    [ScenarioParameter("group_sizes", "int_tuple", (4, 4, 3), "nodes per convoy (e.g. 4+4+3)"),
     ScenarioParameter("area", "float", 300.0, "side of the square area"),
     ScenarioParameter("radio_range", "float", 100.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("group_speed", "float", 4.0, "speed of each convoy's reference point"),
     ScenarioParameter("member_radius", "float", 30.0, "member spread around the reference point")])
def rpgm_scenario(*, seed: int, config: Optional[GRPConfig], group_sizes: Tuple[int, ...],
                  area: float, radio_range: float, dmax: int, group_speed: float,
                  member_radius: float) -> GRPDeployment:
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    groups: List[List[int]] = []
    node_id = 0
    for size in group_sizes:
        groups.append(list(range(node_id, node_id + size)))
        node_id += size
    mobility = ReferencePointGroupMobility((area, area), groups, group_speed=group_speed,
                                           member_radius=member_radius,
                                           rng=seeds.stream("mobility"))
    positions = mobility.initial_positions([n for group in groups for n in group])
    deployment = build_grp_network(positions, cfg, radio_range=radio_range, mobility=mobility,
                                   seed=seed)
    deployment.scenario_metadata = {"groups": groups}
    return deployment


# ------------------------------------------------------ large-scale regimes

@scenario(
    "large_manet_waypoint",
    "Thousand-node random-waypoint field (large-network asymptotics)",
    [ScenarioParameter("n", "int", 1000, "number of nodes"),
     ScenarioParameter("area", "float", 2000.0, "side of the square area"),
     ScenarioParameter("radio_range", "float", 120.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("speed", "float", 10.0, "max node speed (min is half of it)"),
     ScenarioParameter("pause_time", "float", 0.0, "pause at each waypoint"),
     ScenarioParameter("loss_probability", "float", 0.0, "per-receiver message loss probability")])
def large_manet_waypoint(*, seed: int, config: Optional[GRPConfig], n: int, area: float,
                         radio_range: float, dmax: int, speed: float, pause_time: float,
                         loss_probability: float) -> GRPDeployment:
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    mobility = RandomWaypointMobility((area, area), min_speed=speed * 0.5, max_speed=speed,
                                      pause_time=pause_time, rng=seeds.stream("mobility"))
    positions = mobility.initial_positions(range(n))
    return build_grp_network(positions, cfg, radio_range=radio_range, mobility=mobility,
                             loss_probability=loss_probability, seed=seed)


@scenario(
    "dense_highway_convoy",
    "Dense bumper-to-bumper VANET convoy across many lanes",
    [ScenarioParameter("n", "int", 600, "number of vehicles"),
     ScenarioParameter("road_length", "float", 3000.0, "length of the ring road"),
     ScenarioParameter("radio_range", "float", 200.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 4, "group diameter bound"),
     ScenarioParameter("lane_count", "int", 6, "number of lanes"),
     ScenarioParameter("base_speed", "float", 25.0, "nominal speed of the slowest lane"),
     ScenarioParameter("spacing", "float", 15.0, "initial bumper-to-bumper spacing"),
     ScenarioParameter("loss_probability", "float", 0.0, "per-receiver message loss probability")])
def dense_highway_convoy(*, seed: int, config: Optional[GRPConfig], n: int,
                         road_length: float, radio_range: float, dmax: int, lane_count: int,
                         base_speed: float, spacing: float,
                         loss_probability: float) -> GRPDeployment:
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    mobility = HighwayMobility(road_length=road_length, lane_count=lane_count,
                               base_speed=base_speed, rng=seeds.stream("mobility"))
    positions = mobility.initial_positions(range(n), spacing=spacing)
    return build_grp_network(positions, cfg, radio_range=radio_range, mobility=mobility,
                             loss_probability=loss_probability, seed=seed)


# ------------------------------------------------------------- new regimes

@scenario(
    "manhattan_grid",
    "Urban Manhattan-grid mobility: nodes funnel down city streets",
    [ScenarioParameter("n", "int", 40, "number of nodes"),
     ScenarioParameter("area", "float", 600.0, "side of the square city"),
     ScenarioParameter("block_size", "float", 100.0, "distance between parallel streets"),
     ScenarioParameter("radio_range", "float", 100.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("speed", "float", 8.0, "travel speed along the streets"),
     ScenarioParameter("turn_probability", "float", 0.5,
                       "probability of turning at an intersection"),
     ScenarioParameter("loss_probability", "float", 0.0, "per-receiver message loss probability")])
def manhattan_grid(*, seed: int, config: Optional[GRPConfig], n: int, area: float,
                   block_size: float, radio_range: float, dmax: int, speed: float,
                   turn_probability: float, loss_probability: float) -> GRPDeployment:
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    mobility = ManhattanGridMobility(area=area, block_size=block_size, speed=speed,
                                     turn_probability=turn_probability,
                                     rng=seeds.stream("mobility"))
    positions = mobility.initial_positions(range(n))
    return build_grp_network(positions, cfg, radio_range=radio_range, mobility=mobility,
                             loss_probability=loss_probability, seed=seed)


@scenario(
    "flash_crowd",
    "Join/leave bursts: waves of nodes power off and return together",
    [ScenarioParameter("n", "int", 30, "number of nodes"),
     ScenarioParameter("area", "float", 400.0, "side of the square area"),
     ScenarioParameter("radio_range", "float", 130.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("speed", "float", 1.5, "max node speed (0 keeps the field static)"),
     ScenarioParameter("burst_fraction", "float", 0.3, "fraction of nodes leaving per burst"),
     ScenarioParameter("burst_period", "float", 30.0, "time between consecutive bursts"),
     ScenarioParameter("off_time", "float", 10.0, "how long a burst stays away"),
     ScenarioParameter("first_burst", "float", 40.0,
                       "time of the first burst (after stabilization)"),
     ScenarioParameter("horizon", "float", 400.0, "schedule bursts up to this simulated time"),
     ScenarioParameter("loss_probability", "float", 0.0, "per-receiver message loss probability")])
def flash_crowd(*, seed: int, config: Optional[GRPConfig], n: int, area: float,
                radio_range: float, dmax: int, speed: float, burst_fraction: float,
                burst_period: float, off_time: float, first_burst: float, horizon: float,
                loss_probability: float) -> GRPDeployment:
    if not 0.0 <= burst_fraction <= 1.0:
        raise ValueError("burst_fraction must be in [0, 1]")
    if burst_period <= 0 or off_time <= 0:
        raise ValueError("burst_period and off_time must be positive")
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    mobility = None
    if speed > 0:
        mobility = RandomWaypointMobility((area, area), min_speed=speed * 0.5,
                                          max_speed=speed, rng=seeds.stream("mobility"))
        positions = mobility.initial_positions(range(n))
    else:
        positions = random_positions(range(n), area=(area, area),
                                     rng=seeds.stream("placement"))
    deployment = build_grp_network(positions, cfg, radio_range=radio_range,
                                   mobility=mobility, loss_probability=loss_probability,
                                   seed=seed)
    churn_rng = seeds.stream("churn")
    burst_size = max(1, int(round(burst_fraction * n)))
    events: List[ChurnEvent] = []
    time = first_burst
    while time < horizon:
        # Node ids are a fixed ordered range, so the draw never depends on
        # set-iteration order (PYTHONHASHSEED independence).
        leavers = sorted(int(i) for i in churn_rng.choice(n, size=burst_size, replace=False))
        for node in leavers:
            events.append(ChurnEvent(time=time, node_id=node, active=False))
            events.append(ChurnEvent(time=time + off_time, node_id=node, active=True))
        time += burst_period
    schedule = ChurnSchedule(events)
    schedule.install(deployment.network)
    deployment.scenario_metadata = {"churn_schedule": schedule, "burst_size": burst_size}
    return deployment


@scenario(
    "city_scale",
    "Hundred-thousand-node static urban field: dense hotspots over a sparse background",
    [ScenarioParameter("n", "int", 100_000, "number of nodes"),
     ScenarioParameter("area", "float", 30_000.0, "side of the square city"),
     ScenarioParameter("radio_range", "float", 100.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("hotspot_count", "int", 12, "number of dense urban hotspots"),
     ScenarioParameter("hotspot_fraction", "float", 0.6, "fraction of nodes placed in hotspots"),
     ScenarioParameter("hotspot_sigma", "float", 2_000.0, "gaussian spread of one hotspot"),
     ScenarioParameter("loss_probability", "float", 0.05, "per-receiver message loss probability"),
     ScenarioParameter("min_delay", "float", 0.05, "minimum channel delivery delay"),
     ScenarioParameter("max_delay", "float", 0.05, "maximum channel delivery delay")])
def city_scale(*, seed: int, config: Optional[GRPConfig], n: int, area: float,
               radio_range: float, dmax: int, hotspot_count: int,
               hotspot_fraction: float, hotspot_sigma: float, loss_probability: float,
               min_delay: float, max_delay: float) -> GRPDeployment:
    """Static mega-city: the sharding and store benchmarks' reference workload.

    A ``hotspot_fraction`` share of the nodes cluster around gaussian city
    centres; the rest spread uniformly (suburban background).  The channel is
    lossy with a *positive minimum delay*, which gives any windowed executor
    (e.g. :mod:`repro.shard`) a non-zero lookahead; the default keeps
    ``min_delay == max_delay`` so the vectorized delivery batch path stays
    engaged.  The field is static — ownership of a spatial tile never changes.
    """
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ValueError("hotspot_fraction must be in [0, 1]")
    if hotspot_count <= 0:
        raise ValueError("hotspot_count must be positive")
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    positions = _hotspot_field(seeds.stream("placement"), n, area, hotspot_count,
                               hotspot_fraction, hotspot_sigma)
    channel = LossyChannel(loss_probability=loss_probability, min_delay=min_delay,
                           max_delay=max_delay)
    return build_grp_network(positions, cfg, radio_range=radio_range, channel=channel,
                             seed=seed)


def _hotspot_field(rng, n: int, area: float, hotspot_count: int,
                   hotspot_fraction: float,
                   hotspot_sigma: float) -> Dict[Hashable, Tuple[float, float]]:
    """Gaussian-hotspot urban placement shared by the ``city_scale`` family."""
    in_hotspots = int(round(hotspot_fraction * n))
    centres = rng.uniform(0.0, area, size=(hotspot_count, 2))
    # One vectorized pass per coordinate set; positions assemble in node-id
    # order so the layout is independent of dict iteration order.
    choice = rng.integers(0, hotspot_count, size=in_hotspots)
    spread = rng.normal(0.0, hotspot_sigma, size=(in_hotspots, 2))
    hotspot_xy = (centres[choice] + spread).clip(0.0, area)
    background_xy = rng.uniform(0.0, area, size=(n - in_hotspots, 2))
    positions: Dict[Hashable, Tuple[float, float]] = {}
    for node in range(in_hotspots):
        positions[node] = (float(hotspot_xy[node, 0]), float(hotspot_xy[node, 1]))
    for index in range(n - in_hotspots):
        positions[in_hotspots + index] = (float(background_xy[index, 0]),
                                          float(background_xy[index, 1]))
    return positions


@scenario(
    "city_scale_mobile",
    "Mega-city hotspot field where a sparse fraction of nodes circulate",
    [ScenarioParameter("n", "int", 100_000, "number of nodes"),
     ScenarioParameter("area", "float", 30_000.0, "side of the square city"),
     ScenarioParameter("radio_range", "float", 100.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("hotspot_count", "int", 12, "number of dense urban hotspots"),
     ScenarioParameter("hotspot_fraction", "float", 0.6, "fraction of nodes placed in hotspots"),
     ScenarioParameter("hotspot_sigma", "float", 2_000.0, "gaussian spread of one hotspot"),
     ScenarioParameter("mover_fraction", "float", 0.01, "fraction of nodes that move"),
     ScenarioParameter("speed", "float", 15.0, "maximum mover speed (min is half)"),
     ScenarioParameter("pause_time", "float", 5.0, "waypoint pause duration"),
     ScenarioParameter("loss_probability", "float", 0.05, "per-receiver message loss probability"),
     ScenarioParameter("min_delay", "float", 0.05, "minimum channel delivery delay"),
     ScenarioParameter("max_delay", "float", 0.05, "maximum channel delivery delay")])
def city_scale_mobile(*, seed: int, config: Optional[GRPConfig], n: int, area: float,
                      radio_range: float, dmax: int, hotspot_count: int,
                      hotspot_fraction: float, hotspot_sigma: float,
                      mover_fraction: float, speed: float, pause_time: float,
                      loss_probability: float, min_delay: float,
                      max_delay: float) -> GRPDeployment:
    """``city_scale`` with a circulating minority: the incremental-CSR workload.

    The static hotspot field of :func:`city_scale` plus
    :class:`~repro.mobility.sparse_waypoint.SparseWaypointMobility`: a
    ``mover_fraction`` share of the nodes (1% by default) follow random
    waypoints while everyone else stays parked.  Each mobility tick therefore
    dirties only a small, roughly constant set of array-store rows — exactly
    the regime where the array link-state's CSR patch beats a full rebuild.
    """
    if not 0.0 <= hotspot_fraction <= 1.0:
        raise ValueError("hotspot_fraction must be in [0, 1]")
    if hotspot_count <= 0:
        raise ValueError("hotspot_count must be positive")
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    positions = _hotspot_field(seeds.stream("placement"), n, area, hotspot_count,
                               hotspot_fraction, hotspot_sigma)
    mobility = SparseWaypointMobility((area, area), min_speed=speed * 0.5,
                                      max_speed=speed, mover_fraction=mover_fraction,
                                      pause_time=pause_time,
                                      rng=seeds.stream("mobility"))
    channel = LossyChannel(loss_probability=loss_probability, min_delay=min_delay,
                           max_delay=max_delay)
    return build_grp_network(positions, cfg, radio_range=radio_range, channel=channel,
                             mobility=mobility, seed=seed)


@scenario(
    "sparse_lossy_field",
    "Sparse intermittently-connected field over a lossy delayed channel",
    [ScenarioParameter("n", "int", 40, "number of nodes"),
     ScenarioParameter("area", "float", 1500.0, "side of the square area (sparse by default)"),
     ScenarioParameter("radio_range", "float", 100.0, "unit-disk radio range"),
     ScenarioParameter("dmax", "int", 3, "group diameter bound"),
     ScenarioParameter("speed", "float", 1.0, "random-walk speed"),
     ScenarioParameter("turn_interval", "float", 10.0, "time between random heading changes"),
     ScenarioParameter("loss_probability", "float", 0.3, "per-receiver message loss probability"),
     ScenarioParameter("min_delay", "float", 0.05, "minimum channel delivery delay"),
     ScenarioParameter("max_delay", "float", 0.2, "maximum channel delivery delay")])
def sparse_lossy_field(*, seed: int, config: Optional[GRPConfig], n: int, area: float,
                       radio_range: float, dmax: int, speed: float, turn_interval: float,
                       loss_probability: float, min_delay: float,
                       max_delay: float) -> GRPDeployment:
    cfg = _config(config, dmax)
    seeds = SeedSequenceFactory(seed)
    mobility = RandomWalkMobility((area, area), speed=speed, turn_interval=turn_interval,
                                  rng=seeds.stream("mobility"))
    positions = mobility.initial_positions(range(n))
    channel = LossyChannel(loss_probability=loss_probability, min_delay=min_delay,
                           max_delay=max_delay)
    return build_grp_network(positions, cfg, radio_range=radio_range, channel=channel,
                             mobility=mobility, seed=seed)
