"""Equivalence suite for the network's neighbour engines.

A unit-disk network (CSR link state) and its brute-force twin must report
identical neighbour sets, topology snapshots and broadcast receiver sets.
Both must also equal links and receivers computed straight from the
definition (``d(u, v) <= range of u``) — the only reference the per-node-range
radio has, since it takes the brute-force scan itself.  This holds across
random placements, mobility steps, churn, and the nasty geometric corner
cases (nodes exactly on cell edges, exactly at radio range, coincident
points, empty networks).  The fading-band radio's RNG rule is pinned here
too.
"""

import math

import numpy as np
import pytest

from repro.net.channel import LossyChannel
from repro.net.geometry import distance
from repro.net.network import Network
from repro.net.radio import AsymmetricRangeRadio, ProbabilisticDiskRadio, UnitDiskRadio
from repro.sim.engine import Simulator
from repro.sim.process import Process

from reference_backends import reference_radio
from reference_topology import snapshot_graph


def make_network(sim, radio, production=True, **kwargs):
    """A network on ``radio``, or on its brute-force reference if not ``production``."""
    if not production:
        radio = reference_radio(radio)
    return Network(sim, radio=radio, **kwargs)


class Recorder(Process):
    """Test process recording every received (sender, payload)."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.inbox = []

    def on_message(self, sender, payload):
        self.inbox.append((sender, payload))


# ------------------------------------------------ randomized equivalence


def make_radio(kind, r, seed):
    if kind == "unit":
        return UnitDiskRadio(r)
    if kind == "asymmetric":
        rng = np.random.default_rng(seed + 1)
        ranges = {i: float(rng.uniform(0.3 * r, r)) for i in range(0, 40, 3)}
        return AsymmetricRangeRadio(r, ranges=ranges)
    raise ValueError(kind)


def random_placement(seed, r):
    """Random placement with cell-edge, at-range and coincident corner cases."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))
    area = float(rng.uniform(2 * r, 10 * r))
    positions = {i: (float(x), float(y))
                 for i, (x, y) in enumerate(rng.uniform(0, area, size=(n, 2)))}
    nodes = list(positions)
    for node in nodes:
        draw = rng.random()
        x, y = positions[node]
        if draw < 0.15:  # snap onto a grid-cell edge
            positions[node] = (round(x / r) * r, y)
        elif draw < 0.25 and len(nodes) > 1:  # coincide with another node
            other = nodes[int(rng.integers(0, len(nodes)))]
            positions[node] = positions[other]
        elif draw < 0.35 and len(nodes) > 1:  # exactly at radio range
            other = nodes[int(rng.integers(0, len(nodes)))]
            if other != node:
                ox, oy = positions[other]
                angle = float(rng.uniform(0, 2 * math.pi))
                positions[node] = (ox + r * math.cos(angle), oy + r * math.sin(angle))
    return positions, area, rng


def reach_of(radio, sender):
    """How far ``sender`` transmits, read from the radio's parameters."""
    if isinstance(radio, AsymmetricRangeRadio):
        return radio.range_of(sender)
    return radio.radio_range


def build_world(positions, radio, seed, production=True):
    sim = Simulator(seed=seed)
    net = make_network(sim, radio, production)
    for node, pos in positions.items():
        net.add_node(Recorder(node), pos)
    return sim, net


def assert_links_from_definition(net):
    """Snapshots and neighbour sets equal links computed from positions alone."""
    radio, positions = net.radio, net.positions

    def reaches(u, v, pu, pv):
        return distance(pu, pv) <= reach_of(radio, u)

    reference = snapshot_graph(positions, reaches, active=net.active_nodes())
    assert {frozenset(e) for e in net.topology().edges} == \
        {frozenset(e) for e in reference.edges}
    arcs = {(u, v) for u in reference for v in reference
            if u != v and reaches(u, v, positions[u], positions[v])}
    assert set(net.directed_topology().edges) == arcs
    for node in net.node_ids:
        expected = set(reference.neighbors(node)) if node in reference else set()
        assert net.neighbors_of(node) == expected


def assert_broadcasts_reach_range(sim, net, payload):
    """Each broadcast reaches exactly the active nodes within the sender's range."""
    positions = net.positions
    active = net.active_nodes()
    seen = {node: len(net.process(node).inbox) for node in net.node_ids}
    expected = {node: [] for node in net.node_ids}
    for sender in net.node_ids:
        reach = reach_of(net.radio, sender)
        receivers = [v for v in net.node_ids
                     if sender in active and v != sender and v in active
                     and distance(positions[sender], positions[v]) <= reach]
        assert net.broadcast(sender, lambda: payload) == len(receivers)
        sim.run()
        for v in receivers:
            expected[v].append((sender, payload))
    for node in net.node_ids:
        assert net.process(node).inbox[seen[node]:] == expected[node]


def assert_topologies_match(fast, brute):
    gi, gb = fast.topology(), brute.topology()
    assert set(gi.nodes) == set(gb.nodes)
    assert {frozenset(e) for e in gi.edges} == {frozenset(e) for e in gb.edges}
    di, db = fast.directed_topology(), brute.directed_topology()
    assert set(di.nodes) == set(db.nodes)
    assert set(di.edges) == set(db.edges)
    for node in fast.node_ids:
        assert fast.neighbors_of(node) == brute.neighbors_of(node)
    # Cross-check against the reference snapshot builder as well.
    reference = snapshot_graph(brute.positions, brute.radio.link_exists,
                               active=brute.active_nodes())
    assert {frozenset(e) for e in gi.edges} == {frozenset(e) for e in reference.edges}


@pytest.mark.parametrize("radio_kind", ["unit", "asymmetric"])
@pytest.mark.parametrize("seed", range(12))
def test_randomized_equivalence(radio_kind, seed):
    """Links and broadcasts follow the definition through placement/mobility/churn.

    The unit disk (CSR path) must also match its brute-force twin bit for
    bit; per-node ranges take the brute-force scan, so for them the
    definition is the reference.
    """
    r = float(np.random.default_rng(seed + 100).uniform(5.0, 40.0))
    positions, area, rng = random_placement(seed, r)
    worlds = [build_world(positions, make_radio(radio_kind, r, seed), seed)]
    if radio_kind == "unit":
        worlds.append(build_world(positions, make_radio(radio_kind, r, seed), seed,
                                  production=False))

    def check(payload):
        for sim, net in worlds:
            assert_links_from_definition(net)
            assert_broadcasts_reach_range(sim, net, payload)
        if len(worlds) == 2:
            assert_topologies_match(worlds[0][1], worlds[1][1])

    check(("hello", 0))
    nodes = list(positions)
    first = worlds[0][1]
    for step in range(4):
        if nodes:
            # Random waypoint-ish jiggle, applied identically to every world.
            moved = {node: (float(rng.uniform(0, area)), float(rng.uniform(0, area)))
                     for node in nodes if rng.random() < 0.5}
            for _, net in worlds:
                net.set_positions(moved)
            # Churn: flip a random subset.
            for node in nodes:
                if rng.random() < 0.2:
                    active = first.process(node).active
                    for _, net in worlds:
                        if active:
                            net.deactivate_node(node)
                        else:
                            net.activate_node(node)
        check(("round", step))


def test_fading_band_draws_once_per_band_candidate():
    """A scan-path broadcast of the fading-band radio draws exactly one number
    per active candidate in ``(inner, outer]``, in insertion order, and none
    for any other candidate.

    Because of this rule the scan may visit out-of-range candidates freely
    without moving the radio's stream; any CSR support for non-uniform
    radios has to keep it.
    """
    inner, outer, p = 10.0, 25.0, 0.5
    rng = np.random.default_rng(42)
    positions = {i: (float(x), float(y))
                 for i, (x, y) in enumerate(rng.uniform(0, 80, size=(30, 2)))}
    stream = np.random.default_rng(99)
    sim = Simulator(seed=5)
    net = Network(sim, radio=ProbabilisticDiskRadio(inner, outer, band_probability=p,
                                                    rng=stream))
    for node, pos in positions.items():
        net.add_node(Recorder(node), pos)
    inactive = (2, 11, 17, 23)
    for node in inactive:
        net.deactivate_node(node)
    band_total = skipped_in_band = 0
    for sender in net.node_ids:
        if sender in inactive:
            continue
        reference = np.random.default_rng()
        reference.bit_generator.state = stream.bit_generator.state
        expected = set()
        for v in net.node_ids:
            if v == sender:
                continue
            d = distance(positions[sender], positions[v])
            if d <= inner:
                if v not in inactive:
                    expected.add(v)
            elif d <= outer:
                if v in inactive:
                    skipped_in_band += 1
                else:
                    band_total += 1
                    if reference.random() < p:
                        expected.add(v)
        seen = {v: len(net.process(v).inbox) for v in net.node_ids}
        assert net.broadcast(sender, lambda: "p") == len(expected)
        sim.run()
        assert {v for v in net.node_ids if len(net.process(v).inbox) > seen[v]} == expected
        assert stream.bit_generator.state == reference.bit_generator.state
    assert band_total > 0 and skipped_in_band > 0


def test_the_scan_builds_once_at_the_first_accepted_receiver():
    """Fading-band radio (scan path) over a lossy zero-delay channel: the
    source runs exactly once per send that has an accepted receiver, right
    after the channel accepts the first one, and never for the others."""
    rng = np.random.default_rng(4)
    sim = Simulator(seed=5)
    network = Network(sim, radio=ProbabilisticDiskRadio(10.0, 25.0, band_probability=0.5,
                                                        rng=np.random.default_rng(6)),
                      channel=LossyChannel(loss_probability=0.5,
                                           rng=np.random.default_rng(7)))
    for node, (x, y) in enumerate(rng.uniform(0, 60, size=(25, 2))):
        network.add_node(Recorder(node), (float(x), float(y)))
    log = []
    stock_decide = network.channel.decide

    def logged_decide(sender, receiver, time):
        decision = stock_decide(sender, receiver, time)
        log.append(("decide", decision.delivered))
        return decision

    network.channel.decide = logged_decide

    def make_payload():
        log.append(("build",))
        return "p"

    drop_before_build = silent = 0
    for sender in network.node_ids:
        log.clear()
        accepted = network.broadcast(sender, make_payload)
        built = [i for i, entry in enumerate(log) if entry == ("build",)]
        if accepted == 0:
            assert built == []
            silent += 1
            continue
        first = log.index(("decide", True))
        assert built == [first + 1]
        drop_before_build += first > 0
    assert drop_before_build > 0 and silent > 0
    received = [payload for node in network.node_ids
                for _, payload in network.process(node).inbox]
    assert len(received) == network.messages_delivered > 0
    assert set(received) == {"p"}


@pytest.mark.parametrize("production", [True, False])
def test_mobility_ghost_nodes_are_ignored(production):
    """Mobility models emitting unknown node ids must not pollute the tables."""
    from repro.mobility.static import StaticMobility

    class GhostMobility(StaticMobility):
        def step(self, positions, dt):
            return dict(positions, ghost=(1.0, 1.0))

    sim = Simulator(seed=0)
    net = make_network(sim, UnitDiskRadio(10.0), production, mobility=GhostMobility())
    net.add_node(Recorder("a"), (0, 0))
    net.add_node(Recorder("b"), (3, 0))
    net.neighbors_of("a")  # build the link state before the first mobility step
    net.start()
    sim.run(until=2.5)
    assert sorted(net.positions) == ["a", "b"]
    assert net.broadcast("a", lambda: "x") == 1
    assert net.neighbors_of("a") == {"b"}


def test_unbounded_radio_falls_back_to_brute_force():
    class EverywhereRadio(UnitDiskRadio):
        def __init__(self):
            super().__init__(1.0)

        def in_vicinity(self, sender, receiver, sender_pos, receiver_pos):
            return True

        def max_range(self):
            return None

    sim = Simulator(seed=0)
    net = Network(sim, radio=EverywhereRadio())
    for i in range(5):
        net.add_node(Recorder(i), (i * 1000.0, 0.0))
    assert net._link_state() is None
    assert net.broadcast(0, lambda: "x") == 4
    assert net.neighbors_of(0) == {1, 2, 3, 4}


# ------------------------------------------------------------ cache behaviour


class TestSnapshotCache:
    def build(self, production=True):
        sim = Simulator(seed=0)
        net = make_network(sim, UnitDiskRadio(10.0), production)
        for node, pos in {"a": (0, 0), "b": (5, 0), "c": (50, 0)}.items():
            net.add_node(Recorder(node), pos)
        return sim, net

    @pytest.mark.parametrize("production", [True, False])
    def test_snapshot_is_cached_until_invalidated(self, production):
        sim, net = self.build(production)
        first = net.link_snapshot()
        assert net.link_snapshot() is first
        net.set_position("c", (8, 0))
        second = net.link_snapshot()
        assert second is not first
        assert second.to_graph().has_edge("b", "c")

    def test_returned_graph_is_a_copy(self):
        sim, net = self.build()
        graph = net.topology()
        graph.remove_edge("a", "b")
        assert net.topology().has_edge("a", "b")

    def test_activation_change_invalidates_cache(self):
        sim, net = self.build()
        assert "b" in net.topology()
        # Deactivate through the process directly, bypassing the network API.
        net.process("b").deactivate()
        assert "b" not in net.topology()
        net.process("b").activate()
        assert "b" in net.topology()

    def test_remove_node_invalidates_cache_and_index(self):
        sim, net = self.build()
        assert net.neighbors_of("a") == {"b"}
        net.remove_node("b")
        assert net.neighbors_of("a") == set()
        assert net.broadcast("a", lambda: "x") == 0

    def test_growing_asymmetric_range_is_observed(self):
        sim = Simulator(seed=0)
        radio = AsymmetricRangeRadio(10.0)
        net = Network(sim, radio=radio)
        net.add_node(Recorder("a"), (0, 0))
        net.add_node(Recorder("b"), (30, 0))
        assert net.neighbors_of("a") == set()
        # Raising the maximum range changes the cache key, so the new link
        # shows up without an explicit invalidation.
        radio.set_range("a", 40.0)
        radio.set_range("b", 40.0)
        assert net.neighbors_of("a") == {"b"}
        assert net.broadcast("a", lambda: "x") == 1

    def test_invalidate_topology_after_in_place_radio_mutation(self):
        sim = Simulator(seed=0)
        radio = AsymmetricRangeRadio(10.0, ranges={"a": 40.0, "b": 40.0})
        net = Network(sim, radio=radio)
        net.add_node(Recorder("a"), (0, 0))
        net.add_node(Recorder("b"), (30, 0))
        assert net.neighbors_of("a") == {"b"}
        # Shrinking one range does not change max_range(): the cache cannot
        # see it, which is exactly what invalidate_topology() is for.
        radio.set_range("a", 5.0)
        net.invalidate_topology()
        assert net.neighbors_of("a") == set()
