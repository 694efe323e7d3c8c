"""Equivalence suite for the spatial-index neighbour engine.

The grid index must be *behaviourally invisible*: for every radio with a
bounded range, the indexed network and the brute-force network must report
identical neighbour sets, identical topology snapshots and identical broadcast
receiver sets — across random placements, mobility steps, churn, and the nasty
geometric corner cases (nodes exactly on cell edges, exactly at radio range,
coincident points, empty networks).
"""

import math

import numpy as np
import pytest

from repro.net.geometry import distance
from repro.net.network import Network
from repro.net.radio import AsymmetricRangeRadio, ProbabilisticDiskRadio, UnitDiskRadio
from repro.net.spatialindex import UniformGridIndex
from repro.sim.engine import Simulator
from repro.sim.process import Process

from reference_backends import BRUTE_FORCE, reference_radio
from reference_topology import snapshot_graph


def make_network(sim, radio, use_index=True, **kwargs):
    """A network on ``radio``, or on its brute-force reference if not ``use_index``."""
    if not use_index:
        radio = reference_radio(radio, BRUTE_FORCE)
    return Network(sim, radio=radio, **kwargs)


class Recorder(Process):
    """Test process recording every received (sender, payload)."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.inbox = []

    def on_message(self, sender, payload):
        self.inbox.append((sender, payload))


def brute_pairs(positions, r):
    nodes = list(positions)
    out = set()
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if distance(positions[u], positions[v]) <= r:
                out.add(frozenset((u, v)))
    return out


# --------------------------------------------------------------- index itself


class TestUniformGridIndex:
    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValueError):
            UniformGridIndex(0.0)

    def test_empty_index(self):
        index = UniformGridIndex(10.0)
        assert len(index) == 0
        assert index.query_ball((0, 0), 100.0) == []
        assert list(index.pairs_within(100.0)) == []

    def test_insert_remove_update(self):
        index = UniformGridIndex(10.0, {"a": (0, 0), "b": (5, 5)})
        assert "a" in index and len(index) == 2
        with pytest.raises(ValueError):
            index.insert("a", (1, 1))
        index.update("a", (100, 100))
        assert index.position_of("a") == (100.0, 100.0)
        assert set(index.query_ball((100, 100), 1.0)) == {"a"}
        index.remove("a")
        index.remove("a")  # no-op
        assert "a" not in index and len(index) == 1

    def test_nodes_exactly_on_cell_edges(self):
        # Positions at exact multiples of the cell size land in one cell only
        # and are still found by queries from either side of the edge.
        index = UniformGridIndex(10.0)
        for i, pos in enumerate([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (-10.0, 0.0)]):
            index.insert(i, pos)
        assert set(index.query_ball((0.0, 0.0), 10.0)) == {0, 1, 3}
        assert set(index.query_ball((9.999, 0.0), 10.0)) == {0, 1}
        assert brute_pairs(dict(enumerate([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0),
                                           (-10.0, 0.0)])), 10.0) == \
            {frozenset(p) for p in index.pairs_within(10.0)}

    def test_coincident_points(self):
        index = UniformGridIndex(5.0, {"a": (3, 3), "b": (3, 3), "c": (3, 3)})
        assert set(index.neighbors_within("a", 0.0)) == {"b", "c"}
        assert {frozenset(p) for p in index.pairs_within(0.0)} == \
            {frozenset(("a", "b")), frozenset(("a", "c")), frozenset(("b", "c"))}

    def test_radius_larger_than_cell(self):
        rng = np.random.default_rng(7)
        positions = {i: (float(x), float(y))
                     for i, (x, y) in enumerate(rng.uniform(-50, 50, size=(40, 2)))}
        index = UniformGridIndex(4.0, positions)
        for r in (0.0, 3.0, 17.5, 200.0):
            assert {frozenset(p) for p in index.pairs_within(r)} == brute_pairs(positions, r)
            for node, pos in positions.items():
                expected = {n for n, p in positions.items()
                            if n != node and distance(pos, p) <= r}
                assert set(index.neighbors_within(node, r)) == expected

    def test_pairs_are_unique(self):
        rng = np.random.default_rng(3)
        positions = {i: (float(x), float(y))
                     for i, (x, y) in enumerate(rng.uniform(0, 30, size=(25, 2)))}
        index = UniformGridIndex(10.0, positions)
        pairs = list(index.pairs_within(10.0))
        assert len(pairs) == len({frozenset(p) for p in pairs})


# ------------------------------------------------- randomized network twins


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


def build_twins(positions, radio_factory, seed):
    """Two identical networks, one indexed, one brute-force."""
    nets = []
    for use_index in (True, False):
        sim = Simulator(seed=seed)
        net = make_network(sim, radio_factory(), use_index)
        for node, pos in positions.items():
            net.add_node(Recorder(node), pos)
        nets.append((sim, net))
    return nets


def assert_topologies_match(indexed, brute):
    gi, gb = indexed.topology(), brute.topology()
    assert set(gi.nodes) == set(gb.nodes)
    assert {frozenset(e) for e in gi.edges} == {frozenset(e) for e in gb.edges}
    di, db = indexed.directed_topology(), brute.directed_topology()
    assert set(di.nodes) == set(db.nodes)
    assert set(di.edges) == set(db.edges)
    for node in indexed.node_ids:
        assert indexed.neighbors_of(node) == brute.neighbors_of(node)
    # Cross-check against the reference snapshot builder as well.
    reference = snapshot_graph(brute.positions, brute.radio.link_exists,
                               active=brute.active_nodes())
    assert {frozenset(e) for e in gi.edges} == {frozenset(e) for e in reference.edges}


def assert_broadcasts_match(sim_i, net_i, sim_b, net_b, payload):
    for sender in net_i.node_ids:
        got_i = net_i.broadcast(sender, payload)
        got_b = net_b.broadcast(sender, payload)
        assert got_i == got_b
        sim_i.run()
        sim_b.run()
    for node in net_i.node_ids:
        assert net_i.process(node).inbox == net_b.process(node).inbox


@pytest.mark.parametrize("radio_kind", ["unit", "asymmetric"])
@pytest.mark.parametrize("seed", range(12))
def test_randomized_equivalence(radio_kind, seed):
    """Indexed and brute-force backends agree through placement/mobility/churn."""
    r = float(np.random.default_rng(seed + 100).uniform(5.0, 40.0))
    positions, area, rng = random_placement(seed, r)
    (sim_i, net_i), (sim_b, net_b) = build_twins(
        positions, lambda: make_radio(radio_kind, r, seed), seed)
    assert_topologies_match(net_i, net_b)
    assert_broadcasts_match(sim_i, net_i, sim_b, net_b, ("hello", 0))

    nodes = list(positions)
    for step in range(4):
        if nodes:
            # Random waypoint-ish jiggle, applied identically to both twins.
            moved = {node: (float(rng.uniform(0, area)), float(rng.uniform(0, area)))
                     for node in nodes if rng.random() < 0.5}
            net_i.set_positions(moved)
            net_b.set_positions(moved)
            # Churn: flip a random subset.
            for node in nodes:
                if rng.random() < 0.2:
                    if net_i.process(node).active:
                        net_i.deactivate_node(node)
                        net_b.deactivate_node(node)
                    else:
                        net_i.activate_node(node)
                        net_b.activate_node(node)
        assert_topologies_match(net_i, net_b)
        assert_broadcasts_match(sim_i, net_i, sim_b, net_b, ("round", step))


def test_probabilistic_radio_equivalence():
    """Stochastic radios draw the same stream on both backends (same seed)."""
    rng = np.random.default_rng(42)
    positions = {i: (float(x), float(y))
                 for i, (x, y) in enumerate(rng.uniform(0, 80, size=(30, 2)))}
    inboxes = []
    for use_index in (True, False):
        sim = Simulator(seed=5)
        radio = ProbabilisticDiskRadio(10.0, 25.0, band_probability=0.5,
                                       rng=np.random.default_rng(99))
        net = make_network(sim, radio, use_index)
        for node, pos in positions.items():
            net.add_node(Recorder(node), pos)
        for sender in net.node_ids:
            net.broadcast(sender, "p")
        sim.run()
        inboxes.append({node: net.process(node).inbox for node in net.node_ids})
    assert inboxes[0] == inboxes[1]


@pytest.mark.parametrize("use_index", [True, False])
def test_mobility_ghost_nodes_are_ignored(use_index):
    """Mobility models emitting unknown node ids must not pollute the tables."""
    from repro.mobility.static import StaticMobility

    class GhostMobility(StaticMobility):
        def step(self, positions, dt):
            return dict(positions, ghost=(1.0, 1.0))

    sim = Simulator(seed=0)
    net = make_network(sim, UnitDiskRadio(10.0), use_index, mobility=GhostMobility())
    net.add_node(Recorder("a"), (0, 0))
    net.add_node(Recorder("b"), (3, 0))
    net.neighbors_of("a")  # force index build before the first mobility step
    net.start()
    sim.run(until=2.5)
    assert sorted(net.positions) == ["a", "b"]
    assert net.broadcast("a", "x") == 1
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
    assert net._spatial_index() is None
    assert net.broadcast(0, "x") == 4
    assert net.neighbors_of(0) == {1, 2, 3, 4}


# ------------------------------------------------------------ cache behaviour


class TestSnapshotCache:
    def build(self, use_index=True):
        sim = Simulator(seed=0)
        net = make_network(sim, UnitDiskRadio(10.0), use_index)
        for node, pos in {"a": (0, 0), "b": (5, 0), "c": (50, 0)}.items():
            net.add_node(Recorder(node), pos)
        return sim, net

    @pytest.mark.parametrize("use_index", [True, False])
    def test_snapshot_is_cached_until_invalidated(self, use_index):
        sim, net = self.build(use_index)
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
        assert net.broadcast("a", "x") == 0

    def test_growing_asymmetric_range_is_observed(self):
        sim = Simulator(seed=0)
        radio = AsymmetricRangeRadio(10.0)
        net = Network(sim, radio=radio)
        net.add_node(Recorder("a"), (0, 0))
        net.add_node(Recorder("b"), (30, 0))
        assert net.neighbors_of("a") == set()
        # Raising the maximum range changes the cache key and the grid cell
        # size, so the new link shows up without an explicit invalidation.
        radio.set_range("a", 40.0)
        radio.set_range("b", 40.0)
        assert net.neighbors_of("a") == {"b"}
        assert net.broadcast("a", "x") == 1

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


# ---------------------------------------------------- vectorized query filter


class TestVectorizedQueryFilter:
    """query_ball's dense-candidate path must match the scalar loop exactly.

    Above ``_VECTOR_MIN_CANDIDATES`` harvested candidates the filter runs on
    numpy squared distances with a guard-band re-check; these tests force both
    branches over the same geometry — including coincident points, nodes
    exactly at range and exact cell-edge placements — and require identical
    results.
    """

    def scalar_reference(self, positions, q, r):
        return [n for n, p in positions.items()
                if math.hypot(p[0] - q[0], p[1] - q[1]) <= r]

    def test_dense_query_matches_brute_force(self):
        rng = np.random.default_rng(42)
        index = UniformGridIndex(25.0)
        positions = {}
        for i, (x, y) in enumerate(rng.uniform(0, 200, size=(300, 2))):
            positions[i] = (float(x), float(y))
            index.insert(i, positions[i])
        for q in [(100.0, 100.0), (0.0, 0.0), (199.0, 3.0)]:
            for r in [30.0, 75.0, 250.0]:
                got = index.query_ball(q, r)
                assert sorted(got) == sorted(self.scalar_reference(positions, q, r))
                # Candidate harvesting preserves cell-scan order either way.
                assert got == [n for n in got]

    def test_coincident_points_all_found(self):
        # 100 nodes on the same point exceed the vectorization threshold in a
        # single cell; a zero-radius query must return every one of them.
        index = UniformGridIndex(10.0)
        for i in range(100):
            index.insert(i, (5.0, 5.0))
        assert sorted(index.query_ball((5.0, 5.0), 0.0)) == list(range(100))
        assert sorted(index.query_ball((5.0, 5.0), 1.0)) == list(range(100))
        assert index.query_ball((5.01, 5.0), 0.0) == []

    def test_exactly_at_range_is_inclusive_in_both_branches(self):
        # A ring of nodes exactly at distance r: the inclusive d <= r
        # comparison must keep them all, whether the filter runs scalar
        # (few candidates) or vectorized (many).
        r = 50.0
        center = (500.0, 500.0)
        for n in (8, 200):  # below and above the vectorization threshold
            index = UniformGridIndex(50.0)
            expected = []
            for i in range(n):
                angle = 2.0 * math.pi * i / n
                x = center[0] + r * math.cos(angle)
                y = center[1] + r * math.sin(angle)
                if math.hypot(x - center[0], y - center[1]) <= r:
                    expected.append(i)
                index.insert(i, (x, y))
            got = index.query_ball(center, r)
            assert sorted(got) == expected

    def test_cell_edge_placements_dense(self):
        # Nodes on exact multiples of the cell size, enough of them to force
        # the vectorized branch: membership is single-cell, queries from both
        # sides of each edge agree with brute force.
        index = UniformGridIndex(10.0)
        positions = {}
        i = 0
        for gx in range(10):
            for gy in range(10):
                positions[i] = (gx * 10.0, gy * 10.0)
                index.insert(i, positions[i])
                i += 1
        for q in [(0.0, 0.0), (50.0, 50.0), (49.999, 50.0), (90.0, 90.0)]:
            for r in [10.0, 14.142135623730951, 30.0]:
                got = index.query_ball(q, r)
                assert sorted(got) == sorted(self.scalar_reference(positions, q, r))
