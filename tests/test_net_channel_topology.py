"""Unit tests for channel models and topology utilities."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.net.channel import CollisionChannel, LossyChannel, PerfectChannel

from reference_topology import (connected_components, distance_matrix_within,
                                group_diameter_ok, group_is_connected, merged_diameter_ok,
                                neighbors_within, snapshot_graph, subgraph_diameter,
                                subgraph_distance)


class TestChannels:
    def test_perfect_channel_always_delivers(self):
        channel = PerfectChannel(delay=0.5)
        decision = channel.decide("a", "b", 0.0)
        assert decision.delivered and decision.delay == 0.5

    def test_perfect_channel_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            PerfectChannel(delay=-1.0)

    def test_lossy_channel_zero_loss(self):
        channel = LossyChannel(loss_probability=0.0, rng=np.random.default_rng(0))
        assert all(channel.decide("a", "b", t).delivered for t in range(20))

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_perfect_channel_rejects_non_finite_delay(self, delay):
        with pytest.raises(ValueError):
            PerfectChannel(delay=delay)

    def test_lossy_channel_full_loss(self):
        channel = LossyChannel(loss_probability=1.0, rng=np.random.default_rng(0))
        decisions = [channel.decide("a", "b", t) for t in range(10)]
        assert not any(d.delivered for d in decisions)
        assert channel.dropped == 10

    def test_lossy_channel_delay_bounds(self):
        channel = LossyChannel(min_delay=0.1, max_delay=0.2, rng=np.random.default_rng(0))
        delays = [channel.decide("a", "b", 0.0).delay for _ in range(50)]
        assert all(0.1 <= d <= 0.2 for d in delays)

    def test_lossy_channel_parameter_validation(self):
        with pytest.raises(ValueError):
            LossyChannel(loss_probability=1.5)
        with pytest.raises(ValueError):
            LossyChannel(min_delay=0.5, max_delay=0.1)

    @pytest.mark.parametrize("bounds", [
        dict(min_delay=math.nan, max_delay=0.1),
        dict(min_delay=0.1, max_delay=math.nan),
        dict(min_delay=math.inf, max_delay=math.inf),
        dict(min_delay=0.1, max_delay=math.inf),
    ], ids=["nan-min", "nan-max", "inf-min", "inf-max"])
    def test_lossy_channel_rejects_non_finite_delay(self, bounds):
        with pytest.raises(ValueError):
            LossyChannel(**bounds)

    def test_collision_channel_rejects_nan_window(self):
        with pytest.raises(ValueError):
            CollisionChannel(collision_window=math.nan)

    def test_collision_channel_drops_overlapping_transmissions(self):
        channel = CollisionChannel(collision_window=1.0, rng=np.random.default_rng(0))
        first = channel.decide("a", "r", 0.0)
        second = channel.decide("b", "r", 0.5)
        assert first.delivered and not second.delivered
        assert second.reason == "collision"
        assert channel.collisions == 1

    def test_collision_channel_allows_spaced_transmissions(self):
        channel = CollisionChannel(collision_window=1.0, rng=np.random.default_rng(0))
        assert channel.decide("a", "r", 0.0).delivered
        assert channel.decide("b", "r", 2.0).delivered

    def test_same_sender_does_not_collide_with_itself(self):
        channel = CollisionChannel(collision_window=1.0)
        assert channel.decide("a", "r", 0.0).delivered
        assert channel.decide("a", "r", 0.1).delivered


def chain_graph(n):
    g = nx.path_graph(n)
    return g


class TestTopologyUtilities:
    def test_snapshot_graph_requires_symmetric_links(self):
        positions = {"a": (0, 0), "b": (5, 0), "c": (100, 0)}
        ranges = {"a": 10.0, "b": 10.0, "c": 500.0}

        def link(sender, receiver, spos, rpos):
            return ((spos[0] - rpos[0]) ** 2 + (spos[1] - rpos[1]) ** 2) ** 0.5 <= ranges[sender]

        graph = snapshot_graph(positions, link)
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("a", "c")  # c hears nobody's answer

    def test_subgraph_distance_respects_membership(self):
        g = chain_graph(4)
        assert subgraph_distance(g, {0, 1, 2, 3}, 0, 3) == 3
        assert subgraph_distance(g, {0, 3}, 0, 3) == float("inf")
        assert subgraph_distance(g, {0, 1}, 0, 99) == float("inf")

    def test_subgraph_diameter(self):
        g = chain_graph(4)
        assert subgraph_diameter(g, {0, 1, 2}) == 2
        assert subgraph_diameter(g, {0, 2}) == float("inf")
        assert subgraph_diameter(g, {0}) == 0
        assert subgraph_diameter(g, set()) == 0
        assert subgraph_diameter(g, {0, 99}) == float("inf")

    def test_group_connectivity_and_diameter_ok(self):
        g = chain_graph(5)
        assert group_is_connected(g, {0, 1, 2})
        assert not group_is_connected(g, {0, 2})
        assert group_diameter_ok(g, {0, 1, 2}, dmax=2)
        assert not group_diameter_ok(g, {0, 1, 2, 3}, dmax=2)

    def test_merged_diameter_ok(self):
        g = chain_graph(6)
        assert merged_diameter_ok(g, {0, 1}, {2, 3}, dmax=3)
        assert not merged_diameter_ok(g, {0, 1}, {2, 3, 4}, dmax=3)
        # Not disconnected: the chain connects the union, but too long.
        assert not merged_diameter_ok(g, {0, 1}, {4, 5}, dmax=10)
        # the union {0,1,4,5} misses nodes 2,3 so its subgraph is disconnected
        assert subgraph_diameter(g, {0, 1, 4, 5}) == float("inf")

    def test_distance_matrix_within(self):
        g = chain_graph(4)
        matrix = distance_matrix_within(g, [0, 1, 3])
        assert matrix[0][1] == 1
        assert matrix[0][3] == float("inf")

    def test_neighbors_within(self):
        g = chain_graph(5)
        assert neighbors_within(g, 2, 1) == {1, 3}
        assert neighbors_within(g, 2, 2) == {0, 1, 3, 4}
        assert neighbors_within(g, 99, 2) == set()

    def test_connected_components_deterministic(self):
        g = nx.Graph()
        g.add_edges_from([(1, 2), (3, 4)])
        comps = connected_components(g)
        assert comps == connected_components(g)
        assert {frozenset({1, 2}), frozenset({3, 4})} == set(comps)
