"""Integration-ish tests for the Network broadcast substrate."""

import pytest

from repro.net.channel import LossyChannel, PerfectChannel
from repro.net.network import Network
from repro.net.radio import UnitDiskRadio
from repro.sim.engine import Simulator
from repro.sim.process import Process


class Echo(Process):
    """Test process recording everything it receives."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.inbox = []

    def on_message(self, sender, payload):
        self.inbox.append((sender, payload))


def build_network(positions, radio_range=10.0, channel=None, seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim, radio=UnitDiskRadio(radio_range), channel=channel)
    for node_id, position in positions.items():
        network.add_node(Echo(node_id), position)
    return sim, network


class TestBroadcast:
    def test_broadcast_reaches_only_vicinity(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0), "c": (50, 0)})
        delivered = network.broadcast("a", "hello")
        sim.run()
        assert delivered == 1
        assert network.process("b").inbox == [("a", "hello")]
        assert network.process("c").inbox == []

    def test_inactive_nodes_neither_send_nor_receive(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0)})
        network.deactivate_node("b")
        assert network.broadcast("a", "x") == 0
        network.deactivate_node("a")
        assert network.broadcast("a", "x") == 0
        network.activate_node("a")
        network.activate_node("b")
        assert network.broadcast("a", "x") == 1

    def test_lossy_channel_drops_are_counted(self):
        channel = LossyChannel(loss_probability=1.0)
        sim, network = build_network({"a": (0, 0), "b": (5, 0)}, channel=channel)
        network.broadcast("a", "x")
        sim.run()
        assert network.messages_dropped == 1
        assert network.process("b").inbox == []

    def test_delayed_delivery(self):
        channel = PerfectChannel(delay=2.0)
        sim, network = build_network({"a": (0, 0), "b": (5, 0)}, channel=channel)
        network.broadcast("a", "x")
        assert network.process("b").inbox == []
        sim.run()
        assert sim.now == 2.0
        assert network.process("b").inbox == [("a", "x")]

    def test_delivery_counted_at_delivery_time_under_churn(self):
        # Regression: messages_delivered used to be incremented at schedule
        # time, over-counting when the receiver deactivated during the channel
        # delay.
        channel = PerfectChannel(delay=2.0)
        sim, network = build_network({"a": (0, 0), "b": (5, 0), "c": (5, 5)},
                                     channel=channel)
        accepted = network.broadcast("a", "x")
        assert accepted == 2
        assert network.messages_delivered == 0
        sim.schedule(1.0, network.deactivate_node, "b")
        sim.run()
        assert network.process("b").inbox == []
        assert network.process("c").inbox == [("a", "x")]
        assert network.messages_delivered == 1
        assert network.messages_dropped == 0

    def test_delivery_not_counted_for_removed_receiver(self):
        channel = PerfectChannel(delay=2.0)
        sim, network = build_network({"a": (0, 0), "b": (5, 0)}, channel=channel)
        assert network.broadcast("a", "x") == 1
        network.remove_node("b")
        sim.run()
        assert network.messages_delivered == 0


class TestTopologySnapshots:
    def test_topology_reflects_positions(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0), "c": (50, 0)})
        graph = network.topology()
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("a", "c")
        assert network.neighbors_of("a") == {"b"}

    def test_topology_excludes_inactive_nodes(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0)})
        network.deactivate_node("b")
        assert "b" not in network.topology()

    def test_directed_topology(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0)})
        digraph = network.directed_topology()
        assert digraph.has_edge("a", "b") and digraph.has_edge("b", "a")

    def test_set_position_updates_topology(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0)})
        network.set_position("b", (100, 0))
        assert not network.topology().has_edge("a", "b")
        with pytest.raises(KeyError):
            network.set_position("zzz", (0, 0))


class TestNodeManagement:
    def test_duplicate_node_rejected(self):
        sim, network = build_network({"a": (0, 0)})
        with pytest.raises(ValueError):
            network.add_node(Echo("a"), (1, 1))

    def test_remove_node(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0)})
        network.remove_node("b")
        assert "b" not in network.node_ids
        assert network.broadcast("a", "x") == 0

    def test_position_listener_called_on_mobility_step(self):
        from repro.mobility.static import StaticMobility
        sim = Simulator(seed=0)
        network = Network(sim, radio=UnitDiskRadio(10.0), mobility=StaticMobility())
        network.add_node(Echo("a"), (0, 0))
        seen = []
        network.add_position_listener(lambda t, positions: seen.append(t))
        network.start()
        sim.run(until=3.5)
        assert seen == [1.0, 2.0, 3.0]
        network.stop_mobility()
        sim.run(until=10.0)
        assert len(seen) == 3


class TestGenerationBumping:
    def test_set_positions_bumps_generation_once(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0), "c": (8, 0)})
        before = network.topology_generation
        network.set_positions({"a": (1, 0), "b": (6, 0), "c": (9, 0)})
        assert network.topology_generation == before + 1

    def test_set_positions_rejects_unknown_node_without_side_effects(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0)})
        before = network.topology_generation
        with pytest.raises(KeyError):
            network.set_positions({"a": (1, 0), "zzz": (2, 0)})
        # Nothing moved and no snapshot was invalidated.
        assert network.position_of("a") == (0.0, 0.0)
        assert network.topology_generation == before

    def test_set_position_unknown_node_leaves_caches_untouched(self):
        # KeyError must fire before any index/link-state/store mutation: a
        # failed scalar move leaves the generation counter and the cached
        # snapshot objects exactly as they were (cache-truth invariant).
        sim, network = build_network({"a": (0, 0), "b": (5, 0)})
        graph = network.link_snapshot()
        directed = network._directed_snapshot()
        before = network.topology_generation
        with pytest.raises(KeyError):
            network.set_position("zzz", (1.0, 1.0))
        assert network.topology_generation == before
        assert network.link_snapshot() is graph
        assert network._directed_snapshot() is directed

    def test_set_position_malformed_position_leaves_caches_untouched(self):
        # Coordinate coercion failures are raised before mutation too, so a
        # half-valid position can never partially move a node.
        sim, network = build_network({"a": (0, 0), "b": (5, 0)})
        graph = network.link_snapshot()
        before = network.topology_generation
        with pytest.raises((TypeError, ValueError)):
            network.set_position("a", (1.0, "not-a-number"))
        assert network.position_of("a") == (0.0, 0.0)
        assert network.topology_generation == before
        assert network.link_snapshot() is graph

    def test_set_positions_empty_is_a_no_op(self):
        sim, network = build_network({"a": (0, 0)})
        before = network.topology_generation
        network.set_positions({})
        assert network.topology_generation == before

    def test_set_positions_updates_topology(self):
        sim, network = build_network({"a": (0, 0), "b": (50, 0)})
        assert not network.topology().has_edge("a", "b")
        network.set_positions({"b": (5, 0)})
        assert network.topology().has_edge("a", "b")

    def test_mobility_step_shares_one_snapshot_across_listeners(self):
        from repro.mobility.static import StaticMobility
        sim = Simulator(seed=0)
        network = Network(sim, radio=UnitDiskRadio(10.0), mobility=StaticMobility())
        network.add_node(Echo("a"), (0, 0))
        snapshots = []
        network.add_position_listener(lambda t, positions: snapshots.append(positions))
        network.add_position_listener(lambda t, positions: snapshots.append(positions))
        network.start()
        sim.run(until=1.5)
        assert len(snapshots) == 2
        # Both listeners of one step saw the very same dict (built once)...
        assert snapshots[0] is snapshots[1]
        # ...which is a snapshot, not the live position map.
        assert snapshots[0] == {"a": (0.0, 0.0)}
        snapshots[0]["a"] = (99.0, 99.0)
        assert network.position_of("a") == (0.0, 0.0)

    def test_mobility_step_bumps_generation_once_per_step(self):
        # A step that moves nodes invalidates exactly once — not once per
        # node; a step that moves nobody invalidates nothing (see
        # TestMobilityDeltas.test_static_step_keeps_caches_warm).
        from repro.mobility.random_walk import RandomWalkMobility
        sim = Simulator(seed=0)
        network = Network(sim, radio=UnitDiskRadio(10.0),
                          mobility=RandomWalkMobility((100.0, 100.0), speed=5.0))
        network.add_node(Echo("a"), (50, 50))
        network.add_node(Echo("b"), (55, 50))
        network.start()
        before = network.topology_generation
        sim.run(until=1.5)  # exactly one mobility step
        assert network.topology_generation == before + 1


class TestRadioMutationNotification:
    """In-place radio mutations must invalidate cached neighbourhoods.

    Before the mutation listeners, ``radio.radio_range = x`` silently served
    stale topology snapshots (the cache key only sees ``max_range()`` at
    lookup time, and the link-state cache never re-tests links on its own).
    The stock radios now notify every listening network from their setters.
    """

    def test_unit_disk_range_change_refreshes_topology(self):
        sim, network = build_network({"a": (0, 0), "b": (20, 0)})
        assert not network.topology().has_edge("a", "b")
        assert network.neighbors_of("a") == set()
        network.radio.radio_range = 25.0
        assert network.topology().has_edge("a", "b")
        assert network.neighbors_of("a") == {"b"}
        network.radio.radio_range = 10.0
        assert network.neighbors_of("a") == set()
        assert network.broadcast("a", "ping") == 0

    def test_shrinking_nonmaximal_asymmetric_range_refreshes(self):
        from repro.net.radio import AsymmetricRangeRadio
        sim = Simulator(seed=0)
        radio = AsymmetricRangeRadio(default_range=30.0, ranges={"a": 50.0})
        network = Network(sim, radio=radio)
        network.add_node(Echo("a"), (0, 0))
        network.add_node(Echo("b"), (40, 0))
        # a -> b only (asymmetric): no symmetric edge, but a directed arc.
        assert network.directed_topology().has_edge("a", "b")
        # Shrinking a *non-maximal* range leaves max_range() untouched — the
        # historical stale-cache case.
        radio.set_range("b", 20.0)
        assert network.directed_topology().has_edge("a", "b")
        radio.set_range("a", 35.0)  # still the maximum, max_range changes
        assert not network.directed_topology().has_edge("a", "b")
        radio.set_range("a", 45.0)
        assert network.directed_topology().has_edge("a", "b")

    def test_default_range_assignment_notifies(self):
        from repro.net.radio import AsymmetricRangeRadio
        sim = Simulator(seed=0)
        radio = AsymmetricRangeRadio(default_range=10.0)
        network = Network(sim, radio=radio)
        network.add_node(Echo("a"), (0, 0))
        network.add_node(Echo("b"), (15, 0))
        assert network.neighbors_of("a") == set()
        radio.default_range = 20.0
        assert network.neighbors_of("a") == {"b"}

    def test_probabilistic_inner_range_assignment_notifies(self):
        from repro.net.radio import ProbabilisticDiskRadio
        sim = Simulator(seed=0)
        radio = ProbabilisticDiskRadio(10.0, 30.0, 0.5)
        network = Network(sim, radio=radio)
        network.add_node(Echo("a"), (0, 0))
        network.add_node(Echo("b"), (15, 0))
        # b sits in the fading band: not a (reliable) topology link.
        assert network.neighbors_of("a") == set()
        radio.inner_range = 20.0
        assert network.neighbors_of("a") == {"b"}

    def test_broadcast_fast_path_sees_mutated_radius(self):
        sim, network = build_network({"a": (0, 0), "b": (8, 0), "c": (20, 0)})
        assert network.broadcast("a", "m1") == 1  # warms the link-state cache
        network.radio.radio_range = 30.0
        assert network.broadcast("a", "m2") == 2
        sim.run()
        assert network.process("c").inbox == [("a", "m2")]

    def test_setter_validation_unchanged(self):
        from repro.net.radio import AsymmetricRangeRadio, ProbabilisticDiskRadio
        with pytest.raises(ValueError):
            UnitDiskRadio(10.0).radio_range = 0.0
        with pytest.raises(ValueError):
            AsymmetricRangeRadio(10.0).default_range = -1.0
        radio = ProbabilisticDiskRadio(10.0, 30.0, 0.5)
        with pytest.raises(ValueError):
            radio.inner_range = 40.0  # beyond outer_range
        with pytest.raises(ValueError):
            radio.outer_range = 5.0  # below inner_range
        with pytest.raises(ValueError):
            radio.band_probability = 1.5


class TestMobilityDeltas:
    def test_static_step_keeps_caches_warm(self):
        from repro.mobility.static import StaticMobility
        sim = Simulator(seed=0)
        network = Network(sim, radio=UnitDiskRadio(10.0), mobility=StaticMobility())
        network.add_node(Echo("a"), (0, 0))
        network.add_node(Echo("b"), (5, 0))
        network.start()
        before = network.topology_generation
        sim.run(until=3.5)  # three no-op mobility steps
        # Nothing moved, so snapshots/receiver caches were never invalidated.
        assert network.topology_generation == before
        assert network.neighbors_of("a") == {"b"}

    def test_moving_step_still_bumps(self):
        from repro.mobility.random_walk import RandomWalkMobility
        sim = Simulator(seed=0)
        network = Network(sim, radio=UnitDiskRadio(10.0),
                          mobility=RandomWalkMobility((100.0, 100.0), speed=5.0))
        network.add_node(Echo("a"), (50, 50))
        network.start()
        before = network.topology_generation
        sim.run(until=1.5)
        assert network.topology_generation > before

    def test_moved_nodes_helper_matches_network_comparison(self):
        from repro.mobility.base import moved_nodes
        before = {"a": (0.0, 0.0), "b": (1.0, 2.0)}
        after = {"a": (0, 0), "b": (1.0, 2.5), "c": (9, 9)}
        assert moved_nodes(before, after) == {"b": (1.0, 2.5), "c": (9.0, 9.0)}


class TestMutationListenerLifetime:
    def test_dead_networks_are_not_kept_alive_by_the_radio(self):
        import gc
        import weakref as weakref_module
        radio = UnitDiskRadio(10.0)
        sim = Simulator(seed=0)
        network = Network(sim, radio=radio)
        network.add_node(Echo("a"), (0, 0))
        ref = weakref_module.ref(network)
        del network, sim
        gc.collect()
        assert ref() is None  # the listener registration held no strong ref
        radio.radio_range = 20.0  # notifying with a dead listener is a no-op
        assert radio.radio_range == 20.0


class TestCustomRadioContract:
    def test_silent_max_range_change_is_auto_detected(self):
        """Pre-PR contract: a mutation visible through max_range() needs no
        explicit invalidate_topology(), even on a notification-less radio."""
        from repro.net.radio import RadioModel

        class PlainRadio(RadioModel):
            def __init__(self, r):
                self.r = r  # plain attribute, no setter notification

            def in_vicinity(self, sender, receiver, sender_pos, receiver_pos):
                from repro.net.geometry import distance
                return distance(sender_pos, receiver_pos) <= self.r

            def max_range(self):
                return self.r

            def deterministic_vicinity(self):
                return True

        sim = Simulator(seed=0)
        network = Network(sim, radio=PlainRadio(10.0))
        network.add_node(Echo("a"), (0, 0))
        network.add_node(Echo("b"), (20, 0))
        assert network.neighbors_of("a") == set()
        assert network.broadcast("a", "x") == 0
        network.radio.r = 30.0  # silent, but visible through max_range()
        assert network.topology().has_edge("a", "b")
        assert network.neighbors_of("a") == {"b"}
        assert network.broadcast("a", "y") == 1

    def test_no_op_set_positions_keeps_caches_warm(self):
        sim, network = build_network({"a": (0, 0), "b": (5, 0)})
        network.topology()
        before = network.topology_generation
        network.set_positions({"a": (0.0, 0.0), "b": (5.0, 0.0)})  # no change
        assert network.topology_generation == before
        network.set_positions({"a": (1.0, 0.0), "b": (5.0, 0.0)})  # one change
        assert network.topology_generation == before + 1


class TestInPlaceMobilityModels:
    def test_model_mutating_its_input_still_updates_the_engine(self):
        """Models receive a copy: in-place mutation + return keeps working."""
        from repro.mobility.base import MobilityModel

        class InPlaceShift(MobilityModel):
            def step(self, positions, dt):
                for node in list(positions):
                    x, y = positions[node]
                    positions[node] = (x + 6.0, y)  # mutate the mapping given
                return positions

        sim = Simulator(seed=0)
        network = Network(sim, radio=UnitDiskRadio(10.0), mobility=InPlaceShift())
        network.add_node(Echo("a"), (0, 0))
        network.add_node(Echo("b"), (8, 0))
        assert network.neighbors_of("a") == {"b"}
        network.start()
        before = network.topology_generation
        sim.run(until=1.5)  # one step: both shift +6, distance stays 8
        assert network.position_of("a") == (6.0, 0.0)
        assert network.topology_generation > before
        # Index/link-state followed the move: still neighbours at new spots.
        assert network.neighbors_of("a") == {"b"}
        assert network.broadcast("a", "x") == 1
