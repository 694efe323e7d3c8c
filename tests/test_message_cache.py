"""The per-state outgoing-message cache of :class:`repro.core.node.GRPNode`.

A node's message is a function of its ancestor list, its view and its
priority table.  ``outgoing_message()`` builds it once per state and hands
the same object to every send until one of the three changes; these tests
pin both halves of that contract: reuse when nothing changed, and a fresh
message equal to ``GRPMessage.build`` after every kind of mutation.  A
``compute()`` round that reaches the state it started from keeps the list
and view objects, and the table's ``revision`` moves only when its content
does, so the message survives such a round.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import GRPMessage
from repro.core.node import GRPConfig, GRPNode
from repro.core.priority import PriorityTable
from repro.core.protocol import build_grp_network
from repro.net.channel import LossyChannel
from repro.net.faults import FaultInjector
from repro.net.geometry import random_positions

from conftest import alist


def fresh_build(node):
    """The message the node's current state yields, built from scratch."""
    return GRPMessage.build(
        sender=node.node_id,
        alist=node.alist,
        priorities=node.priorities.snapshot(node.alist.nodes() | {node.node_id}),
        group_priority=node.group_priority(),
        view=node.view,
    )


def grouped_node():
    """A standalone node that has computed once with two neighbours' messages."""
    node = GRPNode("v", GRPConfig(dmax=3))
    for sender, levels in (("a", [["a"], ["v"]]), ("b", [["b"], ["v"]])):
        message = GRPMessage.build(sender, alist(*levels),
                                   priorities={sender: 1, "v": 0},
                                   view=frozenset({sender, "v"}))
        node.on_message(sender, message)
    node.compute()
    return node


class TestReuse:
    def test_same_object_until_the_state_changes(self):
        node = grouped_node()
        first = node.outgoing_message()
        assert node.outgoing_message() is first
        assert node.outgoing_message() is first
        assert first == fresh_build(node)

    def test_receptions_alone_do_not_invalidate(self):
        node = grouped_node()
        first = node.outgoing_message()
        node.on_message("c", GRPMessage.build("c", alist(["c"]), priorities={"c": 4}))
        assert node.outgoing_message() is first

    def test_quarantine_noise_does_not_invalidate(self):
        # Quarantine counters are not part of the message.
        node = grouped_node()
        first = node.outgoing_message()
        node.corrupt_state(quarantine_noise=(np.random.default_rng(0), 3))
        assert node.outgoing_message() is first

    def test_isolated_compute_keeps_the_list_and_view(self):
        # Alone, a round folds nothing: the node keeps its own singleton.
        node = GRPNode("v", GRPConfig(dmax=3))
        alist_before, view_before = node.alist, node.view
        for _ in range(3):
            node.compute()
            assert node.alist is alist_before
            assert node.view is view_before

    def test_stable_in_group_node_keeps_its_state_objects(self):
        """After stabilization, compute rounds leave an in-group node's list,
        view and outgoing message untouched, object for object."""
        positions = {node: (10.0 * node, 0.0) for node in range(4)}
        deployment = build_grp_network(positions, GRPConfig(dmax=3),
                                       radio_range=15.0, seed=3)
        deployment.run(20.0)
        node = deployment.nodes[1]
        assert node.in_group()
        state = (node.alist, node.view, node.outgoing_message())
        computations = node.computations
        for _ in range(3):
            deployment.run(1.0)
            assert (node.alist, node.view, node.outgoing_message()) == state
            assert node.alist is state[0]
            assert node.view is state[1]
            assert node.outgoing_message() is state[2]
        assert node.computations >= computations + 2


class TestInvalidation:
    def check_new_and_fresh(self, node, before):
        after = node.outgoing_message()
        assert after is not before
        assert after == fresh_build(node)
        assert node.outgoing_message() is after

    def test_compute(self):
        node = grouped_node()
        before = node.outgoing_message()
        node.compute()
        self.check_new_and_fresh(node, before)

    def test_compute_of_an_isolated_node(self):
        # Alone, the oldness counter ticks: the message changes even though
        # the list and view stay equal.
        node = GRPNode("v", GRPConfig(dmax=3))
        before = node.outgoing_message()
        node.compute()
        after = node.outgoing_message()
        assert after is not before
        assert after.priorities != before.priorities
        assert after == fresh_build(node)

    def test_on_activate(self):
        node = grouped_node()
        before = node.outgoing_message()
        node.on_activate()
        self.check_new_and_fresh(node, before)
        assert node.outgoing_message().view == ("v",)

    def test_corrupt_ghost(self):
        node = grouped_node()
        before = node.outgoing_message()
        node.corrupt_state(ghost_nodes={"ghost": 1})
        self.check_new_and_fresh(node, before)
        assert "ghost" in node.outgoing_message().ancestor_list.nodes()

    def test_corrupt_view(self):
        node = grouped_node()
        before = node.outgoing_message()
        node.corrupt_state(view={"x", "y"})
        self.check_new_and_fresh(node, before)
        assert set(node.outgoing_message().view) == {"v", "x", "y"}

    def test_corrupt_view_to_an_equal_set(self):
        # A new frozenset object is a new state key even when equal; the
        # rebuilt message is equal to the old one.
        node = grouped_node()
        before = node.outgoing_message()
        node.corrupt_state(view=set(node.view))
        after = node.outgoing_message()
        assert after is not before and after == before

    def test_corrupt_priority(self):
        node = grouped_node()
        before = node.outgoing_message()
        node.corrupt_state(priority=42)
        self.check_new_and_fresh(node, before)
        assert dict(node.outgoing_message().priorities)["v"] == 42

    def test_corrupt_append(self):
        node = grouped_node()
        before = node.outgoing_message()
        node.corrupt_state(append_levels=["p", "q"])
        self.check_new_and_fresh(node, before)
        assert len(node.outgoing_message().ancestor_list) == len(before.ancestor_list) + 2

    def test_every_change_bumps_the_revision_and_a_no_op_does_not(self):
        node = grouped_node()
        table = node.priorities
        for change in (lambda: table.learn({"z": 3}),
                       lambda: table.learn({"z": 4}),
                       lambda: table.forget_except({"v", "a"}),
                       lambda: table.set_own(9),
                       lambda: table.tick(in_group=False)):
            revision = table.revision
            change()
            assert table.revision == revision + 1
        known = table.snapshot({"a"})
        for no_op in (lambda: table.learn(),
                      lambda: table.learn(known, {"v": 77}),
                      lambda: table.forget_except({"v", "a", "unknown"}),
                      lambda: table.set_own(table.own_oldness),
                      lambda: table.tick(in_group=True)):
            revision = table.revision
            message = node.outgoing_message()
            no_op()
            assert table.revision == revision
            assert node.outgoing_message() is message


NODES = ("v", "a", "b", "c")
OLDNESS = st.integers(0, 3)
TABLE_OPS = st.one_of(
    st.tuples(st.just("learn"),
              st.lists(st.dictionaries(st.sampled_from(NODES), OLDNESS, max_size=3),
                       max_size=3)),
    st.tuples(st.just("forget_except"), st.sets(st.sampled_from(NODES))),
    st.tuples(st.just("set_own"), OLDNESS),
    st.tuples(st.just("tick"), st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(TABLE_OPS, max_size=12))
def test_revision_moves_iff_the_content_changes(ops):
    """``revision`` changes exactly when ``(own_oldness, known)`` does."""
    table = PriorityTable("v", initial=1)

    def content():
        return table.snapshot(NODES)  # the known counters plus the own one

    for op, argument in ops:
        before, revision = content(), table.revision
        if op == "learn":
            table.learn(*argument)
        else:
            getattr(table, op)(argument)
        assert (table.revision != revision) == (content() != before)
        assert table.revision >= revision


def lossy_deployment(seed):
    positions = random_positions(range(24), (200.0, 200.0), np.random.default_rng(seed))
    channel = LossyChannel(loss_probability=0.2, min_delay=0.01, max_delay=0.05)
    return build_grp_network(positions, GRPConfig(dmax=2), radio_range=70.0,
                             channel=channel, seed=seed)


class TestDifferential:
    def test_every_sent_message_equals_a_fresh_build(self):
        """Every broadcast payload equals a from-scratch build of the sender's
        state at the moment the network produces it, through computations,
        faults and churn; and the run does reuse messages (otherwise this
        test would prove nothing)."""
        deployment = lossy_deployment(seed=5)
        network = deployment.network
        stock_broadcast = network.broadcast
        last = {}
        counts = {"sends": 0, "reused": 0}

        def checked_broadcast(sender, make_payload):
            node = deployment.nodes[sender]

            def checked_payload():
                payload = make_payload()
                assert payload == fresh_build(node)
                counts["sends"] += 1
                if last.get(sender) is payload:
                    counts["reused"] += 1
                last[sender] = payload
                return payload

            return stock_broadcast(sender, checked_payload)

        network.broadcast = checked_broadcast
        deployment.run(4.0)
        injector = FaultInjector(network, rng=np.random.default_rng(1))
        injector.random_memory_corruption(fraction=0.5, ghost_pool=["g1", "g2"])
        injector.corrupt_view(3, [4, 5])
        injector.corrupt_priority(7, 100)
        injector.oversized_list(9, ["o1", "o2", "o3"])
        deployment.run(3.0)
        injector.partition([1, 2, 3])
        deployment.run(2.0)
        injector.heal()
        deployment.run(3.0)
        assert counts["sends"] > 200
        assert 0 < counts["reused"] < counts["sends"]


class TestPickling:
    def test_cache_survives_a_pickle_round_trip(self):
        node = grouped_node()
        message = node.outgoing_message()
        restored = pickle.loads(pickle.dumps(node))
        cached = restored.outgoing_message()
        assert cached == message
        # The restored key still matches the restored state: no rebuild.
        assert cached is restored._outgoing[3]
        assert restored.outgoing_message() is cached
        restored.compute()
        assert restored.outgoing_message() is not cached
        assert restored.outgoing_message() == fresh_build(restored)

    def test_restored_deployment_continues_bit_identically(self):
        deployment = lossy_deployment(seed=8)
        deployment.run(3.0)
        for node in deployment.nodes.values():
            node.outgoing_message()
        restored = pickle.loads(pickle.dumps(deployment))
        for node in restored.nodes.values():
            assert node.outgoing_message() is node._outgoing[3]
            assert node.outgoing_message() == fresh_build(node)
        deployment.run(3.0)
        restored.run(3.0)
        assert restored.views() == deployment.views()
        assert restored.sim.processed_events == deployment.sim.processed_events
        assert restored.network.messages_delivered == deployment.network.messages_delivered
        assert (restored.sim.rng.bit_generator.state
                == deployment.sim.rng.bit_generator.state)
