"""On-demand encoding of GRP messages.

``GRPMessage.build`` keeps the sender's live state and encodes the wire
fields only when something reads them.  These tests pin that a built message
is indistinguishable from the eagerly encoded one — the message constructed
from ``alist.to_wire()`` and the sorted priority and view tuples, which is
what ``build`` returned before — and that a run whose every GRP payload is
forced through encode -> pickle -> decode is bit-identical to the production
run.  The second half pins an invariant the shared in-process message relies
on: receivers of a built message see the sender's per-level insertion order
(fold order), receivers of a decoded one see sorted order, and no protocol
outcome depends on which.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ancestor_list import AncestorList
from repro.core.identity import Mark, priority_key
from repro.core.messages import GRPMessage
from repro.core.node import GRPConfig
from repro.core.protocol import build_grp_network
from repro.net.channel import LossyChannel
from repro.net.faults import FaultInjector
from repro.net.geometry import random_positions

NODES = [f"n{i}" for i in range(8)] + list(range(4))

node_ids = st.sampled_from(NODES)
marks = st.sampled_from([Mark.NONE, Mark.NONE, Mark.SINGLE, Mark.DOUBLE])
levels = st.lists(st.dictionaries(node_ids, marks, max_size=5), max_size=5)


def eager(sender, alist, priorities, group_priority=None, view=None):
    """The eagerly encoded message: every wire field built up front."""
    prio = tuple(sorted(((node, int(value)) for node, value in priorities.items()),
                        key=lambda item: str(item[0])))
    view_tuple = tuple(sorted(view, key=str)) if view is not None else (sender,)
    return GRPMessage(sender, wire_list=alist.to_wire(), priorities=prio,
                      group_priority=group_priority, view=view_tuple)


@st.composite
def message_inputs(draw):
    sender = draw(node_ids)
    alist = AncestorList(draw(levels))
    priorities = draw(st.dictionaries(node_ids, st.integers(0, 50), max_size=8))
    group_priority = draw(st.none() | st.builds(priority_key, st.integers(0, 9), node_ids))
    view = draw(st.none() | st.frozensets(node_ids, max_size=6))
    return sender, alist, priorities, group_priority, view


class TestBuiltEqualsEager:
    @settings(max_examples=150, deadline=None)
    @given(message_inputs())
    def test_value_semantics(self, inputs):
        built, reference = GRPMessage.build(*inputs), eager(*inputs)
        # Pickle first: the bytes of a message nothing has encoded yet.
        assert pickle.dumps(built) == pickle.dumps(reference)
        assert built == reference and reference == built
        assert hash(built) == hash(reference)
        assert repr(built) == repr(reference)
        assert built.size_estimate() == reference.size_estimate()
        assert (built.wire_list, built.priorities, built.view) == (
            reference.wire_list, reference.priorities, reference.view)
        assert pickle.dumps(built) == pickle.dumps(reference)

    @settings(max_examples=100, deadline=None)
    @given(message_inputs())
    def test_live_state_matches_the_decoded_state(self, inputs):
        built, reference = GRPMessage.build(*inputs), eager(*inputs)
        assert built.ancestor_list == reference.ancestor_list
        assert built.priority_map == reference.priority_map
        assert built.view_set == reference.view_set
        assert built.ancestor_list is inputs[1]

    @settings(max_examples=100, deadline=None)
    @given(message_inputs(), st.integers(0, 9))
    def test_dataclasses_replace(self, inputs, oldness):
        built, reference = GRPMessage.build(*inputs), eager(*inputs)
        assert dataclasses.replace(built) == dataclasses.replace(reference)
        key = priority_key(oldness, "z")
        assert (dataclasses.replace(built, group_priority=key)
                == dataclasses.replace(reference, group_priority=key))
        other = AncestorList.singleton("z")
        swapped = dataclasses.replace(built, wire_list=other.to_wire())
        assert swapped.ancestor_list == other
        assert swapped.view == reference.view

    @settings(max_examples=100, deadline=None)
    @given(message_inputs())
    def test_unpickled_copy_decodes_to_an_equal_list(self, inputs):
        built = GRPMessage.build(*inputs)
        restored = pickle.loads(pickle.dumps(built))
        assert restored == built
        assert restored.ancestor_list == built.ancestor_list
        assert restored.ancestor_list is not built.ancestor_list
        assert restored.priority_map == built.priority_map
        assert restored.view_set == built.view_set
        assert restored.candidate_for("n0") == built.candidate_for("n0")


class TestBuildOwnsItsState:
    def test_priority_map_is_read_only_and_int_valued(self):
        msg = GRPMessage.build("u", AncestorList.singleton("u"),
                               priorities={"u": np.int64(3), "v": True})
        assert msg.priority_map == {"u": 3, "v": 1}
        assert all(type(value) is int for value in msg.priority_map.values())
        with pytest.raises(TypeError):
            msg.priority_map["u"] = 0
        with pytest.raises(TypeError):
            del msg.priority_map["v"]

    def test_mutating_the_callers_mapping_does_not_reach_the_message(self):
        priorities = {"u": 1, "v": 2}
        msg = GRPMessage.build("u", AncestorList.singleton("u"), priorities=priorities)
        priorities["v"] = 7
        priorities["w"] = 9
        del priorities["u"]
        assert msg.priority_map == {"u": 1, "v": 2}
        assert msg.priorities == (("u", 1), ("v", 2))

    def test_wire_fields_are_encoded_once(self):
        msg = GRPMessage.build("u", AncestorList.singleton("u"), priorities={"u": 1},
                               view=frozenset({"u", "v"}))
        assert msg.wire_list is msg.wire_list
        assert msg.priorities is msg.priorities
        assert msg.view is msg.view

    def test_empty_view_travels_as_an_empty_tuple(self):
        msg = GRPMessage.build("u", AncestorList.singleton("u"), priorities={},
                               view=frozenset())
        assert msg == eager("u", AncestorList.singleton("u"), {}, view=frozenset())
        assert msg.view == () and msg.view_set == frozenset({"u"})

    def test_unknown_attributes_still_raise(self):
        msg = GRPMessage.build("u", AncestorList.singleton("u"), priorities={})
        with pytest.raises(AttributeError):
            _ = msg.no_such_field


# ------------------------------------------------- production-path differential


def lossy_world(seed):
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    channel = LossyChannel(loss_probability=0.25, min_delay=0.01, max_delay=0.08)
    return build_grp_network(positions, GRPConfig(dmax=2), radio_range=70.0,
                             channel=channel, seed=seed)


def zero_delay_world(seed):
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    return build_grp_network(positions, GRPConfig(dmax=3), radio_range=80.0, seed=seed)


def through_the_wire(deployment):
    """Replace every GRP payload by its pickled-and-unpickled copy when the
    network produces it."""
    network = deployment.network
    stock_broadcast = network.broadcast
    copies = []

    def wire_broadcast(sender, make_payload):
        def wire_payload():
            payload = make_payload()
            if isinstance(payload, GRPMessage):
                payload = pickle.loads(pickle.dumps(payload))
                copies.append(payload)
            return payload

        return stock_broadcast(sender, wire_payload)

    network.broadcast = wire_broadcast
    return copies


def fingerprint(deployment):
    network = deployment.network
    channel_rng = getattr(network.channel, "_rng", None)
    return {
        "views": deployment.views(),
        "lists": {node_id: node.alist.to_wire()
                  for node_id, node in deployment.nodes.items()},
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "events": deployment.sim.processed_events,
        "sim_rng": deployment.sim.rng.bit_generator.state,
        "channel_rng": None if channel_rng is None else channel_rng.bit_generator.state,
        "now": deployment.sim.now,
    }


def faulty_churning_run(deployment):
    deployment.run(3.0)
    injector = FaultInjector(deployment.network, rng=np.random.default_rng(2))
    injector.random_memory_corruption(fraction=0.5, ghost_pool=["g1", "g2"])
    injector.corrupt_view(3, [4, 5])
    injector.corrupt_priority(7, 100)
    injector.oversized_list(9, ["o1", "o2", "o3"])
    deployment.run(2.0)
    deployment.network.deactivate_node(4)
    injector.partition([1, 2, 3])
    deployment.run(2.0)
    deployment.network.activate_node(4)
    injector.heal()
    deployment.run(3.0)


class TestWireRoundTripRun:
    @pytest.mark.parametrize("make_world", [lossy_world, zero_delay_world],
                             ids=["lossy_delayed", "perfect_zero_delay"])
    def test_decoded_payloads_reproduce_the_production_run(self, make_world):
        production, wired = make_world(seed=13), make_world(seed=13)
        copies = through_the_wire(wired)
        for deployment in (production, wired):
            faulty_churning_run(deployment)
        assert fingerprint(wired) == fingerprint(production)
        # Receivers did decode the copies (so the sorted-order lists were used).
        assert len(copies) > 200
        assert sum("ancestor_list" in copy.__dict__ for copy in copies) > 100

    def test_production_receivers_decode_nothing(self):
        deployment = lossy_world(seed=13)
        stock_from_wire = AncestorList.__dict__["from_wire"]
        calls = []

        def counting(cls, wire):
            calls.append(wire)
            return stock_from_wire.__func__(cls, wire)

        AncestorList.from_wire = classmethod(counting)
        try:
            deployment.run(4.0)
        finally:
            AncestorList.from_wire = stock_from_wire
        assert deployment.network.messages_delivered > 0
        assert calls == []


class TestAppPayloadMarker:
    """The delivery path asks every payload ``is_app_payload``; a GRP message
    answers from its class, never through ``__getattr__`` (which would raise
    and catch an ``AttributeError`` per broadcast)."""

    def test_marker_is_a_class_attribute_not_a_field(self):
        assert GRPMessage.is_app_payload is False
        assert "is_app_payload" not in {f.name for f in dataclasses.fields(GRPMessage)}

    def test_a_city_run_never_reaches_getattr_for_the_marker(self, monkeypatch):
        from repro.scenarios import ScenarioSpec, build

        deployment = build(ScenarioSpec.create("city_scale", n=60, area=700.0,
                                                hotspot_sigma=70.0), seed=2)
        handled = []
        for node_id in deployment.network.node_ids:
            # An installed handler makes Process.deliver test the marker too.
            deployment.network.process(node_id).app_handler = (
                lambda sender, payload: handled.append(payload))
        stock = GRPMessage.__getattr__
        asked = []

        def counting(self, name):
            asked.append(name)
            return stock(self, name)

        monkeypatch.setattr(GRPMessage, "__getattr__", counting)
        deployment.run(4.0)
        assert deployment.network.messages_delivered > 0
        assert handled == []
        assert "is_app_payload" not in asked
