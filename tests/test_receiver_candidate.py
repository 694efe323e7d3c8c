"""Receiver-side sharing in ``GRPNode.compute()``.

Every neighbour of a sender checks and folds the same received list, so the
work that does not depend on the receiver is done once per message:

* ``GRPMessage.candidate_for`` hands every receiver the list does not
  single-mark one shared copy with all marked entries removed; it must equal
  ``sanitized_for(receiver)`` — the reference — in content and in per-level
  insertion order, and ``good_list`` / ``compatible_list`` must answer alike;
* ``AncestorList.positions()`` is cached per list and read-only, so
  ``compatible_list`` must not write the receiver's distance into it;
* ``compute()`` folds the accepted lists in insertion order and skips the
  second fold when the too-far arbitration replaced no provider.

The last class replays real runs against ``reference_compute`` — the
procedure as written before these shortcuts — state by state.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ancestor_list import AncestorList
from repro.core.checks import compatible_list, good_list, merged_pair_bound
from repro.core.identity import Mark
from repro.core.messages import GRPMessage
from repro.core.node import GRPConfig, GRPNode
from repro.core.protocol import build_grp_network
from repro.net.faults import FaultInjector
from repro.net.geometry import random_positions

from reference_ancestor_list import AncestorList as ReferenceList

NODES = list("abcdefgh")
#: Receivers: every identity that may appear, plus one that never does.
RECEIVERS = NODES + ["z"]

node_ids = st.sampled_from(NODES)
#: Marks at any level, as members or plain ints, unmarked entries most common.
any_mark = st.sampled_from([Mark.NONE, Mark.NONE, 0, Mark.SINGLE, 1, Mark.DOUBLE, 2])
#: Malformed lists included: marks anywhere, cross-level duplicates (the
#: constructor keeps the first), intermediate empty levels.
raw_levels = st.lists(st.dictionaries(node_ids, any_mark, max_size=5), max_size=6)
members = st.none() | st.frozensets(st.sampled_from(RECEIVERS), max_size=6)


def layout(alist):
    """Levels as ordered ``(node, mark)`` pairs: content plus insertion order."""
    return [list(level.items()) for level in alist.levels]


def message_of(alist):
    return GRPMessage.build("s", alist, priorities={})


def scanned_positions(alist):
    """``positions()`` recomputed from the public levels, bypassing the cache."""
    return {node: index for index, level in enumerate(alist.levels) for node in level}


def reference_good_list(received, receiver, dmax):
    ref = ReferenceList(received.levels)
    if len(ref) > dmax + 1 or ref.has_empty_level():
        return False
    return ref.position_of(receiver) == 1 or ref.mark_of(receiver) is Mark.NONE


def reference_compatible_list(local, received, receiver, dmax, local_members=None,
                              sender_members=None):
    """The optimized test as written before the pair bound was inlined."""
    local_view = (set(local_members) if local_members is not None
                  else set(local.unmarked_nodes()) | {receiver})
    sender_view = (set(sender_members) if sender_members is not None
                   else set(received.stripped(receiver=receiver).nodes()))
    local_exclusive = local_view - sender_view
    sender_exclusive = sender_view - local_view - {receiver}
    if not sender_exclusive or not local_exclusive:
        return True
    pos_local = scanned_positions(local)
    pos_received = scanned_positions(received)
    pos_local[receiver] = 0
    return all(merged_pair_bound(pos_local, pos_received, x, y) <= dmax
               for x in local_exclusive for y in sender_exclusive if x != y)


class TestSharedCandidate:
    @settings(max_examples=300, deadline=None)
    @given(raw_levels)
    def test_equals_sanitized_for_every_receiver(self, levels):
        alist = AncestorList(levels)
        message = message_of(alist)
        for receiver in RECEIVERS:
            candidate = message.candidate_for(receiver)
            reference = alist.sanitized_for(receiver)
            assert candidate.to_wire() == reference.to_wire()
            assert layout(candidate) == layout(reference)
            if alist.mark_of(receiver) is not Mark.SINGLE:
                # Everyone else shares one object.
                assert candidate is message.candidate_for("z")

    def test_both_branches(self):
        alist = AncestorList(({"s": 0}, {"a": 1, "b": 2, "c": 0}, {"d": 0, "e": 1}))
        message = message_of(alist)
        shared = message.candidate_for("c")
        assert layout(shared) == [[("s", Mark.NONE)], [("c", Mark.NONE)],
                                  [("d", Mark.NONE)]]
        assert message.candidate_for("b") is shared  # double-marked: dropped too
        assert message.candidate_for("z") is shared
        own = message.candidate_for("a")  # single-marked: the handshake witness
        assert own is not shared
        assert layout(own) == [[("s", Mark.NONE)], [("a", Mark.SINGLE), ("c", Mark.NONE)],
                               [("d", Mark.NONE)]]
        # A receiver single-marked at a deeper level (malformed) keeps it too.
        assert layout(message.candidate_for("e"))[2] == [("d", Mark.NONE),
                                                         ("e", Mark.SINGLE)]

    def test_unmarked_list_is_its_own_candidate(self):
        alist = AncestorList.from_levels([["s"], ["a", "b"]])
        assert message_of(alist).candidate_for("a") is alist

    @settings(max_examples=200, deadline=None)
    @given(raw_levels, raw_levels, members, members, st.integers(1, 4))
    def test_checks_answer_alike(self, local_levels, levels, local_members,
                                 sender_members, dmax):
        local = AncestorList(local_levels)
        alist = AncestorList(levels)
        message = message_of(alist)
        for receiver in RECEIVERS:
            candidate = message.candidate_for(receiver)
            reference = alist.sanitized_for(receiver)
            good = good_list(candidate, receiver, dmax)
            assert good == good_list(reference, receiver, dmax)
            assert good == reference_good_list(reference, receiver, dmax)
            compatible = compatible_list(local, candidate, receiver, dmax,
                                         local_members=local_members,
                                         sender_members=sender_members)
            assert compatible == compatible_list(local, reference, receiver, dmax,
                                                 local_members=local_members,
                                                 sender_members=sender_members)
            assert compatible == reference_compatible_list(
                local, reference, receiver, dmax, local_members, sender_members)


class TestPositionsCache:
    @settings(max_examples=150, deadline=None)
    @given(raw_levels)
    def test_cached_and_equal_to_a_scan(self, levels):
        alist = AncestorList(levels)
        assert alist.positions() is alist.positions()
        assert alist.positions() == scanned_positions(alist)
        reference = ReferenceList(levels)
        for node in RECEIVERS:
            assert alist.position_of(node) == reference.position_of(node)
            assert alist.mark_of(node) == reference.mark_of(node)

    @settings(max_examples=200, deadline=None)
    @given(raw_levels, raw_levels, members, members, st.sampled_from(NODES),
           st.integers(1, 4))
    def test_compatible_list_leaves_a_corrupted_local_list_alone(
            self, local_levels, levels, local_members, sender_members, receiver, dmax):
        # The receiver sits at a level other than 0 (or is absent): the test
        # treats it as distance 0 without writing that into the cache.
        local = AncestorList([{}] + local_levels) if local_levels else AncestorList()
        received = AncestorList(levels)
        before = dict(local.positions())
        before_received = dict(received.positions())
        answer = compatible_list(local, received, receiver, dmax,
                                 local_members=local_members,
                                 sender_members=sender_members)
        assert local.positions() == before == scanned_positions(local)
        assert received.positions() == before_received
        assert local.positions().get(receiver) != 0
        assert answer == reference_compatible_list(local, received, receiver, dmax,
                                                   local_members, sender_members)

    def test_receiver_counts_at_distance_zero(self):
        # Corrupted local list: v itself at level 2.  Taken at distance 0, v
        # reaches the sender's group in 0 + 1 + 1 <= 2 hops; at its listed
        # level 2 no route would be short enough.
        local = AncestorList(({"w": 0}, {"x": 0}, {"v": 0}))
        received = AncestorList(({"s": 0}, {"y": 0}))
        assert compatible_list(local, received, "v", 2, local_members={"v"},
                               sender_members={"s", "y"})
        assert local.positions()["v"] == 2


# --------------------------------------------------- compute() against the reference


def reference_compute(node, stats):
    """``compute()`` before receiver-side sharing: one learn per message,
    ``sanitized_for`` per receiver, sorted folds and an unconditional
    second fold in the too-far branch."""
    dmax = node.config.dmax
    for message in node.msg_set.values():
        node.priorities.learn(message.priority_map)
    accepted = {}
    for sender in sorted(node.msg_set, key=str):
        message = node.msg_set[sender]
        candidate = message.ancestor_list.sanitized_for(node.node_id)
        if not reference_good_list(candidate, node.node_id, dmax):
            candidate = AncestorList.singleton(sender, Mark.SINGLE)
        elif sender not in node.view and not reference_compatible_list(
                node.alist, candidate, node.node_id, dmax, node.view, message.view_set):
            candidate = AncestorList.singleton(sender, Mark.DOUBLE)
        accepted[sender] = candidate

    def fold():
        return AncestorList.singleton(node.node_id).ant_fold(
            accepted[sender] for sender in sorted(accepted, key=str))

    new_list = fold()
    if len(new_list) == dmax + 2:
        far_nodes = new_list.level_nodes(dmax + 1)
        replaced = False
        for far_node in sorted(far_nodes, key=str):
            node._far_streaks[far_node] = node._far_streaks.get(far_node, 0) + 1
            persistent = node._far_streaks[far_node] >= node.config.exclusion_patience
            if persistent and node._far_node_has_priority(far_node):
                for sender in sorted(accepted, key=str):
                    if far_node in accepted[sender].level_nodes(dmax):
                        accepted[sender] = AncestorList.singleton(sender, Mark.DOUBLE)
                        replaced = True
                node._far_streaks.pop(far_node, None)
        for far_node in list(node._far_streaks):
            if far_node not in far_nodes:
                del node._far_streaks[far_node]
        refolded = fold().truncated(dmax + 1)
        if not replaced:
            stats["unchanged_refolds"] += 1
            # Skipping the second fold is exact: same content, same order.
            truncated = new_list.truncated(dmax + 1)
            assert layout(truncated) == layout(refolded)
        new_list = refolded
    else:
        node._far_streaks.clear()
    node.alist = new_list
    candidates = node.alist.unmarked_nodes() | {node.node_id}
    node.quarantine.update(candidates)
    if node.config.quarantine_enabled:
        eligible = {member for member in candidates if node.quarantine.is_cleared(member)}
    else:
        eligible = set(candidates)
    node.view = frozenset(eligible | {node.node_id})
    node.priorities.tick(in_group=node.in_group())
    node.priorities.forget_except(node.alist.nodes() | node.view)


def shadow_of(node):
    """A detached node holding a copy of everything ``compute()`` reads or writes."""
    shadow = GRPNode(node.node_id, node.config)
    shadow.alist, shadow.view = node.alist, node.view
    shadow.msg_set = dict(node.msg_set)
    shadow.priorities = copy.deepcopy(node.priorities)
    shadow.quarantine = copy.deepcopy(node.quarantine)
    shadow._far_streaks = dict(node._far_streaks)
    return shadow


def protocol_state(node):
    return (layout(node.alist), node.view, node.quarantine.counters(),
            node.priorities.own_oldness, dict(node.priorities._known),
            dict(node._far_streaks))


def checked_against_reference(deployment):
    stats = {"computes": 0, "unchanged_refolds": 0}
    for node in deployment.nodes.values():
        stock = node.compute

        def checked(node=node, stock=stock):
            shadow = shadow_of(node)
            reference_compute(shadow, stats)
            stock()
            assert protocol_state(node) == protocol_state(shadow)
            stats["computes"] += 1

        node.compute = checked
    return stats


class TestComputeMatchesReference:
    def test_dense_world_with_faults(self):
        positions = random_positions(range(30), (220.0, 220.0), np.random.default_rng(4))
        deployment = build_grp_network(positions, GRPConfig(dmax=2), radio_range=75.0,
                                       seed=4)
        stats = checked_against_reference(deployment)
        deployment.run(5.0)
        injector = FaultInjector(deployment.network, rng=np.random.default_rng(3))
        injector.random_memory_corruption(fraction=0.4, ghost_pool=["g1", "g2"])
        injector.oversized_list(5, ["o1", "o2", "o3"])
        injector.corrupt_view(8, [1, 2])
        deployment.run(4.0)
        assert stats["computes"] > 200
        # The too-far branch ran without replacing a provider, so the skipped
        # second fold was exercised.
        assert stats["unchanged_refolds"] > 0
