"""Unit tests for the GRP node's compute() procedure (no simulator involved)."""

import math

import pytest

from repro.core.ancestor_list import AncestorList
from repro.core.identity import Mark, priority_key
from repro.core.messages import GRPMessage
from repro.core.node import GRPConfig, GRPNode

from conftest import alist


def msg(sender, levels, priorities=None, view=None, group_priority=None):
    """Build a GRPMessage from plain level sets."""
    lst = AncestorList.from_levels(levels)
    return GRPMessage.build(sender, lst, priorities=priorities or {sender: 0},
                            group_priority=group_priority, view=view)


def feed(node, *messages):
    """Put messages into the node's message set as if they had been received."""
    for message in messages:
        node.on_message(message.sender, message)


class TestConfigValidation:
    def test_rejects_bad_dmax(self):
        with pytest.raises(ValueError):
            GRPConfig(dmax=0)

    def test_rejects_ts_larger_than_tc(self):
        with pytest.raises(ValueError):
            GRPConfig(dmax=2, tc=1.0, ts=2.0)

    def test_rejects_non_positive_periods(self):
        # NaN compares false both ways, so each bound must reject it too.
        for timing in ({"tc": 0.0, "ts": 0.0}, {"tc": math.nan}, {"ts": math.nan},
                       {"tc": math.inf}, {"tc": math.inf, "ts": math.inf},
                       {"timer_jitter": math.nan}, {"timer_jitter": -0.1},
                       {"timer_jitter": 1.0}):
            with pytest.raises(ValueError):
                GRPConfig(dmax=2, **timing)

    def test_rejects_bad_patience(self):
        with pytest.raises(ValueError):
            GRPConfig(dmax=2, exclusion_patience=0)
        with pytest.raises(ValueError):
            GRPConfig(dmax=2, neighbor_timeout_rounds=0)


class TestInitialState:
    def test_node_starts_alone(self, standalone_node):
        assert standalone_node.current_view() == frozenset({"v"})
        assert standalone_node.alist == AncestorList.singleton("v")
        assert not standalone_node.in_group()

    def test_compute_without_messages_keeps_singleton(self, standalone_node):
        standalone_node.compute()
        assert standalone_node.alist == AncestorList.singleton("v")
        assert standalone_node.current_view() == frozenset({"v"})


class TestHandshake:
    def test_unknown_sender_without_handshake_is_single_marked(self, standalone_node):
        feed(standalone_node, msg("u", [{"u"}]))
        standalone_node.compute()
        assert standalone_node.alist.mark_of("u") is Mark.SINGLE
        assert "u" not in standalone_node.current_view()

    def test_handshaked_sender_is_accepted_unmarked(self, standalone_node):
        feed(standalone_node, msg("u", [{"u"}, {"v"}]))
        standalone_node.compute()
        assert standalone_node.alist.mark_of("u") is Mark.NONE
        assert standalone_node.alist.position_of("u") == 1

    def test_new_member_enters_view_only_after_quarantine(self, standalone_node):
        dmax = standalone_node.config.dmax
        for round_index in range(dmax + 1):
            feed(standalone_node, msg("u", [{"u"}, {"v"}]))
            standalone_node.compute()
            if round_index < dmax:
                assert "u" not in standalone_node.current_view()
        assert "u" in standalone_node.current_view()

    def test_quarantine_disabled_admits_immediately(self):
        node = GRPNode("v", GRPConfig(dmax=3, quarantine_enabled=False))
        feed(node, msg("u", [{"u"}, {"v"}]))
        node.compute()
        assert "u" in node.current_view()


class TestListChecks:
    def test_too_long_list_is_rejected(self, standalone_node):
        dmax = standalone_node.config.dmax
        levels = [{"u"}, {"v"}] + [{f"x{i}"} for i in range(dmax)]
        feed(standalone_node, msg("u", levels))
        standalone_node.compute()
        assert standalone_node.alist.mark_of("u") is Mark.SINGLE

    def test_incompatible_group_is_double_marked(self):
        # v's established group spans v-a-b (Dmax=2); sender u brings two more
        # members in a chain: merging would exceed the diameter bound.
        node = GRPNode("v", GRPConfig(dmax=2))
        node.alist = alist({"v"}, {"a"}, {"b"})
        node.view = frozenset({"v", "a", "b"})
        node.quarantine.force("a", 0)
        node.quarantine.force("b", 0)
        feed(node,
             msg("a", [{"a"}, {"v", "b"}], view=frozenset({"v", "a", "b"})),
             msg("u", [{"u"}, {"v", "c"}, {"d"}], view=frozenset({"u", "c", "d"})))
        node.compute()
        assert node.alist.mark_of("u") is Mark.DOUBLE
        assert "u" not in node.view
        assert {"v", "a", "b"} <= set(node.view)

    def test_compatible_group_is_merged(self):
        node = GRPNode("v", GRPConfig(dmax=3))
        node.alist = alist({"v"}, {"a"})
        node.view = frozenset({"v", "a"})
        feed(node, msg("u", [{"u"}, {"v", "c"}], view=frozenset({"u", "c"})))
        node.compute()
        assert node.alist.mark_of("u") is Mark.NONE
        assert node.alist.position_of("c") == 2

    def test_view_member_skips_compatibility(self):
        node = GRPNode("v", GRPConfig(dmax=2))
        node.alist = alist({"v"}, {"u", "a"})
        node.view = frozenset({"v", "u", "a"})
        # u's list now spans further than a fresh compatibility check would like,
        # but u is already a member so its list is accepted.
        feed(node, msg("u", [{"u"}, {"v", "x"}, {"y"}], view=frozenset({"u", "x", "y"})))
        node.compute()
        assert node.alist.mark_of("u") is Mark.NONE


class TestTooFarArbitration:
    def _grow_chain(self, node, rounds):
        """Feed the node a chain neighbour advertising deeper and deeper content."""
        for _ in range(rounds):
            feed(node, msg("n1", [{"n1"}, {"v", "n2"}, {"n3"}, {"n4"}],
                           priorities={"n1": 0, "n2": 0, "n3": 0, "n4": 0},
                           view=frozenset({"n1"})))
            node.compute()

    def test_far_node_is_truncated_when_local_node_has_priority(self):
        # The far candidate n4 is much younger (larger oldness) than the local
        # node, so the local node keeps its list and simply truncates n4 away.
        node = GRPNode("a", GRPConfig(dmax=3, exclusion_patience=1))
        for _ in range(3):
            feed(node, msg("n1", [{"n1"}, {"a", "n2"}, {"n3"}, {"n4"}],
                           priorities={"n1": 99, "n2": 99, "n3": 99, "n4": 99},
                           view=frozenset({"n1"})))
            node.compute()
        assert len(node.alist) <= node.config.dmax + 1
        assert "n4" not in node.alist
        assert node.alist.mark_of("n1") is Mark.NONE

    def test_provider_double_marked_when_far_node_has_priority(self):
        # Local node "z" loses the identifier tie-break against far node "n4".
        node = GRPNode("z", GRPConfig(dmax=3, exclusion_patience=1))
        for _ in range(3):
            feed(node, msg("n1", [{"n1"}, {"z", "n2"}, {"n3"}, {"n4"}],
                           priorities={"n1": 0, "n2": 0, "n3": 0, "n4": 0},
                           view=frozenset({"n1"})))
            node.compute()
        assert node.alist.mark_of("n1") is Mark.DOUBLE

    def test_losing_node_backs_off_and_double_marks_the_provider(self):
        # Paper lines 16-21: when the persistent far identity n4 wins the
        # priority comparison, the local node must ignore (double-mark) the
        # neighbours that provided it — this is how nodes farther apart than
        # Dmax end up separated by a double-marked edge (Proposition 5).
        # The local group {z, n1} is young (oldness 5) while the far identity n4
        # belongs to an older group (oldness 0), so n4's side wins.
        node = GRPNode("z", GRPConfig(dmax=3, exclusion_patience=1))
        node.priorities.set_own(5)
        node.alist = alist({"z"}, {"n1"})
        node.view = frozenset({"z", "n1"})
        node.quarantine.force("n1", 0)
        for _ in range(3):
            feed(node, msg("n1", [{"n1"}, {"z", "n2"}, {"n3"}, {"n4"}],
                           priorities={"n1": 5, "n2": 5, "n3": 0, "n4": 0},
                           view=frozenset({"n1", "z"})))
            node.compute()
        assert node.alist.mark_of("n1") is Mark.DOUBLE
        assert "n4" not in node.alist
        assert len(node.alist) <= node.config.dmax + 1


class TestPriorities:
    def test_oldness_grows_only_while_alone(self, standalone_node):
        standalone_node.compute()
        standalone_node.compute()
        assert standalone_node.priorities.own_oldness == 2
        # Join a group: oldness freezes.
        node = GRPNode("v", GRPConfig(dmax=2, quarantine_enabled=False))
        feed(node, msg("u", [{"u"}, {"v"}]))
        node.compute()
        frozen = node.priorities.own_oldness
        feed(node, msg("u", [{"u"}, {"v"}]))
        node.compute()
        assert node.priorities.own_oldness == frozen

    def test_group_priority_is_min_member_key(self):
        node = GRPNode("v", GRPConfig(dmax=2, quarantine_enabled=False))
        feed(node, msg("u", [{"u"}, {"v"}], priorities={"u": 0}))
        node.compute()
        assert node.group_priority() == priority_key(0, "u")


class TestFaultInjectionHooks:
    def test_ghost_insertion_and_cleanup(self, standalone_node):
        standalone_node.corrupt_state(ghost_nodes={"ghost": 2})
        assert standalone_node.alist.contains("ghost")
        # Without any neighbour confirming the ghost, the next computation
        # rebuilds the list from scratch and the ghost disappears.
        standalone_node.compute()
        assert not standalone_node.alist.contains("ghost")

    def test_append_levels_makes_list_too_long(self, standalone_node):
        standalone_node.corrupt_state(append_levels=["g1", "g2", "g3", "g4"])
        assert len(standalone_node.alist) > standalone_node.config.dmax + 1
        standalone_node.compute()
        assert len(standalone_node.alist) <= standalone_node.config.dmax + 1

    def test_view_and_priority_corruption(self, standalone_node):
        standalone_node.corrupt_state(view={"x", "y"}, priority=42)
        assert standalone_node.current_view() == frozenset({"x", "y", "v"})
        assert standalone_node.priorities.own_oldness == 42

    def test_quarantine_noise(self, standalone_node):
        import numpy as np
        standalone_node.corrupt_state(ghost_nodes={"a": 1})
        standalone_node.corrupt_state(quarantine_noise=(np.random.default_rng(0), 3))
        assert 0 <= standalone_node.quarantine.counter("a") <= 3


class TestMessageHandling:
    def test_last_message_per_sender_wins(self, standalone_node):
        feed(standalone_node, msg("u", [{"u"}]), msg("u", [{"u"}, {"v"}]))
        assert len(standalone_node.msg_set) == 1
        standalone_node.compute()
        assert standalone_node.alist.mark_of("u") is Mark.NONE

    def test_non_grp_payloads_are_ignored(self, standalone_node):
        standalone_node.on_message("u", {"not": "a GRP message"})
        assert standalone_node.msg_set == {}
