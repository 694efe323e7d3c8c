"""Unit tests for the GRP wire messages."""

import dataclasses
import pickle

import pytest

from repro.core.ancestor_list import AncestorList
from repro.core.identity import priority_key
from repro.core.messages import GRPMessage

from conftest import alist


class TestGRPMessage:
    def test_build_and_decode_roundtrip(self):
        lst = alist({"u"}, {"v", "w"})
        msg = GRPMessage.build("u", lst, priorities={"u": 1, "v": 2},
                               group_priority=priority_key(1, "u"),
                               view=frozenset({"u", "v"}))
        assert msg.sender == "u"
        assert msg.ancestor_list == lst
        assert msg.priority_map == {"u": 1, "v": 2}
        assert msg.view_set == frozenset({"u", "v"})
        assert msg.group_priority == priority_key(1, "u")

    def test_default_view_is_sender_singleton(self):
        msg = GRPMessage.build("u", AncestorList.singleton("u"), priorities={"u": 0})
        assert msg.view_set == frozenset({"u"})

    def test_messages_are_hashable_and_comparable(self):
        lst = alist({"u"}, {"v"})
        m1 = GRPMessage.build("u", lst, priorities={"u": 1})
        m2 = GRPMessage.build("u", lst, priorities={"u": 1})
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_size_estimate_counts_slots(self):
        lst = alist({"u"}, {"v", "w"})
        msg = GRPMessage.build("u", lst, priorities={"u": 1, "v": 2},
                               group_priority=priority_key(1, "u"),
                               view=frozenset({"u", "v"}))
        # 3 list slots + 2 priorities + 2 view members + 1 group priority
        assert msg.size_estimate() == 8

    def test_priorities_sorted_deterministically(self):
        lst = alist({"u"})
        m1 = GRPMessage.build("u", lst, priorities={"b": 2, "a": 1})
        m2 = GRPMessage.build("u", lst, priorities={"a": 1, "b": 2})
        assert m1.priorities == m2.priorities


class TestDecodeOnce:
    """Receivers share one message object: its decoded forms are computed once
    and are a cache, invisible to equality, hashing, repr and pickling."""

    @staticmethod
    def message():
        return GRPMessage.build("u", alist({"u"}, {"v", "w"}, {"x"}),
                                priorities={"u": 1, "v": 2, "x": 4},
                                group_priority=priority_key(1, "u"),
                                view=frozenset({"u", "v"}))

    def test_decoded_once_and_shared(self):
        msg = self.message()
        assert msg.ancestor_list is msg.ancestor_list
        assert msg.priority_map is msg.priority_map
        assert msg.view_set is msg.view_set

    def test_pickle_bytes_ignore_the_decoded_cache(self):
        msg = self.message()
        before = pickle.dumps(msg)
        _ = (msg.ancestor_list, msg.priority_map, msg.view_set)  # fill the cache
        assert pickle.dumps(msg) == before
        restored = pickle.loads(before)
        assert restored == msg
        assert restored.ancestor_list == msg.ancestor_list

    def test_cache_takes_no_part_in_eq_hash_repr(self):
        fresh, decoded = self.message(), self.message()
        _ = (decoded.ancestor_list, decoded.priority_map)  # fill the cache
        assert fresh == decoded
        assert hash(fresh) == hash(decoded)
        assert repr(fresh) == repr(decoded)

    def test_priority_map_is_read_only(self):
        msg = self.message()
        with pytest.raises(TypeError):
            msg.priority_map["v"] = 0
        with pytest.raises(TypeError):
            del msg.priority_map["u"]
        assert msg.priority_map == {"u": 1, "v": 2, "x": 4}

    def test_replaced_message_decodes_its_own_wire_list(self):
        msg = self.message()
        original = msg.ancestor_list
        other = alist({"u"}, {"y"})
        replaced = dataclasses.replace(msg, wire_list=other.to_wire(),
                                       priorities=(("u", 9),))
        assert replaced.ancestor_list == other
        assert replaced.priority_map == {"u": 9}
        assert msg.ancestor_list is original
