"""Unit tests for the ordered list of ancestors' sets and the ant r-operator."""

import pytest

from repro.core.ancestor_list import AncestorList
from repro.core.identity import Mark

from conftest import alist, marked


class TestConstruction:
    def test_singleton_has_one_level(self):
        lst = AncestorList.singleton("v")
        assert len(lst) == 1
        assert lst.level_nodes(0) == {"v"}
        assert lst.mark_of("v") is Mark.NONE

    def test_singleton_with_mark(self):
        lst = AncestorList.singleton("u", Mark.DOUBLE)
        assert lst.mark_of("u") is Mark.DOUBLE

    def test_from_levels_builds_unmarked_list(self):
        lst = alist({"a"}, {"b", "c"})
        assert len(lst) == 2
        assert lst.level_nodes(1) == {"b", "c"}
        assert lst.unmarked_nodes() == {"a", "b", "c"}

    def test_trailing_empty_levels_are_dropped(self):
        lst = AncestorList(({"a": Mark.NONE}, {}, {}))
        assert len(lst) == 1

    def test_duplicate_across_levels_keeps_smallest(self):
        lst = alist({"a"}, {"b"}, {"a", "c"})
        assert lst.position_of("a") == 0
        assert lst.level_nodes(2) == {"c"}

    def test_empty_list(self):
        lst = AncestorList()
        assert len(lst) == 0
        assert not lst
        assert lst.nodes() == set()


class TestPaperExample:
    def test_oplus_example_from_section_4_2(self):
        # ({d},{b},{a,c}) ⊕ ({c},{a,e},{b}) = ({d,c},{b,a,e})
        left = alist({"d"}, {"b"}, {"a", "c"})
        right = alist({"c"}, {"a", "e"}, {"b"})
        merged = left.merge(right)
        assert merged.level_nodes(0) == {"d", "c"}
        assert merged.level_nodes(1) == {"b", "a", "e"}
        assert len(merged) == 2

    def test_r_shift_example(self):
        lst = alist({"d"}, {"b"}, {"a", "c"})
        shifted = lst.shifted()
        assert len(shifted) == 4
        assert shifted.level_nodes(0) == set()
        assert shifted.level_nodes(1) == {"d"}

    def test_ant_is_merge_with_shift(self):
        l1 = alist({"v"})
        l2 = alist({"u"}, {"v"})
        result = l1.ant(l2)
        # v stays at level 0 (dedup), u arrives at level 1.
        assert result.position_of("v") == 0
        assert result.position_of("u") == 1


class TestOperatorProperties:
    def test_merge_is_idempotent(self):
        lst = alist({"a"}, {"b", "c"}, {"d"})
        assert lst.merge(lst) == lst

    def test_merge_is_commutative(self):
        l1 = alist({"a"}, {"b"})
        l2 = alist({"c"}, {"d", "a"})
        assert l1.merge(l2) == l2.merge(l1)

    def test_ant_keeps_self_at_level_zero(self):
        mine = AncestorList.singleton("v")
        theirs = alist({"u"}, {"v"}, {"w"})
        combined = mine.ant(theirs)
        assert combined.position_of("v") == 0
        assert combined.position_of("u") == 1
        assert combined.position_of("w") == 3

    def test_shift_of_empty_is_empty(self):
        assert len(AncestorList().shifted()) == 0


class TestQueriesAndTransforms:
    def test_contains_and_position(self):
        lst = alist({"a"}, {"b"})
        assert "b" in lst
        assert lst.position_of("b") == 1
        assert lst.position_of("zzz") is None
        assert lst.mark_of("zzz") is None

    def test_truncated(self):
        lst = alist({"a"}, {"b"}, {"c"}, {"d"})
        cut = lst.truncated(2)
        assert len(cut) == 2
        assert "c" not in cut

    def test_truncated_negative_raises(self):
        with pytest.raises(ValueError):
            alist({"a"}).truncated(-1)

    def test_without_marked_keeps_exception(self):
        lst = marked([{"u": 0}, {"v": 1, "w": 2, "x": 0}])
        cleaned = lst.without_marked(keep={"v"})
        assert cleaned.mark_of("v") is Mark.SINGLE
        assert "w" not in cleaned
        assert "x" in cleaned

    def test_sanitized_for_keeps_single_marked_receiver(self):
        lst = marked([{"u": 0}, {"v": 1, "w": 1}])
        cleaned = lst.sanitized_for("v")
        assert cleaned.mark_of("v") is Mark.SINGLE
        assert "w" not in cleaned

    def test_sanitized_for_drops_double_marked_receiver(self):
        # Proposition 3: a double-marked receiver must stop seeing itself.
        lst = marked([{"u": 0}, {"v": 2, "w": 0}])
        cleaned = lst.sanitized_for("v")
        assert "v" not in cleaned
        assert "w" in cleaned

    def test_restricted_to_members(self):
        lst = alist({"a"}, {"b", "c"}, {"d"})
        restricted = lst.restricted_to({"a", "d"})
        assert restricted.nodes() == {"a", "d"}
        assert restricted.position_of("d") == 2

    def test_stripped_removes_marked_and_receiver(self):
        lst = marked([{"u": 0}, {"v": 0, "w": 1}])
        stripped = lst.stripped(receiver="v")
        assert stripped.nodes() == {"u"}

    def test_has_empty_level(self):
        lst = AncestorList(({"a": Mark.NONE}, {}, {"b": Mark.NONE}))
        assert lst.has_empty_level()
        assert not alist({"a"}, {"b"}).has_empty_level()

    def test_relabel_mark(self):
        lst = alist({"a"}, {"b"})
        relabelled = lst.relabel_mark("b", Mark.DOUBLE)
        assert relabelled.mark_of("b") is Mark.DOUBLE
        assert lst.mark_of("b") is Mark.NONE  # original unchanged

    def test_size_counts_identities(self):
        assert alist({"a"}, {"b", "c"}).size() == 3


class TestWireFormat:
    def test_wire_roundtrip(self):
        lst = marked([{"v": 0}, {"a": 1, "b": 0}, {"c": 2}])
        assert AncestorList.from_wire(lst.to_wire()) == lst

    def test_equality_and_hash(self):
        l1 = alist({"a"}, {"b"})
        l2 = alist({"a"}, {"b"})
        assert l1 == l2
        assert hash(l1) == hash(l2)
        assert l1 != alist({"a"})

    def test_equality_ignores_per_level_insertion_order(self):
        l1 = marked([{"v": 0}, {"a": 1, "b": 0}])
        l2 = marked([{"v": 0}, {"b": 0, "a": 1}])
        assert l1 == l2 and hash(l1) == hash(l2)
        assert l1 != marked([{"v": 0}, {"a": 2, "b": 0}])
        assert l1 != marked([{"v": 0}, {"a": 1}, {"b": 0}])

    def test_repr_mentions_marks(self):
        lst = marked([{"v": 0}, {"u": 2}])
        assert "u''" in repr(lst)
