"""Differential tests: the production ``AncestorList`` against its reference copy.

``reference_ancestor_list.py`` is the straightforward implementation (``Mark``
members everywhere, every result normalized).  For random lists — malformed
ones included: duplicates across levels, intermediate empty levels, marks
given as plain ints — every public operation of the production class must
give the same wire form *and* the same per-level insertion order (downstream
sets are built from the levels, so the order is part of a bit-identical
run), and its accessors must hand out ``Mark`` members.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ancestor_list import AncestorList
from repro.core.identity import Mark

from reference_ancestor_list import AncestorList as ReferenceList
from test_properties import levels_strategy, node_ids

#: Marks as members and as the plain ints a caller may pass instead.
raw_marks = st.sampled_from([Mark.NONE, Mark.SINGLE, Mark.DOUBLE, 0, 1, 2])
raw_levels_strategy = st.lists(st.dictionaries(node_ids, raw_marks, max_size=4), max_size=5)
#: Wire input as received: levels may repeat an identity, within and across levels.
raw_wire_strategy = st.lists(
    st.lists(st.tuples(node_ids, st.sampled_from([0, 1, 2])), max_size=5).map(tuple),
    max_size=5).map(tuple)
any_levels = st.one_of(levels_strategy, raw_levels_strategy)


def both(levels):
    return AncestorList(tuple(levels)), ReferenceList(tuple(levels))


def layout(alist):
    """Levels as ordered ``(node, mark)`` pairs: wire content plus insertion order."""
    return [list(level.items()) for level in alist.levels]


def assert_same(new, ref):
    assert isinstance(new, AncestorList)
    assert new.to_wire() == ref.to_wire()
    assert layout(new) == layout(ref)
    for level in new.levels:
        for mark in level.values():
            assert any(mark is member for member in Mark)


class TestConstructors:
    @given(any_levels)
    @settings(max_examples=150)
    def test_init(self, levels):
        assert_same(*both(levels))

    @given(raw_wire_strategy)
    @settings(max_examples=150)
    def test_from_wire(self, wire):
        assert_same(AncestorList.from_wire(wire), ReferenceList.from_wire(wire))

    @given(st.lists(st.sets(node_ids, max_size=4), max_size=5))
    @settings(max_examples=80)
    def test_from_levels(self, levels):
        assert_same(AncestorList.from_levels(levels), ReferenceList.from_levels(levels))

    @given(node_ids, raw_marks)
    def test_singleton(self, node, mark):
        assert_same(AncestorList.singleton(node, mark), ReferenceList.singleton(node, mark))

    def test_malformed_examples(self):
        cases = [
            # Duplicates across levels, the later one carrying a stronger mark.
            ({"a": Mark.NONE}, {"b": 1, "a": Mark.DOUBLE}, {"a": 2, "c": 0}),
            # Intermediate empty levels and trailing empty levels.
            ({"a": 0}, {}, {"b": 1}, {}, {}),
            # Plain int marks only.
            ({"a": 2, "b": 0}, {"c": 1}),
            (),
        ]
        for levels in cases:
            assert_same(*both(levels))

    def test_invalid_mark_rejected_like_the_reference(self):
        for bad in ({"a": 3}, {"a": -1}):
            with pytest.raises(ValueError):
                ReferenceList((bad,))
            with pytest.raises(ValueError):
                AncestorList((bad,))


class TestQueries:
    @given(any_levels, node_ids)
    @settings(max_examples=150)
    def test_every_query(self, levels, node):
        new, ref = both(levels)
        assert len(new) == len(ref) and bool(new) == bool(ref)
        for index in range(-1, len(ref) + 2):
            assert list(new.level(index).items()) == list(ref.level(index).items())
            assert new.level_nodes(index) == ref.level_nodes(index)
        assert new.nodes() == ref.nodes()
        assert new.unmarked_nodes() == ref.unmarked_nodes()
        assert new.marked_nodes() == ref.marked_nodes()
        assert new.contains(node) == ref.contains(node)
        assert (node in new) == (node in ref)
        assert new.position_of(node) == ref.position_of(node)
        assert new.mark_of(node) is ref.mark_of(node)
        assert new.has_empty_level() == ref.has_empty_level()
        assert new.size() == ref.size()
        assert [list(level.items()) for level in new] == [list(level.items()) for level in ref]
        assert repr(new) == repr(ref)
        assert hash(new) == hash(ref)
        assert new.positions() == {n: ref.position_of(n) for n in ref.nodes()}

    @given(any_levels)
    @settings(max_examples=80)
    def test_equality_follows_the_wire_form(self, levels):
        new, ref = both(levels)
        assert new == AncestorList.from_wire(ref.to_wire())


class TestOperations:
    @given(any_levels, node_ids, st.sets(node_ids, max_size=4),
           st.integers(min_value=0, max_value=6), raw_marks)
    @settings(max_examples=200)
    def test_unary(self, levels, node, members, k, mark):
        new, ref = both(levels)
        assert_same(new.shifted(), ref.shifted())
        assert_same(new.truncated(k), ref.truncated(k))
        assert_same(new.without_marked(), ref.without_marked())
        assert_same(new.without_marked(members), ref.without_marked(members))
        assert_same(new.sanitized_for(node), ref.sanitized_for(node))
        assert_same(new.restricted_to(members), ref.restricted_to(members))
        assert_same(new.without_nodes(members), ref.without_nodes(members))
        assert_same(new.stripped(), ref.stripped())
        assert_same(new.stripped(node), ref.stripped(node))
        assert_same(new.relabel_mark(node, mark), ref.relabel_mark(node, mark))

    @given(any_levels, any_levels)
    @settings(max_examples=200)
    def test_binary(self, levels_a, levels_b):
        new_a, ref_a = both(levels_a)
        new_b, ref_b = both(levels_b)
        assert_same(new_a.merge(new_b), ref_a.merge(ref_b))
        assert_same(new_a | new_b, ref_a | ref_b)
        assert_same(new_a.ant(new_b), ref_a.ant(ref_b))
        assert_same(new_b.ant(new_a), ref_b.ant(ref_a))

    @given(any_levels, node_ids, st.sets(node_ids, max_size=4),
           st.integers(min_value=0, max_value=6))
    @settings(max_examples=80)
    def test_chained_operations(self, levels, node, members, k):
        # Results of the trusted fast paths feed further operations.
        new, ref = both(levels)
        new_out = new.sanitized_for(node).shifted().merge(new.stripped()).truncated(k)
        ref_out = ref.sanitized_for(node).shifted().merge(ref.stripped()).truncated(k)
        assert_same(new_out, ref_out)
        assert_same(new_out.restricted_to(members).ant(new_out),
                    ref_out.restricted_to(members).ant(ref_out))


class TestFold:
    @given(node_ids, st.lists(any_levels, max_size=8), node_ids)
    @settings(max_examples=200)
    def test_fold_equals_pairwise_chain(self, v, neighbour_levels, receiver):
        # The compute() shape: the local singleton folded with sanitized
        # neighbour lists.
        news = [AncestorList(tuple(levels)).sanitized_for(receiver)
                for levels in neighbour_levels]
        refs = [ReferenceList(tuple(levels)).sanitized_for(receiver)
                for levels in neighbour_levels]
        expected = ReferenceList.singleton(v)
        for ref in refs:
            expected = expected.ant(ref)
        assert_same(AncestorList.singleton(v).ant_fold(news), expected)

    @given(any_levels, st.lists(any_levels, max_size=8))
    @settings(max_examples=150)
    def test_fold_from_any_head(self, head_levels, neighbour_levels):
        new_head, expected = both(head_levels)
        news = [AncestorList(tuple(levels)) for levels in neighbour_levels]
        for levels in neighbour_levels:
            expected = expected.ant(ReferenceList(tuple(levels)))
        before = [layout(lst) for lst in [new_head] + news]
        assert_same(new_head.ant_fold(news), expected)
        # The fold shares its inputs' levels and must never modify them.
        assert [layout(lst) for lst in [new_head] + news] == before

    def test_fold_of_nothing_is_the_head(self):
        head = AncestorList(({"v": Mark.NONE}, {"a": Mark.SINGLE}))
        assert_same(head.ant_fold([]), ReferenceList(({"v": Mark.NONE}, {"a": Mark.SINGLE})))
