"""Property-based tests (hypothesis) for the core data structures and predicates."""

import string

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ancestor_list import AncestorList
from repro.core.checks import compatible_list, good_list
from repro.core.identity import Mark
from repro.core.predicates import agreement, continuity, omega, safety
from repro.net.topology import LinkSnapshot

from reference_topology import subgraph_diameter

node_ids = st.sampled_from(list(string.ascii_lowercase[:8]))

levels_strategy = st.lists(
    st.dictionaries(node_ids, st.sampled_from([Mark.NONE, Mark.SINGLE, Mark.DOUBLE]),
                    max_size=4),
    max_size=5)


def make_list(levels):
    return AncestorList(tuple(levels))


@st.composite
def ancestor_lists(draw):
    return make_list(draw(levels_strategy))


class TestAncestorListAlgebra:
    @given(ancestor_lists())
    @settings(max_examples=80)
    def test_merge_idempotent(self, lst):
        assert lst.merge(lst) == lst

    @given(ancestor_lists(), ancestor_lists())
    @settings(max_examples=80)
    def test_merge_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(ancestor_lists(), ancestor_lists(), ancestor_lists())
    @settings(max_examples=60)
    def test_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(ancestor_lists())
    @settings(max_examples=80)
    def test_each_identity_appears_once(self, lst):
        seen = []
        for level in lst.levels:
            seen.extend(level)
        assert len(seen) == len(set(seen))

    @given(ancestor_lists(), ancestor_lists())
    @settings(max_examples=80)
    def test_ant_never_loses_level_zero_of_left_operand(self, a, b):
        if not a:
            return
        combined = a.ant(b)
        for node in a.level_nodes(0):
            assert combined.position_of(node) == 0

    @given(ancestor_lists())
    @settings(max_examples=80)
    def test_wire_roundtrip(self, lst):
        assert AncestorList.from_wire(lst.to_wire()) == lst

    @given(ancestor_lists(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=80)
    def test_truncation_bounds_length(self, lst, limit):
        assert len(lst.truncated(limit)) <= limit

    @given(ancestor_lists())
    @settings(max_examples=80)
    def test_stripped_contains_no_marked_identity(self, lst):
        assert not lst.stripped().marked_nodes()

    @given(ancestor_lists(), node_ids)
    @settings(max_examples=80)
    def test_sanitized_never_keeps_foreign_marks(self, lst, receiver):
        sanitized = lst.sanitized_for(receiver)
        for node in sanitized.marked_nodes():
            assert node == receiver
            assert sanitized.mark_of(node) is Mark.SINGLE


class TestChecksProperties:
    @given(ancestor_lists(), node_ids, st.integers(min_value=1, max_value=5))
    @settings(max_examples=80)
    def test_good_list_never_accepts_overlong_lists(self, lst, receiver, dmax):
        if len(lst) > dmax + 1:
            assert not good_list(lst, receiver, dmax)

    @given(ancestor_lists(), ancestor_lists(), node_ids)
    @settings(max_examples=60)
    def test_naive_acceptance_implies_optimized_acceptance(self, local, received, receiver):
        dmax = 3
        if compatible_list(local, received, receiver, dmax, optimized=False):
            assert compatible_list(local, received, receiver, dmax, optimized=True)


@st.composite
def random_partitioned_graph(draw):
    """A random geometric-ish graph plus a partition of its nodes."""
    n = draw(st.integers(min_value=1, max_value=8))
    edge_flags = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    index = 0
    for i in range(n):
        for j in range(i + 1, n):
            if edge_flags[index]:
                graph.add_edge(i, j)
            index += 1
    assignment = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    groups = {}
    for node, label in enumerate(assignment):
        groups.setdefault(label, set()).add(node)
    views = {}
    for members in groups.values():
        frozen = frozenset(members)
        for node in members:
            views[node] = frozen
    return graph, views


class TestPredicateProperties:
    @given(random_partitioned_graph())
    @settings(max_examples=80)
    def test_partition_views_always_agree(self, graph_and_views):
        _, views = graph_and_views
        assert agreement(views)

    @given(random_partitioned_graph())
    @settings(max_examples=80)
    def test_omega_is_a_partition(self, graph_and_views):
        _, views = graph_and_views
        groups = omega(views)
        distinct = set(groups.values())
        seen = set()
        for group in distinct:
            assert not (seen & group)
            seen |= group
        assert seen == set(views)

    @given(random_partitioned_graph(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=80)
    def test_safety_equivalent_to_diameter_bound(self, graph_and_views, dmax):
        graph, views = graph_and_views
        expected = all(subgraph_diameter(graph, group) <= dmax
                       for group in set(omega(views).values()))
        assert safety(views, LinkSnapshot.from_graph(graph), dmax) == expected

    @given(random_partitioned_graph())
    @settings(max_examples=50)
    def test_continuity_reflexive(self, graph_and_views):
        _, views = graph_and_views
        groups = omega(views)
        assert continuity(groups, groups)
