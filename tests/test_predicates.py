"""Unit tests for the Dynamic Group Service predicates (ΠA, ΠS, ΠM, ΠT, ΠC, Ω)."""

import networkx as nx

from repro.core.predicates import (agreement, agreement_violations, continuity,
                                   continuity_violations, evaluate_configuration,
                                   groups_partition, legitimate, maximality,
                                   maximality_violations, omega, safety, safety_violations,
                                   topological)
from repro.net.topology import LinkSnapshot


def graph_from_edges(*edges):
    g = nx.Graph()
    g.add_edges_from(edges)
    return LinkSnapshot.from_graph(g)


def graph_of_nodes(*nodes):
    g = nx.Graph()
    g.add_nodes_from(nodes)
    return LinkSnapshot.from_graph(g)


def views_of(partition):
    """Build a consistent views mapping from an iterable of member collections."""
    views = {}
    for group in partition:
        frozen = frozenset(group)
        for node in frozen:
            views[node] = frozen
    return views


class TestOmega:
    def test_consistent_views_define_groups(self):
        views = views_of([{"a", "b"}, {"c"}])
        groups = omega(views)
        assert groups["a"] == frozenset({"a", "b"})
        assert groups["c"] == frozenset({"c"})

    def test_disagreeing_member_collapses_to_singleton(self):
        views = {"a": frozenset({"a", "b"}), "b": frozenset({"b"})}
        groups = omega(views)
        assert groups["a"] == frozenset({"a"})
        assert groups["b"] == frozenset({"b"})

    def test_node_missing_from_own_view_is_singleton(self):
        views = {"a": frozenset({"b"}), "b": frozenset({"b"})}
        assert omega(views)["a"] == frozenset({"a"})

    def test_groups_partition(self):
        views = views_of([{"a", "b"}, {"c", "d"}])
        assert groups_partition(views) == {frozenset({"a", "b"}), frozenset({"c", "d"})}


class TestAgreement:
    def test_holds_on_consistent_partition(self):
        assert agreement(views_of([{"a", "b"}, {"c"}]))

    def test_fails_on_asymmetric_views(self):
        views = {"a": frozenset({"a", "b"}), "b": frozenset({"b"})}
        assert not agreement(views)
        assert agreement_violations(views)

    def test_fails_when_member_unknown(self):
        views = {"a": frozenset({"a", "zz"})}
        assert not agreement(views)


class TestSafety:
    def test_holds_when_diameter_within_bound(self):
        g = graph_from_edges(("a", "b"), ("b", "c"))
        assert safety(views_of([{"a", "b", "c"}]), g, dmax=2)

    def test_fails_when_diameter_exceeds_bound(self):
        g = graph_from_edges(("a", "b"), ("b", "c"), ("c", "d"))
        views = views_of([{"a", "b", "c", "d"}])
        assert not safety(views, g, dmax=2)
        assert safety_violations(views, g, dmax=2)

    def test_fails_when_group_disconnected_in_subgraph(self):
        g = graph_from_edges(("a", "b"), ("b", "c"))
        # group {a, c} is only connected through b, which is not a member
        assert not safety(views_of([{"a", "c"}, {"b"}]), g, dmax=2)

    def test_singletons_are_always_safe(self):
        g = graph_of_nodes("a", "b")
        assert safety(views_of([{"a"}, {"b"}]), g, dmax=1)


class TestMaximality:
    def test_fails_when_two_groups_could_merge(self):
        g = graph_from_edges(("a", "b"))
        views = views_of([{"a"}, {"b"}])
        assert not maximality(views, g, dmax=1)
        assert maximality_violations(views, g, dmax=1)

    def test_holds_when_merge_would_violate_diameter(self):
        g = graph_from_edges(("a", "b"), ("b", "c"))
        assert maximality(views_of([{"a", "b"}, {"c"}]), g, dmax=1)

    def test_holds_for_disconnected_groups(self):
        g = graph_of_nodes("a", "b")
        assert maximality(views_of([{"a"}, {"b"}]), g, dmax=3)


class TestLegitimate:
    def test_conjunction_of_three_predicates(self):
        g = graph_from_edges(("a", "b"), ("b", "c"), ("c", "d"))
        good = views_of([{"a", "b", "c"}, {"d"}])
        assert legitimate(good, g, dmax=2)
        assert not legitimate(views_of([{"a", "b"}, {"c"}, {"d"}]), g, dmax=2)


class TestTransitionPredicates:
    def test_topological_holds_when_group_distances_preserved(self):
        previous = omega(views_of([{"a", "b", "c"}]))
        new_graph = graph_from_edges(("a", "b"), ("b", "c"))
        assert topological(previous, new_graph, dmax=2)

    def test_topological_fails_when_member_moved_too_far(self):
        previous = omega(views_of([{"a", "b", "c"}]))
        g = nx.Graph([("a", "b")])
        g.add_node("c")  # c is now isolated
        new_graph = LinkSnapshot.from_graph(g)
        assert not topological(previous, new_graph, dmax=2)

    def test_continuity_holds_when_groups_only_grow(self):
        before = omega(views_of([{"a", "b"}, {"c"}]))
        after = omega(views_of([{"a", "b", "c"}]))
        assert continuity(before, after)

    def test_continuity_fails_when_member_lost(self):
        before = omega(views_of([{"a", "b", "c"}]))
        after = omega(views_of([{"a", "b"}, {"c"}]))
        assert not continuity(before, after)
        lost = continuity_violations(before, after)
        assert lost and all(prev - new for _, prev, new in lost)


class TestEvaluateConfiguration:
    def test_report_fields(self):
        g = graph_from_edges(("a", "b"), ("b", "c"), ("c", "d"))
        views = views_of([{"a", "b", "c"}, {"d"}])
        report = evaluate_configuration(5.0, views, g, dmax=2)
        assert report.time == 5.0
        assert report.legitimate
        assert report.group_count == 2
        assert report.largest_group == 3
        assert report.isolated_nodes == 1
