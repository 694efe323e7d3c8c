"""Unit tests for the metrics package (sampler, convergence, continuity, groups, report)."""

import networkx as nx
import pytest

from repro.core.predicates import omega
from repro.metrics.collectors import ConfigurationSample, ConfigurationSampler, TransitionRecord
from repro.metrics.continuity import continuity_summary
from repro.metrics.convergence import (first_legitimate_time, legitimate_fraction,
                                       stabilization_time, time_until)
from repro.metrics.groups import (average_membership_churn, group_lifetimes,
                                  max_group_diameter, mean_group_lifetime, membership_churn,
                                  partition_quality)
from repro.metrics.report import aggregate_rows, format_table, format_value
from repro.core.predicates import evaluate_configuration
from repro.net.topology import LinkSnapshot
from repro.sim.engine import Simulator


def make_sample(time, partition, edges):
    views = {}
    for group in partition:
        frozen = frozenset(group)
        for node in frozen:
            views[node] = frozen
    graph = nx.Graph()
    graph.add_nodes_from(views)
    graph.add_edges_from(edges)
    links = LinkSnapshot.from_graph(graph)
    return ConfigurationSample(time=time, views=views, groups=omega(views), links=links,
                               report=evaluate_configuration(time, views, links, dmax=2))


class TestSampler:
    def test_sampler_records_samples_and_transitions(self):
        sim = Simulator(seed=0)
        views_sequence = [
            {"a": frozenset({"a"}), "b": frozenset({"b"})},
            {"a": frozenset({"a", "b"}), "b": frozenset({"a", "b"})},
            {"a": frozenset({"a"}), "b": frozenset({"b"})},
        ]
        graph = nx.Graph()
        graph.add_edge("a", "b")
        links = LinkSnapshot.from_graph(graph)
        state = {"index": 0}

        def views_provider():
            return views_sequence[min(state["index"], len(views_sequence) - 1)]

        sampler = ConfigurationSampler(sim, views_provider, lambda: links, dmax=2,
                                       interval=1.0)
        sampler.start()
        for _ in range(2):
            state["index"] += 1
            sim.run(until=sim.now + 1.0)
        sampler.stop()
        assert len(sampler.samples) == 3
        assert len(sampler.transitions) == 2
        # Second transition loses member b from a's group while the topology is fine.
        assert sampler.transitions[1].best_effort_violation
        assert sampler.best_effort_violations()

    def test_sampler_requires_positive_interval(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ConfigurationSampler(sim, dict, lambda: LinkSnapshot.from_edges([], []), dmax=2,
                                 interval=0.0)


class TestConvergenceMetrics:
    def _samples(self, legits):
        samples = []
        for index, legitimate in enumerate(legits):
            partition = [{"a", "b"}] if legitimate else [{"a"}, {"b"}]
            samples.append(make_sample(float(index), partition, [("a", "b")]))
        return samples

    def test_first_legitimate_and_stabilization(self):
        samples = self._samples([False, True, False, True, True])
        assert first_legitimate_time(samples) == 1.0
        assert stabilization_time(samples) == 3.0

    def test_stabilization_none_when_end_not_legitimate(self):
        samples = self._samples([True, False])
        assert stabilization_time(samples) is None
        assert stabilization_time([]) is None

    def test_legitimate_fraction(self):
        samples = self._samples([False, True, True, True])
        assert legitimate_fraction(samples) == pytest.approx(0.75)
        assert legitimate_fraction(samples, start_time=1.0) == pytest.approx(1.0)
        assert legitimate_fraction([]) == 0.0

    def test_time_until(self):
        samples = self._samples([False, False, True, True])
        assert time_until(samples, lambda s: s.report.legitimate) == 2.0
        assert time_until(samples, lambda s: s.report.group_count == 99) is None


class TestContinuityMetrics:
    def test_summary_counts(self):
        transitions = [
            TransitionRecord(1.0, topological_ok=True, continuity_ok=True, lost_members=0),
            TransitionRecord(2.0, topological_ok=True, continuity_ok=False, lost_members=2),
            TransitionRecord(3.0, topological_ok=False, continuity_ok=False, lost_members=1),
        ]
        summary = continuity_summary(transitions)
        assert summary.transitions == 3
        assert summary.topological_held == 2
        assert summary.violations_total == 2
        assert summary.violations_under_topological == 1
        assert summary.members_lost_total == 3
        assert not summary.best_effort_respected
        assert summary.violation_rate_under_topological == pytest.approx(0.5)

    def test_empty_summary(self):
        summary = continuity_summary([])
        assert summary.best_effort_respected
        assert summary.violation_rate_under_topological == 0.0


class TestGroupMetrics:
    def test_partition_quality(self):
        sample = make_sample(0.0, [{"a", "b", "c"}, {"d"}],
                             [("a", "b"), ("b", "c"), ("c", "d")])
        quality = partition_quality(sample)
        assert quality.group_count == 2
        assert quality.isolated_nodes == 1
        assert quality.largest_group == 3
        assert quality.max_diameter == 2

    def test_membership_churn(self):
        before = make_sample(0.0, [{"a", "b", "c"}], [("a", "b"), ("b", "c")])
        after = make_sample(1.0, [{"a", "b"}, {"c"}], [("a", "b"), ("b", "c")])
        # a loses c, b loses c, c loses both a and b -> 1 + 1 + 2 = 4
        assert membership_churn(before, after) == 4
        assert average_membership_churn([before, after]) == pytest.approx(4.0)
        assert average_membership_churn([before]) == 0.0

    def test_group_lifetimes(self):
        s0 = make_sample(0.0, [{"a", "b"}, {"c"}], [("a", "b")])
        s1 = make_sample(1.0, [{"a", "b"}, {"c"}], [("a", "b")])
        s2 = make_sample(2.0, [{"a"}, {"b"}, {"c"}], [("a", "b")])
        lifetimes = group_lifetimes([s0, s1, s2])
        assert lifetimes == [1.0]
        assert mean_group_lifetime([s0, s1, s2]) == pytest.approx(1.0)
        assert mean_group_lifetime([s2]) == 0.0

    def test_max_group_diameter(self):
        s0 = make_sample(0.0, [{"a", "b", "c"}], [("a", "b"), ("b", "c")])
        s1 = make_sample(1.0, [{"a", "b"}, {"c"}], [("a", "b"), ("b", "c")])
        assert max_group_diameter([s0, s1]) == 2


class TestMembershipChurnArithmetic:
    def test_churn_counts_lost_pairs_only(self):
        before = make_sample(0.0, [{"a", "b"}], [("a", "b")])
        after = make_sample(1.0, [{"a", "b", "c"}], [("a", "b"), ("b", "c")])
        assert membership_churn(before, after) == 0


class TestReport:
    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(None) == "-"
        assert format_value(1.5) == "1.5"
        assert format_value(float("inf")) == "inf"

    def test_format_table_alignment_and_columns(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "c": True}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1] and "c" in lines[1]
        assert len(lines) == 5


class TestAggregateRows:
    def test_numeric_columns_render_mean_plus_minus_std(self):
        rows = [{"n": 5, "latency": 1.0}, {"n": 5, "latency": 3.0}]
        out = aggregate_rows(rows, group_by=("n",))
        assert out == [{"n": 5, "replicates": 2, "latency": "2 ± 1"}]

    def test_single_replicate_reads_x_plus_minus_zero(self):
        out = aggregate_rows([{"n": 5, "latency": 2.5}], group_by=("n",))
        assert out[0]["latency"] == "2.5 ± 0"

    def test_groups_keep_first_seen_order(self):
        rows = [{"k": "b", "v": 1}, {"k": "a", "v": 2}, {"k": "b", "v": 3}]
        out = aggregate_rows(rows, group_by=("k",))
        assert [row["k"] for row in out] == ["b", "a"]
        assert out[0]["replicates"] == 2 and out[1]["replicates"] == 1

    def test_none_values_are_ignored_in_stats(self):
        rows = [{"k": 1, "t": 4.0}, {"k": 1, "t": None}, {"k": 1, "t": 8.0}]
        out = aggregate_rows(rows, group_by=("k",))
        assert out[0]["t"] == "6 ± 2"
        assert aggregate_rows([{"k": 1, "t": None}], group_by=("k",))[0]["t"] is None

    def test_bool_columns_unanimous_or_fraction(self):
        unanimous = aggregate_rows([{"ok": True}, {"ok": True}])
        assert unanimous[0]["ok"] is True
        mixed = aggregate_rows([{"ok": True}, {"ok": True}, {"ok": False}, {"ok": False}])
        assert mixed[0]["ok"] == "0.5 yes"

    def test_non_numeric_constant_kept_varying_collapsed(self):
        rows = [{"k": 1, "label": "x", "extra": "p"}, {"k": 1, "label": "x", "extra": "q"}]
        out = aggregate_rows(rows, group_by=("k",))
        assert out[0]["label"] == "x"
        assert out[0]["extra"] == "2 distinct"

    def test_non_numeric_constant_with_none_keeps_constant(self):
        rows = [{"k": 1, "label": "x"}, {"k": 1, "label": None}, {"k": 1, "label": "x"}]
        out = aggregate_rows(rows, group_by=("k",))
        assert out[0]["label"] == "x"

    def test_count_column_shadows_same_named_data_column(self):
        rows = [{"k": 1, "replicates": 7.0}, {"k": 1, "replicates": 9.0}]
        out = aggregate_rows(rows, group_by=("k",))
        assert out[0]["replicates"] == 2

    def test_drop_columns_omitted(self):
        rows = [{"n": 5, "seed": 1, "t": 1.0}, {"n": 5, "seed": 2, "t": 2.0}]
        out = aggregate_rows(rows, group_by=("n",), drop=("seed",))
        assert "seed" not in out[0]

    def test_empty_group_by_collapses_everything(self):
        rows = [{"t": 1.0}, {"t": 3.0}, {"t": 5.0}]
        out = aggregate_rows(rows)
        assert len(out) == 1 and out[0]["replicates"] == 3

    def test_renders_through_format_table(self):
        rows = aggregate_rows([{"n": 5, "t": 1.0}, {"n": 5, "t": 3.0}], group_by=("n",))
        text = format_table(rows)
        assert "2 ± 1" in text


class TestAggregateRowsNonFinite:
    def test_aggregate_rows_tolerates_inf_metrics(self):
        from repro.metrics.report import aggregate_rows
        rows = [{"dmax": 2, "max_group_diameter": 2.0},
                {"dmax": 2, "max_group_diameter": float("inf")}]
        table = aggregate_rows(rows, group_by=("dmax",))
        assert table[0]["max_group_diameter"] == "inf ± nan"
