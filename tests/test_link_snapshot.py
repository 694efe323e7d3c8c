"""The link snapshot and the predicates evaluated on it.

:class:`repro.net.topology.LinkSnapshot` replaces the ``networkx`` graph on
the sampler path, so three things are pinned here:

* the snapshot predicates equal the ``networkx`` reference forms of
  ``tests/reference_topology.py`` over random graphs and views — broken
  agreement, members absent from the graph, disconnected groups and exact
  ``safety_violations`` diameters included — and the observed sampler's
  event stream equals a run on the reference predicates;
* both neighbour engines (CSR link state, brute-force scan) build a
  snapshot whose ``to_graph()`` export has the brute-force reference's node
  list and edge insertion sequence, and a snapshot taken before a CSR patch
  or rebuild does not change afterwards;
* the run path — scenario build, traffic, sampler, ``run_with_sampler``, a
  forked sharded run — never imports networkx, the baselines or the suite.
"""

import os
import subprocess
import sys
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.metrics.collectors as collectors
from repro.core import predicates
from repro.core.predicates import omega
from repro.experiments.runner import run_with_sampler
from repro.net.network import Network
from repro.net.radio import AsymmetricRangeRadio, UnitDiskRadio
from repro.net.topology import LinkSnapshot
from repro.obs import observing
from repro.scenarios import ScenarioSpec, build
from repro.sim.engine import Simulator
from repro.sim.process import Process

import reference_topology as ref
from reference_backends import BRUTE_FORCE, PRODUCTION, use_backend

INF = float("inf")


# ------------------------------------------------------------ strategies

@st.composite
def graphs_and_views(draw):
    """A random graph on ``0..n-1`` and views over ``0..n+1``.

    Views start from a partition (so agreement often holds) and then some
    nodes get an arbitrary view: agreement breaks, members may be unknown
    nodes, and nodes ``n`` and ``n+1`` are absent from the graph.
    """
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = nx.Graph()
    graph.add_nodes_from(draw(st.permutations(range(n))))
    graph.add_edges_from(pair for pair, flag in zip(pairs, flags) if flag)
    universe = list(range(n + 2))
    keys = draw(st.lists(st.sampled_from(universe), unique=True, max_size=n + 2))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(keys), max_size=len(keys)))
    parts = {}
    for node, label in zip(keys, labels):
        parts.setdefault(label, set()).add(node)
    views = {node: frozenset(members) for members in parts.values() for node in members}
    for node in draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else ():
        views[node] = frozenset(draw(st.lists(st.sampled_from(universe), max_size=4)))
    return graph, views


# ------------------------------------------------------------ differential

class TestAgainstReference:
    @given(graphs_and_views(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_static_predicates(self, graph_and_views, dmax):
        graph, views = graph_and_views
        links = LinkSnapshot.from_graph(graph)
        assert predicates.safety(views, links, dmax) == ref.safety(views, graph, dmax)
        assert (Counter(predicates.safety_violations(views, links, dmax))
                == Counter(ref.safety_violations(views, graph, dmax)))
        assert predicates.maximality(views, links, dmax) == ref.maximality(views, graph, dmax)
        assert (predicates.maximality_violations(views, links, dmax)
                == ref.maximality_violations(views, graph, dmax))
        assert predicates.legitimate(views, links, dmax) == ref.legitimate(views, graph, dmax)
        expected = ref.evaluate_configuration(2.0, views, graph, dmax)
        assert predicates.evaluate_configuration(2.0, views, links, dmax) == expected
        assert predicates.evaluate_configuration(2.0, views, links, dmax,
                                                 groups=omega(views)) == expected

    @given(graphs_and_views(), graphs_and_views(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_topological(self, before, after, dmax):
        previous = omega(before[1])
        graph = after[0]
        assert (predicates.topological(previous, LinkSnapshot.from_graph(graph), dmax)
                == ref.topological(previous, graph, dmax))

    @given(graphs_and_views(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_diameter_and_cutoff(self, graph_and_views, data):
        graph, _ = graph_and_views
        links = LinkSnapshot.from_graph(graph)
        universe = list(range(len(graph) + 2))
        members = data.draw(st.lists(st.sampled_from(universe), unique=True, max_size=7))
        exact = ref.subgraph_diameter(graph, members)
        assert links.diameter(members) == exact
        cutoff = data.draw(st.integers(min_value=0, max_value=5))
        assert links.diameter(members, cutoff=cutoff) == (exact if exact <= cutoff else INF)

    @given(graphs_and_views())
    @settings(max_examples=60, deadline=None)
    def test_export_round_trip(self, graph_and_views):
        graph, _ = graph_and_views
        links = LinkSnapshot.from_graph(graph)
        exported = links.to_graph()
        assert list(exported.nodes) == list(graph.nodes)
        assert {frozenset(e) for e in exported.edges} == {frozenset(e) for e in graph.edges}
        for node in graph:
            assert set(links.neighbors(node)) == set(graph.neighbors(node))


class TestHandPickedCases:
    def test_exact_safety_violation_diameters(self):
        graph = nx.path_graph(6)
        links = LinkSnapshot.from_graph(graph)
        views = {n: frozenset(range(6)) for n in range(6)}
        assert predicates.safety_violations(views, links, 2) == [(frozenset(range(6)), 5.0)]
        assert ref.safety_violations(views, graph, 2) == [(frozenset(range(6)), 5.0)]

    def test_disconnected_and_absent_members_are_infinite(self):
        links = LinkSnapshot.from_graph(nx.path_graph(4))
        assert links.diameter({0, 2}) == INF
        assert links.diameter({0, 1, 99}) == INF
        views = {0: frozenset({0, 2}), 2: frozenset({0, 2}), 1: frozenset({1}),
                 3: frozenset({3})}
        assert predicates.safety_violations(views, links, 3) == [(frozenset({0, 2}), INF)]

    def test_broken_agreement_uses_singleton_groups(self):
        graph = nx.Graph([("a", "b")])
        links = LinkSnapshot.from_graph(graph)
        views = {"a": frozenset({"a", "b"}), "b": frozenset({"b"})}
        assert not predicates.maximality(views, links, 1)
        assert (predicates.maximality_violations(views, links, 1)
                == ref.maximality_violations(views, graph, 1)
                == [(frozenset({"a"}), frozenset({"b"}))])

    def test_from_edges_appends_unknown_endpoints_and_drops_self_loops(self):
        links = LinkSnapshot.from_edges(["a"], [("a", "b"), ("b", "b"), ("b", "a")])
        assert links.nodes == ("a", "b")
        assert links.edges() == [("a", "b")]
        assert links.indices.dtype == np.int32 and links.indptr.tolist() == [0, 1, 2]


class TestSamplerEvents:
    """The observed sampler's event stream equals a run on the reference predicates."""

    @staticmethod
    def observed_events(monkeypatch=None):
        if monkeypatch is not None:
            monkeypatch.setattr(
                collectors, "evaluate_configuration",
                lambda time, views, links, dmax, groups=None:
                ref.evaluate_configuration(time, views, links.to_graph(), dmax))
            monkeypatch.setattr(
                collectors, "topological",
                lambda groups, links, dmax: ref.topological(groups, links.to_graph(), dmax))
            monkeypatch.setattr(
                collectors, "safety_violations",
                lambda views, links, dmax: ref.safety_violations(views, links.to_graph(), dmax))
        with observing() as ctx:
            deployment = build(ScenarioSpec.create("manhattan_grid", n=30), seed=2)
            sampler = run_with_sampler(deployment, duration=20.0)
        return ctx.export()["events"], [s.report for s in sampler.samples]

    def test_event_stream_matches_reference_run(self, monkeypatch):
        events, reports = self.observed_events()
        assert sum(not r.safety for r in reports) > 0
        worst = [record["payload"]["worst_diameter"] for record in events["records"]
                 if record["kind"] == "predicate.safety_violation"]
        assert any(value is not None for value in worst), "worst_diameter must be exercised"
        with monkeypatch.context() as patch:
            ref_events, ref_reports = self.observed_events(patch)
        assert reports == ref_reports
        assert events == ref_events


# ------------------------------------------------------------ engines

class Idle(Process):
    def on_message(self, sender, payload):
        pass


ENGINES = [PRODUCTION, BRUTE_FORCE]


def engine_network(radio, backend, seed):
    """A 40-node network with inactive, removed and re-added nodes."""
    rng = np.random.default_rng(seed)
    network = use_backend(Network(Simulator(seed=seed), radio), backend)
    for node in range(40):
        network.add_node(Idle(node), tuple(rng.uniform(0.0, 100.0, size=2)))
    network.link_snapshot()  # the CSR store now exists: removals reorder its rows
    for node in (3, 17):
        network.remove_node(node)
    network.add_node(Idle(3), tuple(rng.uniform(0.0, 100.0, size=2)))
    for node in (5, 22, 31):
        network.process(node).deactivate()
    return network


def reference_export(network):
    return ref.snapshot_graph(network.positions, network.radio.link_exists,
                              active=network.active_nodes())


def insertion_sequence(graph):
    return list(graph.nodes), list(graph.edges()), [list(graph.adj[n]) for n in graph]


@pytest.mark.parametrize("backend", ENGINES)
@pytest.mark.parametrize("radio_kind", ["unit", "asymmetric"])
@pytest.mark.parametrize("seed", range(3))
def test_snapshot_export_equals_reference_on_every_engine(backend, radio_kind, seed):
    if radio_kind == "unit":
        radio = UnitDiskRadio(18.0)
    else:
        radio = AsymmetricRangeRadio(12.0, {n: 12.0 + (n % 4) * 4.0 for n in range(40)})
    network = engine_network(radio, backend, seed)
    expected = insertion_sequence(reference_export(network))
    assert insertion_sequence(network.link_snapshot().to_graph()) == expected
    assert insertion_sequence(network.topology()) == expected
    network.set_positions({node: (pos[0] + 3.0, pos[1] - 2.0)
                           for node, pos in list(network.positions.items())[::5]})
    assert (insertion_sequence(network.link_snapshot().to_graph())
            == insertion_sequence(reference_export(network)))


def frozen_copy(snapshot):
    return snapshot.nodes, snapshot.indptr.copy(), snapshot.indices.copy()


def assert_unchanged(snapshot, copy):
    nodes, indptr, indices = copy
    assert snapshot.nodes == nodes
    assert np.array_equal(snapshot.indptr, indptr)
    assert np.array_equal(snapshot.indices, indices)


def test_snapshot_survives_csr_patch_and_rebuild():
    network = engine_network(UnitDiskRadio(18.0), PRODUCTION, seed=4)
    before = network.link_snapshot()
    copy = frozen_copy(before)
    linkstate = network._link_state()
    patches, rebuilds = linkstate.patch_count, linkstate.rebuild_count
    network.set_position(0, (50.0, 50.0))
    patched = network.link_snapshot()
    assert linkstate.patch_count == patches + 1
    assert patched is not before
    assert_unchanged(before, copy)
    patched_copy = frozen_copy(patched)
    network.set_positions({node: (pos[1], pos[0])
                           for node, pos in network.positions.items()})
    network.link_snapshot()
    assert linkstate.rebuild_count == rebuilds + 1
    assert_unchanged(before, copy)
    assert_unchanged(patched, patched_copy)


# ------------------------------------------------------------ import path

def test_run_path_does_not_import_networkx():
    code = """
import sys
import repro, repro.scenarios, repro.shard, repro.traffic, repro.metrics.collectors
from repro.metrics.collectors import ConfigurationSampler
from repro.scenarios import ScenarioSpec, build
from repro.traffic import TrafficSpec, attach_traffic
deployment = build(ScenarioSpec.create("city_scale_mobile", n=40), seed=1)
attach_traffic(deployment, TrafficSpec.create("request_reply"), seed=1)
deployment.start()
sampler = ConfigurationSampler(deployment.sim, deployment.views, deployment.link_snapshot,
                               dmax=deployment.config.dmax)
sampler.start()
deployment.sim.run(until=deployment.sim.now + 4.0)
sampler.stop()
assert len(sampler.samples) == 5, len(sampler.samples)
assert "networkx" not in sys.modules, "networkx imported on the run path"
"""
    run_isolated(code)


def test_run_with_sampler_and_mp_shards_load_no_networkx_baselines_or_suite():
    """``run_with_sampler`` and a forked sharded run, with networkx blocked:
    a ``None`` entry in ``sys.modules`` makes even a lazy import raise."""
    code = """
import sys
sys.modules["networkx"] = None
from repro.experiments.runner import run_with_sampler
from repro.scenarios import ScenarioSpec, build
from repro.shard import ShardSpec, run_sharded
from repro.traffic import TrafficSpec, attach_traffic
deployment = build(ScenarioSpec.create("city_scale_mobile", n=40), seed=1)
attach_traffic(deployment, TrafficSpec.create("request_reply"), seed=1)
sampler = run_with_sampler(deployment, duration=4.0)
assert len(sampler.samples) == 6, len(sampler.samples)
spec = ShardSpec.create("city_scale", params={"n": 60, "area": 800.0}, seed=7,
                        duration=2.0, shards=2)
result = run_sharded(spec, transport="mp")
assert result.fingerprint, "empty fingerprint"
loaded = sorted(m for m in sys.modules
                if m.startswith(("repro.baselines", "repro.experiments.suite")))
assert not loaded, loaded
"""
    run_isolated(code)


def run_isolated(code):
    """Run ``code`` in a fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
