"""Randomized equivalence of the network's link relation vs a from-scratch rebuild.

The network serves links from the CSR :class:`repro.net.arraystate.ArrayLinkState`
for uniform-radius radios (patched per delta or rebuilt) and from the
brute-force scan otherwise.  The one correctness obligation of both is
that after *any* sequence of moves, insertions, removals, churn and radio
mutations, the served link set is identical to a brute-force recomputation
over the current positions.  These tests drive a network through long
randomized delta sequences (with several radios, densities and seeds) and
compare it against the brute-force rebuild after every few steps — the CSR's
forward and reverse adjacency and sorted receiver view where the radio has a
uniform radius, the directed and symmetric snapshots otherwise.
"""

import numpy as np
import pytest

from repro.net.network import Network
from repro.net.radio import AsymmetricRangeRadio, ProbabilisticDiskRadio, UnitDiskRadio
from repro.sim.engine import Simulator
from repro.sim.process import Process

from reference_backends import BRUTE_FORCE, use_backend


class Idle(Process):
    def on_message(self, sender, payload):
        pass


def brute_force_arcs(network, nodes=None):
    """Directed link set recomputed from scratch (all nodes unless given)."""
    nodes = list(network.node_ids) if nodes is None else nodes
    positions = network.positions
    radio = network.radio
    arcs = set()
    for u in nodes:
        for v in nodes:
            if u != v and radio.link_exists(u, v, positions[u], positions[v]):
                arcs.add((u, v))
    return arcs


def assert_links_consistent(network):
    """The served link set ≡ the brute-force rebuild.

    On the CSR path: forward arcs, reverse adjacency and the insertion-ordered
    receiver view.  On the scan path: the directed and symmetric
    snapshots (active nodes only, as the snapshots are).
    """
    linkstate = network._link_state()
    if linkstate is not None:
        expected = brute_force_arcs(network)
        assert set(linkstate.arcs()) == expected
        reverse = {(u, v) for v in network.node_ids
                   for u in linkstate.out_neighbors_sorted(v)}
        assert reverse == expected
        # Every test network inserts integer ids in ascending order, so the
        # store's rows (insertion order) and each receiver list must be
        # sorted by id.
        assert network.node_ids == sorted(network.node_ids)
        row_of = linkstate.store.row_of
        assert [row_of[v] for v in network.node_ids] == list(range(len(row_of)))
        for u in network.node_ids:
            receivers = linkstate.out_neighbors_sorted(u)
            assert receivers == sorted(receivers)
        return
    active = [n for n in network.node_ids if network.process(n).active]
    expected = brute_force_arcs(network, active)
    assert set(network.directed_topology().edges) == expected
    symmetric = {frozenset(arc) for arc in expected if arc[::-1] in expected}
    assert {frozenset(e) for e in network.topology().edges} == symmetric


def build_network(radio, n, area, seed):
    sim = Simulator(seed=seed)
    network = Network(sim, radio=radio)
    rng = np.random.default_rng(seed)
    for i in range(n):
        network.add_node(Idle(i), (rng.uniform(0, area), rng.uniform(0, area)))
    return network, rng


RADIOS = [
    lambda: UnitDiskRadio(120.0),
    lambda: AsymmetricRangeRadio(100.0, ranges={0: 180.0, 3: 40.0}),
    lambda: ProbabilisticDiskRadio(90.0, 150.0, 0.5, rng=np.random.default_rng(5)),
]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("radio_factory", RADIOS)
def test_randomized_delta_sequence_matches_rebuild(radio_factory, seed):
    network, rng = build_network(radio_factory(), n=40, area=600.0, seed=seed)
    # Uniform-radius radios take the CSR, the per-node-range radio the scan.
    assert (network._link_state() is None) == isinstance(network.radio,
                                                          AsymmetricRangeRadio)
    assert_links_consistent(network)
    next_id = 40
    for step in range(60):
        op = rng.integers(0, 10)
        nodes = network.node_ids
        if op < 5:  # move a random node (the dominant delta under mobility)
            node = nodes[int(rng.integers(0, len(nodes)))]
            jump = rng.uniform(0, 200.0, size=2)
            old = network.position_of(node)
            network.set_position(node, (old[0] + jump[0] - 100.0,
                                        old[1] + jump[1] - 100.0))
        elif op < 6:  # batch teleport (mobility-step shaped delta)
            moved = {node: (rng.uniform(0, 600.0), rng.uniform(0, 600.0))
                     for node in nodes[:: int(rng.integers(2, 6))]}
            network.set_positions(moved)
        elif op < 7:  # insertion
            network.add_node(Idle(next_id), (rng.uniform(0, 600.0),
                                             rng.uniform(0, 600.0)))
            next_id += 1
        elif op < 8 and len(nodes) > 5:  # removal
            network.remove_node(nodes[int(rng.integers(0, len(nodes)))])
        else:  # churn: flips must not disturb the (activity-blind) CSR
            node = nodes[int(rng.integers(0, len(nodes)))]
            if network.process(node).active:
                network.deactivate_node(node)
            else:
                network.activate_node(node)
        if step % 5 == 0 or step > 50:
            assert_links_consistent(network)
    assert_links_consistent(network)


def test_radio_mutation_forces_rebuild():
    radio = UnitDiskRadio(80.0)
    network, rng = build_network(radio, n=30, area=500.0, seed=11)
    before = set(network._link_state().arcs())
    radio.radio_range = 200.0  # property setter notifies the network
    after = set(network._link_state().arcs())
    assert after == brute_force_arcs(network)
    assert after != before  # densification at 500x500/30 nodes is certain
    assert_links_consistent(network)


def test_asymmetric_range_override_rebuilds():
    radio = AsymmetricRangeRadio(90.0)
    network, _ = build_network(radio, n=25, area=400.0, seed=13)
    assert network._link_state() is not None  # override-free: uniform radius
    assert_links_consistent(network)
    radio.set_range(0, 400.0)  # non-uniform growth: node 0 reaches everyone
    assert network._link_state() is None  # per-node ranges: brute-force scan
    directed = network.directed_topology()
    assert all(directed.has_edge(0, v) for v in network.node_ids if v != 0)
    assert_links_consistent(network)
    radio.clear_range(0)
    assert network._link_state() is not None
    assert_links_consistent(network)


def test_symmetric_neighbors_match_topology():
    network, rng = build_network(UnitDiskRadio(150.0), n=35, area=500.0, seed=7)
    for _ in range(3):
        node = int(rng.integers(0, 35))
        network.deactivate_node(node)
    linkstate = network._link_state()
    graph = network.topology()
    for node in network.node_ids:
        assert network.neighbors_of(node) == (
            set(graph.neighbors(node)) if node in graph else set())
    # The CSR is activity-blind; neighbors_of filters activity.
    for node in network.node_ids:
        sym = set(linkstate.out_neighbors_sorted(node))
        assert {w for w in sym if network.process(w).active
                and network.process(node).active} == network.neighbors_of(node)


def test_cache_disabled_paths_still_agree():
    """The brute-force reference serves the CSR path's snapshots."""
    fast, _ = build_network(UnitDiskRadio(130.0), n=30, area=500.0, seed=21)
    slow, _ = build_network(UnitDiskRadio(130.0), n=30, area=500.0, seed=21)
    use_backend(slow, BRUTE_FORCE)
    assert fast._link_state() is not None
    assert slow._link_state() is None
    assert set(fast.topology().edges) == set(slow.topology().edges)
    assert set(fast.directed_topology().edges) == set(slow.directed_topology().edges)
    for node in fast.node_ids:
        assert fast.neighbors_of(node) == slow.neighbors_of(node)


def test_brute_force_radio_is_a_fresh_instance_that_still_notifies():
    """``use_backend`` installs a new reference radio carrying the old one's
    state; a mutation of it still reaches the network."""
    network, _ = build_network(UnitDiskRadio(130.0), n=30, area=500.0, seed=21)
    production = network.radio
    use_backend(network, BRUTE_FORCE)
    radio = network.radio
    assert radio is not production
    assert type(radio).__bases__ == (UnitDiskRadio,)
    assert radio.max_range() is None
    assert radio.radio_range == production.radio_range
    before = {node: network.neighbors_of(node) for node in network.node_ids}
    assert any(before.values())
    radio.radio_range = 1.0  # notifies the network: no manual invalidation
    assert all(not network.neighbors_of(node) for node in network.node_ids)
