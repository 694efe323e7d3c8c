"""Tests for fault injection and overhead measurement on live deployments."""

import numpy as np
import pytest

from repro.core.node import GRPConfig
from repro.core.protocol import build_grp_network
from repro.metrics.overhead import overhead_summary
from repro.net.faults import FaultInjector
from repro.obs import observing


def small_deployment(seed=0):
    positions = {0: (0.0, 0.0), 1: (40.0, 0.0), 2: (80.0, 0.0)}
    return build_grp_network(positions, GRPConfig(dmax=2), radio_range=50.0, seed=seed)


class TestFaultInjector:
    def test_ghost_injection_and_eventual_cleanup(self):
        deployment = small_deployment()
        deployment.run(20.0)
        injector = FaultInjector(deployment.network, rng=deployment.sim.spawn_rng())
        injector.inject_ghost_identity(0, "ghost", position=1)
        assert deployment.node(0).alist.contains("ghost")
        deployment.run(15.0)
        assert not any(node.alist.contains("ghost") for node in deployment.nodes.values())
        assert injector.injected == 1

    def test_oversized_list_is_trimmed(self):
        deployment = small_deployment()
        deployment.run(10.0)
        injector = FaultInjector(deployment.network)
        injector.oversized_list(1, extra_ids=["g1", "g2", "g3", "g4"])
        assert len(deployment.node(1).alist) > deployment.config.dmax + 1
        deployment.run(10.0)
        assert len(deployment.node(1).alist) <= deployment.config.dmax + 1

    def test_view_and_priority_corruption_recovers(self):
        deployment = small_deployment()
        deployment.run(20.0)
        injector = FaultInjector(deployment.network)
        injector.corrupt_view(0, fake_members={"nobody"})
        injector.corrupt_priority(0, value=500)
        deployment.run(20.0)
        assert "nobody" not in deployment.node(0).current_view()

    def test_random_memory_corruption_selects_fraction(self):
        deployment = small_deployment()
        deployment.run(5.0)
        injector = FaultInjector(deployment.network, rng=deployment.sim.spawn_rng())
        corrupted = injector.random_memory_corruption(fraction=0.5, ghost_pool=["g"])
        assert 1 <= len(corrupted) <= 2
        with pytest.raises(ValueError):
            injector.random_memory_corruption(fraction=0.0)


class TestPartitionHeal:
    def test_partition_then_heal_flips_and_generation_bumps(self):
        deployment = small_deployment()
        deployment.run(5.0)
        network = deployment.network
        injector = FaultInjector(network)
        gen0 = network.topology_generation
        affected = injector.partition([0, 1])
        assert affected == [0, 1]
        assert not network.process(0).active and not network.process(1).active
        # One generation bump per actual activation flip.
        assert network.topology_generation == gen0 + 2
        assert set(network.topology().nodes) == {2}
        # Re-partitioning inactive nodes is a no-op (no spurious bumps).
        assert injector.partition([0]) == []
        assert network.topology_generation == gen0 + 2
        healed = injector.heal()
        assert healed == [0, 1]
        assert network.process(0).active and network.process(1).active
        assert network.topology_generation == gen0 + 4
        assert set(network.topology().nodes) == {0, 1, 2}
        # Everything tracked was healed; a second heal flips nothing.
        assert injector.heal() == []

    def test_heal_subset_keeps_rest_partitioned(self):
        deployment = small_deployment()
        deployment.run(2.0)
        injector = FaultInjector(deployment.network)
        injector.partition([0, 1, 2])
        assert injector.heal([1]) == [1]
        assert deployment.network.process(1).active
        assert not deployment.network.process(0).active
        assert injector.heal() == [0, 2]

    def test_campaign_driven_churn_cycles_are_deterministic(self):
        """Partition→heal churn driven by campaign task seeds: every flip is
        recorded as a ``fault.partition`` / ``fault.heal`` obs event and bumps
        the topology generation exactly once, identically across two
        executions of the same seeded sequence."""
        from repro.campaign import CampaignSpec

        spec = CampaignSpec(name="churn", experiments=("E6",), replicates=2, root_seed=3)

        def run_churn(task):
            with observing() as ctx:
                deployment = small_deployment(seed=task.replicate)
                deployment.run(5.0)
                network = deployment.network
                rng = np.random.default_rng(task.seed)
                injector = FaultInjector(network, rng=rng)
                flips = 0
                for _ in range(3):
                    victims = injector.random_memory_corruption(fraction=0.5)
                    gen = network.topology_generation
                    affected = injector.partition(victims)
                    assert network.topology_generation == gen + len(affected)
                    deployment.run(5.0)
                    gen = network.topology_generation
                    healed = injector.heal()
                    assert sorted(map(str, healed)) == sorted(map(str, affected))
                    assert network.topology_generation == gen + len(healed)
                    deployment.run(5.0)
                    flips += 2 * len(affected)
            partitions = ctx.events.events_of("fault.partition")
            heals = ctx.events.events_of("fault.heal")
            assert sum(len(e.payload["nodes"]) for e in partitions + heals) == flips
            return ([(e.kind, e.sim_time, e.payload) for e in partitions + heals],
                    network.topology_generation)

        for task in spec.expand():
            assert run_churn(task) == run_churn(task)


def fault_run(seed=4):
    """A seeded run through every fault kind: ``(deployment, injector)``."""
    deployment = small_deployment(seed=seed)
    deployment.run(5.0)
    injector = FaultInjector(deployment.network, rng=deployment.sim.spawn_rng())
    injector.random_memory_corruption(fraction=0.7, ghost_pool=["g0", "g1"])
    injector.corrupt_view(1, fake_members=["nobody"])
    injector.corrupt_priority(2, value=99)
    injector.oversized_list(0, extra_ids=["x1", "x2", "x3", "x4"])
    deployment.run(5.0)
    injector.partition([0])
    deployment.run(3.0)
    injector.heal()
    deployment.run(5.0)
    return deployment, injector


def fault_fingerprint(deployment):
    network = deployment.network
    return {
        "views": deployment.views(),
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "events": deployment.sim.processed_events,
        "generation": network.topology_generation,
        "sim_rng": deployment.sim.rng.bit_generator.state,
        "quarantines": [node.quarantine.counters() for node in deployment.nodes.values()],
    }


class TestFaultEvents:
    def test_fault_events_only_observe(self):
        plain, plain_injector = fault_run()
        with observing() as ctx:
            observed, injector = fault_run()
        assert fault_fingerprint(observed) == fault_fingerprint(plain)
        assert (injector.rng.bit_generator.state
                == plain_injector.rng.bit_generator.state)
        assert injector.injected == plain_injector.injected
        counts = {kind: n for kind, n in ctx.events.kind_counts.items()
                  if kind.startswith("fault.")}
        assert set(counts) == {"fault.ghost", "fault.quarantine", "fault.view",
                               "fault.priority", "fault.oversize", "fault.partition",
                               "fault.heal"}
        assert sum(counts.values()) == injector.injected

    def test_view_event_lists_members_passed_as_a_generator(self):
        deployment = small_deployment()
        deployment.run(5.0)
        with observing() as ctx:
            injector = FaultInjector(deployment.network)
            injector.corrupt_view(0, fake_members=(x for x in [8, 7]))
        assert {7, 8} <= deployment.node(0).view
        (event,) = ctx.events.events_of("fault.view")
        assert event.payload == {"node": "0", "members": ["7", "8"]}


class TestHashSeedIndependence:
    def test_corruption_recovery_reproduces_across_interpreters(self):
        """Campaign resume mixes records from different interpreter runs, so a
        seeded corruption run must not depend on PYTHONHASHSEED (regression:
        quarantine noise used to consume the rng in set-iteration order)."""
        import os
        import subprocess
        import sys

        script = (
            "from repro.net.faults import FaultInjector\n"
            "from repro.core.node import GRPConfig\n"
            "from repro.core.protocol import build_grp_network\n"
            "positions = {i: (40.0 * i, 0.0) for i in range(4)}\n"
            "d = build_grp_network(positions, GRPConfig(dmax=2), radio_range=50.0, seed=3)\n"
            "d.run(15.0)\n"
            "inj = FaultInjector(d.network, rng=d.sim.spawn_rng())\n"
            "inj.random_memory_corruption(fraction=0.6, ghost_pool=['g0', 'g1'])\n"
            "d.run(15.0)\n"
            "print(sorted((str(k), sorted(map(str, v))) for k, v in d.views().items()))\n"
            "print([n.quarantine.counters() for n in d.nodes.values()])\n")
        import repro
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1


class TestOverhead:
    def test_overhead_summary_counts_messages(self):
        deployment = small_deployment()
        deployment.run(20.0)
        summary = overhead_summary(deployment, duration=20.0)
        assert summary.node_count == 3
        assert summary.messages_sent > 0
        assert summary.messages_per_node_per_second > 0
        assert summary.mean_payload_slots > 0
        row = summary.as_row()
        assert row["nodes"] == 3

    def test_overhead_requires_positive_duration(self):
        deployment = small_deployment()
        with pytest.raises(ValueError):
            overhead_summary(deployment, duration=0.0)
