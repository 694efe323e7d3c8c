"""Discarded worlds are freed.

A parameter sweep builds many small worlds in one process, so a world that
is dropped must not stay alive.  The network, its node store and its
processes form reference cycles (network -> store -> process -> network);
the cyclic collector frees them only if every link of the cycle is a
container it can traverse.  These tests drop a world, run ``gc.collect()``
and check that weak references to its ``Network`` and to one of its
processes are dead, for every registered scenario and for the worker
networks of an in-process sharded run.  ``tracemalloc`` checks then show
that a sequence of discarded worlds, and a sequence of campaign tasks run
in one process, leave traced memory flat, and that a live world's peak does
not grow with its horizon.  The network's per-sender receiver cache holds at
most one entry per node, however long a world churns, and a shard's outbox
holds only the current window's cross-shard deliveries, however long a
sharded run goes.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.campaign import CampaignSpec
from repro.campaign.executor import execute_task
from repro.scenarios import ScenarioSpec, build, get_scenario, scenario_definitions
from repro.shard import ShardSpec, run_sharded
from repro.shard.world import ShardWorld
from repro.sim.process import Process

#: Small worlds: every scenario is shrunk to at most this many nodes.
MAX_NODES = 30

#: Scenario-specific overrides on top of ``n = MAX_NODES``.  The city worlds
#: default to a 30 km square, where 30 nodes would never link; a small area
#: gives them links, receiver batches and CSR rows to hold on to.
SMALL_AREA = {"city_scale": {"area": 600.0, "hotspot_sigma": 100.0},
              "city_scale_mobile": {"area": 600.0, "hotspot_sigma": 100.0}}


#: The stock catalog (test modules register extra scenarios of their own).
STOCK_SCENARIOS = [d.name for d in scenario_definitions()
                   if d.factory.__module__ == "repro.scenarios.builders"]


def small_spec(name: str) -> ScenarioSpec:
    defaults = get_scenario(name).defaults()
    params = dict(SMALL_AREA.get(name, {}))
    if "n" in defaults and defaults["n"] > MAX_NODES:
        params["n"] = MAX_NODES
    return ScenarioSpec.create(name, **params)


def run_and_drop(spec: ScenarioSpec, seconds: float = 2.0):
    """Build, start and run ``spec``; return weakrefs to its network and a
    process once every strong reference is gone."""
    deployment = build(spec, seed=1)
    deployment.start()
    deployment.run(seconds)
    network = deployment.network
    assert len(network.node_ids) <= MAX_NODES
    refs = (weakref.ref(network),
            weakref.ref(network.process(network.node_ids[0])))
    del deployment, network
    gc.collect()
    return refs


@pytest.mark.parametrize("name", STOCK_SCENARIOS)
def test_discarded_world_is_collected(name):
    network_ref, process_ref = run_and_drop(small_spec(name))
    assert network_ref() is None, f"{name}: Network still alive"
    assert process_ref() is None, f"{name}: process still alive"


def test_sharded_worker_networks_are_collected(monkeypatch):
    refs = []
    init = ShardWorld.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        network = self.network
        refs.append(weakref.ref(network))
        refs.append(weakref.ref(network.process(network.node_ids[0])))

    monkeypatch.setattr(ShardWorld, "__init__", recording_init)
    spec = ShardSpec.create("city_scale",
                            params={"n": MAX_NODES, **SMALL_AREA["city_scale"]},
                            seed=3, duration=2.0, shards=2)
    result = run_sharded(spec, transport="inproc")
    del result
    gc.collect()
    assert len(refs) == 4
    assert all(ref() is None for ref in refs)


def test_traced_memory_stays_flat_across_discarded_worlds():
    """Five 200-node ``city_scale`` worlds, built, run and dropped in turn:
    traced memory after the fifth is within 0.1 MB of that after the first."""
    spec = ScenarioSpec.create("city_scale", n=200, area=3000.0,
                               hotspot_sigma=400.0)
    tracemalloc.start()
    try:
        after = []
        for seed in range(5):
            deployment = build(spec, seed=seed)
            deployment.start()
            deployment.run(1.0)
            del deployment
            gc.collect()
            after.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert after[-1] - after[0] < 100_000, after


def run_peak(spec: ScenarioSpec, seconds: float) -> int:
    """Traced peak of one run above the memory its built world holds."""
    gc.collect()
    tracemalloc.start()
    try:
        deployment = build(spec, seed=1)
        deployment.start()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        deployment.run(seconds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - held


def test_traced_peak_stays_flat_when_the_horizon_doubles():
    """A 200-node ``city_scale`` run holds bounded state: its traced peak
    after 6 s is within 0.1 MB of its peak after 3 s (about 0.46 MB above
    the built world either way; groups form in between)."""
    spec = ScenarioSpec.create("city_scale", n=200, area=3000.0,
                               hotspot_sigma=400.0)
    short, long = run_peak(spec, 3.0), run_peak(spec, 6.0)
    assert long - short < 100_000, (short, long)


def test_traced_memory_stays_flat_across_campaign_tasks():
    """Five quick E5 tasks on a 6-node ``static_random`` world, run in turn in
    one process (as a serial campaign or one pool worker runs them): traced
    memory after the fifth is within 0.1 MB of that after the first.  One
    world kept alive per task adds about 0.27 MB."""
    spec = CampaignSpec(name="lifetime", experiments=("E5",), replicates=5,
                        root_seed=7, quick=True,
                        scenarios=(ScenarioSpec.create("static_random", n=6),))
    tracemalloc.start()
    try:
        after = []
        for task in spec.expand():
            outcome = execute_task(task)
            assert outcome.rows and "failure" not in outcome.rows[0]
            del outcome
            gc.collect()
            after.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert len(after) == 5
    assert after[-1] - after[0] < 100_000, after


def test_receiver_cache_never_outgrows_the_node_table():
    """A 30 s mobile run that removes one GRP node and adds a fresh sender
    every second: ``remove_node`` drops the removed node's cached receiver
    batch, so the cache never holds more entries than there are nodes."""
    deployment = build(ScenarioSpec.create("manet_waypoint", n=20, speed=10.0),
                       seed=3)
    network = deployment.network
    next_id = 1000
    for _ in range(30):
        deployment.run(1.0)
        victim = network.node_ids[0]
        assert victim in network._receiver_cache
        network.deactivate_node(victim)
        network.remove_node(victim)
        assert victim not in network._receiver_cache
        network.add_node(Process(next_id), network.position_of(network.node_ids[0]))
        network.broadcast(next_id, lambda: "x")
        next_id += 1
        assert len(network._receiver_cache) <= len(network.node_ids)


def test_shard_outbox_is_drained_every_window(monkeypatch):
    """A 2-shard in-process city run at 3 s and at 6 s: every window leaves
    its shard's outbox empty, so the peak entries one window hands over stay
    flat while the traffic exchanged over the run doubles with the horizon."""
    run_round = ShardWorld.run_round
    sizes = []

    def checked(self, end, inclusive):
        out = run_round(self, end, inclusive)
        assert self.outbox == []
        sizes.append(len(out))
        return out

    monkeypatch.setattr(ShardWorld, "run_round", checked)
    peaks, totals = {}, {}
    for duration in (3.0, 6.0):
        sizes.clear()
        run_sharded(ShardSpec.create("city_scale", params={"n": 200, "area": 1500.0},
                                     seed=7, duration=duration, shards=2))
        peaks[duration], totals[duration] = max(sizes), sum(sizes)
    assert totals[6.0] >= 1.8 * totals[3.0], totals
    assert peaks[6.0] <= 1.5 * peaks[3.0], peaks
