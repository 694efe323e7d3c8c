"""World construction runs with the cyclic collector paused.

:class:`repro.sim.collector_paused` turns the collector off and restores
exactly the state it found, whatever the way out.  ``scenarios.build``,
``GRPDeployment.start`` and a shard's finalize (``ShardWorld.__init__``) run
under it, so no automatic collection fires while a world is built, started
or finalized; the one young scan a pause leaves runs at the caller's next
allocation.  A ``gc.callbacks`` counter checks that, starting each counted
call from an empty young generation (``gc.collect()`` first).

The pause must not change a result.  The one weakref-driven path of a world
is the radio's mutation listeners: a network that is dead but not yet
collected is still notified when its radio changes.  A world built next to
such a network must run bit-identically to one built after ``gc.collect()``.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.node import GRPConfig
from repro.core.protocol import build_grp_network
from repro.net.radio import UnitDiskRadio
from repro.scenarios import ScenarioSpec, build
from repro.scenarios.registry import ScenarioParameter, scenario
from repro.shard import ShardSpec
from repro.shard.world import ShardWorld
from repro.sim import collector_paused


class BuildFailed(RuntimeError):
    pass


@scenario("collectortest_raises", "a builder that fails half-way (collector pause test)",
          [ScenarioParameter("dmax", "int", 2, "diameter bound")])
def _raising_world(*, seed, config, dmax):
    assert not gc.isenabled()
    raise BuildFailed("builder failed")


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts and ends with the collector on, as a process does."""
    gc.enable()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "a test left the collector disabled"


def collections_during(call):
    """``(result, generations)``: the automatic collections that fired while
    ``call()`` ran, counted from an empty young generation."""
    fired = []

    def count(phase, info):
        if phase == "start":
            fired.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        result = call()
    finally:
        gc.callbacks.remove(count)
    return result, fired


# ------------------------------------------------------------ the helper


class TestCollectorPaused:
    def test_clean_exit_restores_an_enabled_collector(self):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_exception_restores_an_enabled_collector(self):
        with pytest.raises(BuildFailed):
            with collector_paused():
                raise BuildFailed("inside the pause")
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(BuildFailed):
            with collector_paused():
                raise BuildFailed("inside the pause")
        assert not gc.isenabled()
        gc.enable()

    def test_nested_pauses_restore_the_outer_state(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_failing_build_re_enables_the_collector(self):
        with pytest.raises(BuildFailed, match="builder failed"):
            build(ScenarioSpec.create("collectortest_raises"), seed=1)
        assert gc.isenabled()


# ------------------------------------------------- no collection inside


CITY = ScenarioSpec.create("city_scale", n=2_000)


def test_no_collection_fires_while_a_world_is_built_or_started():
    deployment, fired = collections_during(lambda: build(CITY, seed=1))
    assert fired == []
    _, fired = collections_during(deployment.start)
    assert fired == []
    assert len(deployment.network.node_ids) == 2_000
    assert deployment.sim.pending_events > 0


@pytest.mark.parametrize("shard_id", [0, 1])
def test_no_collection_fires_while_a_shard_is_finalized(shard_id):
    spec = ShardSpec.create("city_scale", params={"n": 2_000}, seed=1,
                            duration=2.0, shards=2)
    deployment, lookahead = ShardWorld.build_base(spec)
    world, fired = collections_during(
        lambda: ShardWorld(spec, shard_id, deployment, lookahead))
    assert fired == []
    assert 0 < len(world.owned) < 2_000


# ------------------------------------------- a late collector changes nothing


POSITIONS = {i: (float(x), float(y)) for i, (x, y) in enumerate(
    np.random.default_rng(5).uniform(0.0, 120.0, size=(40, 2)))}


def world_on(radio, seed=3):
    return build_grp_network(POSITIONS, GRPConfig(dmax=3), radio=radio,
                             loss_probability=0.2, seed=seed)


def fingerprint(radio):
    """Run a world on ``radio``, shrink the radio half-way, read the result."""
    deployment = world_on(radio)
    deployment.run(4.0)
    radio.radio_range = 25.0  # notifies every network registered on the radio
    deployment.run(4.0)
    network = deployment.network
    return {
        "views": deployment.views(),
        "events": deployment.sim.processed_events,
        "messages": (network.messages_sent, network.messages_delivered,
                     network.messages_dropped),
        "sim_rng": repr(deployment.sim.rng.bit_generator.state),
        "channel_rng": repr(network.channel._rng.bit_generator.state),
        "timer_rngs": [repr(node._tc_timer._rng.bit_generator.state)
                       for node in deployment.nodes.values()],
    }


def dead_world_on(radio):
    """Run and drop a world on ``radio``; return a weak reference to its network."""
    deployment = world_on(radio, seed=11)
    deployment.run(2.0)
    return weakref.ref(deployment.network)


def test_a_dead_uncollected_network_on_the_radio_changes_no_result():
    radio = UnitDiskRadio(40.0)
    with collector_paused():
        dead = dead_world_on(radio)
        assert dead() is not None  # unreachable, but its cycles are not yet freed
        late = fingerprint(radio)
        assert dead() is not None  # so the radio notified it too

    radio = UnitDiskRadio(40.0)
    dead = dead_world_on(radio)
    gc.collect()
    assert dead() is None
    collected = fingerprint(radio)

    assert late == collected
    assert late["events"] > 0 and late["messages"][1] > 0
