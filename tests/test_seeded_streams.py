"""Batched per-node random streams equal numpy's per-seed ``default_rng``.

:func:`repro.sim.randomness.generators` runs numpy's ``SeedSequence`` hashing
over a whole batch of seeds; ``np.random.default_rng(seed)`` is its reference.
The batch is used at the two places a world builds one stream per node: node
start (:meth:`Simulator.reserved_streams` inside ``GRPDeployment.start``) and
traffic attach (``TrafficDriver``).  These tests hold the streams equal to the
per-seed ones and the runs equal to unbatched runs, and count the per-seed
calls that are left.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocol import build_grp_network
from repro.core.node import GRPConfig
from repro.net.channel import LossyChannel
from repro.net.geometry import random_positions
from repro.scenarios import ScenarioSpec, build
from repro.sim.engine import SimulationError, Simulator
from repro.sim.randomness import derive_seed, generators
from repro.traffic import TrafficDriver, TrafficSpec, attach_traffic

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 2]


def assert_same_stream(batched, reference):
    assert batched.bit_generator.state == reference.bit_generator.state
    assert batched.integers(0, 2**63 - 1, size=5).tolist() == \
        reference.integers(0, 2**63 - 1, size=5).tolist()


# ---------------------------------------------------------------- generators


def test_edge_seeds_equal_default_rng():
    for seed, rng in zip(EDGE_SEEDS, generators(EDGE_SEEDS)):
        assert_same_stream(rng, np.random.default_rng(seed))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=20))
def test_any_seeds_equal_default_rng(seeds):
    batch = generators(seeds)
    assert len(batch) == len(seeds)
    for seed, rng in zip(seeds, batch):
        assert_same_stream(rng, np.random.default_rng(seed))


def test_integer_array_seeds():
    seeds = np.array(EDGE_SEEDS, dtype=np.int64)
    for seed, rng in zip(EDGE_SEEDS, generators(seeds)):
        assert_same_stream(rng, np.random.default_rng(seed))


def test_empty_batch():
    assert generators([]) == []


@pytest.mark.parametrize("bad", [[-1], [2**63], [0, 2**64], [1.5], [[1, 2]]])
def test_out_of_range_seed_raises(bad):
    with pytest.raises(ValueError):
        generators(bad)


def test_pickle_round_trip_keeps_state():
    rng = generators([2**40 + 7])[0]
    rng.random(3)
    restored = pickle.loads(pickle.dumps(rng))
    assert_same_stream(restored, rng)


# ------------------------------------------------------------------ node start


def test_spawn_rngs_equals_sequential_spawns():
    batched, sequential = Simulator(seed=11), Simulator(seed=11)
    streams = batched.spawn_rngs(40)
    for rng in streams:
        assert_same_stream(rng, sequential.spawn_rng())
    assert batched.rng.bit_generator.state == sequential.rng.bit_generator.state


def lossy_world(seed=5):
    positions = random_positions(range(60), (300.0, 300.0), np.random.default_rng(seed))
    channel = LossyChannel(loss_probability=0.2, min_delay=0.01, max_delay=0.05)
    return build_grp_network(positions, GRPConfig(dmax=3), radio_range=80.0,
                             channel=channel, seed=seed)


def timer_states(deployment):
    return {nid: (repr(node._tc_timer._rng.bit_generator.state),
                  node._tc_timer._rng is node._ts_timer._rng)
            for nid, node in deployment.nodes.items()}


def test_batched_start_equals_unreserved_start():
    batched, plain = lossy_world(), lossy_world()
    batched.start()
    plain.network.start()  # every node spawns through the root, one by one
    assert timer_states(batched) == timer_states(plain)
    assert batched.sim.rng.bit_generator.state == plain.sim.rng.bit_generator.state

    batched.run(5.0)
    plain.sim.run(until=5.0)
    for deployment in (batched, plain):
        assert deployment.sim.now == 5.0
    assert batched.views() == plain.views()
    assert batched.sim.processed_events == plain.sim.processed_events
    for counter in ("messages_sent", "messages_delivered", "messages_dropped"):
        assert getattr(batched.network, counter) == getattr(plain.network, counter)
    assert batched.sim.rng.bit_generator.state == plain.sim.rng.bit_generator.state
    assert (batched.network.channel._rng.bit_generator.state
            == plain.network.channel._rng.bit_generator.state)


def test_reserved_streams_hand_out_in_draw_order():
    reserved, sequential = Simulator(seed=3), Simulator(seed=3)
    with reserved.reserved_streams(4):
        taken = [reserved.spawn_rng() for _ in range(4)]
    for rng in taken:
        assert_same_stream(rng, sequential.spawn_rng())
    # Outside the reservation spawn_rng draws from the root again.
    assert_same_stream(reserved.spawn_rng(), sequential.spawn_rng())


def test_reservation_raises_on_root_draw():
    sim = Simulator(seed=3)
    with pytest.raises(SimulationError, match="root generator"):
        with sim.reserved_streams(2):
            sim.spawn_rng()
            sim.spawn_rng()
            sim.rng.random()


def test_reservation_raises_on_extra_spawn():
    sim = Simulator(seed=3)
    with pytest.raises(SimulationError, match="root generator"):
        with sim.reserved_streams(1):
            sim.spawn_rng()
            sim.spawn_rng()


def test_reservation_raises_on_leftover_stream():
    sim = Simulator(seed=3)
    with pytest.raises(SimulationError, match="1 of 2 reserved streams"):
        with sim.reserved_streams(2):
            sim.spawn_rng()
    # The failed reservation is closed: a new one opens.
    with sim.reserved_streams(0):
        pass


def test_reservation_lets_a_body_error_through():
    sim = Simulator(seed=3)
    with pytest.raises(KeyError):
        with sim.reserved_streams(2):
            raise KeyError("boom")
    assert sim._reserved is None


def test_reservations_do_not_nest():
    sim = Simulator(seed=3)
    with pytest.raises(SimulationError, match="nest"):
        with sim.reserved_streams(1):
            sim.spawn_rng()
            with sim.reserved_streams(1):
                pass


# ---------------------------------------------------------------- traffic


def test_traffic_streams_equal_default_rng():
    deployment = lossy_world()
    driver = TrafficDriver(deployment.sim, deployment.network, deployment.nodes,
                           TrafficSpec.create("request_reply"), seed=17)
    base = f"traffic/{driver.spec.spec_key()}"
    for nid in driver.node_ids:
        reference = np.random.default_rng(derive_seed(17, f"{base}/node/{nid}"))
        assert_same_stream(driver.rng(nid), reference)


# ---------------------------------------------------------------- guard


def default_rng_calls(monkeypatch, n):
    """``np.random.default_rng`` calls made to build a ``city_scale_mobile``
    world of ``n`` nodes, attach request_reply traffic and start it."""
    calls = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", counting)
        deployment = build(ScenarioSpec.create(
            "city_scale_mobile", n=n, area=1500.0, hotspot_sigma=150.0,
            mover_fraction=0.05), seed=7)
        attach_traffic(deployment, TrafficSpec.create("request_reply"), seed=7)
        deployment.start()
    return len(calls)


def test_per_node_streams_skip_default_rng(monkeypatch):
    assert default_rng_calls(monkeypatch, 100) == default_rng_calls(monkeypatch, 300)


# ---------------------------------------------------------------- seeding


def test_unseeded_builds_differ():
    positions = {i: (10.0 * i, 0.0) for i in range(5)}
    a = build_grp_network(positions, GRPConfig(dmax=2), radio_range=15.0)
    b = build_grp_network(positions, GRPConfig(dmax=2), radio_range=15.0)
    assert a.sim.seed is None
    assert a.sim.rng.bit_generator.state != b.sim.rng.bit_generator.state


def test_seeded_builds_agree():
    positions = {i: (10.0 * i, 0.0) for i in range(5)}
    a = build_grp_network(positions, GRPConfig(dmax=2), radio_range=15.0, seed=4)
    b = build_grp_network(positions, GRPConfig(dmax=2), radio_range=15.0, seed=4)
    assert a.sim.seed == b.sim.seed == derive_seed(4, "simulator")
    assert a.sim.rng.bit_generator.state == b.sim.rng.bit_generator.state
