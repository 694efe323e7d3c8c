"""The production path takes the delivery fast paths and records no trace.

Every registered scenario is served by the CSR delivery path, and nothing on
it writes to a :class:`~repro.sim.trace.TraceRecorder`.  With no delays, a
perfect world is served entirely by the channel's zero-delay hook; every
other batch takes the bulk rule or, when a local receiver is due now, the
per-receiver loop.  Each of those must reproduce the brute-force reference
engine (``tests/reference_backends.py``) bit for bit.
"""

import contextlib

import numpy as np
import pytest

from reference_backends import BRUTE_FORCE, PRODUCTION, use_backend
from repro.core.node import GRPConfig
from repro.core.protocol import build_grp_network
from repro.net.channel import CollisionChannel, LossyChannel
from repro.net.faults import FaultInjector
from repro.net.geometry import random_positions
from repro.obs import observing
from repro.scenarios import ScenarioSpec, build
from repro.sim.trace import TraceRecorder
from repro.traffic import TrafficSpec, attach_traffic


class TestProductionPathIsFast:
    @pytest.mark.parametrize("obs_on", [False, True], ids=["obs_off", "obs_on"])
    def test_scenario_run_never_records_a_trace(self, monkeypatch, obs_on):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a scenario run wrote to a TraceRecorder")

        monkeypatch.setattr(TraceRecorder, "record", refuse)
        with observing() if obs_on else contextlib.nullcontext():
            for spec in (ScenarioSpec.create("large_manet_waypoint", n=40, area=400.0),
                         ScenarioSpec.create("sparse_lossy_field", n=30, area=500.0)):
                deployment = build(spec, seed=3)
                injector = FaultInjector(deployment.network, rng=np.random.default_rng(3))
                deployment.run(2.0)
                injector.random_memory_corruption(fraction=0.3, ghost_pool=["g"])
                injector.partition([0, 1])
                deployment.run(1.0)
                injector.heal()
                deployment.run(1.0)
                assert deployment.network.messages_delivered > 0

    def test_zero_delay_hook_answers_every_non_empty_broadcast(self):
        deployment = build(ScenarioSpec.create("large_manet_waypoint", n=40, area=400.0),
                           seed=3)
        network = deployment.network
        channel = network.channel
        stock_fast = channel.decide_batch_fast
        answers = []

        def counting_fast(sender, receivers, time):
            result = stock_fast(sender, receivers, time)
            answers.append(result is not None)
            return result

        def boxed(*args):
            raise AssertionError("a zero-delay batch left the fast path")

        channel.decide_batch_fast = counting_fast
        channel.decide_batch = boxed
        channel.decide = boxed
        deployment.run(4.0)
        assert len(answers) > 100 and all(answers)
        # Only empty broadcasts (isolated senders) skip the hook.
        assert len(answers) <= network.messages_sent
        assert network.messages_delivered > 0


def lossy_world(seed):
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    channel = LossyChannel(loss_probability=0.25, min_delay=0.0, max_delay=0.08)
    return build_grp_network(positions, GRPConfig(dmax=2), radio_range=70.0,
                             channel=channel, seed=seed), None


def lossy_constant_delay_world(seed):
    # Constant positive delay with losses: drops are counted in bulk and the
    # accepted receivers are scheduled in one insertion.
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    channel = LossyChannel(loss_probability=0.25, min_delay=0.05, max_delay=0.05)
    return build_grp_network(positions, GRPConfig(dmax=2), radio_range=70.0,
                             channel=channel, seed=seed), None


def perfect_world(seed):
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    return build_grp_network(positions, GRPConfig(dmax=3), radio_range=80.0,
                             seed=seed), None


def collision_world(seed):
    # Zero delays, but the channel declines the zero-delay hook: every batch
    # takes decide_batch, collision-free rounds and collided ones alike, and
    # each one with an accepted receiver is dispatched by the per-receiver
    # loop.
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    channel = CollisionChannel(collision_window=0.05, loss_probability=0.1)
    return build_grp_network(positions, GRPConfig(dmax=3), radio_range=80.0,
                             channel=channel, seed=seed), None


def request_reply_world(seed):
    # Zero delays with app payloads: those batches skip the zero-delay hook
    # and route every delivery through the app handler.
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    deployment = build_grp_network(positions, GRPConfig(dmax=3), radio_range=80.0,
                                   seed=seed)
    driver = attach_traffic(deployment, TrafficSpec.create("request_reply", interval=0.5),
                            seed=seed)
    return deployment, driver.ledger


def fingerprint(deployment, ledger):
    network = deployment.network
    channel = network.channel
    channel_rng = getattr(channel, "_rng", None)
    return {
        "views": deployment.views(),
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "events": deployment.sim.processed_events,
        "sim_rng": deployment.sim.rng.bit_generator.state,
        "channel_rng": None if channel_rng is None else channel_rng.bit_generator.state,
        "channel_counters": [getattr(channel, attr, None)
                             for attr in ("delivered", "dropped", "collisions")],
        "now": deployment.sim.now,
        "app": None if ledger is None else (ledger.messages_sent, ledger.receptions,
                                            ledger.requests_sent, ledger.replies_matched),
    }


def run_world(make_world, backend):
    deployment, ledger = make_world(seed=11)
    use_backend(deployment.network, backend)
    deployment.run(3.0)
    deployment.network.deactivate_node(4)
    deployment.run(2.0)
    deployment.network.activate_node(4)
    deployment.run(3.0)
    return deployment, fingerprint(deployment, ledger)


class TestProductionMatchesBruteForce:
    @pytest.mark.parametrize("make_world",
                             [lossy_world, lossy_constant_delay_world, perfect_world,
                              collision_world, request_reply_world],
                             ids=["lossy_delayed", "lossy_constant_delay",
                                  "perfect_zero_delay", "collision_zero_delay",
                                  "request_reply_zero_delay"])
    def test_run_is_bit_identical(self, make_world):
        deployment, production = run_world(make_world, PRODUCTION)
        _, reference = run_world(make_world, BRUTE_FORCE)
        assert production == reference
        assert production["delivered"] > 0
        if make_world is collision_world:
            assert deployment.network.channel.collisions > 0
        if make_world is request_reply_world:
            assert production["app"][1] > 0
