"""The production path takes the delivery fast paths; a trace recorder only observes.

``build_grp_network`` (and therefore every registered scenario) attaches no
:class:`~repro.sim.trace.TraceRecorder` unless the caller passes one.  With
no recorder, a perfect zero-delay world is served entirely by the channel's
zero-delay hook.  A caller-supplied recorder switches the network to its
recording loops, which must reproduce the unrecorded run bit for bit.
"""

import numpy as np
import pytest

from repro.core.node import GRPConfig
from repro.core.protocol import build_grp_network
from repro.net.channel import LossyChannel
from repro.net.geometry import random_positions
from repro.scenarios import ScenarioSpec, build
from repro.sim.trace import TraceRecorder


class TestProductionPathIsFast:
    def test_scenario_build_attaches_no_recorder(self):
        deployment = build(ScenarioSpec.create("large_manet_waypoint", n=40, area=400.0),
                           seed=3)
        assert deployment.trace is None
        assert deployment.network.trace is None

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


def lossy_world(seed, trace=None):
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    channel = LossyChannel(loss_probability=0.25, min_delay=0.0, max_delay=0.08)
    return build_grp_network(positions, GRPConfig(dmax=2), radio_range=70.0,
                             channel=channel, seed=seed, trace=trace)


def lossy_constant_delay_world(seed, trace=None):
    # Constant positive delay with losses: unrecorded broadcasts count their
    # drops in bulk and schedule the accepted receivers in one insertion,
    # recorded ones take the per-receiver loop.
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    channel = LossyChannel(loss_probability=0.25, min_delay=0.05, max_delay=0.05)
    return build_grp_network(positions, GRPConfig(dmax=2), radio_range=70.0,
                             channel=channel, seed=seed, trace=trace)


def perfect_world(seed, trace=None):
    positions = random_positions(range(30), (250.0, 250.0), np.random.default_rng(seed))
    return build_grp_network(positions, GRPConfig(dmax=3), radio_range=80.0,
                             seed=seed, trace=trace)


def fingerprint(deployment):
    network = deployment.network
    channel_rng = getattr(network.channel, "_rng", None)
    return {
        "views": deployment.views(),
        "sent": network.messages_sent,
        "delivered": network.messages_delivered,
        "dropped": network.messages_dropped,
        "events": deployment.sim.processed_events,
        "sim_rng": deployment.sim.rng.bit_generator.state,
        "channel_rng": None if channel_rng is None else channel_rng.bit_generator.state,
        "now": deployment.sim.now,
    }


class TestRecorderOnlyObserves:
    @pytest.mark.parametrize("make_world",
                             [lossy_world, lossy_constant_delay_world, perfect_world],
                             ids=["lossy_delayed", "lossy_constant_delay",
                                  "perfect_zero_delay"])
    def test_recorded_run_is_bit_identical(self, make_world):
        plain = make_world(seed=11)
        recorder = TraceRecorder()
        traced = make_world(seed=11, trace=recorder)
        assert traced.trace is recorder and traced.network.trace is recorder
        for deployment in (plain, traced):
            deployment.run(3.0)
            deployment.network.deactivate_node(4)
            deployment.run(2.0)
            deployment.network.activate_node(4)
            deployment.run(3.0)
        assert fingerprint(traced) == fingerprint(plain)
        # The recorder did record the run it observed.
        assert recorder.count("send") == traced.network.messages_sent
        assert recorder.count("receive") == traced.network.messages_delivered
        assert recorder.count("drop") == traced.network.messages_dropped
