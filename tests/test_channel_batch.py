"""RNG stream-equivalence of batched vs scalar channel decisions.

``ChannelModel.decide_batch`` is the broadcast hot path; its contract is that
the batch is indistinguishable from the scalar ``decide`` loop: same delivered
set, same delays, same per-channel counters — and the RNG
left in the *exact same state*, so everything downstream of a broadcast
replays bit-identically whichever path the network took.  These tests run
both paths from identical RNG states across every stock channel model, many
seeds and every delay/loss configuration class (including the
interleaved-draw configuration that must fall back to the scalar loop).
"""

import copy

import numpy as np
import pytest

from repro.net.channel import (BatchDecisions, CollisionChannel, LossyChannel,
                               PerfectChannel)

SEEDS = [0, 1, 7, 123, 4242]

#: (loss_probability, min_delay, max_delay) covering every vectorization class:
#: no-RNG, uniform-only, random-only, and the interleaved scalar fallback.
LOSSY_CONFIGS = [
    (0.0, 0.0, 0.0),     # no draws at all
    (0.0, 0.05, 0.05),   # constant delay, no draws
    (0.0, 0.01, 0.30),   # uniform(n) only
    (0.25, 0.0, 0.0),    # random(n) only, zero delay
    (0.25, 0.2, 0.2),    # random(n) only, constant delay
    (0.25, 0.01, 0.30),  # interleaved -> scalar fallback
    (1.0, 0.0, 0.5),     # everything dropped
]


def scalar_reference(channel, sender, receivers, time):
    """The reference semantics: one scalar decide per receiver, in order."""
    delivered, delays = [], []
    for receiver in receivers:
        decision = channel.decide(sender, receiver, time)
        delivered.append(decision.delivered)
        delays.append(decision.delay)
    return delivered, delays


def build_pair(factory, seed):
    """Two structurally identical channels with identical RNG states."""
    a = factory(np.random.default_rng(seed))
    b = factory(np.random.default_rng(seed))
    return a, b


def assert_batch_matches(factory, seed, n_receivers=64, rounds=3):
    scalar_chan, batch_chan = build_pair(factory, seed)
    rng = np.random.default_rng(seed + 1000)
    for round_index in range(rounds):
        # Vary sender and batch size per round so collision state interacts
        # across broadcasts exactly as it would in a simulation.
        sender = f"s{round_index % 2}"
        receivers = [f"r{i}" for i in range(int(rng.integers(0, n_receivers)))]
        # Tight spacing: alternating senders land inside a CollisionChannel's
        # window, so the mixed collided/delivered merge path is exercised.
        time = round_index * 0.3
        want_delivered, want_delays = scalar_reference(
            scalar_chan, sender, receivers, time)
        batch = batch_chan.decide_batch(sender, receivers, time)
        assert isinstance(batch, BatchDecisions)
        assert list(batch.delivered) == want_delivered
        assert [float(d) for d in batch.delays] == want_delays
        assert batch.accepted() == sum(want_delivered)
    # Post-call RNG states must be bit-identical (bit_generator state dict).
    assert (scalar_chan._rng.bit_generator.state
            == batch_chan._rng.bit_generator.state)
    # Counters advanced identically on both paths.
    for attr in ("delivered", "dropped", "collisions"):
        if hasattr(scalar_chan, attr):
            assert getattr(scalar_chan, attr) == getattr(batch_chan, attr)


class TestLossyChannelBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("config", LOSSY_CONFIGS)
    def test_stream_equivalence(self, config, seed):
        p, lo, hi = config
        assert_batch_matches(
            lambda rng: LossyChannel(loss_probability=p, min_delay=lo,
                                     max_delay=hi, rng=rng), seed)

    def test_empty_batch_draws_nothing(self):
        channel = LossyChannel(loss_probability=0.5, rng=np.random.default_rng(3))
        before = copy.deepcopy(channel._rng.bit_generator.state)
        batch = channel.decide_batch("s", [], 0.0)
        assert list(batch.delivered) == [] and list(batch.delays) == []
        assert channel._rng.bit_generator.state == before


class TestCollisionChannelBatch:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("config", LOSSY_CONFIGS)
    def test_stream_equivalence(self, config, seed):
        p, lo, hi = config
        assert_batch_matches(
            lambda rng: CollisionChannel(collision_window=0.5, loss_probability=p,
                                         min_delay=lo, max_delay=hi, rng=rng), seed)

    def test_collisions_skip_rng_like_scalar(self):
        """Collided receivers consume no randomness on either path."""
        def factory(rng):
            return CollisionChannel(collision_window=10.0, loss_probability=0.5,
                                    rng=rng)
        scalar_chan, batch_chan = build_pair(factory, 99)
        receivers = [f"r{i}" for i in range(20)]
        # First transmission seeds _last_heard; the second (different sender,
        # inside the window) collides on every receiver.
        scalar_first = scalar_reference(scalar_chan, "a", receivers, 0.0)
        batch_first = batch_chan.decide_batch("a", receivers, 0.0)
        assert list(batch_first.delivered) == scalar_first[0]
        scalar_second = scalar_reference(scalar_chan, "b", receivers, 0.1)
        batch_second = batch_chan.decide_batch("b", receivers, 0.1)
        assert not any(batch_second.delivered) and not any(scalar_second[0])
        assert scalar_chan.collisions == batch_chan.collisions == 20
        assert (scalar_chan._rng.bit_generator.state
                == batch_chan._rng.bit_generator.state)


class TestPerfectChannelBatch:
    @pytest.mark.parametrize("delay", [0.0, 0.25])
    def test_matches_scalar(self, delay):
        channel = PerfectChannel(delay=delay)
        receivers = ["a", "b", "c"]
        batch = channel.decide_batch("s", receivers, 1.0)
        assert list(batch.delivered) == [True, True, True]
        assert [float(d) for d in batch.delays] == [delay] * 3


class TestDefaultFallback:
    def test_base_decide_batch_is_the_scalar_loop(self):
        """A channel that only implements decide still batches correctly."""
        from repro.net.channel import ChannelDecision, ChannelModel

        class EveryOther(ChannelModel):
            def __init__(self):
                self.calls = 0

            def decide(self, sender, receiver, time):
                self.calls += 1
                if self.calls % 2:
                    return ChannelDecision(delivered=True, delay=0.1)
                return ChannelDecision(delivered=False, reason="parity")

        channel = EveryOther()
        batch = channel.decide_batch("s", ["a", "b", "c", "d"], 0.0)
        assert list(batch.delivered) == [True, False, True, False]
        assert channel.calls == 4


class TestSubclassOverrides:
    """A subclass overriding only decide() must rule both pipelines."""

    def test_lossy_subclass_decide_is_honored_in_batch(self):
        from repro.net.channel import ChannelDecision

        class EveryOtherLossy(LossyChannel):
            def __init__(self):
                super().__init__(loss_probability=0.0)
                self.calls = 0

            def decide(self, sender, receiver, time):
                self.calls += 1
                if self.calls % 2:
                    return super().decide(sender, receiver, time)
                return ChannelDecision(delivered=False, reason="custom")

        channel = EveryOtherLossy()
        batch = channel.decide_batch("s", ["a", "b", "c", "d"], 0.0)
        assert list(batch.delivered) == [True, False, True, False]
        assert channel.calls == 4  # the override really ran per receiver

    def test_perfect_subclass_decide_is_honored_in_batch(self):
        from repro.net.channel import ChannelDecision

        class FirstOnly(PerfectChannel):
            def decide(self, sender, receiver, time):
                if receiver == "a":
                    return super().decide(sender, receiver, time)
                return ChannelDecision(delivered=False, reason="custom")

        batch = FirstOnly().decide_batch("s", ["a", "b"], 0.0)
        assert list(batch.delivered) == [True, False]

    def test_collision_subclass_decide_is_honored_in_batch(self):
        from repro.net.channel import ChannelDecision

        class NeverCollides(CollisionChannel):
            def decide(self, sender, receiver, time):
                return ChannelDecision(delivered=True)

        channel = NeverCollides(collision_window=10.0)
        channel.decide_batch("a", ["r"], 0.0)
        batch = channel.decide_batch("b", ["r"], 0.1)  # would collide normally
        assert list(batch.delivered) == [True]
        assert channel.collisions == 0

    def test_draw_delay_override_forces_scalar_loop(self):
        """Overriding only _draw_delay must rule both pipelines too."""

        class ConstantPointOne(LossyChannel):
            def _draw_delay(self):
                return 0.1

        channel = ConstantPointOne(min_delay=0.0, max_delay=5.0,
                                   rng=np.random.default_rng(1))
        batch = channel.decide_batch("s", ["a", "b"], 0.0)
        assert [float(d) for d in batch.delays] == [0.1, 0.1]

        class CollidingConstant(CollisionChannel):
            def _draw_delay(self):
                return 0.2

        channel = CollidingConstant(collision_window=0.5, min_delay=0.0,
                                    max_delay=5.0, rng=np.random.default_rng(1))
        batch = channel.decide_batch("s", ["a", "b"], 0.0)
        assert [float(d) for d in batch.delays] == [0.2, 0.2]
