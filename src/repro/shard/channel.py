"""Per-sender channel randomness for shard-partitioned execution.

The stock :class:`~repro.net.channel.LossyChannel` consumes one global RNG
stream in broadcast order.  That stream is inherently sequential: shard
workers interleave *their own* senders' broadcasts differently than the
single-process run would, so a shared stream can never replay bit-identically
across worker counts.

:class:`PerSenderChannel` removes the coupling: every sender gets its own
:class:`~repro.net.channel.LossyChannel` seeded from
``derive_seed(master_seed, "sender/<id>")``.  A sender's decisions then
depend only on its own broadcast history — which the sharded executor
replicates exactly at the sender's owner shard — so the decision stream is
invariant under any partitioning of the senders.  The reference fingerprint
for the sharded determinism matrix is the sharded engine at ``shards=1``,
which runs every sender through this same wrapper.

Sub-channels are created lazily, at a sender's first broadcast that has a
receiver: the network asks the channel nothing for a broadcast that reaches
nobody, so an isolated sender never gets one.  Laziness is safe: each
sub-stream is a pure function of ``(master_seed, sender)``, never of creation
order, and whether a sender ever reaches a receiver is itself replayed
deterministically.  A sub-stream is one ``np.random.default_rng`` call: they
are made one at a time, where a batch (:func:`repro.sim.randomness.generators`)
would cost more than it saves.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import numpy as np

from repro.net.channel import BatchDecisions, ChannelDecision, ChannelModel, LossyChannel
from repro.sim.randomness import derive_seed

__all__ = ["PerSenderChannel"]


class PerSenderChannel(ChannelModel):
    """Lossy channel with an independent random sub-stream per sender.

    Parameters mirror :class:`~repro.net.channel.LossyChannel`; ``master_seed``
    roots the per-sender seed derivation.  A sender's sub-channel is created
    at its first broadcast that has a receiver, not at its first broadcast.
    """

    def __init__(self, loss_probability: float, min_delay: float,
                 max_delay: float, master_seed: int):
        probe = LossyChannel(loss_probability, min_delay, max_delay)
        self.loss_probability = probe.loss_probability
        self.min_delay = probe.min_delay
        self.max_delay = probe.max_delay
        self.master_seed = int(master_seed)
        self._subs: Dict[Hashable, LossyChannel] = {}

    @classmethod
    def from_lossy(cls, channel: LossyChannel, master_seed: int) -> "PerSenderChannel":
        """Wrap the parameters of an existing lossy channel."""
        return cls(channel.loss_probability, channel.min_delay,
                   channel.max_delay, master_seed)

    def _sub(self, sender: Hashable) -> LossyChannel:
        sub = self._subs.get(sender)
        if sub is None:
            rng = np.random.default_rng(
                derive_seed(self.master_seed, f"sender/{sender}"))
            sub = LossyChannel(self.loss_probability, self.min_delay,
                               self.max_delay, rng=rng)
            self._subs[sender] = sub
        return sub

    # Aggregated drop/deliver counters over every sub-channel, so diagnostics
    # reading channel.dropped keep working against the wrapper.
    @property
    def dropped(self) -> int:
        return sum(sub.dropped for sub in self._subs.values())

    @property
    def delivered(self) -> int:
        return sum(sub.delivered for sub in self._subs.values())

    def decide(self, sender, receiver, time) -> ChannelDecision:
        return self._sub(sender).decide(sender, receiver, time)

    def decide_batch(self, sender, receivers, time) -> BatchDecisions:
        return self._sub(sender).decide_batch(sender, receivers, time)

    def decide_batch_fast(self, sender, receivers, time):
        return self._sub(sender).decide_batch_fast(sender, receivers, time)

    def rng_states(self, senders=None) -> Dict[str, str]:
        """Post-run per-sender RNG fingerprints, keyed by ``str(sender)``.

        Only senders with a materialized sub-stream appear; restricting to
        ``senders`` lets a shard report exactly its owned nodes.
        """
        subs = self._subs
        if senders is not None:
            keep = set(senders)
            items = [(s, ch) for s, ch in subs.items() if s in keep]
        else:
            items = list(subs.items())
        return {str(sender): repr(ch._rng.bit_generator.state)
                for sender, ch in items}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"PerSenderChannel(p={self.loss_probability}, "
                f"delay=[{self.min_delay}, {self.max_delay}], "
                f"senders={len(self._subs)})")
