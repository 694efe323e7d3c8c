"""Broadcast channel models.

The paper assumes a local broadcast medium close to IEEE 802.11: one-message
channels, fair sending/reception, possible losses, and a fair-channel
hypothesis (τ1, τ2) guaranteeing that a persistent sender is eventually heard.
The channel model decides, per (sender, receiver) pair and per transmission,
whether and when the message is delivered.

:class:`LossyChannel` applies an independent loss probability per receiver and
a delivery delay.  :class:`CollisionChannel` additionally drops receptions when
two transmissions overlap at the receiver within a configurable collision
window, modelling the "at most one message on the channel" hypothesis.

Batched decisions
-----------------
:meth:`ChannelModel.decide_batch` decides a whole receiver batch in one call —
the hot path of every broadcast.  The scalar loop is the semantic *reference*:
any batched implementation must produce the same delivered set, the same
delays and leave the RNG in the same state as ``[self.decide(sender, r, time)
for r in receivers]``.  The stock vectorized paths exploit that a numpy
``Generator`` fills ``rng.random(n)`` / ``rng.uniform(lo, hi, n)`` from the
exact bit stream ``n`` scalar draws would consume, so seeded runs replay
bit-identically with the fast path on or off (regression-tested in
``tests/test_channel_batch.py``).  The one configuration whose scalar loop
*interleaves* two draw kinds per receiver (``loss_probability > 0`` together
with a non-degenerate delay interval) cannot be expressed as array draws and
falls back to the scalar loop — batching still amortizes the call overhead of
the network layer around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ChannelDecision", "BatchDecisions", "ChannelModel", "PerfectChannel",
           "LossyChannel", "CollisionChannel"]


@dataclass(frozen=True)
class ChannelDecision:
    """Outcome of a transmission attempt towards one receiver."""

    delivered: bool
    delay: float = 0.0
    reason: str = "ok"


class BatchDecisions:
    """Outcome of one transmission towards a whole receiver batch.

    ``delivered[i]`` / ``delays[i]`` mirror the :class:`ChannelDecision` the
    scalar loop would have produced for ``receivers[i]`` (dropped entries
    carry delay ``0.0``); drop reasons stay on the scalar
    :class:`ChannelDecision`.

    ``delivered_array`` is an optional hint that lets array-native consumers
    skip the per-entry python loop: when not ``None`` it is the boolean
    numpy mask the ``delivered`` list was materialized from, ready for a
    masked gather over a parallel receiver array.

    A plain ``__slots__`` class, not a dataclass: one instance is built per
    broadcast, and frozen-dataclass construction alone costs more than the
    RNG draw it wraps.
    """

    __slots__ = ("delivered", "delays", "delivered_array", "n_accepted")

    def __init__(self, delivered: Sequence[bool], delays: Sequence[float],
                 delivered_array: Optional[np.ndarray] = None,
                 n_accepted: Optional[int] = None):
        self.delivered = delivered
        self.delays = delays
        self.delivered_array = delivered_array
        #: accepted count, filled in by constructors that already know it
        #: (the vectorized stock paths do) so consumers skip the re-count.
        self.n_accepted = n_accepted

    def accepted(self) -> int:
        """Number of delivered receivers."""
        if self.n_accepted is None:
            self.n_accepted = sum(self.delivered)
        return self.n_accepted

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BatchDecisions(accepted={self.accepted()}/{len(self.delivered)})"


class ChannelModel:
    """Interface: decide delivery of one transmission towards one receiver."""

    def decide(self, sender: Hashable, receiver: Hashable, time: float) -> ChannelDecision:
        """Return the delivery decision for a transmission emitted at ``time``."""
        raise NotImplementedError

    def decide_batch(self, sender: Hashable, receivers: Sequence[Hashable],
                     time: float) -> BatchDecisions:
        """Decide one transmission towards every receiver of a batch.

        Reference semantics (and the default implementation): the scalar
        :meth:`decide` loop over ``receivers`` in order.  Overrides must keep
        the delivered set, the delays *and* the RNG consumption identical to
        that loop, so a seeded run replays bit-exactly whichever path the
        network takes.
        """
        delivered: List[bool] = []
        delays: List[float] = []
        for receiver in receivers:
            decision = self.decide(sender, receiver, time)
            delivered.append(decision.delivered)
            delays.append(decision.delay)
        return BatchDecisions(delivered=delivered, delays=delays)

    def decide_batch_fast(self, sender: Hashable, receivers: Sequence[Hashable],
                          time: float) -> Optional[Tuple[Optional[np.ndarray], int]]:
        """All-zero-delay batch decision without the :class:`BatchDecisions` box.

        The network's hottest dispatch loop (zero delays) probes this
        first.  A channel may answer ``(mask, accepted)`` — ``mask`` a boolean
        numpy array over ``receivers`` (or ``None`` for "all delivered"),
        ``accepted`` its true count — **only** when every delay the scalar
        loop would produce is ``0.0`` and the RNG consumption and drop/deliver
        counters advance exactly as :meth:`decide_batch` would.  Returning
        ``None`` declines: the caller then invokes :meth:`decide_batch`, so a
        declining implementation must not have consumed any randomness.  The
        default declines for every channel that does not opt in.
        """
        return None


class PerfectChannel(ChannelModel):
    """Every transmission is delivered with a constant (possibly zero) delay."""

    def __init__(self, delay: float = 0.0):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        # The decision is identical for every transmission; sharing one frozen
        # instance keeps the per-receiver broadcast cost allocation-free.
        self._decision = ChannelDecision(delivered=True, delay=float(delay))
        # Subclass-override check hoisted out of the per-broadcast hot path;
        # type(self) is settled by construction time.
        self._vector_ok = type(self).decide is PerfectChannel.decide

    @property
    def delay(self) -> float:
        """Constant delivery delay."""
        return self._decision.delay

    def decide(self, sender, receiver, time) -> ChannelDecision:
        return self._decision

    def decide_batch(self, sender, receivers, time) -> BatchDecisions:
        if not self._vector_ok:
            # A subclass overriding only decide() gets the scalar reference
            # loop, keeping the batched and per-receiver paths bit-identical.
            return super().decide_batch(sender, receivers, time)
        n = len(receivers)
        delay = self._decision.delay
        return BatchDecisions(delivered=[True] * n, delays=[delay] * n, n_accepted=n)

    def decide_batch_fast(self, sender, receivers, time):
        if not self._vector_ok or self._decision.delay != 0.0:
            return None
        return None, len(receivers)


class LossyChannel(ChannelModel):
    """Independent per-receiver loss with uniform random delay.

    Parameters
    ----------
    loss_probability:
        Probability that a given receiver misses a given transmission.
    min_delay, max_delay:
        Uniform delivery delay bounds.
    rng:
        Random generator (injected by the network for reproducibility).
    """

    def __init__(self, loss_probability: float = 0.0, min_delay: float = 0.0,
                 max_delay: float = 0.0, rng: Optional[np.random.Generator] = None):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if min_delay < 0 or max_delay < min_delay:
            raise ValueError("need 0 <= min_delay <= max_delay")
        self.loss_probability = float(loss_probability)
        self.min_delay = float(min_delay)
        self.max_delay = float(max_delay)
        self._rng = rng if rng is not None else np.random.default_rng()
        self.dropped = 0
        self.delivered = 0
        # Subclass-override check hoisted out of the per-broadcast hot path:
        # the vectorized core hardcodes the stock draw pattern, so any class
        # overriding a scalar hook must take the scalar reference loop.
        # CollisionChannel re-derives the flag against its own decide.
        self._vector_ok = (type(self).decide is LossyChannel.decide
                           and type(self)._draw_delay is LossyChannel._draw_delay)

    def set_rng(self, rng: np.random.Generator) -> None:
        """Inject the random stream used for loss and delay draws."""
        self._rng = rng

    def _draw_delay(self) -> float:
        if self.max_delay == self.min_delay:
            return self.min_delay
        return float(self._rng.uniform(self.min_delay, self.max_delay))

    def decide(self, sender, receiver, time) -> ChannelDecision:
        if self.loss_probability > 0 and self._rng.random() < self.loss_probability:
            self.dropped += 1
            return ChannelDecision(delivered=False, reason="loss")
        self.delivered += 1
        return ChannelDecision(delivered=True, delay=self._draw_delay())

    def _lossy_batch(self, n: int) -> Optional[BatchDecisions]:
        """Vectorized loss/delay core for ``n`` receivers, or ``None``.

        Returns ``None`` in the one configuration (``loss_probability > 0``
        with a non-degenerate delay interval) whose scalar reference
        interleaves a ``random()`` and a ``uniform()`` draw per receiver —
        array draws cannot reproduce that stream.  Every other configuration
        consumes at most one draw *kind*, so one array draw is bit-identical
        to the scalar loop.  Updates the delivered/dropped counters exactly as
        ``n`` scalar calls would.
        """
        p = self.loss_probability
        variable_delay = self.max_delay != self.min_delay
        if p > 0 and variable_delay:
            return None
        if n == 0:
            return BatchDecisions(delivered=[], delays=[], n_accepted=0)
        if p <= 0:
            self.delivered += n
            if variable_delay:
                delays = self._rng.uniform(self.min_delay, self.max_delay, n).tolist()
            else:
                delays = [self.min_delay] * n
            return BatchDecisions(delivered=[True] * n, delays=delays, n_accepted=n)
        mask = self._rng.random(n) >= p
        delivered = mask.tolist()
        accepted = sum(delivered)
        self.delivered += accepted
        self.dropped += n - accepted
        constant = self.min_delay
        if constant == 0.0:
            delays = [0.0] * n
        else:
            delays = [constant if kept else 0.0 for kept in delivered]
        return BatchDecisions(delivered=delivered, delays=delays,
                              delivered_array=mask, n_accepted=accepted)

    def decide_batch(self, sender, receivers, time) -> BatchDecisions:
        # A subclass overriding any scalar hook (decide or _draw_delay) must
        # stay the single source of truth on both pipelines — _vector_ok,
        # settled at construction, falls back to the scalar reference loop.
        if not self._vector_ok:
            return super().decide_batch(sender, receivers, time)
        batch = self._lossy_batch(len(receivers))
        if batch is None:
            return super().decide_batch(sender, receivers, time)
        return batch

    def decide_batch_fast(self, sender, receivers, time):
        # Only the all-zero-delay configurations qualify; everything else
        # declines *before* touching the RNG so decide_batch can take over.
        if (not self._vector_ok or self.min_delay != 0.0
                or self.max_delay != 0.0):
            return None
        n = len(receivers)
        p = self.loss_probability
        if p <= 0:
            self.delivered += n
            return None, n
        if n == 0:
            return None, 0
        mask = self._rng.random(n) >= p
        accepted = int(np.count_nonzero(mask))
        self.delivered += accepted
        self.dropped += n - accepted
        return mask, accepted


class CollisionChannel(LossyChannel):
    """Lossy channel with receiver-side collisions.

    If two different senders transmit towards the same receiver within
    ``collision_window`` time units, the later transmission is dropped (and the
    earlier one is unaffected — a simplified capture model).  This realizes the
    paper's hypothesis (i)/(iv): a node cannot receive while another node in
    its vicinity is transmitting.
    """

    def __init__(self, collision_window: float, loss_probability: float = 0.0,
                 min_delay: float = 0.0, max_delay: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(loss_probability, min_delay, max_delay, rng)
        if collision_window < 0:
            raise ValueError("collision_window must be non-negative")
        self.collision_window = float(collision_window)
        self.collisions = 0
        # receiver -> (sender, time of the last transmission heard)
        self._last_heard: Dict[Hashable, Tuple[Hashable, float]] = {}
        self._vector_ok = (type(self).decide is CollisionChannel.decide
                           and type(self)._draw_delay is LossyChannel._draw_delay)

    def decide(self, sender, receiver, time) -> ChannelDecision:
        last = self._last_heard.get(receiver)
        if (last is not None and last[0] != sender
                and (time - last[1]) < self.collision_window):
            self.collisions += 1
            self._last_heard[receiver] = (sender, time)
            return ChannelDecision(delivered=False, reason="collision")
        self._last_heard[receiver] = (sender, time)
        return super().decide(sender, receiver, time)

    def decide_batch(self, sender, receivers, time) -> BatchDecisions:
        # The interleaved-draw configuration — and any subclass overriding a
        # scalar hook (decide or _draw_delay) — must take the scalar
        # reference loop *before* any collision state is touched:
        # re-deciding a receiver after its ``_last_heard`` update would no
        # longer collide.
        if (not self._vector_ok
                or (self.loss_probability > 0 and self.max_delay != self.min_delay)):
            return ChannelModel.decide_batch(self, sender, receivers, time)
        n = len(receivers)
        collided = [False] * n
        last_heard, window = self._last_heard, self.collision_window
        for i, receiver in enumerate(receivers):
            last = last_heard.get(receiver)
            if last is not None and last[0] != sender and (time - last[1]) < window:
                self.collisions += 1
                collided[i] = True
            last_heard[receiver] = (sender, time)
        survivors = n - sum(collided)
        # Collision checks draw no randomness, so the lossy core consumes the
        # RNG exactly as the scalar loop does: once per surviving receiver,
        # in order.
        sub = self._lossy_batch(survivors)
        if survivors == n:
            return sub
        delivered: List[bool] = [False] * n
        delays: List[float] = [0.0] * n
        j = 0
        for i in range(n):
            if collided[i]:
                continue
            delivered[i] = sub.delivered[j]
            delays[i] = sub.delays[j]
            j += 1
        return BatchDecisions(delivered=delivered, delays=delays,
                              n_accepted=sub.accepted())

    def decide_batch_fast(self, sender, receivers, time):
        # Collision bookkeeping (the _last_heard table) lives in decide_batch;
        # declining keeps that single implementation authoritative.  No state
        # is touched here, as the fast-hook contract requires.
        return None
