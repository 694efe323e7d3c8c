"""Radio / vicinity models.

In the paper, node ``u`` is in the *vicinity* of ``v`` when a message sent by
``u`` can be received by ``v``; the relation is *not* necessarily symmetric
(Section 2).  A radio model answers exactly that question given the positions
of the two nodes.

Three models are provided:

* :class:`UnitDiskRadio` — classic symmetric unit-disk graph;
* :class:`AsymmetricRangeRadio` — each node has its own transmission range, so
  links can be asymmetric (this exercises the single-mark handshake of GRP);
* :class:`ProbabilisticDiskRadio` — a disk whose boundary band delivers with a
  configurable probability, approximating fading.

Mutation notifications
----------------------
Networks cache topology snapshots and an incremental link-state behind the
radio's parameters, so an in-place mutation (changing a range, widening a
fading band) silently serves stale neighbourhoods unless the caches are
invalidated.  The stock models therefore expose their tunables as properties
whose setters call :meth:`RadioModel.notify_mutation`, which forwards to every
registered listener (each :class:`~repro.net.network.Network` using the radio
registers :meth:`~repro.net.network.Network.invalidate_topology`).  Custom
models should do the same for any mutable geometry parameter; mutating private
state directly still requires a manual ``invalidate_topology()`` call.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, List, Mapping, Optional, Sequence

import numpy as np

from .geometry import distance

__all__ = [
    "RadioModel",
    "UnitDiskRadio",
    "AsymmetricRangeRadio",
    "ProbabilisticDiskRadio",
]


class RadioModel:
    """Interface: decides whether a transmission from ``sender`` reaches ``receiver``."""

    def in_vicinity(self, sender: Hashable, receiver: Hashable,
                    sender_pos: Sequence[float], receiver_pos: Sequence[float]) -> bool:
        """Return ``True`` when ``sender`` is in the vicinity of ``receiver``."""
        raise NotImplementedError

    def max_range(self) -> Optional[float]:
        """Upper bound on the reach of any transmission, or ``None`` if unbounded.

        When a finite bound exists, both :meth:`in_vicinity` and
        :meth:`link_exists` must be ``False`` for every pair farther apart than
        the bound.  Together with :meth:`uniform_link_radius` it lets the
        network serve links from its CSR link state; the bound also sizes
        the shard tiles' columns.  Models without a usable bound return
        ``None`` and always take the brute-force scan.
        """
        return None

    def link_exists(self, sender: Hashable, receiver: Hashable,
                    sender_pos: Sequence[float], receiver_pos: Sequence[float]) -> bool:
        """Deterministic link predicate used to build topology snapshots.

        Defaults to :meth:`in_vicinity`; probabilistic radios override it with
        their deterministic support (the largest region with non-zero delivery
        probability) so that topology snapshots are stable.
        """
        return self.in_vicinity(sender, receiver, sender_pos, receiver_pos)

    def deterministic_vicinity(self) -> bool:
        """Whether :meth:`in_vicinity` is deterministic and ≡ :meth:`link_exists`.

        When ``True``, a broadcast's receiver set is exactly the sender's
        out-links, so the network may serve it from the incremental link-state
        cache without re-testing the vicinity per receiver (and without
        touching any RNG).  Models whose vicinity test is stochastic (or
        differs from the link predicate) must return ``False`` — the network
        then keeps the per-candidate vicinity scan.  Conservative default:
        ``False``.
        """
        return False

    def uniform_link_radius(self) -> Optional[float]:
        """A single radius ``r`` with ``link_exists(u, v) iff d(u, v) <= r``.

        When every pair shares one inclusive link radius (unit disks, the
        override-free asymmetric radio, the probabilistic disk's reliable
        core), the CSR link state harvests every node's links in one
        vectorized cell-binning pass — both directions at once, no per-pair
        predicate calls.  Radios whose link predicate varies per node (or is
        not a pure distance threshold) return ``None`` and take the
        brute-force scan, which calls ``link_exists`` per pair.
        """
        return None

    # -------------------------------------------------- mutation notification

    def add_mutation_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after any in-place parameter mutation.

        Bound methods are held through :class:`weakref.WeakMethod`, so a
        radio reused across many networks (parameter sweeps, notebooks) does
        not keep every dead network alive; dead entries are pruned on the
        next notification.  Plain functions/closures are held strongly.
        """
        listeners = getattr(self, "_mutation_listeners", None)
        if listeners is None:
            listeners = []
            self._mutation_listeners: List[Callable[[], Optional[Callable[[], None]]]] \
                = listeners
        try:
            ref: Callable[[], Optional[Callable[[], None]]] = weakref.WeakMethod(listener)
        except TypeError:
            def ref(callback: Callable[[], None] = listener) -> Callable[[], None]:
                return callback
        listeners.append(ref)

    def notify_mutation(self) -> None:
        """Tell every listening network that cached neighbourhoods are stale."""
        listeners = getattr(self, "_mutation_listeners", None)
        if not listeners:
            return
        stale = False
        for ref in list(listeners):
            callback = ref()
            if callback is None:
                stale = True
                continue
            callback()
        if stale:
            listeners[:] = [ref for ref in listeners if ref() is not None]

    def __getstate__(self):
        """Drop the listener list when pickled.

        WeakMethods are not picklable and registrations are process-local
        anyway: every restored :class:`~repro.net.network.Network`
        re-registers itself on unpickle (the sharded snapshot-restore path
        serializes built worlds wholesale).
        """
        state = self.__dict__.copy()
        state.pop("_mutation_listeners", None)
        return state


class UnitDiskRadio(RadioModel):
    """Symmetric unit-disk radio: delivery iff distance <= ``radio_range``."""

    def __init__(self, radio_range: float):
        if radio_range <= 0:
            raise ValueError("radio range must be positive")
        self._radio_range = float(radio_range)

    @property
    def radio_range(self) -> float:
        """Disk radius; assigning it invalidates every listening network."""
        return self._radio_range

    @radio_range.setter
    def radio_range(self, value: float) -> None:
        if value <= 0:
            raise ValueError("radio range must be positive")
        self._radio_range = float(value)
        self.notify_mutation()

    def in_vicinity(self, sender, receiver, sender_pos, receiver_pos) -> bool:
        return distance(sender_pos, receiver_pos) <= self._radio_range

    def max_range(self) -> Optional[float]:
        return self._radio_range

    def deterministic_vicinity(self) -> bool:
        return True

    def uniform_link_radius(self) -> Optional[float]:
        return self._radio_range

    def __repr__(self) -> str:  # pragma: no cover
        return f"UnitDiskRadio(range={self._radio_range})"


class AsymmetricRangeRadio(RadioModel):
    """Per-node transmission range: the link (u -> v) exists iff d(u, v) <= range(u).

    A node with a large range but small-range neighbours produces asymmetric
    links, which GRP must reject through its triple handshake (paper Section 4.1).
    """

    def __init__(self, default_range: float,
                 ranges: Optional[Mapping[Hashable, float]] = None):
        if default_range <= 0:
            raise ValueError("default range must be positive")
        self._default_range = float(default_range)
        self.ranges = dict(ranges or {})
        self._max_range = self._compute_max_range()

    def _compute_max_range(self) -> float:
        if not self.ranges:
            return self._default_range
        return max(self._default_range, max(self.ranges.values()))

    @property
    def default_range(self) -> float:
        """Range of nodes without an override; assigning it notifies networks."""
        return self._default_range

    @default_range.setter
    def default_range(self, value: float) -> None:
        if value <= 0:
            raise ValueError("default range must be positive")
        self._default_range = float(value)
        self._max_range = self._compute_max_range()
        self.notify_mutation()

    def range_of(self, node: Hashable) -> float:
        """Transmission range of ``node``."""
        return float(self.ranges.get(node, self._default_range))

    def set_range(self, node: Hashable, value: float) -> None:
        """Override the transmission range of ``node``.

        Always mutate ranges through this method: it keeps the cached
        :meth:`max_range` (queried on every broadcast) consistent and notifies
        every listening network that its cached neighbourhoods are stale.
        """
        if value <= 0:
            raise ValueError("range must be positive")
        self.ranges[node] = float(value)
        self._max_range = self._compute_max_range()
        self.notify_mutation()

    def clear_range(self, node: Hashable) -> None:
        """Drop the range override of ``node`` (back to ``default_range``)."""
        if self.ranges.pop(node, None) is not None:
            self._max_range = self._compute_max_range()
            self.notify_mutation()

    def in_vicinity(self, sender, receiver, sender_pos, receiver_pos) -> bool:
        return distance(sender_pos, receiver_pos) <= self.range_of(sender)

    def max_range(self) -> Optional[float]:
        return self._max_range

    def deterministic_vicinity(self) -> bool:
        return True

    def uniform_link_radius(self) -> Optional[float]:
        # Without overrides every pair shares the default range; with them
        # the link radius is per-sender and the generic path must run.
        return None if self.ranges else self._default_range

    def __repr__(self) -> str:  # pragma: no cover
        return (f"AsymmetricRangeRadio(default={self._default_range}, "
                f"overrides={len(self.ranges)})")


class ProbabilisticDiskRadio(RadioModel):
    """Disk radio with a fading band.

    Delivery is certain up to ``inner_range``, happens with probability
    ``band_probability`` between ``inner_range`` and ``outer_range``, and never
    beyond.  Topology snapshots (:meth:`link_exists`) use ``inner_range`` so the
    graph used by the predicates only contains reliable links.
    """

    def __init__(self, inner_range: float, outer_range: float,
                 band_probability: float, rng: Optional[np.random.Generator] = None):
        if inner_range <= 0 or outer_range < inner_range:
            raise ValueError("need 0 < inner_range <= outer_range")
        if not 0.0 <= band_probability <= 1.0:
            raise ValueError("band_probability must be in [0, 1]")
        self._inner_range = float(inner_range)
        self._outer_range = float(outer_range)
        self._band_probability = float(band_probability)
        self._rng = rng if rng is not None else np.random.default_rng()

    @property
    def inner_range(self) -> float:
        """Certain-delivery radius; assigning it notifies listening networks."""
        return self._inner_range

    @inner_range.setter
    def inner_range(self, value: float) -> None:
        if value <= 0 or value > self._outer_range:
            raise ValueError("need 0 < inner_range <= outer_range")
        self._inner_range = float(value)
        self.notify_mutation()

    @property
    def outer_range(self) -> float:
        """Fading-band outer radius; assigning it notifies listening networks."""
        return self._outer_range

    @outer_range.setter
    def outer_range(self, value: float) -> None:
        if value < self._inner_range:
            raise ValueError("need 0 < inner_range <= outer_range")
        self._outer_range = float(value)
        self.notify_mutation()

    @property
    def band_probability(self) -> float:
        """Delivery probability inside the fading band."""
        return self._band_probability

    @band_probability.setter
    def band_probability(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError("band_probability must be in [0, 1]")
        self._band_probability = float(value)
        self.notify_mutation()

    def in_vicinity(self, sender, receiver, sender_pos, receiver_pos) -> bool:
        d = distance(sender_pos, receiver_pos)
        if d <= self._inner_range:
            return True
        if d <= self._outer_range:
            return bool(self._rng.random() < self._band_probability)
        return False

    def link_exists(self, sender, receiver, sender_pos, receiver_pos) -> bool:
        return distance(sender_pos, receiver_pos) <= self._inner_range

    def max_range(self) -> Optional[float]:
        return self._outer_range

    def uniform_link_radius(self) -> Optional[float]:
        return self._inner_range

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ProbabilisticDiskRadio(inner={self._inner_range}, "
                f"outer={self._outer_range}, p={self._band_probability})")
