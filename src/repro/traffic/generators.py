"""Workload generators and the driver that attaches them to deployments.

A :class:`TrafficDriver` wires one registered generator
(:mod:`repro.traffic.registry`) to a running deployment: it installs an
application-message handler on every process (the ``app_handler`` hook of
:class:`repro.sim.process.Process`), hands the generator seeded per-node
random streams, injects :class:`~repro.traffic.ledger.AppMessage` payloads
through ``network.broadcast`` — so application traffic rides the exact same
delivery pipeline (link-state receiver lists, batched channel
decisions, bulk scheduling) as the protocol's own messages — and records
every send and reception in a :class:`~repro.traffic.ledger.DeliveryLedger`.

Messages are *scoped to the sender's current group*: the group (by default
the GRP node's ``current_view()``) is captured at send time and stamped on
the message, so the ledger can judge deliveries against the set of nodes the
service promised.

Determinism contract
--------------------
* Per-node random streams derive from ``(seed, spec digest, node id)`` via
  :func:`repro.sim.randomness.derive_seed`; nodes are enumerated sorted by
  ``str`` so no stream assignment ever depends on ``PYTHONHASHSEED``.  The
  streams are built in one batch (:func:`repro.sim.randomness.generators`);
  each equals ``np.random.default_rng`` of its derived seed.
* Generators never broadcast synchronously from a delivery handler — replies
  and relays go through ``sim.schedule`` — so the batched and per-receiver
  delivery paths replay bit-identically (the ``on_message`` contract of
  :mod:`repro.net.network`).
* Bursts are bulk-inserted through ``sim.schedule_many`` (one amortized
  heap operation per burst, contiguous sequence numbers).
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional

import numpy as np

from repro.scenarios.registry import ScenarioParameter
from repro.sim.randomness import derive_seed, generators

from .ledger import AppMessage, DeliveryLedger
from .registry import get_traffic, normalize_traffic_spec, traffic_pattern
from .spec import TrafficSpec

__all__ = ["TrafficGenerator", "TrafficDriver", "attach_traffic"]


class TrafficGenerator:
    """Base class of registered workload generators.

    One instance drives the whole deployment (not one per node).  Subclasses
    schedule their send events from :meth:`start` and may react to deliveries
    in :meth:`on_delivery` — never by broadcasting synchronously, always by
    scheduling through ``self.driver.sim``.
    """

    def __init__(self, driver: "TrafficDriver"):
        self.driver = driver

    def start(self) -> None:
        """Schedule the initial send events (called once by the driver)."""
        raise NotImplementedError

    def on_delivery(self, receiver: Hashable, msg: AppMessage) -> None:
        """React to ``receiver`` getting ``msg`` (replies, relays, ...)."""


class TrafficDriver:
    """Attaches one traffic workload to a simulator + network + processes.

    Parameters
    ----------
    sim, network:
        The deployment's simulator and network (duck-typed; anything with
        ``schedule``/``schedule_many``/``now`` and ``broadcast`` works).
    processes:
        Mapping node id -> :class:`~repro.sim.process.Process`; every process
        gets the driver's delivery handler installed on its ``app_handler``
        hook.
    spec:
        The traffic spec (normalized against the registry here).
    seed:
        Master seed of the workload; per-node streams derive from it.  The
        node ``nid``'s stream equals ``np.random.default_rng(derive_seed(seed,
        f"traffic/{spec_key}/node/{nid}"))``; all of them are built in one
        batch at construction.
    group_of:
        ``node id -> current group`` provider; defaults (in
        :func:`attach_traffic`) to the GRP node's ``current_view``.
    ledger:
        Optional pre-existing ledger (a fresh one is created otherwise).
    """

    def __init__(self, sim, network, processes: Dict[Hashable, object],
                 spec: TrafficSpec, seed: int = 0,
                 group_of: Optional[Callable[[Hashable], FrozenSet[Hashable]]] = None,
                 ledger: Optional[DeliveryLedger] = None):
        self.sim = sim
        self.network = network
        self.spec = normalize_traffic_spec(spec)
        self.seed = int(seed)
        self.ledger = ledger if ledger is not None else DeliveryLedger()
        self._processes = dict(processes)
        #: Enumeration order of every per-node structure: sorted by str, so
        #: stream assignment is independent of dict insertion and hash order.
        self.node_ids: List[Hashable] = sorted(self._processes, key=str)
        self._group_of = group_of if group_of is not None else self._singleton_group
        self._stream_base = f"traffic/{self.spec.spec_key()}"
        self._rngs: Dict[Hashable, np.random.Generator] = dict(zip(
            self.node_ids,
            generators([derive_seed(self.seed, f"{self._stream_base}/node/{nid}")
                        for nid in self.node_ids])))
        self._seq: Dict[Hashable, int] = dict.fromkeys(self.node_ids, 0)
        definition = get_traffic(self.spec.name)
        params = definition.resolve_params(self.spec.param_dict)
        self.generator: TrafficGenerator = definition.factory(self, **params)
        self._started = False

    # ------------------------------------------------------------ plumbing

    @staticmethod
    def _singleton_group(node_id: Hashable) -> FrozenSet[Hashable]:
        return frozenset({node_id})

    def rng(self, node_id: Hashable) -> np.random.Generator:
        """The node's independent random stream."""
        return self._rngs[node_id]

    def stream(self, name: str) -> np.random.Generator:
        """An extra driver-level stream (e.g. publisher selection)."""
        return np.random.default_rng(
            derive_seed(self.seed, f"{self._stream_base}/{name}"))

    def group_of(self, node_id: Hashable) -> FrozenSet[Hashable]:
        """The node's current group (the scope of its next message)."""
        return self._group_of(node_id)

    def has_node(self, node_id: Hashable) -> bool:
        """Whether the node still exists (generators stop rescheduling it)."""
        return node_id in self._processes

    def start(self) -> None:
        """Install delivery handlers and schedule the generator (idempotent)."""
        if self._started:
            return
        self._started = True
        for node_id in self.node_ids:
            self._processes[node_id].app_handler = functools.partial(
                self._on_delivery, node_id)
        self.generator.start()

    # ------------------------------------------------------------ data path

    def send(self, node_id: Hashable, size: int, data: object = None) -> Optional[AppMessage]:
        """Inject one application message from ``node_id``, group-scoped.

        Returns the message, or ``None`` when the node is gone or powered
        off (nothing is sent or recorded — a sleeping node's application does
        not produce traffic).
        """
        proc = self._processes.get(node_id)
        if proc is None or not proc._active:
            return None
        seq = self._seq[node_id] + 1
        self._seq[node_id] = seq
        msg = AppMessage(kind=self.spec.name, sender=node_id, seq=seq,
                         send_time=self.sim.now, group=self.group_of(node_id),
                         size=size, data=data)
        self.ledger.record_send(msg)
        # The ledger records the send whether or not anyone receives it, so
        # the message exists before the network asks for it.
        self.network.broadcast(node_id, lambda: msg)
        return msg

    def _on_delivery(self, receiver: Hashable, sender: Hashable, payload: object) -> None:
        """Reception hook installed on every process (one partial per node)."""
        self.ledger.record_delivery(receiver, payload, self.sim.now)
        self.generator.on_delivery(receiver, payload)


def attach_traffic(deployment, spec: TrafficSpec, seed: int = 0,
                   group_of: Optional[Callable[[Hashable], FrozenSet[Hashable]]] = None,
                   ledger: Optional[DeliveryLedger] = None) -> TrafficDriver:
    """Attach (and start) a traffic workload on a GRP deployment.

    ``group_of`` defaults to each node's ``current_view()`` — application
    messages are scoped to the GRP group the sender belongs to at send time.
    One driver per deployment: the driver owns the ``app_handler`` hook of
    every process.
    """
    nodes = deployment.nodes
    if group_of is None:
        def group_of(node_id, _nodes=nodes):
            return _nodes[node_id].current_view()
    driver = TrafficDriver(sim=deployment.sim, network=deployment.network,
                           processes=nodes, spec=spec, seed=seed,
                           group_of=group_of, ledger=ledger)
    driver.start()
    return driver


# ----------------------------------------------------------------- catalog

@traffic_pattern(
    "periodic_beacon",
    "Every node beacons a group-scoped payload at a fixed, jittered period",
    [ScenarioParameter("interval", "float", 1.0, "send period per node (seconds)"),
     ScenarioParameter("jitter", "float", 0.1, "relative period jitter (desynchronizes nodes)"),
     ScenarioParameter("size", "int", 64, "payload size (bytes)")])
class PeriodicBeacon(TrafficGenerator):
    """The canonical group-application heartbeat (presence / telemetry)."""

    def __init__(self, driver: TrafficDriver, *, interval: float, jitter: float,
                 size: int):
        super().__init__(driver)
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.jitter = max(0.0, min(float(jitter), 0.99))
        self.size = size

    def start(self) -> None:
        for node_id in self.driver.node_ids:
            # Seeded phase offset: nodes never beacon in lockstep.
            phase = float(self.driver.rng(node_id).uniform(0.0, self.interval))
            self.driver.sim.schedule(phase, self._fire, node_id)

    def _fire(self, node_id: Hashable) -> None:
        if not self.driver.has_node(node_id):
            return
        self.driver.send(node_id, self.size)
        wobble = float(self.driver.rng(node_id).uniform(-self.jitter, self.jitter))
        self.driver.sim.schedule(self.interval * (1.0 + wobble), self._fire, node_id)


@traffic_pattern(
    "bursty_pubsub",
    "A subset of publisher nodes emits message bursts at random gaps",
    [ScenarioParameter("publisher_fraction", "float", 0.25, "fraction of nodes that publish"),
     ScenarioParameter("mean_gap", "float", 5.0, "mean idle time between bursts (exponential)"),
     ScenarioParameter("burst_size", "int", 8, "messages per burst"),
     ScenarioParameter("spacing", "float", 0.02, "gap between messages inside a burst"),
     ScenarioParameter("size", "int", 256, "payload size (bytes)")])
class BurstyPubSub(TrafficGenerator):
    """Publish/subscribe-style load: quiet periods punctured by bursts.

    Each burst is bulk-inserted through ``sim.schedule_many`` — one amortized
    heap operation per burst, with the contiguous sequence numbers individual
    ``schedule`` calls would have produced.
    """

    def __init__(self, driver: TrafficDriver, *, publisher_fraction: float,
                 mean_gap: float, burst_size: int, spacing: float, size: int):
        super().__init__(driver)
        if not 0.0 < publisher_fraction <= 1.0:
            raise ValueError("publisher_fraction must be in (0, 1]")
        if mean_gap <= 0 or burst_size < 1 or spacing < 0:
            raise ValueError("mean_gap must be > 0, burst_size >= 1, spacing >= 0")
        self.mean_gap = mean_gap
        self.burst_size = burst_size
        self.spacing = spacing
        self.size = size
        nodes = driver.node_ids
        count = max(1, round(publisher_fraction * len(nodes))) if nodes else 0
        picks = driver.stream("publishers").choice(len(nodes), size=count,
                                                   replace=False) if count else []
        self.publishers = [nodes[i] for i in sorted(int(i) for i in picks)]

    def start(self) -> None:
        for node_id in self.publishers:
            gap = float(self.driver.rng(node_id).exponential(self.mean_gap))
            self.driver.sim.schedule(gap, self._burst, node_id)

    def _burst(self, node_id: Hashable) -> None:
        if not self.driver.has_node(node_id):
            return
        delays = [i * self.spacing for i in range(self.burst_size)]
        self.driver.sim.schedule_many(delays, self._burst_send,
                                      [(node_id,)] * self.burst_size)
        span = (self.burst_size - 1) * self.spacing
        gap = float(self.driver.rng(node_id).exponential(self.mean_gap))
        self.driver.sim.schedule(span + gap, self._burst, node_id)

    def _burst_send(self, node_id: Hashable) -> None:
        self.driver.send(node_id, self.size)


@traffic_pattern(
    "request_reply",
    "Nodes poll their group; every member answers after a service delay",
    [ScenarioParameter("interval", "float", 2.0, "request period per node (seconds)"),
     ScenarioParameter("reply_delay", "float", 0.05, "service time before a member replies"),
     ScenarioParameter("size", "int", 128, "request payload size (bytes)"),
     ScenarioParameter("reply_size", "int", 64, "reply payload size (bytes)")])
class RequestReply(TrafficGenerator):
    """Round-trip workload: the ledger records request→first-reply latency.

    Replies are *scheduled* (never sent synchronously from the delivery
    handler), honouring the no-synchronous-broadcast contract of the batched
    delivery pipeline.
    """

    def __init__(self, driver: TrafficDriver, *, interval: float, reply_delay: float,
                 size: int, reply_size: int):
        super().__init__(driver)
        if interval <= 0 or reply_delay < 0:
            raise ValueError("interval must be > 0 and reply_delay >= 0")
        self.interval = interval
        self.reply_delay = reply_delay
        self.size = size
        self.reply_size = reply_size

    def start(self) -> None:
        for node_id in self.driver.node_ids:
            phase = float(self.driver.rng(node_id).uniform(0.0, self.interval))
            self.driver.sim.schedule(phase, self._fire, node_id)

    def _fire(self, node_id: Hashable) -> None:
        if not self.driver.has_node(node_id):
            return
        msg = self.driver.send(node_id, self.size, data="req")
        if msg is not None and len(msg.group) > 1:
            self.driver.ledger.record_request(node_id, msg.seq, msg.send_time)
        self.driver.sim.schedule(self.interval, self._fire, node_id)

    def on_delivery(self, receiver: Hashable, msg: AppMessage) -> None:
        data = msg.data
        if data == "req":
            if receiver in msg.group:
                self.driver.sim.schedule(self.reply_delay, self._reply,
                                         receiver, msg.sender, msg.seq)
        elif isinstance(data, tuple) and data[0] == "rep":
            _, requester, request_seq = data
            if receiver == requester:
                self.driver.ledger.record_reply(requester, request_seq,
                                                self.driver.sim.now)

    def _reply(self, replier: Hashable, requester: Hashable, request_seq: int) -> None:
        if not self.driver.has_node(replier):
            return
        self.driver.send(replier, self.reply_size, data=("rep", requester, request_seq))


@traffic_pattern(
    "state_sync",
    "Versioned state gossip: publish periodically, relay fresh versions once",
    [ScenarioParameter("interval", "float", 1.5, "publish period per node (seconds)"),
     ScenarioParameter("size", "int", 512, "state payload size (bytes)"),
     ScenarioParameter("relay", "bool", True, "re-broadcast a version the first time it is learnt"),
     ScenarioParameter("relay_delay", "float", 0.02, "delay before a relay is sent")])
class StateSync(TrafficGenerator):
    """Anti-entropy style state dissemination over the group.

    Every node owns a monotonically versioned state (the message ``seq``
    doubles as the version).  Receivers track the newest version they have
    per publisher and — when ``relay`` is on — re-broadcast a version exactly
    once on first learning it, via a scheduled send.  The ledger's staleness
    columns measure how many versions behind deliveries run.
    """

    def __init__(self, driver: TrafficDriver, *, interval: float, size: int,
                 relay: bool, relay_delay: float):
        super().__init__(driver)
        if interval <= 0 or relay_delay < 0:
            raise ValueError("interval must be > 0 and relay_delay >= 0")
        self.interval = interval
        self.size = size
        self.relay = relay
        self.relay_delay = relay_delay
        #: (holder, publisher) -> newest version held.
        self._known: Dict[tuple, int] = {}

    def start(self) -> None:
        for node_id in self.driver.node_ids:
            phase = float(self.driver.rng(node_id).uniform(0.0, self.interval))
            self.driver.sim.schedule(phase, self._publish, node_id)

    def _publish(self, node_id: Hashable) -> None:
        if not self.driver.has_node(node_id):
            return
        msg = self.driver.send(node_id, self.size, data="state")
        if msg is not None:
            self._known[(node_id, node_id)] = msg.seq
        self.driver.sim.schedule(self.interval, self._publish, node_id)

    def on_delivery(self, receiver: Hashable, msg: AppMessage) -> None:
        if msg.data == "state":
            origin, version = msg.sender, msg.seq
        elif isinstance(msg.data, tuple) and msg.data[0] == "relay":
            _, origin, version = msg.data
        else:
            return
        key = (receiver, origin)
        if version <= self._known.get(key, 0):
            return
        self._known[key] = version
        if self.relay:
            self.driver.sim.schedule(self.relay_delay, self._relay,
                                     receiver, origin, version)

    def _relay(self, node_id: Hashable, origin: Hashable, version: int) -> None:
        if not self.driver.has_node(node_id):
            return
        self.driver.send(node_id, self.size, data=("relay", origin, version))
