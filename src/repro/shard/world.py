"""One shard's slice of a sharded world: spec, ownership, lifecycle.

Execution model
---------------
The coordinator builds the deployment once from the scenario registry
(:meth:`ShardWorld.build_base`).  A forked ``mp`` worker inherits that
built world and finalizes it in place; in-process hosts share one heap, so
the coordinator pickles the world once (:meth:`ShardWorld.snapshot_base`)
and each host restores its own copy (:meth:`ShardWorld.from_snapshot`).
Either way construction, per-node stream draws, mobility, churn and
topology are *replicated* bit-identically in every shard (they are pure
functions of the spec and seed).  What is *partitioned* is the compute:
each node is owned by exactly one shard (the spatial tile containing its
initial position, see :class:`repro.shard.tiles.TileMap`), and only the
owner runs the node's protocol timers, computations, application traffic
and sends.  Non-owned nodes are full local *mirrors*: they exist, hold
positions, flip their active flags under churn — so receiver sets and
topology snapshots match the single-process run exactly — but they are
never started (:meth:`repro.core.protocol.GRPDeployment.start`), so they
have no timers, and they never receive a message locally.

Cross-shard delivery is captured at **send time** by the stock network's
receiver partition (:meth:`repro.net.network.Network.set_partition`): when
an owned sender's channel decision accepts a receiver owned elsewhere, the
delivery is not scheduled locally but appended to the shard's outbox as
``(recv_time, sender, receiver, payload)``.  The coordinator exchanges
outboxes between synchronized time windows and the receiver's owner applies
them — inline (no event) when ``recv_time`` equals the window time, matching
the zero-delay inline delivery of the stock pipeline, or as a scheduled
``_deliver`` event otherwise.  Capturing at send time (not at a local mirror
delivery event) is what keeps windowed execution with positive lookahead
exact: the decision happens at the same simulated instant as in the
reference run, and the receiving shard gets the message before it executes
anything at or after ``recv_time``.

Event-count parity
------------------
``processed_events`` must merge to the single-process number.  Three event
classes exist:

* **partitioned** events (timers, computations, sends, delayed deliveries,
  traffic) run at exactly one owner — summing is correct;
* **replicated** events (mobility ticks, churn applications) run once per
  shard — each shard counts them in ``shared_events`` and the merge
  subtracts ``(k - 1) *`` that count (asserted equal across shards);
* **zero-delay deliveries** are *no* events in the stock pipeline (delivered
  inline from the broadcast), so cross-shard entries with
  ``recv_time == window time`` are applied inline, not scheduled.

Determinism contract
--------------------
The channel must be per-sender (:class:`repro.shard.channel.PerSenderChannel`
replaces the built lossy channel; the reference fingerprint is this engine at
``shards=1``).  Unsupported pieces raise :class:`ShardUnsupportedError`
rather than silently diverging: :class:`~repro.net.channel.CollisionChannel`
(receiver-side state couples senders), the ``bursty_pubsub`` traffic pattern
(driver-level publisher selection draws over the node census, which differs
per shard), network subclasses, and radios without a uniform link radius
or with a stochastic vicinity (sharded delivery runs on the CSR link state
only, and a partitioned network raises if its radio stops providing one).
Cross-shard deliveries that share an exact timestamp with an event at the
receiving shard are applied after that event rather than seq-interleaved
with it; GRP stores receptions commutatively and never broadcasts
synchronously from handlers, and all stock send/timer times are continuous
random draws, so same-instant cross-shard races do not arise in supported
workloads.  Receiver-side
staleness accounting of the traffic ledger is exact for zero-delay
application channels (remote senders' newest-seq table is per shard);
delayed application channels would report slightly lower staleness.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.mobility.churn import ChurnEvent, ChurnSchedule
from repro.net.channel import CollisionChannel, LossyChannel, PerfectChannel
from repro.net.network import Network
from repro.obs import current as _obs_current
from repro.scenarios.registry import build as build_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sim.collector import collector_paused
from repro.sim.randomness import derive_seed
from repro.traffic.generators import TrafficDriver
from repro.traffic.spec import TrafficSpec

from .channel import PerSenderChannel
from .tiles import TileMap

__all__ = ["ShardSpec", "ShardWorld", "ShardUnsupportedError", "SUPPORTED_TRAFFIC"]

#: Traffic patterns whose random draws are per-node (invariant under
#: partitioning the node census across workers).
SUPPORTED_TRAFFIC = frozenset({"periodic_beacon", "request_reply", "state_sync"})

#: An outbox entry: (absolute receive time, sender, receiver, payload).
OutboxEntry = Tuple[float, Hashable, Hashable, Any]


class ShardUnsupportedError(RuntimeError):
    """The requested world cannot be sharded bit-identically."""


@dataclass(frozen=True)
class ShardSpec:
    """Complete, picklable description of one sharded run.

    A pure value object: every shard's world derives from this spec alone,
    so the spec must capture everything the single-process run would
    configure (scenario, churn, traffic).  A spec with ``shards < 1`` or
    ``duration <= 0`` raises :class:`ValueError` when it is made, and one
    whose traffic pattern is not in :data:`SUPPORTED_TRAFFIC` raises
    :class:`ShardUnsupportedError`.
    """

    scenario: str
    params: Tuple[Tuple[str, object], ...]
    seed: int
    duration: float
    shards: int = 1
    churn: Tuple[Tuple[float, Hashable, bool], ...] = ()
    traffic: Optional[Tuple[str, Tuple[Tuple[str, object], ...]]] = None
    traffic_seed: Optional[int] = None
    #: Collect the full determinism fingerprint (views, topology edges,
    #: per-node payload sizes).  Benchmarks turn it off: a 100k-node
    #: topology snapshot is pure fingerprint overhead.
    fingerprint: bool = True

    def __post_init__(self):
        # Checked before any build: a bad value would otherwise surface
        # only after the world is built, or not at all.
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards!r}")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration!r}")
        if self.traffic is not None and self.traffic[0] not in SUPPORTED_TRAFFIC:
            raise ShardUnsupportedError(
                f"traffic pattern {self.traffic[0]!r} draws randomness over the whole "
                f"node census and cannot be partitioned; supported: "
                f"{sorted(SUPPORTED_TRAFFIC)}")

    @classmethod
    def create(cls, scenario: str, *, seed: int, duration: float, shards: int = 1,
               params: Optional[Dict[str, object]] = None, churn=(),
               traffic: Optional[str] = None,
               traffic_params: Optional[Dict[str, object]] = None,
               traffic_seed: Optional[int] = None,
               fingerprint: bool = True) -> "ShardSpec":
        """Build a spec from keyword arguments (dicts and ChurnEvents ok)."""
        churn_rows = []
        for event in churn:
            if isinstance(event, ChurnEvent):
                churn_rows.append((float(event.time), event.node_id, bool(event.active)))
            else:
                time, node_id, active = event
                churn_rows.append((float(time), node_id, bool(active)))
        traffic_value = None
        if traffic is not None:
            traffic_value = (str(traffic), tuple(sorted((traffic_params or {}).items())))
        return cls(scenario=str(scenario),
                   params=tuple(sorted((params or {}).items())),
                   seed=int(seed), duration=float(duration), shards=int(shards),
                   churn=tuple(churn_rows),
                   traffic=traffic_value, traffic_seed=traffic_seed,
                   fingerprint=bool(fingerprint))


class ShardWorld:
    """One shard's fully built slice of the run described by ``spec``.

    Construction has two halves.  :meth:`build_base` runs the scenario
    builder and channel swap — the shard-independent part — and
    :meth:`snapshot_base` pickles its result once.  ``__init__`` does the
    shard-specific part on a built ``(deployment, lookahead)``: tiling,
    ownership, the network's receiver partition, traffic/churn attachment
    and the start of the owned processes (mirrors are never started).  A
    forked ``mp`` worker runs ``__init__`` straight on the build it
    inherited; :meth:`from_snapshot` restores the blob and runs ``__init__``
    on it, for in-process hosts that need independent copies —
    O(build + shards × restore) instead of O(shards × build).  Nothing
    shard-specific (and nothing random) happens between the build and
    ``__init__``: the sim queue is empty, the event-seq counter is 0 and
    all RNG states are exactly post-build, so
    ``ShardWorld(spec, k, *ShardWorld.build_base(spec))`` is the
    bit-identical in-process reference of a restored world.  The build, the
    restore and ``__init__`` all run with the cyclic collector paused
    (:class:`~repro.sim.collector.collector_paused`).

    ``base_phase_s`` records how long the shard-independent half took on
    this instance — the snapshot unpickle in :meth:`from_snapshot`, 0.0 on
    a world finalized from a build in memory.
    """

    def __init__(self, spec: ShardSpec, shard_id: int, deployment,
                 lookahead: float, base_phase_s: float = 0.0):
        if not 0 <= shard_id < spec.shards:
            raise ValueError(f"shard_id {shard_id} out of range [0, {spec.shards})")
        with collector_paused():
            self.spec = spec
            self.shard_id = shard_id
            self.base_phase_s = base_phase_s
            self.outbox = []
            self.shared_events = 0
            self.remote_in = 0
            self.deployment = deployment
            self.sim = deployment.sim
            network = deployment.network
            self.network = network
            self.lookahead = lookahead

            # Re-capture the process-local obs context before anything
            # shard-specific runs: a snapshot-restored or fork-inherited
            # deployment carries the builder process's (usually absent)
            # handles, so without this a worker would be observationally blind.
            obs = _obs_current()
            self._obs = obs
            self._obs_windows = obs.registry.counter("shard.windows") if obs else None
            self._obs_outbox = (obs.registry.counter("shard.outbox_entries")
                                if obs else None)
            self._obs_remote = obs.registry.counter("shard.remote_in") if obs else None
            deployment.sim.recapture_obs()
            network.recapture_obs()
            for node in deployment.nodes.values():
                if hasattr(node, "_obs"):
                    node._obs = obs

            positions = dict(network.positions)
            self.tiles = TileMap.from_positions(positions, network.radio.max_range(),
                                                spec.shards)
            self.owners: Dict[Hashable, int] = self.tiles.assign(positions)
            self.owned: List[Hashable] = sorted(
                (nid for nid, tile in self.owners.items() if tile == shard_id), key=str)
            owned_set = set(self.owned)
            if spec.shards > 1:
                network.set_partition(self.owners, shard_id, self.outbox)

            self._count_mobility(network)
            self.driver = self._attach_traffic(deployment, owned_set)
            self.churn = self._install_churn(spec.churn)

            deployment.start()

    @classmethod
    def from_snapshot(cls, spec: ShardSpec, shard_id: int,
                      blob: bytes) -> "ShardWorld":
        """Restore the shared post-build state, then finalize this shard."""
        obs = _obs_current()
        obs_t0 = obs.clock() if obs is not None else 0
        t0 = time.perf_counter()
        try:
            with collector_paused():
                deployment, lookahead = pickle.loads(blob)
        except Exception as exc:  # pragma: no cover - defensive
            raise ShardUnsupportedError(
                f"world snapshot failed to restore: {exc!r}") from exc
        base_phase_s = time.perf_counter() - t0
        if obs is not None:
            obs.record_span("shard.snapshot_restore", 0.0, obs_t0,
                            {"bytes": len(blob)})
        return cls(spec, shard_id, deployment, lookahead, base_phase_s)

    # ------------------------------------------------------------------ build

    @staticmethod
    def build_base(spec: ShardSpec):
        """Scenario build + channel swap: everything shard-independent.

        Returns ``(deployment, lookahead)`` — the exact state every shard
        restores from the snapshot and finalizes.
        """
        deployment = build_scenario(
            ScenarioSpec.create(spec.scenario, **dict(spec.params)), seed=spec.seed)
        network = deployment.network
        if type(network) is not Network:
            raise ShardUnsupportedError(
                f"cannot shard a {type(network).__name__}; only the stock Network "
                "carries the receiver partition")
        radio = network.radio
        max_range = radio.max_range()
        if max_range is None or max_range <= 0:
            raise ShardUnsupportedError(
                "sharding needs a bounded radio (max_range() > 0) to derive "
                "spatial tiles and halo widths")
        if radio.uniform_link_radius() is None or not radio.deterministic_vicinity():
            raise ShardUnsupportedError(
                f"cannot shard a {type(radio).__name__} without a uniform link "
                "radius and a deterministic vicinity: sharded delivery runs on "
                "the CSR link state only")

        lookahead = ShardWorld._swap_channel(network, spec.seed)
        return deployment, lookahead

    @staticmethod
    def snapshot_base(spec: ShardSpec) -> bytes:
        """Build once and pickle the shared post-build state.

        The blob captures the deployment wholesale — NodeArrayStore arrays,
        per-node protocol state, per-sender RNG states, the (empty) event
        queue — so an in-process host's restore skips the scenario builder
        entirely.  Worlds holding unpicklable pieces (tracers, observability
        handles with live clocks) raise :class:`ShardUnsupportedError`.
        """
        deployment, lookahead = ShardWorld.build_base(spec)
        try:
            return pickle.dumps((deployment, lookahead),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ShardUnsupportedError(
                f"world state is not snapshot-serializable: {exc!r}") from exc

    @staticmethod
    def _swap_channel(network: Network, seed: int) -> float:
        """Replace the built channel with a partition-invariant one.

        Returns the cross-shard lookahead: the minimum delay any channel
        decision can assign, i.e. how far ahead a shard may run before it
        could receive something it has not been told about.
        """
        channel = network.channel
        if isinstance(channel, CollisionChannel):
            raise ShardUnsupportedError(
                "CollisionChannel couples senders through receiver-side state "
                "and cannot be partitioned bit-identically")
        if isinstance(channel, LossyChannel):
            network.channel = PerSenderChannel.from_lossy(
                channel, derive_seed(seed, "shard/channel"))
            return network.channel.min_delay
        if isinstance(channel, PerfectChannel):
            # Deterministic: no RNG to partition, keep it as built.
            return channel.delay
        raise ShardUnsupportedError(
            f"cannot shard channel model {type(channel).__name__}")

    def _count_mobility(self, network: Network) -> None:
        """Wrap the mobility model's step to count replicated tick events."""
        model = network.mobility
        if model is None:
            return
        original_step = model.step
        world = self

        def counted_step(positions, dt):
            world.shared_events += 1
            return original_step(positions, dt)

        model.step = counted_step

    def _attach_traffic(self, deployment, owned_set) -> Optional[TrafficDriver]:
        spec = self.spec
        if spec.traffic is None:
            return None
        name, params = spec.traffic
        nodes = deployment.nodes
        owned_nodes = {nid: nodes[nid] for nid in nodes if nid in owned_set}

        def group_of(node_id, _nodes=nodes):
            return _nodes[node_id].current_view()

        seed = spec.traffic_seed if spec.traffic_seed is not None else spec.seed
        driver = TrafficDriver(sim=self.sim, network=self.network,
                               processes=owned_nodes,
                               spec=TrafficSpec.create(name, **dict(params)),
                               seed=seed, group_of=group_of)
        driver.start()
        return driver

    def _install_churn(self, churn_rows) -> Optional[ChurnSchedule]:
        if not churn_rows:
            return None
        schedule = ChurnSchedule([ChurnEvent(time=t, node_id=n, active=a)
                                  for t, n, a in churn_rows])
        for event in schedule.events:
            self.sim.schedule_at(event.time, self._churn_fire, schedule, event)
        return schedule

    def _churn_fire(self, schedule: ChurnSchedule, event: ChurnEvent) -> None:
        # Replicated in every shard: counted as shared so the merged
        # processed_events subtracts the duplicates.
        self.shared_events += 1
        schedule._apply(self.network, event)

    # ------------------------------------------------------------- round loop

    def peek(self) -> Optional[float]:
        """Earliest pending local event time (``None`` when idle)."""
        return self.sim.peek_time()

    def run_round(self, end: float, inclusive: bool) -> List[OutboxEntry]:
        """Run one synchronized window and return the captured outbox."""
        obs = self._obs
        t0 = obs.clock() if obs is not None else 0
        self.sim.run_window(end, inclusive=inclusive)
        # Drain in place: the network holds a reference to this exact list.
        out = self.outbox[:]
        self.outbox.clear()
        if obs is not None:
            self._obs_windows.inc()
            if out:
                self._obs_outbox.inc(len(out))
            obs.record_span("shard.window", end, t0,
                            {"outbox": len(out)} if out else None)
        return out

    def apply(self, round_time: float, entries: List[OutboxEntry]) -> None:
        """Apply remote deliveries routed to this shard for the round at
        ``round_time``.

        Entries at the round time itself are zero-delay deliveries: the
        stock pipeline delivers those inline from the broadcast (no event),
        so they are applied inline here too — event-count parity.  Later
        entries become ordinary ``_deliver`` events.
        """
        sim = self.sim
        deliver = self.network._deliver
        self.remote_in += len(entries)
        if self._obs_remote is not None:
            self._obs_remote.inc(len(entries))
        for recv_time, sender, receiver, payload in entries:
            if recv_time <= round_time:
                sim.advance_clock(recv_time)
                deliver(sender, receiver, payload)
            else:
                sim.schedule_at(recv_time, deliver, sender, receiver, payload)

    # ---------------------------------------------------------------- results

    def finish(self, duration: float) -> Dict[str, Any]:
        """This shard's contribution to the merged run result."""
        network = self.network
        deployment = self.deployment
        owned_set = set(self.owned)
        nodes = deployment.nodes
        channel = network.channel
        parts: Dict[str, Any] = {
            "shards": self.spec.shards,
            "shard_id": self.shard_id,
            "node_count": sum(1 for nid in nodes if nid in owned_set),
            "total_nodes": len(nodes),
            "processed_events": self.sim.processed_events,
            "shared_events": self.shared_events,
            "sent": network.messages_sent,
            "delivered": network.messages_delivered,
            "dropped": network.messages_dropped,
            "remote_in": self.remote_in,
            "sim_rng": repr(self.sim.rng.bit_generator.state),
            "channel_rng": (channel.rng_states(owned_set)
                            if isinstance(channel, PerSenderChannel) else {}),
        }
        if self.spec.fingerprint:
            parts["views"] = {nid: view for nid, view in deployment.views().items()
                              if nid in owned_set}
            parts["edges"] = {frozenset(e) for e in deployment.link_snapshot().edges()}
            # Replicated protocol constant, shipped so an observed coordinator
            # can evaluate the final configuration's predicates.
            parts["dmax"] = deployment.config.dmax
            payload_sizes = []
            computations = 0
            for nid, node in nodes.items():
                if nid not in owned_set:
                    continue
                payload_sizes.append(node.outgoing_message().size_estimate())
                computations += node.computations
            parts["payload_total"] = sum(payload_sizes)
            parts["payload_count"] = len(payload_sizes)
            parts["computations"] = computations
        if self.driver is not None:
            ledger = self.driver.ledger
            # The obs handle is process-local and not picklable state worth
            # shipping; drop it before the ledger crosses the pipe.
            ledger._obs = None
            ledger._obs_sends = None
            ledger._obs_receptions = None
            parts["ledger"] = ledger
        return parts
