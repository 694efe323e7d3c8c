"""The wireless network: nodes, positions, broadcast delivery, churn.

:class:`Network` glues together the simulator, a radio model (who can hear
whom), a channel model (losses, delays, collisions), a mobility model (how
positions evolve) and the protocol processes attached to each node.

A broadcast from node ``u`` is delivered to every *active* node ``v`` such that
``u`` is in the vicinity of ``v`` at emission time, unless the channel decides
to drop it.  Delivery happens after the channel delay, through the process
:meth:`repro.sim.process.Process.deliver` hook.

Neighbour engine
----------------
The network computes the vicinity relation one of three ways, chosen only by
what the radio reports:

* **CSR link state** — the radio has a uniform link radius
  (:meth:`~repro.net.radio.RadioModel.uniform_link_radius`) and a bounded
  :meth:`~repro.net.radio.RadioModel.max_range`.  The links live in the
  int32 CSR :class:`~repro.net.arraystate.ArrayLinkState` over the
  :class:`~repro.net.arraystate.NodeArrayStore`, patched in place for small
  position deltas and rebuilt for large ones.  Every registered scenario
  takes this path.
* **Grid-candidate scan** — the radio has a bounded ``max_range()`` but no
  uniform radius (per-node ranges).  Broadcasts of a stochastic-vicinity
  radio take it too (its snapshots still come from the CSR when it has a
  uniform link radius).  Candidates come from a
  :class:`~repro.net.spatialindex.UniformGridIndex` and the radio tests
  each one.
* **Brute-force scan** — ``max_range()`` is ``None``: every other node is a
  candidate.  Tests use it as the reference for the two paths above.

Topology snapshots are cached behind a *generation stamp*: every position
change (``set_position``, mobility steps), membership change (``add_node`` /
``remove_node``) and activation change bumps the generation, and a snapshot
is rebuilt only when its stamp is stale.  Stock radios notify the network of
in-place parameter mutations (their setters call
:meth:`~repro.net.radio.RadioModel.notify_mutation`); custom radios mutated
through private state must be followed by an explicit
:meth:`Network.invalidate_topology`.

Batched delivery
----------------
On the CSR path, broadcasts from radios whose vicinity test is deterministic
(:meth:`~repro.net.radio.RadioModel.deterministic_vicinity`) are batched: the
receiver list is served from the sender's CSR row (zero distance tests), the
channel decides the whole batch in one
:meth:`~repro.net.channel.ChannelModel.decide_batch` call (vectorized RNG
draws consuming the identical stream as the scalar loop), drops are counted
in bulk and positive-delay receivers are bulk-inserted through
:meth:`~repro.sim.engine.Simulator.schedule_many`.  The two scan paths run
the per-receiver loop; seeded runs replay bit-identically on all three paths
— the invariant ``tests/test_replay_determinism.py`` enforces at 500 nodes.
One contract makes this exact: processes must not *synchronously* broadcast
or flip activation from inside ``on_message`` (every protocol in this
repository does both through timers); the batched path decides the whole
receiver batch ahead of its same-tick deliveries, so a synchronous side
effect would interleave channel draws — or shrink the receiver set —
differently than the scalar path.

Receiver partition
------------------
A sharded run (:mod:`repro.shard`) installs a partition with
:meth:`Network.set_partition`: an owner map, this worker's shard id and an
outbox list.  The channel still decides the whole receiver batch, but an
accepted receiver owned by another shard is appended to the outbox as
``(now + delay, sender, receiver, payload)``, in receiver order, instead of
being delivered here.  The "owned elsewhere" mask is cached next to each
sender's receivers, so a static world computes it once per sender.  A
partitioned network delivers on the CSR link state only: if the radio stops
providing one, :meth:`Network.broadcast` raises.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.obs import current as _obs_current
from repro.sim.engine import Simulator
from repro.sim.process import Process

from .arraystate import ArrayLinkState, NodeArrayStore
from .channel import ChannelModel, PerfectChannel
from .geometry import Point
from .radio import RadioModel
from .spatialindex import UniformGridIndex
from .topology import LinkSnapshot

__all__ = ["Network"]


class Network:
    """A dynamic wireless network of protocol processes.

    Parameters
    ----------
    sim:
        The discrete-event simulator the network runs on.
    radio:
        Vicinity model.
    channel:
        Loss/delay/collision model (defaults to a perfect channel).
    mobility:
        Optional mobility model (see :mod:`repro.mobility`); if given,
        :meth:`start_mobility` schedules periodic position updates.

    The neighbour engine (CSR link state, grid scan or brute-force scan) is
    chosen by the radio alone; see the module docstring.
    """

    def __init__(self, sim: Simulator, radio: RadioModel,
                 channel: Optional[ChannelModel] = None,
                 mobility: Optional[Any] = None):
        self.sim = sim
        self.radio = radio
        self.channel = channel if channel is not None else PerfectChannel()
        self.mobility = mobility
        self._store: Optional[NodeArrayStore] = None
        self._array_ls: Optional[ArrayLinkState] = None
        self._processes: Dict[Hashable, Process] = {}
        self._positions: Dict[Hashable, Point] = {}
        self._order: Dict[Hashable, int] = {}
        # A plain int, not itertools.count(): counts don't pickle, and the
        # sharded snapshot-restore path serializes built networks wholesale.
        self._next_order = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        #: True while every attached process uses the stock ``deliver``;
        #: unlocks direct ``on_message`` dispatch in the batched loop.  Only
        #: ever cleared (a conservative latch: removing the one overriding
        #: process doesn't re-arm the fast path).
        self._stock_deliver = True
        self._mobility_handle = None
        self._position_listeners: List[Callable[[float, Dict[Hashable, Point]], None]] = []
        self._index: Optional[UniformGridIndex] = None
        #: sender -> (generation, link state, active sorted receivers, their
        #: processes as list and object ndarray, the "owned elsewhere" mask);
        #: hello-beacon traffic re-broadcasts between topology changes, so the
        #: filtered receiver batch is reused until a position/membership/
        #: activation change bumps the generation or a radio change replaces
        #: the CSR link state.
        self._receiver_cache: Dict[Hashable,
                                   Tuple[int, ArrayLinkState, List[Hashable],
                                         List[Process], np.ndarray,
                                         Optional[np.ndarray]]] = {}
        #: (owner map, shard id, outbox) of a sharded run; see
        #: :meth:`set_partition`.
        self._partition: Optional[Tuple[Mapping[Hashable, int], int, list]] = None
        self._generation = 0
        self._topo_cache: Optional[LinkSnapshot] = None
        self._topo_cache_key: Optional[Tuple[int, Optional[float]]] = None
        self._directed_cache: Optional[Tuple[List[Hashable],
                                             List[Tuple[Hashable, Hashable]]]] = None
        self._directed_cache_key: Optional[Tuple[int, Optional[float]]] = None
        #: deterministic_vicinity() hoisted out of the per-broadcast path; it
        #: is a class-level constant for every stock radio, and any custom
        #: radio mutating it must invalidate_topology() (which refreshes it).
        self._det_vicinity = radio.deterministic_vicinity()
        radio.add_mutation_listener(self.invalidate_topology)
        # Observability: captured once here; broadcast/delivery hot paths pay
        # a single attribute test when disabled (same trick as is_app_payload).
        obs = _obs_current()
        self._obs = obs
        self._obs_broadcasts = obs.registry.counter("net.broadcasts") if obs else None
        self._obs_delivered = obs.registry.counter("net.delivered") if obs else None
        self._obs_dropped = obs.registry.counter("net.dropped") if obs else None
        #: Set by :meth:`set_partition` on observed sharded runs only, so an
        #: unsharded broadcast pays one attribute test for the split.
        self._obs_halo_sends = None
        self._obs_interior_sends = None

    def recapture_obs(self) -> None:
        """Re-point the cached obs handles (and the lazily built link-state
        caches') at the process-local context — see
        :meth:`repro.sim.engine.Simulator.recapture_obs`."""
        obs = _obs_current()
        self._obs = obs
        self._obs_broadcasts = obs.registry.counter("net.broadcasts") if obs else None
        self._obs_delivered = obs.registry.counter("net.delivered") if obs else None
        self._obs_dropped = obs.registry.counter("net.dropped") if obs else None
        als = self._array_ls
        if als is not None:
            als._obs = obs

    def set_partition(self, owner_of: Mapping[Hashable, int], shard_id: int,
                      outbox: list) -> None:
        """Deliver only to receivers that ``owner_of`` maps to ``shard_id``.

        Every other accepted receiver is appended to ``outbox`` as
        ``(receive time, sender, receiver, payload)``.  Observed runs count
        each broadcast as a ``shard.halo_sends`` (its receiver batch holds
        at least one receiver owned elsewhere) or a ``shard.interior_sends``.
        """
        self._partition = (owner_of, shard_id, outbox)
        self._receiver_cache.clear()
        obs = self._obs
        self._obs_halo_sends = obs.registry.counter("shard.halo_sends") if obs else None
        self._obs_interior_sends = (obs.registry.counter("shard.interior_sends")
                                    if obs else None)

    def __setstate__(self, state):
        """Re-register the radio mutation listener after unpickling.

        The radio drops its (weak, process-local) listener list when
        pickled, so a restored network must subscribe again or in-place
        radio mutations would silently serve stale neighbourhoods.
        """
        self.__dict__.update(state)
        self.radio.add_mutation_listener(self.invalidate_topology)

    # ------------------------------------------------------------- topology

    @property
    def node_ids(self) -> List[Hashable]:
        """All node identifiers (active or not), in insertion order."""
        return list(self._processes)

    @property
    def positions(self) -> Dict[Hashable, Point]:
        """Current positions (copy)."""
        return dict(self._positions)

    @property
    def topology_generation(self) -> int:
        """Monotonic counter bumped on every position/membership/activation change."""
        return self._generation

    def position_of(self, node_id: Hashable) -> Point:
        """Current position of ``node_id``."""
        return self._positions[node_id]

    def set_position(self, node_id: Hashable, position: Point) -> None:
        """Teleport ``node_id`` to ``position``."""
        if node_id not in self._processes:
            raise KeyError(f"unknown node {node_id!r}")
        pos = (float(position[0]), float(position[1]))
        self._apply_move(node_id, pos)
        self._generation += 1

    def set_positions(self, positions: Mapping[Hashable, Point]) -> None:
        """Update several node positions at once (one generation bump).

        Unlike a loop of :meth:`set_position` calls, a batch teleport
        invalidates the topology snapshots at most once.  Unknown node ids
        are rejected before any position changes, so a failed call leaves the
        network untouched.  Nodes whose position is unchanged cost nothing —
        neither the grid index nor the link-state cache is touched for them —
        and a batch that moves nobody leaves every cache warm (no
        generation bump).
        """
        if (self._store is not None and self._index is None and len(positions) > 1):
            # Bulk path: membership validated with one C-level subset check,
            # coordinates coerced by one array conversion — no per-node
            # python validation.  Exotic inputs the conversion cannot digest
            # (ragged tuples, extra coordinates) take the scalar loop below,
            # which preserves the historical lenient coercion.
            if not (self._processes.keys() >= positions.keys()):
                unknown = next(nid for nid in positions
                               if nid not in self._processes)
                raise KeyError(f"unknown node {unknown!r}")
            try:
                coords = np.fromiter(positions.values(),
                                     dtype=np.dtype((np.float64, 2)),
                                     count=len(positions))
            except (TypeError, ValueError):
                coords = None
            if coords is not None and coords.ndim == 2 and coords.shape[1] == 2:
                self._bulk_position_update(list(positions), coords)
                return
        updates: Dict[Hashable, Point] = {}
        for node_id, position in positions.items():
            if node_id not in self._processes:
                raise KeyError(f"unknown node {node_id!r}")
            updates[node_id] = (float(position[0]), float(position[1]))
        self._apply_position_updates(updates)

    def _bulk_position_update(self, ids: List[Hashable],
                              coords: np.ndarray) -> None:
        """Masked-array tail of the batch teleports (store-only mirrors).

        Only valid when the grid index does not exist (it needs per-node
        deltas): changed rows are detected and written in whole-array
        operations, the position dict is patched for the movers only, and
        the generation bumps once iff anything moved.
        """
        store = self._store
        rows = np.fromiter(map(store.row_of.__getitem__, ids),
                           dtype=np.int64, count=len(ids))
        changed = (store.xy[rows] != coords).any(axis=1)
        if not changed.any():
            return
        moved = np.flatnonzero(changed)
        store.write_rows(rows[moved], coords[moved])
        positions = self._positions
        for k, xy in zip(moved.tolist(), coords[moved].tolist()):
            positions[ids[k]] = (xy[0], xy[1])
        if self._array_ls is not None:
            self._array_ls.mark_rows_dirty(rows[moved])
        self._generation += 1

    def _apply_position_updates(self, updates: Dict[Hashable, Point]) -> None:
        """Apply pre-validated position updates with one generation bump.

        On the CSR path (store present, no grid index to patch per node)
        changed rows are written in a single masked array assignment;
        otherwise each changed node goes through :meth:`_apply_move` so the
        grid index sees its per-node deltas.  Either way, unchanged nodes
        cost nothing and a batch that moves nobody leaves every cache warm.
        """
        if not updates:
            return
        if (self._store is not None and self._index is None and len(updates) > 1):
            self._bulk_position_update(
                list(updates), np.fromiter(updates.values(),
                                           dtype=np.dtype((np.float64, 2)),
                                           count=len(updates)))
            return
        applied = False
        for node_id, pos in updates.items():
            if pos != self._positions[node_id]:
                self._apply_move(node_id, pos)
                applied = True
        if applied:
            self._generation += 1

    def _apply_move(self, node_id: Hashable, pos: Point) -> None:
        """Move one node, mirroring the grid index, store and CSR link state."""
        self._positions[node_id] = pos
        if self._store is not None:
            self._store.update(node_id, pos)
        if self._index is not None:
            self._index.update(node_id, pos)
        if self._array_ls is not None:
            self._array_ls.mark_row_dirty(self._store.row_of[node_id])

    def invalidate_topology(self) -> None:
        """Force the next snapshot/neighbour query to recompute.

        Drops the CSR link state too: a radio mutated in place can flip
        arbitrary links without any node moving, so no delta knows which
        links to re-test.  Stock radios call this automatically through
        their mutation listeners; custom radios mutated via private state must
        call it explicitly.
        """
        self._generation += 1
        # A mutation can change the uniform link radius too; the node store
        # itself only mirrors positions and survives radio changes.
        self._array_ls = None
        self._det_vicinity = self.radio.deterministic_vicinity()

    def process(self, node_id: Hashable) -> Process:
        """The protocol process attached to ``node_id``."""
        return self._processes[node_id]

    @property
    def processes(self) -> Dict[Hashable, Process]:
        """Mapping node id -> process (copy)."""
        return dict(self._processes)

    def active_nodes(self) -> Set[Hashable]:
        """Identifiers of the currently active nodes.

        The network gates on the internal ``_active`` flag everywhere — the
        same flag :meth:`repro.sim.process.Process.deliver` checks — so both
        delivery pipelines and all snapshot builds share one activity
        predicate even if a subclass overrides the public ``active``
        property.
        """
        return {nid for nid, proc in self._processes.items() if proc._active}

    def add_node(self, process: Process, position: Point) -> None:
        """Attach a protocol process at ``position``."""
        if process.node_id in self._processes:
            raise ValueError(f"node {process.node_id!r} already exists")
        process.bind(self.sim, self)
        if type(process).deliver is not Process.deliver:
            self._stock_deliver = False
        pos = (float(position[0]), float(position[1]))
        self._processes[process.node_id] = process
        self._positions[process.node_id] = pos
        order = self._next_order
        self._next_order += 1
        self._order[process.node_id] = order
        if self._store is not None:
            self._store.insert(process.node_id, pos, order, process,
                               process._active)
        if self._index is not None:
            self._index.insert(process.node_id, pos)
        if self._array_ls is not None:
            self._array_ls.mark_dirty()
        self._generation += 1

    def remove_node(self, node_id: Hashable) -> Process:
        """Detach and return the process of ``node_id`` (the node disappears)."""
        process = self._processes.pop(node_id)
        self._positions.pop(node_id, None)
        self._order.pop(node_id, None)
        if self._store is not None:
            self._store.remove(node_id)
        if self._index is not None:
            self._index.remove(node_id)
        if self._array_ls is not None:
            self._array_ls.mark_dirty()
        self._receiver_cache.pop(node_id, None)
        self._generation += 1
        return process

    def start(self) -> None:
        """Start every attached process and the mobility process if configured."""
        for process in self._processes.values():
            process.start()
        if self.mobility is not None:
            self.start_mobility()

    # ------------------------------------------------------------------ churn

    def deactivate_node(self, node_id: Hashable) -> None:
        """Power off a node (it keeps its position but neither sends nor receives)."""
        self._processes[node_id].deactivate()

    def activate_node(self, node_id: Hashable) -> None:
        """Power a node back on."""
        self._processes[node_id].activate()

    def notify_activation_change(self, node_id: Hashable, active: bool) -> None:
        """Invalidate snapshots after an activation flip (called by the process)."""
        if self._store is not None:
            self._store.set_active(node_id, active)
        self._generation += 1

    # -------------------------------------------------------------- mobility

    def add_position_listener(self,
                              listener: Callable[[float, Dict[Hashable, Point]], None]) -> None:
        """Register a callback invoked after each mobility step with (time, positions).

        All listeners of one step receive the *same* snapshot dict; treat it
        as read-only (copy before mutating).
        """
        self._position_listeners.append(listener)

    def start_mobility(self, interval: Optional[float] = None) -> None:
        """Schedule periodic mobility updates.

        ``interval`` defaults to the mobility model's ``step_interval``.
        """
        if self.mobility is None:
            raise RuntimeError("no mobility model configured")
        step = float(interval if interval is not None else self.mobility.step_interval)
        if step <= 0:
            raise ValueError("mobility interval must be positive")
        def _move() -> None:
            # The model gets a copy: a model that mutates its input in place
            # and returns it would otherwise make the before/after diff
            # vacuous (and could corrupt the live table mid-comparison).
            new_positions = self.mobility.step(dict(self._positions), step)
            processes = self._processes
            # Mobility models may carry state for nodes the network never
            # knew or has removed; admitting them would break the
            # positions ↔ processes ↔ index mirror invariant.  Change
            # detection (paused/static nodes flip no link and must leave
            # every cache warm) happens inside the update application — as a
            # whole-array comparison on the bulk path, per node otherwise —
            # so no separate python diff pass runs here.
            updates = {node_id: pos for node_id, pos in new_positions.items()
                       if node_id in processes}
            self._apply_position_updates(updates)
            if self._position_listeners:
                # One shared snapshot per step: copying the whole position map
                # once instead of once per listener.
                snapshot = dict(self._positions)
                now = self.sim.now
                for listener in self._position_listeners:
                    listener(now, snapshot)

        self._mobility_handle = self.sim.call_every(step, _move)

    def stop_mobility(self) -> None:
        """Stop the periodic mobility updates."""
        if self._mobility_handle is not None:
            self._mobility_handle.cancel()
            self._mobility_handle = None

    # -------------------------------------------------------- neighbour engine

    def _spatial_index(self) -> Optional[UniformGridIndex]:
        """The grid index, (re)built on demand; ``None`` on the brute-force path."""
        max_range = self.radio.max_range()
        if max_range is None or max_range <= 0:
            return None
        if self._index is None or self._index.cell_size != max_range:
            self._index = UniformGridIndex(max_range, self._positions)
        return self._index

    def _node_store(self) -> NodeArrayStore:
        """The array mirror of the node table, built on demand.

        Once built it is maintained incrementally by every membership /
        position / activation mutation, so the loop below runs once per
        network.
        """
        store = self._store
        if store is None:
            store = NodeArrayStore()
            order = self._order
            positions = self._positions
            for node_id, proc in self._processes.items():
                store.insert(node_id, positions[node_id], order[node_id],
                             proc, proc._active)
            self._store = store
        return store

    def _vicinity_candidates(self, sender: Hashable) -> Iterable[Hashable]:
        """Nodes that could possibly hear ``sender``, in insertion order.

        With the index this is the set within ``max_range`` of the sender (the
        radio still applies the exact vicinity test); without it, every other
        node.  Insertion order matters: stochastic radios and channels consume
        their random stream per candidate, so the indexed and brute-force
        paths must inspect candidates identically.
        """
        index = self._spatial_index()
        if index is None:
            return [nid for nid in self._processes if nid != sender]
        candidates = index.neighbors_within(sender, self.radio.max_range())
        candidates.sort(key=self._order.__getitem__)
        return candidates

    def _link_state(self) -> Optional[ArrayLinkState]:
        """The CSR link state, (re)built on demand.

        ``None`` unless the radio has a uniform link radius and a bounded
        ``max_range()``; callers then take the grid or brute-force scan.
        A radio that reports ``max_range() is None`` opts out of every
        spatial structure even when it inherits a uniform radius (e.g. a
        custom always-hear radio).  A radius change — assigned through a
        notifying setter or mutated silently — is auto-detected per query.
        """
        als = self._array_ls
        radius = self.radio.uniform_link_radius()
        if als is not None and als.radius == radius:
            return als
        if (radius is not None and radius > 0
                and self.radio.max_range() is not None):
            # now_fn is a bound method, not a lambda, so a built network
            # stays picklable (sharded snapshot-restore builds).
            als = ArrayLinkState(radius, self._node_store(),
                                 now_fn=self._sim_now, obs=self._obs)
        else:
            als = None
        self._array_ls = als
        return als

    def _sim_now(self) -> float:
        """Sim-clock reader handed to lazily built caches (picklable)."""
        return self.sim.now

    # ------------------------------------------------------------- messaging

    def broadcast(self, sender: Hashable, payload: Any) -> int:
        """Broadcast ``payload`` from ``sender`` to its current vicinity.

        Returns the number of receivers the channel accepted the message for.
        Actual delivery can still be suppressed if a receiver deactivates
        before the channel delay elapses; ``messages_delivered`` counts only
        messages handed to an active process.

        Radios with a deterministic vicinity on the CSR path take the batched
        fast path: the receiver list comes straight from the CSR (no distance
        tests), the channel decides the whole batch at once, and purely
        delayed batches are bulk-scheduled.  Every divergence-relevant step
        (receiver order, RNG consumption, event sequence numbers) is
        identical to the per-receiver scan below.
        """
        sender_proc = self._processes[sender]
        if not sender_proc._active:
            return 0
        self.messages_sent += 1
        if self._obs_broadcasts is not None:
            self._obs_broadcasts.inc()
        linkstate = self._link_state() if self._det_vicinity else None
        if linkstate is not None:
            return self._broadcast_batched(linkstate, sender, payload)
        if self._partition is not None:
            raise RuntimeError(
                "a partitioned network delivers on the CSR link state only, and "
                "the radio no longer reports a uniform link radius and a "
                "deterministic vicinity")
        sender_pos = self._positions[sender]
        accepted = 0
        for receiver in self._vicinity_candidates(sender):
            proc = self._processes[receiver]
            if not proc._active:
                continue
            receiver_pos = self._positions[receiver]
            if not self.radio.in_vicinity(sender, receiver, sender_pos, receiver_pos):
                continue
            decision = self.channel.decide(sender, receiver, self.sim.now)
            if not decision.delivered:
                self.messages_dropped += 1
                if self._obs_dropped is not None:
                    self._obs_dropped.inc()
                continue
            accepted += 1
            if decision.delay <= 0:
                self._deliver(sender, receiver, payload)
            else:
                self.sim.schedule(decision.delay, self._deliver, sender, receiver, payload)
        return accepted

    def _receiver_batch(self, linkstate: ArrayLinkState, sender: Hashable):
        """Cached ``(receivers, procs, procs_arr, remote)`` for one sender.

        Keyed on (generation, link-state instance): every position/membership/
        activation change bumps the generation, and any radio change —
        notified or auto-detected through the per-query radius check —
        replaces the link-state instance.  Caching the process objects (list
        + object ndarray) next to the ids lets delivery loops skip one dict
        lookup per receiver and gather accepted subsets with one masked
        index.  ``remote`` is the bool "owned elsewhere" mask over the
        receivers under an installed partition, or ``None`` when every
        receiver is delivered here.
        """
        generation = self._generation
        cached = self._receiver_cache.get(sender)
        if cached is not None:
            gen_c, ls_c, receivers, procs, procs_arr, remote = cached
            if gen_c == generation and ls_c is linkstate:
                return receivers, procs, procs_arr, remote
        receivers, procs_arr = linkstate.active_receivers(sender, generation)
        procs = procs_arr.tolist()
        remote = None
        partition = self._partition
        if partition is not None and receivers:
            owner, me = partition[0], partition[1]
            mask = np.fromiter((owner[r] != me for r in receivers), dtype=bool,
                               count=len(receivers))
            if mask.any():
                remote = mask
        self._receiver_cache[sender] = (generation, linkstate, receivers,
                                        procs, procs_arr, remote)
        return receivers, procs, procs_arr, remote

    def _broadcast_batched(self, linkstate: ArrayLinkState, sender: Hashable,
                           payload: Any) -> int:
        """Batched tail of :meth:`broadcast` (deterministic-vicinity radios).

        The sender's CSR row *is* the vicinity, so the per-receiver
        distance test disappears; active receivers keep insertion order, so
        the channel consumes its RNG exactly as the scalar loop would.
        Accepted receivers owned by another shard go to the partition's
        outbox (see :meth:`set_partition`).
        """
        receivers, procs, procs_arr, remote = self._receiver_batch(linkstate, sender)
        if self._obs_halo_sends is not None:
            (self._obs_interior_sends if remote is None
             else self._obs_halo_sends).inc()
        if not receivers:
            return 0
        now = self.sim.now
        channel = self.channel
        obs = self._obs
        if (remote is None and self._stock_deliver
                and not getattr(payload, "is_app_payload", False)):
            # Hottest path of dense-field runs (a quarter-million deliveries
            # per simulated second at 1000 nodes): with no app payload, no
            # remote receiver and only stock ``deliver`` implementations,
            # probe the channel's zero-delay fast hook — it answers only
            # when every delay is 0.0, with RNG consumption and counters
            # identical to ``decide_batch``, so no :class:`BatchDecisions`
            # (nor its delivered/delay lists) is ever materialized.
            # Semantics match ``_deliver`` exactly: a receiver deactivated by
            # an earlier delivery of this very batch is still skipped, and
            # stock ``deliver`` routes a non-app payload to ``on_message``
            # regardless of any attached app handler.
            if obs is None:
                res = channel.decide_batch_fast(sender, receivers, now)
            else:
                t0 = obs.clock()
                res = channel.decide_batch_fast(sender, receivers, now)
                obs.record_span("channel.decide_batch_fast", now, t0,
                                {"receivers": len(receivers)})
            if res is not None:
                mask, accepted = res
                live = procs if mask is None else procs_arr[mask].tolist()
                # ``len(live) == accepted``; count down on the (contractually
                # impossible, but parity-preserved) mid-batch deactivation
                # instead of counting up per delivery.
                ndelivered = accepted
                for proc in live:
                    if proc._active:
                        proc.on_message(sender, payload)
                    else:
                        ndelivered -= 1
                self.messages_dropped += len(receivers) - accepted
                self.messages_delivered += ndelivered
                if obs is not None:
                    self._obs_delivered.inc(ndelivered)
                    self._obs_dropped.inc(len(receivers) - accepted)
                return accepted
        if obs is None:
            batch = channel.decide_batch(sender, receivers, now)
        else:
            t0 = obs.clock()
            batch = channel.decide_batch(sender, receivers, now)
            obs.record_span("channel.decide_batch", now, t0,
                            {"receivers": len(receivers)})
        delivered, delays = batch.delivered, batch.delays
        accepted = batch.n_accepted
        if accepted is None:
            accepted = batch.accepted()
        n_receivers = len(receivers)
        # The bulk rule: drops are counted in bulk, remote receivers go to
        # the outbox in receiver order, and when every local delay is
        # positive the locals take one heap insertion.  Drops and outbox
        # appends consume no event seqs, and no callback runs between the
        # decisions and the inserts, so the events get the same contiguous
        # sequence numbers the per-index loop's individual pushes would.
        if accepted == n_receivers and remote is None:
            local, local_delays, out = None, delays, ()
        else:
            if accepted == n_receivers:
                kept = np.arange(n_receivers)
            elif batch.delivered_array is not None:
                kept = np.flatnonzero(batch.delivered_array)
            else:
                kept = np.flatnonzero(delivered)
            if remote is None:
                out = ()
            else:
                out = kept[remote[kept]].tolist()
                kept = kept[~remote[kept]]
            local = kept.tolist()
            local_delays = [delays[i] for i in local]
        if not local_delays or min(local_delays) > 0:
            if accepted < n_receivers:
                self.messages_dropped += n_receivers - accepted
                if obs is not None:
                    self._obs_dropped.inc(n_receivers - accepted)
            if out:
                outbox = self._partition[2]
                for i in out:
                    outbox.append((now + delays[i], sender, receivers[i], payload))
            if local_delays:
                local_receivers = (receivers if local is None
                                   else [receivers[i] for i in local])
                self.sim.schedule_many(
                    local_delays, self._deliver,
                    [(sender, receiver, payload) for receiver in local_receivers])
            return accepted
        # A local receiver is due now: deliver in receiver order, so each
        # zero-delay delivery runs between the pushes before and after it.
        schedule = self.sim.schedule
        deliver = self._deliver
        processes = self._processes
        if remote is not None:
            remote = remote.tolist()
            outbox = self._partition[2]
        for i, receiver in enumerate(receivers):
            if not delivered[i]:
                self.messages_dropped += 1
                if obs is not None:
                    self._obs_dropped.inc()
                continue
            delay = delays[i]
            if remote is not None and remote[i]:
                outbox.append((now + delay, sender, receiver, payload))
            elif delay <= 0:
                # _deliver inlined (call overhead matters even on this
                # slower path); ``processes.get`` keeps the removed-node
                # guard of the scalar loop.
                proc = processes.get(receiver)
                if proc is None or not proc._active:
                    continue
                self.messages_delivered += 1
                if obs is not None:
                    self._obs_delivered.inc()
                proc.deliver(sender, payload)
            else:
                schedule(delay, deliver, sender, receiver, payload)
        return accepted

    def _deliver(self, sender: Hashable, receiver: Hashable, payload: Any) -> None:
        proc = self._processes.get(receiver)
        if proc is None or not proc._active:
            return
        self.messages_delivered += 1
        if self._obs_delivered is not None:
            self._obs_delivered.inc()
        proc.deliver(sender, payload)

    # -------------------------------------------------------------- snapshots

    def _cache_key(self) -> Tuple[int, Optional[float]]:
        # max_range() participates so that e.g. growing the largest range of an
        # AsymmetricRangeRadio invalidates snapshots without an explicit call.
        return (self._generation, self.radio.max_range())

    def _scan_pairs(self) -> Tuple[List[Hashable], Iterable[Tuple[Hashable, Hashable]]]:
        """(active nodes, candidate pairs to link-test) for the two scan engines.

        Nodes come in insertion order, not set order, so snapshot order
        never depends on PYTHONHASHSEED (determinism invariant).
        """
        active = self.active_nodes()
        nodes = [n for n in self._positions if n in active]
        index = self._spatial_index()
        if index is None:
            return nodes, ((u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:])
        return nodes, (pair for pair in index.pairs_within(self.radio.max_range())
                       if pair[0] in active and pair[1] in active)

    def link_snapshot(self) -> LinkSnapshot:
        """Symmetric-link snapshot of the current topology over active nodes.

        Built by whichever neighbour engine is active and cached until the
        generation stamp goes stale.  The value is immutable, so every caller
        of one instant shares it.
        """
        key = self._cache_key()
        if self._topo_cache is not None and self._topo_cache_key == key:
            return self._topo_cache
        linkstate = self._link_state()
        if linkstate is not None:
            snapshot = linkstate.link_snapshot(self._node_store().active)
        else:
            positions = self._positions
            link_exists = self.radio.link_exists
            nodes, pairs = self._scan_pairs()
            snapshot = LinkSnapshot.from_edges(
                nodes, [(u, v) for u, v in pairs
                        if (link_exists(u, v, positions[u], positions[v])
                            and link_exists(v, u, positions[v], positions[u]))])
        self._topo_cache = snapshot
        self._topo_cache_key = key
        return snapshot

    def _directed_snapshot(self) -> Tuple[List[Hashable], List[Tuple[Hashable, Hashable]]]:
        """(active nodes, directed arcs sorted by (order[u], order[v])), cached
        until the generation stamp goes stale."""
        key = self._cache_key()
        if self._directed_cache is not None and self._directed_cache_key == key:
            return self._directed_cache
        positions = self._positions
        linkstate = self._link_state()
        if linkstate is not None:
            active_rows = self._node_store().active
            row_of = linkstate.store.row_of
            nodes = [n for n in positions if active_rows[row_of[n]]]
            arcs = linkstate.directed_arcs(active_rows)
        else:
            link_exists = self.radio.link_exists
            nodes, pairs = self._scan_pairs()
            arcs = []
            for u, v in pairs:
                if link_exists(u, v, positions[u], positions[v]):
                    arcs.append((u, v))
                if link_exists(v, u, positions[v], positions[u]):
                    arcs.append((v, u))
            order = self._order
            arcs.sort(key=lambda a: (order[a[0]], order[a[1]]))
        self._directed_cache = (nodes, arcs)
        self._directed_cache_key = key
        return self._directed_cache

    def topology(self):
        """The current link snapshot exported as a fresh ``networkx.Graph``.

        Node and edge insertion order follow :meth:`link_snapshot`; mutating
        the graph does not touch the cache.
        """
        return self.link_snapshot().to_graph()

    def directed_topology(self):
        """Directed-link snapshot (u -> v iff u is in the vicinity of v), as a
        fresh ``networkx.DiGraph``."""
        import networkx as nx

        nodes, arcs = self._directed_snapshot()
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(arcs)
        return graph

    def neighbors_of(self, node_id: Hashable) -> Set[Hashable]:
        """Symmetric neighbours of ``node_id`` in the current snapshot.

        Served straight from the CSR link state when available — O(degree)
        per query, no snapshot construction; the scan engines answer from the
        cached link snapshot.
        """
        linkstate = self._link_state()
        if linkstate is not None:
            # The store mirrors the process table, so membership is settled by
            # the process lookup alone.
            proc = self._processes.get(node_id)
            if proc is None or not proc._active:
                return set()
            store = linkstate.store
            rows = linkstate.out_rows(node_id)
            if rows.size:
                rows = rows[store.active[rows]]
            return set(store.ids[rows].tolist()) if rows.size else set()
        return set(self.link_snapshot().neighbors(node_id))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Network(nodes={len(self._processes)}, active={len(self.active_nodes())}, "
                f"sent={self.messages_sent})")
