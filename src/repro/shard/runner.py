"""Coordinator for sharded execution: windows, exchange, merge.

The conservative synchronization loop (classic null-message-free PDES with a
global reduction, sized for a handful of shards):

1. every shard reports the time of its earliest pending event;
2. the coordinator picks the global minimum ``t`` (ignoring shards already
   past the run horizon) and opens a window — ``[t, t]`` inclusive when the
   channel lookahead is zero (lockstep round per distinct timestamp),
   ``[t, t + L)`` exclusive when the minimum channel delay ``L`` is positive
   (clamped inclusively to the horizon);
3. shards whose next event falls inside the window execute it with
   :meth:`~repro.sim.engine.Simulator.run_window`, capturing cross-shard
   deliveries in their outboxes (the channel guarantees every capture's
   receive time is at or beyond the window end, so no shard ever misses a
   message it should already have seen);
4. outboxes are concatenated in shard order, stably sorted by receive time,
   routed to each receiver's owner and applied — inline for zero-delay
   entries, as scheduled events otherwise;
5. repeat until no shard holds an event at or before the horizon.

One host serves every shard: :class:`_InprocHost` makes the shard's world
under its own obs scope, runs each step the coordinator submits, times the
barrier waits between steps and builds the finish export.  The coordinator
drives every shard through the same ``submit``/``collect`` pair.  Two
transports place the hosts: ``inproc`` keeps every shard's host in the
calling process (the bit-identity reference and the default for tests), and
``mp`` runs one OS process per shard, which is where multi-core hardware
buys wall-clock speedup.  On ``mp`` the coordinator is shard 0's process:
it forks a worker for each of shards 1 … k − 1 once it has built the world,
then finalizes shard 0 on that same build in its own host, so a k-shard run
keeps k processes, not k + 1.  A worker starts with every module already
imported and its job — spec, shard id, obs flag and its own private copy of
the built world — already in memory; it finalizes that world in a host of
its own, restores nothing, and relays each command it receives over a
``socketpair`` to that host and the host's reply back
(:class:`_MpHost` is the coordinator's end).  ``inproc`` hosts share one
process, so each restores its own copy from one pickled snapshot.  A worker
never returns into the caller's code, so scripts need no
``if __name__ == "__main__"`` guard; it leaves with ``os._exit`` once its
last reply is in the socket.  ``mp`` is POSIX-only.

The merge reassembles the exact single-process result: counters sum, the
replicated event count is subtracted ``k - 1`` times, per-shard views and
per-sender channel RNG states union disjointly, replicated facts (topology
edges, root RNG state, shared event count) are asserted identical across
shards, and traffic ledgers fold through
:meth:`~repro.traffic.ledger.DeliveryLedger.merge_from`.
"""

from __future__ import annotations

import gc
import os
import signal
import socket
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import Connection
from typing import Any, Callable, Dict, Hashable, List, NoReturn, Optional, Tuple

from repro.core.predicates import evaluate_configuration
from repro.net.topology import LinkSnapshot
from repro.obs import (ObsContext, disable as _obs_disable, merge_export_blobs,
                       observing)

from .world import OutboxEntry, ShardSpec, ShardWorld

__all__ = ["ShardRunResult", "run_sharded"]


@dataclass
class ShardRunResult:
    """Merged outcome of one sharded run.

    ``fingerprint`` carries the determinism-relevant protocol facts (event
    and message counters, views, edges, overhead report, RNG states) in the
    shape the replay-determinism suite compares.  ``traffic`` holds the
    merged application-ledger facts when a workload was attached.  ``stats``
    is diagnostic only (per-shard breakdowns, round counts, remote delivery
    counts) and intentionally k-dependent.  ``obs`` (observed runs only)
    carries ``{"merged": blob, "per_shard": [blob, ...]}`` — every worker's
    :class:`~repro.obs.ObsContext` export (span records included) plus their
    :func:`~repro.obs.merge_export_blobs` fold, with the coordinator's final
    convergence milestone folded into the merged stream.
    """

    fingerprint: Dict[str, Any]
    traffic: Optional[Dict[str, Any]]
    stats: Dict[str, Any]
    obs: Optional[Dict[str, Any]] = field(default=None)


# ------------------------------------------------------------------- hosts

class _InprocHost:
    """The one host that serves a shard: every shard on ``inproc``, shard 0
    on ``mp``, and each forked worker's shard through :func:`_serve_worker`.

    ``make_world`` builds the shard's world when called with no argument:
    it restores the snapshot (``inproc``) or finalizes a build in place
    (shard 0 on ``mp``, after every worker is forked, and each worker on
    the copy it inherited with the fork).  The world is made under this
    host's own obs scope: a fresh :class:`ObsContext` with ``obs`` on, no
    context with it off, never the one the caller installed.  The
    capture-once contract means everything the world does afterwards
    (windows, deliveries, protocol events) keeps landing in that scope even
    though it is left once construction returns, so every shard observes
    into a context of its own, whichever process it lives in.

    :meth:`submit` runs one step — ``"round"``, ``"apply"`` or
    ``"finish"`` — at once and :meth:`collect` hands back its reply:
    ``(outbox, peek)``, ``peek`` and ``(parts, obs_export)`` respectively,
    the export (span records included) being ``None`` with ``obs`` off.
    With ``obs`` on, the host times the wait from the end of each step to
    the next submit as a ``shard.barrier_wait`` span.
    """

    def __init__(self, make_world: Callable[[], ShardWorld], obs: bool = False):
        self.obs_ctx: Optional[ObsContext] = ObsContext() if obs else None
        t0 = time.perf_counter()
        # observing(None) installs a throwaway context, switched off at once:
        # the world captures no context, and the scope restores the caller's.
        with observing(self.obs_ctx):
            if self.obs_ctx is None:
                _obs_disable()
            self.world = make_world()
        self.build_s = time.perf_counter() - t0
        self.base_phase_s = self.world.base_phase_s
        self.peek = self.world.peek()
        self.lookahead = self.world.lookahead
        self.owners = self.world.owners
        self._reply: Any = None
        self._idle_since = self._clock()

    def _clock(self) -> int:
        return self.obs_ctx.clock() if self.obs_ctx is not None else 0

    def submit(self, cmd: str, *args) -> None:
        world, ctx = self.world, self.obs_ctx
        if ctx is not None:
            ctx.record_span("shard.barrier_wait", world.sim.now, self._idle_since)
        if cmd == "round":
            self._reply = (world.run_round(*args), world.peek())
        elif cmd == "apply":
            world.apply(*args)
            self._reply = world.peek()
        elif cmd == "finish":
            self._reply = (world.finish(*args),
                           None if ctx is None else ctx.export(include_records=True))
        else:  # pragma: no cover - protocol bug guard
            raise RuntimeError(f"unknown shard command {cmd!r}")
        self._idle_since = self._clock()

    def collect(self) -> Any:
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        pass


def _serve_worker(fd: int, inherited: List[Any], spec: ShardSpec,
                  shard_id: int, obs: bool, deployment,
                  lookahead: float) -> NoReturn:
    """Serve one shard (1 … k − 1; the coordinator serves shard 0 itself)
    on socket ``fd`` in a forked worker, then exit without interpreter
    teardown.

    The job (spec, shard id, obs flag and the coordinator's built
    ``(deployment, lookahead)``) arrives in memory with the fork; every
    worker is forked before the coordinator finalizes shard 0, so the build
    it inherits has no queued timer yet.  The worker first freezes the heap
    it inherited, world included, so its cyclic collector never walks, and
    so never copies, the coordinator's objects.  It closes ``inherited``,
    the coordinator's ends of its own socket and of the workers forked
    before it: a worker sees its coordinator die only once no other process
    holds that end open.  Then it serves its shard through an
    :class:`_InprocHost` that finalizes the inherited build in place, under
    the host's own obs scope, and unpickles nothing: it sends the host's
    ready facts and relays every command to :meth:`_InprocHost.submit` and
    the host's :meth:`_InprocHost.collect` back as the reply.

    Whatever the way out — the finish reply (exit code 0), a failure
    report or a lost coordinator (exit code 1) — everything the worker owes
    is already in the socket, so it closes it, flushes stdio and calls
    ``os._exit``: it never unwinds into the coordinator's frames it was
    forked from, and tearing down the world would only free memory nobody
    reads again.
    """
    conn = Connection(fd)
    code = 1
    try:
        gc.freeze()
        for other in inherited:
            other.close()
        host = _InprocHost(partial(ShardWorld, spec, shard_id, deployment,
                                   lookahead), obs)
        conn.send(("ready", host.peek, host.lookahead, host.owners,
                   host.build_s, host.base_phase_s))
        cmd = None
        while cmd != "finish":
            cmd, *args = conn.recv()
            host.submit(cmd, *args)
            conn.send(("ok", host.collect()))
        code = 0
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        conn.close()
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


class _MpHost:
    """A shard served by a worker forked from the coordinator, a direct child.

    ``mp`` builds one per shard except shard 0, which the coordinator
    finalizes and drives itself through an :class:`_InprocHost`.
    Construction forks the worker on one end of a ``socketpair``; the child
    gets its job, the built ``base`` world included, in memory and runs
    :func:`_serve_worker`, which never returns.  Before the fork the
    coordinator flushes ``sys.stdout`` and ``sys.stderr``, or the child
    could write the parent's buffered text a second time.  ``siblings``
    are the coordinator's ends of the workers forked before this one,
    which the child closes with its own.

    The coordinator has a second OS thread once numpy is imported (OpenBLAS
    starts it), and Python 3.12 warns (``DeprecationWarning``) when such a
    process forks.  The fork is safe here all the same: the child runs only
    the shard finalize and the window loop, and it leaves through
    ``os._exit``, so no exit handler or teardown runs in it.

    :meth:`submit` sends a step to the worker's :class:`_InprocHost` and
    :meth:`collect` returns that host's reply, the same one an in-process
    host gives.  The coordinator reaps the worker (the ``finish`` reply's
    :meth:`collect`, :meth:`close`) with ``os.waitpid``, so its memory shows
    in ``RUSAGE_CHILDREN``.  A worker that dies before it replies surfaces
    as a :class:`RuntimeError` naming the shard and the exit code.
    """

    def __init__(self, spec: ShardSpec, shard_id: int, base: Tuple[Any, float],
                 obs: bool, siblings: List[Connection]):
        self.shard_id = shard_id
        self.returncode: Optional[int] = None
        ours, theirs = socket.socketpair()
        with ours, theirs:
            sys.stdout.flush()
            sys.stderr.flush()
            self.pid = os.fork()
            if self.pid == 0:
                _serve_worker(theirs.detach(), [ours, *siblings], spec,
                              shard_id, obs, *base)
            self.conn = Connection(ours.detach())
        self._cmd: Optional[str] = None

    def await_ready(self) -> None:
        (_, self.peek, self.lookahead, self.owners, self.build_s,
         self.base_phase_s) = self._recv()

    def _wait(self) -> int:
        if self.returncode is None:
            _, status = os.waitpid(self.pid, 0)
            self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def _died(self) -> RuntimeError:
        return RuntimeError(f"shard worker {self.shard_id} exited with code "
                            f"{self._wait()} before replying")

    def _recv(self):
        try:
            msg = self.conn.recv()
        except (EOFError, OSError):
            raise self._died() from None
        if msg[0] == "error":
            raise RuntimeError(f"shard worker failed (shard {self.shard_id}):\n{msg[1]}")
        return msg

    def submit(self, cmd: str, *args) -> None:
        self._cmd = cmd
        try:
            self.conn.send((cmd, *args))
        except OSError:
            self._recv()  # raises the dead worker's failure report or exit code
            raise

    def collect(self) -> Any:
        reply = self._recv()[1]
        if self._cmd == "finish":
            self._wait()
        return reply

    def close(self) -> None:
        self.conn.close()
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)
            self._wait()


# -------------------------------------------------------------- coordinator

def _shard_0_last(shards: List[int]) -> List[int]:
    """``shards`` in submission order: shard 0, when present, goes last.

    On ``mp`` shard 0 is the coordinator's own and runs its step inside the
    submit, so every forked worker must have its command first to overlap
    with it.  Results are still collected in shard order.
    """
    return shards[1:] + shards[:1] if shards and shards[0] == 0 else shards


def _coordinate(hosts, owners: Dict[Hashable, int], lookahead: float,
                duration: float) -> Dict[str, int]:
    """Drive the synchronized window loop until the horizon; return stats."""
    peeks: List[Optional[float]] = [host.peek for host in hosts]
    rounds = 0
    exchanged = 0
    while True:
        live = [i for i, p in enumerate(peeks) if p is not None and p <= duration]
        if not live:
            break
        t = min(peeks[i] for i in live)
        if lookahead > 0:
            end = t + lookahead
            inclusive = end >= duration
            if inclusive:
                end = duration
        else:
            end, inclusive = t, True
        # Only shards with work inside the window run it; the others would
        # execute nothing, so skipping their round-trip is an exact no-op.
        if inclusive:
            active = [i for i in live if peeks[i] <= end]
        else:
            active = [i for i in live if peeks[i] < end]
        rounds += 1
        for i in _shard_0_last(active):
            hosts[i].submit("round", end, inclusive)
        entries: List[OutboxEntry] = []
        for i in active:
            out, peeks[i] = hosts[i].collect()
            entries.extend(out)
        if entries:
            # Stable sort on receive time over the shard-ordered concatenation:
            # one deterministic application order whatever the transport.
            entries.sort(key=lambda entry: entry[0])
            exchanged += len(entries)
            batches: Dict[int, List[OutboxEntry]] = {}
            for entry in entries:
                batches.setdefault(owners[entry[2]], []).append(entry)
            targets = sorted(batches)
            for shard in _shard_0_last(targets):
                hosts[shard].submit("apply", t, batches[shard])
            for shard in targets:
                peeks[shard] = hosts[shard].collect()
    return {"rounds": rounds, "remote_deliveries": exchanged}


# -------------------------------------------------------------------- merge

def _require_consensus(parts: List[Dict[str, Any]], key: str):
    """Replicated facts must be byte-equal in every shard."""
    reference = parts[0][key]
    for part in parts[1:]:
        if part[key] != reference:
            raise RuntimeError(
                f"sharded run diverged: {key} differs between shard 0 and "
                f"shard {part['shard_id']} — the partition leaked into "
                f"replicated state")
    return reference


def _merge(spec: ShardSpec, parts: List[Dict[str, Any]],
           loop_stats: Dict[str, int], transport: str) -> ShardRunResult:
    k = len(parts)
    duration = spec.duration
    shared = _require_consensus(parts, "shared_events")
    sim_rng = _require_consensus(parts, "sim_rng")
    total_nodes = _require_consensus(parts, "total_nodes")
    if sum(p["node_count"] for p in parts) != total_nodes:
        raise RuntimeError("sharded run lost nodes: tile ownership is not a partition")
    sent = sum(p["sent"] for p in parts)
    delivered = sum(p["delivered"] for p in parts)
    dropped = sum(p["dropped"] for p in parts)
    channel_rng: Dict[str, str] = {}
    for part in parts:
        overlap = channel_rng.keys() & part["channel_rng"].keys()
        if overlap:
            raise RuntimeError(f"channel stream owned by two shards: {sorted(overlap)}")
        channel_rng.update(part["channel_rng"])
    fingerprint: Dict[str, Any] = {
        "processed_events": sum(p["processed_events"] for p in parts) - (k - 1) * shared,
        "sent": sent,
        "delivered": delivered,
        "dropped": dropped,
        "rng_state": {"sim": sim_rng, "channel": channel_rng},
    }
    if spec.fingerprint:
        views: Dict[Hashable, Any] = {}
        for part in parts:
            views.update(part["views"])
        fingerprint["views"] = views
        fingerprint["edges"] = _require_consensus(parts, "edges")
        # The overhead report re-derives OverheadSummary.as_row() from the
        # merged integer ingredients with the identical expressions, so the
        # floats match the single-process report bit for bit.
        payload_total = sum(p["payload_total"] for p in parts)
        payload_count = sum(p["payload_count"] for p in parts)
        computations = sum(p["computations"] for p in parts)
        denom = max(total_nodes, 1)
        fingerprint["report"] = {
            "nodes": total_nodes,
            "msgs/node/s": round(sent / denom / duration, 3),
            "payload slots": round((payload_total / payload_count)
                                   if payload_count else 0.0, 2),
            "computes/node/s": round(computations / denom / duration, 3),
            "delivered": delivered,
            "dropped": dropped,
        }
    traffic = None
    ledgers = [p["ledger"] for p in parts if p.get("ledger") is not None]
    if ledgers:
        merged = ledgers[0]
        for ledger in ledgers[1:]:
            merged.merge_from(ledger)
        traffic = {
            "app_sent": merged.messages_sent,
            "app_receptions": merged.receptions,
            "requests": merged.requests_sent,
            "replies": merged.replies_matched,
            "group_rows": merged.group_rows(),
            "totals": merged.totals(duration),
        }
    stats = {
        "shards": k,
        "transport": transport,
        "rounds": loop_stats["rounds"],
        "remote_deliveries": loop_stats["remote_deliveries"],
        "shared_events": shared,
        "per_shard": [{"shard_id": p["shard_id"],
                       "nodes": p["node_count"],
                       "processed_events": p["processed_events"],
                       "sent": p["sent"],
                       "remote_in": p["remote_in"]} for p in parts],
    }
    return ShardRunResult(fingerprint=fingerprint, traffic=traffic, stats=stats)


def _merge_obs(spec: ShardSpec, parts: List[Dict[str, Any]],
               per_shard: List[Optional[Dict[str, Any]]]) -> Dict[str, Any]:
    """Fold the per-shard exports into one export blob.

    The merged stream additionally gets the coordinator's convergence
    milestone: with the fingerprint enabled, the final merged configuration
    (views + topology edges) is evaluated against the protocol predicates —
    the one protocol fact only the coordinator can see whole.  A fresh
    coordinator context records it, so it keeps seq 0.
    """
    for shard_id, blob in enumerate(per_shard):
        if blob is None:  # pragma: no cover - transport bug guard
            raise RuntimeError(f"shard {shard_id} returned no obs export")
    coordinator = ObsContext()
    if spec.fingerprint and parts and "dmax" in parts[0]:
        views: Dict[Hashable, Any] = {}
        for part in parts:
            views.update(part["views"])
        links = LinkSnapshot.from_edges(
            views, (tuple(edge) for edge in parts[0]["edges"] if len(edge) == 2))
        report = evaluate_configuration(spec.duration, views, links,
                                        parts[0]["dmax"])
        coordinator.record_event("convergence.final", spec.duration,
                                 legitimate=report.legitimate,
                                 agreement=report.agreement,
                                 safety=report.safety,
                                 maximality=report.maximality,
                                 group_count=report.group_count,
                                 largest_group=report.largest_group)
    merged = merge_export_blobs(
        per_shard + [coordinator.export(include_records=True)])
    return {"merged": merged, "per_shard": per_shard}


# ---------------------------------------------------------------- entrypoint

def run_sharded(spec: ShardSpec, transport: str = "inproc",
                build: str = "snapshot", obs: bool = False) -> ShardRunResult:
    """Execute ``spec`` across ``spec.shards`` shards and merge the result.

    The coordinator builds the world once (:meth:`ShardWorld.build_base`).
    ``transport='mp'`` (POSIX only) then forks one worker for each of
    shards 1 … k − 1, a direct child that inherits its job and the built
    world, finalizes the world for its shard in a host like shard 0's,
    relays its commands from a socket to that host, exits without teardown
    and is reaped before this returns; it never returns into the caller's
    code, so no ``__main__`` guard is needed.  Once every worker is forked, the coordinator finalizes shard 0
    on its own build and runs it in this process, so ``shards=1`` forks
    nothing.  ``transport='inproc'`` runs every shard in this process
    (deterministic reference, zero IPC): its hosts share one heap, so the
    coordinator pickles the built world once and every host restores its
    own copy.  Both transports produce the same :class:`ShardRunResult` bit
    for bit.  ``build`` only accepts ``'snapshot'``, the one build mode.

    ``stats`` carries the wall-clock split: ``build_s`` (host construction,
    including the one-time base build), ``run_s`` (window loop + finish),
    ``base_build_s`` (the one build, plus the pickle on ``inproc`` only),
    ``worker_build_s`` (per-shard total construction time; on ``mp``
    shard 0's entry is its in-process finalize) and
    ``worker_base_phase_s`` (each ``inproc`` host's snapshot unpickle, the
    shard-independent slice of its construction; 0.0 on ``mp``, where no
    shard restores anything).

    ``obs=True`` runs every shard under its own :class:`~repro.obs.ObsContext`
    (both transports) and fills ``result.obs`` with the per-shard exports
    plus their merged fold.  With ``obs=False`` no shard observes, not even
    into a context the caller installed.  Observation never feeds back into
    the simulation: an observed sharded run is bit-identical to the
    unobserved one, post-run RNG states included.
    """
    if transport not in ("inproc", "mp"):
        raise ValueError(f"unknown transport {transport!r}; use 'inproc' or 'mp'")
    if transport == "mp" and os.name != "posix":
        raise ValueError("transport 'mp' needs a POSIX platform; use 'inproc'")
    if build != "snapshot":
        raise ValueError(f"unknown build mode {build!r}; the only mode is 'snapshot'")
    hosts: List[Any] = []
    t_start = time.perf_counter()
    try:
        if transport == "inproc":
            snapshot = ShardWorld.snapshot_base(spec)
            base_build_s = time.perf_counter() - t_start
            hosts = [_InprocHost(partial(ShardWorld.from_snapshot, spec, shard,
                                         snapshot), obs)
                     for shard in range(spec.shards)]
        else:
            base = ShardWorld.build_base(spec)
            base_build_s = time.perf_counter() - t_start
            # Every worker is forked before shard 0 is finalized, so each
            # inherits a build with no queued timer, and before the first is
            # awaited, so their finalizes overlap with shard 0's.
            for shard in range(1, spec.shards):
                hosts.append(_MpHost(spec, shard, base, obs,
                                     [host.conn for host in hosts]))
            hosts.insert(0, _InprocHost(partial(ShardWorld, spec, 0, *base), obs))
            for host in hosts[1:]:
                host.await_ready()
        lookahead = hosts[0].lookahead
        for host in hosts[1:]:
            if host.lookahead != lookahead:
                raise RuntimeError("shards disagree on channel lookahead")
        t_built = time.perf_counter()
        loop_stats = _coordinate(hosts, hosts[0].owners, lookahead, spec.duration)
        for host in hosts[1:] + hosts[:1]:  # shard 0 last, as in _coordinate
            host.submit("finish", spec.duration)
        parts, exports = map(list, zip(*[host.collect() for host in hosts]))
        result = _merge(spec, parts, loop_stats, transport)
        if obs:
            result.obs = _merge_obs(spec, parts, exports)
        result.stats["build_s"] = t_built - t_start
        result.stats["run_s"] = time.perf_counter() - t_built
        result.stats["base_build_s"] = base_build_s
        result.stats["worker_build_s"] = [host.build_s for host in hosts]
        result.stats["worker_base_phase_s"] = [host.base_phase_s
                                               for host in hosts]
        return result
    finally:
        for host in hosts:
            host.close()
