"""Discrete-event simulation kernel.

The GRP protocol (and every other protocol in this repository) runs on top of a
small, deterministic, seeded discrete-event simulator.  The design follows the
classic event-list approach:

* the :class:`Simulator` keeps a priority queue of ``(time, seq, event)``
  tuples, so that ties are broken deterministically in scheduling order (the
  sequence number is unique: the :class:`Event` itself is never compared);
* callbacks registered with :meth:`Simulator.schedule` are invoked with the
  simulator clock already advanced to the event time;
* events can be cancelled through the :class:`EventHandle` returned at
  scheduling time (cancellation is O(1): the event is flagged and skipped when
  popped).

The simulator also owns the root random generator (``numpy.random.Generator``)
from which all stochastic components (mobility, channel loss, jitter) derive
sub-streams, making every run fully reproducible from a single seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import current as _obs_current

__all__ = ["Event", "EventHandle", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulator is used inconsistently (e.g. scheduling in the past)."""


@dataclass(eq=False, slots=True)
class Event:
    """A single scheduled callback.

    The queue orders events by the ``(time, seq)`` key stored next to them;
    events themselves are not comparable.
    """

    time: float
    seq: int
    callback: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    cancelled: bool = False
    done: bool = False


class EventHandle:
    """Opaque handle allowing cancellation and inspection of a scheduled event."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: Event, sim: Optional["Simulator"] = None):
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        """Scheduled activation time."""
        return self._event.time

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self._event.cancelled

    def cancel(self) -> None:
        """Cancel the event; it will be silently skipped when reached."""
        if not self._event.cancelled:
            self._event.cancelled = True
            if self._sim is not None and not self._event.done:
                self._sim._pending -= 1


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed of the root random generator.  Two simulators created with the
        same seed and fed the same scheduling sequence produce identical runs.
    start_time:
        Initial value of the simulated clock (defaults to ``0.0``).
    """

    def __init__(self, seed: Optional[int] = None, start_time: float = 0.0):
        self._now: float = float(start_time)
        self._queue: List[Tuple[float, int, Event]] = []
        # A plain int, not itertools.count(): counts don't pickle, and the
        # sharded snapshot-restore path serializes built simulators wholesale.
        self._next_seq = 0
        self._rng = np.random.default_rng(seed)
        self._seed = seed
        self._processed = 0
        self._pending = 0
        self._running = False
        # Observability is captured once at construction; when disabled the
        # hot paths below pay exactly one attribute load + None test.
        obs = _obs_current()
        self._obs = obs
        self._obs_events = obs.registry.counter("sim.events") if obs else None
        self._obs_scheduled = obs.registry.counter("sim.scheduled") if obs else None

    def recapture_obs(self) -> None:
        """Re-point the cached obs handles at the process-local context.

        The capture-once contract pins observation scope at construction;
        worlds that cross a process boundary after construction (sharded
        snapshot restore) carry the builder's handles and call this so the
        restoring worker's own context observes the run.
        """
        obs = _obs_current()
        self._obs = obs
        self._obs_events = obs.registry.counter("sim.events") if obs else None
        self._obs_scheduled = obs.registry.counter("sim.scheduled") if obs else None

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def rng(self) -> np.random.Generator:
        """Root random generator of the run."""
        return self._rng

    @property
    def seed(self) -> Optional[int]:
        """Seed the simulator was created with (``None`` for entropy-based)."""
        return self._seed

    @property
    def processed_events(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events currently scheduled.

        Maintained as a live counter (incremented on scheduling, decremented on
        cancellation and execution) so reading it is O(1) — the previous
        implementation scanned the whole event queue on every call.
        """
        return self._pending

    def spawn_rng(self) -> np.random.Generator:
        """Create an independent child generator (stable given call order)."""
        return np.random.default_rng(self._rng.integers(0, 2**63 - 1))

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> EventHandle:
        """Schedule ``callback(*args, **kwargs)`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any,
                    **kwargs: Any) -> EventHandle:
        """Schedule ``callback`` at the absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} which is before current time {self._now}")
        seq = self._next_seq
        self._next_seq += 1
        time = float(time)
        event = Event(time, seq, callback, args, kwargs)
        heapq.heappush(self._queue, (time, seq, event))
        self._pending += 1
        if self._obs_scheduled is not None:
            self._obs_scheduled.inc()
        return EventHandle(event, self)

    def schedule_many(self, delays: Sequence[float], callback: Callable[..., Any],
                      args_seq: Sequence[tuple]) -> List[EventHandle]:
        """Bulk-schedule ``callback(*args)`` for each ``(delay, args)`` pair.

        Equivalent to ``[self.schedule(d, callback, *a) for d, a in
        zip(delays, args_seq)]`` — same contiguous sequence numbers in the same
        order, so executions interleave identically — but inserted through one
        amortized path: when the batch is large relative to the heap, the
        events are appended and the heap is rebuilt with a single
        ``heapify`` (O(n + m)) instead of m sifting pushes (O(m log n)).
        Pop order only depends on the total ``(time, seq)`` order, never on the
        heap's internal layout, so both insertion strategies replay
        identically.  All delays are validated before any event is inserted.
        """
        if len(delays) != len(args_seq):
            raise SimulationError("schedule_many needs one args tuple per delay")
        obs = self._obs
        t0 = obs.clock() if obs is not None else 0
        now = self._now
        for delay in delays:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq0 = self._next_seq
        times = [float(now + delay) for delay in delays]
        entries = [(time, seq, Event(time, seq, callback, tuple(args)))
                   for seq, time, args in zip(range(seq0, seq0 + len(times)), times, args_seq)]
        self._next_seq = seq0 + len(entries)
        if len(self._queue) < 4 * len(entries):
            self._queue.extend(entries)
            heapq.heapify(self._queue)
        else:
            for entry in entries:
                heapq.heappush(self._queue, entry)
        self._pending += len(entries)
        if obs is not None:
            self._obs_scheduled.inc(len(entries))
            obs.record_span("sim.schedule_many", now, t0, {"events": len(entries)})
        return [EventHandle(event, self) for _, _, event in entries]

    def cancel(self, handle: EventHandle) -> None:
        """Cancel an event previously returned by :meth:`schedule`."""
        handle.cancel()

    # -------------------------------------------------------------- execution

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def advance_clock(self, time: float) -> None:
        """Move the clock forward to ``time`` without executing anything.

        Used by synchronized-window executors (:mod:`repro.shard`) to align a
        quiet shard with the global window time before applying remote
        deliveries inline.  Refuses to jump over pending work: advancing past
        a scheduled event would execute it with a lying clock later.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot move the clock backwards ({time} < {self._now})")
        next_time = self.peek_time()
        if next_time is not None and next_time < time:
            raise SimulationError(
                f"cannot advance to {time}: event pending at {next_time}")
        self._now = float(time)

    def run_window(self, end: float, inclusive: bool = False,
                   max_events: Optional[int] = None) -> int:
        """Execute every pending event with ``time < end`` (``<= end`` when
        ``inclusive``), in ``(time, seq)`` order, and return how many ran.

        Unlike :meth:`run`, the clock is *not* advanced to ``end`` when the
        queue runs dry: conservative window synchronization
        (:mod:`repro.shard`) may still apply remote deliveries anywhere inside
        the window, so the clock must trail the last executed event.  Events
        scheduled during the window that still fall inside it are executed by
        the same call (zero-delay cascades stay local).
        """
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                break
            next_time = self.peek_time()
            if next_time is None:
                break
            if (next_time > end) if inclusive else (next_time >= end):
                break
            if self.step():
                executed += 1
        return executed

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue was empty.
        """
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            if event.cancelled:
                continue
            event.done = True
            self._pending -= 1
            self._now = event.time
            obs = self._obs
            if obs is None:
                event.callback(*event.args, **event.kwargs)
            else:
                t0 = obs.clock()
                event.callback(*event.args, **event.kwargs)
                obs.record_span("sim.event_pop", event.time, t0)
                self._obs_events.inc()
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled exactly
            at ``until`` are executed.  ``None`` runs until the queue is empty.
        max_events:
            Safety bound on the number of executed events.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        executed = 0
        obs = self._obs
        t0 = obs.clock() if obs is not None else 0
        self._running = True
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = float(until)
                    break
                if self.step():
                    executed += 1
        finally:
            self._running = False
            if obs is not None:
                obs.record_span("sim.run", self._now, t0, {"events": executed})
        return executed

    def run_until_empty(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by ``max_events``)."""
        return self.run(until=None, max_events=max_events)

    # ------------------------------------------------------------------ misc

    def call_every(self, interval: float, callback: Callable[..., Any], *args: Any,
                   start: Optional[float] = None, **kwargs: Any) -> EventHandle:
        """Schedule ``callback`` periodically every ``interval`` time units.

        The returned handle cancels the *next* occurrence only; use a
        :class:`repro.sim.timers.PeriodicTimer` for richer control.
        """
        if interval <= 0:
            raise SimulationError("interval must be positive")
        first = self._now + (interval if start is None else max(0.0, start - self._now))

        state = {"handle": None, "stopped": False}

        def _fire() -> None:
            if state["stopped"]:
                return
            callback(*args, **kwargs)
            state["handle"] = self.schedule(interval, _fire)

        state["handle"] = self.schedule_at(first, _fire)

        class _PeriodicHandle(EventHandle):
            def __init__(self):  # noqa: D401 - thin wrapper
                pass

            @property
            def time(self) -> float:
                return state["handle"].time if state["handle"] else float("nan")

            @property
            def cancelled(self) -> bool:
                return state["stopped"]

            def cancel(self) -> None:
                state["stopped"] = True
                if state["handle"] is not None:
                    state["handle"].cancel()

        return _PeriodicHandle()

    def drain(self) -> Iterable[Event]:
        """Remove and return every pending event (used by tests)."""
        events = [event for _, _, event in self._queue if not event.cancelled]
        for _, _, event in self._queue:
            # Mark drained events done so a late EventHandle.cancel() does not
            # decrement the pending counter below zero.
            event.done = True
        self._queue.clear()
        self._pending = 0
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Simulator(now={self._now:.3f}, pending={self.pending_events}, "
                f"processed={self._processed})")
