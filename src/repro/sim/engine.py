"""Discrete-event simulation kernel.

The GRP protocol (and every other protocol in this repository) runs on top of a
small, deterministic, seeded discrete-event simulator.  The design follows the
classic event-list approach:

* the :class:`Simulator` keeps a priority queue of ``(time, seq, event)``
  tuples, so that ties are broken deterministically in scheduling order (the
  sequence number is unique: the :class:`Event` itself is never compared);
* callbacks registered with :meth:`Simulator.schedule` are invoked with the
  simulator clock already advanced to the event time;
* one :class:`Event` per scheduled callback is both the queue payload and
  the handle :meth:`Simulator.schedule` returns; cancelling it is O(1) (the
  event is flagged and skipped when popped);
* a periodic timer re-inserts the event that just fired, under the next
  sequence number, exactly where a fresh :meth:`Simulator.schedule` would.

The simulator also owns the root random generator (``numpy.random.Generator``)
from which all stochastic components (mobility, channel loss, jitter) derive
sub-streams, making every run fully reproducible from a single seed.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..obs import current as _obs_current
from .randomness import generators

if TYPE_CHECKING:
    from .timers import PeriodicTimer

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulator is used inconsistently (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback, and the handle that cancels it.

    The queue orders events by the ``(time, seq)`` key stored next to them;
    events themselves are not comparable.  ``_sim`` is the owning simulator
    while the event is queued and ``None`` once it ran or was drained, so a
    late :meth:`cancel` leaves the pending counter alone.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"]):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event; it will be silently skipped when reached."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
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
        # Streams of an open reserved_streams() block, last one first.
        self._reserved: Optional[List[np.random.Generator]] = None
        self._processed = 0
        self._pending = 0
        # Observability is captured once at construction; when disabled the
        # hot paths below pay exactly one attribute load + None test.
        obs = _obs_current()
        self._obs = obs
        self._obs_events = obs.registry.counter("sim.events") if obs else None
        self._obs_scheduled = obs.registry.counter("sim.scheduled") if obs else None

    def recapture_obs(self) -> None:
        """Re-point the cached obs handles at the process-local context.

        The capture-once contract pins observation scope at construction;
        worlds that cross a process boundary after construction (a sharded
        snapshot restore or a forked worker's inherited build) carry the
        builder's handles and call this so the worker's own context
        observes the run.
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
        """Create an independent child generator (stable given call order).

        The child is ``default_rng`` of one root draw in ``[0, 2**63 - 1)``.
        Inside :meth:`reserved_streams` the next reserved stream is handed
        out instead: an equal generator, built in one batch.
        """
        reserved = self._reserved
        if reserved:
            return reserved.pop()
        return np.random.default_rng(self._rng.integers(0, 2**63 - 1))

    def spawn_rngs(self, n: int) -> List[np.random.Generator]:
        """The next ``n`` :meth:`spawn_rng` streams, built in one batch.

        One ``integers(0, 2**63 - 1, size=n)`` draw gives the same seeds and
        leaves the root where ``n`` scalar draws would (numpy's bounded
        64-bit draw takes one path for a scalar and an array;
        ``tests/test_seeded_streams.py`` holds it), and
        :func:`~repro.sim.randomness.generators` seeds them as
        ``default_rng`` would.
        """
        return generators(self._rng.integers(0, 2**63 - 1, size=n))

    @contextmanager
    def reserved_streams(self, n: int) -> Iterator[None]:
        """Pre-build the next ``n`` :meth:`spawn_rng` streams for a block.

        Inside the block :meth:`spawn_rng` hands the reserved streams out in
        draw order, so code that spawns one stream per node runs unchanged
        and gets the streams sequential spawns would give.  On leaving,
        :class:`SimulationError` is raised unless every stream was taken
        and the root generator did not move past the batch (a root draw
        inside the block would reorder every later stream).
        """
        if self._reserved is not None:
            raise SimulationError("stream reservations do not nest")
        self._reserved = self.spawn_rngs(n)[::-1]
        batch_end = self._rng.bit_generator.state
        try:
            yield
        finally:
            left = len(self._reserved)
            self._reserved = None
        if left:
            raise SimulationError(f"{left} of {n} reserved streams were never taken")
        if self._rng.bit_generator.state != batch_end:
            raise SimulationError("the root generator was drawn inside a stream "
                                  "reservation")

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any,
                 **kwargs: Any) -> Event:
        """Schedule ``callback(*args, **kwargs)`` after ``delay`` time units."""
        if not 0 <= delay < math.inf:
            raise SimulationError(f"cannot schedule with delay={delay}: a delay "
                                  "must be finite and >= 0")
        if kwargs:
            callback = partial(callback, **kwargs)
        time = float(self._now + delay)
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, callback, args, self)
        heapq.heappush(self._queue, (time, seq, event))
        self._pending += 1
        if self._obs_scheduled is not None:
            self._obs_scheduled.inc()
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any,
                    **kwargs: Any) -> Event:
        """Schedule ``callback`` at the absolute simulated time ``time``."""
        if not self._now <= time < math.inf:
            raise SimulationError(f"cannot schedule at {time}: it must be finite "
                                  f"and >= the current time {self._now}")
        if kwargs:
            callback = partial(callback, **kwargs)
        event = Event(float(time), callback, args, self)
        self._insert(event, event.time)
        return event

    def _insert(self, event: Event, time: float) -> None:
        """Queue ``event`` at ``time`` under the next sequence number, as a
        new :meth:`schedule` call would; periodic timers re-arm through this."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event.time = time
        event._sim = self
        heapq.heappush(self._queue, (time, seq, event))
        self._pending += 1
        if self._obs_scheduled is not None:
            self._obs_scheduled.inc()

    def schedule_many(self, delays: Sequence[float], callback: Callable[..., Any],
                      args_seq: Sequence[tuple]) -> List[Event]:
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
        m = len(delays)
        if m != len(args_seq):
            raise SimulationError("schedule_many needs one args tuple per delay")
        # ``min`` can skip a NaN, ``sum`` cannot, and a sum of non-negative
        # delays is finite if every delay is: one pass each, at C speed.  (A
        # sum that overflows finite delays finds no culprit and passes.)
        if m and not (min(delays) >= 0 and sum(delays) < math.inf):
            bad = next((d for d in delays if not 0 <= d < math.inf), None)
            if bad is not None:
                raise SimulationError(f"cannot schedule with delay={bad}: a delay "
                                      "must be finite and >= 0")
        obs = self._obs
        t0 = obs.clock() if obs is not None else 0
        now = self._now
        seq = self._next_seq
        queue = self._queue
        bulk = len(queue) < 4 * m
        push = queue.append if bulk else partial(heapq.heappush, queue)
        events = []
        for delay, args in zip(delays, args_seq):
            time = float(now + delay)
            event = Event(time, callback, tuple(args), self)
            push((time, seq, event))
            events.append(event)
            seq += 1
        if bulk:
            heapq.heapify(queue)
        self._next_seq = seq
        self._pending += m
        if obs is not None:
            self._obs_scheduled.inc(m)
            obs.record_span("sim.schedule_many", now, t0, {"events": m})
        return events

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
        if not self._now <= time < math.inf:
            raise SimulationError(f"cannot advance the clock to {time}: it must be "
                                  f"finite and >= the current time {self._now}")
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
        the same call (zero-delay cascades stay local).  An ``end`` before
        :attr:`now` (or NaN) raises :class:`SimulationError`.
        """
        if not end >= self._now:
            raise SimulationError(
                f"cannot run a window to {end}: the clock is already at {self._now}")
        return self._execute(end, inclusive, max_events)[0]

    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue was empty.
        """
        return self._execute(math.inf, True, 1)[0] == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled exactly
            at ``until`` are executed.  ``None`` runs until the queue is empty.
            A bound earlier than :attr:`now` (or NaN) raises
            :class:`SimulationError` (the clock never moves backwards).
        max_events:
            Safety bound on the number of executed events.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        if until is not None and not until >= self._now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self._now}")
        executed = 0
        obs = self._obs
        t0 = obs.clock() if obs is not None else 0
        try:
            executed, bounded = self._execute(
                math.inf if until is None else until, True, max_events)
            if bounded:
                self._now = float(until)
        finally:
            if obs is not None:
                obs.record_span("sim.run", self._now, t0, {"events": executed})
        return executed

    def _execute(self, end: float, inclusive: bool,
                 max_events: Optional[int]) -> Tuple[int, bool]:
        """The event loop shared by :meth:`run`, :meth:`run_window` and :meth:`step`.

        Pops ``(time, seq, event)`` entries straight off the heap, discarding
        cancelled ones, and executes events up to ``end`` (inclusive or not)
        and at most ``max_events`` of them.  Returns the number executed and
        whether the loop stopped at a live event beyond the bound (``False``
        when the queue drained or ``max_events`` was reached).  The entry
        that crosses the bound goes back on the heap unchanged.
        """
        queue = self._queue
        heappop = heapq.heappop
        obs = self._obs
        limit = math.inf if max_events is None else max_events
        # ``time >= end`` is ``time > nextafter(end, -inf)`` on floats.
        bound = end if inclusive else math.nextafter(end, -math.inf)
        executed = 0
        while queue and executed < limit:
            entry = heappop(queue)
            event = entry[2]
            if event.cancelled:
                continue
            time = entry[0]
            if time > bound:
                heapq.heappush(queue, entry)
                return executed, True
            event._sim = None
            self._pending -= 1
            self._now = time
            if obs is None:
                event.callback(*event.args)
            else:
                t0 = obs.clock()
                event.callback(*event.args)
                obs.record_span("sim.event_pop", time, t0)
                self._obs_events.inc()
            self._processed += 1
            executed += 1
        return executed, False

    # ------------------------------------------------------------------ misc

    def call_every(self, interval: float, callback: Callable[..., Any], *args: Any,
                   start: Optional[float] = None, **kwargs: Any) -> "PeriodicTimer":
        """Call ``callback`` every ``interval`` time units, first at ``start``
        (default: one interval from now).

        Returns the started :class:`repro.sim.timers.PeriodicTimer`; its
        ``cancel`` stops the repetition.
        """
        from .timers import PeriodicTimer  # timers build on this module

        if args or kwargs:
            callback = partial(callback, *args, **kwargs)
        timer = PeriodicTimer(self, interval, callback,
                              phase=None if start is None else max(0.0, start - self._now))
        timer.start()
        return timer

    def drain(self) -> Iterable[Event]:
        """Remove and return every pending event (used by tests)."""
        events = [event for _, _, event in self._queue if not event.cancelled]
        for _, _, event in self._queue:
            # Detach drained events so a late cancel() does not decrement the
            # pending counter below zero.
            event._sim = None
        self._queue.clear()
        self._pending = 0
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Simulator(now={self._now:.3f}, pending={self.pending_events}, "
                f"processed={self._processed})")
