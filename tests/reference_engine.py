"""Test-only reference scheduler for :mod:`repro.sim.engine`.

:class:`ReferenceSimulator` keeps its events in a plain list sorted by
``(time, seq)`` (``bisect.insort``) and pops the head.  Every schedule call
and every periodic re-arm creates a fresh :class:`ReferenceEvent` under the
next sequence number, and :attr:`ReferenceSimulator.pending_events` recounts
the live events in the list instead of keeping a counter.  The production
:class:`~repro.sim.engine.Simulator` keeps a heap, hands out one event object
that is its own handle, keeps a live pending counter and re-arms a periodic
timer's own event; a script driven through both must produce the same
execution trace, counts and timer RNG states.

:class:`ReferencePeriodicTimer` is the periodic timer on top of it: it
schedules a new event per expiration.  Nothing under ``src/`` imports this
module.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.sim.engine import SimulationError

__all__ = ["ReferenceEvent", "ReferencePeriodicTimer", "ReferenceSimulator"]


class ReferenceEvent:
    """One scheduled callback of the reference scheduler."""

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _ReferenceRepeater:
    """``call_every`` handle: a fresh event per occurrence."""

    def __init__(self, sim: "ReferenceSimulator", interval: float, first: float,
                 callback: Callable[..., Any], args: tuple):
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._args = args
        self.cancelled = False
        self._event = sim.schedule_at(first, self._fire)

    @property
    def time(self) -> float:
        return self._event.time

    def cancel(self) -> None:
        self.cancelled = True
        self._event.cancel()

    def _fire(self) -> None:
        if self.cancelled:
            return
        self._callback(*self._args)
        if not self.cancelled:
            self._event = self._sim.schedule(self._interval, self._fire)


class ReferenceSimulator:
    """Sorted-list discrete-event scheduler with the production contract."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, ReferenceEvent]] = []
        self._next_seq = 0
        self._processed = 0
        #: every insertion, re-arms included (the ``sim.scheduled`` counter)
        self.scheduled = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return sum(not event.cancelled for _, _, event in self._queue)

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> ReferenceEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._insert(float(self._now + delay), callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> ReferenceEvent:
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time} before {self._now}")
        return self._insert(float(time), callback, args)

    def schedule_many(self, delays, callback, args_seq) -> List[ReferenceEvent]:
        if any(delay < 0 for delay in delays):
            raise SimulationError("cannot schedule in the past")
        return [self.schedule(delay, callback, *args)
                for delay, args in zip(delays, args_seq)]

    def _insert(self, time: float, callback, args) -> ReferenceEvent:
        event = ReferenceEvent(time, callback, tuple(args))
        bisect.insort(self._queue, (time, self._next_seq, event))
        self._next_seq += 1
        self.scheduled += 1
        return event

    def call_every(self, interval: float, callback: Callable[..., Any], *args: Any,
                   start: Optional[float] = None) -> _ReferenceRepeater:
        first = self._now + (interval if start is None else max(0.0, start - self._now))
        return _ReferenceRepeater(self, float(interval), first, callback, args)

    def peek_time(self) -> Optional[float]:
        live = [time for time, _, event in self._queue if not event.cancelled]
        return live[0] if live else None

    def _execute(self, end: float, inclusive: bool,
                 max_events: Optional[int]) -> Tuple[int, bool]:
        limit = math.inf if max_events is None else max_events
        executed = 0
        while executed < limit:
            live = [entry for entry in self._queue if not entry[2].cancelled]
            if not live:
                return executed, False
            time, _, event = live[0]
            if time > end or (time == end and not inclusive):
                return executed, True
            self._queue.remove(live[0])
            self._now = time
            event.callback(*event.args)
            self._processed += 1
            executed += 1
        return executed, False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until {until} before {self._now}")
        executed, bounded = self._execute(
            math.inf if until is None else until, True, max_events)
        if bounded:
            self._now = float(until)
        return executed

    def run_window(self, end: float, inclusive: bool = False,
                   max_events: Optional[int] = None) -> int:
        return self._execute(end, inclusive, max_events)[0]

    def step(self) -> bool:
        return self._execute(math.inf, True, 1)[0] == 1


class ReferencePeriodicTimer:
    """Jittered periodic timer that schedules a new event per expiration."""

    def __init__(self, sim: ReferenceSimulator, period: float,
                 callback: Callable[[], None], jitter: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 phase: Optional[float] = None):
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = rng
        self._phase = phase
        self._handle: Optional[ReferenceEvent] = None
        self._running = False
        self.expirations = 0

    @property
    def running(self) -> bool:
        return self._running

    def _next_delay(self) -> float:
        if self._jitter == 0.0:
            return self._period
        return float(self._rng.uniform(self._period * (1.0 - self._jitter),
                                       self._period * (1.0 + self._jitter)))

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        delay = self._phase if self._phase is not None else self._next_delay()
        self._handle = self._sim.schedule(max(0.0, delay), self._fire)

    def stop(self) -> None:
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        fired = self._handle
        self.expirations += 1
        self._callback()
        # A stop (or a stop and restart) inside the callback owns the timer.
        if self._running and self._handle is fired:
            self._handle = self._sim.schedule(self._next_delay(), self._fire)
