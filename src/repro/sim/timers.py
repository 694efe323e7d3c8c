"""Timer helpers built on top of the simulation kernel.

The GRP protocol drives everything with two timers per node (the computation
timer ``Tc`` with period τ1 and the send timer ``Ts`` with period τ2 ≤ τ1, see
paper Section 4.3).  :class:`PeriodicTimer` models such timers, including an
optional uniform jitter which desynchronizes nodes — exactly what happens on
real radios and what the fair-channel hypothesis of the paper tolerates.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .engine import Event, SimulationError, Simulator

__all__ = ["OneShotTimer", "PeriodicTimer"]


class OneShotTimer:
    """A restartable one-shot timer.

    ``start`` schedules the callback after ``duration``; ``restart`` cancels any
    pending expiration and schedules a fresh one (this mirrors ``restart timer``
    in the paper's pseudo-code).
    """

    def __init__(self, sim: Simulator, duration: float, callback: Callable[[], None]):
        if not 0 < duration < math.inf:
            raise SimulationError(
                f"timer duration must be positive and finite, got {duration!r}")
        self._sim = sim
        self._duration = float(duration)
        self._callback = callback
        self._handle: Optional[Event] = None

    @property
    def duration(self) -> float:
        """Configured expiration delay."""
        return self._duration

    @duration.setter
    def duration(self, value: float) -> None:
        if not 0 < value < math.inf:
            raise SimulationError(
                f"timer duration must be positive and finite, got {value!r}")
        self._duration = float(value)

    @property
    def pending(self) -> bool:
        """Whether an expiration is currently scheduled."""
        return self._handle is not None and not self._handle.cancelled

    def start(self) -> None:
        """Schedule (or reschedule) the expiration after ``duration``."""
        self.restart()

    def restart(self) -> None:
        """Cancel any pending expiration and schedule a new one."""
        self.cancel()
        self._handle = self._sim.schedule(self._duration, self._fire)

    def cancel(self) -> None:
        """Cancel the pending expiration, if any."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class PeriodicTimer:
    """A periodic timer with optional per-period jitter.

    Parameters
    ----------
    sim:
        Owning simulator.
    period:
        Nominal period between expirations.
    callback:
        Invoked (without arguments) at each expiration.
    jitter:
        If > 0, each period is drawn uniformly from
        ``[period * (1 - jitter), period * (1 + jitter)]``.
    rng:
        Random generator used for jitter (defaults to the simulator's root rng).
    phase:
        Delay before the first expiration.  Defaults to one (jittered) period.
    """

    def __init__(self, sim: Simulator, period: float, callback: Callable[[], None],
                 jitter: float = 0.0, rng: Optional[np.random.Generator] = None,
                 phase: Optional[float] = None):
        if not 0 < period < math.inf:
            raise SimulationError(
                f"timer period must be positive and finite, got {period!r}")
        if not 0.0 <= jitter < 1.0:
            raise SimulationError("jitter must be in [0, 1)")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = rng if rng is not None else sim.rng
        self._phase = phase
        self._handle: Optional[Event] = None
        self._running = False
        self._expirations = 0

    @property
    def period(self) -> float:
        """Nominal period."""
        return self._period

    @property
    def running(self) -> bool:
        """Whether the timer is active."""
        return self._running

    @property
    def expirations(self) -> int:
        """Number of expirations fired so far."""
        return self._expirations

    def _next_delay(self) -> float:
        if self._jitter == 0.0:
            return self._period
        low = self._period * (1.0 - self._jitter)
        high = self._period * (1.0 + self._jitter)
        # Generator.uniform(low, high) computes exactly this from one
        # random() draw; spelling it out skips numpy's argument handling.
        return low + (high - low) * self._rng.random()

    def start(self) -> None:
        """Start the timer (idempotent)."""
        if self._running:
            return
        self._running = True
        delay = self._phase if self._phase is not None else self._next_delay()
        self._handle = self._sim.schedule(max(0.0, delay), self._fire)

    def stop(self) -> None:
        """Stop the timer; pending expirations are cancelled."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # The handle protocol of :meth:`Simulator.call_every`.
    cancel = stop

    @property
    def cancelled(self) -> bool:
        """Whether the timer is stopped."""
        return not self._running

    @property
    def time(self) -> float:
        """Time of the next expiration (``nan`` while stopped)."""
        return self._handle.time if self._handle is not None else math.nan

    def _fire(self) -> None:
        if not self._running:
            return
        event = self._handle
        self._expirations += 1
        self._callback()
        # Re-arm the event that just fired, unless the callback stopped the
        # timer or stopped and restarted it (``start`` armed a fresh event).
        if self._running and self._handle is event:
            sim = self._sim
            sim._insert(event, sim._now + self._next_delay())
