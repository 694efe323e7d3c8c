"""Discrete-event simulation kernel used by the GRP reproduction."""

from .collector import collector_paused
from .engine import Event, SimulationError, Simulator
from .process import Process
from .randomness import SeedSequenceFactory, derive_seed, substream
from .timers import OneShotTimer, PeriodicTimer
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "Process",
    "SeedSequenceFactory",
    "derive_seed",
    "substream",
    "OneShotTimer",
    "PeriodicTimer",
    "TraceRecord",
    "TraceRecorder",
    "collector_paused",
]
