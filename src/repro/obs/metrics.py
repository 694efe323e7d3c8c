"""Hierarchical metrics registry: counters, gauges, fixed-bucket histograms.

Instrument names are dotted paths (``"sim.events"``, ``"topology.csr_rebuild"``)
grouped purely by convention — the registry itself is one flat dict, so lookups
stay O(1) and exports render the hierarchy by sorting names.

Determinism contract (the reason this module exists instead of a third-party
metrics client): instruments are **observation-only state**.  They draw no
randomness, schedule no events, iterate no unordered containers while
exporting (names are sorted), and never feed a value back into anything the
simulation reads — so enabling them cannot perturb a seeded run.  Wall-clock
readings belong to span recording (:mod:`repro.obs.spans`), never to registry
values consumed by simulation code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_WALL_NS_BUCKETS"]

#: Default histogram bounds for wall-clock durations in nanoseconds:
#: 1 µs .. 10 s in decades, a fixed ladder so exports are comparable across
#: runs and machines without any adaptive re-bucketing.
DEFAULT_WALL_NS_BUCKETS: Tuple[float, ...] = (
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10)


class Counter:
    """Monotonic event counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram (bounds are upper-inclusive, plus overflow).

    ``counts[i]`` counts observations ``<= bounds[i]`` (and greater than the
    previous bound); ``counts[-1]`` is the overflow bucket.  Bounds are fixed
    at construction — no adaptive resizing, so two runs observing the same
    values export identical bucket vectors.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_WALL_NS_BUCKETS):
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be ascending")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def as_dict(self) -> Dict[str, object]:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.total, "count": self.count}


class MetricsRegistry:
    """Flat name -> instrument store with get-or-create accessors.

    An instrument's kind is pinned by its first registration; re-registering
    the same name with a different kind (or different histogram bounds) is a
    programming error and raises immediately.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, kind: type, factory) -> object:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory()
        elif type(instrument) is not kind:
            raise TypeError(f"instrument {name!r} already registered as "
                            f"{type(instrument).__name__}, not {kind.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_WALL_NS_BUCKETS) -> Histogram:
        histogram = self._get(name, Histogram, lambda: Histogram(bounds))
        if histogram.bounds != tuple(float(b) for b in bounds):
            raise ValueError(f"histogram {name!r} already registered with "
                             f"different bounds")
        return histogram

    def get(self, name: str) -> Optional[object]:
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def names(self) -> List[str]:
        """All registered names, sorted (export order)."""
        return sorted(self._instruments)

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """``{"counters": {...}, "gauges": {...}, "histograms": {...}}``.

        Names are sorted within each kind, so the export is deterministic for
        a deterministic sequence of observations.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, object] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if type(instrument) is Counter:
                counters[name] = instrument.value
            elif type(instrument) is Gauge:
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.as_dict()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}
