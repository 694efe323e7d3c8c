"""Sim-time-correlated spans around the engine's hot paths.

A *span* is one timed execution of a named code region — CSR rebuild, a
batched channel decision, a bulk schedule — recorded as
``(sim_time, seq, wall_ns, payload_counts)``:

* ``sim_time`` — the simulated clock when the region ran, so wall-cost can be
  correlated with what the simulation was doing;
* ``seq`` — a per-context monotonic sequence number (observation order, *not*
  the simulator's event sequence — the obs layer never touches that);
* ``wall_ns`` — wall-clock nanoseconds spent in the region;
* ``payload_counts`` — small integers describing the work done (receivers
  decided, arcs rebuilt, events inserted).

Per-name aggregates (:class:`SpanStats`) are always exact: count, total /
min / max wall time, a fixed-bucket wall-time histogram and summed payload
counts.  Raw records are kept in a bounded sliding window per name (newest
win), so long runs cannot grow memory without bound; percentiles computed
from the window describe the most recent ``max_records`` executions and the
export says how many records were dropped.

Nothing here reads randomness or mutates simulation state: recording a span
is observation only, which is what makes ``obs`` safe to enable on a seeded
run (the replay-determinism suite holds the stack to that).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Optional, Sequence

from .metrics import DEFAULT_WALL_NS_BUCKETS, Histogram

__all__ = ["SpanRecord", "SpanStats"]


class SpanRecord:
    """One recorded execution of a named region."""

    __slots__ = ("sim_time", "seq", "wall_ns", "counts")

    def __init__(self, sim_time: float, seq: int, wall_ns: int,
                 counts: Optional[Dict[str, int]]):
        self.sim_time = sim_time
        self.seq = seq
        self.wall_ns = wall_ns
        self.counts = counts

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"sim_time": self.sim_time, "seq": self.seq,
                                   "wall_ns": self.wall_ns}
        if self.counts:
            data.update(self.counts)
        return data


def _nearest_rank(sorted_values: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of an ascending sequence (clamped)."""
    index = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


class SpanStats:
    """Aggregates plus a bounded record window for one span name."""

    __slots__ = ("name", "count", "wall_ns_total", "wall_ns_min", "wall_ns_max",
                 "histogram", "count_totals", "records", "dropped")

    def __init__(self, name: str, max_records: int,
                 bounds: Sequence[float] = DEFAULT_WALL_NS_BUCKETS):
        self.name = name
        self.count = 0
        self.wall_ns_total = 0
        self.wall_ns_min: Optional[int] = None
        self.wall_ns_max = 0
        self.histogram = Histogram(bounds)
        self.count_totals: Dict[str, int] = {}
        #: Sliding window of the most recent records (``max_records=0`` keeps
        #: none — aggregates still count every execution exactly).
        self.records: Deque[SpanRecord] = deque(maxlen=max_records)
        self.dropped = 0

    def observe(self, sim_time: float, seq: int, wall_ns: int,
                counts: Optional[Dict[str, int]]) -> None:
        self.count += 1
        self.wall_ns_total += wall_ns
        if self.wall_ns_min is None or wall_ns < self.wall_ns_min:
            self.wall_ns_min = wall_ns
        if wall_ns > self.wall_ns_max:
            self.wall_ns_max = wall_ns
        self.histogram.observe(wall_ns)
        if counts:
            totals = self.count_totals
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
        if self.records.maxlen != 0:
            if len(self.records) == self.records.maxlen:
                self.dropped += 1
            self.records.append(SpanRecord(sim_time, seq, wall_ns, counts))
        else:
            self.dropped += 1

    # ------------------------------------------------------------- reporting

    def percentile_ns(self, fraction: float) -> Optional[int]:
        """Nearest-rank percentile of the record *window* (None when empty).

        Over the most recent ``max_records`` executions only; ``dropped``
        says how many earlier records fell out of the window.
        """
        if not self.records:
            return None
        return _nearest_rank(sorted(r.wall_ns for r in self.records), fraction)

    def as_dict(self, include_records: bool = False) -> Dict[str, object]:
        data: Dict[str, object] = {
            "count": self.count,
            "wall_ns_total": self.wall_ns_total,
            "wall_ns_min": self.wall_ns_min,
            "wall_ns_max": self.wall_ns_max,
            "wall_ns_p50": self.percentile_ns(0.50),
            "wall_ns_p95": self.percentile_ns(0.95),
            "histogram": self.histogram.as_dict(),
            "dropped_records": self.dropped,
        }
        if self.count_totals:
            data["payload_totals"] = {k: self.count_totals[k]
                                      for k in sorted(self.count_totals)}
        if include_records:
            data["records"] = [record.as_dict() for record in self.records]
        return data

