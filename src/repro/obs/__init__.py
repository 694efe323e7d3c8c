"""Zero-cost-when-disabled runtime observability.

Public surface:

* :func:`current` / :func:`enable` / :func:`disable` / :func:`observing` —
  the process-local runtime switch.  Off by default; components capture
  ``current()`` once at construction and guard hot paths with a single
  attribute check, so a disabled run performs no observation work at all.
* :class:`ObsContext` — one observed run: a :class:`MetricsRegistry` of
  counters / gauges / fixed-bucket histograms, sim-time-correlated span
  statistics and a protocol :class:`EventStream` (group lifecycle, predicate
  violations, convergence milestones), exported as one JSON blob.
* :func:`merge_export_blobs` — the one fold of per-shard or per-task export
  blobs into an aggregate (counters add, histograms fold element-wise, record
  windows interleave in ``(sim_time, seq)`` order and keep the live bounds,
  kind conflicts raise).
* :func:`write_blob_jsonl` — the one ``repro-obs/v1`` JSON-lines writer.
* :func:`profiling` — opt-in cProfile wrapper for ``--profile``.

Invariants (pinned by ``tests/test_obs.py`` and the replay-determinism
matrix): the obs layer never consumes RNG, never schedules or reorders
events, and keeps wall-clock readings out of sim-visible state — enabling it
leaves a seeded run bit-identical.
"""

from .context import (ObsContext, current, disable, enable, merge_export_blobs,
                      observing, write_blob_jsonl)
from .events import EventStream, ObsEvent
from .metrics import (Counter, DEFAULT_WALL_NS_BUCKETS, Gauge, Histogram,
                      MetricsRegistry)
from .profile import profile_summary, profiling
from .spans import SpanRecord, SpanStats

__all__ = [
    "ObsContext",
    "current",
    "enable",
    "disable",
    "observing",
    "merge_export_blobs",
    "write_blob_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_WALL_NS_BUCKETS",
    "EventStream",
    "ObsEvent",
    "SpanRecord",
    "SpanStats",
    "profiling",
    "profile_summary",
]
