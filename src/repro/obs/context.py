"""The observation context, the export fold and writer, and the runtime switch.

One :class:`ObsContext` describes one observed run (a single experiment, one
campaign task, a benchmark).  Components capture the *current* context exactly
once, at construction time (:func:`current` returns ``None`` when observability
is off), and their hot paths guard every observation behind a single
``if self._obs is not None`` attribute check — the same zero-cost-when-disabled
trick the delivery pipeline uses for ``is_app_payload``.  With observability
off there is no registry lookup, no clock read, no allocation anywhere on a
hot path (``tests/test_obs.py`` pins that contract with a sentinel context
that raises on any touch).

Enabling is process-local and scoped::

    with observing() as obs:
        ...build simulator / network / run experiment...
    blob = obs.export()

Campaign workers enable a fresh context around each task and persist the
export through the result store; the CLI's ``--obs`` / ``--obs-out`` flags do
the same for single runs.  The export blob is the only form that is merged
and written: :func:`merge_export_blobs` folds shard or task exports into one,
:func:`write_blob_jsonl` writes one as ``repro-obs/v1`` lines.

Determinism: the context never consumes RNG, never schedules or reorders
events, and keeps wall-clock readings strictly inside observation state —
enabling it must not (and, per the replay suite, does not) change a single
delivered byte of a seeded run.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from typing import Any, Dict, Iterator, List, Optional

from .events import DEFAULT_MAX_EVENT_RECORDS, EventStream
from .metrics import MetricsRegistry
from .spans import SpanStats, _nearest_rank

__all__ = ["ObsContext", "current", "enable", "disable", "observing",
           "merge_export_blobs", "write_blob_jsonl"]

#: Bound on stored raw records per span name (aggregates stay exact).
DEFAULT_MAX_SPAN_RECORDS = 1024


class ObsContext:
    """Metrics registry + span recorder + event stream for one observed run.

    Raw records live in sliding windows of the newest
    ``DEFAULT_MAX_SPAN_RECORDS`` per span name and the newest
    ``DEFAULT_MAX_EVENT_RECORDS`` events; aggregates stay exact.

    Parameters
    ----------
    track_heap:
        Start :mod:`tracemalloc` for the context's lifetime and export the
        peak traced heap.  Opt-in: tracing slows allocation-heavy runs
        noticeably, which is why it is not part of plain ``--obs``.
    """

    __slots__ = ("registry", "spans", "events", "_seq",
                 "_track_heap", "_heap_peak", "_started_tracemalloc")

    def __init__(self, track_heap: bool = False):
        self.registry = MetricsRegistry()
        self.spans: Dict[str, SpanStats] = {}
        self.events = EventStream(DEFAULT_MAX_EVENT_RECORDS)
        self._seq = 0
        self._track_heap = bool(track_heap)
        self._heap_peak: Optional[int] = None
        self._started_tracemalloc = False

    # ---------------------------------------------------------------- clock

    #: Instrumented call sites read one timestamp themselves
    #: (``t0 = obs.clock()``) and hand it to :meth:`record_span`.
    clock = staticmethod(time.perf_counter_ns)

    # ---------------------------------------------------------------- spans

    def record_span(self, name: str, sim_time: float, t0_ns: int,
                    counts: Optional[Dict[str, int]] = None) -> None:
        """Record a region entered at ``t0_ns`` (from :meth:`clock`), ending now."""
        wall_ns = time.perf_counter_ns() - t0_ns
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats(name, DEFAULT_MAX_SPAN_RECORDS)
        seq = self._seq
        self._seq = seq + 1
        stats.observe(sim_time, seq, wall_ns, counts)

    def span_stats(self, name: str) -> Optional[SpanStats]:
        return self.spans.get(name)

    # --------------------------------------------------------------- events

    def record_event(self, kind: str, sim_time: float,
                     **payload: Any) -> None:
        """Record one protocol event (group lifecycle, predicate violation,
        convergence milestone) as ``(kind, sim_time, seq, payload)``."""
        seq = self._seq
        self._seq = seq + 1
        self.events.record(kind, sim_time, seq, payload or None)

    # ----------------------------------------------------------- heap (opt-in)

    def heap_start(self) -> None:
        """Begin peak-heap tracking (no-op unless ``track_heap``)."""
        if self._track_heap and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def heap_stop(self) -> None:
        """Capture the traced peak and stop tracking (if this context started it)."""
        if self._track_heap and tracemalloc.is_tracing():
            self._heap_peak = tracemalloc.get_traced_memory()[1]
            if self._started_tracemalloc:
                tracemalloc.stop()
                self._started_tracemalloc = False

    @property
    def heap_peak_bytes(self) -> Optional[int]:
        return self._heap_peak

    # ---------------------------------------------------------------- export

    def export(self, include_records: bool = False) -> Dict[str, Any]:
        """The whole context as one JSON-serializable blob.

        ``include_records`` inlines the raw span record windows (sizeable);
        the campaign store persists the aggregate-only form, single-run and
        shard-worker exports carry the full one.  Event records always ship:
        they hold no wall-clock reading, so they are a pure function of the
        seed.
        """
        blob = self.registry.as_dict()
        blob["spans"] = {name: self.spans[name].as_dict(include_records)
                         for name in sorted(self.spans)}
        blob["events"] = self.events.as_dict()
        if self._heap_peak is not None:
            blob["heap_peak_bytes"] = self._heap_peak
        return blob


# ---------------------------------------------------------------- blob merge


def _windowed(records: List[Dict[str, Any]], bound: int,
              into: Dict[str, Any]) -> List[Dict[str, Any]]:
    """``records`` in ``(sim_time, seq)`` order, trimmed to the newest
    ``bound``; the trimmed ones are added to ``into["dropped_records"]``."""
    records = sorted(records, key=lambda r: (r["sim_time"], r["seq"]))
    overflow = len(records) - bound
    if overflow > 0:
        into["dropped_records"] += overflow
        records = records[overflow:]
    return records


def merge_export_blobs(blobs) -> Dict[str, Any]:
    """Fold exported blobs (dicts from :meth:`ObsContext.export`) into one
    aggregate blob: shard exports into one sharded run, campaign task blobs
    into one campaign.

    Counters add; gauges last-write-wins; histograms fold element-wise
    (same bounds required, else ``ValueError``); a name exported under two
    instrument kinds raises ``TypeError``.  Span aggregates and event kind
    counts add exactly.  Record windows interleave in ``(sim_time, seq)``
    order and keep the newest records up to the live bounds, counting the
    rest in ``dropped_records``; span p50/p95 are recomputed over the merged
    window, and read ``None`` once blobs without span records are folded.
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {},
                              "spans": {}, "events": {"count": 0, "kinds": {},
                                                      "dropped_records": 0,
                                                      "records": []}}
    heap_peak: Optional[int] = None

    def _merge_hist(into: Dict[str, Any], data: Dict[str, Any]) -> None:
        if into.get("bounds") != data.get("bounds"):
            raise ValueError("cannot merge histograms with different bounds")
        into["counts"] = [a + b for a, b in zip(into["counts"], data["counts"])]
        into["sum"] += data["sum"]
        into["count"] += data["count"]

    for blob in blobs:
        for name, value in blob.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in blob.get("gauges", {}).items():
            merged["gauges"][name] = value
        for name, data in blob.get("histograms", {}).items():
            if name not in merged["histograms"]:
                merged["histograms"][name] = json.loads(json.dumps(data))
            else:
                _merge_hist(merged["histograms"][name], data)
        for name, data in blob.get("spans", {}).items():
            into = merged["spans"].get(name)
            if into is None:
                merged["spans"][name] = json.loads(json.dumps(data))
                continue
            into["count"] += data["count"]
            into["wall_ns_total"] += data["wall_ns_total"]
            for key, pick in (("wall_ns_min", min), ("wall_ns_max", max)):
                if data.get(key) is not None:
                    into[key] = (data[key] if into.get(key) is None
                                 else pick(into[key], data[key]))
            _merge_hist(into["histogram"], data["histogram"])
            into["dropped_records"] += data["dropped_records"]
            if data.get("payload_totals"):
                totals = into.setdefault("payload_totals", {})
                for key, value in data["payload_totals"].items():
                    totals[key] = totals.get(key, 0) + value
            if "records" in into or "records" in data:
                into["records"] = into.get("records", []) + data.get("records", [])
            else:
                into["wall_ns_p50"] = None
                into["wall_ns_p95"] = None
        events = blob.get("events")
        if events:
            target = merged["events"]
            target["count"] += events.get("count", 0)
            for kind, n in events.get("kinds", {}).items():
                target["kinds"][kind] = target["kinds"].get(kind, 0) + n
            target["dropped_records"] += events.get("dropped_records", 0)
            target["records"].extend(events.get("records", []))
        if blob.get("heap_peak_bytes") is not None:
            peak = blob["heap_peak_bytes"]
            heap_peak = peak if heap_peak is None else max(heap_peak, peak)

    pinned: Dict[str, str] = {}
    for kind in ("counters", "gauges", "histograms"):
        for name in merged[kind]:
            if pinned.setdefault(name, kind) != kind:
                raise TypeError(f"instrument {name!r} exported as both "
                                f"{pinned[name]} and {kind}")
    events = merged["events"]
    events["records"] = _windowed(events["records"], DEFAULT_MAX_EVENT_RECORDS,
                                  events)
    events["kinds"] = {k: events["kinds"][k] for k in sorted(events["kinds"])}
    for data in merged["spans"].values():
        if "records" in data:
            data["records"] = _windowed(data["records"],
                                        DEFAULT_MAX_SPAN_RECORDS, data)
            walls = sorted(r["wall_ns"] for r in data["records"])
            data["wall_ns_p50"] = _nearest_rank(walls, 0.50) if walls else None
            data["wall_ns_p95"] = _nearest_rank(walls, 0.95) if walls else None
    for kind in ("counters", "gauges", "histograms", "spans"):
        merged[kind] = {name: merged[kind][name] for name in sorted(merged[kind])}
    if heap_peak is not None:
        merged["heap_peak_bytes"] = heap_peak
    return merged


def write_blob_jsonl(path: str, blob: Dict[str, Any],
                     meta: Optional[Dict[str, Any]] = None) -> None:
    """Write an exported blob as ``repro-obs/v1`` JSON lines: one ``meta``
    line, then one ``type``-tagged line per instrument, span and windowed
    event, so consumers can stream-filter without loading everything.

    The one writer of the format: a single run writes
    ``ctx.export(include_records=True)``, a sharded run its merged export.
    """
    with open(path, "w", encoding="utf-8") as handle:
        header = {"type": "meta", "schema": "repro-obs/v1"}
        if meta:
            header.update(meta)
        handle.write(json.dumps(header) + "\n")
        for kind in ("counters", "gauges"):
            for name, value in blob.get(kind, {}).items():
                handle.write(json.dumps(
                    {"type": kind[:-1], "name": name, "value": value}) + "\n")
        for name, data in blob.get("histograms", {}).items():
            handle.write(json.dumps(
                {"type": "histogram", "name": name, **data}) + "\n")
        for name, data in blob.get("spans", {}).items():
            handle.write(json.dumps(
                {"type": "span", "name": name, **data}) + "\n")
        events = blob.get("events")
        if events:
            summary = {k: v for k, v in events.items() if k != "records"}
            handle.write(json.dumps({"type": "event_summary", **summary}) + "\n")
            for record in events.get("records", ()):
                handle.write(json.dumps({"type": "event", **record}) + "\n")
        if blob.get("heap_peak_bytes") is not None:
            handle.write(json.dumps(
                {"type": "gauge", "name": "heap.peak_bytes",
                 "value": blob["heap_peak_bytes"]}) + "\n")


# ------------------------------------------------------------------- runtime

#: The process-local current context (None = observability off, the default).
_CURRENT: Optional[ObsContext] = None


def current() -> Optional[ObsContext]:
    """The active context, or ``None`` when observability is disabled.

    Components call this **once, at construction time**, and cache the result
    on an instance attribute; hot paths must only ever test that attribute.
    """
    return _CURRENT


def enable(ctx: Optional[ObsContext] = None) -> ObsContext:
    """Install ``ctx`` (or a fresh context) as the current one."""
    global _CURRENT
    if ctx is None:
        ctx = ObsContext()
    _CURRENT = ctx
    ctx.heap_start()
    return ctx


def disable() -> None:
    """Turn observability off (components built afterwards observe nothing)."""
    global _CURRENT
    if _CURRENT is not None:
        _CURRENT.heap_stop()
    _CURRENT = None


@contextlib.contextmanager
def observing(ctx: Optional[ObsContext] = None, **kwargs: Any) -> Iterator[ObsContext]:
    """Scoped enable/restore: ``with observing() as obs: ...``.

    ``kwargs`` construct the fresh context when ``ctx`` is not given.  The
    previously-installed context (usually ``None``) is restored on exit, so
    nested scopes and test isolation work without bookkeeping.
    """
    global _CURRENT
    previous = _CURRENT
    installed = enable(ctx if ctx is not None else ObsContext(**kwargs))
    try:
        yield installed
    finally:
        installed.heap_stop()
        _CURRENT = previous
