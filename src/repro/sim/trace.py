"""Structured trace recording.

Every component of the stack (channel, nodes, fault injector, metric
collectors) can emit trace records.  A record is ``(time, category, data)``.
Traces are used by tests (to assert causal behaviour), by the metrics package
(to compute message overhead) and by the examples (to print timelines).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

__all__ = ["TraceRecord", "TraceRecorder"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    category: str
    data: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.data[key]


class TraceRecorder:
    """Collects :class:`TraceRecord` entries and offers simple querying.

    Recording can be limited to a set of categories to keep memory bounded in
    long benchmark runs (counters are always maintained for every category).
    ``max_records`` bounds the stored history: beyond it the *oldest* records
    are dropped (a sliding window over the most recent events), while the
    per-category counters keep counting every event exactly, so a recorder's
    memory stays O(max_records) however long the run.
    """

    def __init__(self, keep_categories: Optional[set] = None, max_records: Optional[int] = None):
        self._records: Deque[TraceRecord] = deque(maxlen=max_records)
        self._counts: Counter = Counter()
        self._keep = keep_categories
        self._max_records = max_records
        self._subscribers: Dict[str, List[Callable[[TraceRecord], None]]] = defaultdict(list)

    @property
    def max_records(self) -> Optional[int]:
        """The record-storage bound (``None`` means unbounded)."""
        return self._max_records

    # --------------------------------------------------------------- record

    def record(self, time: float, category: str, **data: Any) -> None:
        """Record an event of ``category`` at simulated ``time``."""
        self._counts[category] += 1
        if self._max_records == 0 and category not in self._subscribers:
            # ``max_records=0`` means "count only, store nothing": with no
            # subscriber wanting the record either, skip constructing it
            # entirely (a zero-maxlen deque would silently drop it anyway,
            # but the allocation per event is pure waste).
            return
        rec = TraceRecord(time=time, category=category, data=data)
        for callback in self._subscribers.get(category, ()):
            callback(rec)
        if self._keep is not None and category not in self._keep:
            return
        self._records.append(rec)

    def subscribe(self, category: str, callback: Callable[[TraceRecord], None]) -> None:
        """Register ``callback`` to be invoked for every record of ``category``."""
        self._subscribers[category].append(callback)

    # ---------------------------------------------------------------- query

    @property
    def records(self) -> List[TraceRecord]:
        """All stored records, in recording order."""
        return list(self._records)

    def count(self, category: Optional[str] = None) -> int:
        """Number of recorded events (of ``category`` if given, total otherwise)."""
        if category is None:
            return sum(self._counts.values())
        return self._counts.get(category, 0)

    def counts(self) -> Dict[str, int]:
        """Mapping category -> number of events."""
        return dict(self._counts)

    def filter(self, category: Optional[str] = None,
               predicate: Optional[Callable[[TraceRecord], bool]] = None) -> List[TraceRecord]:
        """Return stored records matching ``category`` and ``predicate``."""
        out = []
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop stored records and counters."""
        self._records.clear()
        self._counts.clear()

    # ---------------------------------------------------------------- export

    def to_jsonl(self, path: str) -> int:
        """Write the stored records as JSON lines; returns the line count.

        One ``{"time", "category", ...data}`` object per line, in recording
        order — the same shape the obs layer's ``metrics.jsonl`` uses, so the
        two files share tooling.  Only *stored* records are written (the
        sliding window / category filter applies); use :meth:`counts` for the
        exact per-category totals.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self._records:
                payload = {"time": rec.time, "category": rec.category}
                payload.update(rec.data)
                handle.write(json.dumps(payload, default=str) + "\n")
                written += 1
        return written
