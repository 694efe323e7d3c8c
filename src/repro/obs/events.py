"""Protocol-level event stream: the third obs pillar next to metrics and spans.

An *event* is one qualitative protocol occurrence — a group forming, a head
change, a predicate violation, a convergence milestone — recorded as
``(kind, sim_time, seq, payload)``:

* ``kind`` — dotted event type (``"group.merged"``, ``"predicate.agreement_violation"``,
  ``"convergence.first_legitimate"``); the stream keeps exact per-kind counts
  even after the record window drops old entries;
* ``sim_time`` / ``seq`` — simulated clock and the context's monotonic
  observation sequence; together they give the canonical stream order;
* ``payload`` — small JSON-serializable facts about the occurrence (node ids
  as strings, group sizes, violation counts).

An event carries no wall-clock reading, so two bit-identical runs produce
bit-identical event exports.

Like spans, raw records live in a bounded sliding window (newest win) while
per-kind counts stay exact, so long churny runs cannot grow memory without
bound.  Nothing here reads randomness or touches simulation state: recording
an event is observation only, which is what keeps ``--obs`` replay-safe.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

__all__ = ["ObsEvent", "EventStream", "DEFAULT_MAX_EVENT_RECORDS"]

#: Default bound on stored raw event records (per-kind counts stay exact).
DEFAULT_MAX_EVENT_RECORDS = 4096


class ObsEvent:
    """One recorded protocol occurrence."""

    __slots__ = ("kind", "sim_time", "seq", "payload")

    def __init__(self, kind: str, sim_time: float, seq: int,
                 payload: Optional[Dict[str, Any]]):
        self.kind = kind
        self.sim_time = sim_time
        self.seq = seq
        self.payload = payload

    def sort_key(self):
        return (self.sim_time, self.seq)

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"kind": self.kind, "sim_time": self.sim_time,
                                "seq": self.seq}
        if self.payload:
            data["payload"] = self.payload
        return data


class EventStream:
    """Exact per-kind counts plus a bounded, sim-time-ordered record window."""

    __slots__ = ("max_records", "kind_counts", "records", "dropped")

    def __init__(self, max_records: int = DEFAULT_MAX_EVENT_RECORDS):
        self.max_records = int(max_records)
        self.kind_counts: Dict[str, int] = {}
        #: Sliding window of the most recent events (``max_records=0`` keeps
        #: none — per-kind counts still count every event exactly).
        self.records: Deque[ObsEvent] = deque(maxlen=self.max_records)
        self.dropped = 0

    @property
    def count(self) -> int:
        return sum(self.kind_counts.values())

    def record(self, kind: str, sim_time: float, seq: int,
               payload: Optional[Dict[str, Any]] = None) -> None:
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        if self.records.maxlen != 0:
            if len(self.records) == self.records.maxlen:
                self.dropped += 1
            self.records.append(ObsEvent(kind, sim_time, seq, payload))
        else:
            self.dropped += 1

    def events_of(self, kind: str) -> List[ObsEvent]:
        """Windowed records of one kind, in canonical stream order."""
        return sorted((e for e in self.records if e.kind == kind),
                      key=ObsEvent.sort_key)

    # ------------------------------------------------------------- reporting

    def ordered_records(self) -> List[ObsEvent]:
        """The window in canonical ``(sim_time, seq)`` order."""
        return sorted(self.records, key=ObsEvent.sort_key)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "kinds": {k: self.kind_counts[k] for k in sorted(self.kind_counts)},
            "dropped_records": self.dropped,
            "records": [event.as_dict() for event in self.ordered_records()],
        }

